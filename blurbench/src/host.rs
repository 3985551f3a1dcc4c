//! Process and host facts: CPU time, peak memory, and the hardware and
//! thread settings every result depends on.

use std::io;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (the first is `ru_maxrss`, in KiB).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `RUSAGE_SELF`: the calling process, all its threads, live or exited.
const RUSAGE_SELF: i32 = 0;

fn usage() -> io::Result<RUsage> {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of the 64-bit Linux targets this benchmark builds for, and
    // getrusage writes nothing beyond it.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(usage)
}

/// User plus system CPU time this process has used so far, in seconds.
pub fn cpu_seconds() -> io::Result<f64> {
    let u = usage()?;
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(secs(&u.utime) + secs(&u.stime))
}

/// The process's peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    Ok(usage()?.longs[0] as f64 / 1024.0)
}

/// The host facts printed with every result.
pub fn facts() -> String {
    format!(
        "host_cpus={} simd_tier={} rayon_threads={} RAYON_NUM_THREADS={}",
        blurnet_bench::host_cpus(),
        blurnet_tensor::default_backend().simd_tier(),
        rayon::current_num_threads(),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_grow_with_work() {
        let before = cpu_seconds().unwrap();
        let start = std::time::Instant::now();
        let mut spin = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(50) {
            spin = std::hint::black_box(spin.wrapping_add(1));
        }
        assert!(spin > 0);
        assert!(cpu_seconds().unwrap() > before);
        let held = std::hint::black_box(vec![1u8; 64 << 20]);
        assert!(peak_rss_mb().unwrap() >= 64.0, "{}", held.len());
    }
}

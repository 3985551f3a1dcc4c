//! Shared helpers for the `reproduce` binary and the trajectory benches:
//! the experiment seed, the timing loop, and the host/thread-count
//! conventions every `BENCH_*.json` records.

use std::hint::black_box;
use std::time::{Duration, Instant};

use serde::Value;

/// Seed every reproduction and bench uses, so their tables are mutually
/// consistent.
pub const EXPERIMENT_SEED: u64 = 7;

/// Thread counts every multi-core-aware `BENCH_*.json` records timings
/// at, so numbers are comparable across benches and across hosts.
pub const BENCH_THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Logical CPUs of the machine running the bench. Recorded in every
/// `BENCH_*.json` so a reader can tell whether multi-thread numbers had
/// real cores behind them.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Warns (on stderr) when the bench is running on a single-core host,
/// where every thread count beyond 1 measures oversubscription rather
/// than parallel speedup. Returns whether the warning fired.
pub(crate) fn warn_if_single_core(bench: &str) -> bool {
    let single = host_cpus() == 1;
    if single {
        eprintln!(
            "# WARNING [{bench}]: host has 1 CPU — multi-thread timings measure \
             oversubscription, not speedup; re-run on a multi-core host for scaling numbers"
        );
    }
    single
}

/// The host-description entries (`host_cpus`, `single_core_warning`)
/// every `BENCH_*.json` starts with, emitting the stderr warning as a
/// side effect.
pub fn host_entries(bench: &str) -> Vec<(String, Value)> {
    vec![
        ("host_cpus".into(), Value::Int(host_cpus() as i64)),
        (
            "single_core_warning".into(),
            Value::Bool(warn_if_single_core(bench)),
        ),
    ]
}

/// Runs `f` with the persistent rayon pool's effective parallelism pinned
/// to `threads` — the helper the benches use to record per-thread-count
/// timings.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("thread pool");
    pool.install(f)
}

/// Measures `f` adaptively: batch sizes grow until one batch takes at
/// least `min_batch`; the per-iteration median over `samples` batches is
/// returned in nanoseconds.
pub fn measure_median_ns<O, F: FnMut() -> O>(mut f: F, samples: usize, min_batch: Duration) -> f64 {
    // Warm-up and batch sizing.
    let mut batch = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= min_batch || batch >= 1 << 24 {
            break;
        }
        // Grow toward the target with a 2x safety factor.
        let grow = (min_batch.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).ceil() as usize;
        batch = (batch * grow.clamp(2, 64)).min(1 << 24);
    }
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples.max(2) {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        per_iter.push(start.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    per_iter[per_iter.len() / 2]
}

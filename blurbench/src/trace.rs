//! In-memory span recording and Chrome trace-event export.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each crate; nothing inside the crates is instrumented. The scheduler's
//! own per-node timings ([`RunProfile`]) are imported as spans on one
//! track per scheduler worker. Everything is kept in memory and written
//! once, as a JSON file that Perfetto or `chrome://tracing` opens.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use blurnet::RunProfile;

/// Track (trace-viewer thread row) of the benchmark's main thread.
pub const MAIN: u32 = 1;
/// Track of the serving load generator.
pub const GENERATOR: u32 = 2;
/// Track carrying one async span per served request.
pub const REQUESTS: u32 = 3;
/// First scheduler-worker track; worker `w` is `WORKER_BASE + w`.
pub const WORKER_BASE: u32 = 10;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    category: &'static str,
    track: u32,
    start_us: f64,
    duration_us: f64,
    /// Overlapping spans on one track (concurrent requests) are exported
    /// as async begin/end pairs keyed by this id.
    async_id: Option<u64>,
}

/// A span recorder. A disabled recorder still runs the timed closures but
/// keeps nothing, so traced and untraced runs execute the same code.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    track_names: Mutex<Vec<(u32, String)>>,
}

impl Trace {
    /// A recorder whose time zero is now.
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            track_names: Mutex::new(vec![
                (MAIN, "benchmark".into()),
                (GENERATOR, "loadgen generator".into()),
                (REQUESTS, "requests".into()),
            ]),
        }
    }

    fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span list poisoned").push(span);
        }
    }

    /// Records a finished span on `track`.
    pub fn record(
        &self,
        category: &'static str,
        name: impl Into<String>,
        track: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.push(Span {
            name: name.into(),
            category,
            track,
            start_us: self.offset_us(start),
            duration_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            async_id: None,
        });
    }

    /// Records a span that may overlap others on its track.
    pub fn record_async(
        &self,
        category: &'static str,
        name: &str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.push(Span {
            name: name.to_string(),
            category,
            track: REQUESTS,
            start_us: self.offset_us(start),
            duration_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            async_id: Some(id),
        });
    }

    /// Runs `f` inside a span on the main track and returns its result
    /// with the span's duration.
    pub fn span<T>(
        &self,
        category: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(category, name, MAIN, start, end);
        (out, end - start)
    }

    /// Imports a scheduler run's per-node timings as spans on one track
    /// per worker. `run_end` is when `ExperimentScheduler::run` returned;
    /// the profile's node offsets are relative to the scheduler's own
    /// start, which lies `wall_ns` before that.
    pub fn import_profile(&self, label: &str, profile: &RunProfile, run_end: Instant) {
        if !self.enabled {
            return;
        }
        let run_start = run_end
            .checked_sub(Duration::from_nanos(profile.wall_ns))
            .unwrap_or(run_end);
        {
            let mut names = self.track_names.lock().expect("track names poisoned");
            for worker in 0..profile.workers {
                let track = WORKER_BASE + worker as u32;
                if !names.iter().any(|(t, _)| *t == track) {
                    names.push((track, format!("scheduler worker {worker}")));
                }
            }
        }
        for node in &profile.nodes {
            let start = run_start + Duration::from_nanos(node.start_ns);
            let end = start + Duration::from_nanos(node.duration_ns);
            self.record(
                "scheduler",
                format!("{label} {}", node.name),
                WORKER_BASE + node.worker as u32,
                start,
                end,
            );
        }
    }

    /// Number of spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Writes every span as a Chrome trace-event JSON file, with
    /// `metadata` as `otherData`.
    pub fn write_chrome(&self, path: &Path, metadata: &[(&str, String)]) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let names = self.track_names.lock().expect("track names poisoned");
        let mut out = String::with_capacity(128 * (spans.len() + names.len()) + 256);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut event = |out: &mut String, body: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&body);
        };
        for (track, name) in names.iter() {
            event(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                    json_string(name)
                ),
            );
        }
        for span in spans.iter() {
            let name = json_string(&span.name);
            match span.async_id {
                None => event(
                    &mut out,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"{}\",\"name\":{name},\"ts\":{:.3},\"dur\":{:.3}}}",
                        span.track, span.category, span.start_us, span.duration_us
                    ),
                ),
                Some(id) => {
                    for (ph, ts) in [("b", span.start_us), ("e", span.start_us + span.duration_us)] {
                        event(
                            &mut out,
                            format!(
                                "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"cat\":\"{}\",\"name\":{name},\"id\":{id},\"ts\":{ts:.3}}}",
                                span.track, span.category
                            ),
                        );
                    }
                }
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (key, value)) in metadata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(key), json_string(value));
        }
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_keeps_nothing() {
        let trace = Trace::new(false);
        let (value, _) = trace.span("test", "work", || 5);
        assert_eq!(value, 5);
        assert_eq!(trace.len(), 0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

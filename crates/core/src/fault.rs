//! Deterministic fault injection for the concurrency layers (compiled
//! only with the `fault-injection` feature).
//!
//! A **fault point** is a named site in the queue/scheduler/serving stack
//! where a controlled failure can be injected: a panic, a delay, or an
//! error the site maps to its own failure mode (a refused push, a spurious
//! timeout, an I/O error on the wire). Sites are compiled in through the
//! [`fault_point!`](crate::fault_point) macro, which expands to **nothing**
//! when the feature is off — release builds carry no fault symbols, no
//! site-name strings, and no branch on the hot paths (CI asserts this by
//! grepping the release binaries for [`MARKER`]).
//!
//! # Determinism
//!
//! Faults are armed programmatically ([`arm`]) with a [`FaultSpec`] that
//! decides *which hits* of a site fire:
//!
//! * [`FaultSpec::on_hit`] fires on exactly the n-th invocation (1-based)
//!   and the `max_fires` that follow it — fully deterministic given the
//!   site's invocation order;
//! * [`FaultSpec::seeded`] flips a seed-keyed coin per hit
//!   (`splitmix64(seed ⊕ fnv(site) ⊕ hit)`), so a chaos run replays the
//!   same firing pattern for the same seed and hit order;
//! * [`FaultSpec::tagged`] restricts firing to invocations carrying a
//!   matching tag (e.g. the content hash of a poisoned request), which is
//!   what keeps a poison stable across batch-bisection retries.
//!
//! Hit and fire counts are observable ([`hits`], [`fires`]) so tests can
//! assert a scenario actually exercised its site. The registry is global
//! (fault points are reached from arbitrary worker threads); chaos tests
//! serialize themselves around [`disarm_all`].

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// Marker string embedded in every injected panic message. CI greps the
/// release binaries for this needle to prove the feature compiled out.
pub const MARKER: &str = "blurnet-fault-injection";

/// Canonical site names, one constant per registered fault point.
pub mod sites {
    /// [`BoundedQueue::push`](crate::queue::BoundedQueue::push) entry.
    /// Error kind: the push is spuriously refused (item returned).
    pub const QUEUE_PUSH: &str = "core.queue.push";
    /// [`BoundedQueue::pop`](crate::queue::BoundedQueue::pop) entry.
    /// Error kind: a spurious `None`, as if the queue had closed.
    pub const QUEUE_POP: &str = "core.queue.pop";
    /// [`BoundedQueue::pop_timeout`](crate::queue::BoundedQueue::pop_timeout)
    /// entry. Error kind: a spurious `TimedOut`.
    pub const QUEUE_POP_TIMEOUT: &str = "core.queue.pop_timeout";
    /// A scheduler training node. Error kind: the node fails.
    pub const SCHED_TRAIN: &str = "core.sched.train";
    /// A scheduler artifact node (transfer set, sticker or sweep). Error kind:
    /// the node fails.
    pub const SCHED_ARTIFACT: &str = "core.sched.artifact";
    /// A scheduler evaluation cell. Error kind: the cell fails.
    pub const SCHED_CELL: &str = "core.sched.cell";
    /// The serve batcher, after coalescing and before dispatching a
    /// batch. Panic kind kills the batcher thread mid-flight.
    pub const SERVE_BATCH_FLUSH: &str = "serve.batcher.flush";
    /// A serve batch worker, per popped batch, **outside** the per-batch
    /// recovery scope. Panic kind kills the worker thread mid-batch.
    pub const SERVE_WORKER_BATCH: &str = "serve.worker.batch";
    /// A serve batch worker, per request, **inside** the per-batch
    /// recovery scope — tag it with the request's content hash to model a
    /// poison request that panics the forward pass.
    pub const SERVE_WORKER_REQUEST: &str = "serve.worker.request";
    /// The TCP framing layer, per received request frame. Error kind: the
    /// request is answered with an error response.
    pub const SERVE_TCP_FRAME: &str = "serve.tcp.frame";
    /// A disk-cache load inside a scheduler train/artifact node. Error
    /// kind: the load reports corruption, forcing the fall-back path that
    /// regenerates the entry from scratch.
    pub const CACHE_LOAD: &str = "core.cache.load";
    /// The run journal, before appending a completed-cell record. Error
    /// kind: the append fails and the journal self-retires (best-effort
    /// durability never fails the run). [`Abort`](super::FaultKind::Abort)
    /// kind at hit *n* is the kill-after-*n−1*-cells point of the
    /// process-level chaos sweep.
    pub const JOURNAL_APPEND: &str = "core.journal.append";
    /// The run journal, mid-append: an Error-kind firing writes a torn
    /// prefix of the record and **aborts the process** — a genuine
    /// kill-mid-append. Never arm this in-process; it is exercised only
    /// by the subprocess chaos harness (`crates/bench/tests/crash_chaos.rs`).
    pub const JOURNAL_TORN: &str = "core.journal.torn";
}

/// Every registered fault site, in declaration order. The chaos suites
/// iterate this list and assert each site has a scenario.
pub fn all_sites() -> &'static [&'static str] {
    &[
        sites::QUEUE_PUSH,
        sites::QUEUE_POP,
        sites::QUEUE_POP_TIMEOUT,
        sites::SCHED_TRAIN,
        sites::SCHED_ARTIFACT,
        sites::SCHED_CELL,
        sites::SERVE_BATCH_FLUSH,
        sites::SERVE_WORKER_BATCH,
        sites::SERVE_WORKER_REQUEST,
        sites::SERVE_TCP_FRAME,
        sites::CACHE_LOAD,
        sites::JOURNAL_APPEND,
        sites::JOURNAL_TORN,
    ]
}

/// What an armed fault does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (message contains [`MARKER`] and the site name).
    Panic,
    /// Sleep at the site, then continue normally — widens race windows.
    Delay(Duration),
    /// Report "inject an error" to the site, which maps it to its own
    /// failure mode (refused push, spurious timeout, I/O error, …).
    Error,
    /// `std::process::abort()` at the site — the process dies on the spot
    /// with no unwinding, no destructors and no flushes, modelling a
    /// SIGKILL/OOM-kill at that exact point. Only meaningful from a
    /// subprocess harness (see [`arm_from_env`]).
    Abort,
}

/// When a fault fires, relative to the site's hit counter.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Trigger {
    /// Fire from the `first` hit (1-based) for `fires` consecutive hits.
    OnHit { first: u64, fires: u64 },
    /// Fire on hit `h` iff `splitmix64(seed ^ fnv(site) ^ h)` lands below
    /// `threshold` (a probability mapped onto the u64 range).
    Seeded { seed: u64, threshold: u64 },
}

/// One armed fault: kind + trigger + optional tag filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    kind: FaultKind,
    trigger: Trigger,
    tag: Option<u64>,
}

impl FaultSpec {
    /// Fires once, on the `hit`-th invocation (1-based) of the site.
    pub fn on_hit(kind: FaultKind, hit: u64) -> Self {
        FaultSpec {
            kind,
            trigger: Trigger::OnHit {
                first: hit.max(1),
                fires: 1,
            },
            tag: None,
        }
    }

    /// Fires on every invocation from the first.
    pub fn always(kind: FaultKind) -> Self {
        FaultSpec {
            kind,
            trigger: Trigger::OnHit {
                first: 1,
                fires: u64::MAX,
            },
            tag: None,
        }
    }

    /// Fires on each hit independently with probability `p`, keyed by
    /// `seed` — the same seed and hit order replay the same pattern.
    pub fn seeded(kind: FaultKind, seed: u64, p: f64) -> Self {
        let threshold = (p.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        FaultSpec {
            kind,
            trigger: Trigger::Seeded { seed, threshold },
            tag: None,
        }
    }

    /// Restricts firing to invocations whose tag equals `tag` (untagged
    /// invocations never fire). Tag-filtered hits still advance the
    /// site's hit counter, but the trigger is evaluated against the
    /// count of *matching* hits only.
    pub fn tagged(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }
}

/// Per-site live state: the armed spec plus counters.
struct SiteState {
    spec: FaultSpec,
    /// Hits evaluated against the trigger (tag-matching hits only).
    matched: u64,
    fires: u64,
}

/// Global registry: armed sites plus lifetime hit counters for every site
/// ever touched (armed or not).
struct Registry {
    armed: HashMap<&'static str, SiteState>,
}

static ARMED: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = ARMED.lock().expect("fault registry poisoned");
    let registry = guard.get_or_insert_with(|| Registry {
        armed: HashMap::new(),
    });
    f(registry)
}

/// FNV-1a over a byte slice — the site/tag hash everything here shares.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The splitmix64 finalizer — the seed-keyed coin behind
/// [`FaultSpec::seeded`].
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Arms `site` with `spec`, replacing any previous arming (and resetting
/// its counters). `site` must be one of [`all_sites`].
///
/// # Panics
///
/// Panics if `site` is not a registered fault point — a typo in a chaos
/// scenario should fail loudly, not silently never fire.
pub fn arm(site: &str, spec: FaultSpec) {
    let canonical = all_sites()
        .iter()
        .find(|&&s| s == site)
        .unwrap_or_else(|| panic!("{MARKER}: unknown fault site {site:?}"));
    with_registry(|reg| {
        reg.armed.insert(
            canonical,
            SiteState {
                spec,
                matched: 0,
                fires: 0,
            },
        );
    });
}

/// Disarms every site and resets all counters.
pub fn disarm_all() {
    *ARMED.lock().expect("fault registry poisoned") = None;
}

/// Number of times `site`'s armed trigger was evaluated (tag-matching
/// invocations) since it was armed. Zero for unarmed sites.
pub fn hits(site: &str) -> u64 {
    with_registry(|reg| reg.armed.get(site).map_or(0, |s| s.matched))
}

/// Number of times `site` actually fired since it was armed.
pub fn fires(site: &str) -> u64 {
    with_registry(|reg| reg.armed.get(site).map_or(0, |s| s.fires))
}

/// Evaluates the fault point `site` for an untagged invocation. Executes
/// `Panic`/`Delay` faults in place; returns `true` when an `Error` fault
/// fired and the site should inject its own failure mode.
pub fn fire(site: &str) -> bool {
    evaluate(site, None)
}

/// Evaluates the fault point `site` for an invocation carrying `tag`
/// (see [`FaultSpec::tagged`]).
pub fn fire_tagged(site: &str, tag: u64) -> bool {
    evaluate(site, Some(tag))
}

fn evaluate(site: &str, tag: Option<u64>) -> bool {
    // Decide under the lock, act (panic/sleep) outside it.
    let action = with_registry(|reg| {
        let state = reg.armed.get_mut(site)?;
        if state.spec.tag.is_some() && state.spec.tag != tag {
            return None;
        }
        state.matched += 1;
        let hit = state.matched;
        let fires = match state.spec.trigger {
            Trigger::OnHit { first, fires } => hit >= first && (hit - first) < fires,
            Trigger::Seeded { seed, threshold } => {
                splitmix(seed ^ fnv(site.as_bytes()) ^ hit) < threshold
            }
        };
        if !fires {
            return None;
        }
        state.fires += 1;
        Some(state.spec.kind.clone())
    });
    match action {
        None => false,
        Some(FaultKind::Error) => true,
        Some(FaultKind::Delay(d)) => {
            std::thread::sleep(d);
            false
        }
        Some(FaultKind::Panic) => {
            panic!("{MARKER}: injected panic at fault site {site}");
        }
        Some(FaultKind::Abort) => {
            // The one observable trace before the process vanishes — the
            // chaos harness greps for it to confirm the kill point.
            eprintln!("{MARKER}: injected abort at fault site {site}");
            std::process::abort();
        }
    }
}

/// Environment variable [`arm_from_env`] reads: a comma-separated list of
/// `site:kind[@hit]` entries, e.g.
/// `BLURNET_FAULT=core.journal.append:abort@3,core.queue.pop:error`.
const FAULT_ENV: &str = "BLURNET_FAULT";

/// Arms fault sites from the [`FAULT_ENV`] environment variable — the
/// bridge that lets a chaos harness inject faults into a **subprocess**
/// it spawns (the registry is per-process). Each entry is
/// `site:kind[@hit]` with kind one of `panic`, `error`, `abort` or
/// `delay-<ms>`; `@hit` selects the 1-based invocation that fires
/// (default 1). Binaries compiled with the feature call this at startup;
/// an unset or empty variable arms nothing.
///
/// # Panics
///
/// Panics on an unknown site or malformed entry — a typo in a chaos
/// scenario should fail loudly, not silently never fire.
pub fn arm_from_env() {
    let Ok(value) = std::env::var(FAULT_ENV) else {
        return;
    };
    for entry in value.split(',').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        let (site, rest) = entry
            .split_once(':')
            .unwrap_or_else(|| panic!("{MARKER}: malformed {FAULT_ENV} entry {entry:?}"));
        let (kind, hit) = match rest.split_once('@') {
            Some((kind, hit)) => (
                kind,
                hit.parse::<u64>()
                    .unwrap_or_else(|_| panic!("{MARKER}: bad hit in {FAULT_ENV} entry {entry:?}")),
            ),
            None => (rest, 1),
        };
        let kind = match kind {
            "panic" => FaultKind::Panic,
            "error" => FaultKind::Error,
            "abort" => FaultKind::Abort,
            _ => match kind.strip_prefix("delay-").and_then(|ms| ms.parse().ok()) {
                Some(ms) => FaultKind::Delay(Duration::from_millis(ms)),
                None => panic!("{MARKER}: unknown fault kind in {FAULT_ENV} entry {entry:?}"),
            },
        };
        arm(site, FaultSpec::on_hit(kind, hit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is global; fault tests serialize around this lock.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn on_hit_fires_exactly_once_at_the_requested_hit() {
        let _guard = LOCK.lock().unwrap();
        disarm_all();
        arm(sites::QUEUE_PUSH, FaultSpec::on_hit(FaultKind::Error, 3));
        assert!(!fire(sites::QUEUE_PUSH));
        assert!(!fire(sites::QUEUE_PUSH));
        assert!(fire(sites::QUEUE_PUSH));
        assert!(!fire(sites::QUEUE_PUSH));
        assert_eq!(hits(sites::QUEUE_PUSH), 4);
        assert_eq!(fires(sites::QUEUE_PUSH), 1);
        disarm_all();
        assert!(!fire(sites::QUEUE_PUSH));
    }

    #[test]
    fn tagged_faults_ignore_other_tags() {
        let _guard = LOCK.lock().unwrap();
        disarm_all();
        let poison = blurnet_tensor::persist::fnv1a_f32s(&[1.0, 2.0, 3.0]);
        arm(
            sites::SERVE_WORKER_REQUEST,
            FaultSpec::always(FaultKind::Error).tagged(poison),
        );
        assert!(!fire_tagged(sites::SERVE_WORKER_REQUEST, poison ^ 1));
        assert!(!fire(sites::SERVE_WORKER_REQUEST));
        assert!(fire_tagged(sites::SERVE_WORKER_REQUEST, poison));
        assert!(fire_tagged(sites::SERVE_WORKER_REQUEST, poison));
        assert_eq!(fires(sites::SERVE_WORKER_REQUEST), 2);
        disarm_all();
    }

    #[test]
    fn seeded_faults_replay_bit_identically() {
        let _guard = LOCK.lock().unwrap();
        let pattern = |seed: u64| -> Vec<bool> {
            disarm_all();
            arm(
                sites::SCHED_CELL,
                FaultSpec::seeded(FaultKind::Error, seed, 0.5),
            );
            let p = (0..64).map(|_| fire(sites::SCHED_CELL)).collect();
            disarm_all();
            p
        };
        let a = pattern(42);
        assert_eq!(a, pattern(42), "same seed must replay the same pattern");
        assert_ne!(a, pattern(43), "different seeds should diverge");
        assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f));
    }

    #[test]
    fn injected_panics_carry_the_marker() {
        let _guard = LOCK.lock().unwrap();
        disarm_all();
        arm(sites::SCHED_CELL, FaultSpec::always(FaultKind::Panic));
        let payload =
            std::panic::catch_unwind(|| fire(sites::SCHED_CELL)).expect_err("armed panic fires");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic message is a string");
        assert!(msg.contains(MARKER) && msg.contains(sites::SCHED_CELL));
        disarm_all();
    }

    #[test]
    fn delay_faults_pause_without_failing() {
        let _guard = LOCK.lock().unwrap();
        disarm_all();
        arm(
            sites::QUEUE_POP,
            FaultSpec::on_hit(FaultKind::Delay(Duration::from_millis(15)), 1),
        );
        let t0 = std::time::Instant::now();
        assert!(!fire(sites::QUEUE_POP));
        assert!(t0.elapsed() >= Duration::from_millis(15));
        disarm_all();
    }

    #[test]
    fn arm_from_env_parses_site_kind_and_hit() {
        let _guard = LOCK.lock().unwrap();
        disarm_all();
        std::env::set_var(FAULT_ENV, "core.queue.push:error@2, core.queue.pop:delay-5");
        arm_from_env();
        std::env::remove_var(FAULT_ENV);
        assert!(!fire(sites::QUEUE_PUSH));
        assert!(fire(sites::QUEUE_PUSH), "error kind fires on hit 2");
        let t0 = std::time::Instant::now();
        assert!(!fire(sites::QUEUE_POP), "delay kind pauses, never errors");
        assert!(t0.elapsed() >= Duration::from_millis(5));
        disarm_all();
        // Malformed entries fail loudly.
        for bad in [
            "no-colon",
            "core.queue.push:nope",
            "core.queue.push:error@x",
        ] {
            std::env::set_var(FAULT_ENV, bad);
            assert!(
                std::panic::catch_unwind(arm_from_env).is_err(),
                "{bad:?} should be rejected"
            );
            std::env::remove_var(FAULT_ENV);
        }
        disarm_all();
    }

    #[test]
    fn unknown_sites_are_rejected_at_arm_time() {
        let _guard = LOCK.lock().unwrap();
        disarm_all();
        assert!(std::panic::catch_unwind(|| {
            arm("core.queue.typo", FaultSpec::always(FaultKind::Error))
        })
        .is_err());
        disarm_all();
    }
}

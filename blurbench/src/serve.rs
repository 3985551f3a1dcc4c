//! The serving workload: the in-process `ClassifyService` over the
//! BlurNet feature-filter 5×5 model with `ServeConfig::default()`, driven
//! by a seeded open-loop Poisson load.
//!
//! One generator thread submits each request at its scheduled time via
//! `ServeClient::submit`; one collector thread waits on the tickets in
//! submission order. Latency runs from a request's scheduled send time to
//! its answer, so a stall also charges the requests queued behind it.
//! Every answer is compared bit for bit with a `classify_single` oracle
//! computed during set-up.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blurnet::ModelZoo;
use blurnet_data::SignDataset;
use blurnet_defenses::{model_to_bytes, DefendedModel, DefenseKind};
use blurnet_serve::{
    classify_single, Classification, ClassifyService, ServeConfig, ServeError, Ticket,
};
use blurnet_tensor::Tensor;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::grid::SCALE;
use crate::metrics::Metrics;
use crate::schedule::{poisson_arrivals, pool_picks};
use crate::trace::{self, Trace};
use crate::{host, stats, Error, Gates};

/// Offered load of the steady phase, requests per second.
pub const STEADY_RATE: f64 = 2000.0;

/// Offered load of the overload phase: far above what one batch worker
/// answers, so the admission queue stays full, the generator blocks in
/// `submit` (the default blocking admission), and the phase measures
/// saturated throughput.
pub const OVERLOAD_RATE: f64 = 50_000.0;

/// Set-up repetitions whose median is the serving `setup_s`.
const SETUP_REPS: usize = 5;

/// Distinct request images (each a perturbed test-set sign).
pub const POOL: usize = 256;

/// Amplitude of the per-image perturbation that makes pool entries
/// distinct.
const POOL_NOISE: f32 = 0.03;

/// Width of the steady-phase windows whose latency percentiles are
/// reported as medians.
const LATENCY_WINDOW_S: f64 = 0.5;

/// Width of the overload-phase windows whose throughput is reported as a
/// median.
const THROUGHPUT_WINDOW_S: f64 = 0.25;

/// How long the generator waits before the first scheduled send, so
/// both threads are running when the schedule starts.
const LEAD_IN: Duration = Duration::from_millis(20);

/// The served model: BlurNet's fixed 5×5 blur on the first-layer feature
/// maps.
pub fn served_defense() -> DefenseKind {
    DefenseKind::FeatureFilter { kernel: 5 }
}

/// The lengths of the two load phases.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Fixed-rate phase at [`STEADY_RATE`]; latency is measured here.
    pub steady: Duration,
    /// Overload phase at [`OVERLOAD_RATE`]; throughput is measured here.
    pub overload: Duration,
}

impl Phases {
    /// The workload's split of `seconds`: 75% steady (the end-to-end
    /// latency metrics), 25% overload.
    pub fn of(seconds: f64) -> Self {
        Phases {
            steady: Duration::from_secs_f64(seconds * 0.75),
            overload: Duration::from_secs_f64(seconds * 0.25),
        }
    }
}

/// A started service with its inputs and oracle answers.
pub struct ServeSetup {
    /// The served model.
    pub model: Arc<DefendedModel>,
    /// The request images.
    pub pool: Vec<Tensor>,
    /// `classify_single` answer for every pool image.
    pub oracle: Vec<Classification>,
    /// The running service.
    pub service: ClassifyService,
}

/// The request pool: test-set signs with a seeded per-image perturbation.
fn request_pool(dataset: &SignDataset, seed: u64) -> Result<Vec<Tensor>, Error> {
    let test = dataset.test_batch()?;
    let count = test.labels.len();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e4e_0000);
    (0..POOL)
        .map(|k| {
            let base = test.images.batch_item(k % count)?;
            let data = base
                .data()
                .iter()
                .map(|&v| {
                    let u = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
                    (v + (u - 0.5) * 2.0 * POOL_NOISE).clamp(0.0, 1.0)
                })
                .collect();
            Ok(Tensor::from_vec(data, base.dims())?)
        })
        .collect()
}

/// Trains the served model, builds the request pool and its oracle
/// answers, and starts the service — what a user pays before the first
/// request.
pub fn setup(seed: u64) -> Result<ServeSetup, Error> {
    let mut zoo = ModelZoo::new(SCALE, seed)?;
    let model = zoo.get_or_train_shared(&served_defense())?;
    let pool = request_pool(zoo.dataset(), seed)?;
    let oracle = pool
        .iter()
        .map(|image| classify_single(&model, image))
        .collect::<Result<Vec<_>, ServeError>>()?;
    let service = ClassifyService::new(Arc::clone(&model), ServeConfig::default())?;
    Ok(ServeSetup {
        model,
        pool,
        oracle,
        service,
    })
}

/// The bits a response is compared on.
fn answer_bits(c: &Classification) -> (usize, u32, blurnet_serve::DefenseVerdict) {
    (c.label, c.confidence.to_bits(), c.verdict)
}

/// Runs [`setup`] [`SETUP_REPS`] times (the median is `setup_s`), checks
/// that every repetition trained the same weights and oracle, and keeps
/// the last one running.
pub fn setup_repeated(seed: u64, gates: &mut Gates) -> Result<(ServeSetup, Vec<f64>), Error> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(ServeSetup, Vec<u8>)> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let fresh = setup(seed)?;
        secs.push(start.elapsed().as_secs_f64());
        let bytes = model_to_bytes(&fresh.model)?;
        if let Some((previous, previous_bytes)) = kept.take() {
            gates.check(bytes == previous_bytes, || {
                "repeated set-up trained different weights".to_string()
            });
            gates.check(
                previous
                    .oracle
                    .iter()
                    .map(answer_bits)
                    .eq(fresh.oracle.iter().map(answer_bits)),
                || "repeated set-up computed different oracle answers".to_string(),
            );
            previous.service.shutdown()?;
        }
        kept = Some((fresh, bytes));
    }
    let (setup, _) = kept.expect("at least one set-up ran");
    Ok((setup, secs))
}

/// What one load session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Steady-phase latency from scheduled send to answer, ms.
    pub latencies_ms: Vec<f64>,
    /// Scheduled send time of each steady-phase sample, s into the phase.
    pub latency_due_s: Vec<f64>,
    /// Steady-phase lateness of the generator behind its schedule, ms.
    pub late_ms: Vec<f64>,
    /// Steady-phase duration of each `submit` call, µs.
    pub submit_us: Vec<f64>,
    /// Overload-phase requests answered before the phase ended.
    pub overload_answered: usize,
    /// When each of those was answered, s into the overload phase.
    pub overload_done_s: Vec<f64>,
    /// Length of the steady phase, s.
    pub steady_s: f64,
    /// Length of the overload phase, s.
    pub overload_s: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused or answered with an error.
    pub failed: u64,
    /// From the first scheduled send to the last answer, s.
    pub wall_s: f64,
    /// Process CPU time over the session, s.
    pub cpu_s: f64,
    /// Supervisor respawns during the session.
    pub restarts: usize,
}

/// One submitted request on its way to the collector.
struct Sent {
    id: u64,
    pick: usize,
    due: Instant,
    steady: bool,
    ticket: Result<Ticket, ServeError>,
}

/// Sleeps until `due` (no-op when already late).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs one steady + overload session against `setup`'s service.
pub fn run_session(
    setup: &ServeSetup,
    seed: u64,
    phases: Phases,
    trace: &Trace,
    gates: &mut Gates,
) -> Result<Session, Error> {
    let steady = poisson_arrivals(seed, STEADY_RATE, phases.steady);
    let overload = poisson_arrivals(seed.wrapping_add(1), OVERLOAD_RATE, phases.overload);
    let picks = pool_picks(
        seed.wrapping_add(2),
        steady.len() + overload.len(),
        setup.pool.len(),
    );
    let client = setup.service.client();
    let restarts_before = restarts(&setup.service);

    let cpu_before = host::cpu_seconds()?;
    let t0 = Instant::now() + LEAD_IN;
    let t1 = t0 + phases.steady;
    let t_end = t1 + phases.overload;
    let (tx, rx) = mpsc::channel::<Sent>();

    let (generated, collected) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let mut late_ms = Vec::with_capacity(steady.len());
            let mut submit_us = Vec::with_capacity(steady.len());
            let schedule = steady
                .iter()
                .map(|&at| (t0 + at, true))
                .chain(overload.iter().map(|&at| (t1 + at, false)));
            for (id, ((due, is_steady), &pick)) in schedule.zip(&picks).enumerate() {
                if !is_steady && Instant::now() >= t_end {
                    break;
                }
                let image = setup.pool[pick].clone();
                sleep_until(due);
                let sent_at = Instant::now();
                let ticket = client.submit(image);
                let submitted = Instant::now();
                if is_steady {
                    late_ms.push((sent_at - due).as_secs_f64() * 1e3);
                    submit_us.push((submitted - sent_at).as_secs_f64() * 1e6);
                    trace.record("loadgen", "submit", trace::GENERATOR, sent_at, submitted);
                }
                let sent = Sent {
                    id: id as u64,
                    pick,
                    due,
                    steady: is_steady,
                    ticket,
                };
                if tx.send(sent).is_err() {
                    break;
                }
            }
            drop(tx);
            (late_ms, submit_us)
        });
        let collector = scope.spawn(|| {
            let mut session = Session::default();
            let mut mismatches = 0u64;
            let mut last = t0;
            for sent in rx {
                session.attempted += 1;
                let answer = sent.ticket.and_then(Ticket::wait);
                let done = Instant::now();
                let Ok(answer) = answer else {
                    session.failed += 1;
                    continue;
                };
                last = last.max(done);
                if answer_bits(&answer) != answer_bits(&setup.oracle[sent.pick]) {
                    mismatches += 1;
                }
                if sent.steady {
                    session
                        .latencies_ms
                        .push(done.saturating_duration_since(sent.due).as_secs_f64() * 1e3);
                    session
                        .latency_due_s
                        .push(sent.due.saturating_duration_since(t0).as_secs_f64());
                    trace.record_async("request", "request", sent.id, sent.due, done);
                } else if done <= t_end {
                    session.overload_answered += 1;
                    session
                        .overload_done_s
                        .push(done.saturating_duration_since(t1).as_secs_f64());
                }
            }
            session.wall_s = last.saturating_duration_since(t0).as_secs_f64();
            (session, mismatches)
        });
        (
            generator.join().expect("load generator thread panicked"),
            collector
                .join()
                .expect("response collector thread panicked"),
        )
    });

    let ((late_ms, submit_us), (mut session, mismatches)) = (generated, collected);
    gates.check(mismatches == 0, || {
        format!("{mismatches} served responses differ from classify_single")
    });
    session.late_ms = late_ms;
    session.submit_us = submit_us;
    session.steady_s = phases.steady.as_secs_f64();
    session.overload_s = phases.overload.as_secs_f64();
    session.cpu_s = host::cpu_seconds()? - cpu_before;
    session.restarts = restarts(&setup.service) - restarts_before;
    eprintln!(
        "# serve session: {} requests ({} failed), {} steady samples, {} answered under overload",
        session.attempted,
        session.failed,
        session.latencies_ms.len(),
        session.overload_answered
    );
    Ok(session)
}

fn restarts(service: &ClassifyService) -> usize {
    let health = service.health();
    health.batcher_restarts + health.worker_restarts
}

/// Sets the serving end-to-end metrics (all but `peak_rss_mb`).
pub fn end_to_end(setups: &[f64], session: &Session, m: &mut Metrics) -> Result<(), Error> {
    let p50 = stats::percentile(&session.latencies_ms, 0.50).ok_or("no steady-phase samples")?;
    let p99 = stats::percentile(&session.latencies_ms, 0.99).ok_or("no steady-phase samples")?;
    eprintln!("# steady latency over the whole phase: p50 {p50} ms, p99 {p99} ms");
    // Per-window percentiles, reported as their medians: one burst of
    // host noise spoils one window, not the run.
    let latency_windows = stats::windows(
        session
            .latency_due_s
            .iter()
            .copied()
            .zip(session.latencies_ms.iter().copied()),
        LATENCY_WINDOW_S,
        session.steady_s,
    );
    let window_quantile = |q: f64| -> Result<f64, Error> {
        let per_window: Vec<f64> = latency_windows
            .iter()
            .filter_map(|w| stats::percentile(w, q).map(|p| p.value))
            .collect();
        Ok(stats::median(&per_window).ok_or("no complete steady-phase window")?)
    };
    let smallest = latency_windows.iter().map(Vec::len).min().unwrap_or(0);
    eprintln!(
        "# steady latency per {LATENCY_WINDOW_S} s window ({} windows, >= {smallest} samples each): \
         median p50 {:.4} ms, median p99 {:.4} ms",
        latency_windows.len(),
        window_quantile(0.50)?,
        window_quantile(0.99)?
    );
    m.set("setup_s", stats::median(setups).ok_or("no set-up samples")?);
    m.set("wall_s", session.wall_s);
    m.set("cpu_s", session.cpu_s);
    m.set(
        "ok_ratio",
        (session.attempted - session.failed) as f64 / session.attempted.max(1) as f64,
    );
    m.set("p50_ms", window_quantile(0.50)?);
    m.set("p99_ms", window_quantile(0.99)?);
    Ok(())
}

/// Overload-phase answers per second: the median over
/// [`THROUGHPUT_WINDOW_S`] windows.
fn saturated_rps(session: &Session) -> Result<f64, Error> {
    let rates: Vec<f64> = stats::windows(
        session.overload_done_s.iter().map(|&t| (t, 0.0)),
        THROUGHPUT_WINDOW_S,
        session.overload_s,
    )
    .iter()
    .map(|w| w.len() as f64 / THROUGHPUT_WINDOW_S)
    .collect();
    let saturated: f64 = stats::median(&rates).ok_or("no complete overload window")?;
    eprintln!(
        "# saturated throughput: median of {} windows {saturated:.1} req/s (whole phase {:.1} req/s)",
        rates.len(),
        session.overload_answered as f64 / session.overload_s
    );
    Ok(saturated)
}

/// Sets the `serve.submit_us.p99`, `serve.restarts` and `loadgen.*`
/// metrics from a session. Saturated throughput is a per-layer metric:
/// at one batch worker it swings with whether the engine's second rayon
/// thread gets a CPU in time, by more than an end-to-end bound allows.
pub fn layer_metrics(session: &Session, m: &mut Metrics) -> Result<(), Error> {
    let p99 = |v: &[f64]| {
        stats::percentile(v, 0.99)
            .map(|p| p.value)
            .ok_or("no samples")
    };
    m.set("serve.submit_us.p99", p99(&session.submit_us)?);
    m.set("loadgen.late_ms.p99", p99(&session.late_ms)?);
    m.set("loadgen.steady_samples", session.latencies_ms.len() as f64);
    m.set("serve.restarts", session.restarts as f64);
    m.set("loadgen.saturated_rps", saturated_rps(session)?);
    Ok(())
}

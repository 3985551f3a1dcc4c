//! The micro-batching classification service (see the crate docs for the
//! request lifecycle, determinism guarantees and failure model).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blurnet::queue::{BoundedQueue, PopTimeout, TryPush};
use blurnet_defenses::DefendedModel;
use blurnet_nn::BatchEngine;
use blurnet_tensor::Tensor;

use crate::{Result, ServeError};

/// How often the supervisor polls its threads for unexpected deaths.
const SUPERVISOR_POLL: Duration = Duration::from_micros(500);

/// How many thread deaths one flight survives (by re-enqueueing) before
/// its remaining requests are answered with errors instead of retried —
/// the backstop against a fault that kills every thread that touches the
/// batch.
const MAX_FLIGHT_DEATHS: u32 = 2;

/// Tuning knobs for one [`ClassifyService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Size-triggered flush: a batch is dispatched as soon as it holds
    /// this many requests (clamped to at least 1).
    pub max_batch: usize,
    /// Deadline-triggered flush: a batch is dispatched at most this long
    /// after its first request arrived, however full it is. A zero window
    /// still coalesces whatever is already waiting in the admission queue.
    pub flush_window: Duration,
    /// Batch workers draining the flushed batches. Each owns a prepacked
    /// [`BatchEngine`] over the shared read-only weights; the engines'
    /// intra-batch sharding additionally uses the ambient persistent rayon
    /// pool (`RAYON_NUM_THREADS`).
    pub workers: usize,
    /// Admission queue capacity: how many requests may wait to be batched
    /// before [`ServeClient::submit`] back-pressures (blocks) its caller —
    /// or, with [`ServeConfig::shed`], rejects with
    /// [`ServeError::QueueFull`].
    pub queue_depth: usize,
    /// Load shedding: when set, a full admission queue **rejects** the
    /// request with [`ServeError::QueueFull`] instead of blocking the
    /// submitter — overload turns into explicit, retryable errors rather
    /// than unbounded client-side waiting.
    pub shed: bool,
    /// Per-request deadline, measured from admission. A request still
    /// queued when its deadline passes is answered with
    /// [`ServeError::DeadlineExceeded`] instead of being evaluated, so a
    /// backlog cannot grow stale answers. `None` disables deadlines.
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    /// The "flush at batch 32 or 2 ms" profile from the roadmap, one batch
    /// worker, a 1024-request admission window, blocking admission, no
    /// deadlines.
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            flush_window: Duration::from_millis(2),
            workers: 1,
            queue_depth: 1024,
            shed: false,
            deadline: None,
        }
    }
}

/// The defense's per-request verdict, alongside the classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseVerdict {
    /// The defended and raw predictions agree (or the defense has no
    /// input-space preprocessing to compare against).
    Clean,
    /// The defense's input preprocessing **changed the prediction** — the
    /// input is sensitive to exactly the high-frequency structure the
    /// filter removes, the signature of a sticker-style perturbation.
    Flagged,
}

/// One classification response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// Predicted class index (argmax over the defended logits).
    pub label: usize,
    /// Softmax probability of the predicted class.
    pub confidence: f32,
    /// Whether the defense flagged the input (see [`DefenseVerdict`]).
    pub verdict: DefenseVerdict,
}

/// What the service knows about its model, for clients and the wire
/// handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Number of output classes.
    pub(crate) classes: usize,
    /// Expected image shape, `[channels, height, width]`.
    pub input_dims: [usize; 3],
    /// Human-readable label of the defense variant being served.
    pub(crate) defense: String,
}

/// Recovery telemetry: how many service threads died and were respawned
/// since startup. A healthy, undisturbed service reports zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceHealth {
    /// Batcher threads respawned after a panic.
    pub batcher_restarts: usize,
    /// Batch worker threads respawned after a panic.
    pub worker_restarts: usize,
}

/// A pending response: block on [`Ticket::wait`] to receive it.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<Classification>>,
}

impl Ticket {
    /// Blocks until the service answers this request.
    ///
    /// # Errors
    ///
    /// Propagates the worker's error, or [`ServeError::Shutdown`] if the
    /// service died before answering.
    pub fn wait(self) -> Result<Classification> {
        self.rx
            .recv()
            .map_err(|_| ServeError::Shutdown("service dropped the request".into()))?
    }
}

/// One queued request: the image, where to send its answer, and when the
/// answer stops being worth computing.
struct Pending {
    image: Tensor,
    reply: SyncSender<Result<Classification>>,
    deadline: Option<Instant>,
}

impl Pending {
    /// Whether the request's deadline has passed.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }
}

/// A flushed batch in flight between the batcher and a worker, carrying
/// its survival bookkeeping.
struct Flight {
    pendings: Vec<Pending>,
    /// Service-thread deaths this flight has already survived.
    deaths: u32,
}

/// Drop-guard that turns a service-thread panic into **per-request
/// recovery** instead of silently dropped reply channels: if the guard is
/// dropped while its thread is unwinding, the un-answered requests are
/// re-enqueued onto the batch queue for another worker (up to
/// [`MAX_FLIGHT_DEATHS`] times), and answered with an explicit
/// [`ServeError::Worker`] error once the retry budget is spent.
struct FlightGuard {
    flight: Option<Flight>,
    batches: Arc<BoundedQueue<Flight>>,
}

impl FlightGuard {
    fn new(flight: Flight, batches: Arc<BoundedQueue<Flight>>) -> Self {
        FlightGuard {
            flight: Some(flight),
            batches,
        }
    }

    /// Takes the flight out of the guard; the drop becomes a no-op.
    fn disarm(mut self) -> Flight {
        self.flight.take().expect("flight taken once")
    }

    /// Appends a request to the in-flight batch (batcher side).
    fn push(&mut self, pending: Pending) {
        self.flight
            .as_mut()
            .expect("flight present while coalescing")
            .pendings
            .push(pending);
    }

    /// Number of requests currently aboard.
    fn len(&self) -> usize {
        self.flight.as_ref().map_or(0, |f| f.pendings.len())
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        let Some(mut flight) = self.flight.take() else {
            return;
        };
        if flight.pendings.is_empty() {
            return;
        }
        flight.deaths += 1;
        if flight.deaths <= MAX_FLIGHT_DEATHS {
            // Hand the batch to a surviving (or respawned) worker. The
            // push only genuinely fails once the batch queue has closed —
            // ride out fault-injected spurious refusals.
            let mut item = flight;
            loop {
                match self.batches.push(item) {
                    Ok(()) => return,
                    Err(back) => {
                        if self.batches.is_closed() {
                            item = back;
                            break;
                        }
                        item = back;
                    }
                }
            }
            flight = item;
        }
        let msg = format!(
            "a service thread died while handling this batch ({} deaths)",
            flight.deaths
        );
        for pending in flight.pendings {
            let _ = pending.reply.send(Err(ServeError::Worker(msg.clone())));
        }
    }
}

/// Admission policy shared by every client handle of a service.
#[derive(Debug, Clone, Copy)]
struct AdmissionPolicy {
    shed: bool,
    deadline: Option<Duration>,
}

/// A cheap, cloneable handle for submitting requests to a running
/// [`ClassifyService`] from any thread.
#[derive(Debug, Clone)]
pub struct ServeClient {
    admission: Arc<BoundedQueue<Pending>>,
    info: ModelInfo,
    policy: AdmissionPolicy,
}

impl ServeClient {
    /// Submits one `[C, H, W]` image and returns a [`Ticket`] for the
    /// response. With blocking admission (the default) a full queue
    /// back-pressures the caller; with [`ServeConfig::shed`] it rejects
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] for a wrong image shape or a
    /// non-finite (NaN/Inf) value, [`ServeError::QueueFull`] when
    /// shedding, and [`ServeError::Shutdown`] once the service is
    /// shutting down.
    pub fn submit(&self, image: Tensor) -> Result<Ticket> {
        if image.dims() != self.info.input_dims.as_slice() {
            return Err(ServeError::BadInput(format!(
                "expected a {:?} image, got {:?}",
                self.info.input_dims,
                image.dims()
            )));
        }
        // Reject NaN/Inf before they reach the engine: a non-finite pixel
        // propagates through every layer and can poison a whole coalesced
        // batch's worth of compute for an answer that is garbage anyway.
        if image.data().iter().any(|v| !v.is_finite()) {
            return Err(ServeError::BadInput(
                "image contains non-finite (NaN/Inf) values".into(),
            ));
        }
        let (reply, rx) = sync_channel(1);
        let pending = Pending {
            image,
            reply,
            deadline: self.policy.deadline.map(|d| Instant::now() + d),
        };
        if self.policy.shed {
            match self.admission.try_push(pending) {
                TryPush::Pushed => {}
                TryPush::Full(_) => return Err(ServeError::QueueFull),
                TryPush::Closed(_) => {
                    return Err(ServeError::Shutdown("admission queue closed".into()))
                }
            }
        } else {
            // Blocking admission. A refusal from an open queue is a
            // fault-injected spurious one — retry; only a genuinely
            // closed queue is shutdown.
            let mut item = pending;
            loop {
                match self.admission.push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        if self.admission.is_closed() {
                            return Err(ServeError::Shutdown("admission queue closed".into()));
                        }
                        item = back;
                    }
                }
            }
        }
        Ok(Ticket { rx })
    }

    /// Submits one image and blocks for its classification.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeClient::submit`] and [`Ticket::wait`] errors.
    pub fn classify(&self, image: Tensor) -> Result<Classification> {
        self.submit(image)?.wait()
    }
}

/// Context shared by the batcher, the workers and the supervisor.
struct Shared {
    model: Arc<DefendedModel>,
    admission: Arc<BoundedQueue<Pending>>,
    batches: Arc<BoundedQueue<Flight>>,
    max_batch: usize,
    window: Duration,
    batcher_restarts: AtomicUsize,
    worker_restarts: AtomicUsize,
    shutting_down: AtomicBool,
}

/// Which service thread a supervisor slot watches.
#[derive(Debug, Clone, Copy)]
enum Role {
    Batcher,
    Worker(usize),
}

/// One supervised thread.
struct Slot {
    role: Role,
    handle: JoinHandle<()>,
}

/// The long-running micro-batching service. Build with
/// [`ClassifyService::new`], hand [`ServeClient`]s to request producers,
/// and call [`ClassifyService::shutdown`] (or drop) to drain and stop.
///
/// # Failure model
///
/// The batcher and every batch worker run under a **supervisor** thread:
/// a panic in any of them is detected mid-run (not at shutdown join), the
/// dead thread is respawned, and the batch it was holding is re-enqueued
/// for a surviving worker (see [`ServiceHealth`]). A request that
/// deterministically panics the forward pass is isolated by bisecting its
/// batch: only the poisoned request receives an error, its batch-mates
/// are recomputed in sub-batches and — because the engine is bit-identical
/// at every batch composition — return exactly the bytes they would have
/// without the poison.
#[derive(Debug)]
pub struct ClassifyService {
    shared: Arc<SharedHandle>,
    supervisor: Option<JoinHandle<()>>,
    info: ModelInfo,
    policy: AdmissionPolicy,
}

/// Newtype so `ClassifyService` can derive `Debug` without exposing the
/// whole shared state.
struct SharedHandle(Arc<Shared>);

impl std::fmt::Debug for SharedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("admission", &self.0.admission)
            .field("batches", &self.0.batches)
            .finish()
    }
}

impl ClassifyService {
    /// Starts the service over a shared trained model: one batcher thread
    /// plus [`ServeConfig::workers`] batch workers, each with its own
    /// prepacked engine over the shared read-only weights, all watched by
    /// a supervisor thread that respawns them on panic.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] if the network is empty or a
    /// thread cannot be spawned.
    pub fn new(model: Arc<DefendedModel>, config: ServeConfig) -> Result<Self> {
        // Fail fast on an unbuildable engine instead of inside a worker.
        BatchEngine::new(model.network()).map_err(|e| ServeError::BadConfig(e.to_string()))?;

        let worker_count = config.workers.max(1);
        let info = ModelInfo {
            classes: model.arch().num_classes,
            input_dims: [
                model.arch().in_channels,
                model.arch().input_size,
                model.arch().input_size,
            ],
            defense: model.defense().label(),
        };
        let policy = AdmissionPolicy {
            shed: config.shed,
            deadline: config.deadline,
        };

        let shared = Arc::new(Shared {
            model,
            admission: Arc::new(BoundedQueue::new(config.queue_depth.max(1))),
            // A couple of flushed batches per worker may wait; beyond that
            // the batcher itself back-pressures.
            batches: Arc::new(BoundedQueue::new(worker_count * 2)),
            max_batch: config.max_batch.max(1),
            window: config.flush_window,
            batcher_restarts: AtomicUsize::new(0),
            worker_restarts: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
        });

        let mut slots = Vec::with_capacity(worker_count + 1);
        slots.push(Slot {
            role: Role::Batcher,
            handle: spawn_role(Role::Batcher, &shared)?,
        });
        for id in 0..worker_count {
            slots.push(Slot {
                role: Role::Worker(id),
                handle: spawn_role(Role::Worker(id), &shared)?,
            });
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("blurnet-serve-supervisor".into())
                .spawn(move || supervisor_loop(&shared, slots))
                .map_err(|e| ServeError::BadConfig(format!("cannot spawn supervisor: {e}")))?
        };

        Ok(ClassifyService {
            shared: Arc::new(SharedHandle(shared)),
            supervisor: Some(supervisor),
            info,
            policy,
        })
    }

    /// The served model's metadata.
    pub fn info(&self) -> &ModelInfo {
        &self.info
    }

    /// Recovery telemetry: threads respawned by the supervisor so far.
    pub fn health(&self) -> ServiceHealth {
        ServiceHealth {
            batcher_restarts: self.shared.0.batcher_restarts.load(Ordering::Relaxed),
            worker_restarts: self.shared.0.worker_restarts.load(Ordering::Relaxed),
        }
    }

    /// A cheap, cloneable request handle bound to this service.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            admission: Arc::clone(&self.shared.0.admission),
            info: self.info.clone(),
            policy: self.policy,
        }
    }

    /// Drains and stops the service: the admission queue closes (new
    /// submissions fail fast), every request admitted before the close is
    /// answered, and all threads — including the supervisor — are joined.
    ///
    /// Panics that occurred *during* the run were already surfaced as
    /// per-request errors and respawns (see [`ClassifyService::health`]);
    /// they do not fail the shutdown.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Worker`] if the supervisor itself died.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        self.shared.0.shutting_down.store(true, Ordering::SeqCst);
        self.shared.0.admission.close();
        if let Some(supervisor) = self.supervisor.take() {
            if supervisor.join().is_err() {
                return Err(ServeError::Worker(
                    "the supervisor thread panicked during the run".into(),
                ));
            }
        }
        Ok(())
    }
}

impl Drop for ClassifyService {
    /// Dropping the service drains it like [`ClassifyService::shutdown`]
    /// (a supervisor failure is swallowed — use `shutdown` to observe
    /// it).
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Spawns the thread for one role.
fn spawn_role(role: Role, shared: &Arc<Shared>) -> Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    let (name, body): (String, Box<dyn FnOnce() + Send>) = match role {
        Role::Batcher => (
            "blurnet-serve-batcher".into(),
            Box::new(move || batcher_loop(&shared)),
        ),
        Role::Worker(id) => (
            format!("blurnet-serve-worker-{id}"),
            Box::new(move || worker_loop(&shared)),
        ),
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .map_err(|e| ServeError::BadConfig(format!("cannot spawn {role:?}: {e}")))
}

/// The supervisor: polls every service thread, joins the ones that
/// finished, and **respawns any that panicked** — even during shutdown,
/// since the replacement simply drains what is left and exits cleanly.
/// Exits once every supervised thread has finished without panicking.
fn supervisor_loop(shared: &Arc<Shared>, mut slots: Vec<Slot>) {
    while !slots.is_empty() {
        let mut alive = Vec::with_capacity(slots.len());
        for slot in slots {
            if !slot.handle.is_finished() {
                alive.push(slot);
                continue;
            }
            if slot.handle.join().is_ok() {
                // Clean exit (shutdown drain finished): stop watching.
                continue;
            }
            match slot.role {
                Role::Batcher => shared.batcher_restarts.fetch_add(1, Ordering::Relaxed),
                Role::Worker(_) => shared.worker_restarts.fetch_add(1, Ordering::Relaxed),
            };
            match spawn_role(slot.role, shared) {
                Ok(handle) => alive.push(Slot {
                    role: slot.role,
                    handle,
                }),
                Err(_) => {
                    // Cannot respawn (thread exhaustion): fail open — close
                    // both queues so nothing blocks forever; queued
                    // requests are answered with shutdown errors when
                    // their reply channels drop.
                    shared.admission.close();
                    shared.batches.close();
                }
            }
        }
        slots = alive;
        if slots.is_empty() {
            break;
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
    // Belt and braces: if the batcher generation chain ended without
    // closing the batch queue (respawn failure), close it now so no
    // worker blocks forever.
    if shared.shutting_down.load(Ordering::SeqCst) {
        shared.batches.close();
    }
}

/// The single batcher thread: open a batch on the first waiting request,
/// coalesce until `max_batch` or the flush window elapses, dispatch, and
/// repeat. On admission close, the in-flight batch is flushed and the
/// batch queue is closed behind it. The in-flight batch lives in a
/// [`FlightGuard`], so a panic mid-coalesce hands it to the workers
/// instead of dropping its reply channels.
fn batcher_loop(shared: &Shared) {
    loop {
        // Block for the first request of the next batch.
        let Some(first) = shared.admission.pop() else {
            if shared.admission.is_closed() {
                break; // closed and drained
            }
            continue; // fault-injected spurious wakeup
        };
        let deadline = Instant::now() + shared.window;
        let mut batch = FlightGuard::new(
            Flight {
                pendings: Vec::with_capacity(shared.max_batch),
                deaths: 0,
            },
            Arc::clone(&shared.batches),
        );
        batch.push(first);
        let mut admission_closed = false;
        while batch.len() < shared.max_batch {
            let remaining = deadline.saturating_duration_since(Instant::now());
            // `pop_timeout` hands out already-queued items even with an
            // exhausted deadline, so a zero window still coalesces
            // everything that is waiting.
            match shared.admission.pop_timeout(remaining) {
                PopTimeout::Item(pending) => batch.push(pending),
                PopTimeout::TimedOut => break,
                PopTimeout::Closed => {
                    admission_closed = true;
                    break;
                }
            }
        }
        // Fault site `serve.batcher.flush`: a panic here unwinds with the
        // coalesced batch still in its guard — the guard re-enqueues it
        // and the supervisor respawns the batcher.
        blurnet::fault_point!(blurnet::fault::sites::SERVE_BATCH_FLUSH);
        let flight = batch.disarm();
        let mut item = flight;
        loop {
            match shared.batches.push(item) {
                Ok(()) => break,
                Err(back) => {
                    if shared.batches.is_closed() {
                        // Only possible after a respawn-failure close:
                        // answer what we hold instead of hanging.
                        let msg = "batch queue closed before dispatch".to_string();
                        for pending in back.pendings {
                            let _ = pending.reply.send(Err(ServeError::Shutdown(msg.clone())));
                        }
                        return;
                    }
                    item = back; // fault-injected spurious refusal
                }
            }
        }
        if admission_closed {
            break;
        }
    }
    shared.batches.close();
}

/// One batch worker: owns a prepacked engine over the shared weights and
/// answers every request of every batch it pops. Each popped batch rides
/// in a [`FlightGuard`], so a worker panic re-enqueues the batch for a
/// surviving worker rather than dropping its requests.
fn worker_loop(shared: &Shared) {
    let engine = match BatchEngine::new(shared.model.network()) {
        Ok(engine) => engine,
        Err(e) => {
            // Checked in `ClassifyService::new`; if it fails here anyway,
            // fail every batch cleanly rather than panicking.
            let msg = e.to_string();
            while let Some(flight) = shared.batches.pop() {
                for pending in flight.pendings {
                    let _ = pending.reply.send(Err(ServeError::Worker(msg.clone())));
                }
            }
            return;
        }
    };
    loop {
        let Some(flight) = shared.batches.pop() else {
            if shared.batches.is_closed() {
                break;
            }
            continue; // fault-injected spurious wakeup
        };
        let guard = FlightGuard::new(flight, Arc::clone(&shared.batches));
        // Fault site `serve.worker.batch`: a panic here kills the worker
        // with the batch in its guard — re-enqueued for a peer, worker
        // respawned by the supervisor.
        blurnet::fault_point!(blurnet::fault::sites::SERVE_WORKER_BATCH);
        answer_flight(&shared.model, &engine, guard.disarm());
    }
}

/// Answers one flushed batch: sheds expired requests, classifies the rest
/// with poison-bisection recovery.
fn answer_flight(model: &DefendedModel, engine: &BatchEngine<'_>, flight: Flight) {
    let now = Instant::now();
    let (live, expired): (Vec<Pending>, Vec<Pending>) = flight
        .pendings
        .into_iter()
        .partition(|pending| !pending.expired(now));
    for pending in expired {
        let _ = pending.reply.send(Err(ServeError::DeadlineExceeded));
    }
    answer_bisecting(model, engine, live);
}

/// Classifies `batch` and answers every reply channel. On failure — an
/// error *or a panic* from the classification — a multi-request batch is
/// split in half and each half retried independently, recursively, until
/// the poisoned request is alone in a singleton batch: it alone receives
/// the error, and every batch-mate is recomputed in a sub-batch. The
/// engine is bit-identical at every batch composition, so the survivors'
/// responses match what they would have been without the poison, bit for
/// bit.
fn answer_bisecting(model: &DefendedModel, engine: &BatchEngine<'_>, mut batch: Vec<Pending>) {
    if batch.is_empty() {
        return;
    }
    match classify_batch_caught(model, engine, &batch) {
        Ok(results) => {
            for (pending, result) in batch.into_iter().zip(results) {
                // A dropped receiver (client gave up) is not an error.
                let _ = pending.reply.send(Ok(result));
            }
        }
        Err(msg) => {
            if batch.len() == 1 {
                let pending = batch.remove(0);
                let _ = pending.reply.send(Err(ServeError::Worker(msg)));
            } else {
                let right = batch.split_off(batch.len() / 2);
                answer_bisecting(model, engine, batch);
                answer_bisecting(model, engine, right);
            }
        }
    }
}

/// Runs [`classify_batch`] with panics contained, normalizing both error
/// paths to a message. This is the recovery scope the poison-request
/// fault site ([`blurnet::fault::sites::SERVE_WORKER_REQUEST`]) fires
/// inside.
fn classify_batch_caught(
    model: &DefendedModel,
    engine: &BatchEngine<'_>,
    batch: &[Pending],
) -> std::result::Result<Vec<Classification>, String> {
    match catch_unwind(AssertUnwindSafe(|| classify_batch(model, engine, batch))) {
        Ok(Ok(results)) => Ok(results),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(panic_message(&payload)),
    }
}

/// Renders a panic payload as a readable message. A payload re-thrown
/// across a thread-pool boundary arrives double-boxed
/// (`Box<Box<dyn Any>>`), so nested boxes are unwrapped first.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let mut payload = payload;
    while let Some(inner) = payload.downcast_ref::<Box<dyn std::any::Any + Send>>() {
        payload = inner.as_ref();
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic while classifying a batch: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic while classifying a batch: {s}")
    } else {
        "panic while classifying a batch".to_string()
    }
}

/// The defended classification of one coalesced batch:
/// [`DefendedModel::classify`] (+ one raw pass for the verdict when the
/// defense rewrites its input). Every served defense treats each image
/// independently, which is what makes micro-batching invisible in the
/// responses.
fn classify_batch(
    model: &DefendedModel,
    engine: &BatchEngine<'_>,
    batch: &[Pending],
) -> Result<Vec<Classification>> {
    // Fault site `serve.worker.request`, tagged with each request's
    // content hash: arming it with a poisoned payload's tag models a
    // request that deterministically panics the forward pass — stable
    // across bisection retries because the tag travels with the content.
    #[cfg(feature = "fault-injection")]
    for pending in batch {
        blurnet::fault_point!(
            blurnet::fault::sites::SERVE_WORKER_REQUEST,
            tag = blurnet_tensor::persist::fnv1a_f32s(pending.image.data())
        );
    }
    let images: Vec<Tensor> = batch.iter().map(|p| p.image.clone()).collect();
    let raw = Tensor::stack(&images)?;
    let defended = model.classify(engine, &raw)?;
    let verdicts: Vec<DefenseVerdict> = if model.has_input_preprocessing() {
        let raw_labels = engine.predict(&raw)?;
        defended
            .iter()
            .zip(raw_labels)
            .map(|(&(label, _), raw_label)| {
                if label == raw_label {
                    DefenseVerdict::Clean
                } else {
                    DefenseVerdict::Flagged
                }
            })
            .collect()
    } else {
        vec![DefenseVerdict::Clean; defended.len()]
    };
    Ok(defended
        .into_iter()
        .zip(verdicts)
        .map(|((label, confidence), verdict)| Classification {
            label,
            confidence,
            verdict,
        })
        .collect())
}

/// The single-request reference path: classifies one image exactly as the
/// service would, but alone — no batching, no queues, a fresh engine.
///
/// This is the oracle the determinism tests (and the load generator's
/// pre-flight gate) compare micro-batched responses against, bit for bit.
///
/// # Errors
///
/// Propagates model/engine failures.
pub fn classify_single(model: &DefendedModel, image: &Tensor) -> Result<Classification> {
    let engine =
        BatchEngine::new(model.network()).map_err(|e| ServeError::Worker(e.to_string()))?;
    let batch = [Pending {
        image: image.clone(),
        reply: sync_channel(1).0,
        deadline: None,
    }];
    Ok(classify_batch(model, &engine, &batch)?.remove(0))
}

//! The concurrent experiment scheduler: every table/figure cell as a node
//! in one dependency DAG, streamed through the shared engine substrate.
//!
//! # The one execution path
//!
//! Every table and figure of the paper runs through this scheduler; a
//! 1-worker run is the reference. The [`ExperimentScheduler`] turns an
//! [`ExperimentGrid`] — the declarative list of (model variant × attack ×
//! metric) cells — into a DAG, so independent cells (different defenses,
//! different attacks) overlap and shared work runs once:
//!
//! * **Train nodes** (`train:<variant>`) train each distinct model variant
//!   once.
//! * **Artifact nodes** (`artifact:<key>`) generate each shared attack
//!   artifact once, on a trained variant, deduplicated by key: the Table I
//!   transfer set (`artifact:transfer-set`), the Figure 1/2 RP2 sticker
//!   (`artifact:sticker`), and one targeted RP2 sweep per (variant,
//!   objective) (`artifact:sweep/<variant>/<objective>`), so a Figure 5/6
//!   series reads its Table II row's sweep and Figure 3's dim-16 point
//!   reads Table III's `7x7 conv` sweep. Sweeps are held in memory for
//!   the run; the transfer set and sticker also ride the disk cache.
//! * **Cell nodes** (`cell:<experiment>/<label>`) evaluate one row/series
//!   each, as a view over the trained variant and the artifacts they
//!   consume.
//!
//! Every node writes what it produced into its own result slot (one
//! `OnceLock` per node id: a model, an artifact or a cell output), and
//! every reader reads it from there. An artifact or cell node's first
//! dependency is the train node whose model it runs on; a cell's further
//! dependencies are its artifacts, in `CellSpec::artifacts` order.
//!
//! Ready nodes stream through a [`BoundedQueue`] (capacity = node count;
//! it can never grow past the DAG, so pushes never block) — the same
//! bounded-queue primitive the `blurnet-serve` micro-batcher admits
//! classification requests through — drained by a fixed fleet of
//! [`run_workers`] workers. When more than one worker runs, each cell pins its
//! nested (intra-cell) parallelism to one thread — the thread budget is
//! spent on the cell dimension exactly once, mirroring how the batch
//! engine spends it on the batch dimension.
//!
//! # Engine sharing and borrow model
//!
//! A trained variant lives in its train node's slot and is shared
//! read-only across workers. Every cell evaluates the one shared model in
//! place: white-box attacks read its network, and defended inference
//! ([`DefendedModel::classify`]) is a pure `&self` function of each
//! image — even randomized smoothing seeds each image's noise from the
//! image itself — so a cell's result cannot depend on which worker runs
//! it or what ran before it. The underlying
//! [`blurnet_nn::BatchEngine`] is `Send + Sync` (asserted at compile time
//! in `blurnet_nn::engine`), so the engines cells build over those shared
//! weights are safe to drive from any worker.
//!
//! # Determinism
//!
//! The report is **bit-identical at every worker count**, so a 1-worker
//! run is the reference every other run must match byte for byte:
//!
//! * cell decomposition and reduction order depend only on the grid, never
//!   on completion order (the report is read off the per-node slots in
//!   node-id order, and cell nodes are numbered in grid order);
//! * every cell executes through the grid's `execute_cell` on the one
//!   shared trained variant, and every numeric kernel underneath is
//!   bit-identical at every thread count (the batch-engine guarantees);
//! * artifact generation (training, RP2 sets and sweeps) is seeded and
//!   deterministic, so generating an artifact once and sharing it equals
//!   generating it at each consumer.
//!
//! Timing is captured **outside** the report (see [`RunProfile`]) so
//! `results.json` stays byte-stable.
//!
//! # Failure isolation
//!
//! A panic or error inside one cell must not poison sibling cells: each
//! node runs under `catch_unwind`, failures are recorded as
//! [`CellStatus::Failed`] in the report, and only the failed node's
//! *dependents* are marked [`CellStatus::Skipped`]. Every other cell runs
//! to completion. The `core.sched.{train,artifact,cell}` fault sites
//! inject errors and panics into nodes (`crate::fault`, compiled with the
//! `fault-injection` feature).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use blurnet_attacks::{
    rp2_result_from_bytes, rp2_result_to_bytes, transfer_set_from_bytes, transfer_set_to_bytes,
    AttackError,
};
use blurnet_data::SignDataset;
use blurnet_defenses::{
    model_to_bytes, train_defended_model, DefendedModel, DefenseKind, DiskVariantCache,
};
use blurnet_tensor::persist::{fnv1a, read_file_verified, write_file_atomic};
use blurnet_tensor::Tensor;

use crate::experiments::grid::{execute_cell, Artifact, ArtifactKey, CellSpec, ExperimentGrid};
use crate::experiments::{figures, rp2_with_objective, sweep_defended, table1};
use crate::journal::{JournalHeader, JournalWriter};
use crate::queue::{run_workers, BoundedQueue};
use crate::report::{CellOutput, CellReport, CellStatus, RunReport, RESULTS_SCHEMA};
use crate::{BlurNetError, Result, Scale};

/// What one DAG node does.
#[derive(Debug, Clone, PartialEq)]
enum NodeKind {
    /// Trains (or fetches from a warm cache) one model variant.
    Train(DefenseKind),
    /// Generates (or fetches from a warm cache) one shared artifact.
    Artifact(ArtifactKey),
    /// Evaluates one grid cell.
    Cell(CellSpec),
}

/// One node of the scheduling DAG.
#[derive(Debug)]
struct Node {
    kind: NodeKind,
    name: String,
    deps: Vec<usize>,
}

/// Timing and placement of one completed node.
#[derive(Debug, Clone)]
pub struct NodeProfile {
    /// Human-readable node name (`train:<defense>`, `cell:<experiment>/<label>`, …).
    pub name: String,
    /// Nanoseconds from run start to node start.
    pub start_ns: u64,
    /// Node execution time in nanoseconds.
    pub duration_ns: u64,
    /// Which scheduler worker executed the node.
    pub worker: usize,
}

/// Non-deterministic run telemetry, kept **separate** from the
/// [`RunReport`] so the report stays byte-stable across thread counts.
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// Scheduler workers used.
    pub workers: usize,
    /// Wall-clock nanoseconds for the whole run (artifacts + cells).
    pub wall_ns: u64,
    /// Per-node timings, in node-id order (artifacts first, then cells in
    /// grid order).
    pub nodes: Vec<NodeProfile>,
    /// Number of evaluation cells in the run.
    pub cell_count: usize,
}

impl RunProfile {
    /// Evaluation cells completed per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.cell_count as f64 * 1e9 / self.wall_ns as f64
    }

    /// Fraction of the `workers × wall` budget spent inside nodes — how
    /// busy the pool was kept (1.0 = perfectly packed).
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 || self.workers == 0 {
            return 0.0;
        }
        let busy: u64 = self.nodes.iter().map(|n| n.duration_ns).sum();
        busy as f64 / (self.wall_ns as f64 * self.workers as f64)
    }
}

/// A finished scheduler run: the deterministic report plus the timing
/// profile.
#[derive(Debug)]
pub struct ScheduledRun {
    /// The deterministic, serializable result (`results.json`).
    pub report: RunReport,
    /// Timing/placement telemetry (never serialized into the report).
    pub profile: RunProfile,
}

/// Concurrent executor for [`ExperimentGrid`]s over one shared engine
/// substrate.
///
/// ```no_run
/// use blurnet::experiments::grid::ExperimentGrid;
/// use blurnet::{ExperimentScheduler, Scale};
///
/// let scheduler = ExperimentScheduler::new(Scale::Smoke, 7).threads(4);
/// let run = scheduler.run(&ExperimentGrid::micro())?;
/// assert!(run.report.all_ok());
/// println!("{:.1} cells/s", run.profile.cells_per_sec());
/// # Ok::<(), blurnet::BlurNetError>(())
/// ```
#[derive(Debug)]
pub struct ExperimentScheduler {
    scale: Scale,
    seed: u64,
    threads: Option<usize>,
    verbose: bool,
    retry_failed: usize,
    cache_dir: Option<PathBuf>,
    journal: Option<PathBuf>,
}

impl ExperimentScheduler {
    /// A scheduler for the given scale profile and dataset seed (the same
    /// pair a [`crate::ModelZoo`] is built from).
    pub fn new(scale: Scale, seed: u64) -> Self {
        ExperimentScheduler {
            scale,
            seed,
            threads: None,
            verbose: false,
            retry_failed: 0,
            cache_dir: None,
            journal: None,
        }
    }

    /// The scale profile this scheduler runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The dataset/zoo seed this scheduler runs with.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Caps the number of scheduler workers (defaults to the ambient rayon
    /// thread budget, i.e. `RAYON_NUM_THREADS`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Prints per-node progress lines to stderr.
    pub fn verbose(mut self, on: bool) -> Self {
        self.verbose = on;
        self
    }

    /// Re-runs a failed node up to `n` times before recording it as
    /// [`CellStatus::Failed`] and skipping its dependents. Every node's
    /// work is deterministic, so a retry only helps against *transient*
    /// faults (a poisoned thread, an injected fault, an OS-level hiccup) —
    /// a deterministic bug fails all `n + 1` attempts identically. A
    /// successful retry produces the same bytes a first-attempt success
    /// would, so the report stays bit-identical to an undisturbed run.
    pub fn retry_failed(mut self, n: usize) -> Self {
        self.retry_failed = n;
        self
    }

    /// Persists expensive artifacts under `dir` and reuses them on later
    /// runs: trained variants go through a [`DiskVariantCache`] (keyed by
    /// architecture + defense + trainer config + dataset seed, so a seed
    /// or hyper-parameter change is a clean miss), and the shared
    /// transfer-set / sticker artifacts are stored per `(scale, seed)` and
    /// the hash of the baseline they were generated from (sweep artifacts
    /// are held in memory for the run only).
    /// Every entry rides the checksummed atomic file container; a
    /// missing, torn or bit-rotted entry falls back to regenerating from
    /// scratch — a warm cache can make a run faster, never different.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Write-ahead journals the run at `path` (see [`crate::journal`]): a
    /// header record when the run starts, one fsynced record per
    /// completed cell as cells finish, so an interrupted run leaves a
    /// durable prefix `--resume` can replay. Failing to *create* the
    /// journal fails the run (the caller asked for crash tolerance it
    /// would not get); failing one *append* retires the journal and lets
    /// the run continue.
    pub fn journal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Runs the grid and returns the deterministic report plus profile.
    ///
    /// # Errors
    ///
    /// Returns an error for structural failures only (empty grid, dataset
    /// generation). Per-cell failures are isolated into the report as
    /// [`CellStatus::Failed`] / [`CellStatus::Skipped`].
    pub fn run(&self, grid: &ExperimentGrid) -> Result<ScheduledRun> {
        self.run_inner(grid, None)
    }

    /// Runs the grid appending completed cells to an already-created
    /// journal writer — the resume path uses this so the journal it
    /// re-seeded with replayed cells keeps accumulating the delta run's
    /// cells instead of being truncated by a fresh header.
    pub(crate) fn run_with_journal(
        &self,
        grid: &ExperimentGrid,
        journal: Arc<JournalWriter>,
    ) -> Result<ScheduledRun> {
        self.run_inner(grid, Some(journal))
    }

    /// The DAG the scheduler would execute, as `(name, dep names)` pairs
    /// in node-id order — used by tests to pin artifact deduplication
    /// without paying for a run.
    #[doc(hidden)]
    pub fn plan(&self, grid: &ExperimentGrid) -> Vec<(String, Vec<String>)> {
        let nodes = build_dag(grid, self.scale);
        nodes
            .iter()
            .map(|n| {
                (
                    n.name.clone(),
                    n.deps.iter().map(|&d| nodes[d].name.clone()).collect(),
                )
            })
            .collect()
    }

    fn run_inner(
        &self,
        grid: &ExperimentGrid,
        journal: Option<Arc<JournalWriter>>,
    ) -> Result<ScheduledRun> {
        if grid.is_empty() {
            return Err(BlurNetError::BadConfig(
                "cannot schedule an empty experiment grid".into(),
            ));
        }
        let journal = match journal {
            Some(writer) => Some(writer),
            None => match &self.journal {
                Some(path) => Some(Arc::new(JournalWriter::create(
                    path,
                    &JournalHeader {
                        schema: RESULTS_SCHEMA.to_string(),
                        scale: self.scale.to_string(),
                        seed: self.seed,
                        cells: grid.len(),
                    },
                )?)),
                None => None,
            },
        };
        let dataset = SignDataset::generate(&self.scale.dataset_config(), self.seed)?;
        let images = crate::experiments::attack_images_for(&dataset, self.scale);
        let nodes = build_dag(grid, self.scale);
        let workers = self
            .threads
            .unwrap_or_else(rayon::current_num_threads)
            .clamp(1, nodes.len());
        let disk = match &self.cache_dir {
            Some(dir) => Some(DiskStore::open(dir, self.seed)?),
            None => None,
        };

        let exec = Executor::new(self, nodes, dataset, images, disk, journal);

        let started = Instant::now();
        // `run_workers` runs a single worker inline (keeping the whole
        // rayon budget available to the batch engine inside each cell) and
        // a multi-worker fleet on a dedicated pool.
        let pin_intra = workers > 1;
        run_workers(workers, |id| exec.worker_loop(id, pin_intra, &started));
        let wall_ns = started.elapsed().as_nanos() as u64;

        let (report, node_profiles) = exec.into_results(self.scale, self.seed);
        Ok(ScheduledRun {
            report,
            profile: RunProfile {
                workers,
                wall_ns,
                nodes: node_profiles,
                cell_count: grid.len(),
            },
        })
    }
}

/// Builds the DAG for a grid: train and artifact nodes first, then one
/// cell node per grid cell (in grid order — node ids are deterministic).
/// An artifact or cell node's first dependency is the train node of the
/// model it runs on; a cell's further dependencies are its artifact
/// nodes, in [`CellSpec::artifacts`] order.
fn build_dag(grid: &ExperimentGrid, scale: Scale) -> Vec<Node> {
    let mut nodes: Vec<Node> = Vec::new();
    // Train and artifact nodes are deduplicated by name (one per variant
    // label, one per artifact key), however many cells consume them.
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut shared = |nodes: &mut Vec<Node>, kind: NodeKind, deps: Vec<usize>| {
        let name = match &kind {
            NodeKind::Train(defense) => format!("train:{}", defense.label()),
            NodeKind::Artifact(key) => format!("artifact:{key}"),
            NodeKind::Cell(_) => unreachable!("cell nodes are never shared"),
        };
        *ids.entry(name).or_insert_with_key(|name| {
            nodes.push(Node {
                name: name.clone(),
                kind,
                deps,
            });
            nodes.len() - 1
        })
    };
    let mut cell_deps = Vec::with_capacity(grid.len());
    for spec in grid.cells() {
        let model = shared(
            &mut nodes,
            NodeKind::Train(spec.required_defense(scale)),
            vec![],
        );
        let mut deps = vec![model];
        for key in spec.artifacts(scale) {
            // Sweeps run on the cell's own variant; the transfer set and
            // sticker are generated on the baseline.
            let on = match key {
                ArtifactKey::Sweep { .. } => model,
                ArtifactKey::Transfer | ArtifactKey::Sticker => {
                    shared(&mut nodes, NodeKind::Train(DefenseKind::Baseline), vec![])
                }
            };
            deps.push(shared(&mut nodes, NodeKind::Artifact(key), vec![on]));
        }
        cell_deps.push(deps);
    }
    for (spec, deps) in grid.cells().iter().zip(cell_deps) {
        nodes.push(Node {
            name: format!("cell:{}/{}", spec.experiment, spec.label),
            kind: NodeKind::Cell(spec.clone()),
            deps,
        });
    }
    nodes
}

/// The on-disk side of a cached run: the model cache plus the shared
/// artifact files, all under one directory.
struct DiskStore {
    models: DiskVariantCache,
    dir: PathBuf,
    /// The dataset/zoo seed of this run — part of every model's cache
    /// identity, since it selects the generated training set.
    seed: u64,
}

impl DiskStore {
    fn open(dir: &Path, seed: u64) -> Result<Self> {
        let models = DiskVariantCache::open(dir).map_err(BlurNetError::Defense)?;
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            seed,
            models,
        })
    }

    /// The file of an artifact generated on `model`:
    /// `<stem>-<scale>-<seed>-<model hash>.<ext>`. The FNV-1a hash of the
    /// model's bytes keys the file on the exact weights it was generated
    /// from, so a retrained model never reads an older model's artifact.
    fn artifact_path(
        &self,
        stem: &str,
        ext: &str,
        scale: Scale,
        model: &DefendedModel,
    ) -> std::result::Result<PathBuf, String> {
        let hash = fnv1a(&model_to_bytes(model).map_err(|e| e.to_string())?);
        let file = format!("{stem}-{scale}-{}-{hash:016x}.{ext}", self.seed);
        Ok(self.dir.join(file))
    }
}

/// Reads a cached artifact file: `Ok(None)` when absent, `Err` when the
/// file is damaged or does not decode.
fn read_artifact<T>(
    path: &Path,
    decode: fn(&[u8]) -> std::result::Result<T, AttackError>,
) -> std::result::Result<Option<T>, String> {
    if !path.exists() {
        return Ok(None);
    }
    let payload = read_file_verified(path).map_err(|e| e.to_string())?;
    decode(&payload).map(Some).map_err(|e| e.to_string())
}

/// What a completed node produced, kept in its result slot.
enum NodeResult {
    /// A train node's trained variant.
    Model(Box<DefendedModel>),
    /// An artifact node's artifact.
    Artifact(Artifact),
    /// A cell node's output.
    Cell(CellOutput),
}

/// Mutable scheduling state guarded by one mutex (map operations only —
/// never node execution).
struct SchedState {
    /// Remaining unfinished dependencies per node.
    pending: Vec<usize>,
    /// Why each node holds no result, if it does not:
    /// [`CellStatus::Failed`] for its own failure, [`CellStatus::Skipped`]
    /// when a prerequisite failed.
    failures: Vec<Option<CellStatus>>,
    /// Failed attempts consumed per node (`--retry-failed N`).
    attempts: Vec<usize>,
    /// Completed node count (success, failure or skip).
    completed: usize,
}

/// Shared execution context for one scheduler run.
struct Executor {
    nodes: Vec<Node>,
    dependents: Vec<Vec<usize>>,
    state: Mutex<SchedState>,
    /// The shared bounded ready queue (capacity = node count, so pushes
    /// never block; closed once every node has completed).
    ready: BoundedQueue<usize>,
    scale: Scale,
    dataset: SignDataset,
    images: Vec<Tensor>,
    disk: Option<DiskStore>,
    /// One result slot per node id, set once when the node succeeds.
    results: Vec<OnceLock<NodeResult>>,
    profiles: Mutex<Vec<Option<NodeProfile>>>,
    verbose: bool,
    /// The run's write-ahead journal, when enabled: completed cells are
    /// appended (and fsynced) as they finish, in completion order.
    journal: Option<Arc<JournalWriter>>,
    /// Extra attempts granted to a failed node (`--retry-failed N`).
    retry_limit: usize,
}

impl Executor {
    fn new(
        sched: &ExperimentScheduler,
        nodes: Vec<Node>,
        dataset: SignDataset,
        images: Vec<Tensor>,
        disk: Option<DiskStore>,
        journal: Option<Arc<JournalWriter>>,
    ) -> Self {
        let mut dependents = vec![Vec::new(); nodes.len()];
        let mut pending = vec![0usize; nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            pending[id] = node.deps.len();
            for &dep in &node.deps {
                dependents[dep].push(id);
            }
        }
        // Seed the bounded queue with every dependency-free node, in node
        // order. Capacity = node count, so no push can ever block, and the
        // freshly built queue cannot be closed — a refusal here can only
        // be a fault-injected spurious one, so ride it out.
        let ready = BoundedQueue::new(nodes.len());
        for (id, &p) in pending.iter().enumerate() {
            if p == 0 {
                let mut item = id;
                while let Err(back) = ready.push(item) {
                    item = back;
                }
            }
        }
        Executor {
            retry_limit: sched.retry_failed,
            journal,
            dependents,
            state: Mutex::new(SchedState {
                pending,
                failures: vec![None; nodes.len()],
                attempts: vec![0; nodes.len()],
                completed: 0,
            }),
            ready,
            scale: sched.scale,
            dataset,
            images,
            disk,
            results: nodes.iter().map(|_| OnceLock::new()).collect(),
            profiles: Mutex::new(vec![None; nodes.len()]),
            verbose: sched.verbose,
            nodes,
        }
    }

    /// One scheduler worker: pull ready nodes from the bounded queue until
    /// it closes (which [`Executor::complete`] does once the whole DAG has
    /// completed). With `pin_intra` set, each node's nested rayon regions
    /// are pinned to one thread (the thread budget is already spent on the
    /// cell dimension).
    fn worker_loop(&self, worker: usize, pin_intra: bool, run_start: &Instant) {
        let inner = if pin_intra {
            rayon::ThreadPoolBuilder::new().num_threads(1).build().ok()
        } else {
            None
        };
        loop {
            let Some(id) = self.ready.pop() else {
                // A `None` from an open queue is spurious (a fault-injected
                // lost wakeup); only a genuinely closed queue ends the
                // worker — otherwise a lone worker would strand the DAG.
                if self.ready.is_closed() {
                    break;
                }
                continue;
            };
            let start_ns = run_start.elapsed().as_nanos() as u64;
            let node_start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| match &inner {
                Some(pool) => pool.install(|| self.run_node(id)),
                None => self.run_node(id),
            }));
            let duration_ns = node_start.elapsed().as_nanos() as u64;

            let error = match outcome {
                Ok(Ok(result)) => {
                    // The slot is still empty: a node succeeds once, and a
                    // retry only follows a failure. It is set before
                    // `complete` releases any dependent that reads it.
                    let _ = self.results[id].set(result);
                    None
                }
                Ok(Err(e)) => Some(e.to_string()),
                Err(payload) => Some(panic_message(payload)),
            };
            if self.verbose {
                eprintln!(
                    "[sched] worker {worker} {} {} in {:.1} ms",
                    match error {
                        None => "finished",
                        Some(_) => "FAILED",
                    },
                    self.nodes[id].name,
                    duration_ns as f64 / 1e6
                );
            }
            self.profiles.lock().expect("profile slots poisoned")[id] = Some(NodeProfile {
                name: self.nodes[id].name.clone(),
                start_ns,
                duration_ns,
                worker,
            });
            if let Some(cause) = &error {
                if self.grant_retry(id) {
                    if self.verbose {
                        eprintln!(
                            "[sched] worker {worker} retrying {} after: {cause}",
                            self.nodes[id].name
                        );
                    }
                    // Re-queue the node instead of completing it; its
                    // dependents stay pending until an attempt succeeds
                    // or the retry budget is spent. The push cannot find
                    // the queue closed (this node has not completed).
                    self.requeue(id);
                    continue;
                }
            }
            self.complete(id, error);
        }
    }

    /// Consumes one retry attempt for `id` if any are left.
    fn grant_retry(&self, id: usize) -> bool {
        let mut st = self.state.lock().expect("scheduler state poisoned");
        if st.attempts[id] < self.retry_limit {
            st.attempts[id] += 1;
            true
        } else {
            false
        }
    }

    /// Pushes `id` back onto the ready queue, riding out spurious
    /// (fault-injected) refusals. The queue only closes after every node
    /// has completed, which cannot have happened while `id` is in hand.
    fn requeue(&self, id: usize) {
        let mut item = id;
        while let Err(back) = self.ready.push(item) {
            if self.ready.is_closed() {
                break;
            }
            item = back;
        }
    }

    /// Marks `id` complete (with an optional failure), releases newly
    /// ready dependents into the queue, and transitively skips dependents
    /// of failed nodes. Bookkeeping runs under the state lock; queue pushes
    /// happen after it is released (they can never block — the queue's
    /// capacity is the node count — but the queue owns its own lock and we
    /// never hold two).
    fn complete(&self, id: usize, error: Option<String>) {
        let mut newly_ready = Vec::new();
        let all_done = {
            let mut st = self.state.lock().expect("scheduler state poisoned");
            if let Some(error) = error {
                st.failures[id] = Some(CellStatus::Failed { error });
            }
            st.completed += 1;
            // Walk completions breadth-first: a failed prerequisite marks
            // its dependents skipped, which completes them, which may
            // cascade.
            let mut frontier = vec![id];
            while let Some(done) = frontier.pop() {
                for &dep in &self.dependents[done] {
                    st.pending[dep] -= 1;
                    if st.pending[dep] > 0 {
                        continue;
                    }
                    // Every dependency has completed: the node is runnable
                    // only if ALL of them succeeded. Checking the full dep
                    // list (not just `done`) matters when the failed
                    // dependency completed earlier than the one whose
                    // completion released the node.
                    let failed_dep = self.nodes[dep]
                        .deps
                        .iter()
                        .find_map(|&d| st.failures[d].as_ref().map(|f| (d, f)));
                    if let Some((bad, failure)) = failed_dep {
                        let (CellStatus::Failed { error: cause }
                        | CellStatus::Skipped { reason: cause }) = failure
                        else {
                            unreachable!("a failure record is never Ok")
                        };
                        let reason =
                            format!("prerequisite {} failed: {cause}", self.nodes[bad].name);
                        st.failures[dep] = Some(CellStatus::Skipped { reason });
                        st.completed += 1;
                        frontier.push(dep);
                    } else {
                        newly_ready.push(dep);
                    }
                }
            }
            st.completed == self.nodes.len()
        };
        for dep in newly_ready {
            // Cannot genuinely fail (the queue only closes below, after
            // every node — including `dep` — has completed), but a fault-
            // injected refusal must not strand the node.
            self.requeue(dep);
        }
        if all_done {
            // Wake every blocked worker for shutdown.
            self.ready.close();
        }
    }

    /// The trained variant in train node `id`'s slot. A node runs only
    /// once every dependency succeeded, so a dependency's slot is set.
    fn model(&self, id: usize) -> &DefendedModel {
        match self.results[id].get() {
            Some(NodeResult::Model(model)) => model,
            _ => unreachable!("{} holds no model", self.nodes[id].name),
        }
    }

    /// The artifact in artifact node `id`'s slot (see [`Executor::model`]).
    fn artifact(&self, id: usize) -> &Artifact {
        match self.results[id].get() {
            Some(NodeResult::Artifact(artifact)) => artifact,
            _ => unreachable!("{} holds no artifact", self.nodes[id].name),
        }
    }

    /// Executes one node's work and returns what goes into its slot.
    fn run_node(&self, id: usize) -> Result<NodeResult> {
        let node = &self.nodes[id];
        // Fault sites `core.sched.{train,artifact,cell}`: an `Error` fault
        // fails the node before it produces anything (variant, artifact or
        // cell result), so a retry regenerates it deterministically; a
        // `Panic` fault exercises the catch_unwind isolation.
        #[cfg(feature = "fault-injection")]
        {
            use crate::fault::sites;
            let site = match node.kind {
                NodeKind::Train(_) => sites::SCHED_TRAIN,
                NodeKind::Artifact(_) => sites::SCHED_ARTIFACT,
                NodeKind::Cell(_) => sites::SCHED_CELL,
            };
            if crate::fault::fire(site) {
                let marker = crate::fault::MARKER;
                return Err(BlurNetError::BadConfig(format!(
                    "{marker}: injected failure at {site}"
                )));
            }
        }
        Ok(match &node.kind {
            NodeKind::Train(defense) => {
                let train = self.scale.train_config();
                let size = self.dataset.image_size();
                let classes = self.dataset.num_classes();
                NodeResult::Model(Box::new(self.cached(
                    id,
                    |disk| {
                        let found = disk.models.load(defense, &train, size, classes, disk.seed);
                        found.map_err(|e| e.to_string())
                    },
                    |disk, model| {
                        let stored = disk.models.store(model, &train, size, classes, disk.seed);
                        stored.map(drop).map_err(|e| e.to_string())
                    },
                    || Ok(train_defended_model(defense, &self.dataset, &train)?),
                )?))
            }
            NodeKind::Artifact(key) => {
                let model = self.model(node.deps[0]);
                let path =
                    |disk: &DiskStore, stem, ext| disk.artifact_path(stem, ext, self.scale, model);
                let write = |path: PathBuf, bytes: Vec<u8>| {
                    write_file_atomic(&path, &bytes).map_err(|e| e.to_string())
                };
                NodeResult::Artifact(match key {
                    ArtifactKey::Transfer => Artifact::Transfer(self.cached(
                        id,
                        |disk| {
                            read_artifact(&path(disk, "transfer", "bnxs")?, transfer_set_from_bytes)
                        },
                        |disk, set| {
                            write(path(disk, "transfer", "bnxs")?, transfer_set_to_bytes(set))
                        },
                        || table1::transfer_set(self.scale, model, &self.images),
                    )?),
                    ArtifactKey::Sticker => Artifact::Sticker(self.cached(
                        id,
                        |disk| {
                            read_artifact(&path(disk, "sticker", "bnrp")?, rp2_result_from_bytes)
                        },
                        |disk, sticker| {
                            write(path(disk, "sticker", "bnrp")?, rp2_result_to_bytes(sticker))
                        },
                        || figures::sticker_artifact(self.scale, model, &self.images),
                    )?),
                    ArtifactKey::Sweep { objective, .. } => {
                        let attack = rp2_with_objective(self.scale, objective.build(model)?)?;
                        let targets = self.scale.attack_targets();
                        Artifact::Sweep(sweep_defended(model, &attack, &self.images, &targets)?)
                    }
                })
            }
            NodeKind::Cell(spec) => {
                // Defended inference is stateless, so every cell reads the
                // one shared trained model; concurrent cells never copy it.
                let artifacts: Vec<&Artifact> = node.deps[1..]
                    .iter()
                    .map(|&dep| self.artifact(dep))
                    .collect();
                let output = execute_cell(
                    &spec.kind,
                    self.scale,
                    &self.images,
                    self.model(node.deps[0]),
                    &artifacts,
                )?;
                // Write-ahead: the cell's record is durable on disk
                // before its slot commits it to the report — a crash from
                // here on never loses this cell.
                if let Some(journal) = &self.journal {
                    journal.append_cell(&CellReport {
                        experiment: spec.experiment.to_string(),
                        label: spec.label.clone(),
                        status: CellStatus::Ok,
                        output: Some(output.clone()),
                    });
                }
                NodeResult::Cell(output)
            }
        })
    }

    /// The one disk-cache path of a node's result. Without a cache
    /// directory the result is generated. Otherwise a readable entry is
    /// returned as is; a miss generates, and a poisoned probe (fault site
    /// `core.cache.load`) or an unreadable entry is reported on stderr and
    /// regenerated — a damaged cache costs a regeneration, never a failed
    /// node. A generated result is stored best-effort: a full disk must
    /// not fail the run that just paid for the work.
    fn cached<T>(
        &self,
        id: usize,
        load: impl FnOnce(&DiskStore) -> std::result::Result<Option<T>, String>,
        store: impl FnOnce(&DiskStore, &T) -> std::result::Result<(), String>,
        generate: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let Some(disk) = &self.disk else {
            return generate();
        };
        let name = &self.nodes[id].name;
        #[cfg(feature = "fault-injection")]
        let poisoned = crate::fault::fire(crate::fault::sites::CACHE_LOAD);
        #[cfg(not(feature = "fault-injection"))]
        let poisoned = false;
        if poisoned {
            eprintln!("[sched] cache probe for {name} poisoned (injected); regenerating");
        } else {
            match load(disk) {
                Ok(Some(found)) => return Ok(found),
                Ok(None) => {}
                Err(e) => {
                    eprintln!("[sched] cache entry for {name} unreadable ({e}); regenerating")
                }
            }
        }
        let generated = generate()?;
        if let Err(e) = store(disk, &generated) {
            eprintln!("[sched] failed to cache {name}: {e}");
        }
        Ok(generated)
    }

    /// Collapses the execution state into the deterministic report (cells
    /// in grid order) and the per-node profiles (node-id order). Each
    /// cell's status is its failure record, else `Ok` with its slot's
    /// output.
    fn into_results(self, scale: Scale, seed: u64) -> (RunReport, Vec<NodeProfile>) {
        let failures = self
            .state
            .into_inner()
            .expect("scheduler state poisoned")
            .failures;
        let mut cells = Vec::new();
        for ((node, slot), failure) in self.nodes.into_iter().zip(self.results).zip(failures) {
            let NodeKind::Cell(spec) = node.kind else {
                continue;
            };
            let output = match slot.into_inner() {
                Some(NodeResult::Cell(output)) => Some(output),
                _ => None,
            };
            let status = match (failure, &output) {
                (Some(status), _) => status,
                (None, Some(_)) => CellStatus::Ok,
                (None, None) => CellStatus::Failed {
                    error: "cell never executed".into(),
                },
            };
            cells.push(CellReport {
                experiment: spec.experiment.to_string(),
                label: spec.label,
                status,
                output,
            });
        }
        let profiles = self
            .profiles
            .into_inner()
            .expect("profile slots poisoned")
            .into_iter()
            .flatten()
            .collect();
        (
            RunReport {
                schema: RESULTS_SCHEMA.to_string(),
                scale: scale.to_string(),
                seed,
                cells,
            },
            profiles,
        )
    }
}

/// Renders a panic payload as a readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_dedups_artifacts_in_the_full_grid() {
        let scheduler = ExperimentScheduler::new(Scale::Smoke, 7);
        let plan = scheduler.plan(&ExperimentGrid::full(Scale::Smoke));
        let train_nodes: Vec<&String> = plan
            .iter()
            .map(|(name, _)| name)
            .filter(|n| n.starts_with("train:"))
            .collect();
        // Exactly one train node per distinct variant (the Table II
        // roster), regardless of how many cells consume each.
        assert_eq!(train_nodes.len(), 15);
        let mut unique = train_nodes.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), train_nodes.len());
        // Exactly one transfer-set node and one sticker node.
        assert_eq!(
            plan.iter()
                .filter(|(n, _)| n == "artifact:transfer-set")
                .count(),
            1
        );
        assert_eq!(
            plan.iter().filter(|(n, _)| n == "artifact:sticker").count(),
            1
        );
        // Every Table I cell depends on both the baseline and the
        // transfer artifact.
        for (name, deps) in &plan {
            if name.starts_with("cell:table1/") {
                assert!(deps.contains(&"train:Baseline".to_string()), "{name}");
                assert!(
                    deps.contains(&"artifact:transfer-set".to_string()),
                    "{name}"
                );
            }
        }
        // One sweep per distinct (variant, objective): 15 Table II + 7
        // Table III + 3 Table V + 3 Figure 3 dims (dim 16 is Table III's).
        let sweeps = plan
            .iter()
            .filter(|(n, _)| n.starts_with("artifact:sweep/"))
            .count();
        assert_eq!(sweeps, 28);
        let deps_of = |cell: &str| -> Vec<String> {
            plan.iter()
                .find(|(n, _)| n == cell)
                .unwrap_or_else(|| panic!("no node {cell}"))
                .1
                .iter()
                .filter(|d| d.starts_with("artifact:sweep/"))
                .cloned()
                .collect()
        };
        // Each Figure 5/6 series reads its Table II row's sweep node.
        let mut series = 0;
        for (name, _) in &plan {
            let Some(label) = name
                .strip_prefix("cell:figure5/")
                .or_else(|| name.strip_prefix("cell:figure6/"))
            else {
                continue;
            };
            let row = deps_of(&format!("cell:table2/{label}"));
            assert_eq!(row.len(), 1, "{name}");
            assert_eq!(deps_of(name), row, "{name}");
            series += 1;
        }
        assert_eq!(series, 10);
        // Figure 3 reads four DCT sweeps, the dim-16 one being Table III's
        // 7x7 conv node.
        let figure3 = deps_of("cell:figure3/DCT sweep (7x7 depthwise)");
        assert_eq!(figure3.len(), 4);
        let table3 = deps_of(&format!(
            "cell:table3/{}",
            crate::experiments::figures::figure3_defense().label()
        ));
        assert_eq!(table3.len(), 1);
        assert!(figure3.contains(&table3[0]), "{figure3:?} vs {table3:?}");
    }

    /// The micro grid with a Figure 3 cell that has no DCT dimensions —
    /// a cell that really fails (`BadConfig`) — inserted at index 1, run
    /// on `threads` workers: that cell is `Failed` and every sibling's
    /// report entry is byte-identical to a clean micro-grid run.
    fn assert_a_failing_cell_is_isolated(threads: usize) {
        let clean = ExperimentGrid::micro();
        let mut cells = clean.cells().to_vec();
        cells.insert(
            1,
            CellSpec {
                experiment: "figure3",
                label: "no dims".into(),
                kind: crate::experiments::grid::CellKind::Figure3 { dims: vec![] },
            },
        );
        let scheduler = ExperimentScheduler::new(Scale::Smoke, 7).threads(threads);
        let clean = scheduler.run(&clean).unwrap().report;
        let mut faulty = scheduler
            .run(&ExperimentGrid::custom(cells))
            .unwrap()
            .report;
        let failing = faulty.cells.remove(1);
        assert!(
            matches!(&failing.status, CellStatus::Failed { error } if error.contains("no DCT dimensions")),
            "{:?}",
            failing.status
        );
        assert!(failing.output.is_none());
        let bytes = |cell: &CellReport| serde_json::to_string(cell).unwrap();
        assert_eq!(faulty.cells.len(), clean.cells.len());
        for (cell, clean_cell) in faulty.cells.iter().zip(&clean.cells) {
            assert_eq!(
                bytes(cell),
                bytes(clean_cell),
                "sibling {} diverged",
                cell.label
            );
        }
    }

    #[test]
    fn a_failing_cell_does_not_poison_its_siblings() {
        assert_a_failing_cell_is_isolated(2);
    }

    #[test]
    fn failure_isolation_holds_with_a_single_worker() {
        assert_a_failing_cell_is_isolated(1);
    }

    #[test]
    fn empty_grids_are_rejected() {
        let scheduler = ExperimentScheduler::new(Scale::Smoke, 7);
        assert!(scheduler.run(&ExperimentGrid::custom(vec![])).is_err());
    }

    #[test]
    fn micro_grid_runs_and_profiles_every_cell() {
        let run = ExperimentScheduler::new(Scale::Smoke, 7)
            .threads(2)
            .run(&ExperimentGrid::micro())
            .unwrap();
        assert!(run.report.all_ok());
        assert_eq!(run.report.cells.len(), 4);
        assert_eq!(run.profile.cell_count, 4);
        assert!(run.profile.cells_per_sec() > 0.0);
        assert!(run.profile.utilization() > 0.0 && run.profile.utilization() <= 1.0);
    }

    #[test]
    fn the_full_plan_is_pinned_and_readers_start_at_their_train_node() {
        let scale = Scale::Smoke;
        let grid = ExperimentGrid::full(scale);
        let plan = ExperimentScheduler::new(scale, 7).plan(&grid);
        // Every cell's first dependency is the train node of the variant
        // it evaluates, so its model is read from that node's slot.
        let cells: Vec<_> = plan
            .iter()
            .filter(|(n, _)| n.starts_with("cell:"))
            .collect();
        assert_eq!(cells.len(), grid.len());
        for ((name, deps), spec) in cells.into_iter().zip(grid.cells()) {
            assert_eq!(name, &format!("cell:{}/{}", spec.experiment, spec.label));
            let train = format!("train:{}", spec.required_defense(scale).label());
            assert_eq!(deps[0], train, "{name}");
        }
        // An artifact node's one dependency is the train node it runs on.
        for (name, deps) in plan.iter().filter(|(n, _)| n.starts_with("artifact:")) {
            assert!(deps.len() == 1 && deps[0].starts_with("train:"), "{name}");
        }
        // Names, dependencies and node order, pinned as one FNV-1a hash
        // of `name <- dep, dep` lines: a change here is a change to the
        // DAG, which node names and blurbench's per-prefix timings rely on.
        let text: String = plan
            .iter()
            .map(|(name, deps)| format!("{name} <- {}\n", deps.join(", ")))
            .collect();
        assert_eq!(plan.len(), 15 + 2 + 28 + 52);
        assert_eq!(fnv1a(text.as_bytes()), 0x54bc_41e2_86ef_8d2f, "{text}");
    }
}

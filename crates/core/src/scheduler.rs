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
//! * **Train nodes** train each distinct model variant once (stored in
//!   the shared [`VariantCache`]).
//! * **Artifact nodes** (`artifact:<key>`) generate each shared attack
//!   artifact once, on a trained variant, deduplicated by key: the Table I
//!   transfer set (`artifact:transfer-set`), the Figure 1/2 RP2 sticker
//!   (`artifact:sticker`), and one targeted RP2 sweep per (variant,
//!   objective) (`artifact:sweep/<variant>/<objective>`), so a Figure 5/6
//!   series reads its Table II row's sweep and Figure 3's dim-16 point
//!   reads Table III's `7x7 conv` sweep. Sweeps are held in memory for
//!   the run; the transfer set and sticker also ride the disk cache.
//! * **Cell nodes** evaluate one row/series each, as a view over the
//!   trained variant and the artifacts they consume.
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
//! Trained variants live in the [`VariantCache`] as `Arc<DefendedModel>`
//! handles shared read-only across workers. Every cell evaluates the one
//! shared model in place: white-box attacks read its network, and defended
//! inference ([`DefendedModel::classify`]) is a pure `&self` function —
//! even randomized smoothing starts a fresh noise stream per call — so a
//! cell's result cannot depend on which worker runs it or what ran
//! before it. The underlying
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
//!   on completion order (results are written into per-cell slots indexed
//!   by grid position);
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
//! to completion.

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
    train_defended_model, DefendedModel, DefenseKind, DiskVariantCache, VariantCache,
};
use blurnet_tensor::persist::{read_file_verified, write_file_atomic};
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
    /// Evaluates the grid cell at this index.
    Cell(usize),
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
    /// transfer-set / sticker artifacts are stored per `(scale, seed)`
    /// (sweep artifacts are held in memory for the run only).
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
        self.run_inner(grid, None, None)
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
        self.run_inner(grid, None, Some(journal))
    }

    /// Test hook: runs the grid with a panic injected into the cell at
    /// `panic_cell` (grid order), exercising the failure-isolation path.
    #[doc(hidden)]
    pub fn run_with_injected_panic(
        &self,
        grid: &ExperimentGrid,
        panic_cell: usize,
    ) -> Result<ScheduledRun> {
        self.run_inner(grid, Some(panic_cell), None)
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
        panic_cell: Option<usize>,
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

        let exec = Executor::new(
            nodes,
            grid,
            self.scale,
            dataset,
            images,
            disk,
            panic_cell,
            self.verbose,
            self.retry_failed,
            journal,
        );

        let started = Instant::now();
        // `run_workers` runs a single worker inline (keeping the whole
        // rayon budget available to the batch engine inside each cell) and
        // a multi-worker fleet on a dedicated pool.
        let pin_intra = workers > 1;
        run_workers(workers, |id| exec.worker_loop(id, pin_intra, &started));
        let wall_ns = started.elapsed().as_nanos() as u64;

        let (report, node_profiles) = exec.into_results(self.scale, self.seed, grid)?;
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
/// A cell depends on its variant's train node and then on its artifact
/// nodes in [`CellSpec::artifacts`] order.
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
    for (i, (spec, deps)) in grid.cells().iter().zip(cell_deps).enumerate() {
        nodes.push(Node {
            name: format!("cell:{}/{}", spec.experiment, spec.label),
            kind: NodeKind::Cell(i),
            deps,
        });
    }
    nodes
}

/// The on-disk side of a cached run: the model cache plus the per-
/// `(scale, seed)` artifact files, all under one directory.
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
}

/// Mutable scheduling state guarded by one mutex (map operations only —
/// never node execution).
struct SchedState {
    /// Remaining unfinished dependencies per node.
    pending: Vec<usize>,
    /// Failure (or skip) reason per node, if any.
    failed: Vec<Option<String>>,
    /// Completed node count (success, failure or skip).
    completed: usize,
}

/// One cell's pending result: its status plus the output when it ran.
type CellSlot = Mutex<Option<(CellStatus, Option<CellOutput>)>>;

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
    variants: VariantCache,
    disk: Option<DiskStore>,
    /// Generated artifacts, by node id (empty for train and cell nodes).
    artifacts: Vec<OnceLock<Artifact>>,
    cell_slots: Vec<CellSlot>,
    profiles: Mutex<Vec<Option<NodeProfile>>>,
    specs: Vec<CellSpec>,
    panic_cell: Option<usize>,
    verbose: bool,
    /// The run's write-ahead journal, when enabled: completed cells are
    /// appended (and fsynced) as they finish, in completion order.
    journal: Option<Arc<JournalWriter>>,
    /// Extra attempts granted to a failed node (`--retry-failed N`).
    retry_limit: usize,
    /// Failed attempts consumed per node, guarded by `state`'s lock
    /// discipline (only the worker holding the node mutates its slot).
    attempts: Mutex<Vec<usize>>,
}

impl Executor {
    #[allow(clippy::too_many_arguments)]
    fn new(
        nodes: Vec<Node>,
        grid: &ExperimentGrid,
        scale: Scale,
        dataset: SignDataset,
        images: Vec<Tensor>,
        disk: Option<DiskStore>,
        panic_cell: Option<usize>,
        verbose: bool,
        retry_limit: usize,
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
        let cell_slots = (0..grid.len()).map(|_| Mutex::new(None)).collect();
        let profiles = Mutex::new(vec![None; nodes.len()]);
        let attempts = Mutex::new(vec![0usize; nodes.len()]);
        Executor {
            attempts,
            retry_limit,
            journal,
            dependents,
            state: Mutex::new(SchedState {
                pending,
                failed: vec![None; nodes.len()],
                completed: 0,
            }),
            ready,
            scale,
            dataset,
            images,
            variants: VariantCache::new(),
            disk,
            artifacts: nodes.iter().map(|_| OnceLock::new()).collect(),
            cell_slots,
            profiles,
            specs: grid.cells().to_vec(),
            panic_cell,
            verbose,
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
                Ok(Ok(())) => None,
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
        let mut attempts = self.attempts.lock().expect("attempt slots poisoned");
        if attempts[id] < self.retry_limit {
            attempts[id] += 1;
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
            if let Some(error) = &error {
                if let NodeKind::Cell(cell) = self.nodes[id].kind {
                    *self.cell_slots[cell].lock().expect("cell slot poisoned") = Some((
                        CellStatus::Failed {
                            error: error.clone(),
                        },
                        None,
                    ));
                }
                st.failed[id] = Some(error.clone());
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
                        .find(|&&d| st.failed[d].is_some())
                        .copied();
                    if let Some(bad) = failed_dep {
                        let cause = st.failed[bad].clone().expect("checked above");
                        let reason =
                            format!("prerequisite {} failed: {cause}", self.nodes[bad].name);
                        if let NodeKind::Cell(cell) = self.nodes[dep].kind {
                            *self.cell_slots[cell].lock().expect("cell slot poisoned") = Some((
                                CellStatus::Skipped {
                                    reason: reason.clone(),
                                },
                                None,
                            ));
                        }
                        st.failed[dep] = Some(reason);
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

    /// Executes one node's work.
    fn run_node(&self, id: usize) -> Result<()> {
        let kind = &self.nodes[id].kind;
        // Fault sites `core.sched.{train,artifact,cell}`: an `Error` fault
        // fails the node before it stores anything (variant, artifact or
        // cell result), so a retry regenerates it deterministically; a
        // `Panic` fault exercises the catch_unwind isolation.
        #[cfg(feature = "fault-injection")]
        {
            use crate::fault::sites;
            let site = match kind {
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
        match kind {
            NodeKind::Train(defense) => {
                if self.variants.get(&defense.label()).is_none() {
                    let model = match self.load_cached_model(defense) {
                        Some(model) => model,
                        None => {
                            let model = train_defended_model(
                                defense,
                                &self.dataset,
                                &self.scale.train_config(),
                            )?;
                            self.store_model(&model);
                            model
                        }
                    };
                    self.variants.insert(model);
                }
                Ok(())
            }
            NodeKind::Artifact(key) => {
                let baseline = || self.variant(&DefenseKind::Baseline.label());
                let artifact = match key {
                    ArtifactKey::Transfer => Artifact::Transfer(self.load_or_generate(
                        "transfer",
                        "bnxs",
                        transfer_set_from_bytes,
                        transfer_set_to_bytes,
                        || table1::transfer_set(self.scale, &*baseline()?, &self.images),
                    )?),
                    ArtifactKey::Sticker => Artifact::Sticker(self.load_or_generate(
                        "sticker",
                        "bnrp",
                        rp2_result_from_bytes,
                        rp2_result_to_bytes,
                        || figures::sticker_artifact(self.scale, &*baseline()?, &self.images),
                    )?),
                    ArtifactKey::Sweep { defense, objective } => {
                        let model = self.variant(defense)?;
                        let attack = rp2_with_objective(self.scale, objective.build(&model)?)?;
                        let targets = self.scale.attack_targets();
                        Artifact::Sweep(sweep_defended(&model, &attack, &self.images, &targets)?)
                    }
                };
                // The slot is still empty: a node completes once, and a
                // retry only follows a failure, which never gets here.
                let _ = self.artifacts[id].set(artifact);
                Ok(())
            }
            NodeKind::Cell(cell) => {
                if self.panic_cell == Some(*cell) {
                    panic!("injected panic (scheduler isolation test)");
                }
                let spec = &self.specs[*cell];
                // Defended inference is stateless, so every cell reads the
                // one shared trained model; concurrent cells never copy it.
                let model = self.variant(&spec.required_defense(self.scale).label())?;
                // A cell runs only once every dependency succeeded, so its
                // artifact nodes (every dep after the train node) are set.
                let artifacts: Vec<&Artifact> = self.nodes[id].deps[1..]
                    .iter()
                    .filter_map(|&dep| self.artifacts[dep].get())
                    .collect();
                let output =
                    execute_cell(&spec.kind, self.scale, &self.images, &model, &artifacts)?;
                // Write-ahead: the cell's record is durable on disk
                // before the in-memory slot commits it to the report —
                // a crash from here on never loses this cell.
                if let Some(journal) = &self.journal {
                    journal.append_cell(&CellReport {
                        experiment: spec.experiment.to_string(),
                        label: spec.label.clone(),
                        status: CellStatus::Ok,
                        output: Some(output.clone()),
                    });
                }
                *self.cell_slots[*cell].lock().expect("cell slot poisoned") =
                    Some((CellStatus::Ok, Some(output)));
                Ok(())
            }
        }
    }

    /// Fault site `core.cache.load`, evaluated once per disk-cache probe:
    /// an `Error` fault makes the probe report corruption, forcing the
    /// regenerate-from-scratch fall-back. Returns `true` when the probe
    /// should be treated as poisoned.
    #[cfg(feature = "fault-injection")]
    fn cache_load_poisoned(&self) -> bool {
        crate::fault::fire(crate::fault::sites::CACHE_LOAD)
    }

    /// No-op without the `fault-injection` feature.
    #[cfg(not(feature = "fault-injection"))]
    #[inline(always)]
    fn cache_load_poisoned(&self) -> bool {
        false
    }

    /// Probes the disk cache for a trained variant. Misses **and** damaged
    /// entries both come back `None` — corruption downgrades to a retrain,
    /// never a failed node — but damage is reported to stderr (a silent
    /// downgrade would hide bit-rot forever).
    fn load_cached_model(&self, defense: &DefenseKind) -> Option<DefendedModel> {
        let disk = self.disk.as_ref()?;
        if self.cache_load_poisoned() {
            eprintln!(
                "[sched] cache probe for {} poisoned (injected); retraining",
                defense.label()
            );
            return None;
        }
        match disk.models.load(
            defense,
            &self.scale.train_config(),
            self.dataset.image_size(),
            self.dataset.num_classes(),
            disk.seed,
        ) {
            Ok(found) => found,
            Err(e) => {
                eprintln!(
                    "[sched] cache entry for {} unreadable ({e}); retraining",
                    defense.label()
                );
                None
            }
        }
    }

    /// Writes a freshly trained variant to the disk cache (best-effort: a
    /// full disk must not fail the run that just paid for the training).
    fn store_model(&self, model: &DefendedModel) {
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.models.store(
                model,
                &self.scale.train_config(),
                self.dataset.image_size(),
                self.dataset.num_classes(),
                disk.seed,
            ) {
                eprintln!(
                    "[sched] failed to cache trained {}: {e}",
                    model.defense().label()
                );
            }
        }
    }

    /// A disk-cached artifact: loaded from `<stem>-<scale>-<seed>.<ext>`
    /// under the cache directory when a readable entry exists, otherwise
    /// generated and stored there (best-effort, like
    /// [`Executor::store_model`]). Misses and damaged entries both
    /// regenerate, with the same semantics as
    /// [`Executor::load_cached_model`].
    fn load_or_generate<T>(
        &self,
        stem: &str,
        ext: &str,
        decode: fn(&[u8]) -> std::result::Result<T, AttackError>,
        encode: fn(&T) -> Vec<u8>,
        generate: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let Some(disk) = &self.disk else {
            return generate();
        };
        let path = disk
            .dir
            .join(format!("{stem}-{}-{}.{ext}", self.scale, disk.seed));
        if path.exists() {
            if self.cache_load_poisoned() {
                eprintln!("[sched] {stem} cache probe poisoned (injected); regenerating");
            } else {
                match read_file_verified(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|payload| decode(&payload).map_err(|e| e.to_string()))
                {
                    Ok(artifact) => return Ok(artifact),
                    Err(e) => eprintln!("[sched] cached {stem} unreadable ({e}); regenerating"),
                }
            }
        }
        let artifact = generate()?;
        if let Err(e) = write_file_atomic(&path, &encode(&artifact)) {
            eprintln!("[sched] failed to cache artifact {}: {e}", path.display());
        }
        Ok(artifact)
    }

    /// The trained variant with this label (must have been produced by a
    /// completed train node).
    fn variant(&self, label: &str) -> Result<Arc<DefendedModel>> {
        self.variants.get(label).ok_or_else(|| {
            BlurNetError::BadConfig(format!(
                "variant {label} missing from the cache (train node did not run?)"
            ))
        })
    }

    /// Collapses the execution state into the deterministic report (cells
    /// in grid order) and the per-node profiles (node-id order).
    fn into_results(
        self,
        scale: Scale,
        seed: u64,
        grid: &ExperimentGrid,
    ) -> Result<(RunReport, Vec<NodeProfile>)> {
        let mut cells = Vec::with_capacity(grid.len());
        for (i, spec) in grid.cells().iter().enumerate() {
            let (status, output) = self.cell_slots[i]
                .lock()
                .expect("cell slot poisoned")
                .take()
                .unwrap_or((
                    CellStatus::Failed {
                        error: "cell never executed".into(),
                    },
                    None,
                ));
            cells.push(CellReport {
                experiment: spec.experiment.to_string(),
                label: spec.label.clone(),
                status,
                output,
            });
        }
        let profiles = self
            .profiles
            .lock()
            .expect("profile slots poisoned")
            .iter()
            .flatten()
            .cloned()
            .collect();
        Ok((
            RunReport {
                schema: RESULTS_SCHEMA.to_string(),
                scale: scale.to_string(),
                seed,
                cells,
            },
            profiles,
        ))
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
}

//! The paper-grid workloads: the full smoke grid through the same
//! `ExperimentScheduler` entry point `reproduce --cache-dir` drives, cold
//! (empty cache, one worker) or warm (cache filled beforehand, two
//! workers).

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use blurnet::experiments::grid::ExperimentGrid;
use blurnet::journal::read_journal;
use blurnet::{ExperimentScheduler, RunProfile, RunReport, Scale};
use blurnet_defenses::{DefendedModel, DefenseKind, DiskVariantCache};

use crate::metrics::{Metrics, EXPERIMENTS};
use crate::trace::Trace;
use crate::work::TempDir;
use crate::{host, stats, Ctx, Error};

/// The scale every workload runs at.
pub const SCALE: Scale = Scale::Smoke;

/// Scheduler workers of the cold grid: one keeps node order fixed.
pub const COLD_WORKERS: usize = 1;

/// Scheduler workers of the warm grid.
pub const WARM_WORKERS: usize = 2;

/// Set-up repetitions (after one untimed warm-up) whose median is the
/// cold grid's `setup_s`.
const SETUP_SAMPLES: usize = 31;

/// One scheduler run of the grid, with its timings.
#[derive(Debug)]
pub struct GridRep {
    /// The deterministic report.
    pub report: RunReport,
    /// The report's `results.json` bytes.
    pub results: String,
    /// The scheduler's per-node timings.
    pub profile: RunProfile,
    /// Duration of the `ExperimentScheduler::run` call.
    pub wall_s: f64,
    /// Process CPU time over the call.
    pub cpu_s: f64,
}

impl GridRep {
    /// Cells that completed successfully.
    pub fn ok_cells(&self) -> usize {
        self.report
            .cells
            .iter()
            .filter(|c| c.status == blurnet::CellStatus::Ok)
            .count()
    }

    /// `(attempted, failed)` cells.
    pub fn counts(&self) -> (u64, u64) {
        let cells = self.report.cells.len();
        (cells as u64, (cells - self.ok_cells()) as u64)
    }
}

/// What the untraced measurement of a grid workload collected.
#[derive(Debug)]
pub struct Measured {
    /// Set-up durations, in seconds.
    pub setups: Vec<f64>,
    /// The timed repetitions.
    pub reps: Vec<GridRep>,
}

/// Every model variant the grid trains, once each.
fn grid_variants() -> Vec<DefenseKind> {
    let mut variants: Vec<DefenseKind> = Vec::new();
    for cell in ExperimentGrid::full(SCALE).cells() {
        let defense = cell.required_defense(SCALE);
        if !variants.iter().any(|v| v.label() == defense.label()) {
            variants.push(defense);
        }
    }
    variants
}

/// Creates a fresh run directory with an empty model cache, as a first
/// `reproduce --cache-dir` run starts from, and probes the cache for
/// every variant the grid needs (each probe derives the variant's cache
/// key), checking that all of them miss.
fn prepare(ctx: &mut Ctx) -> Result<(TempDir, f64), Error> {
    let variants = grid_variants();
    let start = Instant::now();
    let dir = ctx.work.temp_dir("grid")?;
    let cache = DiskVariantCache::open(dir.path().join("cache"))?;
    let mut hits = 0;
    for defense in &variants {
        hits += usize::from(
            cache
                .load(
                    defense,
                    &SCALE.train_config(),
                    SCALE.dataset_config().image_size,
                    blurnet_data::NUM_CLASSES,
                    ctx.seed,
                )?
                .is_some(),
        );
    }
    let secs = start.elapsed().as_secs_f64();
    ctx.gates.check(hits == 0, || {
        format!("a fresh cache directory held {hits} models")
    });
    Ok((dir, secs))
}

/// Runs the full grid once in `dir` (model cache in `dir/cache`, journal
/// `dir/run-<rep>.journal`) and applies the correctness gates: the bytes
/// of `results.json` must match every other run of this build at this
/// seed, and the journal must hold exactly the report's cells.
pub fn run_once(
    ctx: &mut Ctx,
    dir: &Path,
    workers: usize,
    rep: usize,
    traced: bool,
) -> Result<GridRep, Error> {
    let grid = ExperimentGrid::full(SCALE);
    let journal = dir.join(format!("run-{rep}.journal"));
    let scheduler = ExperimentScheduler::new(SCALE, ctx.seed)
        .threads(workers)
        .cache_dir(dir.join("cache"))
        .journal_path(&journal);
    let trace: &Trace = if traced { &ctx.trace } else { &ctx.quiet };
    let cpu_before = host::cpu_seconds()?;
    let (run, wall) = trace.span(
        "grid",
        &format!("ExperimentScheduler::run rep {rep}"),
        || scheduler.run(&grid),
    );
    let run = run?;
    let cpu_s = host::cpu_seconds()? - cpu_before;
    trace.import_profile(&format!("rep {rep}"), &run.profile, Instant::now());

    let results = run.report.to_json();
    if let Some(mismatch) = ctx.work.check_results(ctx.seed, results.as_bytes())? {
        ctx.gates.fail(mismatch);
    }
    let recovered = read_journal(&journal)?;
    ctx.gates.check(
        recovered.cells.len() == run.report.cells.len()
            && recovered
                .cells
                .iter()
                .all(|cell| run.report.cell(&cell.experiment, &cell.label) == Some(cell)),
        || {
            format!(
                "journal {} disagrees with the run's report",
                journal.display()
            )
        },
    );
    let rep_result = GridRep {
        report: run.report,
        results,
        profile: run.profile,
        wall_s: wall.as_secs_f64(),
        cpu_s,
    };
    eprintln!(
        "# grid rep {rep}: {} cells ({} ok) in {:.3}s on {workers} worker(s), cpu {cpu_s:.3}s",
        rep_result.report.cells.len(),
        rep_result.ok_cells(),
        rep_result.wall_s
    );
    Ok(rep_result)
}

/// Fills `dir/cache` with an untimed grid run in a child process (the
/// same executable, `--fill-cache`), exactly as a first
/// `reproduce --cache-dir` run would, and returns that run's
/// `results.json`.
fn fill_cache(ctx: &mut Ctx, dir: &Path) -> Result<String, Error> {
    let status = Command::new(std::env::current_exe()?)
        .arg("--fill-cache")
        .arg(dir)
        .arg("--seed")
        .arg(ctx.seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("the cache-filling run failed ({status})").into());
    }
    let results = std::fs::read_to_string(fill_results_path(dir))?;
    if let Some(mismatch) = ctx.work.check_results(ctx.seed, results.as_bytes())? {
        ctx.gates.fail(mismatch);
    }
    Ok(results)
}

fn fill_results_path(dir: &Path) -> std::path::PathBuf {
    dir.join("fill-results.json")
}

/// The `--fill-cache DIR` child: one cold grid run on the warm
/// workload's worker count, leaving its cache and `results.json` in
/// `DIR`.
pub fn fill_child(dir: &Path, seed: u64) -> Result<(), Error> {
    let run = ExperimentScheduler::new(SCALE, seed)
        .threads(WARM_WORKERS)
        .cache_dir(dir.join("cache"))
        .journal_path(dir.join("fill.journal"))
        .run(&ExperimentGrid::full(SCALE))?;
    run.report.write_json(&fill_results_path(dir))?;
    Ok(())
}

/// Warm-cache set-up: a fresh directory filled by an untimed cold run.
fn prepare_warm(ctx: &mut Ctx) -> Result<(TempDir, String, f64), Error> {
    let start = Instant::now();
    let (dir, _) = prepare(ctx)?;
    let filled = fill_cache(ctx, dir.path())?;
    Ok((dir, filled, start.elapsed().as_secs_f64()))
}

/// Checks a warm repetition's bytes against the run that filled its
/// cache.
fn check_against_fill(ctx: &mut Ctx, rep: &GridRep, filled: &str) {
    ctx.gates.check(rep.results == filled, || {
        "warm-cache results.json differs from the run that filled the cache".to_string()
    });
}

/// The untraced measurement: repetitions until `--seconds` have been
/// measured (at least one).
pub fn measure(ctx: &mut Ctx, warm: bool) -> Result<Measured, Error> {
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    if warm {
        let (dir, filled, setup) = prepare_warm(ctx)?;
        setups.push(setup);
        let start = Instant::now();
        loop {
            let rep = run_once(ctx, dir.path(), WARM_WORKERS, reps.len(), false)?;
            check_against_fill(ctx, &rep, &filled);
            reps.push(rep);
            if start.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
        }
    } else {
        prepare(ctx)?;
        for _ in 0..SETUP_SAMPLES {
            setups.push(prepare(ctx)?.1);
        }
        let start = Instant::now();
        loop {
            let (dir, _) = prepare(ctx)?;
            reps.push(run_once(ctx, dir.path(), COLD_WORKERS, reps.len(), false)?);
            if start.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
        }
    }
    Ok(Measured { setups, reps })
}

/// The traced measurement: one untraced repetition as the overhead
/// baseline, then one traced repetition whose directory (and filled
/// cache) is kept for the probes. Returns the baseline, the traced
/// repetition and the directory.
pub fn traced(ctx: &mut Ctx, warm: bool) -> Result<(GridRep, GridRep, TempDir), Error> {
    if warm {
        let (dir, filled, _) = prepare_warm(ctx)?;
        let baseline = run_once(ctx, dir.path(), WARM_WORKERS, 0, false)?;
        check_against_fill(ctx, &baseline, &filled);
        let traced = run_once(ctx, dir.path(), WARM_WORKERS, 1, true)?;
        check_against_fill(ctx, &traced, &filled);
        Ok((baseline, traced, dir))
    } else {
        let baseline = {
            let (dir, _) = prepare(ctx)?;
            run_once(ctx, dir.path(), COLD_WORKERS, 0, false)?
        };
        let (dir, _) = prepare(ctx)?;
        let traced = run_once(ctx, dir.path(), COLD_WORKERS, 1, true)?;
        Ok((baseline, traced, dir))
    }
}

/// Sets the end-to-end metrics of a grid workload (all but
/// `peak_rss_mb`) and returns `(attempted, failed)` cell counts.
pub fn end_to_end(measured: &Measured, m: &mut Metrics) -> (u64, u64) {
    let reps = &measured.reps;
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let attempted: usize = reps.iter().map(|r| r.report.cells.len()).sum();
    let ok: usize = reps.iter().map(GridRep::ok_cells).sum();
    // One repetition is one reproduction request: its latency is the
    // repetition's wall time. Per-cell durations are the other candidate,
    // but their median falls in a dense cluster of 60-130 ms smoke-scale
    // cells and moves more from run to run than the run itself.
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let p50 = stats::percentile(&walls_ms, 0.50).expect("at least one repetition");
    let p99 = stats::percentile(&walls_ms, 0.99).expect("at least one repetition");
    eprintln!("# reproduction latency p50 {p50} ms, p99 {p99} ms");
    let median = |v: &[f64]| stats::median(v).expect("at least one sample");
    m.set("setup_s", median(&measured.setups));
    m.set("wall_s", median(&walls));
    m.set("cpu_s", median(&cpus));
    m.set("ok_ratio", ok as f64 / attempted as f64);
    m.set("p50_ms", p50.value);
    m.set("p99_ms", p99.value);
    (attempted as u64, (attempted - ok) as u64)
}

/// Seconds during which exactly one of several workers was busy.
fn single_worker_seconds(profile: &RunProfile) -> f64 {
    if profile.workers < 2 {
        return 0.0;
    }
    let mut edges: Vec<(u64, i32)> = profile
        .nodes
        .iter()
        .flat_map(|n| [(n.start_ns, 1), (n.start_ns + n.duration_ns, -1)])
        .collect();
    // Ends sort before starts at the same instant.
    edges.sort_unstable();
    let (mut busy, mut last, mut single_ns) = (0i32, 0u64, 0u64);
    for (at, delta) in edges {
        if busy == 1 {
            single_ns += at - last;
        }
        busy += delta;
        last = at;
    }
    single_ns as f64 / 1e9
}

/// Sets the `scheduler`, `defenses.train*`, `experiments` and
/// `attacks.artifact_s` metrics from a run's profile.
pub fn layer_metrics(profile: &RunProfile, m: &mut Metrics) {
    let secs = |prefix: &str| -> Vec<f64> {
        profile
            .nodes
            .iter()
            .filter(|n| n.name.starts_with(prefix))
            .map(|n| n.duration_ns as f64 / 1e9)
            .collect()
    };
    let all = secs("");
    let busy: f64 = all.iter().sum();
    let wall = profile.wall_ns as f64 / 1e9;
    m.set("scheduler.busy_s", busy);
    m.set("scheduler.idle_s", profile.workers as f64 * wall - busy);
    m.set(
        "scheduler.critical_node_s",
        all.iter().copied().fold(0.0, f64::max),
    );
    m.set("scheduler.tail_s", single_worker_seconds(profile));
    let train = secs("train:");
    m.set("defenses.train_s", train.iter().sum());
    m.set(
        "defenses.train_max_s",
        train.iter().copied().fold(0.0, f64::max),
    );
    m.set("attacks.artifact_s", secs("artifact:").iter().sum());
    for experiment in EXPERIMENTS {
        let total: f64 = secs(&format!("cell:{experiment}/")).iter().sum();
        m.set(&format!("experiments.{experiment}_s"), total);
    }
}

/// Loads the Figure 3 model (the trained 7×7 depthwise LISA-CNN) from a
/// grid run's cache.
pub fn load_depthwise(dir: &Path, seed: u64) -> Result<DefendedModel, Error> {
    let defense = blurnet::experiments::figures::figure3_defense();
    DiskVariantCache::open(dir.join("cache"))?
        .load(
            &defense,
            &SCALE.train_config(),
            SCALE.dataset_config().image_size,
            blurnet_data::NUM_CLASSES,
            seed,
        )?
        .ok_or_else(|| {
            format!(
                "the grid run left no {} model in its cache",
                defense.label()
            )
            .into()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet::scheduler::NodeProfile;

    fn node(start_ns: u64, duration_ns: u64, worker: usize) -> NodeProfile {
        NodeProfile {
            name: "cell:x/y".into(),
            start_ns,
            duration_ns,
            worker,
        }
    }

    #[test]
    fn single_worker_time_counts_only_lone_busy_stretches() {
        let profile = RunProfile {
            workers: 2,
            wall_ns: 10,
            nodes: vec![node(0, 4, 0), node(2, 6, 1), node(8, 2, 0)],
            cell_count: 3,
        };
        // [0,2) lone, [2,4) both, [4,8) lone, [8,10) lone.
        assert_eq!(single_worker_seconds(&profile), 8e-9);
        assert_eq!(
            single_worker_seconds(&RunProfile {
                workers: 1,
                ..profile
            }),
            0.0
        );
    }
}

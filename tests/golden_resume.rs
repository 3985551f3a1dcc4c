//! Golden resume tests: `--resume` must be **indistinguishable** from a
//! cold run. Every prior run is the journal of a journaled cold
//! micro-grid run, read back with `read_journal` — the only thing
//! `--resume` reads.
//!
//! * Resuming a fully completed run executes **zero** cells (the
//!   scheduler is never invoked) and re-emits the byte-identical
//!   `results.json`.
//! * Deleting one cell from the prior journal reruns **exactly** that
//!   cell, and the merged report is still byte-identical to the cold
//!   run's.
//! * A cached (`--cache-dir`) delta run changes nothing either: the
//!   disk cache is an accelerator, not a source of truth.
//! * Sweeps are not journaled: a delta of a Figure 5 series and the
//!   Table II row it shares a sweep with regenerates that one sweep and
//!   still merges to the cold bytes.

use std::path::PathBuf;

use blurnet::experiments::grid::ExperimentGrid;
use blurnet::journal::{read_journal, RecoveredJournal, JOURNAL_FILE};
use blurnet::{plan_resume, resume_run, CellStatus, ExperimentScheduler, Scale};

const SEED: u64 = 7;

fn scheduler() -> ExperimentScheduler {
    ExperimentScheduler::new(Scale::Smoke, SEED).threads(2)
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blurnet-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A journaled cold micro-grid run in `dir`: its `results.json` bytes
/// and the prior a `--resume dir` run reads back from `dir/run.journal`.
fn cold_run(dir: &std::path::Path) -> (RecoveredJournal, String) {
    cold_run_of(dir, &ExperimentGrid::micro())
}

/// [`cold_run`] of any grid.
fn cold_run_of(dir: &std::path::Path, grid: &ExperimentGrid) -> (RecoveredJournal, String) {
    let journal = dir.join(JOURNAL_FILE);
    let report = scheduler()
        .journal_path(&journal)
        .run(grid)
        .expect("cold grid")
        .report;
    let prior = read_journal(&journal).expect("the cold run's journal reads back");
    assert_eq!(prior.cells.len(), report.cells.len());
    (prior, report.to_json())
}

/// Removes grid cell `index` from the prior journal, as if the prior run
/// died before finishing it (the journal holds cells in completion
/// order, so cells are matched by identity).
fn forget(prior: &mut RecoveredJournal, grid: &ExperimentGrid, index: usize) {
    let spec = &grid.cells()[index];
    prior
        .cells
        .retain(|c| !(c.experiment == spec.experiment && c.label == spec.label));
}

#[test]
fn resuming_a_completed_run_executes_zero_cells() {
    let grid = ExperimentGrid::micro();
    let dir = scratch("zero");
    let (prior, cold_json) = cold_run(&dir);

    let journal = dir.join(JOURNAL_FILE);
    let resumed = resume_run(&scheduler(), &grid, &prior, &journal).expect("resume succeeds");
    assert_eq!(resumed.executed, 0, "a completed run has no delta");
    assert_eq!(resumed.replayed, grid.len());
    assert!(
        resumed.profile.is_none(),
        "zero delta means the scheduler never ran at all"
    );
    assert_eq!(
        resumed.report.to_json(),
        cold_json,
        "the resumed results.json must be byte-identical to the cold run"
    );
    // The resume re-seeded its own journal in place with every cell.
    let reseeded = read_journal(&journal).expect("re-seeded journal");
    assert_eq!(reseeded.cells.len(), grid.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deleted_cell_is_the_only_one_that_reruns() {
    let grid = ExperimentGrid::micro();
    let dir = scratch("deleted");
    let (mut prior, cold_json) = cold_run(&dir);
    forget(&mut prior, &grid, 1);

    let plan = plan_resume(&grid, &prior, &Scale::Smoke.to_string(), SEED).expect("plan");
    assert_eq!(plan.delta(), 1, "exactly the dropped cell is delta");
    assert_eq!(plan.replayed(), grid.len() - 1);

    let resumed =
        resume_run(&scheduler(), &grid, &prior, &dir.join(JOURNAL_FILE)).expect("resume succeeds");
    assert_eq!(resumed.executed, 1);
    assert_eq!(resumed.replayed, grid.len() - 1);
    assert_eq!(
        resumed.report.to_json(),
        cold_json,
        "rerunning the missing cell must reproduce the cold bytes exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_prior_cells_are_rescheduled_not_replayed() {
    let grid = ExperimentGrid::micro();
    let dir = scratch("failed");
    let (mut prior, cold_json) = cold_run(&dir);

    // A cell that failed last time must not replay its failure.
    let spec = &grid.cells()[0];
    let cell = prior
        .cells
        .iter_mut()
        .find(|c| c.experiment == spec.experiment && c.label == spec.label)
        .expect("journaled cell");
    cell.status = CellStatus::Failed {
        error: "previous run died here".into(),
    };
    cell.output = None;

    let resumed =
        resume_run(&scheduler(), &grid, &prior, &dir.join(JOURNAL_FILE)).expect("resume succeeds");
    assert_eq!(resumed.executed, 1, "the failed cell reruns");
    assert_eq!(resumed.report.cells[0].status, CellStatus::Ok);
    assert_eq!(resumed.report.to_json(), cold_json);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cached_delta_run_is_still_byte_identical() {
    let grid = ExperimentGrid::micro();
    let dir = scratch("cached");
    let (mut prior, cold_json) = cold_run(&dir);
    forget(&mut prior, &grid, grid.len() - 1);

    let cache = dir.join("cache");
    let journal = dir.join("resumed.journal");
    let resumed =
        resume_run(&scheduler().cache_dir(&cache), &grid, &prior, &journal).expect("resume");
    assert_eq!(resumed.executed, 1);
    assert_eq!(resumed.report.to_json(), cold_json);

    // Resume again over the now-warm cache: the delta cell loads its
    // model from disk instead of training — same bytes out.
    let warm =
        resume_run(&scheduler().cache_dir(&cache), &grid, &prior, &journal).expect("warm resume");
    assert_eq!(warm.executed, 1);
    assert_eq!(warm.report.to_json(), cold_json);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cells_sharing_a_sweep_resume_byte_identically() {
    // The micro grid plus the 5x5 depthwise Figure 5 series, which reads
    // the same standard-objective sweep node as that model's Table II row.
    let mut cells = ExperimentGrid::micro().cells().to_vec();
    let series = ExperimentGrid::named("figure5", Scale::Smoke)
        .expect("figure5 grid")
        .cells()
        .iter()
        .find(|c| c.label == cells[0].label)
        .expect("the micro grid's first Table II row has a Figure 5 series")
        .clone();
    cells.push(series);
    let grid = ExperimentGrid::custom(cells);
    let dir = scratch("shared-sweep");
    let (mut prior, cold_json) = cold_run_of(&dir, &grid);
    forget(&mut prior, &grid, 0);
    forget(&mut prior, &grid, grid.len() - 1);

    let resumed =
        resume_run(&scheduler(), &grid, &prior, &dir.join(JOURNAL_FILE)).expect("resume succeeds");
    assert_eq!(resumed.executed, 2);
    let profile = resumed.profile.expect("the delta ran");
    let sweeps: Vec<&str> = profile
        .nodes
        .iter()
        .map(|n| n.name.as_str())
        .filter(|n| n.starts_with("artifact:sweep/"))
        .collect();
    assert_eq!(
        sweeps.len(),
        1,
        "both pending cells read one sweep: {sweeps:?}"
    );
    assert_eq!(
        resumed.report.to_json(),
        cold_json,
        "the shared-sweep delta must reproduce the cold bytes exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

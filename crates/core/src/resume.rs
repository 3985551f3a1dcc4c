//! `--resume`: replay completed cells from a prior run's journal and
//! schedule only the delta.
//!
//! The prior run is whatever its `run.journal` recovered
//! ([`crate::journal::read_journal`]); `results.json` is an output that
//! nothing reads back, and a directory without a journal is not
//! resumable. A resumed run must be **indistinguishable** from a cold
//! run of the same grid: replayed cells are copied verbatim from the
//! journal, delta cells are re-executed through the ordinary
//! [`ExperimentScheduler`] (which regenerates — or loads from the disk
//! cache — every artifact the delta needs), and the merged report lists
//! cells in grid order exactly as a cold run would. Because every cell's
//! bytes are deterministic in (grid, scale, seed), the merged
//! `results.json` is **byte-identical** to the cold run's — pinned by
//! `tests/golden_resume.rs`.
//!
//! Only [`CellStatus::Ok`] cells replay; failed or skipped cells are
//! rescheduled, so `--resume` doubles as a retry of a partially failed
//! run. A prior journal whose schema, scale or seed disagrees with the
//! requested run is rejected outright — silently merging incompatible
//! results would fabricate a run that never happened.

use std::path::Path;
use std::sync::Arc;

use crate::experiments::grid::ExperimentGrid;
use crate::journal::{JournalHeader, JournalWriter, RecoveredJournal};
use crate::report::{CellStatus, RunReport, RESULTS_SCHEMA};
use crate::scheduler::{ExperimentScheduler, RunProfile};
use crate::{BlurNetError, Result};

/// Which grid cells replay from the prior journal and which must run.
#[derive(Debug)]
pub struct ResumePlan {
    /// For each grid cell (grid order): the index into the prior
    /// journal's cells to replay, or `None` if the cell must be executed.
    sources: Vec<Option<usize>>,
}

impl ResumePlan {
    /// Number of cells that replay from the prior journal.
    pub fn replayed(&self) -> usize {
        self.sources.iter().flatten().count()
    }

    /// Number of cells that must be (re-)executed.
    pub fn delta(&self) -> usize {
        self.sources.iter().filter(|s| s.is_none()).count()
    }
}

/// A finished resumed run.
#[derive(Debug)]
pub struct ResumedRun {
    /// The merged deterministic report (byte-identical to a cold run).
    pub report: RunReport,
    /// Cells copied verbatim from the prior journal.
    pub replayed: usize,
    /// Cells executed by the scheduler this run.
    pub executed: usize,
    /// The delta run's timing profile (`None` when nothing ran).
    pub profile: Option<RunProfile>,
}

/// Matches a prior journal against a grid: every grid cell whose
/// (experiment, label) appears in the journal with [`CellStatus::Ok`]
/// replays; everything else is delta. The status filter stays because
/// the journal is a file from outside the process.
///
/// # Errors
///
/// Returns [`BlurNetError::BadConfig`] when the journal header's schema,
/// scale or seed does not match the requested run.
pub fn plan_resume(
    grid: &ExperimentGrid,
    prior: &RecoveredJournal,
    scale: &str,
    seed: u64,
) -> Result<ResumePlan> {
    let header = &prior.header;
    if header.schema != RESULTS_SCHEMA {
        return Err(BlurNetError::BadConfig(format!(
            "cannot resume: prior journal schema '{}' does not match '{RESULTS_SCHEMA}'",
            header.schema
        )));
    }
    if header.scale != scale {
        return Err(BlurNetError::BadConfig(format!(
            "cannot resume: prior journal ran at scale '{}', this run is '{scale}'",
            header.scale
        )));
    }
    if header.seed != seed {
        return Err(BlurNetError::BadConfig(format!(
            "cannot resume: prior journal used seed {}, this run uses {seed}",
            header.seed
        )));
    }
    let sources = grid
        .cells()
        .iter()
        .map(|spec| {
            prior.cells.iter().position(|c| {
                c.experiment == spec.experiment
                    && c.label == spec.label
                    && c.status == CellStatus::Ok
            })
        })
        .collect();
    Ok(ResumePlan { sources })
}

/// Resumes `grid` from `prior`: replays every completed cell and runs
/// only the delta through `scheduler`. When the journal covers the whole
/// grid, **no node executes at all** — the scheduler is never invoked.
///
/// The resumed run journals itself at `journal_path` (which may be the
/// prior journal's own file): the header plus every replayed cell are
/// written as one atomic file before the delta starts, and the delta
/// appends its cells as they complete — so a crash *during the resume*
/// leaves a journal from which a second resume recovers everything, and
/// resumes chain arbitrarily deep.
///
/// # Errors
///
/// Returns [`BlurNetError::BadConfig`] for an incompatible prior journal,
/// [`crate::journal::JournalError::Io`] when the new journal cannot be written,
/// plus any structural scheduler error from the delta run.
pub fn resume_run(
    scheduler: &ExperimentScheduler,
    grid: &ExperimentGrid,
    prior: &RecoveredJournal,
    journal_path: &Path,
) -> Result<ResumedRun> {
    let plan = plan_resume(
        grid,
        prior,
        &scheduler.scale().to_string(),
        scheduler.seed(),
    )?;
    let replayed: Vec<_> = plan
        .sources
        .iter()
        .flatten()
        .map(|&i| prior.cells[i].clone())
        .collect();
    let journal = Arc::new(JournalWriter::seeded(
        journal_path,
        &JournalHeader {
            schema: RESULTS_SCHEMA.to_string(),
            scale: scheduler.scale().to_string(),
            seed: scheduler.seed(),
            cells: grid.len(),
        },
        &replayed,
    )?);
    let delta_specs: Vec<_> = grid
        .cells()
        .iter()
        .zip(&plan.sources)
        .filter(|(_, source)| source.is_none())
        .map(|(spec, _)| spec.clone())
        .collect();
    let delta_run = if delta_specs.is_empty() {
        None
    } else {
        let delta_grid = ExperimentGrid::custom(delta_specs);
        Some(scheduler.run_with_journal(&delta_grid, journal)?)
    };

    let mut replayed = replayed.into_iter();
    let mut delta_cells = delta_run
        .as_ref()
        .map(|run| run.report.cells.iter())
        .unwrap_or_default();
    let cells = plan
        .sources
        .iter()
        .map(|source| match source {
            Some(_) => replayed.next(),
            None => delta_cells.next().cloned(),
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| BlurNetError::BadConfig("delta run returned too few cells".into()))?;

    Ok(ResumedRun {
        report: RunReport {
            schema: RESULTS_SCHEMA.to_string(),
            scale: scheduler.scale().to_string(),
            seed: scheduler.seed(),
            cells,
        },
        replayed: plan.replayed(),
        executed: plan.delta(),
        profile: delta_run.map(|run| run.profile),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{read_journal, JournalError, JOURNAL_FILE};
    use crate::report::CellReport;
    use crate::Scale;

    fn fake_journal(
        scale: &str,
        seed: u64,
        labels: &[(&str, &str, CellStatus)],
    ) -> RecoveredJournal {
        RecoveredJournal {
            header: JournalHeader {
                schema: RESULTS_SCHEMA.to_string(),
                scale: scale.to_string(),
                seed,
                cells: labels.len(),
            },
            cells: labels
                .iter()
                .map(|(experiment, label, status)| CellReport {
                    experiment: experiment.to_string(),
                    label: label.to_string(),
                    status: status.clone(),
                    output: None,
                })
                .collect(),
            dropped_bytes: 0,
        }
    }

    #[test]
    fn mismatched_runs_are_rejected() {
        let grid = ExperimentGrid::micro();
        let scale = Scale::Smoke.to_string();
        let mut wrong_schema = fake_journal(&scale, 7, &[]);
        wrong_schema.header.schema = "blurnet-results/v999".to_string();
        assert!(plan_resume(&grid, &wrong_schema, &scale, 7).is_err());
        let wrong_scale = fake_journal("paper", 7, &[]);
        assert!(plan_resume(&grid, &wrong_scale, &scale, 7).is_err());
        let wrong_seed = fake_journal(&scale, 8, &[]);
        assert!(plan_resume(&grid, &wrong_seed, &scale, 7).is_err());
    }

    #[test]
    fn only_ok_cells_replay() {
        let grid = ExperimentGrid::micro();
        let scale = Scale::Smoke.to_string();
        let specs = grid.cells();
        // Prior journal: first cell Ok, second Failed, rest absent.
        let prior = fake_journal(
            &scale,
            7,
            &[
                (specs[0].experiment, &specs[0].label, CellStatus::Ok),
                (
                    specs[1].experiment,
                    &specs[1].label,
                    CellStatus::Failed {
                        error: "boom".into(),
                    },
                ),
            ],
        );
        let plan = plan_resume(&grid, &prior, &scale, 7).unwrap();
        assert_eq!(plan.replayed(), 1);
        assert_eq!(plan.delta(), grid.len() - 1);
    }

    #[test]
    fn a_directory_without_a_journal_is_a_typed_refusal() {
        let dir = std::env::temp_dir().join(format!("blurnet-journalless-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A report alone is an output, not a resume source.
        RunReport {
            schema: RESULTS_SCHEMA.to_string(),
            scale: Scale::Smoke.to_string(),
            seed: 7,
            cells: Vec::new(),
        }
        .write_json(&dir.join("results.json"))
        .unwrap();
        assert!(matches!(
            read_journal(&dir.join(JOURNAL_FILE)),
            Err(BlurNetError::Journal(JournalError::Io(_)))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_covered_grids_schedule_nothing() {
        let grid = ExperimentGrid::micro();
        let scale = Scale::Smoke.to_string();
        let entries: Vec<_> = grid
            .cells()
            .iter()
            .map(|s| (s.experiment, s.label.as_str(), CellStatus::Ok))
            .collect();
        let prior = fake_journal(&scale, 7, &entries);
        let plan = plan_resume(&grid, &prior, &scale, 7).unwrap();
        assert_eq!(plan.replayed(), grid.len());
        assert_eq!(plan.delta(), 0);
    }
}

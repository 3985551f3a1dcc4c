//! Golden paper-reproduction tests: the seeded micro-grid (2 defenses ×
//! 2 attacks) must produce **bit-identical** `results.json` through the
//! scheduler at 1 and 4 workers, and its accuracy/attack-success numbers
//! must match the checked-in golden values with exact `f32` comparison.
//!
//! Regenerate the golden file after an *intentional* numeric change with:
//!
//! ```bash
//! BLURNET_BLESS=1 cargo test --test golden_repro
//! ```
//!
//! The goldens are tied to the compute kernels' dispatch (AVX2/FMA on the
//! CI container class); a legitimate kernel change that alters float
//! accumulation order is exactly what this suite is meant to surface.

use std::path::PathBuf;

use blurnet::experiments::grid::ExperimentGrid;
use blurnet::{ExperimentScheduler, RunReport, Scale};

/// The micro-grid's seed (the shared experiment seed of `reproduce`).
const SEED: u64 = 7;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("micro_grid.json")
}

fn scheduler_report(workers: usize) -> RunReport {
    ExperimentScheduler::new(Scale::Smoke, SEED)
        .threads(workers)
        .run(&ExperimentGrid::micro())
        .expect("micro grid schedules")
        .report
}

#[test]
fn one_and_four_worker_micro_grids_are_bit_identical() {
    let one_worker = scheduler_report(1);
    let four_workers = scheduler_report(4);

    // Typed equality (exact f32 on every field) …
    assert_eq!(four_workers, one_worker, "4-worker vs 1-worker scheduler");
    // … and byte equality of the serialized results.json.
    assert_eq!(four_workers.to_json(), one_worker.to_json());
}

#[test]
fn micro_grid_matches_the_checked_in_golden_values() {
    let report = scheduler_report(1);
    let path = golden_path();

    if std::env::var_os("BLURNET_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        report.write_json(&path).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }

    let golden_json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run BLURNET_BLESS=1 cargo test --test golden_repro",
            path.display()
        )
    });
    let golden: RunReport = serde_json::from_str(&golden_json).expect("golden file parses");

    // Exact comparison, field by field: every f32 must round-trip
    // unchanged through the JSON encoding and equal the current run's
    // value bit-for-bit (PartialEq on f32 is exact equality).
    assert_eq!(
        report, golden,
        "micro-grid results drifted from the golden reproduction values"
    );
    // And the serialized bytes match, so the golden file IS the
    // results.json the run would emit.
    assert_eq!(report.to_json(), golden_json);
}

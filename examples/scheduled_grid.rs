//! Scheduled evaluation: run a grid of experiment cells concurrently
//! through one shared engine substrate and emit `results.json`.
//!
//! ```sh
//! cargo run --release --example scheduled_grid
//! ```
//!
//! The scheduler decomposes the grid into a DAG — one training node per
//! model variant, shared RP2 artifacts generated once, one node per
//! evaluation cell — and streams every ready cell over the persistent
//! rayon worker pool. The report it produces is bit-identical at every
//! worker count, so a 1-worker run is the reference.

use blurnet::experiments::grid::ExperimentGrid;
use blurnet::{CellStatus, ExperimentScheduler, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The golden micro-grid: 2 defenses × 2 attacks, seconds at smoke
    // scale. ExperimentGrid::full(scale) runs the whole paper instead.
    let grid = ExperimentGrid::micro();
    let scheduler = ExperimentScheduler::new(Scale::Smoke, 7).threads(2);
    let run = scheduler.run(&grid)?;

    for cell in &run.report.cells {
        let status = match &cell.status {
            CellStatus::Ok => "ok".to_string(),
            CellStatus::Failed { error } => format!("FAILED: {error}"),
            CellStatus::Skipped { reason } => format!("skipped: {reason}"),
        };
        println!("{}/{} — {status}", cell.experiment, cell.label);
    }
    println!(
        "{} cells in {:.1}s — {:.2} cells/s, pool utilization {:.0}% ({} workers)",
        run.profile.cell_count,
        run.profile.wall_ns as f64 / 1e9,
        run.profile.cells_per_sec(),
        run.profile.utilization() * 100.0,
        run.profile.workers
    );

    // The 1-worker reference run agrees bitwise.
    let reference = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)?;
    assert_eq!(run.report.to_json(), reference.report.to_json());
    println!("2-worker report is bit-identical to the 1-worker reference");

    run.report
        .write_json(std::path::Path::new("results.json"))?;
    println!("wrote results.json");
    Ok(())
}

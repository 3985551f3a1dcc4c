//! Compares the BlurNet defenses head-to-head under the white-box RP2
//! attacker: fixed feature-map blurring, L∞-regularized depthwise
//! filtering, TV and Tikhonov regularization (a miniature Table II).
//!
//! ```sh
//! cargo run --release --example defense_comparison
//! # or, for a longer and more faithful run:
//! BLURNET_SCALE=quick cargo run --release --example defense_comparison
//! ```

use blurnet::experiments::grid::{CellKind, CellSpec, ExperimentGrid};
use blurnet::experiments::paper_reference;
use blurnet::{ExperimentScheduler, Scale};
use blurnet_defenses::DefenseKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    println!("running at scale: {scale} (set BLURNET_SCALE=quick for a fuller run)");

    let defenses = [
        DefenseKind::Baseline,
        DefenseKind::DepthwiseLinf {
            kernel: 5,
            alpha: 0.1,
        },
        DefenseKind::TotalVariation { alpha: 1e-4 },
        DefenseKind::TikhonovHf {
            alpha: 1e-4,
            window: 3,
        },
        DefenseKind::TikhonovPseudo { alpha: 1e-6 },
    ];
    // One Table II cell per defense; the scheduler trains the five
    // variants and attacks them concurrently.
    let grid = ExperimentGrid::custom(
        defenses
            .into_iter()
            .map(|defense| CellSpec {
                experiment: "table2",
                label: defense.label(),
                kind: CellKind::Table2(defense),
            })
            .collect(),
    );
    let report = ExperimentScheduler::new(scale, 7).run(&grid)?.report;

    for table in report.experiment_tables("table2") {
        println!("{table}");
    }
    if let Some(paper) = paper_reference("table2") {
        println!("{paper}");
    }
    Ok(())
}

//! Table III — adaptive attacks per defense.
//!
//! Each BlurNet defense is re-attacked by an adversary that knows the
//! defense: the depthwise-filter models face the low-frequency DCT attack
//! (Eq. 8), the regularized models face RP2 with the defender's own
//! feature-map penalty added to the attacker's loss (Eq. 9–11). The paper's
//! headline: `Tik_hf` loses ~30% of its apparent robustness while TV (1e-4)
//! degrades by only 2.5%, making TV the truly robust defense.

use blurnet_attacks::TargetSweep;
use blurnet_defenses::DefendedModel;
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::report::{num3, pct};

/// One row of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Defense label.
    defense: String,
    /// Adaptive-attack success rate averaged over targets.
    pub average_success_rate: f32,
    /// Worst-case adaptive success rate over targets.
    pub worst_success_rate: f32,
    /// Mean relative L2 dissimilarity.
    l2_dissimilarity: f32,
}

/// The reproduced Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Table3 {
    /// Rows in the paper's order.
    pub(crate) rows: Vec<Table3Row>,
}

impl Table3 {
    /// Renders the result as a printable table.
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new(
            "Table III — adaptive attack evaluation",
            &[
                "Defense",
                "Average Success Rate",
                "Worst Success Rate",
                "L2 Dissimilarity",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.defense.clone(),
                pct(row.average_success_rate),
                pct(row.worst_success_rate),
                num3(row.l2_dissimilarity),
            ]);
        }
        table
    }

    /// The paper's values for side-by-side comparison.
    pub(crate) fn paper_reference() -> Table {
        let mut table = Table::new(
            "Table III (paper)",
            &["Defense", "Avg SR", "Worst SR", "L2"],
        );
        for (d, avg, worst, l2) in [
            ("3x3 conv", "22.91%", "52.5%", "0.546"),
            ("5x5 conv", "46.25%", "75%", "0.539"),
            ("7x7 conv", "10.42%", "20%", "0.539"),
            ("TV (1e-4)", "8.33%", "20%", "0.044"),
            ("TV (1e-5)", "6.11%", "25%", "0.046"),
            ("Tik_hf", "23.6%", "47.5%", "0.147"),
            ("Tik_pseudo", "17.5%", "45%", "0.141"),
        ] {
            table.push_row(vec![
                d.to_string(),
                avg.to_string(),
                worst.to_string(),
                l2.to_string(),
            ]);
        }
        table
    }
}

/// The per-cell view of a Table III row: the model's sweep under its
/// defense-matched adaptive attack ([`super::SweepObjective::adaptive_for`]).
pub(crate) fn row_from_sweep(model: &DefendedModel, sweep: &TargetSweep) -> Table3Row {
    Table3Row {
        defense: model.defense().label(),
        average_success_rate: sweep.average_success_rate(),
        worst_success_rate: sweep.worst_success_rate(),
        l2_dissimilarity: sweep.average_l2_dissimilarity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::grid::CellKind;
    use crate::experiments::{only_output, run_smoke_cells};
    use crate::{CellOutput, Scale};
    use blurnet_defenses::DefenseKind;

    #[test]
    fn paper_reference_has_seven_rows() {
        assert_eq!(Table3::paper_reference().rows.len(), 7);
    }

    #[test]
    fn adaptive_row_for_tv_defense_runs_at_smoke_scale() {
        let report = run_smoke_cells(
            13,
            vec![CellKind::Table3(DefenseKind::TotalVariation {
                alpha: 1e-4,
            })],
        );
        let CellOutput::Table3(row) = only_output(report) else {
            panic!("not a Table III row");
        };
        assert!(row.defense.starts_with("TV"));
        assert!((0.0..=1.0).contains(&row.average_success_rate));
        assert!(row.worst_success_rate >= row.average_success_rate);
    }

    #[test]
    fn roster_covers_the_blurnet_defenses() {
        let roster = super::super::blurnet_defenses(Scale::Smoke);
        assert_eq!(roster.len(), 7);
    }
}

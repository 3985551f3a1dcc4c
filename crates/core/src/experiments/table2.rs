//! Table II — white-box evaluation of every defense.
//!
//! Each defended model is trained from scratch and attacked white-box with
//! RP2, sweeping the attack target over the non-stop classes. The paper
//! reports the legitimate (clean test) accuracy, the success rate averaged
//! over targets, the worst-case target and the L2 dissimilarity.

use blurnet_attacks::TargetSweep;
use blurnet_defenses::DefendedModel;
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::report::{num3, pct};

/// One row of Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Defense label (paper row name).
    pub defense: String,
    /// Clean test accuracy through the defended prediction path.
    pub legitimate_accuracy: f32,
    /// Targeted success rate averaged over the swept targets.
    pub average_success_rate: f32,
    /// Worst-case (maximum) targeted success rate over targets.
    pub worst_success_rate: f32,
    /// Mean relative L2 dissimilarity of the adversarial examples.
    pub l2_dissimilarity: f32,
}

/// The reproduced Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Table2 {
    /// Rows in the paper's order.
    pub(crate) rows: Vec<Table2Row>,
}

impl Table2 {
    /// Renders the result as a printable table.
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new(
            "Table II — white-box evaluation (RP2, swept over targets)",
            &[
                "Defense",
                "Legitimate Acc.",
                "Average Success Rate",
                "Worst Success Rate",
                "L2 Dissimilarity",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.defense.clone(),
                pct(row.legitimate_accuracy),
                pct(row.average_success_rate),
                pct(row.worst_success_rate),
                num3(row.l2_dissimilarity),
            ]);
        }
        table
    }

    /// Key rows from the paper for side-by-side comparison.
    pub(crate) fn paper_reference() -> Table {
        let mut table = Table::new(
            "Table II (paper, selected rows)",
            &["Defense", "Legit Acc.", "Avg SR", "Worst SR", "L2"],
        );
        for (d, a, avg, worst, l2) in [
            ("Baseline", "91%", "49.18%", "90%", "0.207"),
            (
                "Gaussian aug (sigma=0.1)",
                "84.3%",
                "19.44%",
                "62.5%",
                "0.238",
            ),
            ("Adv-train", "77.9%", "11.94%", "20%", "0.244"),
            ("3x3 conv", "86.3%", "30%", "55%", "0.201"),
            ("5x5 conv", "86.3%", "24.11%", "47.5%", "0.189"),
            ("7x7 conv", "87%", "11.61%", "30%", "0.203"),
            ("TV (1e-4)", "85.6%", "7.92%", "17.5%", "0.224"),
            ("TV (1e-5)", "82.3%", "8.47%", "30%", "0.199"),
            ("Tik_hf (1e-4)", "84.5%", "5.42%", "10%", "0.214"),
            ("Tik_pseudo (1e-6)", "83.6%", "13.9%", "35%", "0.222"),
        ] {
            table.push_row(vec![
                d.to_string(),
                a.to_string(),
                avg.to_string(),
                worst.to_string(),
                l2.to_string(),
            ]);
        }
        table
    }
}

/// The per-cell view of a Table II row: the model's white-box RP2 sweep
/// (the standard objective), read off beside its clean accuracy.
pub(crate) fn row_from_sweep(model: &DefendedModel, sweep: &TargetSweep) -> Table2Row {
    Table2Row {
        defense: model.defense().label(),
        legitimate_accuracy: model.training_report().test_accuracy,
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
    fn paper_reference_contains_the_headline_rows() {
        let reference = Table2::paper_reference();
        let rendered = reference.to_string();
        assert!(rendered.contains("Baseline"));
        assert!(rendered.contains("TV (1e-4)"));
        assert!(rendered.contains("Tik_hf"));
    }

    #[test]
    fn single_defense_row_is_well_formed_at_smoke_scale() {
        let report = run_smoke_cells(11, vec![CellKind::Table2(DefenseKind::Baseline)]);
        let CellOutput::Table2(row) = only_output(report) else {
            panic!("not a Table II row");
        };
        assert_eq!(row.defense, "Baseline");
        assert!((0.0..=1.0).contains(&row.legitimate_accuracy));
        assert!((0.0..=1.0).contains(&row.average_success_rate));
        assert!(row.worst_success_rate >= row.average_success_rate);
        assert!(row.l2_dissimilarity >= 0.0);
    }

    #[test]
    fn roster_matches_the_paper_row_count() {
        // 1 baseline + 3 Gaussian + 3 smoothing + adv-train + 3 depthwise +
        // 2 TV + Tik_hf + Tik_pseudo = 15 rows, as in the paper.
        assert_eq!(super::super::table2_defenses(Scale::Smoke).len(), 15);
    }
}

//! Table V (supplementary) — adversarial training against the adaptive
//! attacks.
//!
//! The PGD-adversarially-trained model is attacked with the same adaptive
//! objectives used in Table III. The paper's take-away: adversarial
//! training beats every BlurNet defense except TV regularization under the
//! RP2 threat model, reinforcing that no defense is universal.

use blurnet_attacks::TargetSweep;
use blurnet_defenses::DefenseKind;
use serde::{Deserialize, Serialize};

use super::SweepObjective;
use crate::report::Table;
use crate::report::{num3, pct};
use crate::Scale;

/// The three adaptive adversaries Table V turns against the
/// adversarially-trained model, as declarative cell parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Table5Attack {
    /// RP2 with the TV feature penalty in the attacker's loss (Eq. 9).
    TotalVariation,
    /// RP2 with the high-frequency Tikhonov operator penalty (Eq. 10).
    TikhonovHf,
    /// RP2 with the pseudo-difference Tikhonov operator penalty (Eq. 11).
    TikhonovPseudo,
}

impl Table5Attack {
    /// The attacks in the paper's row order.
    pub(crate) fn roster() -> Vec<Table5Attack> {
        vec![
            Table5Attack::TotalVariation,
            Table5Attack::TikhonovHf,
            Table5Attack::TikhonovPseudo,
        ]
    }

    /// The paper's row label for this attack.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Table5Attack::TotalVariation => "TV adaptive attack",
            Table5Attack::TikhonovHf => "Tik_hf attack",
            Table5Attack::TikhonovPseudo => "Tik_pseudo attack",
        }
    }

    /// The sweep objective this attack runs: the Table III attacker of the
    /// matching regularized defense.
    pub(crate) fn sweep_objective(&self) -> SweepObjective {
        match self {
            Table5Attack::TotalVariation => SweepObjective::TotalVariation,
            Table5Attack::TikhonovHf => SweepObjective::TikhonovHf { window: 3 },
            Table5Attack::TikhonovPseudo => SweepObjective::TikhonovPseudo,
        }
    }
}

/// The adversarially-trained defense Table V evaluates, at `scale`.
pub(crate) fn defense_for(scale: Scale) -> DefenseKind {
    DefenseKind::AdversarialTraining {
        epsilon: 8.0 / 255.0,
        step_size: 0.1,
        steps: scale.adv_train_steps(),
    }
}

/// The per-cell view of a Table V row: the adversarially-trained model's
/// sweep under one adaptive adversary.
pub(crate) fn row_from_sweep(attack: Table5Attack, sweep: &TargetSweep) -> Table5Row {
    Table5Row {
        attack: attack.label().to_string(),
        average_success_rate: sweep.average_success_rate(),
        worst_success_rate: sweep.worst_success_rate(),
        l2_dissimilarity: sweep.average_l2_dissimilarity(),
    }
}

/// One row of Table V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5Row {
    /// Attack label (which adaptive objective was used).
    pub attack: String,
    /// Success rate averaged over targets.
    average_success_rate: f32,
    /// Worst-case success rate over targets.
    worst_success_rate: f32,
    /// Mean relative L2 dissimilarity.
    l2_dissimilarity: f32,
}

/// The reproduced Table V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Table5 {
    /// Rows in the paper's order.
    pub(crate) rows: Vec<Table5Row>,
}

impl Table5 {
    /// Renders the result as a printable table.
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new(
            "Table V — adversarial training vs adaptive adversaries",
            &[
                "Attack",
                "Average Success Rate",
                "Worst Success Rate",
                "L2 Dissimilarity",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.attack.clone(),
                pct(row.average_success_rate),
                pct(row.worst_success_rate),
                num3(row.l2_dissimilarity),
            ]);
        }
        table
    }

    /// The paper's values for side-by-side comparison.
    pub(crate) fn paper_reference() -> Table {
        let mut table = Table::new("Table V (paper)", &["Attack", "Avg SR", "Worst SR", "L2"]);
        for (a, avg, worst, l2) in [
            ("TV adaptive attack", "5.85%", "27.5%", "0.046"),
            ("Tik_hf attack", "17.6%", "18%", "0.148"),
            ("Tik_pseudo attack", "15%", "17.5%", "0.150"),
        ] {
            table.push_row(vec![
                a.to_string(),
                avg.to_string(),
                worst.to_string(),
                l2.to_string(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_has_three_attacks() {
        let reference = Table5::paper_reference();
        assert_eq!(reference.rows.len(), 3);
        assert!(reference.to_string().contains("TV adaptive attack"));
    }
}

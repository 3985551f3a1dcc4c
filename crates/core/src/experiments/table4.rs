//! Table IV (supplementary) — PGD breaks every defense.
//!
//! Under the standard ε-bounded pixel adversary (ε = 8/255, α = 0.01, 10
//! steps) all BlurNet defenses fail: the perturbation is no longer a
//! localized sticker, so smoothing the feature maps cannot remove it. The
//! paper uses this to argue that defenses must be tailored to a threat
//! model.

use blurnet_attacks::PgdAttack;
use blurnet_data::STOP_CLASS_ID;
use blurnet_defenses::DefendedModel;
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::report::{num3, pct};
use crate::{Result, Scale};

/// One row of Table IV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Defense label.
    defense: String,
    /// PGD (untargeted) attack success rate.
    attack_success_rate: f32,
    /// Mean relative L2 dissimilarity of the PGD examples.
    l2_dissimilarity: f32,
}

/// The reproduced Table IV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Table4 {
    /// Rows in the paper's order.
    pub(crate) rows: Vec<Table4Row>,
}

impl Table4 {
    /// Renders the result as a printable table.
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new(
            "Table IV — PGD evaluation (epsilon = 8/255)",
            &["Defense", "Attack Success Rate", "L2 Dissimilarity"],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.defense.clone(),
                pct(row.attack_success_rate),
                num3(row.l2_dissimilarity),
            ]);
        }
        table
    }

    /// The paper's values for side-by-side comparison.
    pub(crate) fn paper_reference() -> Table {
        let mut table = Table::new("Table IV (paper)", &["Defense", "ASR", "L2"]);
        for (d, s, l2) in [
            ("Baseline", "100%", "0.53"),
            ("3x3 conv", "100%", "0.512"),
            ("5x5 conv", "100%", "0.502"),
            ("7x7 conv", "100%", "0.511"),
            ("TV (1e-4)", "100%", "0.455"),
            ("TV (1e-5)", "100%", "0.437"),
            ("Tik_hf", "100%", "0.464"),
            ("Tik_pseudo", "100%", "0.443"),
        ] {
            table.push_row(vec![d.to_string(), s.to_string(), l2.to_string()]);
        }
        table
    }
}

/// The per-cell evaluation of a Table IV row: the ε-bounded PGD adversary
/// against an already-trained model.
///
/// # Errors
///
/// Propagates attack errors.
pub(crate) fn row_for_model(
    scale: Scale,
    model: &DefendedModel,
    images: &[Tensor],
) -> Result<Table4Row> {
    let labels = vec![STOP_CLASS_ID; images.len()];
    let attack = PgdAttack::new(scale.pgd_config())?;
    let defense = model.defense().label();
    let eval = attack.evaluate(model.network(), images, &labels)?;
    Ok(Table4Row {
        defense,
        attack_success_rate: eval.success_rate,
        l2_dissimilarity: eval.l2_dissimilarity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::grid::CellKind;
    use crate::experiments::{only_output, run_smoke_cells};
    use crate::CellOutput;
    use blurnet_defenses::DefenseKind;

    #[test]
    fn paper_reference_reports_total_break() {
        let reference = Table4::paper_reference();
        assert_eq!(reference.rows.len(), 8);
        assert!(reference.to_string().matches("100%").count() >= 8);
    }

    #[test]
    fn pgd_row_runs_at_smoke_scale() {
        let report = run_smoke_cells(17, vec![CellKind::Table4(DefenseKind::Baseline)]);
        let CellOutput::Table4(row) = only_output(report) else {
            panic!("not a Table IV row");
        };
        assert!((0.0..=1.0).contains(&row.attack_success_rate));
        assert!(row.l2_dissimilarity >= 0.0);
    }
}

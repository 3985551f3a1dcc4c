//! Table I — black-box transfer: filtering the input vs filtering the
//! first-layer feature maps.
//!
//! Adversarial stop signs are generated with RP2 on the undefended
//! baseline (λ = 0.002) and transferred to victims that share the
//! baseline's weights but add a blur filter either at the input or on the
//! first-layer feature maps. The paper's finding: feature-map filtering
//! (especially 5×5) cuts the transfer success rate far more than input
//! filtering at the same kernel size, at a modest accuracy cost.

use blurnet_attacks::{Rp2Attack, TransferSet};
use blurnet_data::STOP_CLASS_ID;
use blurnet_defenses::{DefendedModel, DefenseKind};
use blurnet_nn::DepthwiseConv2d;
use blurnet_nn::FilterLayer;
use blurnet_signal::box_kernel;
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::report::pct;
use crate::report::Table;
use crate::{Result, Scale};

/// Target class used when generating the transferred examples
/// (speedLimit25 — an arbitrary non-stop class, as in the RP2 setup).
pub(crate) const TRANSFER_TARGET: usize = 12;

/// The five victims of Table I, as declarative cell parameters: every row
/// of the table is "evaluate the shared transfer set against this victim".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Table1Victim {
    /// The undefended surrogate itself.
    Baseline,
    /// The baseline behind an input-space blur of the given kernel size.
    InputFilter {
        /// Blur kernel size.
        kernel: usize,
    },
    /// The baseline with a frozen blur inserted on the first-layer feature
    /// maps.
    FeatureFilter {
        /// Blur kernel size.
        kernel: usize,
    },
}

impl Table1Victim {
    /// The victims in the paper's row order.
    pub(crate) fn roster() -> Vec<Table1Victim> {
        vec![
            Table1Victim::Baseline,
            Table1Victim::InputFilter { kernel: 3 },
            Table1Victim::InputFilter { kernel: 5 },
            Table1Victim::FeatureFilter { kernel: 3 },
            Table1Victim::FeatureFilter { kernel: 5 },
        ]
    }

    /// The paper's row label for this victim.
    pub fn label(&self) -> String {
        match self {
            Table1Victim::Baseline => "Baseline".to_string(),
            Table1Victim::InputFilter { kernel } => format!("Input filter {kernel}x{kernel}"),
            Table1Victim::FeatureFilter { kernel } => {
                format!("{kernel}x{kernel} filter on L1 maps")
            }
        }
    }
}

/// Generates the shared Table I transfer artifact: RP2 on the undefended
/// baseline over the stop-sign evaluation images, at the paper's transfer
/// target. Generation is deterministic, so every caller producing this
/// artifact from the same baseline and images gets bit-identical examples.
///
/// # Errors
///
/// Propagates attack-generation errors.
pub(crate) fn transfer_set(
    scale: Scale,
    baseline: &DefendedModel,
    images: &[Tensor],
) -> Result<TransferSet> {
    let attack = Rp2Attack::new(scale.rp2_config())?;
    let labels = vec![STOP_CLASS_ID; images.len()];
    Ok(TransferSet::generate(
        baseline.network(),
        &attack,
        images,
        &labels,
        TRANSFER_TARGET,
    )?)
}

/// Evaluates the shared transfer artifact against one victim — the work of
/// a single Table I cell. Every victim shares the baseline's weights, with
/// no retraining (exactly the Table I setting): the baseline victim is
/// `baseline` itself, and the filter victims are built over its weights.
///
/// # Errors
///
/// Propagates layer-construction and evaluation errors.
pub(crate) fn victim_row(
    victim: &Table1Victim,
    baseline: &DefendedModel,
    set: &TransferSet,
) -> Result<Table1Row> {
    let filtered;
    let model = match victim {
        Table1Victim::Baseline => baseline,
        Table1Victim::InputFilter { kernel } => {
            filtered = input_filter_victim(baseline, *kernel);
            &filtered
        }
        Table1Victim::FeatureFilter { kernel } => {
            filtered = feature_filter_victim(baseline, *kernel)?;
            &filtered
        }
    };
    let engine = model.network().batch_engine()?;
    let labels = |images: &[Tensor]| -> Result<Vec<usize>> {
        let preds = model.classify(&engine, &Tensor::stack(images)?)?;
        Ok(preds.into_iter().map(|(label, _)| label).collect())
    };
    let report = set.evaluate(&labels(&set.clean)?, &labels(&set.adversarial)?)?;
    Ok(Table1Row {
        defense: victim.label(),
        accuracy: report.clean_accuracy,
        attack_success_rate: report.attack_success_rate,
    })
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Victim label (baseline / input filter / feature-map filter).
    pub defense: String,
    /// Victim accuracy on the clean stop-sign evaluation images.
    accuracy: f32,
    /// Fraction of victim predictions the transferred examples changed.
    pub attack_success_rate: f32,
}

/// The reproduced Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Table1 {
    /// Rows in the paper's order.
    pub(crate) rows: Vec<Table1Row>,
}

impl Table1 {
    /// Renders the result as a printable table.
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new(
            "Table I — black-box transfer (RP2 generated on the baseline)",
            &["Defense", "Accuracy", "Attack Success Rate"],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.defense.clone(),
                pct(row.accuracy),
                pct(row.attack_success_rate),
            ]);
        }
        table
    }

    /// The values reported in the paper, for side-by-side comparison.
    pub(crate) fn paper_reference() -> Table {
        let mut table = Table::new(
            "Table I (paper)",
            &["Defense", "Accuracy", "Attack Success Rate"],
        );
        for (d, a, s) in [
            ("Baseline", "100%", "90%"),
            ("Input filter 3x3", "100%", "87.5%"),
            ("Input filter 5x5", "100%", "67.5%"),
            ("3x3 filter on L1 maps", "100%", "65%"),
            ("5x5 filter on L1 maps", "87.5%", "17.5%"),
        ] {
            table.push_row(vec![d.to_string(), a.to_string(), s.to_string()]);
        }
        table
    }
}

/// Builds a feature-map-filter victim sharing the baseline's weights: the
/// trained network with a frozen blur layer inserted after conv1, without
/// retraining (exactly the Table I setting).
fn feature_filter_victim(baseline: &DefendedModel, kernel: usize) -> Result<DefendedModel> {
    let mut net = baseline.network().clone();
    let blur = box_kernel(kernel);
    let channels = baseline.arch().conv1_filters;
    net.insert(1, DepthwiseConv2d::fixed_kernel(channels, &blur)?);
    let mut arch = baseline.arch().clone();
    arch.filter_layer = FilterLayer::FixedBlur { kernel: blur };
    Ok(DefendedModel::new(
        net,
        DefenseKind::FeatureFilter { kernel },
        arch,
        baseline.training_report().clone(),
    ))
}

/// Builds an input-filter victim sharing the baseline's weights.
fn input_filter_victim(baseline: &DefendedModel, kernel: usize) -> DefendedModel {
    DefendedModel::new(
        baseline.network().clone(),
        DefenseKind::InputFilter { kernel },
        baseline.arch().clone(),
        baseline.training_report().clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::grid::ExperimentGrid;
    use crate::{CellOutput, ExperimentScheduler, ModelZoo};
    use blurnet_nn::persist::sequential_to_bytes;

    #[test]
    fn paper_reference_has_five_rows() {
        assert_eq!(Table1::paper_reference().rows.len(), 5);
    }

    #[test]
    fn victims_share_weights_with_the_baseline() {
        let mut zoo = ModelZoo::new(Scale::Smoke, 9).unwrap();
        let baseline = zoo.get_or_train_shared(&DefenseKind::Baseline).unwrap();
        let input = input_filter_victim(&baseline, 3);
        assert_eq!(
            sequential_to_bytes(input.network()),
            sequential_to_bytes(baseline.network())
        );
        let feature = feature_filter_victim(&baseline, 5).unwrap();
        assert_eq!(feature.network().len(), baseline.network().len() + 1);
        assert_eq!(feature.arch().filter_layer_index(), Some(1));
    }

    #[test]
    fn smoke_run_produces_all_rows() {
        let grid = ExperimentGrid::named("table1", Scale::Smoke).unwrap();
        let report = ExperimentScheduler::new(Scale::Smoke, 9)
            .threads(1)
            .run(&grid)
            .unwrap()
            .report;
        assert!(report.all_ok());
        assert_eq!(report.cells.len(), 5);
        for cell in &report.cells {
            let Some(CellOutput::Table1(row)) = &cell.output else {
                panic!("{} is not a Table I row", cell.label);
            };
            assert!((0.0..=1.0).contains(&row.accuracy));
            assert!((0.0..=1.0).contains(&row.attack_success_rate));
        }
        let rendered = report.experiment_tables("table1")[0].to_string();
        assert!(rendered.contains("5x5 filter on L1 maps"));
    }
}

//! Reproductions of every table and figure in the paper's evaluation.
//!
//! Each submodule exposes per-cell functions (`row_for_model`,
//! `victim_row`, `*_from_parts`, `*_for_model`) that evaluate one table
//! row or figure analysis against an already-trained model, plus the typed
//! result structs a [`crate::RunReport`] collates and renders as
//! [`crate::Table`]s. [`grid`] declares the cells; the
//! [`crate::ExperimentScheduler`] runs them (`reproduce --grid` is its
//! CLI) and `reproduce` prints [`paper_reference`] under each measured
//! table.

pub mod figures;
pub mod grid;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use blurnet_attacks::rp2::TargetSweep;
use blurnet_attacks::{AdaptiveObjective, FeaturePenaltyKind, Rp2Attack, Rp2Config};
use blurnet_defenses::{DefendedModel, DefenseKind};
use blurnet_signal::OperatorPenalty;
use blurnet_tensor::Tensor;

use crate::{BatchRunner, Result, Scale, Table};

/// The stop-sign images every experiment attacks at the given scale.
pub(crate) fn attack_images_for(dataset: &blurnet_data::SignDataset, scale: Scale) -> Vec<Tensor> {
    dataset
        .stop_eval_images()
        .iter()
        .take(scale.attack_image_count())
        .cloned()
        .collect()
}

/// Runs `kinds` as one grid through a 1-worker scheduler at smoke scale —
/// the unit tests' way to execute cells.
#[cfg(test)]
pub(crate) fn run_smoke_cells(seed: u64, kinds: Vec<grid::CellKind>) -> crate::RunReport {
    let cells = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| grid::CellSpec {
            experiment: "test",
            label: i.to_string(),
            kind,
        })
        .collect();
    crate::ExperimentScheduler::new(Scale::Smoke, seed)
        .threads(1)
        .run(&grid::ExperimentGrid::custom(cells))
        .expect("scheduler run")
        .report
}

/// The output of a report's only cell, which must have completed.
#[cfg(test)]
pub(crate) fn only_output(report: crate::RunReport) -> crate::CellOutput {
    let [cell] = <[crate::CellReport; 1]>::try_from(report.cells).expect("one cell");
    assert_eq!(cell.status, crate::CellStatus::Ok);
    cell.output.expect("an ok cell carries its output")
}

/// The paper's reported values for a table experiment (`"table1"` …
/// `"table5"`); `None` for the figures, which the paper plots rather than
/// tabulates.
pub fn paper_reference(experiment: &str) -> Option<Table> {
    match experiment {
        "table1" => Some(table1::Table1::paper_reference()),
        "table2" => Some(table2::Table2::paper_reference()),
        "table3" => Some(table3::Table3::paper_reference()),
        "table4" => Some(table4::Table4::paper_reference()),
        "table5" => Some(table5::Table5::paper_reference()),
        _ => None,
    }
}

/// Runs a targeted RP2 sweep against a defended model, generating the
/// adversarial examples white-box on the underlying network but judging
/// success through the model's *defended* prediction path (input filters
/// and randomized smoothing included). Delegates to
/// [`BatchRunner::rp2_sweep`], so every sweep-based experiment (Tables II
/// and III, Figures 3 and 5) classifies through the batch-parallel engine.
pub(crate) fn sweep_defended(
    model: &mut DefendedModel,
    attack: &Rp2Attack,
    images: &[Tensor],
    targets: &[usize],
) -> Result<TargetSweep> {
    BatchRunner::new(model).rp2_sweep(attack, images, targets)
}

/// Builds the adaptive RP2 objective matching a defense (Section V).
///
/// Depthwise-filter defenses get the low-frequency DCT attack; the
/// regularized defenses get their own penalty added to the attacker's
/// loss. Defenses without a dedicated adaptive attack fall back to the
/// standard objective.
pub(crate) fn adaptive_objective_for(
    defense: &DefenseKind,
    model: &DefendedModel,
    dct_dim: usize,
) -> Result<AdaptiveObjective> {
    let feature_layer = model.feature_layer_index();
    let extent = model.feature_map_extent();
    Ok(match defense {
        DefenseKind::DepthwiseLinf { .. } | DefenseKind::FeatureFilter { .. } => {
            AdaptiveObjective::LowFrequencyDct { dim: dct_dim }
        }
        DefenseKind::TotalVariation { .. } => AdaptiveObjective::FeaturePenalty {
            layer_index: feature_layer,
            kind: FeaturePenaltyKind::TotalVariation,
            weight: 1.0,
        },
        DefenseKind::TikhonovHf { window, .. } => AdaptiveObjective::FeaturePenalty {
            layer_index: feature_layer,
            kind: FeaturePenaltyKind::Operator(OperatorPenalty::high_frequency(extent, *window)?),
            weight: 1.0,
        },
        DefenseKind::TikhonovPseudo { .. } => AdaptiveObjective::FeaturePenalty {
            layer_index: feature_layer,
            kind: FeaturePenaltyKind::Operator(OperatorPenalty::pseudo_difference(extent, 1e-3)?),
            weight: 1.0,
        },
        _ => AdaptiveObjective::Standard,
    })
}

/// Builds the RP2 attack for a scale with the given objective.
pub(crate) fn rp2_with_objective(scale: Scale, objective: AdaptiveObjective) -> Result<Rp2Attack> {
    Ok(Rp2Attack::new(Rp2Config {
        objective,
        ..scale.rp2_config()
    })?)
}

/// The Table II defense roster (in the paper's row order).
pub(crate) fn table2_defenses(scale: Scale) -> Vec<DefenseKind> {
    let samples = scale.smoothing_samples();
    let adv_steps = scale.adv_train_steps();
    vec![
        DefenseKind::Baseline,
        DefenseKind::GaussianAugmentation { sigma: 0.1 },
        DefenseKind::GaussianAugmentation { sigma: 0.2 },
        DefenseKind::GaussianAugmentation { sigma: 0.3 },
        DefenseKind::RandomizedSmoothing {
            sigma: 0.1,
            samples,
        },
        DefenseKind::RandomizedSmoothing {
            sigma: 0.2,
            samples,
        },
        DefenseKind::RandomizedSmoothing {
            sigma: 0.3,
            samples,
        },
        DefenseKind::AdversarialTraining {
            epsilon: 8.0 / 255.0,
            step_size: 0.1,
            steps: adv_steps,
        },
        DefenseKind::DepthwiseLinf {
            kernel: 3,
            alpha: 1e-5,
        },
        DefenseKind::DepthwiseLinf {
            kernel: 5,
            alpha: 0.1,
        },
        DefenseKind::DepthwiseLinf {
            kernel: 7,
            alpha: 0.1,
        },
        DefenseKind::TotalVariation { alpha: 1e-4 },
        DefenseKind::TotalVariation { alpha: 1e-5 },
        DefenseKind::TikhonovHf {
            alpha: 1e-4,
            window: 3,
        },
        DefenseKind::TikhonovPseudo { alpha: 1e-6 },
    ]
}

/// The defenses evaluated by the adaptive and PGD tables (Tables III and
/// IV): the BlurNet defenses proper.
pub(crate) fn blurnet_defenses(_scale: Scale) -> Vec<DefenseKind> {
    vec![
        DefenseKind::DepthwiseLinf {
            kernel: 3,
            alpha: 1e-5,
        },
        DefenseKind::DepthwiseLinf {
            kernel: 5,
            alpha: 0.1,
        },
        DefenseKind::DepthwiseLinf {
            kernel: 7,
            alpha: 0.1,
        },
        DefenseKind::TotalVariation { alpha: 1e-4 },
        DefenseKind::TotalVariation { alpha: 1e-5 },
        DefenseKind::TikhonovHf {
            alpha: 1e-4,
            window: 3,
        },
        DefenseKind::TikhonovPseudo { alpha: 1e-6 },
    ]
}

/// Default DCT mask dimension of the low-frequency adaptive attack
/// (16 in the paper).
pub(crate) const DEFAULT_DCT_DIM: usize = 16;

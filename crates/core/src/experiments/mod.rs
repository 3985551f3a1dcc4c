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
use blurnet_attacks::{
    batch_l2_dissimilarity, targeted_success_rate, AdaptiveObjective, AttackEvaluation,
    FeaturePenaltyKind, Rp2Attack, Rp2Config,
};
use blurnet_defenses::{DefendedModel, DefenseKind};
use blurnet_signal::OperatorPenalty;
use blurnet_tensor::Tensor;

use crate::{BlurNetError, Result, Scale, Table};

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

/// Runs a targeted RP2 sweep against a defended model — the one sweep
/// path of every sweep experiment (Tables II, III and V, Figures 3, 5 and
/// 6). The whole `targets × images` grid is generated white-box on the
/// underlying network as one batched optimization
/// ([`Rp2Attack::generate_sweep`]) and judged with one classification
/// through the model's *defended* prediction path (input filters and
/// randomized smoothing included), then split into one evaluation per
/// target.
///
/// # Errors
///
/// Returns [`BlurNetError::BadConfig`] for empty image or target sets;
/// propagates attack errors.
pub(crate) fn sweep_defended(
    model: &DefendedModel,
    attack: &Rp2Attack,
    images: &[Tensor],
    targets: &[usize],
) -> Result<TargetSweep> {
    if images.is_empty() || targets.is_empty() {
        return Err(BlurNetError::BadConfig(
            "sweep needs at least one image and one target".into(),
        ));
    }
    let adversarial = attack.generate_sweep(model.network(), images, targets)?;
    let engine = model.network().batch_engine()?;
    let preds: Vec<usize> = model
        .classify(&engine, &adversarial)?
        .into_iter()
        .map(|(label, _)| label)
        .collect();
    let clean = Tensor::stack(images)?;
    let n = images.len();
    let per_target = targets
        .iter()
        .zip(preds.chunks(n))
        .enumerate()
        .map(|(t, (&target, preds))| {
            let dissims = batch_l2_dissimilarity(&clean, &adversarial.batch_slice(t * n, n)?)?;
            Ok((
                target,
                AttackEvaluation {
                    success_rate: targeted_success_rate(preds, target)?,
                    l2_dissimilarity: dissims.iter().sum::<f32>() / n as f32,
                    count: n,
                },
            ))
        })
        .collect::<Result<_>>()?;
    Ok(TargetSweep { per_target })
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

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_attacks::l2_dissimilarity;
    use blurnet_test_support::{reference_smoothed_votes, tiny_defended_model, uniform_images};

    #[test]
    fn sweep_defended_validates_inputs() {
        let model = tiny_defended_model(DefenseKind::Baseline, 11);
        let attack = Rp2Attack::new(Default::default()).unwrap();
        assert!(sweep_defended(&model, &attack, &[], &[1]).is_err());
        assert!(sweep_defended(&model, &attack, &[Tensor::zeros(&[3, 16, 16])], &[]).is_err());
    }

    /// The one batched sweep equals a per-target loop — generate each
    /// target's set, then judge it — whose votes come from the independent
    /// randomized-smoothing reference: per-image noise drawn in target-major
    /// order from one `SMOOTHING_SEED` stream, each copy judged by
    /// `reference_forward`.
    #[test]
    fn sweep_defended_matches_the_per_target_loop_under_smoothing() {
        // One noisy vote at σ = 1 makes this untrained net's answer depend
        // on the noise draw, and the targets are the classes it drifts
        // between, so drawing the noise in another order shows in the rates.
        let model = tiny_defended_model(
            DefenseKind::RandomizedSmoothing {
                sigma: 1.0,
                samples: 1,
            },
            11,
        );
        let images = uniform_images(12, 16, 3);
        let targets = [7, 11, 16];
        let attack = Rp2Attack::new(Rp2Config {
            iterations: 3,
            ..Rp2Config::default()
        })
        .unwrap();

        let sweep = sweep_defended(&model, &attack, &images, &targets).unwrap();

        let adversarial: Vec<Vec<Tensor>> = targets
            .iter()
            .map(|&target| {
                attack
                    .generate_batch(model.network(), &images, target)
                    .unwrap()
                    .into_iter()
                    .map(|r| r.adversarial)
                    .collect()
            })
            .collect();
        let votes = reference_smoothed_votes(model.network(), &adversarial.concat(), 1.0, 1);
        let mut reference = Vec::new();
        for ((&target, adversarial), votes) in targets
            .iter()
            .zip(&adversarial)
            .zip(votes.chunks(images.len()))
        {
            let preds: Vec<usize> = votes.iter().map(|&(label, _)| label).collect();
            let dissims: Vec<f32> = images
                .iter()
                .zip(adversarial)
                .map(|(clean, adv)| l2_dissimilarity(clean, adv).unwrap())
                .collect();
            reference.push((
                target,
                AttackEvaluation {
                    success_rate: targeted_success_rate(&preds, target).unwrap(),
                    l2_dissimilarity: dissims.iter().sum::<f32>() / dissims.len() as f32,
                    count: images.len(),
                },
            ));
        }
        assert_eq!(sweep.per_target, reference);
    }
}

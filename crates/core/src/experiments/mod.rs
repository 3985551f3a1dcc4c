//! Reproductions of every table and figure in the paper's evaluation.
//!
//! Each submodule exposes per-cell functions (`row_from_sweep`,
//! `row_for_model`, `victim_row`, `*_from_parts`, `*_for_model`) that
//! evaluate one table row or figure analysis against an already-trained
//! model and the shared artifacts it reads, plus the typed
//! result structs a [`crate::RunReport`] collates and renders as
//! [`crate::report::Table`]s. [`grid`] declares the cells; the
//! [`crate::ExperimentScheduler`] runs them (`reproduce --grid` is its
//! CLI) and `reproduce` prints [`paper_reference`] under each measured
//! table.

pub mod figures;
pub mod grid;
pub(crate) mod table1;
pub(crate) mod table2;
pub(crate) mod table3;
pub(crate) mod table4;
pub(crate) mod table5;

pub use table1::Table1Victim;
pub use table2::Table2Row;

use blurnet_attacks::{
    batch_l2_dissimilarity, targeted_success_rate, AdaptiveObjective, AttackEvaluation,
    FeaturePenaltyKind, Rp2Attack, Rp2Config, TargetSweep,
};
use blurnet_defenses::{DefendedModel, DefenseKind};
use blurnet_tensor::Tensor;

use crate::report::Table;
use crate::{BlurNetError, Result, Scale};

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
fn run_smoke_cells(seed: u64, kinds: Vec<grid::CellKind>) -> crate::RunReport {
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
fn only_output(report: crate::RunReport) -> crate::CellOutput {
    let [cell] = <[crate::report::CellReport; 1]>::try_from(report.cells).expect("one cell");
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
/// 6), called only by the scheduler's sweep artifact node, so each
/// (model, objective) sweep runs once per run whatever number of cells
/// read it. The whole `targets × images` grid is generated white-box on the
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

/// The RP2 objective of one sweep, declaratively: the part of a sweep
/// artifact's key that says which attacker runs. [`SweepObjective::build`]
/// turns it into the attack's [`AdaptiveObjective`] against a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SweepObjective {
    /// The plain white-box RP2 objective (Table II, Figures 5–6).
    Standard,
    /// The low-frequency DCT attack of Eq. 8 at mask dimension `dim`.
    LowFrequencyDct {
        /// Side length of the retained low-frequency block.
        dim: usize,
    },
    /// RP2 with the TV feature penalty in the attacker's loss (Eq. 9).
    TotalVariation,
    /// RP2 with the high-frequency Tikhonov operator penalty (Eq. 10).
    TikhonovHf {
        /// Window of the high-frequency operator.
        window: usize,
    },
    /// RP2 with the pseudo-difference Tikhonov operator penalty (Eq. 11).
    TikhonovPseudo,
}

impl SweepObjective {
    /// The adaptive attack matching a defense (Section V, Table III).
    ///
    /// Depthwise-filter defenses get the low-frequency DCT attack; the
    /// regularized defenses get their own penalty added to the attacker's
    /// loss. Defenses without a dedicated adaptive attack fall back to the
    /// standard objective.
    pub(crate) fn adaptive_for(defense: &DefenseKind) -> Self {
        match defense {
            DefenseKind::DepthwiseLinf { .. } | DefenseKind::FeatureFilter { .. } => {
                SweepObjective::LowFrequencyDct {
                    dim: DEFAULT_DCT_DIM,
                }
            }
            DefenseKind::TotalVariation { .. } => SweepObjective::TotalVariation,
            DefenseKind::TikhonovHf { window, .. } => {
                SweepObjective::TikhonovHf { window: *window }
            }
            DefenseKind::TikhonovPseudo { .. } => SweepObjective::TikhonovPseudo,
            _ => SweepObjective::Standard,
        }
    }

    /// Builds the attacker's objective against `model`. Feature penalties
    /// act on its first-layer feature maps and come from the constructors
    /// the trainer builds a regularized defense's penalty with
    /// ([`DefenseKind::feature_penalty`]).
    ///
    /// # Errors
    ///
    /// Propagates operator-construction errors.
    pub(crate) fn build(&self, model: &DefendedModel) -> Result<AdaptiveObjective> {
        let extent = model.feature_map_extent();
        let kind = match *self {
            SweepObjective::Standard => return Ok(AdaptiveObjective::Standard),
            SweepObjective::LowFrequencyDct { dim } => {
                return Ok(AdaptiveObjective::LowFrequencyDct { dim })
            }
            SweepObjective::TotalVariation => FeaturePenaltyKind::TotalVariation,
            SweepObjective::TikhonovHf { window } => {
                FeaturePenaltyKind::tikhonov_hf(extent, window)?
            }
            SweepObjective::TikhonovPseudo => FeaturePenaltyKind::tikhonov_pseudo(extent)?,
        };
        Ok(AdaptiveObjective::FeaturePenalty {
            layer_index: model.feature_layer_index(),
            kind,
        })
    }
}

impl std::fmt::Display for SweepObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepObjective::Standard => write!(f, "standard"),
            SweepObjective::LowFrequencyDct { dim } => write!(f, "dct-{dim}"),
            SweepObjective::TotalVariation => write!(f, "tv"),
            SweepObjective::TikhonovHf { window } => write!(f, "tik-hf-{window}"),
            SweepObjective::TikhonovPseudo => write!(f, "tik-pseudo"),
        }
    }
}

/// Builds the RP2 attack for a scale with the given objective.
pub(crate) fn rp2_with_objective(scale: Scale, objective: AdaptiveObjective) -> Result<Rp2Attack> {
    Ok(Rp2Attack::new(Rp2Config {
        objective,
        ..scale.rp2_config()
    })?)
}

/// The Table II defense roster (in the paper's row order).
fn table2_defenses(scale: Scale) -> Vec<DefenseKind> {
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
fn blurnet_defenses(_scale: Scale) -> Vec<DefenseKind> {
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
const DEFAULT_DCT_DIM: usize = 16;

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
    /// randomized-smoothing reference: each adversarial image's noise drawn
    /// from its own stream, seeded by `SMOOTHING_SEED` and the image's
    /// bytes, each copy judged by `reference_forward`.
    #[test]
    fn sweep_defended_matches_the_per_target_loop_under_smoothing() {
        // One noisy vote at σ = 1 makes this untrained net's answer depend
        // on the noise draw, and the targets are the classes it drifts
        // between, so seeding any image's noise differently shows in the
        // rates.
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

    /// A regularized defense's Table III attacker adds the trainer's own
    /// penalty at the trainer's own layer, and the three Table V attackers
    /// are the TV, `Tik_hf` (window 3) and `Tik_pseudo` penalties, on the
    /// smoke architecture: values and gradients agree bit for bit on a
    /// seeded feature batch.
    #[test]
    fn adaptive_attackers_add_the_defenders_penalties() {
        use blurnet_defenses::TrainingReport;
        use blurnet_nn::LisaCnn;
        use blurnet_test_support::{seeded_rng, uniform_batch};

        let size = Scale::Smoke.dataset_config().image_size;
        let builder = LisaCnn::new(blurnet_data::NUM_CLASSES).input_size(size);
        let arch = builder.config().clone();
        let net = builder.build(&mut seeded_rng(3)).unwrap();
        let feature = net
            .batch_engine()
            .unwrap()
            .activation(
                &uniform_batch(&[2, 3, size, size], 0.0, 1.0, 5),
                arch.feature_layer_index(),
            )
            .unwrap();
        let bits = |penalty: &FeaturePenaltyKind| {
            let (value, grad) = penalty.value_and_grad(&feature).unwrap();
            let grad: Vec<u32> = grad.data().iter().map(|v| v.to_bits()).collect();
            (value.to_bits(), grad)
        };
        let model = |defense: DefenseKind| {
            let report = TrainingReport {
                epoch_losses: vec![],
                test_accuracy: 0.0,
            };
            DefendedModel::new(net.clone(), defense, arch.clone(), report)
        };
        let assert_same =
            |objective: SweepObjective, victim: DefenseKind, trained: &DefenseKind| {
                let (_, layer, penalty) = trained.feature_penalty(&arch).unwrap().unwrap();
                let AdaptiveObjective::FeaturePenalty { layer_index, kind } =
                    objective.build(&model(victim)).unwrap()
                else {
                    panic!("{objective} adds no feature penalty");
                };
                assert_eq!(layer_index, layer, "{objective} vs {trained:?}");
                assert!(bits(&kind) == bits(&penalty), "{objective} vs {trained:?}");
            };

        let regularized = [
            DefenseKind::TotalVariation { alpha: 1e-4 },
            DefenseKind::TotalVariation { alpha: 1e-5 },
            DefenseKind::TikhonovHf {
                alpha: 1e-4,
                window: 3,
            },
            DefenseKind::TikhonovPseudo { alpha: 1e-6 },
        ];
        for defense in &regularized {
            let objective = SweepObjective::adaptive_for(defense);
            assert_same(objective, defense.clone(), defense);
        }
        let adv_train = table5::defense_for(Scale::Smoke);
        for (attack, defense) in table5::Table5Attack::roster().into_iter().zip([
            &regularized[0],
            &regularized[2],
            &regularized[3],
        ]) {
            assert_same(attack.sweep_objective(), adv_train.clone(), defense);
        }
    }
}

//! Adaptive attack objectives (Section V of the paper).
//!
//! Following Athalye et al. and Tramèr et al., every defense is evaluated
//! against an attacker that *knows the defense*:
//!
//! * the depthwise-filter defenses are attacked with perturbations
//!   restricted to low DCT frequencies (Eq. 8, Figure 3), and
//! * the regularized defenses (TV, `Tik_hf`, `Tik_pseudo`) are attacked by
//!   adding the defender's own feature-map penalty to the attacker's loss
//!   (Eq. 9–11).
//!
//! Both are expressed as an [`AdaptiveObjective`] plugged into the shared
//! [`crate::Rp2Attack`] optimizer loop.
//!
//! A regularized defense's training step (Eq. 4, 6–7) and its adaptive
//! attack step are one computation, so this module holds it once for
//! both: [`FeaturePenaltyKind`] is the penalty (built by one constructor
//! each, evaluated by [`FeaturePenaltyKind::value_and_grad`]) and
//! [`penalized_loss`] is the loss every engine closure returns —
//! cross-entropy plus the weighted penalty, whose gradient the engine
//! injects at the feature layer. The trainer in `blurnet-defenses` calls
//! it with the defense's α, RP2 with weight 1.

use blurnet_nn::{softmax_cross_entropy, NnError, ShardGrad};
use blurnet_signal::{total_variation_batch, tv_gradient_batch, OperatorPenalty};
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::rp2::{Rp2Attack, Rp2Config};
use crate::Result;

/// A feature-map penalty: what a regularized defense trains with and its
/// adaptive attacker adds to its loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FeaturePenaltyKind {
    /// Anisotropic total variation of the feature maps (Eq. 4, 9).
    TotalVariation,
    /// A quadratic operator penalty `‖L·F‖²` — `Tik_hf` or `Tik_pseudo`
    /// depending on the wrapped operator (Eq. 6–7, 10–11).
    Operator(OperatorPenalty),
}

impl FeaturePenaltyKind {
    /// `Tik_hf` on `extent × extent` feature maps: the high-frequency
    /// operator with a `window`-wide low-pass (Eq. 6).
    ///
    /// # Errors
    ///
    /// Returns an error for a window wider than the feature maps.
    pub fn tikhonov_hf(extent: usize, window: usize) -> Result<Self> {
        Ok(FeaturePenaltyKind::Operator(
            OperatorPenalty::high_frequency(extent, window)?,
        ))
    }

    /// `Tik_pseudo` on `extent × extent` feature maps: the regularized
    /// pseudoinverse of the difference operator, ε = 1e-3 (Eq. 7).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty extent.
    pub fn tikhonov_pseudo(extent: usize) -> Result<Self> {
        Ok(FeaturePenaltyKind::Operator(
            OperatorPenalty::pseudo_difference(extent, 1e-3)?,
        ))
    }

    /// The penalty's value on an `[N, K, H, W]` feature batch and its
    /// gradient with respect to that batch.
    ///
    /// # Errors
    ///
    /// Returns an error for a feature batch the penalty does not fit.
    pub fn value_and_grad(&self, feature: &Tensor) -> Result<(f32, Tensor)> {
        Ok(match self {
            FeaturePenaltyKind::TotalVariation => {
                (total_variation_batch(feature)?, tv_gradient_batch(feature)?)
            }
            FeaturePenaltyKind::Operator(penalty) => {
                (penalty.value_batch(feature)?, penalty.grad_batch(feature)?)
            }
        })
    }
}

/// The one loss of a training step and of an RP2 step: softmax
/// cross-entropy of `logits` against `labels`, plus `weight ·` the
/// feature-map penalty on `feature` when `penalty` is `Some((weight,
/// kind))`. Returns the logit gradient, the penalty gradient to inject at
/// the feature layer, and the loss `ce + weight · value` (`ce + 0.0`
/// without a penalty).
///
/// # Errors
///
/// Returns an error for labels that do not fit the logits, a penalty
/// without its `feature` activation, or a feature batch the penalty does
/// not fit.
pub fn penalized_loss(
    logits: &Tensor,
    labels: &[usize],
    penalty: Option<(f32, &FeaturePenaltyKind)>,
    feature: Option<&Tensor>,
) -> std::result::Result<ShardGrad, NnError> {
    let (ce, d_logits) = softmax_cross_entropy(logits, labels)?;
    let (injection, value) = match (penalty, feature) {
        (None, _) => (None, 0.0),
        (Some(_), None) => {
            return Err(NnError::BadConfig(
                "a feature-map penalty needs its feature activation".into(),
            ))
        }
        (Some((weight, kind)), Some(feature)) => {
            let (value, mut grad) = kind
                .value_and_grad(feature)
                .map_err(|e| NnError::BadConfig(e.to_string()))?;
            grad.map_inplace(|v| v * weight);
            (Some(grad), weight * value)
        }
    };
    Ok(ShardGrad {
        d_logits,
        injection,
        loss: ce + value,
    })
}

/// Modification of the RP2 objective used by adaptive attacks.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub enum AdaptiveObjective {
    /// The plain RP2 objective of Eq. 1 (white-box and black-box tables).
    #[default]
    Standard,
    /// Restrict the perturbation to the lowest `dim × dim` DCT
    /// coefficients, `IDCT(M_dim · DCT(M_x · δ))` (Eq. 8).
    LowFrequencyDct {
        /// Side length of the retained low-frequency block.
        dim: usize,
    },
    /// Add a feature-map penalty on a chosen activation to the attacker's
    /// loss, unweighted: the paper found weight 1 the strongest attacker
    /// (Eq. 9–11).
    FeaturePenalty {
        /// Index of the activation (layer output) the penalty applies to.
        layer_index: usize,
        /// Which penalty to add.
        kind: FeaturePenaltyKind,
    },
}

/// Builds the low-frequency DCT adaptive attack of Eq. 8 from a base RP2
/// configuration.
///
/// # Errors
///
/// Propagates [`Rp2Attack::new`] validation errors.
pub fn low_frequency_attack(base: Rp2Config, dim: usize) -> Result<Rp2Attack> {
    Rp2Attack::new(Rp2Config {
        objective: AdaptiveObjective::LowFrequencyDct { dim },
        ..base
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_data::{DatasetConfig, SignDataset};
    use blurnet_nn::{LisaCnn, Sequential};
    use blurnet_signal::low_frequency_project;
    use blurnet_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_net() -> (Sequential, usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let builder = LisaCnn::new(18).input_size(16).conv1_filters(4);
        let net = builder.build(&mut rng).unwrap();
        (net, builder.config().feature_layer_index())
    }

    fn tiny_image() -> Tensor {
        let mut cfg = DatasetConfig::tiny();
        cfg.image_size = 16;
        SignDataset::generate(&cfg, 2).unwrap().stop_eval_images()[0].clone()
    }

    fn fast_config() -> Rp2Config {
        Rp2Config {
            iterations: 6,
            num_transforms: 1,
            ..Rp2Config::default()
        }
    }

    /// The regularizer-aware attack of Eq. 9–11: `kind` on the activation
    /// at `layer_index`, unweighted.
    fn penalty_attack(layer_index: usize, kind: FeaturePenaltyKind) -> Rp2Attack {
        Rp2Attack::new(Rp2Config {
            objective: AdaptiveObjective::FeaturePenalty { layer_index, kind },
            ..fast_config()
        })
        .unwrap()
    }

    #[test]
    fn low_frequency_attack_produces_low_frequency_perturbations() {
        let (net, _) = tiny_net();
        let image = tiny_image();
        let attack = low_frequency_attack(fast_config(), 4).unwrap();
        let result = attack.generate(&net, &image, 2).unwrap();
        // Every channel of the perturbation must be (numerically) invariant
        // under the same low-frequency projection.
        for ch in 0..3 {
            let map = result.perturbation.channel(ch).unwrap();
            if map.l2_norm() < 1e-6 {
                continue;
            }
            let projected = low_frequency_project(&map, 4).unwrap();
            let residual = map.sub(&projected).unwrap().l2_norm() / map.l2_norm();
            // The clamp to [0,1] can slightly break exact invariance.
            assert!(residual < 0.2, "channel {ch} residual {residual}");
        }
    }

    #[test]
    fn tv_aware_attack_runs_and_stays_masked() {
        let (net, feature_layer) = tiny_net();
        let image = tiny_image();
        let attack = penalty_attack(feature_layer, FeaturePenaltyKind::TotalVariation);
        let result = attack.generate(&net, &image, 5).unwrap();
        assert_eq!(result.adversarial.dims(), image.dims());
        assert!(result.loss_trace.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn tikhonov_aware_attack_runs() {
        let (net, feature_layer) = tiny_net();
        let image = tiny_image();
        // Feature maps are 8x8 for a 16x16 input with stride-2 conv1.
        let penalty = FeaturePenaltyKind::tikhonov_hf(8, 3).unwrap();
        let attack = penalty_attack(feature_layer, penalty);
        let result = attack.generate(&net, &image, 7).unwrap();
        assert!(result.loss_trace.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn bad_feature_layer_index_is_reported() {
        let (net, _) = tiny_net();
        let image = tiny_image();
        let attack = penalty_attack(99, FeaturePenaltyKind::TotalVariation);
        assert!(attack.generate(&net, &image, 1).is_err());
    }

    #[test]
    fn default_objective_is_standard() {
        assert!(matches!(
            AdaptiveObjective::default(),
            AdaptiveObjective::Standard
        ));
    }
}

//! Training-time regularizers that push the first convolution towards
//! low-pass behaviour.
//!
//! Three families from Section IV of the paper:
//!
//! * **L∞ on depthwise kernels** (Eq. 2) — encourages the inserted
//!   depthwise layer's taps to take similar (small) values, i.e. to act
//!   like a blur;
//! * **total variation of the feature maps** (Eq. 4) — penalizes spatial
//!   spikes in the first-layer activations directly;
//! * **generalized Tikhonov** (Eq. 6–7) — quadratic penalties `‖L·F‖²`
//!   with a high-frequency-extracting or pseudoinverse-difference operator.
//!
//! The last two are one feature-map penalty, a
//! [`blurnet_attacks::FeaturePenaltyKind`] on the first-layer activations
//! ([`DefenseKind::feature_penalty`]). The training step adds it through
//! [`blurnet_attacks::penalized_loss`], the loss the matching adaptive
//! attacker (Eq. 9–11) optimizes too, so the defender and the attacker
//! share one penalty and one gradient path. The L∞ penalty acts on a
//! weight, not on an activation: it does not depend on the batch and is
//! added to the kernel's gradient after the step
//! ([`FeatureRegularizer::add_kernel_penalty`]).

use blurnet_attacks::FeaturePenaltyKind;
use blurnet_nn::{Gradients, Layer, LayerKind, LisaCnnConfig, Sequential};
use serde::{Deserialize, Serialize};

use crate::{DefenseError, DefenseKind, Result};

impl DefenseKind {
    /// The feature-map penalty this defense trains with (Eq. 4, 6–7) on a
    /// network of architecture `arch`: its strength α, the penalized
    /// activation's layer index and the penalty, or `None` for a defense
    /// without one. The Table III adaptive attacker of the defense adds the
    /// same penalty, built by the same [`FeaturePenaltyKind`] constructor,
    /// to its RP2 loss.
    ///
    /// # Errors
    ///
    /// Returns an error if the penalty does not fit the architecture's
    /// feature maps (e.g. a Tikhonov window wider than them).
    pub fn feature_penalty(
        &self,
        arch: &LisaCnnConfig,
    ) -> Result<Option<(f32, usize, FeaturePenaltyKind)>> {
        let extent = arch.feature_map_extent();
        let (alpha, penalty) = match self {
            DefenseKind::TotalVariation { alpha } => (*alpha, FeaturePenaltyKind::TotalVariation),
            DefenseKind::TikhonovHf { alpha, window } => {
                (*alpha, FeaturePenaltyKind::tikhonov_hf(extent, *window)?)
            }
            DefenseKind::TikhonovPseudo { alpha } => {
                (*alpha, FeaturePenaltyKind::tikhonov_pseudo(extent)?)
            }
            _ => return Ok(None),
        };
        Ok(Some((alpha, arch.feature_layer_index(), penalty)))
    }
}

/// The regularizer of one defense's training loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum FeatureRegularizer {
    /// No extra loss term.
    None,
    /// `α Σ_j ‖W_depthwise[:,:,j]‖∞` on the inserted depthwise layer.
    LinfDepthwise {
        /// Regularization strength.
        alpha: f32,
        /// Index of the depthwise layer in the network.
        layer_index: usize,
    },
    /// `α ·` a TV or Tikhonov penalty on the feature maps at
    /// `layer_index`, normalized per feature map.
    FeatureMap {
        /// Regularization strength.
        alpha: f32,
        /// Index of the activation the penalty applies to.
        layer_index: usize,
        /// The penalty (TV, `L_hf` or `L_diff⁺`).
        penalty: FeaturePenaltyKind,
    },
}

impl FeatureRegularizer {
    /// Builds the regularizer matching a [`DefenseKind`] for a network with
    /// the given architecture. Defenses without a training-time
    /// regularizer map to [`FeatureRegularizer::None`].
    ///
    /// # Errors
    ///
    /// Returns an error if the defense parameters are invalid for the
    /// architecture (a missing depthwise layer, or a penalty that does not
    /// fit the feature maps).
    pub(crate) fn from_defense(defense: &DefenseKind, arch: &LisaCnnConfig) -> Result<Self> {
        if let DefenseKind::DepthwiseLinf { alpha, .. } = defense {
            let layer_index = arch.filter_layer_index().ok_or_else(|| {
                DefenseError::BadConfig(
                    "DepthwiseLinf defense requires a depthwise filter layer".into(),
                )
            })?;
            return Ok(FeatureRegularizer::LinfDepthwise {
                alpha: *alpha,
                layer_index,
            });
        }
        Ok(match defense.feature_penalty(arch)? {
            Some((alpha, layer_index, penalty)) => FeatureRegularizer::FeatureMap {
                alpha,
                layer_index,
                penalty,
            },
            None => FeatureRegularizer::None,
        })
    }

    /// The layer whose output activation the training step must collect
    /// for this regularizer (the TV and Tikhonov feature maps).
    pub(crate) fn feature_layer(&self) -> Option<usize> {
        match self {
            FeatureRegularizer::FeatureMap { layer_index, .. } => Some(*layer_index),
            _ => None,
        }
    }

    /// The weighted feature-map penalty the training step's
    /// [`blurnet_attacks::penalized_loss`] adds, if any.
    pub(crate) fn feature_penalty(&self) -> Option<(f32, &FeaturePenaltyKind)> {
        match self {
            FeatureRegularizer::FeatureMap { alpha, penalty, .. } => Some((*alpha, penalty)),
            _ => None,
        }
    }

    /// Adds the L∞ kernel penalty to a finished training step: `α·‖W‖∞` to
    /// its `loss` and `α·∇‖W‖∞` to the kernel's gradient in `grads`. Every
    /// other regularizer leaves the step as it is.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer index does not name a depthwise layer.
    pub(crate) fn add_kernel_penalty(
        &self,
        net: &Sequential,
        loss: &mut f32,
        grads: &mut Gradients,
    ) -> Result<()> {
        let FeatureRegularizer::LinfDepthwise { alpha, layer_index } = self else {
            return Ok(());
        };
        let Some(LayerKind::Depthwise(depthwise)) = net.layer(*layer_index) else {
            return Err(DefenseError::BadConfig(format!(
                "layer {layer_index} is not a depthwise layer"
            )));
        };
        // The kernel is its layer's first parameter.
        let kernel: usize = net
            .iter()
            .take(*layer_index)
            .map(|l| l.params().len())
            .sum();
        grads.params[kernel].add_scaled(&depthwise.linf_penalty_grad().scale(*alpha), 1.0)?;
        *loss += alpha * depthwise.linf_penalty();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_nn::LisaCnn;
    use blurnet_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_builder(defense: &DefenseKind) -> LisaCnn {
        let base = LisaCnn::new(18).input_size(16).conv1_filters(4);
        match defense {
            DefenseKind::DepthwiseLinf { kernel, .. } => base.with_trainable_depthwise(*kernel),
            _ => base,
        }
    }

    /// Zero gradients for every parameter of `net`, in step order.
    fn zero_grads(net: &Sequential) -> Gradients {
        Gradients {
            input: Tensor::zeros(&[1]),
            params: net
                .iter()
                .flat_map(|l| l.params())
                .map(|p| Tensor::zeros(p.dims()))
                .collect(),
        }
    }

    #[test]
    fn mapping_from_defense_kinds() {
        let arch_plain = tiny_builder(&DefenseKind::Baseline).config().clone();
        assert!(matches!(
            FeatureRegularizer::from_defense(&DefenseKind::Baseline, &arch_plain).unwrap(),
            FeatureRegularizer::None
        ));
        assert!(matches!(
            FeatureRegularizer::from_defense(
                &DefenseKind::TotalVariation { alpha: 1e-4 },
                &arch_plain
            )
            .unwrap(),
            FeatureRegularizer::FeatureMap {
                penalty: FeaturePenaltyKind::TotalVariation,
                ..
            }
        ));
        assert!(matches!(
            FeatureRegularizer::from_defense(
                &DefenseKind::TikhonovHf {
                    alpha: 1e-4,
                    window: 3
                },
                &arch_plain
            )
            .unwrap(),
            FeatureRegularizer::FeatureMap {
                penalty: FeaturePenaltyKind::Operator(_),
                ..
            }
        ));
        // DepthwiseLinf needs the filter layer to exist.
        assert!(FeatureRegularizer::from_defense(
            &DefenseKind::DepthwiseLinf {
                kernel: 5,
                alpha: 0.1
            },
            &arch_plain
        )
        .is_err());
        let defense = DefenseKind::DepthwiseLinf {
            kernel: 5,
            alpha: 0.1,
        };
        let arch_dw = tiny_builder(&defense).config().clone();
        assert!(matches!(
            FeatureRegularizer::from_defense(&defense, &arch_dw).unwrap(),
            FeatureRegularizer::LinfDepthwise { .. }
        ));
    }

    #[test]
    fn tv_regularizer_produces_injection_with_feature_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let builder = tiny_builder(&DefenseKind::Baseline);
        let net = builder.build(&mut rng).unwrap();
        let reg = FeatureRegularizer::from_defense(
            &DefenseKind::TotalVariation { alpha: 1e-2 },
            builder.config(),
        )
        .unwrap();
        assert_eq!(reg.feature_layer(), Some(0));
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let feature = net.batch_engine().unwrap().activation(&x, 0).unwrap();
        let (alpha, penalty) = reg.feature_penalty().unwrap();
        assert_eq!(alpha, 1e-2);
        let (value, grad) = penalty.value_and_grad(&feature).unwrap();
        assert!(value > 0.0);
        assert_eq!(grad.dims(), feature.dims());
    }

    #[test]
    fn linf_regularizer_accumulates_into_depthwise_grads() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let defense = DefenseKind::DepthwiseLinf {
            kernel: 3,
            alpha: 0.5,
        };
        let builder = tiny_builder(&defense);
        let net = builder.build(&mut rng).unwrap();
        let reg = FeatureRegularizer::from_defense(&defense, builder.config()).unwrap();
        assert_eq!(reg.feature_layer(), None);
        assert!(reg.feature_penalty().is_none());
        let mut grads = zero_grads(&net);
        let mut loss = 1.0;
        reg.add_kernel_penalty(&net, &mut loss, &mut grads).unwrap();
        assert!(loss > 1.0);
        // The sub-gradient lands on the depthwise kernel, and only there.
        let layer_index = builder.config().filter_layer_index().unwrap();
        let LayerKind::Depthwise(dw) = net.layer(layer_index).unwrap() else {
            panic!("expected depthwise layer");
        };
        let kernel = net.layer(0).unwrap().params().len();
        assert_eq!(grads.params[kernel].dims(), dw.weight().dims());
        assert_eq!(grads.params[kernel], dw.linf_penalty_grad().scale(0.5));
        let others: f32 = (0..grads.params.len())
            .filter(|&i| i != kernel)
            .map(|i| grads.params[i].l1_norm())
            .sum();
        assert_eq!(others, 0.0);
    }

    #[test]
    fn operator_regularizer_injection_matches_feature_extent() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let builder = tiny_builder(&DefenseKind::Baseline);
        let net = builder.build(&mut rng).unwrap();
        let reg = FeatureRegularizer::from_defense(
            &DefenseKind::TikhonovPseudo { alpha: 1e-3 },
            builder.config(),
        )
        .unwrap();
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
        let feature = net.batch_engine().unwrap().activation(&x, 0).unwrap();
        let (_, penalty) = reg.feature_penalty().unwrap();
        let (value, grad) = penalty.value_and_grad(&feature).unwrap();
        assert!(value >= 0.0);
        assert_eq!(grad.dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn bad_indices_are_reported() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = LisaCnn::new(4)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap();
        // The engine rejects an out-of-range feature layer.
        assert!(net
            .batch_engine()
            .unwrap()
            .activation(&Tensor::zeros(&[1, 3, 16, 16]), 42)
            .is_err());
        let reg = FeatureRegularizer::LinfDepthwise {
            alpha: 1.0,
            layer_index: 0,
        };
        // Without its activation a feature-map penalty refuses to run.
        let logits = Tensor::zeros(&[1, 4]);
        let tv = (1.0, &FeaturePenaltyKind::TotalVariation);
        assert!(blurnet_attacks::penalized_loss(&logits, &[0], Some(tv), None).is_err());
        // Layer 0 is a Conv2d, not a depthwise layer.
        let mut loss = 0.0;
        assert!(reg
            .add_kernel_penalty(&net, &mut loss, &mut zero_grads(&net))
            .is_err());
    }
}

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

use blurnet_nn::{LayerKind, LisaCnnConfig, Sequential};
use blurnet_signal::{total_variation_batch, tv_gradient_batch, OperatorPenalty};
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{DefenseError, DefenseKind, Result};

/// A regularizer evaluated (and differentiated) every training step.
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
    /// `α_TV / (N·K) Σ TV(F)` on the feature maps at `layer_index`.
    TotalVariation {
        /// Regularization strength.
        alpha: f32,
        /// Index of the activation the penalty applies to.
        layer_index: usize,
    },
    /// `α / (N·K) Σ ‖L·F‖²` on the feature maps at `layer_index`.
    Operator {
        /// Regularization strength.
        alpha: f32,
        /// Index of the activation the penalty applies to.
        layer_index: usize,
        /// The operator penalty (`L_hf` or `L_diff⁺`).
        penalty: OperatorPenalty,
    },
}

impl FeatureRegularizer {
    /// Builds the regularizer matching a [`DefenseKind`] for a network with
    /// the given architecture. Defenses without a training-time feature
    /// regularizer map to [`FeatureRegularizer::None`].
    ///
    /// # Errors
    ///
    /// Returns an error if the defense parameters are invalid for the
    /// architecture (e.g. a Tikhonov window wider than the feature maps).
    pub(crate) fn from_defense(defense: &DefenseKind, arch: &LisaCnnConfig) -> Result<Self> {
        let feature_index = arch.feature_layer_index();
        let extent = arch.feature_map_extent();
        match defense {
            DefenseKind::DepthwiseLinf { alpha, .. } => {
                let layer_index = arch.filter_layer_index().ok_or_else(|| {
                    DefenseError::BadConfig(
                        "DepthwiseLinf defense requires a depthwise filter layer".into(),
                    )
                })?;
                Ok(FeatureRegularizer::LinfDepthwise {
                    alpha: *alpha,
                    layer_index,
                })
            }
            DefenseKind::TotalVariation { alpha } => Ok(FeatureRegularizer::TotalVariation {
                alpha: *alpha,
                layer_index: feature_index,
            }),
            DefenseKind::TikhonovHf { alpha, window } => Ok(FeatureRegularizer::Operator {
                alpha: *alpha,
                layer_index: feature_index,
                penalty: OperatorPenalty::high_frequency(extent, *window)?,
            }),
            DefenseKind::TikhonovPseudo { alpha } => Ok(FeatureRegularizer::Operator {
                alpha: *alpha,
                layer_index: feature_index,
                penalty: OperatorPenalty::pseudo_difference(extent, 1e-3)?,
            }),
            _ => Ok(FeatureRegularizer::None),
        }
    }

    /// The layer whose output activation the training step must collect
    /// for this regularizer (the TV and Tikhonov feature maps).
    pub(crate) fn feature_layer(&self) -> Option<usize> {
        match self {
            FeatureRegularizer::TotalVariation { layer_index, .. }
            | FeatureRegularizer::Operator { layer_index, .. } => Some(*layer_index),
            _ => None,
        }
    }

    /// Evaluates the regularizer for the current training step, given the
    /// activation at [`FeatureRegularizer::feature_layer`] when it has one.
    ///
    /// Returns the penalty value and its gradient, both already scaled by
    /// α. The gradient is taken with respect to the penalized tensor: the
    /// feature maps for TV and Tikhonov (the training step injects it at
    /// the feature layer's output), the depthwise kernels for L∞ (the
    /// trainer adds it to the kernel's gradient).
    ///
    /// # Errors
    ///
    /// Returns an error if the layer index does not name a depthwise layer
    /// (L∞), the feature activation is missing, or its shape does not fit
    /// the penalty.
    pub(crate) fn apply(
        &self,
        net: &Sequential,
        feature: Option<&Tensor>,
    ) -> Result<(f32, Option<Tensor>)> {
        match self {
            FeatureRegularizer::None => Ok((0.0, None)),
            FeatureRegularizer::LinfDepthwise { alpha, layer_index } => {
                let Some(LayerKind::Depthwise(depthwise)) = net.layer(*layer_index) else {
                    return Err(DefenseError::BadConfig(format!(
                        "layer {layer_index} is not a depthwise layer"
                    )));
                };
                let grad = depthwise.linf_penalty_grad().scale(*alpha);
                Ok((alpha * depthwise.linf_penalty(), Some(grad)))
            }
            FeatureRegularizer::TotalVariation { alpha, .. } => {
                let feature = require_feature(feature)?;
                let grad = tv_gradient_batch(feature)?.scale(*alpha);
                Ok((alpha * total_variation_batch(feature)?, Some(grad)))
            }
            FeatureRegularizer::Operator { alpha, penalty, .. } => {
                let feature = require_feature(feature)?;
                let grad = penalty.grad_batch(feature)?.scale(*alpha);
                Ok((alpha * penalty.value_batch(feature)?, Some(grad)))
            }
        }
    }
}

fn require_feature(feature: Option<&Tensor>) -> Result<&Tensor> {
    feature.ok_or_else(|| {
        DefenseError::BadConfig("feature-map regularizer needs its feature activation".into())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_nn::LisaCnn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_builder(defense: &DefenseKind) -> LisaCnn {
        let base = LisaCnn::new(18).input_size(16).conv1_filters(4);
        match defense {
            DefenseKind::DepthwiseLinf { kernel, .. } => base.with_trainable_depthwise(*kernel),
            _ => base,
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
            FeatureRegularizer::TotalVariation { .. }
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
            FeatureRegularizer::Operator { .. }
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
        let (value, grad) = reg.apply(&net, Some(&feature)).unwrap();
        assert!(value > 0.0);
        assert_eq!(grad.unwrap().dims(), feature.dims());
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
        let (value, grad) = reg.apply(&net, None).unwrap();
        assert!(value > 0.0);
        // The sub-gradient is the depthwise kernel's.
        let grad = grad.expect("L∞ penalises the kernel");
        let layer_index = builder.config().filter_layer_index().unwrap();
        let LayerKind::Depthwise(dw) = net.layer(layer_index).unwrap() else {
            panic!("expected depthwise layer");
        };
        assert_eq!(grad.dims(), dw.weight().dims());
        assert!(grad.l1_norm() > 0.0);
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
        let (value, grad) = reg.apply(&net, Some(&feature)).unwrap();
        assert!(value >= 0.0);
        assert_eq!(grad.unwrap().dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn bad_indices_are_reported() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = LisaCnn::new(4)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap();
        let reg = FeatureRegularizer::TotalVariation {
            alpha: 1.0,
            layer_index: 42,
        };
        // The engine rejects the index; without an activation the
        // regularizer refuses to run.
        assert!(net
            .batch_engine()
            .unwrap()
            .activation(&Tensor::zeros(&[1, 3, 16, 16]), 42)
            .is_err());
        assert!(reg.apply(&net, None).is_err());
        let reg = FeatureRegularizer::LinfDepthwise {
            alpha: 1.0,
            layer_index: 0,
        };
        // Layer 0 is a Conv2d, not a depthwise layer.
        assert!(reg.apply(&net, None).is_err());
    }
}

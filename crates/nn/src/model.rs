//! The LISA-CNN road-sign classifier used throughout the paper.
//!
//! The original Cleverhans LISA-CNN has three convolution layers followed by
//! a fully-connected layer. We keep that topology (including a stride-2
//! first convolution) at a CPU-friendly channel count; `docs/ARCHITECTURE.md`
//! (§ Substitutions) documents the scaling substitution.

use blurnet_tensor::{ConvSpec, Tensor};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{
    Conv2d, Dense, DepthwiseConv2d, Flatten, MaxPool2d, NnError, Relu, Result, Sequential,
};

/// Where (if anywhere) a depthwise filter layer is inserted after the first
/// convolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FilterLayer {
    /// No extra layer (baseline and regularization-only defenses).
    None,
    /// A fixed blur kernel applied to every first-layer feature map
    /// (Section III / Table I).
    FixedBlur {
        /// The `[K, K]` blur kernel.
        kernel: Tensor,
    },
    /// A trainable depthwise layer (learned under the L∞ penalty of Eq. 2).
    TrainableDepthwise {
        /// Kernel extent (3, 5 or 7 in the paper).
        kernel: usize,
    },
}

/// Architecture description of the scaled LISA-CNN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LisaCnnConfig {
    /// Number of sign classes (the paper uses the top 18 LISA classes).
    pub num_classes: usize,
    /// Input channels (RGB = 3).
    pub in_channels: usize,
    /// Square input extent in pixels.
    pub input_size: usize,
    /// First-convolution filter count.
    pub conv1_filters: usize,
    /// First-convolution kernel extent.
    conv1_kernel: usize,
    /// First-convolution stride.
    conv1_stride: usize,
    /// Second-convolution filter count.
    conv2_filters: usize,
    /// Third-convolution filter count.
    conv3_filters: usize,
    /// Optional depthwise filter layer after the first convolution.
    pub filter_layer: FilterLayer,
}

impl Default for LisaCnnConfig {
    fn default() -> Self {
        LisaCnnConfig {
            num_classes: 18,
            in_channels: 3,
            input_size: 32,
            conv1_filters: 8,
            conv1_kernel: 5,
            conv1_stride: 2,
            conv2_filters: 16,
            conv3_filters: 32,
            filter_layer: FilterLayer::None,
        }
    }
}

impl LisaCnnConfig {
    /// Spatial extent of the first-layer feature maps.
    pub fn feature_map_extent(&self) -> usize {
        self.input_size / self.conv1_stride
    }

    /// Index (within the built [`Sequential`]) of the layer whose output is
    /// the "first layer feature map" the paper filters and regularizes.
    ///
    /// This is the first convolution (index 0); when a filter layer is
    /// present its output is at [`LisaCnnConfig::filter_layer_index`].
    pub fn feature_layer_index(&self) -> usize {
        0
    }

    /// Index of the inserted depthwise filter layer, if any.
    pub fn filter_layer_index(&self) -> Option<usize> {
        match self.filter_layer {
            FilterLayer::None => None,
            _ => Some(1),
        }
    }

    /// Index of the second convolution's output activation (used by the
    /// Figure 4 analysis of higher-layer spectra).
    pub fn second_conv_layer_index(&self) -> usize {
        // conv1 [+ filter] + relu + conv2
        match self.filter_layer {
            FilterLayer::None => 2,
            _ => 3,
        }
    }
}

/// Builder for the scaled LISA-CNN classifier.
#[derive(Debug, Clone)]
pub struct LisaCnn {
    config: LisaCnnConfig,
}

impl LisaCnn {
    /// Starts a builder for a classifier with `num_classes` outputs and the
    /// default architecture.
    pub fn new(num_classes: usize) -> Self {
        LisaCnn {
            config: LisaCnnConfig {
                num_classes,
                ..LisaCnnConfig::default()
            },
        }
    }

    /// Overrides the input extent (must be divisible by `4 · conv1_stride`).
    pub fn input_size(mut self, size: usize) -> Self {
        self.config.input_size = size;
        self
    }

    /// Overrides the first-convolution filter count.
    pub fn conv1_filters(mut self, filters: usize) -> Self {
        self.config.conv1_filters = filters;
        self
    }

    /// Inserts a fixed blur layer after the first convolution.
    pub fn with_fixed_blur(mut self, kernel: Tensor) -> Self {
        self.config.filter_layer = FilterLayer::FixedBlur { kernel };
        self
    }

    /// Inserts a trainable depthwise layer after the first convolution.
    pub fn with_trainable_depthwise(mut self, kernel: usize) -> Self {
        self.config.filter_layer = FilterLayer::TrainableDepthwise { kernel };
        self
    }

    /// The architecture this builder will produce.
    pub fn config(&self) -> &LisaCnnConfig {
        &self.config
    }

    /// Builds the network with freshly initialized weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the configuration produces
    /// non-positive layer sizes (e.g. an input size that is not divisible
    /// far enough for the pooling stages).
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Sequential> {
        let c = &self.config;
        if c.num_classes == 0 {
            return Err(NnError::BadConfig("num_classes must be non-zero".into()));
        }
        if !c.input_size.is_multiple_of(c.conv1_stride * 4) {
            return Err(NnError::BadConfig(format!(
                "input size {} must be divisible by conv1_stride * 4 = {}",
                c.input_size,
                c.conv1_stride * 4
            )));
        }
        let fm = c.feature_map_extent();
        let after_pool1 = fm / 2;
        let after_pool2 = after_pool1 / 2;
        if after_pool2 == 0 {
            return Err(NnError::BadConfig(format!(
                "input size {} too small for the pooling pyramid",
                c.input_size
            )));
        }
        let mut net = Sequential::new();
        // conv1: stride-2 "same"-ish convolution producing the feature maps
        // the defense acts on.
        let conv1_spec = ConvSpec::new(c.conv1_stride, c.conv1_kernel / 2)
            .map_err(|e| NnError::BadConfig(e.to_string()))?;
        net.push(Conv2d::new(
            c.in_channels,
            c.conv1_filters,
            c.conv1_kernel,
            conv1_spec,
            rng,
        )?);
        match &c.filter_layer {
            FilterLayer::None => {}
            FilterLayer::FixedBlur { kernel } => {
                net.push(DepthwiseConv2d::fixed_kernel(c.conv1_filters, kernel)?);
            }
            FilterLayer::TrainableDepthwise { kernel } => {
                net.push(DepthwiseConv2d::identity(c.conv1_filters, *kernel)?);
            }
        }
        net.push(Relu::new());
        net.push(Conv2d::new(
            c.conv1_filters,
            c.conv2_filters,
            3,
            ConvSpec::same(3).map_err(|e| NnError::BadConfig(e.to_string()))?,
            rng,
        )?);
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2)?);
        net.push(Conv2d::new(
            c.conv2_filters,
            c.conv3_filters,
            3,
            ConvSpec::same(3).map_err(|e| NnError::BadConfig(e.to_string()))?,
            rng,
        )?);
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2)?);
        net.push(Flatten::new());
        net.push(Dense::new(
            c.conv3_filters * after_pool2 * after_pool2,
            c.num_classes,
            rng,
        )?);
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn default_architecture_forward_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let builder = LisaCnn::new(18);
        let net = builder.build(&mut rng).unwrap();
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        let y = net.batch_engine().unwrap().forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 18]);
        assert_eq!(builder.config().feature_map_extent(), 16);
        assert_eq!(builder.config().feature_layer_index(), 0);
        assert!(builder.config().filter_layer_index().is_none());
    }

    #[test]
    fn fixed_blur_variant_has_extra_layer_and_same_output_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let plain = LisaCnn::new(18).build(&mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let kernel = Tensor::full(&[5, 5], 1.0 / 25.0);
        let builder = LisaCnn::new(18).with_fixed_blur(kernel);
        let blurred = builder.build(&mut rng).unwrap();
        assert_eq!(blurred.len(), plain.len() + 1);
        assert_eq!(builder.config().filter_layer_index(), Some(1));
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        let y = blurred.batch_engine().unwrap().forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 18]);
        // The fixed blur layer adds no parameters.
        assert_eq!(blurred.parameter_count(), plain.parameter_count());
    }

    #[test]
    fn trainable_depthwise_variant_adds_parameters() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let plain = LisaCnn::new(18).build(&mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let dw = LisaCnn::new(18)
            .with_trainable_depthwise(5)
            .build(&mut rng)
            .unwrap();
        assert!(dw.parameter_count() > plain.parameter_count());
    }

    #[test]
    fn feature_map_activation_has_documented_extent() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let builder = LisaCnn::new(18);
        let net = builder.build(&mut rng).unwrap();
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        let engine = net.batch_engine().unwrap();
        let fm = engine
            .activation(&x, builder.config().feature_layer_index())
            .unwrap();
        let extent = builder.config().feature_map_extent();
        assert_eq!(fm.dims(), &[1, 8, extent, extent]);
        // Second-conv activations for Figure 4.
        let second = engine
            .activation(&x, builder.config().second_conv_layer_index())
            .unwrap();
        assert_eq!(second.dims()[1], builder.config().conv2_filters);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert!(LisaCnn::new(0).build(&mut rng).is_err());
        assert!(LisaCnn::new(18).input_size(30).build(&mut rng).is_err());
    }

    #[test]
    fn smaller_input_sizes_build() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let builder = LisaCnn::new(4).input_size(16).conv1_filters(4);
        let net = builder.build(&mut rng).unwrap();
        let engine = net.batch_engine().unwrap();
        let y = engine.forward(&Tensor::zeros(&[1, 3, 16, 16])).unwrap();
        assert_eq!(y.dims(), &[1, 4]);
    }
}

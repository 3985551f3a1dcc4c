//! The [`Layer`] abstraction and the [`LayerKind`] enum used by
//! [`crate::Sequential`].

use blurnet_tensor::{Scratch, Tensor};

use crate::{Conv2d, Dense, DepthwiseConv2d, Flatten, MaxPool2d, NnError, Relu, Result};

/// A caller-owned backward record for one layer, written by
/// [`Layer::infer_recording`] and consumed by [`Layer::input_grad`] and
/// [`Layer::param_grad`].
///
/// Layers hold no forward caches: the record lives with the caller, so
/// one frozen network can run many recorded forward/backward passes
/// concurrently (one tape vector per batch shard). Slots are deliberately
/// minimal — the input-gradient backward never needs the forward input
/// itself, only the ReLU sign mask, the max-pool argmax table and input
/// shapes. The parameter-gradient step reads the forward input from the
/// recorded pass's owned layer outputs instead.
#[derive(Debug, Default, Clone)]
pub enum TapeSlot {
    /// Nothing recorded (layers whose input gradient needs no forward
    /// state, e.g. dense: `dx = g · W`), and the initial state of a slot.
    #[default]
    Empty,
    /// The forward input's dimensions (convolutions fold `g · W` back into
    /// this shape; flatten reshapes into it).
    InputDims(Vec<usize>),
    /// ReLU sign mask: `1.0` where the forward input was positive.
    ReluMask(Tensor),
    /// Max-pool argmax table plus the input dimensions it indexes into.
    PoolArgmax {
        /// Flat input index of the maximum for every output element.
        argmax: Vec<usize>,
        /// Dimensions of the pooled input.
        input_dims: Vec<usize>,
    },
}

impl TapeSlot {
    /// The error raised when a slot does not hold `layer`'s record — a
    /// backward step without its recorded forward.
    pub(crate) fn mismatch(layer: &'static str) -> NnError {
        NnError::MissingForwardCache(layer.to_string())
    }
}

/// A single differentiable network layer.
///
/// Every method takes `&self`: a layer is its parameters and nothing
/// else. The forward record a backward step needs lives in a
/// caller-owned [`TapeSlot`] (written by [`Layer::infer_recording`]), and
/// gradients are returned, never accumulated inside the layer. The batch
/// engine drives both backward steps: [`Layer::input_grad`] for attack
/// generation and [`Layer::param_grad`] for training.
pub trait Layer: std::fmt::Debug {
    /// Human-readable layer name used in error messages and summaries.
    fn name(&self) -> &'static str;

    /// Runs the layer in pure inference mode, drawing workspace buffers
    /// from the caller's `scratch` pool.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn infer(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor>;

    /// Runs the layer like [`Layer::infer`], additionally recording into
    /// the caller-owned `tape` exactly what a subsequent backward step
    /// needs. Produces bit-identical outputs to [`Layer::infer`].
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor>;

    /// Propagates `grad_output` back through the layer, consuming the
    /// record a prior [`Layer::infer_recording`] call wrote into `tape`
    /// and returning the gradient with respect to the layer input. No
    /// parameter gradients are computed — this is the attack-generation
    /// backward, where only the input gradient matters.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::MissingForwardCache`] if `tape` does not
    /// hold this layer's record, or a shape error if `grad_output` does
    /// not match the recorded forward output.
    fn input_grad(
        &self,
        tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor>;

    /// The training backward step: the gradient with respect to the layer
    /// input plus one gradient per trainable parameter, in
    /// [`Layer::params`] order. `input` is the forward input the recorded
    /// pass kept for this layer.
    ///
    /// The default serves parameter-free layers: the input gradient of
    /// [`Layer::input_grad`] and no parameter gradients.
    ///
    /// # Errors
    ///
    /// As [`Layer::input_grad`], plus a shape error if `input` does not
    /// match the recorded forward input.
    fn param_grad(
        &self,
        _input: &Tensor,
        tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        Ok((self.input_grad(tape, grad_output, scratch)?, Vec::new()))
    }

    /// The trainable parameters, in a stable order. Parameter-free layers
    /// keep the empty default.
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable access to the trainable parameters for the optimizer, in
    /// the same order as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Number of trainable scalar parameters.
    fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// A concrete layer. [`crate::Sequential`] stores this enum so whole
/// networks can be cloned and persisted without trait objects.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum LayerKind {
    /// Standard 2-D convolution.
    Conv2d(Conv2d),
    /// Depthwise (per-channel) 2-D convolution — the BlurNet filter layer.
    Depthwise(DepthwiseConv2d),
    /// Rectified linear activation.
    Relu(Relu),
    /// 2-D max pooling.
    MaxPool(MaxPool2d),
    /// Flattens `[N, C, H, W]` to `[N, C·H·W]`.
    Flatten(Flatten),
    /// Fully-connected layer.
    Dense(Dense),
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            LayerKind::Conv2d($inner) => $body,
            LayerKind::Depthwise($inner) => $body,
            LayerKind::Relu($inner) => $body,
            LayerKind::MaxPool($inner) => $body,
            LayerKind::Flatten($inner) => $body,
            LayerKind::Dense($inner) => $body,
        }
    };
}

impl Layer for LayerKind {
    fn name(&self) -> &'static str {
        dispatch!(self, l => l.name())
    }

    fn infer(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        dispatch!(self, l => l.infer(input, scratch))
    }

    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        dispatch!(self, l => l.infer_recording(input, tape, scratch))
    }

    fn input_grad(
        &self,
        tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        dispatch!(self, l => l.input_grad(tape, grad_output, scratch))
    }

    fn param_grad(
        &self,
        input: &Tensor,
        tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        dispatch!(self, l => l.param_grad(input, tape, grad_output, scratch))
    }

    fn params(&self) -> Vec<&Tensor> {
        dispatch!(self, l => l.params())
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        dispatch!(self, l => l.params_mut())
    }
}

impl From<Conv2d> for LayerKind {
    fn from(l: Conv2d) -> Self {
        LayerKind::Conv2d(l)
    }
}

impl From<DepthwiseConv2d> for LayerKind {
    fn from(l: DepthwiseConv2d) -> Self {
        LayerKind::Depthwise(l)
    }
}

impl From<Relu> for LayerKind {
    fn from(l: Relu) -> Self {
        LayerKind::Relu(l)
    }
}

impl From<MaxPool2d> for LayerKind {
    fn from(l: MaxPool2d) -> Self {
        LayerKind::MaxPool(l)
    }
}

impl From<Flatten> for LayerKind {
    fn from(l: Flatten) -> Self {
        LayerKind::Flatten(l)
    }
}

impl From<Dense> for LayerKind {
    fn from(l: Dense) -> Self {
        LayerKind::Dense(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn enum_dispatch_matches_inner_layer() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let conv = Conv2d::new(
            3,
            4,
            3,
            blurnet_tensor::ConvSpec::same(3).unwrap(),
            &mut rng,
        )
        .unwrap();
        let kind: LayerKind = conv.clone().into();
        assert_eq!(kind.name(), "conv2d");
        assert_eq!(kind.parameter_count(), conv.parameter_count());
        let input = Tensor::zeros(&[1, 3, 8, 8]);
        let out = kind.infer(&input, &mut Scratch::new()).unwrap();
        assert_eq!(out.dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn non_trainable_layers_have_no_params() {
        let relu: LayerKind = Relu::new().into();
        assert_eq!(relu.parameter_count(), 0);
        let flat: LayerKind = Flatten::new().into();
        assert_eq!(flat.parameter_count(), 0);
    }
}

//! Standard 2-D convolution layer.

use blurnet_tensor::{ConvSpec, Initializer, PackedConvWeights, Scratch, Tensor};
use rand::Rng;

use crate::{Layer, NnError, Result, TapeSlot};

/// A trainable 2-D convolution layer with bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    spec: ConvSpec,
}

impl Conv2d {
    /// Creates a convolution layer with `out_channels` filters of size
    /// `kernel × kernel` over `in_channels` input channels, using Kaiming
    /// initialization for the weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if any size is zero.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        spec: ConvSpec,
        rng: &mut R,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 {
            return Err(NnError::BadConfig(
                "conv2d sizes must be non-zero".to_string(),
            ));
        }
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = Initializer::KaimingUniform.init(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            fan_out,
            rng,
        );
        Ok(Conv2d {
            bias: Tensor::zeros(&[out_channels]),
            weight,
            spec,
        })
    }

    /// Reassembles a layer from persisted parameters: `weight` must be
    /// `[F, C, KH, KW]` and `bias` `[F]`. The parameters are the layer's
    /// whole state, so save→load→infer is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when the shapes disagree.
    pub(crate) fn from_parts(weight: Tensor, bias: Tensor, spec: ConvSpec) -> Result<Self> {
        if weight.shape().rank() != 4 {
            return Err(NnError::BadConfig(format!(
                "conv2d weight must be rank 4, got {}",
                weight.shape()
            )));
        }
        if bias.shape().rank() != 1 || bias.dims()[0] != weight.dims()[0] {
            return Err(NnError::BadConfig(format!(
                "conv2d bias must be [{}], got {}",
                weight.dims()[0],
                bias.shape()
            )));
        }
        Ok(Conv2d { weight, bias, spec })
    }

    /// The convolution stride/padding spec.
    pub(crate) fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// The filter weights `[F, C, KH, KW]`.
    pub(crate) fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector `[F]`.
    pub(crate) fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Packs the filter weights into the GEMM-ready transposed layout used
    /// by [`Backend::conv2d_prepacked`](blurnet_tensor::Backend::conv2d_prepacked).
    /// The batch engine calls this once per forward pass and shares the
    /// pack across batch shards.
    ///
    /// # Errors
    ///
    /// Never fails for a constructed layer (the weights are always rank 4).
    pub(crate) fn packed_weights(&self) -> Result<PackedConvWeights> {
        PackedConvWeights::pack(&self.weight).map_err(NnError::from)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn infer(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        Ok(scratch
            .backend()
            .conv2d(input, &self.weight, Some(&self.bias), self.spec, scratch)?)
    }

    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let out = self.infer(input, scratch)?;
        // The input gradient `col2im(g · W)` never reads the input itself —
        // only its shape.
        *tape = TapeSlot::InputDims(input.dims().to_vec());
        Ok(out)
    }

    fn input_grad(
        &self,
        tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let TapeSlot::InputDims(dims) = tape else {
            return Err(TapeSlot::mismatch(self.name()));
        };
        Ok(scratch.backend().conv2d_input_grad(
            &self.weight,
            grad_output,
            dims,
            self.spec,
            scratch,
        )?)
    }

    fn param_grad(
        &self,
        input: &Tensor,
        _tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        let grads = scratch.backend().conv2d_backward(
            input,
            &self.weight,
            grad_output,
            self.spec,
            scratch,
        )?;
        Ok((grads.d_input, vec![grads.d_weight, grads.d_bias]))
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_shape_and_backward_cache() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let conv = Conv2d::new(3, 8, 5, ConvSpec::new(2, 2).unwrap(), &mut rng).unwrap();
        let input = Tensor::zeros(&[2, 3, 32, 32]);
        let mut scratch = Scratch::new();
        let mut tape = TapeSlot::default();
        let out = conv
            .infer_recording(&input, &mut tape, &mut scratch)
            .unwrap();
        assert_eq!(out.dims(), &[2, 8, 16, 16]);
        let grad = Tensor::ones(out.dims());
        let (d_input, params) = conv.param_grad(&input, &tape, &grad, &mut scratch).unwrap();
        assert_eq!(d_input.dims(), input.dims());
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].dims(), conv.weight().dims());
        assert_eq!(params[1].dims(), conv.bias().dims());
        // The training step's input gradient is the attack path's.
        let via_tape = conv.input_grad(&tape, &grad, &mut scratch).unwrap();
        assert_eq!(d_input, via_tape);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let conv = Conv2d::new(1, 1, 3, ConvSpec::same(3).unwrap(), &mut rng).unwrap();
        assert!(matches!(
            conv.input_grad(
                &TapeSlot::Empty,
                &Tensor::zeros(&[1, 1, 4, 4]),
                &mut Scratch::new()
            ),
            Err(NnError::MissingForwardCache(_))
        ));
    }

    #[test]
    fn param_grads_are_stateless() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let conv = Conv2d::new(1, 2, 3, ConvSpec::same(3).unwrap(), &mut rng).unwrap();
        let input = Tensor::ones(&[1, 1, 4, 4]);
        let mut scratch = Scratch::new();
        let tape = TapeSlot::InputDims(input.dims().to_vec());
        let grad = Tensor::ones(&[1, 2, 4, 4]);
        let (_, first) = conv.param_grad(&input, &tape, &grad, &mut scratch).unwrap();
        assert!(first[0].l1_norm() > 0.0);
        // Nothing accumulates between steps: a repeat is bit-identical.
        let (_, again) = conv.param_grad(&input, &tape, &grad, &mut scratch).unwrap();
        assert_eq!(first, again);
        // Parameter gradients are linear in the output gradient.
        let (_, doubled) = conv
            .param_grad(&input, &tape, &grad.scale(2.0), &mut scratch)
            .unwrap();
        assert!((doubled[0].l1_norm() - 2.0 * first[0].l1_norm()).abs() < 1e-3);
    }

    #[test]
    fn rejects_zero_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(Conv2d::new(0, 1, 3, ConvSpec::same(3).unwrap(), &mut rng).is_err());
        assert!(Conv2d::new(1, 0, 3, ConvSpec::same(3).unwrap(), &mut rng).is_err());
        assert!(Conv2d::new(1, 1, 0, ConvSpec::same(3).unwrap(), &mut rng).is_err());
    }

    #[test]
    fn parameter_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let conv = Conv2d::new(3, 8, 5, ConvSpec::same(5).unwrap(), &mut rng).unwrap();
        assert_eq!(conv.parameter_count(), 8 * 3 * 5 * 5 + 8);
    }
}

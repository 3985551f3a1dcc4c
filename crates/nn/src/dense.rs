//! Fully-connected (dense) layer.

use blurnet_tensor::{Initializer, Scratch, Tensor};
use rand::Rng;

use crate::{Layer, NnError, Result, TapeSlot};

/// A fully-connected layer computing `x · Wᵀ + b` for `x: [N, in]`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
}

impl Dense {
    /// Creates a dense layer mapping `in_features` to `out_features`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if either size is zero.
    pub fn new<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::BadConfig("dense sizes must be non-zero".into()));
        }
        let weight = Initializer::XavierUniform.init(
            &[out_features, in_features],
            in_features,
            out_features,
            rng,
        );
        Ok(Dense {
            bias: Tensor::zeros(&[out_features]),
            weight,
        })
    }

    /// Reassembles a layer from persisted parameters: `weight` must be
    /// `[out, in]` and `bias` `[out]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when the shapes disagree.
    pub(crate) fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.shape().rank() != 2 {
            return Err(NnError::BadConfig(format!(
                "dense weight must be rank 2, got {}",
                weight.shape()
            )));
        }
        if bias.shape().rank() != 1 || bias.dims()[0] != weight.dims()[0] {
            return Err(NnError::BadConfig(format!(
                "dense bias must be [{}], got {}",
                weight.dims()[0],
                bias.shape()
            )));
        }
        Ok(Dense { weight, bias })
    }

    /// The weight matrix `[out, in]`.
    pub(crate) fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector `[out]`.
    pub(crate) fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The weight matrix pre-transposed to `[in, out]`, so inference is a
    /// plain stride-1 matmul. The batch engine transposes once per
    /// forward pass and shares the result across batch shards.
    pub(crate) fn weight_transposed(&self) -> Tensor {
        let (out_f, in_f) = (self.weight.dims()[0], self.weight.dims()[1]);
        let mut data = vec![0.0f32; in_f * out_f];
        let w = self.weight.data();
        for o in 0..out_f {
            for i in 0..in_f {
                data[i * out_f + o] = w[o * in_f + i];
            }
        }
        Tensor::from_vec(data, &[in_f, out_f]).expect("transpose preserves volume")
    }

    pub(crate) fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.shape().rank() != 2 || input.dims()[1] != self.weight.dims()[1] {
            return Err(NnError::BadConfig(format!(
                "dense expects [N, {}], got {}",
                self.weight.dims()[1],
                input.shape()
            )));
        }
        Ok(())
    }

    pub(crate) fn add_bias(&self, out: &mut Tensor) {
        let (n, o) = (out.dims()[0], out.dims()[1]);
        let bias = self.bias.data().to_vec();
        let data = out.data_mut();
        for i in 0..n {
            for j in 0..o {
                data[i * o + j] += bias[j];
            }
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn infer(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        self.check_input(input)?;
        let mut out = scratch
            .backend()
            .matmul_transpose_b(input, &self.weight, scratch)?;
        self.add_bias(&mut out);
        Ok(out)
    }

    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        // `dx = g · W` needs no forward state at all.
        *tape = TapeSlot::Empty;
        self.infer(input, scratch)
    }

    fn input_grad(
        &self,
        _tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        // dx = g · W : [N, in]
        Ok(scratch.backend().matmul(grad_output, &self.weight)?)
    }

    fn param_grad(
        &self,
        input: &Tensor,
        _tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        let backend = scratch.backend();
        // dW = gᵀ · x : [out, in]
        let weight_grad = backend.matmul_transpose_a(grad_output, input)?;
        // db = column sums of g.
        let (n, o) = (grad_output.dims()[0], grad_output.dims()[1]);
        let g = grad_output.data();
        let mut bias_grad = vec![0.0f32; o];
        for i in 0..n {
            for j in 0..o {
                bias_grad[j] += g[i * o + j];
            }
        }
        // dx = g · W : [N, in]
        let d_input = backend.matmul(grad_output, &self.weight)?;
        Ok((
            d_input,
            vec![weight_grad, Tensor::from_vec(bias_grad, &[o])?],
        ))
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
    fn forward_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let dense = Dense::new(8, 4, &mut rng).unwrap();
        let mut scratch = Scratch::new();
        let y = dense.infer(&Tensor::ones(&[3, 8]), &mut scratch).unwrap();
        assert_eq!(y.dims(), &[3, 4]);
        assert!(dense.infer(&Tensor::ones(&[3, 5]), &mut scratch).is_err());
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let dense = Dense::new(5, 3, &mut rng).unwrap();
        let mut scratch = Scratch::new();
        let x = Tensor::rand_uniform(&[2, 5], -1.0, 1.0, &mut rng);
        let mut tape = TapeSlot::default();
        let y = dense.infer_recording(&x, &mut tape, &mut scratch).unwrap();
        let grad = Tensor::ones(y.dims());
        let (dx, params) = dense.param_grad(&x, &tape, &grad, &mut scratch).unwrap();
        let eps = 1e-2f32;
        // Input gradient check.
        for &idx in &[0usize, 4, 9] {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let f_plus = dense.infer(&plus, &mut scratch).unwrap().sum();
            let f_minus = dense.infer(&minus, &mut scratch).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!((numeric - dx.data()[idx]).abs() < 1e-2);
        }
        // Bias gradient of a sum loss is the batch size.
        for &b in params[1].data() {
            assert!((b - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_sizes_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(Dense::new(0, 3, &mut rng).is_err());
        assert!(Dense::new(3, 0, &mut rng).is_err());
    }
}

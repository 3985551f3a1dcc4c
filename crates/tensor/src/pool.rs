use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::{Result, Tensor, TensorError};

/// Output elements below which pooling stays sequential.
const PAR_WORK: usize = 1 << 15;

/// Window size and stride for 2-D max pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolSpec {
    /// Square window extent.
    pub window: usize,
    /// Stride applied to both spatial dimensions.
    pub stride: usize,
}

impl PoolSpec {
    /// Creates a pooling spec.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSpec`] if either field is zero.
    pub fn new(window: usize, stride: usize) -> Result<Self> {
        if window == 0 || stride == 0 {
            return Err(TensorError::InvalidSpec(
                "pooling window and stride must be non-zero".into(),
            ));
        }
        Ok(PoolSpec { window, stride })
    }

    /// Output extent for an input extent.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSpec`] if the window exceeds the input.
    pub fn output_extent(&self, input: usize) -> Result<usize> {
        if self.window > input {
            return Err(TensorError::InvalidSpec(format!(
                "pool window {} exceeds input extent {input}",
                self.window
            )));
        }
        Ok((input - self.window) / self.stride + 1)
    }
}

/// Output of [`Backend::max_pool2d`](crate::Backend::max_pool2d): pooled
/// values and argmax indices for backward.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled activations `[N, C, OH, OW]`.
    pub output: Tensor,
    /// Flat input index of the maximum for every output element.
    pub argmax: Vec<usize>,
}

/// 2-D max pooling over an `[N, C, H, W]` tensor.
///
/// # Errors
///
/// Returns an error if the input is not rank 4 or the window does not fit.
pub(crate) fn max_pool2d(input: &Tensor, spec: PoolSpec) -> Result<MaxPoolOutput> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.shape().rank(),
        });
    }
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let oh = spec.output_extent(h)?;
    let ow = spec.output_extent(w)?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];
    let data = input.data();

    // One (image, channel) plane per task: the output and argmax chunks are
    // disjoint, so planes pool rayon-parallel once the batch is large enough.
    let plane = |pi: usize, (out_plane, arg_plane): (&mut [f32], &mut [usize])| {
        let base = pi * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = base;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        let y = oy * spec.stride + ky;
                        let x = ox * spec.stride + kx;
                        let idx = base + y * w + x;
                        if data[idx] > best {
                            best = data[idx];
                            best_idx = idx;
                        }
                    }
                }
                out_plane[oy * ow + ox] = best;
                arg_plane[oy * ow + ox] = best_idx;
            }
        }
    };
    if out.len() * spec.window * spec.window < PAR_WORK || rayon::current_num_threads() <= 1 {
        for (pi, pair) in out
            .chunks_mut(oh * ow)
            .zip(argmax.chunks_mut(oh * ow))
            .enumerate()
        {
            plane(pi, pair);
        }
    } else {
        out.par_chunks_mut(oh * ow)
            .zip(argmax.par_chunks_mut(oh * ow))
            .enumerate()
            .for_each(|(pi, pair)| plane(pi, pair));
    }
    Ok(MaxPoolOutput {
        output: Tensor::from_vec(out, &[n, c, oh, ow])?,
        argmax,
    })
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the input
/// position that produced the maximum.
///
/// # Errors
///
/// Returns an error if `grad_output` does not match the recorded pooling
/// output shape, or [`TensorError::IndexOutOfBounds`] if a recorded argmax
/// index falls outside `input_dims` (a stale or corrupted argmax recording
/// — e.g. one captured against different input dimensions).
pub(crate) fn max_pool2d_backward(
    grad_output: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor> {
    if grad_output.len() != argmax.len() {
        return Err(TensorError::ShapeMismatch {
            left: vec![grad_output.len()],
            right: vec![argmax.len()],
        });
    }
    let mut d_input = Tensor::zeros(input_dims);
    let g = grad_output.data();
    let d = d_input.data_mut();
    let len = d.len();
    for (i, &src) in argmax.iter().enumerate() {
        *d.get_mut(src)
            .ok_or(TensorError::IndexOutOfBounds { index: src, len })? += g[i];
    }
    Ok(d_input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_spec_validation() {
        assert!(PoolSpec::new(2, 2).is_ok());
        assert!(PoolSpec::new(0, 2).is_err());
        assert!(PoolSpec::new(2, 0).is_err());
        assert!(PoolSpec::new(4, 1).unwrap().output_extent(3).is_err());
    }

    #[test]
    fn max_pool_known_values() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let spec = PoolSpec::new(2, 2).unwrap();
        let pooled = max_pool2d(&input, spec).unwrap();
        assert_eq!(pooled.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(pooled.output.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let spec = PoolSpec::new(2, 2).unwrap();
        let pooled = max_pool2d(&input, spec).unwrap();
        let grad = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let d_input = max_pool2d_backward(&grad, &pooled.argmax, input.dims()).unwrap();
        // Gradient must land exactly on the max positions (values 4, 8, 12, 16).
        assert_eq!(d_input.get(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(d_input.get(&[0, 0, 1, 3]).unwrap(), 2.0);
        assert_eq!(d_input.get(&[0, 0, 3, 1]).unwrap(), 3.0);
        assert_eq!(d_input.get(&[0, 0, 3, 3]).unwrap(), 4.0);
        assert_eq!(d_input.sum(), 10.0);
    }

    #[test]
    fn max_pool_backward_rejects_out_of_bounds_argmax() {
        // An argmax recorded against a larger input must not scatter past
        // the end of the gradient buffer.
        let grad = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap();
        let err = max_pool2d_backward(&grad, &[16], &[1, 1, 2, 2]).unwrap_err();
        assert_eq!(err, TensorError::IndexOutOfBounds { index: 16, len: 4 });
    }

    #[test]
    fn max_pool_requires_rank4() {
        let input = Tensor::zeros(&[4, 4]);
        assert!(max_pool2d(&input, PoolSpec::new(2, 2).unwrap()).is_err());
    }
}

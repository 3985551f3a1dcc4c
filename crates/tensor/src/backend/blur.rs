//! Separable blur kernels: the filtering primitive of the BlurNet defense.
//!
//! Box and Gaussian kernels are rank-1 (`K = u·vᵀ`), so [`blur_batch`]
//! factors the kernel once and applies two 1-D passes — `O(k)` work per
//! pixel instead of `O(k²)` — with planes distributed over rayon threads
//! and the row-pass intermediate drawn from the shared [`Scratch`] pool.
//! Non-separable kernels fall back to the generic depthwise 2-D path.
//!
//! It is reachable only through
//! [`Backend::blur_batch`](super::Backend::blur_batch) and
//! [`Backend::blur_image`](super::Backend::blur_image); `blurnet-signal`
//! supplies the kernel constructors. The blur is tier-independent — no
//! kernel here carries SIMD dispatch — so it is byte-identical on every
//! [`SimdTier`](super::SimdTier).

use rayon::prelude::*;

use crate::{ConvSpec, Result, Scratch, Tensor, TensorError};

/// Work (in multiply-adds) below which the blur stays sequential.
const PAR_WORK: usize = 1 << 16;

/// Attempts a rank-1 factorisation `K = u · vᵀ` of a square kernel.
///
/// Pivots on the largest-magnitude entry and verifies the reconstruction to
/// a relative 1e-6, so float noise in a genuinely separable kernel (box,
/// Gaussian) passes while mixed kernels are rejected. Returns `(u, v)` with
/// `u` the column (vertical) factor and `v` the row (horizontal) factor.
pub fn separable_factors(kernel: &Tensor) -> Option<(Vec<f32>, Vec<f32>)> {
    if kernel.shape().rank() != 2 || kernel.dims()[0] != kernel.dims()[1] {
        return None;
    }
    let k = kernel.dims()[0];
    let data = kernel.data();
    let (mut py, mut px, mut peak) = (0usize, 0usize, 0.0f32);
    for y in 0..k {
        for x in 0..k {
            let v = data[y * k + x].abs();
            if v > peak {
                peak = v;
                py = y;
                px = x;
            }
        }
    }
    if peak == 0.0 {
        // The zero kernel is trivially separable.
        return Some((vec![0.0; k], vec![0.0; k]));
    }
    let pivot = data[py * k + px];
    let u: Vec<f32> = (0..k).map(|y| data[y * k + px]).collect();
    let v: Vec<f32> = (0..k).map(|x| data[py * k + x] / pivot).collect();
    let tol = 1e-6 * peak;
    for y in 0..k {
        for x in 0..k {
            if (data[y * k + x] - u[y] * v[x]).abs() > tol {
                return None;
            }
        }
    }
    Some((u, v))
}

/// Horizontal "same" 1-D pass: `dst[y][x] = Σ_t v[t] · src[y][x + t - pad]`,
/// written as shifted-slice axpy so the inner loop vectorises.
fn row_pass(dst: &mut [f32], src: &[f32], v: &[f32], h: usize, w: usize) {
    let k = v.len();
    let pad = (k / 2) as isize;
    dst.fill(0.0);
    for (t, &weight) in v.iter().enumerate() {
        let dx = t as isize - pad;
        let x_lo = (-dx).max(0) as usize;
        let x_hi = ((w as isize - dx).min(w as isize)).max(0) as usize;
        if x_lo >= x_hi {
            continue;
        }
        for y in 0..h {
            let src_start = y * w + (dx + x_lo as isize) as usize;
            let s = &src[src_start..src_start + (x_hi - x_lo)];
            let d = &mut dst[y * w + x_lo..y * w + x_hi];
            for (o, &x) in d.iter_mut().zip(s.iter()) {
                *o += weight * x;
            }
        }
    }
}

/// Vertical "same" 1-D pass: `dst[y][x] = Σ_t u[t] · src[y + t - pad][x]`,
/// written as whole-row axpy.
fn col_pass(dst: &mut [f32], src: &[f32], u: &[f32], h: usize, w: usize) {
    let k = u.len();
    let pad = (k / 2) as isize;
    dst.fill(0.0);
    for (t, &weight) in u.iter().enumerate() {
        let dy = t as isize - pad;
        let y_lo = (-dy).max(0) as usize;
        let y_hi = ((h as isize - dy).min(h as isize)).max(0) as usize;
        for y in y_lo..y_hi {
            let s_row = ((y as isize + dy) as usize) * w;
            let s = &src[s_row..s_row + w];
            let d = &mut dst[y * w..y * w + w];
            for (o, &x) in d.iter_mut().zip(s.iter()) {
                *o += weight * x;
            }
        }
    }
}

/// Expands a single `[K, K]` kernel into per-channel depthwise weights
/// `[C, K, K]` so every channel is filtered identically.
fn depthwise_weights(kernel: &Tensor, channels: usize) -> Result<Tensor> {
    if kernel.shape().rank() != 2 || kernel.dims()[0] != kernel.dims()[1] {
        return Err(TensorError::InvalidSpec(format!(
            "blur kernel must be a square rank-2 tensor, got {}",
            kernel.shape()
        )));
    }
    let k = kernel.dims()[0];
    let mut data = Vec::with_capacity(channels * k * k);
    for _ in 0..channels {
        data.extend_from_slice(kernel.data());
    }
    Tensor::from_vec(data, &[channels, k, k])
}

/// Applies a blur kernel to every channel of an `[N, C, H, W]` batch using
/// "same" padding; separable odd kernels take the two-pass fast path,
/// everything else falls back to [`blur_batch_2d`].
pub(crate) fn blur_batch(batch: &Tensor, kernel: &Tensor) -> Result<Tensor> {
    if batch.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: batch.shape().rank(),
        });
    }
    let k = kernel.dims().first().copied().unwrap_or(0);
    match separable_factors(kernel) {
        Some((u, v)) if k % 2 == 1 => {
            let d = batch.dims();
            let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
            let planes = n * c;
            let hw = h * w;
            let data = batch.data();
            let mut out = vec![0.0f32; planes * hw];
            Scratch::with_thread_local(|scratch| {
                let mut tmp = scratch.take_dirty(planes * hw);
                // Pass 1 (horizontal) into tmp, pass 2 (vertical) into out;
                // each plane is written by exactly one task.
                if planes * hw * k < PAR_WORK || rayon::current_num_threads() <= 1 {
                    for (pi, t) in tmp.chunks_mut(hw).enumerate() {
                        row_pass(t, &data[pi * hw..(pi + 1) * hw], &v, h, w);
                    }
                    for (pi, o) in out.chunks_mut(hw).enumerate() {
                        col_pass(o, &tmp[pi * hw..(pi + 1) * hw], &u, h, w);
                    }
                } else {
                    tmp.par_chunks_mut(hw).enumerate().for_each(|(pi, t)| {
                        row_pass(t, &data[pi * hw..(pi + 1) * hw], &v, h, w);
                    });
                    let tmp_ref: &[f32] = &tmp;
                    out.par_chunks_mut(hw).enumerate().for_each(|(pi, o)| {
                        col_pass(o, &tmp_ref[pi * hw..(pi + 1) * hw], &u, h, w);
                    });
                }
                scratch.put(tmp);
            });
            Tensor::from_vec(out, &[n, c, h, w])
        }
        _ => blur_batch_2d(batch, kernel),
    }
}

/// Generic 2-D blur path: depthwise convolution with the full `k × k`
/// kernel, used for non-separable kernels.
fn blur_batch_2d(batch: &Tensor, kernel: &Tensor) -> Result<Tensor> {
    if batch.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: batch.shape().rank(),
        });
    }
    let channels = batch.dims()[1];
    let weights = depthwise_weights(kernel, channels)?;
    let k = kernel.dims()[0];
    let spec = ConvSpec::same(k)?;
    crate::conv::depthwise_conv2d(batch, &weights, None, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box_kernel(k: usize) -> Tensor {
        Tensor::full(&[k, k], 1.0 / (k * k) as f32)
    }

    #[test]
    fn separable_path_matches_2d_path() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let batch = Tensor::rand_uniform(&[2, 3, 13, 9], -1.0, 1.0, &mut rng);
        for kernel in [box_kernel(3), box_kernel(5)] {
            let fast = blur_batch(&batch, &kernel).unwrap();
            let slow = blur_batch_2d(&batch, &kernel).unwrap();
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn shape_errors() {
        let k = box_kernel(3);
        assert!(blur_batch(&Tensor::zeros(&[3, 4, 4]), &k).is_err());
        // Even kernels have no symmetric "same" padding.
        assert!(blur_batch(&Tensor::zeros(&[1, 1, 4, 4]), &Tensor::full(&[2, 2], 0.25)).is_err());
        // Non-square kernels are rejected by the 2-D fallback.
        assert!(blur_batch(&Tensor::zeros(&[1, 1, 4, 4]), &Tensor::zeros(&[3, 4])).is_err());
    }
}

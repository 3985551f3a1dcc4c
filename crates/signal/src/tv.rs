//! Total variation (TV) of images and feature maps, and its sub-gradient.
//!
//! The paper's strongest defense (Eq. 3–4) adds the anisotropic total
//! variation of the first-layer feature maps to the training loss; the
//! adaptive attack of Eq. 9 adds the same term to the attacker's loss.
//! Both need the value and the (sub-)gradient implemented here.

use blurnet_tensor::Tensor;

use crate::{Result, SignalError};

fn require_2d(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(SignalError::BadShape(format!(
            "expected a rank-2 map, got shape {}",
            t.shape()
        )));
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Anisotropic total variation of an `[H, W]` map:
/// `Σ |x[i+1,j] − x[i,j]| + |x[i,j+1] − x[i,j]|`.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
pub fn total_variation(map: &Tensor) -> Result<f32> {
    let (h, w) = require_2d(map)?;
    let d = map.data();
    let mut tv = 0.0f32;
    for y in 0..h {
        for x in 0..w {
            let v = d[y * w + x];
            if y + 1 < h {
                tv += (d[(y + 1) * w + x] - v).abs();
            }
            if x + 1 < w {
                tv += (d[y * w + x + 1] - v).abs();
            }
        }
    }
    Ok(tv)
}

/// Sub-gradient of [`total_variation`] with respect to the map.
///
/// Uses `sign(0) = 0`, the usual convention for the non-differentiable
/// points of the absolute value.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
fn tv_gradient(map: &Tensor) -> Result<Tensor> {
    let (h, w) = require_2d(map)?;
    let d = map.data();
    let mut grad = vec![0.0f32; h * w];
    for y in 0..h {
        for x in 0..w {
            let v = d[y * w + x];
            if y + 1 < h {
                let s = sign(d[(y + 1) * w + x] - v);
                grad[(y + 1) * w + x] += s;
                grad[y * w + x] -= s;
            }
            if x + 1 < w {
                let s = sign(d[y * w + x + 1] - v);
                grad[y * w + x + 1] += s;
                grad[y * w + x] -= s;
            }
        }
    }
    Ok(Tensor::from_vec(grad, &[h, w])?)
}

fn sign(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Mean total variation across every `[H, W]` map of an `[N, C, H, W]`
/// batch — the `1/(N·K) Σ TV(F)` term of Eq. 4.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 4.
pub fn total_variation_batch(batch: &Tensor) -> Result<f32> {
    let (n, c, h, w) = batch_dims(batch)?;
    let d = batch.data();
    let mut acc = 0.0f32;
    for i in 0..n * c {
        let map = Tensor::from_vec(d[i * h * w..(i + 1) * h * w].to_vec(), &[h, w])?;
        acc += total_variation(&map)?;
    }
    Ok(acc / (n * c) as f32)
}

/// Gradient of [`total_variation_batch`] with respect to the batch.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 4.
pub fn tv_gradient_batch(batch: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = batch_dims(batch)?;
    let d = batch.data();
    let scale = 1.0 / (n * c) as f32;
    let mut out = Vec::with_capacity(batch.len());
    for i in 0..n * c {
        let map = Tensor::from_vec(d[i * h * w..(i + 1) * h * w].to_vec(), &[h, w])?;
        let g = tv_gradient(&map)?;
        out.extend(g.data().iter().map(|v| v * scale));
    }
    Ok(Tensor::from_vec(out, &[n, c, h, w])?)
}

fn batch_dims(batch: &Tensor) -> Result<(usize, usize, usize, usize)> {
    if batch.shape().rank() != 4 {
        return Err(SignalError::BadShape(format!(
            "expected an [N, C, H, W] batch, got {}",
            batch.shape()
        )));
    }
    let d = batch.dims();
    Ok((d[0], d[1], d[2], d[3]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_map_has_zero_tv() {
        let map = Tensor::full(&[8, 8], 3.0);
        assert_eq!(total_variation(&map).unwrap(), 0.0);
        assert_eq!(tv_gradient(&map).unwrap().l2_norm(), 0.0);
    }

    #[test]
    fn step_edge_tv_is_edge_length() {
        // Left half zeros, right half ones: H horizontal jumps of size 1.
        let h = 6;
        let w = 8;
        let mut map = Tensor::zeros(&[h, w]);
        for y in 0..h {
            for x in w / 2..w {
                map.set(&[y, x], 1.0).unwrap();
            }
        }
        assert_eq!(total_variation(&map).unwrap(), h as f32);
    }

    #[test]
    fn isolated_spike_has_large_tv() {
        let mut smooth = Tensor::zeros(&[8, 8]);
        let mut spiked = Tensor::zeros(&[8, 8]);
        spiked.set(&[4, 4], 5.0).unwrap();
        // Add a gentle ramp to both.
        for y in 0..8 {
            for x in 0..8 {
                let ramp = 0.05 * (x + y) as f32;
                smooth
                    .set(&[y, x], smooth.get(&[y, x]).unwrap() + ramp)
                    .unwrap();
                spiked
                    .set(&[y, x], spiked.get(&[y, x]).unwrap() + ramp)
                    .unwrap();
            }
        }
        assert!(total_variation(&spiked).unwrap() > total_variation(&smooth).unwrap() + 10.0);
    }

    #[test]
    fn tv_gradient_matches_finite_differences() {
        let map = Tensor::from_vec(
            (0..36).map(|v| ((v * 13) % 7) as f32 * 0.31).collect(),
            &[6, 6],
        )
        .unwrap();
        let grad = tv_gradient(&map).unwrap();
        let eps = 1e-3f32;
        for &idx in &[0usize, 7, 14, 21, 35] {
            let mut plus = map.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = map.clone();
            minus.data_mut()[idx] -= eps;
            let numeric =
                (total_variation(&plus).unwrap() - total_variation(&minus).unwrap()) / (2.0 * eps);
            let analytic = grad.data()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "at {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn batch_tv_averages_per_map() {
        let mut batch = Tensor::zeros(&[2, 2, 4, 4]);
        // One map gets a spike; the other three stay flat.
        batch.set(&[0, 0, 2, 2], 4.0).unwrap();
        let single_map = batch.batch_item(0).unwrap().channel(0).unwrap();
        let expected = total_variation(&single_map).unwrap() / 4.0;
        assert!((total_variation_batch(&batch).unwrap() - expected).abs() < 1e-5);
    }

    #[test]
    fn batch_gradient_shape_and_scaling() {
        let mut batch = Tensor::zeros(&[1, 2, 4, 4]);
        batch.set(&[0, 0, 1, 1], 2.0).unwrap();
        let g = tv_gradient_batch(&batch).unwrap();
        assert_eq!(g.dims(), &[1, 2, 4, 4]);
        // Channel 1 is flat -> zero gradient there.
        let g_c1 = g.batch_item(0).unwrap().channel(1).unwrap();
        assert_eq!(g_c1.l2_norm(), 0.0);
        // Channel 0 carries the (1/(N*K))-scaled spike gradient.
        let g_c0 = g.batch_item(0).unwrap().channel(0).unwrap();
        assert!(g_c0.linf_norm() > 0.0);
        assert!(g_c0.linf_norm() <= 4.0 / 2.0);
    }

    #[test]
    fn shape_errors() {
        assert!(total_variation(&Tensor::zeros(&[2, 3, 4])).is_err());
        assert!(tv_gradient(&Tensor::zeros(&[8])).is_err());
        assert!(total_variation_batch(&Tensor::zeros(&[2, 3, 4])).is_err());
    }
}

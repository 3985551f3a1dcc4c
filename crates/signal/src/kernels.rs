//! Standard low-pass blur kernels.
//!
//! These are the fixed filters of Section III of the paper: a depthwise
//! convolution of each feature map (or input channel) with a normalized blur
//! kernel.
//!
//! Applying them is a compute kernel, so it runs through the
//! [`Backend`](blurnet_tensor::Backend) trait:
//! [`Backend::blur_batch`](blurnet_tensor::Backend::blur_batch) and
//! [`Backend::blur_image`](blurnet_tensor::Backend::blur_image). Box and
//! Gaussian kernels are rank-1 (`K = u·vᵀ`), so the backend factors them
//! once and applies two 1-D passes — `O(k)` work per pixel instead of
//! `O(k²)`.

use blurnet_tensor::Tensor;

/// A normalized `k × k` box (mean) blur kernel.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn box_kernel(k: usize) -> Tensor {
    assert!(k > 0, "kernel size must be non-zero");
    Tensor::full(&[k, k], 1.0 / (k * k) as f32)
}

/// A normalized `k × k` Gaussian blur kernel with standard deviation `sigma`.
///
/// # Panics
///
/// Panics if `k == 0` or `sigma <= 0`.
pub fn gaussian_kernel(k: usize, sigma: f32) -> Tensor {
    assert!(k > 0, "kernel size must be non-zero");
    assert!(sigma > 0.0, "sigma must be positive");
    let c = (k as f32 - 1.0) / 2.0;
    let mut kernel = Tensor::zeros(&[k, k]);
    let mut sum = 0.0;
    for y in 0..k {
        for x in 0..k {
            let dy = y as f32 - c;
            let dx = x as f32 - c;
            let v = (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp();
            kernel.set(&[y, x], v).expect("in-bounds kernel index");
            sum += v;
        }
    }
    kernel.scale(1.0 / sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_tensor::{default_backend, separable_factors};
    use blurnet_test_support::blur_2d;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn blur_image(image: &Tensor, kernel: &Tensor) -> blurnet_tensor::Result<Tensor> {
        default_backend().blur_image(image, kernel)
    }

    fn blur_batch(batch: &Tensor, kernel: &Tensor) -> blurnet_tensor::Result<Tensor> {
        default_backend().blur_batch(batch, kernel)
    }

    #[test]
    fn box_kernel_is_normalized() {
        for k in [3usize, 5, 7] {
            let kernel = box_kernel(k);
            assert_eq!(kernel.dims(), &[k, k]);
            assert!((kernel.sum() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gaussian_kernel_is_normalized_and_peaked_at_centre() {
        let kernel = gaussian_kernel(5, 1.0);
        assert!((kernel.sum() - 1.0).abs() < 1e-5);
        let centre = kernel.get(&[2, 2]).unwrap();
        assert_eq!(kernel.max().unwrap(), centre);
        // Symmetry.
        assert!((kernel.get(&[0, 1]).unwrap() - kernel.get(&[4, 3]).unwrap()).abs() < 1e-6);
    }

    #[test]
    fn box_and_gaussian_kernels_are_separable() {
        for kernel in [box_kernel(3), box_kernel(5), gaussian_kernel(5, 1.2)] {
            let (u, v) = separable_factors(&kernel).expect("rank-1 kernel");
            for (y, &uy) in u.iter().enumerate() {
                for (x, &vx) in v.iter().enumerate() {
                    let got = uy * vx;
                    let want = kernel.get(&[y, x]).unwrap();
                    assert!((got - want).abs() < 1e-6, "{got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn mixed_kernels_are_not_separable() {
        // Identity + corner spike has rank 2.
        let mut kernel = Tensor::zeros(&[3, 3]);
        kernel.set(&[1, 1], 1.0).unwrap();
        kernel.set(&[0, 0], 0.5).unwrap();
        assert!(separable_factors(&kernel).is_none());
        // Non-square tensors are rejected outright.
        assert!(separable_factors(&Tensor::zeros(&[3, 4])).is_none());
        // The zero kernel is (trivially) separable.
        assert!(separable_factors(&Tensor::zeros(&[3, 3])).is_some());
    }

    #[test]
    fn separable_path_matches_2d_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let batch = Tensor::rand_uniform(&[2, 3, 13, 9], -1.0, 1.0, &mut rng);
        for kernel in [box_kernel(3), box_kernel(5), gaussian_kernel(7, 1.5)] {
            let fast = blur_batch(&batch, &kernel).unwrap();
            let slow = blur_2d(&batch, &kernel);
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn non_separable_kernel_falls_back_to_2d() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let batch = Tensor::rand_uniform(&[1, 2, 8, 8], -1.0, 1.0, &mut rng);
        let mut kernel = Tensor::zeros(&[3, 3]);
        kernel.set(&[1, 1], 0.6).unwrap();
        kernel.set(&[0, 0], 0.2).unwrap();
        kernel.set(&[2, 2], 0.2).unwrap();
        let via_blur = blur_batch(&batch, &kernel).unwrap();
        assert_eq!(via_blur, blur_2d(&batch, &kernel));
    }

    #[test]
    fn blur_preserves_constant_images_in_the_interior() {
        let image = Tensor::full(&[3, 9, 9], 2.0);
        let blurred = blur_image(&image, &box_kernel(3)).unwrap();
        assert!((blurred.get(&[1, 4, 4]).unwrap() - 2.0).abs() < 1e-5);
        // Zero padding dims the borders.
        assert!(blurred.get(&[1, 0, 0]).unwrap() < 2.0);
    }

    #[test]
    fn blur_suppresses_an_isolated_spike() {
        // The motivating observation of the paper: a localized spike in an
        // otherwise smooth map is strongly attenuated by a 5x5 blur.
        let mut image = Tensor::zeros(&[1, 11, 11]);
        image.set(&[0, 5, 5], 9.0).unwrap();
        let blurred = blur_image(&image, &box_kernel(5)).unwrap();
        let peak_after = blurred.get(&[0, 5, 5]).unwrap();
        assert!(
            peak_after < 0.5,
            "spike should be attenuated, got {peak_after}"
        );
        // Energy is spread, not created.
        assert!(blurred.max().unwrap() <= 9.0 / 25.0 + 1e-5);
    }

    #[test]
    fn larger_kernels_blur_more() {
        let mut image = Tensor::zeros(&[1, 15, 15]);
        image.set(&[0, 7, 7], 1.0).unwrap();
        let b3 = blur_image(&image, &box_kernel(3)).unwrap();
        let b5 = blur_image(&image, &box_kernel(5)).unwrap();
        let b7 = blur_image(&image, &box_kernel(7)).unwrap();
        assert!(b3.max().unwrap() > b5.max().unwrap());
        assert!(b5.max().unwrap() > b7.max().unwrap());
    }

    #[test]
    fn blur_filters_every_channel_identically() {
        // One [K, K] kernel filters all channels: identical input planes
        // come out identical.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let plane = Tensor::rand_uniform(&[7, 7], 0.0, 1.0, &mut rng);
        let image = Tensor::stack(&vec![plane; 4]).unwrap();
        let blurred = blur_image(&image, &box_kernel(3)).unwrap();
        let first = blurred.channel(0).unwrap();
        for c in 1..4 {
            assert_eq!(blurred.channel(c).unwrap(), first, "channel {c}");
        }
    }

    #[test]
    fn shape_errors() {
        let k = box_kernel(3);
        assert!(blur_image(&Tensor::zeros(&[4, 4]), &k).is_err());
        assert!(blur_batch(&Tensor::zeros(&[3, 4, 4]), &k).is_err());
        // Even kernels have no symmetric "same" padding and are rejected.
        assert!(blur_batch(&Tensor::zeros(&[1, 1, 4, 4]), &Tensor::full(&[2, 2], 0.25)).is_err());
        // Non-square kernels are rejected by the 2-D fallback.
        assert!(blur_batch(&Tensor::zeros(&[1, 1, 4, 4]), &Tensor::zeros(&[3, 4])).is_err());
    }
}

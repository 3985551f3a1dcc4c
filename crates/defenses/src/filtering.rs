//! Input-space low-pass filtering (the defense BlurNet argues *against* in
//! Table I, kept as the comparison baseline).
//!
//! Box kernels are separable, so both entry points ride the backend
//! blur's two-pass O(k)-per-pixel fast path with rayon-parallel planes,
//! dispatched through [`blurnet_tensor::Backend`].

use blurnet_signal::box_kernel;
use blurnet_tensor::{default_backend, Tensor};

use crate::{DefenseError, Result};

fn check_kernel(kernel: usize) -> Result<()> {
    if kernel < 2 || kernel.is_multiple_of(2) {
        return Err(DefenseError::BadConfig(format!(
            "blur kernel must be odd and >= 3, got {kernel}"
        )));
    }
    Ok(())
}

/// Blurs a single `[C, H, W]` image with a normalized `kernel × kernel` box
/// filter.
///
/// # Errors
///
/// Returns an error for even kernels or malformed images.
pub fn filter_image(image: &Tensor, kernel: usize) -> Result<Tensor> {
    check_kernel(kernel)?;
    Ok(default_backend().blur_image(image, &box_kernel(kernel))?)
}

/// Blurs every image of an `[N, C, H, W]` batch.
///
/// # Errors
///
/// Returns an error for even kernels or malformed batches.
pub(crate) fn filter_images(batch: &Tensor, kernel: usize) -> Result<Tensor> {
    check_kernel(kernel)?;
    Ok(default_backend().blur_batch(batch, &box_kernel(kernel))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtering_smooths_a_spiky_image() {
        let mut image = Tensor::full(&[3, 16, 16], 0.5);
        image.set(&[0, 8, 8], 1.0).unwrap();
        let filtered = filter_image(&image, 5).unwrap();
        assert!(filtered.get(&[0, 8, 8]).unwrap() < 0.6);
        assert_eq!(filtered.dims(), image.dims());
    }

    #[test]
    fn batch_filtering_matches_per_image_filtering() {
        let a = Tensor::full(&[3, 8, 8], 0.3);
        let b = Tensor::full(&[3, 8, 8], 0.7);
        let batch = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        let filtered = filter_images(&batch, 3).unwrap();
        let fa = filter_image(&a, 3).unwrap();
        assert_eq!(filtered.batch_item(0).unwrap(), fa);
    }

    #[test]
    fn kernel_validation() {
        let image = Tensor::zeros(&[3, 8, 8]);
        assert!(filter_image(&image, 4).is_err());
        assert!(filter_image(&image, 1).is_err());
        assert!(filter_images(&Tensor::zeros(&[1, 3, 8, 8]), 2).is_err());
    }
}

//! Gaussian noise augmentation (the training half of randomized smoothing).

use blurnet_tensor::Tensor;
use rand::Rng;

use crate::{DefenseError, Result};

/// Adds i.i.d. Gaussian noise with standard deviation `sigma` to every
/// pixel and clamps back to `[0, 1]`.
///
/// # Errors
///
/// Returns [`DefenseError::BadConfig`] for a non-positive `sigma`.
pub(crate) fn gaussian_augment<R: Rng + ?Sized>(
    images: &Tensor,
    sigma: f32,
    rng: &mut R,
) -> Result<Tensor> {
    if sigma <= 0.0 {
        return Err(DefenseError::BadConfig(format!(
            "sigma must be positive, got {sigma}"
        )));
    }
    let noise = Tensor::rand_normal(images.dims(), 0.0, sigma, rng);
    Ok(images.add(&noise)?.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn augmentation_perturbs_with_expected_magnitude() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let images = Tensor::full(&[4, 3, 8, 8], 0.5);
        let noisy = gaussian_augment(&images, 0.1, &mut rng).unwrap();
        let diff = noisy.sub(&images).unwrap();
        let std = (diff.data().iter().map(|v| v * v).sum::<f32>() / diff.len() as f32).sqrt();
        assert!((std - 0.1).abs() < 0.02, "empirical std {std}");
        assert!(noisy.min().unwrap() >= 0.0 && noisy.max().unwrap() <= 1.0);
    }

    #[test]
    fn larger_sigma_means_larger_perturbation() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let images = Tensor::full(&[2, 3, 8, 8], 0.5);
        let small = gaussian_augment(&images, 0.05, &mut rng).unwrap();
        let large = gaussian_augment(&images, 0.3, &mut rng).unwrap();
        assert!(large.sub(&images).unwrap().l2_norm() > small.sub(&images).unwrap().l2_norm());
    }

    #[test]
    fn sigma_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(gaussian_augment(&Tensor::zeros(&[1, 3, 4, 4]), 0.0, &mut rng).is_err());
    }
}

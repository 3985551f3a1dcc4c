//! Randomized-smoothing prediction: majority vote over Gaussian-noised
//! copies of the input (Cohen et al., used as a baseline defense in
//! Table II).

use std::cmp::Reverse;
use std::collections::BTreeMap;

use blurnet_nn::BatchEngine;
use blurnet_tensor::Tensor;
use rand::Rng;

use crate::{DefenseError, Result};

/// Classifies every row of an `[N, C, H, W]` batch by majority vote over
/// `samples` Gaussian-noised copies with standard deviation `sigma`,
/// returning the winning class (ties go to the lowest class) and its vote
/// share. Rows draw their noise from `rng` in row order, one
/// `[samples, C, H, W]` block each, and every vote runs through `engine`.
///
/// # Errors
///
/// Returns [`DefenseError::BadConfig`] for non-positive `sigma`, zero
/// `samples` or an empty batch, and propagates network errors.
pub(crate) fn smoothed_votes<R: Rng + ?Sized>(
    engine: &BatchEngine<'_>,
    images: &Tensor,
    sigma: f32,
    samples: usize,
    rng: &mut R,
) -> Result<Vec<(usize, f32)>> {
    if sigma <= 0.0 || samples == 0 {
        return Err(DefenseError::BadConfig(format!(
            "smoothing needs positive sigma and samples, got sigma={sigma}, samples={samples}"
        )));
    }
    if images.shape().rank() < 2 || images.dims()[0] == 0 {
        return Err(DefenseError::BadConfig(format!(
            "smoothing expects a non-empty [N, ...] batch, got {}",
            images.shape()
        )));
    }
    let rows = images.dims()[0];
    (0..rows)
        .map(|i| {
            let image = images.batch_item(i)?;
            // The whole noise block in one tensor, the image added in place.
            let mut noise_dims = vec![samples];
            noise_dims.extend_from_slice(image.dims());
            let mut batch = Tensor::rand_normal(&noise_dims, 0.0, sigma, rng);
            for sample in batch.data_mut().chunks_mut(image.len()) {
                for (noisy, &clean) in sample.iter_mut().zip(image.data()) {
                    *noisy = (*noisy + clean).clamp(0.0, 1.0);
                }
            }
            let mut votes = BTreeMap::new();
            for class in engine.predict(&batch)? {
                *votes.entry(class).or_insert(0usize) += 1;
            }
            let (class, count) = votes
                .into_iter()
                .max_by_key(|&(class, count)| (count, Reverse(class)))
                .expect("at least one sample voted");
            Ok((class, count as f32 / samples as f32))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_nn::{LisaCnn, Sequential};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(seed: u64) -> Sequential {
        LisaCnn::new(18)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap()
    }

    #[test]
    fn smoothing_returns_a_valid_class_and_is_stable_for_tiny_noise() {
        let net = net(0);
        let engine = net.batch_engine().unwrap();
        let images = Tensor::stack(&[
            Tensor::full(&[3, 16, 16], 0.4),
            Tensor::full(&[3, 16, 16], 0.7),
        ])
        .unwrap();
        let plain = engine.predict(&images).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let smoothed = smoothed_votes(&engine, &images, 1e-4, 11, &mut rng).unwrap();
        // With near-zero noise every vote must match the plain prediction.
        assert_eq!(smoothed, vec![(plain[0], 1.0), (plain[1], 1.0)]);
    }

    #[test]
    fn parameter_validation() {
        let net = net(1);
        let engine = net.batch_engine().unwrap();
        let images = Tensor::zeros(&[1, 3, 16, 16]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(smoothed_votes(&engine, &images, 0.0, 4, &mut rng).is_err());
        assert!(smoothed_votes(&engine, &images, 0.1, 0, &mut rng).is_err());
    }
}

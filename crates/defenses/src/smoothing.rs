//! Randomized-smoothing prediction: majority vote over Gaussian-noised
//! copies of the input (Cohen et al., used as a baseline defense in
//! Table II). Each image's noise is seeded by the image itself, so its
//! vote is a pure function of that image.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use blurnet_nn::BatchEngine;
use blurnet_tensor::persist::fnv1a_f32s;
use blurnet_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{DefenseError, DefenseKind, Result};

/// Seed of the Monte-Carlo smoothing noise. Each image draws from its own
/// ChaCha8 stream, seeded with this value XOR the FNV-1a hash of the
/// image's little-endian f32 bytes, so its vote is reproducible and
/// depends on that image alone, never on the batch around it.
pub const SMOOTHING_SEED: u64 = 0xB1A2;

/// Classifies every row of an `[N, C, H, W]` batch by majority vote over
/// `samples` Gaussian-noised copies with standard deviation `sigma`,
/// returning the winning class (ties go to the lowest class) and its vote
/// share. Each row draws one `[samples, C, H, W]` noise block from its own
/// stream (see [`SMOOTHING_SEED`]), and every vote runs through `engine`,
/// one row at a time.
///
/// # Errors
///
/// Returns [`DefenseError::BadConfig`] for parameters
/// [`DefenseKind::validate`] rejects or an empty batch, and propagates
/// network errors.
pub(crate) fn smoothed_votes(
    engine: &BatchEngine<'_>,
    images: &Tensor,
    sigma: f32,
    samples: usize,
) -> Result<Vec<(usize, f32)>> {
    DefenseKind::RandomizedSmoothing { sigma, samples }.validate()?;
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
            let mut rng = ChaCha8Rng::seed_from_u64(SMOOTHING_SEED ^ fnv1a_f32s(image.data()));
            // The whole noise block in one tensor, the image added in place.
            let mut noise_dims = vec![samples];
            noise_dims.extend_from_slice(image.dims());
            let mut batch = Tensor::rand_normal(&noise_dims, 0.0, sigma, &mut rng);
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
        let smoothed = smoothed_votes(&engine, &images, 1e-4, 11).unwrap();
        // With near-zero noise every vote must match the plain prediction.
        assert_eq!(smoothed, vec![(plain[0], 1.0), (plain[1], 1.0)]);
    }

    #[test]
    fn parameter_validation() {
        let net = net(1);
        let engine = net.batch_engine().unwrap();
        let images = Tensor::zeros(&[1, 3, 16, 16]);
        for (sigma, samples) in [
            (0.0, 4),
            (-1.0, 4),
            (f32::NAN, 4),
            (f32::INFINITY, 4),
            (0.1, 0),
            (0.1, crate::config::MAX_SMOOTHING_SAMPLES + 1),
        ] {
            assert!(
                matches!(
                    smoothed_votes(&engine, &images, sigma, samples),
                    Err(DefenseError::BadConfig(_))
                ),
                "sigma={sigma}, samples={samples}"
            );
        }
        assert!(smoothed_votes(&engine, &Tensor::zeros(&[0, 3, 16, 16]), 0.1, 4).is_err());
    }
}

//! Property-based integration tests on the defense and attack invariants
//! that hold regardless of training: masks confine perturbations, filters
//! only remove energy, smoothing never changes tensor ranges, the
//! regularizer gradients match their finite differences end-to-end, and
//! the randomized-smoothing vote matches an independent reference.

use blurnet_defenses::{filter_image, DefenseKind};
use blurnet_nn::softmax_cross_entropy;
use blurnet_signal::{box_kernel, gaussian_kernel, total_variation};
use blurnet_tensor::Tensor;
use blurnet_test_support::{
    canned_sticker_mask, reference_smoothed_votes, tiny_defended_model, tiny_lisa_net,
    uniform_batch, uniform_images, TINY_IMAGE_SIZE,
};
use proptest::prelude::*;

fn image_strategy(size: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(0.0f32..1.0, 3 * size * size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blurring never increases the total variation of any channel.
    #[test]
    fn blurring_never_increases_total_variation(data in image_strategy(16), kernel in prop_oneof![Just(3usize), Just(5)]) {
        let image = Tensor::from_vec(data, &[3, 16, 16]).unwrap();
        let blurred = filter_image(&image, kernel).unwrap();
        for ch in 0..3 {
            let before = total_variation(&image.channel(ch).unwrap()).unwrap();
            let after = total_variation(&blurred.channel(ch).unwrap()).unwrap();
            prop_assert!(after <= before + 1e-3, "channel {}: {} -> {}", ch, before, after);
        }
    }

    /// Blur kernels are doubly stochastic enough to preserve the mean of a
    /// constant image away from borders and never push values outside the
    /// input range.
    #[test]
    fn blurring_respects_value_range(data in image_strategy(12)) {
        let image = Tensor::from_vec(data, &[3, 12, 12]).unwrap();
        let blurred = filter_image(&image, 3).unwrap();
        prop_assert!(blurred.min().unwrap() >= image.min().unwrap() - 1e-5);
        prop_assert!(blurred.max().unwrap() <= image.max().unwrap() + 1e-5);
    }

    /// Sticker masks confine masked perturbations: applying a mask to any
    /// perturbation leaves non-masked pixels untouched.
    #[test]
    fn masked_perturbations_stay_on_the_sticker(data in image_strategy(16), scale in 0.1f32..1.0) {
        let mask = canned_sticker_mask();
        let image = Tensor::from_vec(data, &[3, 16, 16]).unwrap();
        // Broadcast the mask over channels and apply a scaled perturbation.
        let mut perturbed = image.clone();
        for ch in 0..3 {
            for y in 0..16 {
                for x in 0..16 {
                    if mask.get(&[y, x]).unwrap() > 0.5 {
                        let v = perturbed.get(&[ch, y, x]).unwrap();
                        perturbed.set(&[ch, y, x], (v + scale).min(1.0)).unwrap();
                    }
                }
            }
        }
        for ch in 0..3 {
            for y in 0..16 {
                for x in 0..16 {
                    if mask.get(&[y, x]).unwrap() < 0.5 {
                        prop_assert_eq!(
                            perturbed.get(&[ch, y, x]).unwrap(),
                            image.get(&[ch, y, x]).unwrap()
                        );
                    }
                }
            }
        }
    }

    /// Gaussian and box kernels always sum to one, regardless of size/sigma.
    #[test]
    fn kernels_are_normalized(k in prop_oneof![Just(3usize), Just(5), Just(7)], sigma in 0.3f32..3.0) {
        prop_assert!((box_kernel(k).sum() - 1.0).abs() < 1e-4);
        prop_assert!((gaussian_kernel(k, sigma).sum() - 1.0).abs() < 1e-4);
    }

    /// The classifier's loss gradient with respect to the input matches a
    /// finite-difference estimate through the whole network, for arbitrary
    /// inputs (the property every attack in this repo depends on).
    #[test]
    fn input_gradients_match_finite_differences(seed in 0u64..50, pixel in 0usize..(3 * 16 * 16)) {
        let mut net = tiny_lisa_net(seed);
        let image = uniform_batch(&[1, 3, 16, 16], 0.05, 0.95, !seed);
        let label = [3usize];
        let logits = net.forward(&image, true).unwrap();
        let (_, d_logits) = softmax_cross_entropy(&logits, &label).unwrap();
        let grad = net.backward(&d_logits).unwrap().input;

        let eps = 1e-2f32;
        let mut plus = image.clone();
        plus.data_mut()[pixel] += eps;
        let mut minus = image.clone();
        minus.data_mut()[pixel] -= eps;
        let (lp, _) = softmax_cross_entropy(&net.forward(&plus, false).unwrap(), &label).unwrap();
        let (lm, _) = softmax_cross_entropy(&net.forward(&minus, false).unwrap(), &label).unwrap();
        let numeric = (lp - lm) / (2.0 * eps);
        prop_assert!(
            (numeric - grad.data()[pixel]).abs() < 5e-2,
            "pixel {}: numeric {} vs analytic {}",
            pixel,
            numeric,
            grad.data()[pixel]
        );
    }
}

/// Randomized smoothing through `DefendedModel::classify` equals the
/// independent reference vote (each image's own stream, seeded by
/// `SMOOTHING_SEED` and the image's bytes, each noisy copy judged alone by
/// `reference_forward`); a second call answers the same, since inference
/// carries no state; and the reversed batch returns the reversed votes,
/// since an image's vote does not depend on its place in the batch.
#[test]
fn smoothing_classify_matches_the_reference_vote() {
    let (sigma, samples) = (1.0, 7);
    let model = tiny_defended_model(DefenseKind::RandomizedSmoothing { sigma, samples }, 11);
    let images = uniform_images(6, TINY_IMAGE_SIZE, 9);
    let batch = Tensor::stack(&images).unwrap();
    let engine = model.network().batch_engine().unwrap();
    let votes = model.classify(&engine, &batch).unwrap();
    assert_eq!(
        votes,
        reference_smoothed_votes(model.network(), &images, sigma, samples)
    );
    assert!(
        votes.iter().any(|&(_, share)| share < 1.0),
        "the noise must split some votes: {votes:?}"
    );
    assert_eq!(model.classify(&engine, &batch).unwrap(), votes);
    let reversed: Vec<Tensor> = images.iter().rev().cloned().collect();
    let mut reversed_votes = model
        .classify(&engine, &Tensor::stack(&reversed).unwrap())
        .unwrap();
    reversed_votes.reverse();
    assert_eq!(reversed_votes, votes);
}

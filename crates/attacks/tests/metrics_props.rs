//! Property tests pinning the batched metric variants in
//! `blurnet_attacks::metrics` to their per-sample reference paths.
//!
//! These metrics sit directly between the batch engine's outputs and every
//! number the experiment tables report: `batch_l2_dissimilarity` reads raw
//! row slices of the batched image tensors, and
//! `untargeted_success_from_logits` takes argmaxes straight off the batched
//! logits. Each must agree
//! with composing the corresponding per-sample function over `batch_item`
//! rows, for every batch size — otherwise the scheduler's batched cells
//! would drift from the per-image sequential path.

use blurnet_attacks::{
    batch_l2_dissimilarity, l2_dissimilarity, untargeted_success_from_logits,
    untargeted_success_rate,
};
use blurnet_tensor::Tensor;
use proptest::prelude::*;

/// First-maximum argmax — the tie rule `blurnet_nn::predictions`
/// documents, restated independently so the test does not share code with
/// the implementation under test.
fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// A `[n, classes]` logits tensor from a flat value vector.
fn logits_tensor(values: &[f32], n: usize, classes: usize) -> Tensor {
    Tensor::from_vec(values.to_vec(), &[n, classes]).expect("consistent dims")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// batch_l2_dissimilarity over an [N, C, H, W] batch equals the
    /// per-sample l2_dissimilarity over batch_item pairs, for random batch
    /// sizes and image extents.
    #[test]
    fn batched_l2_matches_per_sample(
        n in 1usize..9,
        hw in 2usize..7,
        seed in 0u64..10_000,
    ) {
        // Keep clean values strictly positive so no image has zero norm.
        let clean = blurnet_test_support::uniform_batch(&[n, 3, hw, hw], 0.1, 1.0, seed);
        let adv = clean.map(|v| (v + 0.07).min(1.5));
        let batched = batch_l2_dissimilarity(&clean, &adv).unwrap();
        prop_assert_eq!(batched.len(), n);
        for (i, &d) in batched.iter().enumerate() {
            let c = clean.batch_item(i).unwrap();
            let a = adv.batch_item(i).unwrap();
            let reference = l2_dissimilarity(&c, &a).unwrap();
            prop_assert!(
                (d - reference).abs() <= 1e-6,
                "image {}: batched {} vs per-sample {}",
                i,
                d,
                reference
            );
        }
    }

    /// untargeted_success_from_logits equals untargeted_success_rate over
    /// independently computed argmax predictions — exactly, since both
    /// paths count the same discrete events.
    #[test]
    fn untargeted_logit_path_matches_prediction_path(
        n in 1usize..12,
        classes in 2usize..8,
        values in proptest::collection::vec(-5.0f32..5.0, 2 * 12 * 8),
    ) {
        let clean: Vec<f32> = values[..n * classes].to_vec();
        let adv: Vec<f32> = values[12 * 8..12 * 8 + n * classes].to_vec();
        let clean_t = logits_tensor(&clean, n, classes);
        let adv_t = logits_tensor(&adv, n, classes);

        let clean_preds: Vec<usize> =
            (0..n).map(|i| argmax(&clean[i * classes..(i + 1) * classes])).collect();
        let adv_preds: Vec<usize> =
            (0..n).map(|i| argmax(&adv[i * classes..(i + 1) * classes])).collect();

        let from_logits = untargeted_success_from_logits(&clean_t, &adv_t).unwrap();
        let from_preds = untargeted_success_rate(&clean_preds, &adv_preds).unwrap();
        prop_assert_eq!(from_logits, from_preds);
    }

    /// Ties in a logits row resolve to the first maximum on both paths, the
    /// logit path and the reference `argmax` (duplicate the max value at a
    /// random later position, then compare against every one-hot row).
    #[test]
    fn tie_breaking_is_first_maximum_on_both_paths(
        classes in 2usize..8,
        dup in 1usize..8,
        values in proptest::collection::vec(-1.0f32..1.0, 8),
    ) {
        let dup = dup % classes;
        let mut row = values[..classes].to_vec();
        let max_idx = argmax(&row);
        if dup > max_idx {
            row[dup] = row[max_idx];
        }
        let t = logits_tensor(&row, 1, classes);
        let expected = argmax(&row);
        for c in 0..classes {
            let mut one_hot = vec![0.0; classes];
            one_hot[c] = 1.0;
            let changed = untargeted_success_from_logits(&t, &logits_tensor(&one_hot, 1, classes));
            prop_assert_eq!(changed.unwrap(), if c == expected { 0.0 } else { 1.0 });
        }
    }
}

#[test]
fn batched_l2_validation_matches_per_sample_validation() {
    // Zero-norm clean rows are rejected by both paths.
    let zero = Tensor::zeros(&[2, 3, 4, 4]);
    assert!(batch_l2_dissimilarity(&zero, &zero).is_err());
    assert!(l2_dissimilarity(&zero.batch_item(0).unwrap(), &zero.batch_item(0).unwrap()).is_err());
    // Mismatched shapes are rejected.
    let a = Tensor::full(&[2, 3, 4, 4], 0.5);
    let b = Tensor::full(&[2, 3, 4, 5], 0.5);
    assert!(batch_l2_dissimilarity(&a, &b).is_err());
}

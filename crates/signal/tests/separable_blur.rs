//! Equivalence tests pinning the backend's separable two-pass blur to the
//! generic 2-D depthwise path on ChaCha8-seeded random batches — the
//! numeric guarantee behind the `substrate_micro` speedup claims.

use blurnet_signal::{box_kernel, gaussian_kernel};
use blurnet_tensor::{default_backend, separable_factors, Tensor};
use blurnet_test_support::{blur_2d, uniform_batch};

fn assert_close(fast: &Tensor, slow: &Tensor, context: &str) {
    assert_eq!(fast.dims(), slow.dims(), "{context}");
    for (a, b) in fast.data().iter().zip(slow.data().iter()) {
        assert!((a - b).abs() < 1e-5, "{context}: {a} vs {b}");
    }
}

fn assert_blur_matches_2d(batch: &Tensor, kernel: &Tensor, context: &str) {
    let fast = default_backend().blur_batch(batch, kernel).unwrap();
    assert_close(&fast, &blur_2d(batch, kernel), context);
}

#[test]
fn separable_blur_matches_2d_on_random_batches() {
    for seed in 0u64..8 {
        // Odd and even extents, single-pixel edge cases, non-square planes.
        for (case, &(n, c, h, w)) in [
            (1usize, 1usize, 1usize, 1usize),
            (2, 3, 7, 5),
            (3, 2, 9, 16),
        ]
        .iter()
        .enumerate()
        {
            let batch = uniform_batch(&[n, c, h, w], -2.0, 2.0, seed ^ (case as u64) << 32);
            for k in [1usize, 3, 5, 7] {
                if k > h + 2 * (k / 2) || k > w + 2 * (k / 2) {
                    continue;
                }
                let context = format!("box k={k} seed={seed} dims=({n},{c},{h},{w})");
                assert_blur_matches_2d(&batch, &box_kernel(k), &context);
            }
            for &sigma in &[0.4f32, 1.0, 2.5] {
                let kernel = gaussian_kernel(5, sigma);
                assert!(separable_factors(&kernel).is_some(), "gaussian must factor");
                let context = format!("gaussian sigma={sigma} seed={seed}");
                assert_blur_matches_2d(&batch, &kernel, &context);
            }
        }
    }
}

#[test]
fn blur_batch_of_paper_shape_matches_2d() {
    // The acceptance-criteria shape: a 5×5 blur of an [8, 16, 32, 32] batch.
    let batch = uniform_batch(&[8, 16, 32, 32], 0.0, 1.0, 42);
    assert_blur_matches_2d(&batch, &box_kernel(5), "paper-shape 5x5 blur");
}

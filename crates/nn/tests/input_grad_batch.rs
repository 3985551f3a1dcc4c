//! Property tests pinning the batched gradient engine to an independent
//! per-image reference and to the `&mut` forward/backward wrapper.
//!
//! The contract under test (see `engine.rs`): `BatchEngine::input_grad` is
//! **bit-identical across thread counts** — the shard partition depends
//! only on the batch size — and agrees with a per-image fold of each
//! layer's `infer_recording` / `input_grad` (unpacked kernels, no engine
//! code) and with the per-image `forward(_, true)` + `backward` wrapper
//! (the training backward's input gradient) to ≤ 1e-6 per element. In
//! practice all three share every kernel and accumulation order, so they
//! are bitwise equal; the tolerance is the acceptance criterion.

use blurnet_nn::{softmax_cross_entropy, Sequential};
use blurnet_tensor::Tensor;
use blurnet_test_support::{reference_forward, reference_input_grad, tiny_lisa_net, uniform_batch};
use proptest::prelude::*;

/// Batch sizes the acceptance criteria name explicitly.
const BATCH_SIZES: [usize; 3] = [1, 3, 8];
/// Thread counts the acceptance criteria name explicitly.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Per-image references: the layer fold and the `&mut` wrapper, each
/// stacked over the batch.
fn per_image_backward(net: &mut Sequential, batch: &Tensor, grad_output: &Tensor) -> [Tensor; 2] {
    let n = batch.dims()[0];
    let (mut folded, mut wrapped) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let image = batch.batch_slice(i, 1).expect("index in range");
        let row = grad_output.batch_slice(i, 1).expect("index in range");
        folded.push(reference_input_grad(net, &image, &row));
        net.forward(&image, true).expect("forward succeeds");
        wrapped.push(net.backward(&row).expect("backward succeeds").input);
    }
    [folded, wrapped].map(|parts| Tensor::concat_batch(&parts).expect("uniform shapes"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine input_grad: bitwise equal across thread counts, ≤ 1e-6 vs the
    /// per-image references, for every batch size.
    #[test]
    fn input_grad_batch_matches_mutable_backward(
        net_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let mut net = tiny_lisa_net(net_seed);
        for (offset, &batch_size) in BATCH_SIZES.iter().enumerate() {
            let case_seed = data_seed ^ (offset as u64) << 32;
            let batch = uniform_batch(&[batch_size, 3, 16, 16], 0.0, 1.0, case_seed);
            let grad_output = uniform_batch(&[batch_size, 18], -1.0, 1.0, !case_seed);
            let references = per_image_backward(&mut net, &batch, &grad_output);

            let mut per_thread = Vec::new();
            for &threads in &THREAD_COUNTS {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool builds");
                let engine = net.batch_engine().expect("engine builds");
                per_thread.push(pool.install(|| {
                    engine
                        .input_grad(&batch, &grad_output)
                        .expect("engine input_grad")
                }));
            }
            // Bitwise equality across thread counts, not a tolerance.
            prop_assert_eq!(
                per_thread[0].data(),
                per_thread[1].data(),
                "batch {} threads {:?}",
                batch_size,
                THREAD_COUNTS
            );
            for reference in &references {
                prop_assert_eq!(per_thread[0].dims(), reference.dims());
                for (i, (a, b)) in per_thread[0]
                    .data()
                    .iter()
                    .zip(reference.data().iter())
                    .enumerate()
                {
                    prop_assert!(
                        (a - b).abs() <= 1e-6,
                        "batch {} element {}: batched {} vs reference {}",
                        batch_size,
                        i,
                        a,
                        b
                    );
                }
            }
        }
    }

    /// The cross-entropy convenience wrapper agrees with composing the
    /// reference fold with softmax_cross_entropy per image.
    #[test]
    fn forward_backward_batch_matches_per_image_cross_entropy(seed in 0u64..1000) {
        let net = tiny_lisa_net(seed);
        let batch = uniform_batch(&[4, 3, 16, 16], 0.0, 1.0, seed ^ 0x5EED);
        let labels = [1usize, 5, 9, 17];
        let engine = net.batch_engine().expect("engine builds");
        let got = engine
            .forward_backward_batch(&batch, &labels)
            .expect("forward_backward_batch");
        for i in 0..4 {
            let image = batch.batch_slice(i, 1).expect("index in range");
            let logits = reference_forward(&net, &image);
            let (loss, d_logits) =
                softmax_cross_entropy(&logits, &labels[i..i + 1]).expect("cross entropy");
            let reference = reference_input_grad(&net, &image, &d_logits);
            prop_assert!((got.shard_losses[i] - loss).abs() <= 1e-6);
            let row = got
                .input_grad
                .batch_slice(i, 1)
                .expect("index in range");
            for (a, b) in row.data().iter().zip(reference.data().iter()) {
                prop_assert!((a - b).abs() <= 1e-6, "{} vs {}", a, b);
            }
        }
    }
}

//! Property tests pinning the batch-parallel inference engine to an
//! independent per-sample reference.
//!
//! The contract under test (see `engine.rs`): `BatchEngine::forward` is
//! **bit-identical** — not merely close — to stacking per-sample folds of
//! each layer's own `infer` (unpacked kernels, no engine code), across
//! batch sizes {1, 3, 8} and rayon thread counts {1, 4}. Equality is
//! checked with `==` on the raw `f32` buffers; any reordering of a
//! floating-point accumulation would fail.

use blurnet_nn::{predictions, Sequential};
use blurnet_tensor::Tensor;
use blurnet_test_support::{reference_forward, tiny_lisa_net, uniform_batch};
use proptest::prelude::*;

/// Batch sizes the acceptance criteria name explicitly.
const BATCH_SIZES: [usize; 3] = [1, 3, 8];
/// Thread counts the acceptance criteria name explicitly.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Per-sample reference: fold each image alone and stack the logits.
fn per_sample_forward(net: &Sequential, batch: &Tensor) -> Tensor {
    let n = batch.dims()[0];
    let mut parts = Vec::with_capacity(n);
    for i in 0..n {
        let image = batch.batch_slice(i, 1).expect("index in range");
        parts.push(reference_forward(net, &image));
    }
    Tensor::concat_batch(&parts).expect("uniform logit shapes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine forward == per-sample reference loop, bitwise, for every batch
    /// size and thread count combination.
    #[test]
    fn forward_batch_is_bit_identical_to_per_sample_loops(
        net_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let net = tiny_lisa_net(net_seed);
        let engine = net.batch_engine().expect("engine builds");
        for (offset, &batch_size) in BATCH_SIZES.iter().enumerate() {
            let batch = uniform_batch(
                &[batch_size, 3, 16, 16],
                0.0,
                1.0,
                data_seed ^ (offset as u64) << 32,
            );
            let reference = per_sample_forward(&net, &batch);
            for &threads in &THREAD_COUNTS {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool builds");
                let batched = pool.install(|| engine.forward(&batch).expect("engine forward"));
                // Bitwise equality on the raw buffers, not a tolerance.
                prop_assert_eq!(
                    batched.data(),
                    reference.data(),
                    "batch {} threads {}",
                    batch_size,
                    threads
                );
                prop_assert_eq!(batched.dims(), reference.dims());
            }
        }
    }

    /// Engine predictions agree with the stateful `forward(_, true)` wrapper and
    /// with the whole-batch reference fold under both thread counts (argmax
    /// on bit-identical logits can never diverge).
    #[test]
    fn predict_batch_matches_stateful_predict(seed in 0u64..1000) {
        let mut net = tiny_lisa_net(seed);
        let batch = uniform_batch(&[8, 3, 16, 16], 0.0, 1.0, seed ^ 0xBADC0DE);
        let expected = predictions(&reference_forward(&net, &batch)).expect("argmax");
        let stateful = net.forward(&batch, true).expect("stateful forward");
        prop_assert_eq!(&predictions(&stateful).expect("argmax"), &expected);
        for &threads in &THREAD_COUNTS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds");
            let engine = net.batch_engine().expect("engine builds");
            let got = pool.install(|| engine.predict(&batch).expect("engine predict"));
            prop_assert_eq!(&got, &expected, "threads {}", threads);
        }
    }
}

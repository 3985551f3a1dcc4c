//! Property tests pinning the network persistence layer: for every
//! ChaCha8-seeded network, save → load → infer is **bit-identical** to
//! inferring with the original — on the per-sample path and on the
//! batch-parallel path at rayon thread counts {1, 4} — and the
//! round-trip through the checksummed file container preserves the exact
//! bytes. Corrupted inputs (flipped tag, truncation, wrong magic, future
//! version) are typed errors, never panics.

use blurnet_nn::persist::{sequential_from_bytes, sequential_to_bytes};
use blurnet_nn::NnError;
use blurnet_tensor::persist::{frame, unframe};
use blurnet_test_support::{tiny_lisa_net, uniform_batch};
use proptest::prelude::*;

/// Thread counts the bit-identity contract names explicitly.
const THREAD_COUNTS: [usize; 2] = [1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The restored network's logits equal the original's bit-for-bit,
    /// per-sample and batched, under both thread counts.
    #[test]
    fn restored_networks_infer_bit_identically(
        net_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let mut net = tiny_lisa_net(net_seed);
        let mut restored =
            sequential_from_bytes(&sequential_to_bytes(&net)).expect("roundtrip decodes");
        prop_assert_eq!(restored.len(), net.len());

        let image = uniform_batch(&[1, 3, 16, 16], 0.0, 1.0, data_seed);
        let a = net.forward(&image, false).expect("original forward");
        let b = restored.forward(&image, false).expect("restored forward");
        prop_assert_eq!(a.data(), b.data(), "per-sample logits diverged");

        let batch = uniform_batch(&[5, 3, 16, 16], 0.0, 1.0, data_seed ^ 0xF00D);
        let expected = net
            .batch_engine()
            .and_then(|engine| engine.forward(&batch))
            .expect("original batch");
        let engine = restored.batch_engine().expect("restored engine");
        for &threads in &THREAD_COUNTS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds");
            let got = pool.install(|| engine.forward(&batch).expect("restored batch"));
            prop_assert_eq!(
                got.data(),
                expected.data(),
                "batched logits diverged at {} threads",
                threads
            );
        }
    }

    /// Serialization is canonical: encode(decode(encode(net))) ==
    /// encode(net), and the file container hands the identical payload
    /// back.
    #[test]
    fn serialization_is_canonical_and_framable(net_seed in 0u64..1000) {
        let net = tiny_lisa_net(net_seed);
        let bytes = sequential_to_bytes(&net);
        let restored = sequential_from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(&sequential_to_bytes(&restored), &bytes);
        let framed = frame(&bytes);
        prop_assert_eq!(unframe(&framed).expect("container verifies"), bytes.as_slice());
    }

    /// Truncating the record at any prefix is a typed error.
    #[test]
    fn truncation_anywhere_is_typed(net_seed in 0u64..100, cut in 0usize..100_000) {
        let bytes = sequential_to_bytes(&tiny_lisa_net(net_seed));
        let at = cut % bytes.len();
        prop_assert!(matches!(
            sequential_from_bytes(&bytes[..at]),
            Err(NnError::Serialization(_))
        ));
    }
}

#[test]
fn wrong_magic_and_future_versions_are_typed() {
    let bytes = sequential_to_bytes(&tiny_lisa_net(0));

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'Z';
    assert!(matches!(
        sequential_from_bytes(&wrong_magic),
        Err(NnError::Serialization(_))
    ));

    // A version stamp from the future must be refused, not misparsed.
    let mut future = bytes.clone();
    future[4] = 0xFF;
    future[5] = 0x7F;
    assert!(matches!(
        sequential_from_bytes(&future),
        Err(NnError::Serialization(_))
    ));

    // An unknown layer tag (first tag byte follows magic+version+count).
    let mut bad_tag = bytes;
    bad_tag[14] = 0xEE;
    assert!(matches!(
        sequential_from_bytes(&bad_tag),
        Err(NnError::Serialization(_))
    ));
}

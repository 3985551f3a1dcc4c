//! Property-based tests for the tensor persistence layer: every
//! ChaCha8-seeded tensor must survive `tensor_to_bytes` →
//! `tensor_from_bytes` **bit-identically** (shape and every `f32` payload
//! bit), a record in any layout but row-major must be refused, the
//! checksummed file container must reject every single-byte flip, and
//! truncation at any prefix length must be a typed error — never a panic
//! or a silently wrong tensor.

use blurnet_tensor::persist::{frame, tensor_from_bytes, tensor_to_bytes, unframe};
use blurnet_tensor::{Tensor, TensorError};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Random rank-1..4 dims with a bounded volume, drawn from a seeded RNG
/// so failures replay exactly.
fn seeded_tensor(seed: u64, rank: usize, max_dim: usize) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    use rand::Rng;
    let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..=max_dim)).collect();
    Tensor::rand_uniform(&dims, -100.0, 100.0, &mut rng)
}

fn assert_bitwise_equal(a: &Tensor, b: &Tensor) {
    assert_eq!(a.dims(), b.dims());
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// save → load is bit-identical for every seeded shape, including the
    /// subnormals/extremes `rand_uniform` never produces.
    #[test]
    fn roundtrip_is_bit_identical(seed in 0u64..1024, rank in 1usize..5) {
        let t = seeded_tensor(seed, rank, 7);
        let restored = tensor_from_bytes(&tensor_to_bytes(&t)).unwrap();
        prop_assert_eq!(restored.dims(), t.dims());
        for (x, y) in restored.data().iter().zip(t.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The container survives framing and rejects a flip of ANY byte —
    /// header, payload or checksum.
    #[test]
    fn any_flipped_byte_is_caught(seed in 0u64..256, flip in 0usize..4096) {
        let payload = tensor_to_bytes(&seeded_tensor(seed, 3, 5));
        let mut framed = frame(&payload);
        prop_assert_eq!(unframe(&framed).unwrap(), payload.as_slice());
        let at = flip % framed.len();
        framed[at] ^= 0x01;
        prop_assert!(unframe(&framed).is_err(), "flip at byte {} went undetected", at);
    }

    /// Truncating the framed container at any length is a typed error.
    #[test]
    fn truncation_is_typed_never_a_panic(seed in 0u64..256, cut in 0usize..4096) {
        let framed = frame(&tensor_to_bytes(&seeded_tensor(seed, 2, 6)));
        let at = cut % framed.len();
        match unframe(&framed[..at]) {
            Err(TensorError::Truncated { .. })
            | Err(TensorError::WrongMagic { .. })
            | Err(TensorError::ChecksumMismatch { .. }) => {}
            other => prop_assert!(false, "truncation at {} produced {:?}", at, other),
        }
    }

    /// A record whose strides are not the row-major strides of its dims
    /// (transposed, padded, zero or aliasing) is refused with a typed
    /// error, never a panic or a silently reordered tensor.
    #[test]
    fn non_row_major_records_are_refused(
        seed in 0u64..512,
        rank in 1usize..5,
        strides in proptest::collection::vec(0u64..64, 4),
    ) {
        let t = seeded_tensor(seed, rank, 5);
        let mut bytes = tensor_to_bytes(&t);
        // Header: magic (4), version (2), dtype (1), rank (1), then the
        // rank dims and the rank strides as u64 LE.
        let at = 8 + 8 * rank;
        let row_major: Vec<u64> = bytes[at..at + 8 * rank]
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let strides = &strides[..rank];
        if strides == row_major.as_slice() {
            // An unchanged layout is the one the reader accepts.
            prop_assert!(tensor_from_bytes(&bytes).is_ok());
            return Ok(());
        }
        for (field, &s) in bytes[at..at + 8 * rank].chunks_exact_mut(8).zip(strides) {
            field.copy_from_slice(&s.to_le_bytes());
        }
        prop_assert!(
            matches!(tensor_from_bytes(&bytes), Err(TensorError::InvalidSpec(_))),
            "dims {:?} strides {:?} was not refused",
            t.dims(),
            strides
        );
    }
}

/// Non-finite payloads (NaN, ±inf, -0.0) round-trip with their exact bit
/// patterns — serde must never normalize floats.
#[test]
fn non_finite_values_keep_their_bits() {
    let specials = vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        f32::MIN_POSITIVE,
        f32::from_bits(0x0000_0001), // smallest subnormal
        f32::MAX,
    ];
    let t = Tensor::from_vec(specials.clone(), &[specials.len()]).unwrap();
    let restored = tensor_from_bytes(&tensor_to_bytes(&t)).unwrap();
    assert_bitwise_equal(&restored, &t);
}

//! Cross-dispatch property tests for the [`Backend`] trait.
//!
//! Every trait entry point is driven twice on identical ChaCha8-seeded
//! operands — once through a forced-scalar [`CpuBackend`] and once through
//! the detected backend (AVX2+FMA where the host supports it) — and the
//! outputs are compared **bit-for-bit**. Both tiers round every
//! multiply-add once (the scalar kernels use `f32::mul_add`, which is
//! required to be correctly rounded), so dispatch must never change a
//! single bit of any result: golden files, cache keys and crash-recovery
//! journals stay valid across machines.
//!
//! A second family of properties pins the dispatched results against the
//! naive seed kernels within `1e-5`, so the tiers cannot drift together.

use blurnet_tensor::{
    reference, Backend, ConvSpec, CpuBackend, PackedConvWeights, PoolSpec, Scratch, SimdTier,
    Tensor,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The two dispatch tiers under comparison: forced-scalar and whatever the
/// host detects (scalar again on non-x86 hosts, which makes every property
/// a cheap self-comparison rather than a failure).
fn tiers() -> (CpuBackend, CpuBackend) {
    (CpuBackend::with_tier(SimdTier::Scalar), CpuBackend::new())
}

fn rand_tensor(rng: &mut ChaCha8Rng, dims: &[usize]) -> Tensor {
    let len = dims.iter().product();
    let data: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Tensor::from_vec(data, dims).expect("dims match data")
}

/// Asserts bit equality, the contract that makes dispatch invisible.
fn assert_bits_equal(scalar: &Tensor, simd: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(scalar.dims(), simd.dims(), "{} dims", what);
    for (i, (a, b)) in scalar.data().iter().zip(simd.data().iter()).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{}: scalar {} != simd {} at flat index {}",
            what,
            a,
            b,
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `matmul` and both transposed variants are bit-identical across
    /// tiers and within 1e-5 of the naive seed GEMM.
    #[test]
    fn matmul_family_cross_dispatch(seed in 0u64..1_000_000, m in 1usize..12, k in 1usize..12, n in 1usize..12) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (scalar, simd) = tiers();
        let a = rand_tensor(&mut rng, &[m, k]);
        let b = rand_tensor(&mut rng, &[k, n]);

        let s = scalar.matmul(&a, &b).unwrap();
        let v = simd.matmul(&a, &b).unwrap();
        assert_bits_equal(&s, &v, "matmul")?;
        let naive = reference::matmul_naive(&a, &b).unwrap();
        for (x, y) in v.data().iter().zip(naive.data().iter()) {
            prop_assert!((x - y).abs() < 1e-5 * (1.0 + y.abs()), "{} vs naive {}", x, y);
        }

        // Aᵀ variant: a is stored [k, m] and multiplied as aᵀ · b.
        let at = rand_tensor(&mut rng, &[k, m]);
        assert_bits_equal(
            &scalar.matmul_transpose_a(&at, &b).unwrap(),
            &simd.matmul_transpose_a(&at, &b).unwrap(),
            "matmul_transpose_a",
        )?;

        // Bᵀ variant: b is stored [n, k] and multiplied as a · bᵀ.
        let bt = rand_tensor(&mut rng, &[n, k]);
        assert_bits_equal(
            &scalar.matmul_transpose_b(&a, &bt, &mut Scratch::new()).unwrap(),
            &simd.matmul_transpose_b(&a, &bt, &mut Scratch::new()).unwrap(),
            "matmul_transpose_b",
        )?;
    }

    /// The full convolution surface — forward (plain and prepacked),
    /// backward, and both input-gradient paths — is bit-identical across
    /// tiers for every stride/padding/kernel combination.
    #[test]
    fn conv2d_family_cross_dispatch(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..4,
        f in 1usize..5,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        // Up to 17 so the direct stride-1 kernels' OW = 16 instantiation
        // is reached alongside OW = 8.
        hw in 4usize..18,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (scalar, simd) = tiers();
        let spec = ConvSpec { stride, padding: pad };
        if spec.output_extent(hw, k).is_err() {
            return Ok(());
        }
        let input = rand_tensor(&mut rng, &[n, c, hw, hw]);
        let weight = rand_tensor(&mut rng, &[f, c, k, k]);
        let bias = rand_tensor(&mut rng, &[f]);

        let fwd_s = scalar.conv2d(&input, &weight, Some(&bias), spec, &mut Scratch::new()).unwrap();
        let fwd_v = simd.conv2d(&input, &weight, Some(&bias), spec, &mut Scratch::new()).unwrap();
        assert_bits_equal(&fwd_s, &fwd_v, "conv2d")?;

        let packed = PackedConvWeights::pack(&weight).unwrap();
        assert_bits_equal(
            &scalar.conv2d_prepacked(&input, &packed, Some(&bias), spec, &mut Scratch::new()).unwrap(),
            &simd.conv2d_prepacked(&input, &packed, Some(&bias), spec, &mut Scratch::new()).unwrap(),
            "conv2d_prepacked",
        )?;

        let grad = rand_tensor(&mut rng, fwd_s.dims());
        let back_s = scalar.conv2d_backward(&input, &weight, &grad, spec, &mut Scratch::new()).unwrap();
        let back_v = simd.conv2d_backward(&input, &weight, &grad, spec, &mut Scratch::new()).unwrap();
        assert_bits_equal(&back_s.d_input, &back_v.d_input, "conv2d_backward.d_input")?;
        assert_bits_equal(&back_s.d_weight, &back_v.d_weight, "conv2d_backward.d_weight")?;
        assert_bits_equal(&back_s.d_bias, &back_v.d_bias, "conv2d_backward.d_bias")?;

        let dims = input.dims();
        assert_bits_equal(
            &scalar.conv2d_input_grad(&weight, &grad, dims, spec, &mut Scratch::new()).unwrap(),
            &simd.conv2d_input_grad(&weight, &grad, dims, spec, &mut Scratch::new()).unwrap(),
            "conv2d_input_grad",
        )?;
        assert_bits_equal(
            &scalar.conv2d_input_grad_prepacked(&packed, &grad, dims, spec, &mut Scratch::new()).unwrap(),
            &simd.conv2d_input_grad_prepacked(&packed, &grad, dims, spec, &mut Scratch::new()).unwrap(),
            "conv2d_input_grad_prepacked",
        )?;
    }

    /// Depthwise forward/backward/input-grad are bit-identical across
    /// tiers and the forward matches the naive gather loop within 1e-5.
    #[test]
    fn depthwise_family_cross_dispatch(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..5,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        hw in 4usize..9,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (scalar, simd) = tiers();
        let spec = ConvSpec { stride, padding: pad };
        if spec.output_extent(hw, k).is_err() {
            return Ok(());
        }
        let input = rand_tensor(&mut rng, &[n, c, hw, hw]);
        let weight = rand_tensor(&mut rng, &[c, k, k]);
        let bias = rand_tensor(&mut rng, &[c]);

        let fwd_s = scalar.depthwise_conv2d(&input, &weight, Some(&bias), spec).unwrap();
        let fwd_v = simd.depthwise_conv2d(&input, &weight, Some(&bias), spec).unwrap();
        assert_bits_equal(&fwd_s, &fwd_v, "depthwise_conv2d")?;
        let naive = reference::depthwise_conv2d_naive(&input, &weight, Some(&bias), spec).unwrap();
        for (x, y) in fwd_v.data().iter().zip(naive.data().iter()) {
            prop_assert!((x - y).abs() < 1e-5 * (1.0 + y.abs()), "{} vs naive {}", x, y);
        }

        let grad = rand_tensor(&mut rng, fwd_s.dims());
        let back_s = scalar.depthwise_conv2d_backward(&input, &weight, &grad, spec).unwrap();
        let back_v = simd.depthwise_conv2d_backward(&input, &weight, &grad, spec).unwrap();
        assert_bits_equal(&back_s.d_input, &back_v.d_input, "depthwise_backward.d_input")?;
        assert_bits_equal(&back_s.d_weight, &back_v.d_weight, "depthwise_backward.d_weight")?;
        assert_bits_equal(&back_s.d_bias, &back_v.d_bias, "depthwise_backward.d_bias")?;

        assert_bits_equal(
            &scalar.depthwise_input_grad(&weight, &grad, input.dims(), spec).unwrap(),
            &simd.depthwise_input_grad(&weight, &grad, input.dims(), spec).unwrap(),
            "depthwise_input_grad",
        )?;
    }

    /// Max-pool forward (values **and** argmax table) and backward are
    /// identical across tiers.
    #[test]
    fn max_pool_cross_dispatch(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..4,
        window in 1usize..4,
        stride in 1usize..4,
        hw in 4usize..10,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (scalar, simd) = tiers();
        if window > hw {
            return Ok(());
        }
        let spec = PoolSpec::new(window, stride).unwrap();
        let input = rand_tensor(&mut rng, &[n, c, hw, hw]);

        let pool_s = scalar.max_pool2d(&input, spec).unwrap();
        let pool_v = simd.max_pool2d(&input, spec).unwrap();
        assert_bits_equal(&pool_s.output, &pool_v.output, "max_pool2d")?;
        prop_assert_eq!(&pool_s.argmax, &pool_v.argmax, "max_pool2d argmax");

        let grad = rand_tensor(&mut rng, pool_s.output.dims());
        assert_bits_equal(
            &scalar.max_pool2d_backward(&grad, &pool_s.argmax, input.dims()).unwrap(),
            &simd.max_pool2d_backward(&grad, &pool_v.argmax, input.dims()).unwrap(),
            "max_pool2d_backward",
        )?;
    }

    /// Blur — both the separable fast path (box kernel) and the generic
    /// 2-D fallback (non-separable kernel) — is bit-identical across
    /// tiers, for batches and single images.
    #[test]
    fn blur_cross_dispatch(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..4,
        hw in 4usize..10,
        k in 0usize..2,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (scalar, simd) = tiers();
        let ksize = 2 * k + 3; // odd: 3 or 5
        if ksize > hw {
            return Ok(());
        }
        let batch = rand_tensor(&mut rng, &[n, c, hw, hw]);

        // Separable: normalized box kernel (rank-1, takes the two-pass path).
        let boxk = Tensor::full(&[ksize, ksize], 1.0 / (ksize * ksize) as f32);
        assert_bits_equal(
            &scalar.blur_batch(&batch, &boxk).unwrap(),
            &simd.blur_batch(&batch, &boxk).unwrap(),
            "blur_batch (separable)",
        )?;

        // Non-separable: random kernel falls back to depthwise 2-D.
        let randk = rand_tensor(&mut rng, &[ksize, ksize]);
        assert_bits_equal(
            &scalar.blur_batch(&batch, &randk).unwrap(),
            &simd.blur_batch(&batch, &randk).unwrap(),
            "blur_batch (2-D fallback)",
        )?;

        let image = rand_tensor(&mut rng, &[c, hw, hw]);
        assert_bits_equal(
            &scalar.blur_image(&image, &boxk).unwrap(),
            &simd.blur_image(&image, &boxk).unwrap(),
            "blur_image",
        )?;
    }
}

/// The direct stride-1 kernels at both instantiated widths — LisaCnn's
/// conv2 and conv3, 3×3 "same" at OW = 16 and 8 — are bit-identical across
/// tiers, forward and input-gradient.
#[test]
fn direct_conv_widths_cross_dispatch() {
    let (scalar, simd) = tiers();
    let spec = ConvSpec::same(3).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    for &(c, f, hw) in &[(8usize, 16usize, 16usize), (16, 32, 8)] {
        let input = rand_tensor(&mut rng, &[2, c, hw, hw]);
        let weight = rand_tensor(&mut rng, &[f, c, 3, 3]);
        let grad = rand_tensor(&mut rng, &[2, f, hw, hw]);
        let fwd = |b: &CpuBackend| {
            b.conv2d(&input, &weight, None, spec, &mut Scratch::new())
                .unwrap()
        };
        assert_bits_equal(&fwd(&scalar), &fwd(&simd), "conv2d").unwrap();
        let dims = input.dims();
        let back = |b: &CpuBackend| {
            b.conv2d_input_grad(&weight, &grad, dims, spec, &mut Scratch::new())
                .unwrap()
        };
        assert_bits_equal(&back(&scalar), &back(&simd), "conv2d_input_grad").unwrap();
    }
}

/// Caller-supplied `input_dims` whose volume overflows `usize` must come
/// back as a typed [`blurnet_tensor::TensorError::SizeOverflow`], not a
/// capacity panic inside the allocator.
#[test]
fn input_grad_rejects_overflowing_dims() {
    let backend = CpuBackend::new();
    let weight = Tensor::zeros(&[1, 1, 3, 3]);
    let grad = Tensor::zeros(&[1, 1, 4, 4]);
    let spec = ConvSpec::same(3).unwrap();
    let huge = [usize::MAX, 1, usize::MAX, 4];
    let err = backend
        .conv2d_input_grad(&weight, &grad, &huge, spec, &mut Scratch::new())
        .unwrap_err();
    assert!(
        matches!(err, blurnet_tensor::TensorError::SizeOverflow { .. }),
        "expected SizeOverflow, got {err:?}"
    );
}

/// Metadata entry points agree with the construction-time dispatch.
#[test]
fn backend_metadata_reports_tier() {
    let (scalar, simd) = tiers();
    assert_eq!(scalar.simd_tier(), SimdTier::Scalar);
    assert_eq!(simd.simd_tier(), SimdTier::detect());
    assert_eq!(scalar.name(), "cpu");
    assert!(SimdTier::Scalar.is_supported());
}

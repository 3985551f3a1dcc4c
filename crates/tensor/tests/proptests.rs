//! Property-based tests for the tensor substrate. Kernels run through the
//! process-wide [`default_backend`], so a `BLURNET_FORCE_SCALAR=1` run
//! checks the scalar tier against the same properties.

use blurnet_tensor::{default_backend, reference, ConvSpec, Scratch, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn matmul(a: &Tensor, b: &Tensor) -> blurnet_tensor::Result<Tensor> {
    default_backend().matmul(a, b)
}

fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> blurnet_tensor::Result<Tensor> {
    default_backend().matmul_transpose_a(a, b)
}

fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> blurnet_tensor::Result<Tensor> {
    default_backend().matmul_transpose_b(a, b, &mut Scratch::new())
}

fn conv2d(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> blurnet_tensor::Result<Tensor> {
    default_backend().conv2d(input, weight, None, spec, &mut Scratch::new())
}

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Addition is commutative and subtraction is its inverse.
    #[test]
    fn add_commutative_sub_inverse(data_a in tensor_strategy(24), data_b in tensor_strategy(24)) {
        let a = Tensor::from_vec(data_a, &[2, 3, 4]).unwrap();
        let b = Tensor::from_vec(data_b, &[2, 3, 4]).unwrap();
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        for (x, y) in ab.data().iter().zip(ba.data().iter()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
        let back = ab.sub(&b).unwrap();
        for (x, y) in back.data().iter().zip(a.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Scaling by s then 1/s returns the original (away from zero).
    #[test]
    fn scale_roundtrip(data in tensor_strategy(16), s in 0.5f32..4.0) {
        let t = Tensor::from_vec(data, &[4, 4]).unwrap();
        let round = t.scale(s).scale(1.0 / s);
        for (x, y) in round.data().iter().zip(t.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// The L2 norm satisfies the triangle inequality and absolute homogeneity.
    #[test]
    fn l2_norm_properties(data_a in tensor_strategy(12), data_b in tensor_strategy(12), s in -3.0f32..3.0) {
        let a = Tensor::from_vec(data_a, &[12]).unwrap();
        let b = Tensor::from_vec(data_b, &[12]).unwrap();
        let sum = a.add(&b).unwrap();
        prop_assert!(sum.l2_norm() <= a.l2_norm() + b.l2_norm() + 1e-4);
        prop_assert!((a.scale(s).l2_norm() - s.abs() * a.l2_norm()).abs() < 1e-3);
    }

    /// Matrix multiplication distributes over addition.
    #[test]
    fn matmul_distributes(a in tensor_strategy(12), b in tensor_strategy(20), c in tensor_strategy(20)) {
        let a = Tensor::from_vec(a, &[3, 4]).unwrap();
        let b = Tensor::from_vec(b, &[4, 5]).unwrap();
        let c = Tensor::from_vec(c, &[4, 5]).unwrap();
        let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    /// `matmul_transpose_a` and `matmul_transpose_b` agree with explicit matmul.
    #[test]
    fn transpose_matmul_consistency(a in tensor_strategy(12), b in tensor_strategy(15)) {
        // a: [3,4] viewed also as [4,3] transposed operand; b: [3,5]
        let a_t = Tensor::from_vec(a.clone(), &[3, 4]).unwrap();
        let b_m = Tensor::from_vec(b, &[3, 5]).unwrap();
        let via_ta = matmul_transpose_a(&a_t, &b_m).unwrap();
        // Build explicit transpose of a.
        let mut at = Tensor::zeros(&[4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                at.set(&[j, i], a_t.get(&[i, j]).unwrap()).unwrap();
            }
        }
        let direct = matmul(&at, &b_m).unwrap();
        for (x, y) in via_ta.data().iter().zip(direct.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        // a · aᵀ computed via the transpose-b helper vs an explicit transpose.
        let via_tb = matmul_transpose_b(&a_t, &a_t).unwrap();
        let direct2 = matmul(&a_t, &at).unwrap();
        for (x, y) in via_tb.data().iter().zip(direct2.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Convolution is linear in its input.
    #[test]
    fn conv_is_linear(a in tensor_strategy(48), b in tensor_strategy(48), w in tensor_strategy(18), alpha in -2.0f32..2.0) {
        let x1 = Tensor::from_vec(a, &[1, 3, 4, 4]).unwrap();
        let x2 = Tensor::from_vec(b, &[1, 3, 4, 4]).unwrap();
        let weight = Tensor::from_vec(w, &[2, 3, 1, 3]).unwrap().reshape(&[2, 3, 3, 1]).unwrap();
        let spec = ConvSpec::valid();
        let combo = x1.scale(alpha).add(&x2).unwrap();
        let lhs = conv2d(&combo, &weight, spec).unwrap();
        let rhs = conv2d(&x1, &weight, spec).unwrap().scale(alpha)
            .add(&conv2d(&x2, &weight, spec).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    /// stack/batch_item round-trips.
    #[test]
    fn stack_batch_item_roundtrip(a in tensor_strategy(12), b in tensor_strategy(12)) {
        let t1 = Tensor::from_vec(a, &[3, 4]).unwrap();
        let t2 = Tensor::from_vec(b, &[3, 4]).unwrap();
        let s = Tensor::stack(&[t1.clone(), t2.clone()]).unwrap();
        prop_assert_eq!(s.batch_item(0).unwrap(), t1);
        prop_assert_eq!(s.batch_item(1).unwrap(), t2);
    }

    /// The blocked/register-tiled GEMM agrees with the seed scalar
    /// implementation within 1e-5 on ChaCha8-seeded random matrices whose
    /// shapes straddle the tile and panel boundaries.
    #[test]
    fn blocked_gemm_matches_seed_reference(
        seed in 0u64..64,
        m in 1usize..70,
        k in 1usize..90,
        n in 1usize..70,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = reference::matmul_naive(&a, &b).unwrap();
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            prop_assert!(
                (x - y).abs() < 1e-5 * (1.0 + y.abs()),
                "({}, {}, {}): {} vs {}", m, k, n, x, y
            );
        }
    }

    /// The packed transpose variants agree with transpose-then-multiply
    /// through the seed reference.
    #[test]
    fn transpose_gemms_match_seed_reference(seed in 0u64..48, m in 1usize..30, k in 1usize..40, n in 1usize..30) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5);
        // aᵀ·b with a stored [k, m].
        let a = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let mut at = Tensor::zeros(&[m, k]);
        for i in 0..k {
            for j in 0..m {
                at.set(&[j, i], a.get(&[i, j]).unwrap()).unwrap();
            }
        }
        let fast = matmul_transpose_a(&a, &b).unwrap();
        let slow = reference::matmul_naive(&at, &b).unwrap();
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            prop_assert!((x - y).abs() < 1e-5 * (1.0 + y.abs()), "{} vs {}", x, y);
        }
        // a·bᵀ with b stored [n, k].
        let c = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let d = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
        let mut dt = Tensor::zeros(&[k, n]);
        for i in 0..n {
            for j in 0..k {
                dt.set(&[j, i], d.get(&[i, j]).unwrap()).unwrap();
            }
        }
        let fast = matmul_transpose_b(&c, &d).unwrap();
        let slow = reference::matmul_naive(&c, &dt).unwrap();
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            prop_assert!((x - y).abs() < 1e-5 * (1.0 + y.abs()), "{} vs {}", x, y);
        }
    }

    /// The direct (im2col-free) depthwise fast path agrees with the seed
    /// gather loop within 1e-5 across stride/padding/kernel combinations,
    /// including padding wider than the kernel overhang.
    #[test]
    fn depthwise_fast_path_matches_seed_reference(
        seed in 0u64..48,
        stride in 1usize..4,
        padding in 0usize..4,
        kernel in prop_oneof![Just(1usize), Just(3), Just(5)],
        h in 5usize..12,
        w in 5usize..12,
    ) {
        let spec = ConvSpec { stride, padding };
        if spec.output_extent(h, kernel).is_err() || spec.output_extent(w, kernel).is_err() {
            return Ok(());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A5A);
        let input = Tensor::rand_uniform(&[2, 3, h, w], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[3, kernel, kernel], -1.0, 1.0, &mut rng);
        let bias = Tensor::rand_uniform(&[3], -0.5, 0.5, &mut rng);
        let fast = default_backend().depthwise_conv2d(&input, &weight, Some(&bias), spec).unwrap();
        let slow = reference::depthwise_conv2d_naive(&input, &weight, Some(&bias), spec).unwrap();
        prop_assert_eq!(fast.dims(), slow.dims());
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            prop_assert!(
                (x - y).abs() < 1e-5,
                "stride {} pad {} k {}: {} vs {}", stride, padding, kernel, x, y
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The halo-padded depthwise kernels (stride-1 forward, input gradient,
    /// weight and bias gradients) equal the seed scatter and gather loops
    /// bit for bit: kernels 1..=7 on either axis, widths around the
    /// register block, stride 1 to 3, padding 0 to 3 (wider than the
    /// kernel overhang too), operands with `+0.0` and `−0.0` entries,
    /// ReLU-sparse gradients and `±0.0` biases.
    #[test]
    fn depthwise_kernels_match_scatter_references_bitwise(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..4,
        kh in 1usize..8,
        kw in 1usize..8,
        stride in 1usize..4,
        padding in 0usize..4,
        h in 1usize..20,
        w in 1usize..20,
        sparse_pick in 0u32..2,
    ) {
        let relu_sparse = sparse_pick == 1;
        let spec = ConvSpec { stride, padding };
        let (Ok(oh), Ok(ow)) = (spec.output_extent(h, kh), spec.output_extent(w, kw)) else {
            return Ok(());
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input = signed_zero_tensor(&mut rng, &[n, c, h, w], 0.0);
        let weight = signed_zero_tensor(&mut rng, &[c, kh, kw], 0.0);
        let mut bias = signed_zero_tensor(&mut rng, &[c], 0.0);
        bias.data_mut()[0] = if seed % 2 == 0 { -0.0 } else { 0.0 };
        let grad = signed_zero_tensor(&mut rng, &[n, c, oh, ow], if relu_sparse { 0.5 } else { 0.0 });
        let backend = default_backend();

        let fwd = backend.depthwise_conv2d(&input, &weight, Some(&bias), spec).unwrap();
        let naive = reference::depthwise_conv2d_naive(&input, &weight, Some(&bias), spec).unwrap();
        assert_bits(&fwd, &naive, "depthwise_conv2d")?;

        let d_input = backend.depthwise_input_grad(&weight, &grad, input.dims(), spec).unwrap();
        let naive = reference::depthwise_input_grad_naive(&weight, &grad, input.dims(), spec).unwrap();
        assert_bits(&d_input, &naive, "depthwise_input_grad")?;

        let grads = backend.depthwise_conv2d_backward(&input, &weight, &grad, spec).unwrap();
        let (d_weight, d_bias) =
            reference::depthwise_weight_grad_naive(&input, &weight, &grad, spec).unwrap();
        assert_bits(&grads.d_input, &naive, "backward d_input")?;
        assert_bits(&grads.d_weight, &d_weight, "backward d_weight")?;
        assert_bits(&grads.d_bias, &d_bias, "backward d_bias")?;
    }
}

/// Uniform values in `[-1, 1)`, about one in eight an exact `+0.0` and one
/// in eight `-0.0`; with `sparsity` > 0 that share of the values is
/// instead zeroed as a ReLU backward would (`±0.0`).
fn signed_zero_tensor(rng: &mut ChaCha8Rng, dims: &[usize], sparsity: f64) -> Tensor {
    use rand::Rng;
    let len = dims.iter().product();
    let data = (0..len)
        .map(|_| {
            if rng.gen_bool(sparsity) {
                return if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
            }
            match rng.gen_range(0u32..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0),
            }
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

fn assert_bits(actual: &Tensor, expected: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(actual.dims(), expected.dims(), "{} dims", what);
    for (i, (a, e)) in actual.data().iter().zip(expected.data()).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            e.to_bits(),
            "{}: {} != reference {} at {}",
            what,
            a,
            e,
            i
        );
    }
    Ok(())
}

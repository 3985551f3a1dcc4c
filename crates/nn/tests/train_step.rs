//! Oracles for the training step that share no code with the engine.
//!
//! * A central finite-difference check of **every parameter tensor** of a
//!   tiny LisaCnn with a trainable depthwise layer (conv, depthwise and
//!   dense weights and biases), on a plain cross-entropy step and on a
//!   step with a total-variation penalty injected at the first-layer
//!   feature maps (Eq. 4). The loss is evaluated by folding each layer's
//!   own `infer` and accumulating cross-entropy and TV in `f64`.
//! * The shard rule: `train_step` runs fixed blocks of
//!   [`TRAIN_SHARD_ROWS`] images and sums their parameter gradients in
//!   block order. Its gradients match the whole-batch path (the
//!   `Sequential::forward(_, true)` / `backward` wrapper, one recording of
//!   the whole batch) within 1e-5 relative, with and without a feature
//!   injection, and are bit-identical under rayon pools of 1, 2 and 4.
//! * The exact call sequence `blurbench`'s `nn.param_grad_ms` probe times:
//!   clone, `forward(&x, true)`, `softmax_cross_entropy`, `backward`, at
//!   batch 1, 8 and 32.

use blurnet_nn::{
    softmax_cross_entropy, Gradients, Layer, LisaCnn, Sequential, ShardGrad, TRAIN_SHARD_ROWS,
};
use blurnet_tensor::{Scratch, Tensor};
use blurnet_test_support::{seeded_rng, uniform_batch};

/// The first-layer feature maps (conv1's output) the TV penalty acts on.
const FEATURE_LAYER: usize = 0;
/// TV strength, large enough that the penalty moves every conv1 gradient.
const TV_ALPHA: f32 = 0.05;
/// Central-difference step and relative tolerance, as in the whole-network
/// input-gradient check of `network.rs` (eps 1e-3, 5e-2).
const EPS: f32 = 1e-3;
const TOLERANCE: f64 = 5e-2;

fn depthwise_net(seed: u64) -> Sequential {
    LisaCnn::new(18)
        .input_size(16)
        .conv1_filters(4)
        .with_trainable_depthwise(3)
        .build(&mut seeded_rng(seed))
        .expect("tiny LisaCnn builds")
}

/// Total variation per `[H, W]` map, averaged over the `N·C` maps, in f64,
/// plus its α-scaled sub-gradient (sign(0) = 0) as the `f32` injection.
fn tv_f64(maps: &Tensor) -> (f64, Tensor) {
    let dims = maps.dims();
    let (nc, h, w) = (dims[0] * dims[1], dims[2], dims[3]);
    let d = maps.data();
    let (mut total, mut g) = (0.0f64, vec![0.0f64; d.len()]);
    for p in 0..d.len() {
        let (y, x) = ((p / w) % h, p % w);
        for q in [(y + 1 < h).then(|| p + w), (x + 1 < w).then(|| p + 1)]
            .into_iter()
            .flatten()
        {
            let diff = f64::from(d[q]) - f64::from(d[p]);
            let s = if diff == 0.0 { 0.0 } else { diff.signum() };
            total += diff.abs();
            g[q] += s;
            g[p] -= s;
        }
    }
    let scale = f64::from(TV_ALPHA) / nc as f64;
    let grad = g.iter().map(|v| (v * scale) as f32).collect();
    (total / nc as f64, Tensor::from_vec(grad, dims).unwrap())
}

/// Mean softmax cross-entropy plus the optional TV term, accumulated in
/// f64 over a fold of each layer's `infer`.
fn loss_f64(net: &Sequential, x: &Tensor, labels: &[usize], tv: bool) -> f64 {
    let mut scratch = Scratch::new();
    let mut act = x.clone();
    let mut penalty = 0.0f64;
    for (i, layer) in net.iter().enumerate() {
        act = layer.infer(&act, &mut scratch).expect("layer runs");
        if tv && i == FEATURE_LAYER {
            penalty = f64::from(TV_ALPHA) * tv_f64(&act).0;
        }
    }
    let classes = act.dims()[1];
    let mut ce = 0.0f64;
    for (row, &label) in act.data().chunks(classes).zip(labels) {
        let max = row.iter().fold(f64::MIN, |m, &v| m.max(f64::from(v)));
        let lse = max
            + row
                .iter()
                .map(|&v| (f64::from(v) - max).exp())
                .sum::<f64>()
                .ln();
        ce += lse - f64::from(row[label]);
    }
    ce / labels.len() as f64 + penalty
}

/// The engine's training-step gradients for the same loss.
fn analytic(net: &Sequential, x: &Tensor, labels: &[usize], tv: bool) -> Gradients {
    let engine = net.batch_engine().expect("engine builds");
    let feature_layer = tv.then_some(FEATURE_LAYER);
    let (_, grads) = engine
        .train_step(x, feature_layer, |logits, feature| {
            let (loss, d_logits) = softmax_cross_entropy(logits, labels)?;
            Ok(ShardGrad {
                d_logits,
                injection: feature.map(|f| tv_f64(f).1),
                loss,
            })
        })
        .expect("train step");
    grads
}

/// Central differences on a few elements of every parameter tensor: the
/// largest-gradient element plus a spread of fixed positions. Returns the
/// checked analytic gradients.
fn check_every_parameter(tv: bool) -> Gradients {
    let mut net = depthwise_net(11);
    let x = uniform_batch(&[2, 3, 16, 16], 0.0, 1.0, 12);
    let labels = [3usize, 14];
    let grads = analytic(&net, &x, &labels, tv);
    let shapes: Vec<Vec<usize>> = net
        .iter()
        .flat_map(|l| l.params())
        .map(|p| p.dims().to_vec())
        .collect();
    assert_eq!(
        shapes.len(),
        10,
        "weight and bias of conv1, depthwise, conv2, conv3 and dense"
    );
    assert_eq!(grads.params.len(), shapes.len());
    for (k, grad) in grads.params.iter().enumerate() {
        assert_eq!(grad.dims(), shapes[k].as_slice());
        let g = grad.data();
        let largest = (0..g.len())
            .max_by(|&a, &b| g[a].abs().total_cmp(&g[b].abs()))
            .unwrap();
        let mut indices = vec![largest, 0, g.len() / 3, 2 * g.len() / 3, g.len() - 1];
        indices.dedup();
        for j in indices {
            let original = net.params_mut()[k].data()[j];
            net.params_mut()[k].data_mut()[j] = original + EPS;
            let plus = loss_f64(&net, &x, &labels, tv);
            net.params_mut()[k].data_mut()[j] = original - EPS;
            let minus = loss_f64(&net, &x, &labels, tv);
            net.params_mut()[k].data_mut()[j] = original;
            let numeric = (plus - minus) / (2.0 * f64::from(EPS));
            let analytic = f64::from(g[j]);
            assert!(
                (numeric - analytic).abs() <= TOLERANCE * numeric.abs().max(analytic.abs()) + 1e-4,
                "tv={tv} param {k} {:?} element {j}: numeric {numeric} vs analytic {analytic}",
                shapes[k]
            );
        }
    }
    grads
}

#[test]
fn every_parameter_gradient_matches_finite_difference() {
    check_every_parameter(false);
}

#[test]
fn tv_injected_parameter_gradients_match_finite_difference() {
    let injected = check_every_parameter(true);
    // The penalty sits on conv1's output: it must move conv1's gradients
    // and leave every later layer's untouched.
    let plain = check_every_parameter(false);
    assert_ne!(injected.params[0], plain.params[0]);
    assert_ne!(injected.params[1], plain.params[1]);
    assert_eq!(injected.params[2..], plain.params[2..]);
}

/// Relative tolerance of the sharded step against the whole-batch path:
/// only the order of the per-block sums differs.
const SHARD_TOLERANCE: f32 = 1e-5;

/// Asserts `got` matches `want` elementwise within [`SHARD_TOLERANCE`] of
/// the reference tensor's largest magnitude (a sum's rounding error scales
/// with its terms, not with a result that cancels to near zero).
fn assert_close(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for (j, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            (a - b).abs() <= SHARD_TOLERANCE * scale,
            "{what} element {j}: {a} vs {b} (scale {scale})"
        );
    }
}

fn assert_grads_close(got: &Gradients, want: &Gradients, what: &str) {
    assert_close(&got.input, &want.input, &format!("{what} input"));
    assert_eq!(got.params.len(), want.params.len());
    for (k, (a, b)) in got.params.iter().zip(&want.params).enumerate() {
        assert_close(a, b, &format!("{what} param {k}"));
    }
}

/// The whole-batch reference through the public recording wrapper. With
/// `tv`, the network is split after [`FEATURE_LAYER`] so the TV injection
/// can be added to the feature gradient between the two backwards — the
/// chain rule the engine applies inside one recording.
fn whole_batch(net: &Sequential, x: &Tensor, labels: &[usize], tv: bool) -> Gradients {
    let part = |range: std::ops::Range<usize>| {
        let mut part = Sequential::new();
        for layer in net.iter().skip(range.start).take(range.len()) {
            part.push(layer.clone());
        }
        part
    };
    let split = if tv { FEATURE_LAYER + 1 } else { 0 };
    let (mut stem, mut head) = (part(0..split), part(split..net.len()));
    let feature = if tv {
        stem.forward(x, true).expect("stem forward")
    } else {
        x.clone()
    };
    let logits = head.forward(&feature, true).expect("head forward");
    let (_, d_logits) = softmax_cross_entropy(&logits, labels).expect("loss");
    let head_grads = head.backward(&d_logits).expect("head backward");
    if !tv {
        return head_grads;
    }
    let mut d_feature = head_grads.input;
    d_feature
        .add_scaled(&tv_f64(&feature).1, 1.0)
        .expect("injection shape");
    let stem_grads = stem.backward(&d_feature).expect("stem backward");
    Gradients {
        input: stem_grads.input,
        params: stem_grads
            .params
            .into_iter()
            .chain(head_grads.params)
            .collect(),
    }
}

#[test]
fn sharded_train_step_matches_the_whole_batch_path() {
    assert_eq!(TRAIN_SHARD_ROWS, 4);
    let net = depthwise_net(21);
    // One block, exactly one block, ragged, whole blocks, many blocks.
    for batch in [1usize, 4, 7, 8, 17] {
        let x = uniform_batch(&[batch, 3, 16, 16], 0.0, 1.0, 100 + batch as u64);
        let labels: Vec<usize> = (0..batch).map(|i| (5 * i + 3) % 18).collect();
        for tv in [false, true] {
            let sharded = analytic(&net, &x, &labels, tv);
            let reference = whole_batch(&net, &x, &labels, tv);
            assert_grads_close(&sharded, &reference, &format!("batch {batch} tv={tv}"));
            if batch <= TRAIN_SHARD_ROWS {
                // One block is the whole batch: nothing is re-associated.
                assert_eq!(sharded.params, reference.params, "batch {batch} tv={tv}");
                assert_eq!(sharded.input, reference.input, "batch {batch} tv={tv}");
            }
        }
    }
}

#[test]
fn sharded_gradients_are_bit_identical_across_thread_counts() {
    let net = depthwise_net(22);
    let x = uniform_batch(&[17, 3, 16, 16], 0.0, 1.0, 23);
    let labels: Vec<usize> = (0..17).map(|i| i % 18).collect();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for tv in [false, true] {
        let runs: Vec<Vec<Vec<u32>>> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                let grads = pool.install(|| analytic(&net, &x, &labels, tv));
                std::iter::once(&grads.input)
                    .chain(&grads.params)
                    .map(bits)
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "tv={tv}: 1 vs 2 threads");
        assert_eq!(runs[0], runs[2], "tv={tv}: 1 vs 4 threads");
    }
}

#[test]
fn blurbench_probe_sequence_runs_at_batch_1_8_32() {
    let model = LisaCnn::new(18)
        .build(&mut seeded_rng(5))
        .expect("LisaCnn builds");
    let mut net = model.clone();
    for batch in [1usize, 8, 32] {
        let x = uniform_batch(&[batch, 3, 32, 32], 0.0, 1.0, batch as u64);
        let labels: Vec<usize> = (0..batch).map(|i| i % 18).collect();
        // Repeated like the probe's median timer.
        for _ in 0..2 {
            let logits = net.forward(&x, true).expect("recorded forward");
            let (_, d_logits) = softmax_cross_entropy(&logits, &labels).expect("loss");
            let grads = net.backward(&d_logits).expect("backward");
            assert_eq!(grads.input.dims(), x.dims());
            assert_eq!(grads.params.len(), net.params_mut().len());
            // The wrapper records the whole batch as one shard; the
            // engine's training step sums fixed blocks in block order.
            let direct = analytic(&model, &x, &labels, false);
            assert_grads_close(&direct, &grads, &format!("batch {batch}"));
        }
    }
}

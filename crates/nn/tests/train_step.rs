//! Oracles for the training step that share no code with the engine.
//!
//! * A central finite-difference check of **every parameter tensor** of a
//!   tiny LisaCnn with a trainable depthwise layer (conv, depthwise and
//!   dense weights and biases), on a plain cross-entropy step and on a
//!   step with a total-variation penalty injected at the first-layer
//!   feature maps (Eq. 4). The loss is evaluated by folding each layer's
//!   own `infer` and accumulating cross-entropy and TV in `f64`.
//! * The exact call sequence `blurbench`'s `nn.param_grad_ms` probe times:
//!   clone, `forward(&x, true)`, `softmax_cross_entropy`, `backward`, at
//!   batch 1, 8 and 32.

use blurnet_nn::{softmax_cross_entropy, Gradients, Layer, LisaCnn, Sequential, ShardGrad};
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
        .train_step(x, feature_layer, &mut Scratch::new(), |logits, feature| {
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
            // The wrapper is the engine's training step, bit for bit.
            let direct = analytic(&model, &x, &labels, false);
            assert_eq!(grads.input, direct.input, "batch {batch}");
            assert_eq!(grads.params, direct.params, "batch {batch}");
        }
    }
}

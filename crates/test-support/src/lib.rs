//! Seeded fixture builders shared by the workspace's test suites.
//!
//! Before this crate existed, `crates/nn/tests/`, `crates/signal/tests/`
//! and the root `tests/` each carried their own copy of the same fixture
//! code: a tiny 2-conv LISA-CNN built from a `ChaCha8Rng`, uniform random
//! batches, and hand-rolled sticker masks. The copies drifted (different
//! seeds, different builder parameters) and every new test file started by
//! pasting one of them. This crate is the single home for those fixtures.
//!
//! Everything here is **deterministic given the seed** — the same property
//! the engine and scheduler tests pin bitwise — so fixtures can be rebuilt
//! in two places (e.g. a reference path and a parallel path) and compared
//! exactly.

use blurnet_data::{sticker_mask, StickerLayout};
use blurnet_defenses::{DefendedModel, DefenseKind, TrainConfig, TrainingReport, SMOOTHING_SEED};
use blurnet_nn::{Layer, LisaCnn, Sequential, TapeSlot};
use blurnet_tensor::persist::fnv1a;
use blurnet_tensor::{default_backend, ConvSpec, Scratch, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Number of classes in the synthetic LISA dataset (and therefore in every
/// fixture network's head).
pub const NUM_CLASSES: usize = 18;

/// Spatial extent of the tiny fixture images (`[3, 16, 16]`).
pub const TINY_IMAGE_SIZE: usize = 16;

/// A fresh `ChaCha8Rng` for `seed` — the one RNG family every test in the
/// workspace derives data from.
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// The workspace's canonical tiny network: a 2-conv LISA-CNN over
/// `[3, 16, 16]` inputs with 4 first-layer filters, built from `seed`.
///
/// This is the exact fixture previously copied into `crates/nn/tests/`
/// (twice) and the root test suite.
///
/// # Panics
///
/// Panics if the builder rejects the fixed configuration (a bug, not an
/// input condition).
pub fn tiny_lisa_net(seed: u64) -> Sequential {
    tiny_lisa_builder()
        .build(&mut seeded_rng(seed))
        .expect("tiny LisaCnn builds")
}

/// The builder behind [`tiny_lisa_net`], for tests that also need the
/// architecture config.
pub(crate) fn tiny_lisa_builder() -> LisaCnn {
    LisaCnn::new(NUM_CLASSES)
        .input_size(TINY_IMAGE_SIZE)
        .conv1_filters(4)
}

/// Independent forward reference for engine tests: each layer's own
/// [`Layer::infer`] (unpacked kernels, weights packed per call) folded
/// over the network. It shares no code with `BatchEngine`.
///
/// # Panics
///
/// Panics if a layer rejects the input shape.
pub fn reference_forward(net: &Sequential, input: &Tensor) -> Tensor {
    let mut scratch = Scratch::new();
    net.iter()
        .try_fold(input.clone(), |x, layer| layer.infer(&x, &mut scratch))
        .expect("reference forward")
}

/// Independent randomized-smoothing reference: for each image, `samples`
/// Gaussian-noised copies (σ = `sigma`, clamped to `[0, 1]`) drawn from
/// the image's own ChaCha8 stream, seeded with [`SMOOTHING_SEED`] XOR the
/// FNV-1a hash of the image's little-endian f32 bytes, each judged alone
/// by [`reference_forward`]. Returns the majority class (ties go to the
/// lowest class) and its vote share per image.
///
/// # Panics
///
/// Panics if a layer rejects the image shape.
pub fn reference_smoothed_votes(
    net: &Sequential,
    images: &[Tensor],
    sigma: f32,
    samples: usize,
) -> Vec<(usize, f32)> {
    images
        .iter()
        .map(|image| {
            let bytes: Vec<u8> = image.data().iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut rng = seeded_rng(SMOOTHING_SEED ^ fnv1a(&bytes));
            let mut noise_dims = vec![samples];
            noise_dims.extend_from_slice(image.dims());
            let noise = Tensor::rand_normal(&noise_dims, 0.0, sigma, &mut rng);
            let mut votes: Vec<usize> = Vec::new();
            for s in 0..samples {
                let noisy = noise
                    .batch_item(s)
                    .expect("sample in range")
                    .zip_map(image, |n, x| (n + x).clamp(0.0, 1.0))
                    .expect("noise matches the image");
                let batch = Tensor::stack(&[noisy]).expect("one image");
                let logits = reference_forward(net, &batch);
                let mut class = 0;
                for (j, &v) in logits.data().iter().enumerate() {
                    if v > logits.data()[class] {
                        class = j;
                    }
                }
                if votes.len() <= class {
                    votes.resize(class + 1, 0);
                }
                votes[class] += 1;
            }
            let mut winner = 0;
            for (class, &count) in votes.iter().enumerate() {
                if count > votes[winner] {
                    winner = class;
                }
            }
            (winner, votes[winner] as f32 / samples as f32)
        })
        .collect()
}

/// Independent input-gradient reference: [`Layer::infer_recording`]
/// folded forward over the network, then [`Layer::input_grad`] folded
/// backward from `grad_output`. It shares no code with `BatchEngine`.
///
/// # Panics
///
/// Panics if a layer rejects the input or gradient shape.
pub fn reference_input_grad(net: &Sequential, input: &Tensor, grad_output: &Tensor) -> Tensor {
    let mut scratch = Scratch::new();
    let mut tapes = vec![TapeSlot::default(); net.len()];
    let mut x = input.clone();
    for (layer, tape) in net.iter().zip(tapes.iter_mut()) {
        x = layer
            .infer_recording(&x, tape, &mut scratch)
            .expect("reference forward");
    }
    net.iter()
        .zip(&tapes)
        .rev()
        .try_fold(grad_output.clone(), |g, (layer, tape)| {
            layer.input_grad(tape, &g, &mut scratch)
        })
        .expect("reference backward")
}

/// An untrained [`DefendedModel`] around [`tiny_lisa_net`] — the fixture
/// for defense-path tests that do not need trained weights.
///
/// # Panics
///
/// Panics if the fixed builder configuration fails (a bug).
pub fn tiny_defended_model(defense: DefenseKind, seed: u64) -> DefendedModel {
    let builder = tiny_lisa_builder();
    let net = builder
        .build(&mut seeded_rng(seed))
        .expect("tiny LisaCnn builds");
    DefendedModel::new(
        net,
        defense,
        builder.config().clone(),
        TrainingReport {
            epoch_losses: vec![],
            test_accuracy: 0.0,
        },
    )
}

/// A `[dims...]` tensor of uniform values in `[lo, hi)` drawn from `seed` —
/// the CIFAR-like random batch every equivalence test feeds both sides of
/// a comparison.
pub fn uniform_batch(dims: &[usize], lo: f32, hi: f32, seed: u64) -> Tensor {
    Tensor::rand_uniform(dims, lo, hi, &mut seeded_rng(seed))
}

/// The generic 2-D blur the separable fast path is pinned against: a
/// depthwise "same" convolution of the `[N, C, H, W]` `batch` with one copy
/// of the square, odd `kernel` per channel, through the default backend.
///
/// # Panics
///
/// Panics if the batch is not rank 4 or the kernel is not square and odd.
pub fn blur_2d(batch: &Tensor, kernel: &Tensor) -> Tensor {
    let weights = Tensor::stack(&vec![kernel.clone(); batch.dims()[1]]).expect("one kernel");
    let spec = ConvSpec::same(kernel.dims()[0]).expect("odd kernel");
    default_backend()
        .depthwise_conv2d(batch, &weights, None, spec)
        .expect("rank-4 batch and square kernel")
}

/// `n` individual `[3, size, size]` images in `[0, 1)`, seeded — the
/// slice-of-images form the attack and defense evaluation APIs take.
pub fn uniform_images(n: usize, size: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|_| Tensor::rand_uniform(&[3, size, size], 0.0, 1.0, &mut rng))
        .collect()
}

/// The canned two-bar sticker mask at the tiny fixture extent — the RP2
/// "graffiti" layout every mask-invariant test uses.
///
/// # Panics
///
/// Panics if mask generation rejects the fixed extent (a bug).
pub fn canned_sticker_mask() -> Tensor {
    sticker_mask(TINY_IMAGE_SIZE, TINY_IMAGE_SIZE, StickerLayout::TwoBars)
        .expect("fixture mask extent is valid")
}

/// The smoke-scale training recipe shared by integration tests that train
/// a real (tiny) model: `epochs` at batch 16, lr 2e-3, seed 7.
pub fn smoke_train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        learning_rate: 2e-3,
        seed: 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_nn::persist::sequential_to_bytes;

    #[test]
    fn fixtures_are_deterministic_per_seed() {
        let a = tiny_lisa_net(3);
        let b = tiny_lisa_net(3);
        assert_eq!(sequential_to_bytes(&a), sequential_to_bytes(&b));
        let c = tiny_lisa_net(4);
        assert_ne!(sequential_to_bytes(&a), sequential_to_bytes(&c));

        assert_eq!(
            uniform_batch(&[2, 3, 4, 4], 0.0, 1.0, 9),
            uniform_batch(&[2, 3, 4, 4], 0.0, 1.0, 9)
        );
        assert_ne!(
            uniform_batch(&[2, 3, 4, 4], 0.0, 1.0, 9),
            uniform_batch(&[2, 3, 4, 4], 0.0, 1.0, 10)
        );
    }

    #[test]
    fn image_fixtures_have_the_documented_shapes() {
        let images = uniform_images(3, TINY_IMAGE_SIZE, 1);
        assert_eq!(images.len(), 3);
        for image in &images {
            assert_eq!(image.dims(), &[3, TINY_IMAGE_SIZE, TINY_IMAGE_SIZE]);
            assert!(image.min().unwrap() >= 0.0 && image.max().unwrap() < 1.0);
        }
        let mask = canned_sticker_mask();
        assert_eq!(mask.dims(), &[TINY_IMAGE_SIZE, TINY_IMAGE_SIZE]);
        assert!(mask.data().iter().any(|&v| v > 0.5));
    }

    #[test]
    fn defended_model_fixture_classifies() {
        let model = tiny_defended_model(DefenseKind::Baseline, 0);
        let image = Tensor::full(&[1, 3, TINY_IMAGE_SIZE, TINY_IMAGE_SIZE], 0.5);
        let engine = model.network().batch_engine().unwrap();
        assert!(model.classify(&engine, &image).unwrap()[0].0 < NUM_CLASSES);
        assert_eq!(smoke_train_config(4).epochs, 4);
    }
}

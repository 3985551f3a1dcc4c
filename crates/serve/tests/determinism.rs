//! The serving determinism contract: micro-batched responses are
//! bit-identical to single-request execution, at every batch window and
//! worker count, for every kind of defended inference (randomized
//! smoothing included).
//!
//! Run under `RAYON_NUM_THREADS=1` and `=4` in CI — the responses must
//! not depend on the engine's intra-batch sharding either.

use std::sync::Arc;
use std::time::Duration;

use blurnet_defenses::DefenseKind;
use blurnet_nn::confidences;
use blurnet_serve::{
    classify_single, Classification, ClassifyService, DefenseVerdict, ServeConfig,
};
use blurnet_tensor::Tensor;
use blurnet_test_support::{
    reference_forward, tiny_defended_model, uniform_images, TINY_IMAGE_SIZE,
};

/// Pinned by the ISSUE: batch windows {1, 4, 32} × worker counts {1, 4}.
const MAX_BATCHES: [usize; 3] = [1, 4, 32];
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn bits(c: &Classification) -> (usize, u32, blurnet_serve::DefenseVerdict) {
    (c.label, c.confidence.to_bits(), c.verdict)
}

/// Classifies `images` through a service concurrently (one submitting
/// thread per image, so requests genuinely mix in the batcher) and
/// returns responses in image order.
fn classify_concurrently(service: &ClassifyService, images: &[Tensor]) -> Vec<Classification> {
    let handle = service.client();
    std::thread::scope(|scope| {
        let workers: Vec<_> = images
            .iter()
            .map(|image| {
                let handle = handle.clone();
                let image = image.clone();
                scope.spawn(move || handle.classify(image).expect("service answers"))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("submitting thread"))
            .collect()
    })
}

#[test]
fn micro_batched_matches_single_request_bitwise() {
    for defense in [
        DefenseKind::Baseline,
        DefenseKind::InputFilter { kernel: 3 },
        DefenseKind::FeatureFilter { kernel: 3 },
        DefenseKind::RandomizedSmoothing {
            sigma: 0.5,
            samples: 8,
        },
    ] {
        let model = Arc::new(tiny_defended_model(defense, 11));
        let images = uniform_images(48, TINY_IMAGE_SIZE, 17);
        let reference: Vec<_> = images
            .iter()
            .map(|image| classify_single(&model, image).expect("reference path"))
            .collect();

        for max_batch in MAX_BATCHES {
            for workers in WORKER_COUNTS {
                let service = ClassifyService::new(
                    Arc::clone(&model),
                    ServeConfig {
                        max_batch,
                        flush_window: Duration::from_micros(200),
                        workers,
                        queue_depth: 64,
                        ..ServeConfig::default()
                    },
                )
                .expect("service starts");
                let batched = classify_concurrently(&service, &images);
                service.shutdown().expect("clean shutdown");

                for (i, (single, many)) in reference.iter().zip(&batched).enumerate() {
                    assert_eq!(
                        bits(single),
                        bits(many),
                        "image {i} diverged at max_batch={max_batch} workers={workers} \
                         defense={}",
                        model.defense().label()
                    );
                }
            }
        }
    }
}

/// The oracle itself, pinned to code it does not share with the service:
/// the defense's preprocessing, a layer-by-layer `reference_forward`, the
/// row-local softmax confidence, and the raw-input verdict.
#[test]
fn classify_single_matches_the_reference_fold() {
    for defense in [
        DefenseKind::Baseline,
        DefenseKind::InputFilter { kernel: 3 },
        DefenseKind::FeatureFilter { kernel: 3 },
    ] {
        let model = tiny_defended_model(defense, 7);
        let top = |batch: &Tensor| {
            confidences(&reference_forward(model.network(), batch)).expect("[1, classes]")[0]
        };
        for image in uniform_images(6, TINY_IMAGE_SIZE, 31) {
            let raw = Tensor::stack(std::slice::from_ref(&image)).expect("one image");
            let (label, confidence) = top(&model.preprocess_batch(&raw).expect("preprocess"));
            let verdict = if model.has_input_preprocessing() && top(&raw).0 != label {
                DefenseVerdict::Flagged
            } else {
                DefenseVerdict::Clean
            };
            let got = classify_single(&model, &image).expect("oracle answers");
            assert_eq!(
                bits(&got),
                (label, confidence.to_bits(), verdict),
                "defense {}",
                model.defense().label()
            );
        }
    }
}

#[test]
fn zero_window_still_answers_every_request() {
    // A zero flush window dispatches the moment the batcher sees a
    // request; coalescing shrinks to whatever is already queued, but
    // responses stay bit-identical and nothing is dropped.
    let model = Arc::new(tiny_defended_model(DefenseKind::Baseline, 3));
    let images = uniform_images(16, TINY_IMAGE_SIZE, 5);
    let reference: Vec<_> = images
        .iter()
        .map(|image| classify_single(&model, image).expect("reference path"))
        .collect();
    let service = ClassifyService::new(
        Arc::clone(&model),
        ServeConfig {
            max_batch: 32,
            flush_window: Duration::ZERO,
            workers: 2,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    let batched = classify_concurrently(&service, &images);
    service.shutdown().expect("clean shutdown");
    for (single, many) in reference.iter().zip(&batched) {
        assert_eq!(bits(single), bits(many));
    }
}

#[test]
fn repeated_payload_is_stable_across_batches() {
    // The same image sent many times, racing against other traffic, must
    // always produce the same bytes — the service-level restatement of
    // the engine's batch invariance.
    let model = Arc::new(tiny_defended_model(
        DefenseKind::InputFilter { kernel: 3 },
        23,
    ));
    let images = uniform_images(8, TINY_IMAGE_SIZE, 29);
    let service = ClassifyService::new(
        Arc::clone(&model),
        ServeConfig {
            max_batch: 4,
            flush_window: Duration::from_micros(100),
            workers: 2,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    let probe = &images[0];
    let first = service
        .client()
        .classify(probe.clone())
        .expect("probe classification");
    let repeats: Vec<_> = std::iter::repeat_n(probe, 24)
        .chain(images.iter().cycle().take(24))
        .cloned()
        .collect();
    let answers = classify_concurrently(&service, &repeats);
    service.shutdown().expect("clean shutdown");
    for answer in &answers[..24] {
        assert_eq!(bits(&first), bits(answer));
    }
}

#[test]
fn wrong_shape_is_rejected_at_submit() {
    let model = Arc::new(tiny_defended_model(DefenseKind::Baseline, 4));
    let service =
        ClassifyService::new(Arc::clone(&model), ServeConfig::default()).expect("service starts");
    let client = service.client();
    let bad = Tensor::zeros(&[3, TINY_IMAGE_SIZE, TINY_IMAGE_SIZE + 1]);
    let err = client.submit(bad).expect_err("shape is validated");
    assert!(matches!(err, blurnet_serve::ServeError::BadInput(_)));
    service.shutdown().expect("clean shutdown");
}

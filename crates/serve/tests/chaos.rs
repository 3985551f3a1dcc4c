//! Chaos suite for the serving fault sites (`serve.*`, plus the queue
//! sites underneath the admission/batch queues): every registered serve
//! fault point is exercised one at a time, and the survival invariants
//! are asserted each time:
//!
//! * every request submitted before shutdown gets an answer — a panic in
//!   a service thread is never a dropped reply channel;
//! * every **surviving** response is bit-identical to the single-request
//!   reference path, whatever recovery (re-enqueue, respawn, bisection)
//!   happened around it;
//! * a poisoned request is isolated to itself: only it receives an
//!   error, and its batch-mates still get their exact answers.
//!
//! The fault registry is process-global, so every test serializes around
//! one lock. Compile with `--features fault-injection`.

#![cfg(feature = "fault-injection")]

use std::io::BufRead;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use blurnet::fault::{self, sites, FaultKind, FaultSpec, MARKER};
use blurnet_defenses::DefenseKind;
use blurnet_serve::protocol::{serve_stream, Handshake, StreamPolicy};
use blurnet_serve::{
    classify_single, Classification, ClassifyService, ServeConfig, ServeError, ServiceHealth,
};
use blurnet_tensor::Tensor;
use blurnet_test_support::{tiny_defended_model, uniform_images, TINY_IMAGE_SIZE};

/// The registry is global; chaos tests serialize around this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(c: &Classification) -> (usize, u32, blurnet_serve::DefenseVerdict) {
    (c.label, c.confidence.to_bits(), c.verdict)
}

/// A fresh model + image set + disarm-computed reference answers.
fn fixture(
    seed: u64,
    n: usize,
) -> (
    Arc<blurnet_defenses::DefendedModel>,
    Vec<Tensor>,
    Vec<Classification>,
) {
    fault::disarm_all();
    let model = Arc::new(tiny_defended_model(DefenseKind::Baseline, seed));
    let images = uniform_images(n, TINY_IMAGE_SIZE, seed ^ 0x5eed);
    let reference = images
        .iter()
        .map(|image| classify_single(&model, image).expect("reference path"))
        .collect();
    (model, images, reference)
}

fn service(model: &Arc<blurnet_defenses::DefendedModel>, config: ServeConfig) -> ClassifyService {
    ClassifyService::new(Arc::clone(model), config).expect("service starts")
}

/// Submits every image concurrently and returns per-image results.
fn classify_all(
    service: &ClassifyService,
    images: &[Tensor],
) -> Vec<blurnet_serve::Result<Classification>> {
    let handle = service.client();
    std::thread::scope(|scope| {
        let workers: Vec<_> = images
            .iter()
            .map(|image| {
                let handle = handle.clone();
                let image = image.clone();
                scope.spawn(move || handle.classify(image))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("submitting thread"))
            .collect()
    })
}

#[test]
fn a_poison_request_is_bisected_out_of_its_batch() {
    let _guard = serialized();
    let (model, images, reference) = fixture(11, 8);
    let poison_tag = blurnet_tensor::persist::fnv1a_f32s(images[3].data());
    fault::arm(
        sites::SERVE_WORKER_REQUEST,
        FaultSpec::always(FaultKind::Panic).tagged(poison_tag),
    );

    // One worker, a wide batch and a generous window: the poison shares a
    // coalesced batch with as many victims as possible.
    let svc = service(
        &model,
        ServeConfig {
            max_batch: 8,
            flush_window: Duration::from_millis(5),
            workers: 1,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    );
    let results = classify_all(&svc, &images);
    let health = svc.health();
    svc.shutdown().expect("clean shutdown");
    assert!(fault::fires(sites::SERVE_WORKER_REQUEST) >= 1);
    fault::disarm_all();

    for (i, result) in results.iter().enumerate() {
        if i == 3 {
            let err = result.as_ref().expect_err("the poison request errors");
            assert!(
                matches!(err, ServeError::Worker(_)) && err.to_string().contains(MARKER),
                "poison should surface the injected panic, got: {err}"
            );
        } else {
            let answer = result.as_ref().expect("batch-mates are answered");
            assert_eq!(
                bits(answer),
                bits(&reference[i]),
                "batch-mate {i} must be bit-identical to single-request execution"
            );
        }
    }
    // Bisection recovers in place — no thread ever died.
    assert_eq!(health, ServiceHealth::default());
}

#[test]
fn a_worker_panic_respawns_and_the_batch_survives() {
    let _guard = serialized();
    let (model, images, reference) = fixture(13, 6);
    fault::arm(
        sites::SERVE_WORKER_BATCH,
        FaultSpec::on_hit(FaultKind::Panic, 1),
    );

    // A single worker: its death leaves nobody to serve until the
    // supervisor respawns it — the strongest form of the scenario.
    let svc = service(
        &model,
        ServeConfig {
            max_batch: 32,
            flush_window: Duration::from_millis(2),
            workers: 1,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    );
    let results = classify_all(&svc, &images);
    let health = svc.health();
    svc.shutdown().expect("clean shutdown");
    assert_eq!(fault::fires(sites::SERVE_WORKER_BATCH), 1);
    fault::disarm_all();

    for (i, result) in results.iter().enumerate() {
        let answer = result.as_ref().expect("every request is answered");
        assert_eq!(bits(answer), bits(&reference[i]), "request {i} diverged");
    }
    assert!(
        health.worker_restarts >= 1,
        "the supervisor should have respawned the dead worker: {health:?}"
    );
}

#[test]
fn a_batcher_panic_respawns_and_no_request_is_dropped() {
    let _guard = serialized();
    let (model, images, reference) = fixture(17, 6);
    fault::arm(
        sites::SERVE_BATCH_FLUSH,
        FaultSpec::on_hit(FaultKind::Panic, 1),
    );

    let svc = service(
        &model,
        ServeConfig {
            max_batch: 4,
            flush_window: Duration::from_millis(1),
            workers: 2,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    );
    let results = classify_all(&svc, &images);
    let health = svc.health();
    svc.shutdown().expect("clean shutdown");
    assert_eq!(fault::fires(sites::SERVE_BATCH_FLUSH), 1);
    fault::disarm_all();

    for (i, result) in results.iter().enumerate() {
        let answer = result.as_ref().expect("every request is answered");
        assert_eq!(bits(answer), bits(&reference[i]), "request {i} diverged");
    }
    assert!(
        health.batcher_restarts >= 1,
        "the supervisor should have respawned the dead batcher: {health:?}"
    );
}

#[test]
fn queue_faults_under_the_service_change_no_response() {
    let _guard = serialized();
    let (model, images, reference) = fixture(19, 8);

    for site in [
        sites::QUEUE_PUSH,
        sites::QUEUE_POP,
        sites::QUEUE_POP_TIMEOUT,
    ] {
        fault::disarm_all();
        fault::arm(site, FaultSpec::seeded(FaultKind::Error, 0xCAFE, 0.25));
        let svc = service(
            &model,
            ServeConfig {
                max_batch: 4,
                flush_window: Duration::from_micros(200),
                workers: 2,
                queue_depth: 8,
                ..ServeConfig::default()
            },
        );
        let results = classify_all(&svc, &images);
        svc.shutdown().expect("clean shutdown");
        assert!(fault::hits(site) > 0, "{site}: fault point never reached");

        for (i, result) in results.iter().enumerate() {
            let answer = result
                .as_ref()
                .unwrap_or_else(|e| panic!("{site}: request {i} failed: {e}"));
            assert_eq!(
                bits(answer),
                bits(&reference[i]),
                "{site}: request {i} diverged"
            );
        }
    }
    fault::disarm_all();
}

#[test]
fn shedding_maps_a_refused_admission_to_queue_full() {
    let _guard = serialized();
    let (model, images, _) = fixture(23, 1);
    fault::arm(sites::QUEUE_PUSH, FaultSpec::on_hit(FaultKind::Error, 1));

    let svc = service(
        &model,
        ServeConfig {
            shed: true,
            ..ServeConfig::default()
        },
    );
    let client = svc.client();
    // First admission takes the injected refusal: under shedding this is
    // an explicit, retryable rejection — not a block, not a panic.
    let err = client
        .submit(images[0].clone())
        .expect_err("the injected refusal surfaces");
    assert!(matches!(err, ServeError::QueueFull), "got: {err}");
    // The retry (the loadgen backoff path) goes through.
    let answer = client.classify(images[0].clone()).expect("retry succeeds");
    fault::disarm_all();
    let reference = classify_single(&model, &images[0]).expect("reference");
    assert_eq!(bits(&answer), bits(&reference));
    svc.shutdown().expect("clean shutdown");
}

#[test]
fn a_tcp_frame_fault_errors_one_request_and_keeps_the_connection() {
    let _guard = serialized();
    let (model, images, reference) = fixture(29, 1);
    fault::arm(
        sites::SERVE_TCP_FRAME,
        FaultSpec::on_hit(FaultKind::Error, 1),
    );

    let svc = service(&model, ServeConfig::default());
    let handshake = Handshake::new(svc.info(), 32, Duration::from_millis(2));
    let elements = handshake.elements();

    // Two identical framed requests, then goodbye.
    let mut request = Vec::new();
    for _ in 0..2 {
        request.extend_from_slice(&(elements as u32).to_le_bytes());
        for v in images[0].data() {
            request.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    request.extend_from_slice(&0u32.to_le_bytes());

    let client = svc.client();
    let mut reader: &[u8] = &request;
    let mut response = Vec::new();
    serve_stream(
        &mut reader,
        &mut response,
        &client,
        &handshake,
        &StreamPolicy::default(),
    )
    .expect("stream serves");
    assert_eq!(fault::fires(sites::SERVE_TCP_FRAME), 1);
    fault::disarm_all();
    svc.shutdown().expect("clean shutdown");

    // Skip the handshake line, then parse both responses.
    let mut body: &[u8] = &response;
    let mut line = String::new();
    body.read_line(&mut line).expect("handshake line");
    assert!(Handshake::from_json(line.trim_end()).is_ok());

    // First response: status 1 (error), message carries the marker.
    assert_eq!(body[0], 1, "first frame takes the injected error");
    let len = u32::from_le_bytes([body[1], body[2], body[3], body[4]]) as usize;
    let msg = String::from_utf8_lossy(&body[5..5 + len]);
    assert!(msg.contains(MARKER), "error should carry the marker: {msg}");
    body = &body[5 + len..];

    // Second response on the SAME connection: status 0 (ok), bit-identical.
    assert_eq!(body[0], 0, "the connection survives the faulted frame");
    let label = u32::from_le_bytes([body[1], body[2], body[3], body[4]]) as usize;
    let confidence_bits = u32::from_le_bytes([body[5], body[6], body[7], body[8]]);
    assert_eq!(label, reference[0].label);
    assert_eq!(confidence_bits, reference[0].confidence.to_bits());
}

#[test]
fn every_serve_fault_site_has_a_chaos_scenario() {
    // The sites this suite exercises; the root `tests/chaos.rs` owns the
    // `core.sched.*` half of the registry (the queue sites appear in
    // both — they sit under both subsystems).
    let covered = [
        sites::QUEUE_PUSH,
        sites::QUEUE_POP,
        sites::QUEUE_POP_TIMEOUT,
        sites::SERVE_BATCH_FLUSH,
        sites::SERVE_WORKER_BATCH,
        sites::SERVE_WORKER_REQUEST,
        sites::SERVE_TCP_FRAME,
    ];
    for site in fault::all_sites() {
        if site.starts_with("serve.") || site.starts_with("core.queue.") {
            assert!(
                covered.contains(site),
                "serve-side fault site {site} has no chaos scenario"
            );
        }
    }
}

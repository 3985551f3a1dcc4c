//! End-to-end TCP protocol tests: handshake, concurrent connections
//! coalescing into shared batches, error responses, goodbye.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blurnet_defenses::DefenseKind;
use blurnet_serve::protocol::{serve_connections, Handshake, RemoteClient, StreamPolicy, SCHEMA};
use blurnet_serve::{classify_single, ClassifyService, ServeConfig};
use blurnet_test_support::{tiny_defended_model, uniform_images, TINY_IMAGE_SIZE};

/// Starts a service + TCP server for `max_conns` connections on an
/// OS-assigned port; returns the address and the server thread.
fn spawn_server(
    service: &ClassifyService,
    config: &ServeConfig,
    max_conns: usize,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let client = service.client();
    let handshake = Handshake::new(service.info(), config.max_batch, config.flush_window);
    let server = std::thread::spawn(move || {
        serve_connections(
            &listener,
            &client,
            &handshake,
            Some(max_conns),
            &StreamPolicy::default(),
        )
        .expect("serve loop");
    });
    (addr, server)
}

#[test]
fn tcp_roundtrip_matches_reference_bitwise() {
    let model = Arc::new(tiny_defended_model(
        DefenseKind::InputFilter { kernel: 3 },
        7,
    ));
    let images = uniform_images(12, TINY_IMAGE_SIZE, 19);
    let config = ServeConfig {
        max_batch: 8,
        flush_window: Duration::from_micros(200),
        workers: 2,
        queue_depth: 64,
        ..ServeConfig::default()
    };
    let service = ClassifyService::new(Arc::clone(&model), config.clone()).expect("service");
    let (addr, server) = spawn_server(&service, &config, 3);

    // Three concurrent connections hammering the same service, so their
    // requests mix in the micro-batcher.
    let answers: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let images = &images;
                scope.spawn(move || {
                    let mut conn = RemoteClient::connect(&addr).expect("connect");
                    assert_eq!(conn.handshake().schema, SCHEMA);
                    assert_eq!(
                        conn.handshake().input_dims,
                        [3, TINY_IMAGE_SIZE, TINY_IMAGE_SIZE]
                    );
                    let answers: Vec<_> = images
                        .iter()
                        .map(|image| conn.classify(image.data()).expect("remote classify"))
                        .collect();
                    conn.goodbye().expect("goodbye");
                    answers
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    server.join().expect("server thread");
    service.shutdown().expect("clean shutdown");

    for per_connection in &answers {
        for (image, got) in images.iter().zip(per_connection) {
            let want = classify_single(&model, image).expect("reference");
            assert_eq!(
                (want.label, want.confidence.to_bits(), want.verdict),
                (got.label, got.confidence.to_bits(), got.verdict),
                "TCP response diverged from the single-request reference"
            );
        }
    }
}

#[test]
fn tcp_reports_bad_sizes_and_keeps_the_connection() {
    let model = Arc::new(tiny_defended_model(DefenseKind::Baseline, 5));
    let config = ServeConfig::default();
    let service = ClassifyService::new(Arc::clone(&model), config.clone()).expect("service");
    let (addr, server) = spawn_server(&service, &config, 1);

    let mut conn = RemoteClient::connect(&addr).expect("connect");
    let image = &uniform_images(1, TINY_IMAGE_SIZE, 3)[0];

    // Undersized payload: the client refuses locally.
    assert!(conn.classify(&image.data()[..4]).is_err());
    // A good request afterwards still works on the same connection.
    let ok = conn.classify(image.data()).expect("valid request");
    assert!(ok.label < 18);
    conn.goodbye().expect("goodbye");

    server.join().expect("server thread");
    service.shutdown().expect("clean shutdown");
}

/// Sequential requests on one connection are not paced by the client's
/// delayed ACK (about 40 ms per request on Linux): the server writes each
/// response as one packet on a no-delay socket.
#[test]
fn sequential_requests_do_not_wait_for_delayed_acks() {
    const REQUESTS: u32 = 20;
    let model = Arc::new(tiny_defended_model(DefenseKind::Baseline, 5));
    let config = ServeConfig {
        max_batch: 1,
        flush_window: Duration::ZERO,
        ..ServeConfig::default()
    };
    let service = ClassifyService::new(Arc::clone(&model), config.clone()).expect("service");
    let (addr, server) = spawn_server(&service, &config, 1);
    let image = &uniform_images(1, TINY_IMAGE_SIZE, 3)[0];

    let mut conn = RemoteClient::connect(&addr).expect("connect");
    // One untimed request warms the service's worker.
    conn.classify(image.data()).expect("warm-up request");
    let start = Instant::now();
    for _ in 0..REQUESTS {
        conn.classify(image.data()).expect("remote classify");
    }
    let elapsed = start.elapsed();
    conn.goodbye().expect("goodbye");
    server.join().expect("server thread");
    service.shutdown().expect("clean shutdown");

    let delayed_ack = Duration::from_millis(40) * REQUESTS;
    assert!(
        elapsed < delayed_ack / 2,
        "{REQUESTS} sequential requests took {elapsed:?}; delayed-ACK pacing would take about {delayed_ack:?}"
    );
}

//! Closed-loop load generator for the classification service.
//!
//! ```bash
//! # In-process sweep over offered load × batch window × worker count;
//! # writes BENCH_serve.json at the repository root:
//! cargo run --release -p blurnet-serve --bin loadgen
//! # Quick CI pass (small sweep, same schema):
//! cargo run --release -p blurnet-serve --bin loadgen -- --smoke
//! # Drive a running `serve` process over TCP instead:
//! cargo run --release -p blurnet-serve --bin loadgen -- \
//!     --connect 127.0.0.1:7878 --smoke
//! ```
//!
//! The default mode embeds the service in-process (same model, queues and
//! workers as the `serve` binary, minus the socket) and sweeps offered
//! load (concurrent closed-loop clients), the micro-batch flush window,
//! and the batch worker count. Each client sends its requests
//! back-to-back, so offered load rises with the client count and the
//! micro-batcher's coalescing becomes visible as a throughput gain at a
//! bounded latency cost.
//!
//! Before any timing, the run *asserts* that micro-batched responses are
//! bit-identical to [`classify_single`] — a determinism regression fails
//! the bench loudly, exactly like the scheduler bench's golden gate.
//!
//! `--connect ADDR` switches to driving an external server over the TCP
//! protocol (one connection per client); results are printed but not
//! written to `BENCH_serve.json`, since the server's configuration is not
//! under this process's control.

use std::sync::Arc;
use std::time::{Duration, Instant};

use blurnet::{ModelZoo, Scale};
use blurnet_bench::{host_entries, EXPERIMENT_SEED};
use blurnet_defenses::{DefendedModel, DefenseKind};
use blurnet_serve::protocol::RemoteClient;
use blurnet_serve::{classify_single, parse_defense, ClassifyService, ServeConfig, ServeError};
use blurnet_tensor::Tensor;
use serde::Value;

/// Default output path: `BENCH_serve.json` at the repository root.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--smoke] [--out PATH] [--connect HOST:PORT] [--shed] [--deadline-us U] \
         [--defense baseline|input-filter:K|feature-filter:K]"
    );
    std::process::exit(2)
}

/// Reports a startup failure on stderr and exits nonzero — operational
/// errors (failed training, unreachable server) are not bugs, so no
/// panic backtrace.
fn fail(msg: String) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(1)
}

/// Retries `op` whenever a shedding service rejects with
/// [`ServeError::QueueFull`], sleeping an exponentially growing backoff
/// (50 µs doubling up to ~6.4 ms) between attempts; every other outcome
/// is returned as-is. The closed-loop clients never give a request up —
/// shedding trades their queue wait for explicit retries.
fn retry_queue_full<T>(
    mut op: impl FnMut() -> blurnet_serve::Result<T>,
) -> blurnet_serve::Result<T> {
    let mut backoff = Duration::from_micros(50);
    loop {
        match op() {
            Err(ServeError::QueueFull) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_micros(6400));
            }
            other => return other,
        }
    }
}

struct Args {
    smoke: bool,
    out: std::path::PathBuf,
    connect: Option<String>,
    defense: DefenseKind,
    shed: bool,
    deadline: Option<Duration>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: std::path::PathBuf::from(OUT_PATH),
        connect: None,
        defense: DefenseKind::InputFilter { kernel: 3 },
        shed: false,
        deadline: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = value().into(),
            "--connect" => args.connect = Some(value()),
            "--defense" => args.defense = parse_defense(&value()).unwrap_or_else(|| usage()),
            "--shed" => args.shed = true,
            "--deadline-us" => {
                let us: u64 = value().parse().unwrap_or_else(|_| usage());
                args.deadline = Some(Duration::from_micros(us));
            }
            _ => usage(),
        }
    }
    args
}

/// Deterministic synthetic request images (xorshift-filled, values in
/// [0, 1)): the bench measures the serving path, not the dataset, and a
/// fixed stream keeps every run and host comparable.
fn synth_images(n: usize, dims: &[usize; 3]) -> Vec<Tensor> {
    let elements: usize = dims.iter().product();
    (0..n)
        .map(|i| {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ ((i as u64 + 1) << 17);
            let values = (0..elements)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 40) as f32 / (1u64 << 24) as f32
                })
                .collect();
            Tensor::from_vec(values, dims).expect("synthetic image shape")
        })
        .collect()
}

/// Latency percentile (nearest-rank on the sorted list), in nanoseconds.
fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx]
}

/// One measured configuration: aggregate throughput plus the latency
/// distribution over every request of every client.
struct RunStats {
    clients: usize,
    requests: usize,
    elapsed: Duration,
    p50_ns: u64,
    p99_ns: u64,
}

impl RunStats {
    fn req_per_sec(&self) -> f64 {
        self.requests as f64 * 1e9 / self.elapsed.as_nanos() as f64
    }

    fn print(&self, context: &str) {
        println!(
            "{context} clients={:<3} reqs={:<5} {:>9.1} req/s   p50 {:>8.1} us   p99 {:>8.1} us",
            self.clients,
            self.requests,
            self.req_per_sec(),
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
        );
    }
}

/// Runs `clients` closed-loop client threads against `classify` (each
/// sending `per_client` requests back-to-back) and aggregates latency.
fn drive<C>(clients: usize, per_client: usize, images: &[Tensor], classify: C) -> RunStats
where
    C: Fn(usize, &Tensor) + Sync,
{
    let t0 = Instant::now();
    let all_latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let classify = &classify;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(per_client);
                    for r in 0..per_client {
                        let image = &images[(c * per_client + r) % images.len()];
                        let sent = Instant::now();
                        classify(c, image);
                        latencies.push(sent.elapsed().as_nanos() as u64);
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut latencies: Vec<u64> = all_latencies.into_iter().flatten().collect();
    latencies.sort_unstable();
    RunStats {
        clients,
        requests: latencies.len(),
        elapsed,
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
    }
}

/// The in-process sweep: offered load × flush window × worker count over
/// one shared trained model, with a bit-identity gate before any timing.
fn run_local(args: &Args) {
    let scale = Scale::from_env();
    eprintln!(
        "# blurnet loadgen — scale: {scale}, defense: {} (set BLURNET_SCALE=smoke|quick|paper)",
        args.defense.label()
    );
    let mut zoo = ModelZoo::new(scale, EXPERIMENT_SEED)
        .unwrap_or_else(|e| fail(format!("failed to build the model zoo: {e}")));
    let model = zoo
        .get_or_train_shared(&args.defense)
        .unwrap_or_else(|e| fail(format!("failed to train/load the model: {e}")));
    drop(zoo);

    let (client_counts, per_client): (&[usize], usize) = if args.smoke {
        (&[1, 4], 8)
    } else {
        (&[1, 4, 16], 64)
    };
    let windows_us: &[u64] = &[0, 2000];
    let worker_counts: &[usize] = if args.smoke { &[1] } else { &[1, 4] };
    let max_batch = 32;

    let dims = [
        model.arch().in_channels,
        model.arch().input_size,
        model.arch().input_size,
    ];
    let images = synth_images(64, &dims);

    // Determinism gate: the micro-batched service must answer bit-for-bit
    // like the single-request reference path before any number is worth
    // recording. A busy 4-worker service with an eager window exercises
    // real batch mixing.
    gate_bit_identity(&model, &images);
    println!("json-gate  micro_batched_bit_identical_to_single_request   true");

    let mut entries: Vec<(String, Value)> = vec![
        ("schema".into(), Value::Str("blurnet-serve-bench/v1".into())),
        ("scale".into(), Value::Str(scale.to_string())),
        ("defense".into(), Value::Str(args.defense.label())),
        ("max_batch".into(), Value::Int(max_batch as i64)),
        ("requests_per_client".into(), Value::Int(per_client as i64)),
        ("bit_identical_to_single_request".into(), Value::Bool(true)),
    ];
    entries.extend(host_entries("serve"));

    let mut runs: Vec<Value> = Vec::new();
    for &window_us in windows_us {
        for &workers in worker_counts {
            let service = ClassifyService::new(
                Arc::clone(&model),
                ServeConfig {
                    max_batch,
                    flush_window: Duration::from_micros(window_us),
                    workers,
                    queue_depth: 1024,
                    shed: args.shed,
                    deadline: args.deadline,
                },
            )
            .unwrap_or_else(|e| fail(format!("cannot start the service: {e}")));
            let handle = service.client();
            for &clients in client_counts {
                let stats = drive(clients, per_client, &images, |_, image| {
                    retry_queue_full(|| handle.classify(image.clone()))
                        .expect("in-process classification");
                });
                stats.print(&format!(
                    "json-serve window_us={window_us:<5} workers={workers} "
                ));
                runs.push(Value::Map(vec![
                    ("window_us".into(), Value::Int(window_us as i64)),
                    ("workers".into(), Value::Int(workers as i64)),
                    ("clients".into(), Value::Int(stats.clients as i64)),
                    ("requests".into(), Value::Int(stats.requests as i64)),
                    (
                        "elapsed_ns".into(),
                        Value::Int(stats.elapsed.as_nanos() as i64),
                    ),
                    (
                        "req_per_sec".into(),
                        Value::Float((stats.req_per_sec() * 100.0).round() / 100.0),
                    ),
                    ("p50_ns".into(), Value::Int(stats.p50_ns as i64)),
                    ("p99_ns".into(), Value::Int(stats.p99_ns as i64)),
                ]));
            }
            service.shutdown().expect("clean shutdown");
        }
    }
    entries.push(("runs".into(), Value::Seq(runs)));

    let json = serde_json::to_string_pretty(&Value::Map(entries)).expect("bench JSON");
    std::fs::write(&args.out, json + "\n")
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", args.out.display())));
    eprintln!("# wrote {}", args.out.display());
}

/// Asserts micro-batched ≡ single-request bit-identity on a busy service.
fn gate_bit_identity(model: &Arc<DefendedModel>, images: &[Tensor]) {
    let reference: Vec<_> = images
        .iter()
        .map(|image| classify_single(model, image).expect("reference classification"))
        .collect();
    let service = ClassifyService::new(
        Arc::clone(model),
        ServeConfig {
            max_batch: 32,
            flush_window: Duration::from_micros(500),
            workers: 4,
            queue_depth: 1024,
            ..ServeConfig::default()
        },
    )
    .expect("gate service");
    let handle = service.client();
    let batched: Vec<_> = std::thread::scope(|scope| {
        let tickets: Vec<_> = images
            .iter()
            .map(|image| {
                let handle = handle.clone();
                let image = image.clone();
                scope.spawn(move || handle.classify(image).expect("batched classification"))
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| t.join().expect("gate client thread"))
            .collect()
    });
    service.shutdown().expect("gate shutdown");
    for (i, (single, many)) in reference.iter().zip(&batched).enumerate() {
        assert_eq!(
            (single.label, single.confidence.to_bits(), single.verdict),
            (many.label, many.confidence.to_bits(), many.verdict),
            "micro-batched response for image {i} diverged from single-request execution"
        );
    }
}

/// Drives an external server over TCP: one connection per client, the
/// same closed loop, results printed only.
fn run_remote(addr: &str, smoke: bool) {
    let probe =
        RemoteClient::connect(addr).unwrap_or_else(|e| fail(format!("cannot reach {addr}: {e}")));
    let handshake = probe.handshake().clone();
    probe.goodbye().expect("goodbye");
    eprintln!(
        "# blurnet loadgen — remote {addr}: defense {:?}, dims {:?}, flush at batch {} or {} us",
        handshake.defense, handshake.input_dims, handshake.max_batch, handshake.window_us
    );

    let (client_counts, per_client): (&[usize], usize) = if smoke {
        (&[1, 4], 8)
    } else {
        (&[1, 4, 16], 64)
    };
    let images = synth_images(64, &handshake.input_dims);

    // Repeat-identity gate: the same payload must produce byte-identical
    // responses however it lands in the server's batches.
    let mut gate =
        RemoteClient::connect(addr).unwrap_or_else(|e| fail(format!("cannot reach {addr}: {e}")));
    let first = gate.classify(images[0].data()).expect("gate request");
    for _ in 0..4 {
        let again = gate.classify(images[0].data()).expect("gate request");
        assert_eq!(
            (first.label, first.confidence.to_bits(), first.verdict),
            (again.label, again.confidence.to_bits(), again.verdict),
            "remote responses for one payload diverged across requests"
        );
    }
    gate.goodbye().expect("goodbye");

    for &clients in client_counts {
        let connections: Vec<std::sync::Mutex<RemoteClient>> = (0..clients)
            .map(|_| {
                std::sync::Mutex::new(
                    RemoteClient::connect(addr)
                        .unwrap_or_else(|e| fail(format!("cannot reach {addr}: {e}"))),
                )
            })
            .collect();
        let stats = drive(clients, per_client, &images, |c, image| {
            let mut conn = connections[c].lock().expect("connection lock");
            retry_queue_full(|| conn.classify(image.data())).expect("remote classification");
        });
        stats.print("json-serve remote ");
        for conn in connections {
            conn.into_inner()
                .expect("connection lock")
                .goodbye()
                .expect("goodbye");
        }
    }
}

fn main() {
    let args = parse_args();
    match &args.connect {
        Some(addr) => run_remote(addr, args.smoke),
        None => run_local(&args),
    }
}

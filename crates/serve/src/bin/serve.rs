//! Long-running TCP classification service over a defended model.
//!
//! ```bash
//! # Serve the input-filter defense with the default "batch 32 or 2 ms"
//! # micro-batching profile:
//! cargo run --release -p blurnet-serve --bin serve -- \
//!     --addr 127.0.0.1:7878 --defense input-filter:3
//! # Tighter latency profile, four batch workers:
//! cargo run --release -p blurnet-serve --bin serve -- \
//!     --batch-max 8 --window-us 500 --workers 4
//! ```
//!
//! The model is trained (or pulled from the variant cache) at startup via
//! the shared [`ModelZoo`]; `BLURNET_SCALE` (smoke/quick/paper) selects
//! the training effort exactly as for the experiment binaries. The
//! process then serves until killed, or until `--max-conns N` connections
//! have been handled (the shape CI's smoke run uses). `--ready-file PATH`
//! writes the bound address once the listener is up, so orchestration
//! scripts can wait for readiness without polling the port.
//!
//! Two flags skip the startup training entirely:
//!
//! * `--model-path FILE` loads a persisted `DefendedModel` (the `.bndm`
//!   files the experiment scheduler's `--cache-dir` writes) and serves
//!   it as-is — the file's own defense configuration wins over
//!   `--defense`;
//! * `--cache-dir DIR` probes the shared disk cache for the requested
//!   (defense, scale, seed) variant, trains and stores it on a miss, so
//!   repeated service restarts pay for training exactly once.
//!
//! Either way the served weights are bit-identical to the freshly trained
//! in-process model (pinned by `crates/serve/tests/from_disk.rs`).

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use blurnet::{ModelZoo, Scale};
use blurnet_defenses::{model_from_file_bytes, DefendedModel, DefenseKind, DiskVariantCache};
use blurnet_serve::protocol::{serve_connections, Handshake, StreamPolicy};
use blurnet_serve::{parse_defense, ClassifyService, ServeConfig};
use blurnet_tensor::persist::read_file_verified;

/// Seed matching the experiment binaries (`blurnet_bench::EXPERIMENT_SEED`)
/// so the served weights are the same ones the tables were produced from.
const DEFAULT_SEED: u64 = 7;

/// Which termination signal arrived (0 = none yet). Written by the
/// async-signal handler, so it only flips an atomic — everything else
/// (logging, drain, the timeout watchdog) happens on the watcher thread.
static SIGNAL_RECEIVED: AtomicI32 = AtomicI32::new(0);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(signum: i32) {
    SIGNAL_RECEIVED.store(signum, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGTERM and SIGINT via the C `signal()`
/// entry point (no external crates; `signal` is in every libc this
/// builds against). Best-effort: a failed install leaves the default
/// kill-immediately disposition.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Bridges the signal flag to the accept loop's drain flag and enforces
/// the drain timeout: once a signal lands, the drain flag flips (the
/// accept loop stops admitting, in-flight requests finish) and a
/// watchdog countdown starts — if the process is still alive when it
/// expires, it exits 1 rather than hang forever on a stuck client.
fn spawn_drain_watcher(drain: Arc<AtomicBool>, timeout: Duration) {
    std::thread::spawn(move || loop {
        let signum = SIGNAL_RECEIVED.load(Ordering::SeqCst);
        if signum != 0 {
            eprintln!(
                "# received {}, draining (timeout {timeout:?})",
                if signum == SIGTERM {
                    "SIGTERM"
                } else {
                    "SIGINT"
                }
            );
            drain.store(true, Ordering::SeqCst);
            std::thread::sleep(timeout);
            eprintln!("serve: drain timeout expired with work still in flight");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(20));
    });
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--defense baseline|input-filter:K|feature-filter:K] \
         [--model-path FILE] [--cache-dir DIR] [--batch-max N] [--window-us U] [--workers N] \
         [--queue-depth N] [--shed] [--deadline-us U] [--seed S] [--max-conns N] \
         [--ready-file PATH] [--drain-timeout-ms MS] [--idle-timeout-ms MS (0 = off)]"
    );
    std::process::exit(2)
}

/// Reports a startup failure on stderr and exits nonzero — operational
/// errors (bad address, failed training) are not bugs, so no panic
/// backtrace.
fn fail(msg: String) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(1)
}

struct Args {
    addr: String,
    defense: DefenseKind,
    config: ServeConfig,
    seed: u64,
    max_conns: Option<usize>,
    ready_file: Option<std::path::PathBuf>,
    model_path: Option<std::path::PathBuf>,
    cache_dir: Option<std::path::PathBuf>,
    drain_timeout: Duration,
    idle_timeout: Option<Duration>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        defense: DefenseKind::InputFilter { kernel: 3 },
        config: ServeConfig::default(),
        seed: DEFAULT_SEED,
        max_conns: None,
        ready_file: None,
        model_path: None,
        cache_dir: None,
        drain_timeout: Duration::from_millis(10_000),
        idle_timeout: Some(Duration::from_millis(30_000)),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => args.addr = value(),
            "--defense" => {
                args.defense = parse_defense(&value()).unwrap_or_else(|| usage());
            }
            "--batch-max" => {
                args.config.max_batch = value().parse().unwrap_or_else(|_| usage());
            }
            "--window-us" => {
                let us: u64 = value().parse().unwrap_or_else(|_| usage());
                args.config.flush_window = Duration::from_micros(us);
            }
            "--workers" => {
                args.config.workers = value().parse().unwrap_or_else(|_| usage());
            }
            "--queue-depth" => {
                args.config.queue_depth = value().parse().unwrap_or_else(|_| usage());
            }
            "--shed" => args.config.shed = true,
            "--deadline-us" => {
                let us: u64 = value().parse().unwrap_or_else(|_| usage());
                args.config.deadline = Some(Duration::from_micros(us));
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--max-conns" => {
                args.max_conns = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--ready-file" => args.ready_file = Some(value().into()),
            "--model-path" => args.model_path = Some(value().into()),
            "--cache-dir" => args.cache_dir = Some(value().into()),
            "--drain-timeout-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.drain_timeout = Duration::from_millis(ms);
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            _ => usage(),
        }
    }
    args
}

/// Produces the model to serve: a persisted file (`--model-path`) wins,
/// then the shared disk cache (`--cache-dir`, trained and stored on a
/// miss), then an in-process training via the [`ModelZoo`].
fn resolve_model(args: &Args, scale: Scale) -> Arc<DefendedModel> {
    if let Some(path) = &args.model_path {
        let bytes = read_file_verified(path)
            .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
        let model = model_from_file_bytes(&bytes)
            .unwrap_or_else(|e| fail(format!("cannot decode {}: {e}", path.display())));
        eprintln!(
            "# loaded {} ({} defense)",
            path.display(),
            model.defense().label()
        );
        return Arc::new(model);
    }

    if let Some(dir) = &args.cache_dir {
        let cache = DiskVariantCache::open(dir)
            .unwrap_or_else(|e| fail(format!("cannot open cache {}: {e}", dir.display())));
        let train = scale.train_config();
        let image_size = scale.dataset_config().image_size;
        let num_classes = blurnet_data::NUM_CLASSES;
        match cache.load(&args.defense, &train, image_size, num_classes, args.seed) {
            Ok(Some(model)) => {
                eprintln!(
                    "# cache hit: {} from {}",
                    args.defense.label(),
                    dir.display()
                );
                return Arc::new(model);
            }
            Ok(None) => {}
            Err(e) => eprintln!("# cache entry unreadable ({e}); retraining"),
        }
        let mut zoo = ModelZoo::new(scale, args.seed)
            .unwrap_or_else(|e| fail(format!("failed to build the model zoo: {e}")));
        let model = zoo
            .get_or_train_shared(&args.defense)
            .unwrap_or_else(|e| fail(format!("failed to train the model: {e}")));
        match cache.store(&model, &train, image_size, num_classes, args.seed) {
            Ok(path) => eprintln!("# cached trained model at {}", path.display()),
            Err(e) => eprintln!("# warning: could not cache the trained model: {e}"),
        }
        return model;
    }

    let mut zoo = ModelZoo::new(scale, args.seed)
        .unwrap_or_else(|e| fail(format!("failed to build the model zoo: {e}")));
    zoo.get_or_train_shared(&args.defense)
        .unwrap_or_else(|e| fail(format!("failed to train/load the model: {e}")))
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();
    let model = resolve_model(&args, scale);
    eprintln!(
        "# blurnet serve — scale: {scale}, defense: {}, flush at batch {} or {:?}, {} worker(s), kernels: {}",
        model.defense().label(),
        args.config.max_batch.max(1),
        args.config.flush_window,
        args.config.workers.max(1),
        blurnet_tensor::default_backend().simd_tier(),
    );

    let max_batch = args.config.max_batch.max(1);
    let flush_window = args.config.flush_window;
    let service = ClassifyService::new(Arc::clone(&model), args.config)
        .unwrap_or_else(|e| fail(format!("cannot start the service: {e}")));
    let handshake = Handshake::new(service.info(), max_batch, flush_window);
    let client = service.client();

    let listener = TcpListener::bind(&args.addr)
        .unwrap_or_else(|e| fail(format!("cannot bind {}: {e}", args.addr)));
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.addr.clone());
    eprintln!("# listening on {bound}");
    if let Some(path) = &args.ready_file {
        std::fs::write(path, &bound)
            .unwrap_or_else(|e| fail(format!("cannot write ready file {}: {e}", path.display())));
    }

    // Graceful drain: SIGTERM/SIGINT flip an atomic, the watcher thread
    // flips the drain flag, the accept loop stops admitting, every
    // in-flight request is answered, and the process exits 0 — or 1 if
    // the drain timeout expires first.
    let drain = Arc::new(AtomicBool::new(false));
    install_signal_handlers();
    spawn_drain_watcher(Arc::clone(&drain), args.drain_timeout);
    let policy = StreamPolicy {
        idle_timeout: args.idle_timeout,
        drain: Some(Arc::clone(&drain)),
    };

    if let Err(e) = serve_connections(&listener, &client, &handshake, args.max_conns, &policy) {
        eprintln!("serve: listener failed: {e}");
        std::process::exit(1);
    }
    let health = service.health();
    if health != blurnet_serve::ServiceHealth::default() {
        eprintln!(
            "# supervisor respawned {} batcher(s) and {} worker(s) during the run",
            health.batcher_restarts, health.worker_restarts
        );
    }
    service
        .shutdown()
        .unwrap_or_else(|e| fail(format!("shutdown failed: {e}")));
    if drain.load(Ordering::SeqCst) {
        eprintln!("# drained cleanly");
    }
    std::process::exit(0);
}

//! Benchmarks for the batch-parallel engine ([`blurnet_nn::BatchEngine`]):
//! thread-count scaling on the acceptance-criteria `[8, 16, 32, 32]` batch
//! forward, and LisaCnn probes of the inference forward (batch 8) and the
//! training step (batch 32, the standard trainer's batch size, and batch
//! 16, the smoke scale's).
//!
//! The run writes `BENCH_batch.json` at the
//! repository root (schema `blurnet-batch-bench/v3`): median ns/iter per
//! thread count, images/s throughput, the scaling ratios, and the host's
//! CPU budget — scaling ratios are only meaningful when `host_cpus`
//! provides real parallelism (CI containers pinned to one core report ~1×
//! by construction; see README § Performance). The run also *asserts* that
//! outputs are bit-identical across thread counts, so a determinism
//! regression fails the bench loudly.
//!
//! Every probe takes its samples in rounds, one sample per thread count
//! per round, rotating which count goes first, so a slow stretch of a
//! shared host lands on every thread count alike instead of on whichever
//! count was being timed in one block.

use std::hint::black_box;
use std::time::{Duration, Instant};

use blurnet_nn::{
    softmax_cross_entropy, BatchEngine, Conv2d, Dense, DepthwiseConv2d, Flatten, LisaCnn,
    MaxPool2d, Relu, Sequential, ShardGrad,
};
use blurnet_signal::box_kernel;
use blurnet_tensor::{ConvSpec, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

/// Samples per probe for the JSON record.
const JSON_SAMPLES: usize = 15;
/// Minimum batch duration per sample for the JSON record.
const MIN_BATCH: Duration = Duration::from_millis(4);

/// The thread counts swept by the scaling probes (shared across the
/// workspace's benches so `BENCH_*.json` timings are comparable).
const THREAD_COUNTS: [usize; 3] = blurnet_bench::BENCH_THREAD_COUNTS;

/// Median ns/iter of `f` at each of [`THREAD_COUNTS`], in that order.
/// Each count first sizes its batch (iterations per sample) until one
/// batch takes [`MIN_BATCH`]; then [`JSON_SAMPLES`] rounds each time one
/// batch per count, round `r` starting at count `r mod 3`.
fn interleaved_ns<O>(f: impl Fn() -> O) -> Vec<f64> {
    let pools: Vec<rayon::ThreadPool> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool")
        })
        .collect();
    let time_batch = |pool: &rayon::ThreadPool, batch: usize| {
        pool.install(|| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            start.elapsed()
        })
    };
    let batches: Vec<usize> = pools
        .iter()
        .map(|pool| {
            let mut batch = 1usize;
            loop {
                let elapsed = time_batch(pool, batch);
                if elapsed >= MIN_BATCH {
                    return batch;
                }
                let grow = (MIN_BATCH.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).ceil();
                batch *= (grow as usize).clamp(2, 64);
            }
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(JSON_SAMPLES); pools.len()];
    for round in 0..JSON_SAMPLES {
        for k in 0..pools.len() {
            let i = (round + k) % pools.len();
            let elapsed = time_batch(&pools[i], batches[i]);
            samples[i].push(elapsed.as_secs_f64() * 1e9 / batches[i] as f64);
        }
    }
    samples
        .into_iter()
        .map(|mut per_iter| {
            per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            per_iter[per_iter.len() / 2]
        })
        .collect()
}

/// A convolution stack whose input is the acceptance-criteria
/// `[8, 16, 32, 32]` feature-map batch: conv → blur → pool → conv → head,
/// the same layer mix as the LISA-CNN's feature stages.
fn feature_stage_net(rng: &mut ChaCha8Rng) -> Sequential {
    let mut net = Sequential::new();
    net.push(Conv2d::new(16, 32, 3, ConvSpec::same(3).unwrap(), rng).unwrap())
        .push(Relu::new())
        .push(DepthwiseConv2d::fixed_kernel(32, &box_kernel(5)).unwrap())
        .push(MaxPool2d::new(2, 2).unwrap())
        .push(Conv2d::new(32, 32, 3, ConvSpec::same(3).unwrap(), rng).unwrap())
        .push(Relu::new())
        .push(Flatten::new())
        .push(Dense::new(32 * 16 * 16, 18, rng).unwrap());
    net
}

/// One cross-entropy training step (forward, loss, parameter gradients)
/// through `engine`, like the trainer's.
fn train_step(engine: &BatchEngine<'_>, batch: &Tensor, labels: &[usize]) -> f32 {
    let (loss, _) = engine
        .train_step(batch, None, |logits, _| {
            let (loss, d_logits) = softmax_cross_entropy(logits, labels)?;
            Ok(ShardGrad {
                d_logits,
                injection: None,
                loss,
            })
        })
        .expect("train step");
    loss
}

/// A LisaCnn training-step workload: `n` images with cycling labels.
fn lisa_train_batch(n: usize, rng: &mut ChaCha8Rng) -> (Tensor, Vec<usize>) {
    let batch = Tensor::rand_uniform(&[n, 3, 32, 32], 0.0, 1.0, rng);
    (batch, (0..n).map(|i| i % 18).collect())
}

struct Record {
    entries: Vec<(String, Value)>,
}

impl Record {
    fn new() -> Self {
        Record {
            entries: Vec::new(),
        }
    }

    fn push_ns(&mut self, name: &str, ns: f64) {
        println!("json-probe {name:<44} {ns:12.1} ns/iter");
        self.entries.push((name.to_string(), Value::Float(ns)));
    }

    fn push_ratio(&mut self, name: &str, ratio: f64) {
        println!("json-ratio {name:<44} {ratio:6.2}x");
        self.entries.push((
            name.to_string(),
            Value::Float((ratio * 100.0).round() / 100.0),
        ));
    }

    fn into_json(self) -> String {
        let mut root = vec![
            (
                "schema".to_string(),
                Value::Str("blurnet-batch-bench/v3".to_string()),
            ),
            (
                "rayon_threads".to_string(),
                Value::Int(rayon::current_num_threads() as i64),
            ),
        ];
        root.extend(blurnet_bench::host_entries("batch_engine"));
        root.extend(self.entries);
        serde_json::to_string_pretty(&Value::Map(root)).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Measures the scaling sweep and writes `BENCH_batch.json` at the
/// workspace root.
fn write_batch_json() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut record = Record::new();

    // The acceptance-criteria workload: [8, 16, 32, 32] batch forward.
    let net = feature_stage_net(&mut rng);
    let batch = Tensor::rand_uniform(&[8, 16, 32, 32], 0.0, 1.0, &mut rng);
    let engine = net.batch_engine().expect("non-empty network");

    // Determinism gate: outputs must be bit-identical at every thread
    // count before any timing is worth recording.
    let reference = {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        pool.install(|| engine.forward(&batch).expect("forward"))
    };
    for &threads in &THREAD_COUNTS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let out = pool.install(|| engine.forward(&batch).expect("forward"));
        assert_eq!(
            out, reference,
            "forward_batch diverged at {threads} threads — determinism regression"
        );
    }
    record.entries.push((
        "bit_identical_across_threads".to_string(),
        Value::Bool(true),
    ));

    // Thread-count scaling of the sharded forward.
    let ns_at = interleaved_ns(|| engine.forward(&batch).unwrap());
    for (&threads, &ns) in THREAD_COUNTS.iter().zip(&ns_at) {
        record.push_ns(&format!("forward_batch_8x16x32x32_t{threads}"), ns);
        record.entries.push((
            format!("images_per_sec_8x16x32x32_t{threads}"),
            Value::Float((8.0 * 1e9 / ns * 10.0).round() / 10.0),
        ));
    }
    for (&threads, &ns) in THREAD_COUNTS.iter().zip(&ns_at).skip(1) {
        record.push_ratio(&format!("scaling_{threads}t_vs_1t"), ns_at[0] / ns);
    }

    // LisaCnn end-to-end probes: the batch-8 inference forward and the
    // training step at batch 32 and 16 (fixed `TRAIN_SHARD_ROWS` shards
    // across the rayon workers).
    let lisa = LisaCnn::new(18).build(&mut rng).expect("default LisaCnn");
    let lisa_batch = Tensor::rand_uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
    let lisa_engine = lisa.batch_engine().expect("non-empty network");
    let ns_at = interleaved_ns(|| lisa_engine.forward(&lisa_batch).unwrap());
    for (&threads, &ns) in THREAD_COUNTS.iter().zip(&ns_at) {
        record.push_ns(&format!("lisacnn_forward_batch8_engine_t{threads}"), ns);
    }
    for n in [32usize, 16] {
        let (train_batch, labels) = lisa_train_batch(n, &mut rng);
        let ns_at = interleaved_ns(|| train_step(&lisa_engine, &train_batch, &labels));
        for (&threads, &ns) in THREAD_COUNTS.iter().zip(&ns_at) {
            record.push_ns(&format!("lisacnn_train_step_batch{n}_t{threads}"), ns);
        }
        record.push_ratio(
            &format!("train_step_batch{n}_scaling_2t_vs_1t"),
            ns_at[0] / ns_at[1],
        );
    }

    // crates/bench/ -> workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    match std::fs::write(path, record.into_json()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn main() {
    write_batch_json();
}

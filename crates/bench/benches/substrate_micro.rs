//! Micro-benchmarks for the numeric substrates every experiment rests on:
//! convolution, matrix multiply, FFT/DCT, blurring and the regularizer
//! kernels — plus head-to-head comparisons of the blocked/parallel fast
//! paths against the seed implementations they replaced.
//!
//! The run writes
//! `BENCH_substrate.json` at the repository root: a machine-readable record
//! (schema `blurnet-substrate-bench/v4`) of median ns/iter for every probe
//! and the fast-vs-seed speedups, so future PRs can track the perf
//! trajectory. The `simd_tier` entry records which kernel tier the backend
//! dispatched to (`avx2_fma` or `scalar`), so numbers from different hosts
//! or `BLURNET_FORCE_SCALAR=1` runs are never compared apples-to-oranges.
//! Single-thread numbers are measured through a 1-thread rayon
//! pool; `_mt` entries use the ambient `RAYON_NUM_THREADS`; the
//! `median_ns_per_iter_by_threads` section sweeps the shared
//! [`blurnet_bench::BENCH_THREAD_COUNTS`] on representative probes, with
//! `host_cpus`/`single_core_warning` recording whether real cores backed
//! the sweep.

use std::time::Duration;

use blurnet_bench::{host_entries, measure_median_ns, BENCH_THREAD_COUNTS};
use blurnet_nn::LisaCnn;
use blurnet_signal::{box_kernel, low_frequency_project_planes};
use blurnet_tensor::{default_backend, reference, ConvSpec, Scratch, SimdTier, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

/// Samples per probe for the JSON record.
const JSON_SAMPLES: usize = 15;
/// Minimum batch duration per sample for the JSON record.
const MIN_BATCH: Duration = Duration::from_millis(4);

fn median_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    measure_median_ns(&mut f, JSON_SAMPLES, MIN_BATCH)
}

/// Runs `f` under a single-thread rayon pool (the "st" numbers).
fn single_thread_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");
    pool.install(|| median_ns(&mut f))
}

struct Record {
    entries: Vec<(String, f64)>,
    speedups: Vec<(String, f64)>,
    per_thread: Vec<(String, f64)>,
}

impl Record {
    fn new() -> Self {
        Record {
            entries: Vec::new(),
            speedups: Vec::new(),
            per_thread: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, ns: f64) {
        println!("json-probe {name:<40} {:12.1} ns/iter", ns);
        self.entries.push((name.to_string(), ns));
    }

    fn push_threads(&mut self, name: &str, threads: usize, ns: f64) {
        let key = format!("{name}_t{threads}");
        println!("json-probe {key:<40} {:12.1} ns/iter", ns);
        self.per_thread.push((key, ns));
    }

    fn speedup(&mut self, name: &str, seed_ns: f64, fast_ns: f64) {
        let ratio = seed_ns / fast_ns;
        println!("json-speedup {name:<38} {ratio:6.2}x");
        self.speedups.push((name.to_string(), ratio));
    }

    fn to_json(&self) -> String {
        let entries = Value::Map(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        );
        let speedups = Value::Map(
            self.speedups
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float((*v * 100.0).round() / 100.0)))
                .collect(),
        );
        let per_thread = Value::Map(
            self.per_thread
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        );
        let mut root = vec![(
            "schema".to_string(),
            Value::Str("blurnet-substrate-bench/v4".to_string()),
        )];
        root.extend(host_entries("substrate_micro"));
        root.push((
            "simd_tier".to_string(),
            Value::Str(SimdTier::detect().as_str().to_string()),
        ));
        root.push((
            "rayon_threads".to_string(),
            Value::Int(rayon::current_num_threads() as i64),
        ));
        root.push(("median_ns_per_iter".to_string(), entries));
        root.push(("median_ns_per_iter_by_threads".to_string(), per_thread));
        root.push(("speedup_vs_seed".to_string(), speedups));
        let root = Value::Map(root);
        serde_json::to_string_pretty(&root).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Measures the fast-vs-seed comparisons and writes `BENCH_substrate.json`
/// at the workspace root.
fn write_bench_json() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut record = Record::new();
    let backend = default_backend();

    // GEMM: the acceptance-criteria sizes, single-thread fast vs seed, plus
    // the default-thread-count number for multicore machines.
    for &n in &[64usize, 128, 256] {
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let seed_ns = single_thread_ns(|| reference::matmul_naive(&a, &b).unwrap());
        let fast_st = single_thread_ns(|| backend.matmul(&a, &b).unwrap());
        let fast_mt = median_ns(|| backend.matmul(&a, &b).unwrap());
        record.push(&format!("gemm_{n}x{n}_seed"), seed_ns);
        record.push(&format!("gemm_{n}x{n}_fast_st"), fast_st);
        record.push(&format!("gemm_{n}x{n}_fast_mt"), fast_mt);
        record.speedup(&format!("gemm_{n}x{n}_st"), seed_ns, fast_st);
    }

    // Depthwise conv (the BlurNet filter layer): direct path vs seed gather
    // loop on first-layer-sized feature maps.
    let feature_maps = Tensor::rand_uniform(&[8, 16, 32, 32], 0.0, 1.0, &mut rng);
    for &k in &[3usize, 5] {
        let weight = Tensor::rand_uniform(&[16, k, k], -0.5, 0.5, &mut rng);
        let spec = ConvSpec::same(k).expect("odd kernel");
        let seed_ns = single_thread_ns(|| {
            reference::depthwise_conv2d_naive(&feature_maps, &weight, None, spec).unwrap()
        });
        let fast_st = single_thread_ns(|| {
            backend
                .depthwise_conv2d(&feature_maps, &weight, None, spec)
                .unwrap()
        });
        let fast_mt = median_ns(|| {
            backend
                .depthwise_conv2d(&feature_maps, &weight, None, spec)
                .unwrap()
        });
        record.push(&format!("depthwise_{k}x{k}_8x16x32x32_seed"), seed_ns);
        record.push(&format!("depthwise_{k}x{k}_8x16x32x32_fast_st"), fast_st);
        record.push(&format!("depthwise_{k}x{k}_8x16x32x32_fast_mt"), fast_mt);
        record.speedup(&format!("depthwise_{k}x{k}_st"), seed_ns, fast_st);
    }

    // The BlurNet filter layer at the shape the grid's sweeps run
    // ([n, 8, 16, 16], ReLU-sparse output gradients): forward, input
    // gradient and full backward of the seed gather/scatter loops against
    // the halo-padded kernels, one thread.
    for &n in &[1usize, 4] {
        let maps = Tensor::rand_uniform(&[n, 8, 16, 16], -1.0, 1.0, &mut rng);
        let mut grad = Tensor::rand_uniform(maps.dims(), -1.0, 1.0, &mut rng);
        grad.map_inplace(|v| v.max(0.0));
        for &k in &[3usize, 5, 7] {
            let weight = Tensor::rand_uniform(&[8, k, k], -0.5, 0.5, &mut rng);
            let bias = Tensor::rand_uniform(&[8], -0.5, 0.5, &mut rng);
            let spec = ConvSpec::same(k).expect("odd kernel");
            let shape = format!("{k}x{k}_{n}x8x16x16");
            let seed_ns = single_thread_ns(|| {
                reference::depthwise_conv2d_naive(&maps, &weight, Some(&bias), spec).unwrap()
            });
            let fast_ns = single_thread_ns(|| {
                backend
                    .depthwise_conv2d(&maps, &weight, Some(&bias), spec)
                    .unwrap()
            });
            record.push(&format!("depthwise_fwd_{shape}_seed"), seed_ns);
            record.push(&format!("depthwise_fwd_{shape}_fast"), fast_ns);
            record.speedup(&format!("depthwise_fwd_{shape}"), seed_ns, fast_ns);
            let seed_ns = single_thread_ns(|| {
                reference::depthwise_input_grad_naive(&weight, &grad, maps.dims(), spec).unwrap()
            });
            let fast_ns = single_thread_ns(|| {
                backend
                    .depthwise_input_grad(&weight, &grad, maps.dims(), spec)
                    .unwrap()
            });
            record.push(&format!("depthwise_input_grad_{shape}_seed"), seed_ns);
            record.push(&format!("depthwise_input_grad_{shape}_fast"), fast_ns);
            record.speedup(&format!("depthwise_input_grad_{shape}"), seed_ns, fast_ns);
            let seed_ns = single_thread_ns(|| {
                let d_input =
                    reference::depthwise_input_grad_naive(&weight, &grad, maps.dims(), spec);
                let d_params = reference::depthwise_weight_grad_naive(&maps, &weight, &grad, spec);
                (d_input.unwrap(), d_params.unwrap())
            });
            let fast_ns = single_thread_ns(|| {
                backend
                    .depthwise_conv2d_backward(&maps, &weight, &grad, spec)
                    .unwrap()
            });
            record.push(&format!("depthwise_backward_{shape}_seed"), seed_ns);
            record.push(&format!("depthwise_backward_{shape}_fast"), fast_ns);
            record.speedup(&format!("depthwise_backward_{shape}"), seed_ns, fast_ns);
        }
    }

    // The Eq. 8 low-frequency projection per 32×32 plane, over the 27
    // planes of a 9-row RP2 batch: the seed cosine-table transform against
    // the two-GEMM projector, one thread.
    let planes = Tensor::rand_uniform(&[27, 32, 32], -1.0, 1.0, &mut rng);
    for &d in &[4usize, 16] {
        let mut data = planes.data().to_vec();
        let seed_ns = single_thread_ns(|| {
            data.copy_from_slice(planes.data());
            blurnet_signal::reference::low_frequency_project_planes_naive(&mut data, 32, 32, d)
                .unwrap()
        }) / 27.0;
        let fast_ns = single_thread_ns(|| {
            data.copy_from_slice(planes.data());
            low_frequency_project_planes(&mut data, 32, 32, d).unwrap()
        }) / 27.0;
        record.push(&format!("lowfreq_project_d{d}_per_plane_27_seed"), seed_ns);
        record.push(&format!("lowfreq_project_d{d}_per_plane_27_fast"), fast_ns);
        record.speedup(
            &format!("lowfreq_project_d{d}_per_plane_27"),
            seed_ns,
            fast_ns,
        );
    }

    // Blur on the acceptance-criteria batch shape ([8, 16, 32, 32]):
    // separable two-pass vs (a) the generic 2-D path — the backend's
    // depthwise convolution with per-channel copies of the kernel — and
    // (b) the true seed path, the same weights through the depthwise
    // gather loop, exactly what the blur compiled to before this
    // optimisation pass.
    for &k in &[3usize, 5] {
        let kernel = box_kernel(k);
        let dw = Tensor::stack(&vec![kernel.clone(); feature_maps.dims()[1]]).expect("one kernel");
        let spec = ConvSpec::same(k).expect("odd kernel");
        let seed_ns = single_thread_ns(|| {
            reference::depthwise_conv2d_naive(&feature_maps, &dw, None, spec).unwrap()
        });
        let two_d_ns = single_thread_ns(|| {
            backend
                .depthwise_conv2d(&feature_maps, &dw, None, spec)
                .unwrap()
        });
        let fast_st = single_thread_ns(|| backend.blur_batch(&feature_maps, &kernel).unwrap());
        let fast_mt = median_ns(|| backend.blur_batch(&feature_maps, &kernel).unwrap());
        record.push(&format!("blur{k}x{k}_8x16x32x32_seed"), seed_ns);
        record.push(&format!("blur{k}x{k}_8x16x32x32_2d_fast"), two_d_ns);
        record.push(&format!("blur{k}x{k}_8x16x32x32_separable_st"), fast_st);
        record.push(&format!("blur{k}x{k}_8x16x32x32_separable_mt"), fast_mt);
        record.speedup(&format!("blur{k}x{k}_st"), seed_ns, fast_st);
        record.speedup(&format!("blur{k}x{k}_vs_2d_st"), two_d_ns, fast_st);
    }

    // Forward-path probes (no seed counterpart; tracked for trajectory).
    let input = Tensor::rand_uniform(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform(&[8, 3, 5, 5], -0.5, 0.5, &mut rng);
    let conv_spec = ConvSpec::new(2, 2).expect("valid spec");
    let mut conv_scratch = Scratch::new();
    record.push(
        "conv2d_32x32_8f",
        median_ns(|| {
            backend
                .conv2d(&input, &weight, None, conv_spec, &mut conv_scratch)
                .unwrap()
        }),
    );
    let mut net = LisaCnn::new(18).build(&mut rng).expect("default LisaCnn");
    let batch = Tensor::rand_uniform(&[4, 3, 32, 32], 0.0, 1.0, &mut rng);
    record.push(
        "lisacnn_forward_batch4",
        median_ns(|| net.forward(&batch, false).unwrap()),
    );
    record.push(
        "lisacnn_forward_backward_batch4",
        median_ns(|| {
            let out = net.forward(&batch, true).unwrap();
            net.backward(&Tensor::ones(out.dims())).unwrap();
        }),
    );

    // Multi-core sweep on representative probes (one per substrate
    // family), at the shared thread counts every bench records.
    let ga = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let gb = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let blur_kernel = box_kernel(3);
    for &threads in &BENCH_THREAD_COUNTS {
        record.push_threads(
            "gemm_256x256",
            threads,
            blurnet_bench::with_threads(threads, || {
                median_ns(|| backend.matmul(&ga, &gb).unwrap())
            }),
        );
        record.push_threads(
            "blur3x3_8x16x32x32_separable",
            threads,
            blurnet_bench::with_threads(threads, || {
                median_ns(|| backend.blur_batch(&feature_maps, &blur_kernel).unwrap())
            }),
        );
        record.push_threads(
            "lisacnn_forward_batch4",
            threads,
            blurnet_bench::with_threads(threads, || {
                median_ns(|| net.forward(&batch, false).unwrap())
            }),
        );
    }

    // crates/bench/ -> workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json");
    match std::fs::write(path, record.to_json()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn main() {
    write_bench_json();
}

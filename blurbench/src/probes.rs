//! Per-layer probes: direct, repeated calls into each crate's public
//! functions, each reported as a median, for the layers a grid or serve
//! run only shows in aggregate.

use std::sync::Arc;

use blurnet::journal::{JournalHeader, JournalWriter};
use blurnet::report::RESULTS_SCHEMA;
use blurnet::RunReport;
use blurnet_attacks::adaptive::low_frequency_attack;
use blurnet_attacks::{PgdAttack, PgdConfig, Rp2Attack, Rp2Config};
use blurnet_data::{SignDataset, NUM_CLASSES};
use blurnet_defenses::{model_to_bytes, DefendedModel, DiskVariantCache};
use blurnet_nn::{softmax_cross_entropy, BatchEngine};
use blurnet_signal::{dct2d, low_frequency_project};
use blurnet_tensor::{default_backend, Tensor};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::backend::TimingBackend;
use crate::grid::SCALE;
use crate::metrics::{Metrics, DCT_DIMS, PROBE_BATCHES};
use crate::trace::Trace;
use crate::work::Work;
use crate::{stats, Error, Gates};

/// RP2 iterations / PGD steps per timed attack call.
const ATTACK_STEPS: usize = 5;

/// DCT block size of the adaptive low-frequency attack probe (the middle
/// of Figure 3's sweep).
const LOWFREQ_DIM: usize = 16;

/// Appends per journal probe pass (one per cell of the run).
const JOURNAL_PASSES: usize = 4;

/// What the probes run against.
pub struct ProbeInputs<'a> {
    /// The workload seed (dataset and probe inputs).
    pub seed: u64,
    /// The trained 7×7 depthwise LISA-CNN (Figure 3's model).
    pub depthwise: &'a DefendedModel,
    /// The served feature-filter model.
    pub served: &'a DefendedModel,
    /// The serving request images.
    pub served_pool: &'a [Tensor],
    /// A grid run's report, whose cells the journal probe appends.
    pub report: &'a RunReport,
}

/// Timed repetitions for a batch size: fewer for larger batches.
fn reps_for(batch: usize) -> usize {
    match batch {
        1 => 30,
        2..=8 => 12,
        _ => 6,
    }
}

/// A seeded `[dims]` tensor of values in `[0, 1)`.
fn seeded(dims: &[usize], seed: u64) -> Result<Tensor, Error> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let len = dims.iter().product();
    let data = (0..len)
        .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
        .collect();
    Ok(Tensor::from_vec(data, dims)?)
}

/// Runs every probe, recording one span per probe, and sets the probe
/// metrics.
pub fn run(
    inputs: &ProbeInputs<'_>,
    work: &Work,
    trace: &Trace,
    gates: &mut Gates,
    m: &mut Metrics,
) -> Result<(), Error> {
    let seed = inputs.seed;
    let config = SCALE.dataset_config();

    let (dataset_s, _) = trace.span("probe", "data", || {
        stats::median_secs(3, || SignDataset::generate(&config, seed).map(|_| ()))
    });
    m.set("data.dataset_s", dataset_s?);
    let dataset = SignDataset::generate(&config, seed)?;
    let test = dataset.test_batch()?;

    let (result, _) = trace.span("probe", "defenses", || cache_probe(inputs, work, gates, m));
    result?;
    let (result, _) = trace.span("probe", "journal", || journal_probe(inputs, work, m));
    result?;
    let (result, _) = trace.span("probe", "signal", || signal_probe(seed, m));
    result?;
    let (result, _) = trace.span("probe", "attacks", || {
        attack_probe(inputs.depthwise, &dataset, &test.images, &test.labels, m)
    });
    result?;
    let (result, _) = trace.span("probe", "nn", || {
        nn_probe(inputs.depthwise, &test.images, &test.labels, seed, m)
    });
    result?;
    let (result, _) = trace.span("probe", "serve", || serve_probe(inputs, m));
    result
}

/// `DiskVariantCache::store` / `load` of the 7×7 depthwise model.
fn cache_probe(
    inputs: &ProbeInputs<'_>,
    work: &Work,
    gates: &mut Gates,
    m: &mut Metrics,
) -> Result<(), Error> {
    let dir = work.temp_dir("probe-cache")?;
    let cache = DiskVariantCache::open(dir.path())?;
    let train = SCALE.train_config();
    let size = SCALE.dataset_config().image_size;
    let model = inputs.depthwise;
    let store = stats::median_secs(5, || {
        cache
            .store(model, &train, size, NUM_CLASSES, inputs.seed)
            .map(|_| ())
    })?;
    let load = stats::median_secs(5, || {
        cache
            .load(model.defense(), &train, size, NUM_CLASSES, inputs.seed)
            .map(|_| ())
    })?;
    let loaded = cache
        .load(model.defense(), &train, size, NUM_CLASSES, inputs.seed)?
        .ok_or("the probe cache lost its entry")?;
    gates.check(model_to_bytes(&loaded)? == model_to_bytes(model)?, || {
        "a DiskVariantCache round trip changed the model".to_string()
    });
    m.set("defenses.cache_store_ms", store * 1e3);
    m.set("defenses.cache_load_ms", load * 1e3);
    Ok(())
}

/// Fsynced `JournalWriter::append_cell` of the run's cell records.
fn journal_probe(inputs: &ProbeInputs<'_>, work: &Work, m: &mut Metrics) -> Result<(), Error> {
    let dir = work.temp_dir("probe-journal")?;
    let report = inputs.report;
    let writer = JournalWriter::create(
        dir.path().join("probe.journal"),
        &JournalHeader {
            schema: RESULTS_SCHEMA.to_string(),
            scale: report.scale.clone(),
            seed: report.seed,
            cells: report.cells.len(),
        },
    )?;
    let mut samples = Vec::with_capacity(JOURNAL_PASSES * report.cells.len());
    for _ in 0..JOURNAL_PASSES {
        for cell in &report.cells {
            let start = std::time::Instant::now();
            writer.append_cell(cell);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let p50 = stats::percentile(&samples, 0.50).ok_or("no journal samples")?;
    let p99 = stats::percentile(&samples, 0.99).ok_or("no journal samples")?;
    eprintln!("# journal append p50 {p50} ms, p99 {p99} ms");
    m.set("journal.append_ms.p50", p50.value);
    m.set("journal.append_ms.p99", p99.value);
    Ok(())
}

/// The low-frequency projection and forward DCT of one 32×32 plane.
fn signal_probe(seed: u64, m: &mut Metrics) -> Result<(), Error> {
    let size = SCALE.dataset_config().image_size;
    let plane = seeded(&[size, size], seed ^ 0xd00d)?;
    for dim in DCT_DIMS {
        let secs = stats::median_secs(20, || low_frequency_project(&plane, dim).map(|_| ()))?;
        m.set(&format!("signal.lowfreq_project_us.d{dim}"), secs * 1e6);
    }
    let secs = stats::median_secs(20, || dct2d(&plane).map(|_| ()))?;
    m.set("signal.dct2d_us", secs * 1e6);
    Ok(())
}

/// RP2 (standard and low-frequency objective) and PGD per iteration on
/// the 7×7 depthwise model, over the grid's attack images.
fn attack_probe(
    model: &DefendedModel,
    dataset: &SignDataset,
    test_images: &Tensor,
    test_labels: &[usize],
    m: &mut Metrics,
) -> Result<(), Error> {
    let net = model.network();
    let images: Vec<Tensor> = dataset
        .stop_eval_images()
        .iter()
        .take(SCALE.attack_image_count())
        .cloned()
        .collect();
    let target = SCALE.attack_targets()[0];
    let base = Rp2Config {
        iterations: ATTACK_STEPS,
        ..SCALE.rp2_config()
    };
    let standard = Rp2Attack::new(base.clone())?;
    let secs = stats::median_secs(3, || {
        standard.generate_batch(net, &images, target).map(|_| ())
    })?;
    m.set("attacks.rp2_iter_ms", secs * 1e3 / ATTACK_STEPS as f64);
    let lowfreq = low_frequency_attack(base, LOWFREQ_DIM)?;
    let secs = stats::median_secs(3, || {
        lowfreq.generate_batch(net, &images, target).map(|_| ())
    })?;
    m.set(
        "attacks.rp2_lowfreq_iter_ms",
        secs * 1e3 / ATTACK_STEPS as f64,
    );

    let batch = test_images.batch_slice(0, 8)?;
    let pgd = PgdAttack::new(PgdConfig {
        steps: ATTACK_STEPS,
        ..SCALE.pgd_config()
    })?;
    let secs = stats::median_secs(3, || {
        pgd.perturb(net, &batch, &test_labels[..8]).map(|_| ())
    })?;
    m.set("attacks.pgd_step_ms", secs * 1e3 / ATTACK_STEPS as f64);
    Ok(())
}

/// `BatchEngine` forward and input-grad (through the timing backend) and
/// the trainer's stateful forward/backward, at each probe batch size.
fn nn_probe(
    model: &DefendedModel,
    test_images: &Tensor,
    test_labels: &[usize],
    seed: u64,
    m: &mut Metrics,
) -> Result<(), Error> {
    let timing = Arc::new(TimingBackend::new(default_backend()));
    let engine = BatchEngine::new(model.network())?.with_backend(timing.clone());
    for batch in PROBE_BATCHES {
        let x = test_images.batch_slice(0, batch)?;
        let grad_out = seeded(&[batch, NUM_CLASSES], seed ^ batch as u64)?;
        let reps = reps_for(batch);
        let forward = stats::median_secs(reps, || engine.forward(&x).map(|_| ()))?;
        let input_grad = stats::median_secs(reps, || engine.input_grad(&x, &grad_out).map(|_| ()))?;
        m.set(&format!("nn.forward_ms.b{batch}"), forward * 1e3);
        m.set(&format!("nn.input_grad_ms.b{batch}"), input_grad * 1e3);
    }
    for (method, totals) in timing.snapshot() {
        m.set(&format!("tensor.{method}_ms"), totals.total_ms);
        m.set(&format!("tensor.{method}_calls"), totals.calls as f64);
    }

    let mut net = model.network().clone();
    for batch in PROBE_BATCHES {
        let x = test_images.batch_slice(0, batch)?;
        let labels = &test_labels[..batch];
        let secs = stats::median_secs(reps_for(batch), || -> Result<(), Error> {
            let logits = net.forward(&x, true)?;
            let (_, d_logits) = softmax_cross_entropy(&logits, labels)?;
            net.backward(&d_logits)?;
            Ok(())
        })?;
        m.set(&format!("nn.param_grad_ms.b{batch}"), secs * 1e3);
    }
    Ok(())
}

/// `classify_with_confidence` on the served model at each probe batch
/// size, as one service worker runs a coalesced batch.
fn serve_probe(inputs: &ProbeInputs<'_>, m: &mut Metrics) -> Result<(), Error> {
    let model = inputs.served;
    let engine = BatchEngine::new(model.network())?;
    for batch in PROBE_BATCHES {
        let raw = Tensor::stack(&inputs.served_pool[..batch])?;
        let input = model.preprocess_batch(&raw)?;
        let secs = stats::median_secs(reps_for(batch), || {
            engine.classify_with_confidence(&input).map(|_| ())
        })?;
        m.set(&format!("serve.batch_ms.b{batch}"), secs * 1e3);
    }
    Ok(())
}

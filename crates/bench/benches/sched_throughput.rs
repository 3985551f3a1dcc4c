//! Benchmarks the experiment scheduler cold and warm and writes
//! `BENCH_sched.json` at the repository root (schema
//! `blurnet-sched-bench/v2`).
//!
//! * **Cold** — an empty run: every variant is trained and every shared
//!   RP2 artifact generated inside the timed region.
//! * **Warm** — the same run with `.cache_dir(dir)` over a cache filled
//!   by one untimed cold run, the path `reproduce --cache-dir` takes on a
//!   repeat run: train and artifact nodes become checksummed disk loads.
//!
//! Before any timing, the run *asserts* that the report is byte-identical
//! at every measured worker count, cold and warm — a determinism
//! regression fails the bench loudly.

use std::path::Path;
use std::time::Instant;

use blurnet::experiments::grid::{CellKind, CellSpec, ExperimentGrid};
use blurnet::experiments::Table1Victim;
use blurnet::{ExperimentScheduler, Scale, ScheduledRun};
use serde::Value;

/// Seed shared with `reproduce`.
const SEED: u64 = blurnet_bench::EXPERIMENT_SEED;

/// Timed repetitions per configuration (whole-grid runs are seconds-long;
/// the median of three suppresses scheduling noise without hour-long
/// benches).
const RUNS: usize = 3;

/// Scheduler worker counts measured.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// The benchmark grid: both sticker-artifact consumers, one Table I
/// victim (transfer-set consumer), and the golden micro-grid's four
/// attack cells.
fn bench_grid() -> ExperimentGrid {
    let mut cells = vec![
        CellSpec {
            experiment: "figure1",
            label: "input spectrum".into(),
            kind: CellKind::Figure1,
        },
        CellSpec {
            experiment: "figure2",
            label: "feature-map spectra".into(),
            kind: CellKind::Figure2 { max_channels: 4 },
        },
        CellSpec {
            experiment: "table1",
            label: Table1Victim::Baseline.label(),
            kind: CellKind::Table1(Table1Victim::Baseline),
        },
    ];
    cells.extend(ExperimentGrid::micro().cells().to_vec());
    ExperimentGrid::custom(cells)
}

fn run(grid: &ExperimentGrid, workers: usize, cache: Option<&Path>) -> ScheduledRun {
    let mut scheduler = ExperimentScheduler::new(Scale::Smoke, SEED).threads(workers);
    if let Some(dir) = cache {
        scheduler = scheduler.cache_dir(dir);
    }
    let run = scheduler.run(grid).expect("scheduler run");
    assert!(run.report.all_ok(), "cells failed at {workers} workers");
    run
}

/// Median wall time of [`RUNS`] runs, plus the last run's pool
/// utilization.
fn time_runs(grid: &ExperimentGrid, workers: usize, cache: Option<&Path>) -> (f64, f64) {
    let mut utilization = 0.0;
    let mut ns: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            utilization = run(grid, workers, cache).profile.utilization();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (ns[ns.len() / 2], utilization)
}

fn write_sched_json() {
    let grid = bench_grid();
    let cache = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sched-bench-cache");
    // A stale cache from an older build would make the "cold" fill warm.
    let _ = std::fs::remove_dir_all(&cache);

    // Determinism gate: the untimed cold run that fills the cache is the
    // reference every worker count, cold and warm, must reproduce.
    let reference = run(&grid, 1, Some(&cache)).report.to_json();
    for &workers in &WORKER_COUNTS {
        for dir in [None, Some(cache.as_path())] {
            assert_eq!(
                run(&grid, workers, dir).report.to_json(),
                reference,
                "report diverged at {workers} workers (cache: {})",
                dir.is_some()
            );
        }
    }

    let mut entries: Vec<(String, Value)> =
        vec![("schema".into(), Value::Str("blurnet-sched-bench/v2".into()))];
    entries.extend(blurnet_bench::host_entries("sched_throughput"));
    entries.push(("cells".into(), Value::Int(grid.len() as i64)));
    entries.push(("bit_identical_across_workers".into(), Value::Bool(true)));
    let mut record = |mode: &str, workers: usize, ns: f64, utilization: f64| {
        let key = format!("scheduler_{mode}_t{workers}");
        println!("json-probe {key:<30} {:10.1} ms", ns / 1e6);
        entries.push((format!("{key}_ns"), Value::Float(ns)));
        entries.push((
            format!("{key}_cells_per_sec"),
            Value::Float(round2(grid.len() as f64 * 1e9 / ns)),
        ));
        entries.push((
            format!("{key}_pool_utilization"),
            Value::Float(round2(utilization)),
        ));
    };
    for &workers in &WORKER_COUNTS {
        let (cold_ns, cold_util) = time_runs(&grid, workers, None);
        record("cold", workers, cold_ns, cold_util);
        let (warm_ns, warm_util) = time_runs(&grid, workers, Some(&cache));
        record("warm", workers, warm_ns, warm_util);
    }
    let _ = std::fs::remove_dir_all(&cache);

    let json = serde_json::to_string_pretty(&Value::Map(entries)).unwrap_or_else(|_| "{}".into());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn main() {
    write_sched_json();
}

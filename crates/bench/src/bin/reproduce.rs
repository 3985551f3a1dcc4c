//! Reproduces the paper's tables and figures through the concurrent
//! experiment scheduler and writes a machine-readable `results.json`.
//!
//! ```bash
//! # Full table1–5 + figure grid, worker count from RAYON_NUM_THREADS:
//! cargo run --release -p blurnet-bench --bin reproduce
//! # Four scheduler workers, tables only, custom output path:
//! cargo run --release -p blurnet-bench --bin reproduce -- \
//!     --threads 4 --grid tables --out results.json
//! # Only Table III and Figure 3:
//! cargo run --release -p blurnet-bench --bin reproduce -- --grid table3,figure3
//! ```
//!
//! `--grid` takes `full`, `tables`, `micro`, or a comma-separated list of
//! experiment names (`table1` … `table5`, `figure1` … `figure6`); an
//! unknown name exits with status 2, as does a `--threads` value that is
//! not a positive worker count. `BLURNET_SCALE` (smoke/quick/paper)
//! selects the effort. The rendered output prints each table's paper
//! values under the measured table; pass `--json` to print the report JSON
//! to stdout instead. The emitted `results.json` is bit-identical at every
//! `--threads` value.
//!
//! `--cache-dir DIR` persists trained variants and shared attack
//! artifacts under `DIR` and reuses them on later runs.
//!
//! Every run write-ahead journals each completed cell to `run.journal`
//! beside `--out` (fsynced per cell; the directory is created if it does
//! not exist), so a run killed at *any* point —
//! SIGKILL, OOM, power loss — leaves a record of its completed cells.
//! `--resume DIR` reads only `DIR/run.journal`: it replays every completed
//! cell and schedules only the delta; a resume of a fully completed run
//! executes zero nodes and re-emits the byte-identical report. A
//! directory without a journal (never written, or retired after a failed
//! append) is not resumable — re-run without `--resume`. Every runtime
//! failure prints `reproduce: …` and exits 1.

use std::path::{Path, PathBuf};

use blurnet::experiments::grid::ExperimentGrid;
use blurnet::experiments::paper_reference;
use blurnet::journal::{read_journal, JOURNAL_FILE};
use blurnet::{resume_run, ExperimentScheduler, RunReport, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--threads N] [--grid full|tables|micro|EXPERIMENT,...] [--out PATH] \
         [--retry-failed N] [--cache-dir DIR] [--resume DIR] [--json] [--verbose]"
    );
    std::process::exit(2)
}

/// Reports a runtime failure and exits 1 — never a panic.
fn fail(message: String) -> ! {
    eprintln!("reproduce: {message}");
    std::process::exit(1)
}

struct Args {
    threads: Option<usize>,
    retry_failed: usize,
    grid: String,
    out: PathBuf,
    cache_dir: Option<PathBuf>,
    resume: Option<PathBuf>,
    json: bool,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: None,
        retry_failed: 0,
        grid: "full".to_string(),
        out: PathBuf::from("results.json"),
        cache_dir: None,
        resume: None,
        json: false,
        verbose: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => {
                let value = iter.next().unwrap_or_else(|| usage());
                match value.parse() {
                    Ok(0) | Err(_) => usage(),
                    Ok(n) => args.threads = Some(n),
                }
            }
            "--retry-failed" => {
                let value = iter.next().unwrap_or_else(|| usage());
                args.retry_failed = value.parse().unwrap_or_else(|_| usage());
            }
            "--grid" => args.grid = iter.next().unwrap_or_else(|| usage()),
            "--out" => args.out = iter.next().unwrap_or_else(|| usage()).into(),
            "--cache-dir" => args.cache_dir = Some(iter.next().unwrap_or_else(|| usage()).into()),
            "--resume" => args.resume = Some(iter.next().unwrap_or_else(|| usage()).into()),
            "--json" => args.json = true,
            "--verbose" => args.verbose = true,
            _ => usage(),
        }
    }
    args
}

fn main() {
    // Deterministic fault injection, armed from `BLURNET_FAULT`
    // (`site:kind[@hit]`, comma-separated) so the process-level chaos
    // harness can place aborts inside a real subprocess run.
    #[cfg(feature = "fault-injection")]
    blurnet::fault::arm_from_env();

    let args = parse_args();
    let scale = Scale::from_env();
    let grid = ExperimentGrid::named(&args.grid, scale).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(2);
    });
    let workers = args.threads.unwrap_or_else(rayon::current_num_threads);
    eprintln!(
        "# BlurNet reproduction — scale: {scale}, grid: {} ({} cells), scheduler: {workers} workers",
        args.grid,
        grid.len(),
    );

    let mut scheduler = ExperimentScheduler::new(scale, blurnet_bench::EXPERIMENT_SEED)
        .threads(workers)
        .verbose(args.verbose)
        .retry_failed(args.retry_failed);
    if let Some(dir) = &args.cache_dir {
        scheduler = scheduler.cache_dir(dir.clone());
    }
    // The journal lives beside `--out`, so that directory must exist
    // before the run opens it.
    let out_dir = args.out.parent().unwrap_or_else(|| Path::new(""));
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", out_dir.display())));
    let journal = out_dir.join(JOURNAL_FILE);
    let report: RunReport = if let Some(resume_dir) = &args.resume {
        let prior = read_journal(&resume_dir.join(JOURNAL_FILE)).unwrap_or_else(|e| {
            fail(format!(
                "{} is not resumable ({e}); re-run without --resume",
                resume_dir.display()
            ))
        });
        let resumed = resume_run(&scheduler, &grid, &prior, &journal)
            .unwrap_or_else(|e| fail(format!("resume failed: {e}")));
        eprintln!(
            "# resume: replayed {} cells, scheduling {}",
            resumed.replayed, resumed.executed
        );
        if let Some(profile) = &resumed.profile {
            print_profile(profile);
        }
        resumed.report
    } else {
        let run = scheduler
            .journal_path(journal)
            .run(&grid)
            .unwrap_or_else(|e| fail(format!("scheduler run failed: {e}")));
        print_profile(&run.profile);
        run.report
    };

    if args.json {
        println!("{}", report.to_json());
    } else {
        for experiment in report.experiments() {
            for table in report.experiment_tables(experiment) {
                println!("{table}");
            }
            if let Some(paper) = paper_reference(experiment) {
                println!("{paper}");
            }
        }
    }
    report
        .write_json(&args.out)
        .unwrap_or_else(|e| fail(format!("failed to write {}: {e}", args.out.display())));
    eprintln!("# wrote {}", args.out.display());
    if !report.all_ok() {
        eprintln!("# WARNING: some cells failed or were skipped (see the report)");
        std::process::exit(1);
    }
}

fn print_profile(profile: &blurnet::RunProfile) {
    eprintln!(
        "# {} cells in {:.1}s — {:.2} cells/s, pool utilization {:.0}% ({} workers)",
        profile.cell_count,
        profile.wall_ns as f64 / 1e9,
        profile.cells_per_sec(),
        profile.utilization() * 100.0,
        profile.workers
    );
}

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
//! unknown name exits with status 2. `BLURNET_SCALE` (smoke/quick/paper)
//! selects the effort. The rendered output prints each table's paper
//! values under the measured table; pass `--json` to print the report JSON
//! to stdout instead. The emitted `results.json` is bit-identical at every
//! `--threads` value.
//!
//! `--cache-dir DIR` persists trained variants and shared attack
//! artifacts under `DIR` and reuses them on later runs. `--resume DIR`
//! replays every completed cell from `DIR/results.json` — or, when the
//! prior run died before writing its report, from the crash-safe
//! `run.journal` beside it — and schedules only the delta; a resume of a
//! fully completed run executes zero nodes and re-emits the
//! byte-identical report.
//!
//! Scheduler runs write-ahead journal every completed cell to
//! `run.journal` next to `--out` (fsynced per cell), so a run killed at
//! *any* point — SIGKILL, OOM, power loss — resumes from its last
//! completed cell. `--journal PATH` moves the journal, `--no-journal`
//! disables it.

use blurnet::experiments::grid::ExperimentGrid;
use blurnet::experiments::paper_reference;
use blurnet::journal::JOURNAL_FILE;
use blurnet::{
    recover_prior, resume_run, resume_run_with_journal, ExperimentScheduler, RunReport, Scale,
};

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--threads N] [--grid full|tables|micro|EXPERIMENT,...] [--out PATH] \
         [--retry-failed N] [--cache-dir DIR] [--resume DIR] [--journal PATH] \
         [--no-journal] [--json] [--verbose]"
    );
    std::process::exit(2)
}

struct Args {
    threads: Option<usize>,
    retry_failed: usize,
    grid: String,
    out: Option<std::path::PathBuf>,
    cache_dir: Option<std::path::PathBuf>,
    resume: Option<std::path::PathBuf>,
    journal: Option<std::path::PathBuf>,
    no_journal: bool,
    json: bool,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: None,
        retry_failed: 0,
        grid: "full".to_string(),
        out: Some(std::path::PathBuf::from("results.json")),
        cache_dir: None,
        resume: None,
        journal: None,
        no_journal: false,
        json: false,
        verbose: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => {
                let value = iter.next().unwrap_or_else(|| usage());
                args.threads = Some(value.parse().unwrap_or_else(|_| usage()));
            }
            "--retry-failed" => {
                let value = iter.next().unwrap_or_else(|| usage());
                args.retry_failed = value.parse().unwrap_or_else(|_| usage());
            }
            "--grid" => args.grid = iter.next().unwrap_or_else(|| usage()),
            "--out" => args.out = Some(iter.next().unwrap_or_else(|| usage()).into()),
            "--no-out" => args.out = None,
            "--cache-dir" => args.cache_dir = Some(iter.next().unwrap_or_else(|| usage()).into()),
            "--resume" => args.resume = Some(iter.next().unwrap_or_else(|| usage()).into()),
            "--journal" => args.journal = Some(iter.next().unwrap_or_else(|| usage()).into()),
            "--no-journal" => args.no_journal = true,
            "--json" => args.json = true,
            "--verbose" => args.verbose = true,
            _ => usage(),
        }
    }
    args
}

/// Where this run journals completed cells: an explicit `--journal PATH`
/// wins, otherwise `run.journal` beside `--out`; `--no-journal` (or
/// `--no-out` without an explicit journal path) disables journaling.
fn journal_path(args: &Args) -> Option<std::path::PathBuf> {
    if args.no_journal {
        return None;
    }
    if let Some(path) = &args.journal {
        return Some(path.clone());
    }
    args.out.as_ref().map(|out| {
        out.parent()
            .unwrap_or_else(|| std::path::Path::new(""))
            .join(JOURNAL_FILE)
    })
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
    let report: RunReport = if let Some(resume_dir) = &args.resume {
        let (prior, source) = recover_prior(resume_dir).unwrap_or_else(|e| {
            eprintln!("reproduce: cannot recover the prior run: {e}");
            std::process::exit(1);
        });
        eprintln!("# resume source: {source}");
        let resumed = match journal_path(&args) {
            Some(journal) => resume_run_with_journal(&scheduler, &grid, &prior, &journal),
            None => resume_run(&scheduler, &grid, &prior),
        }
        .unwrap_or_else(|e| {
            eprintln!("reproduce: resume failed: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "# resume: replayed {} cells, scheduling {}",
            resumed.replayed, resumed.executed
        );
        if let Some(profile) = &resumed.profile {
            print_profile(profile);
        }
        resumed.report
    } else {
        if let Some(journal) = journal_path(&args) {
            scheduler = scheduler.journal_path(journal);
        }
        let run = scheduler
            .run(&grid)
            .unwrap_or_else(|e| panic!("scheduler run failed: {e}"));
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
    if let Some(path) = &args.out {
        report
            .write_json(path)
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        eprintln!("# wrote {}", path.display());
    }
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

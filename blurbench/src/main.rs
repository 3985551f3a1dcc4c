//! `blurbench`: the end-to-end and per-layer benchmark of the BlurNet
//! reproduction.
//!
//! ```bash
//! cargo run --release --manifest-path blurbench/Cargo.toml -- \
//!     --workload grid_cold --seed 7 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `grid_cold`, `grid_warm` (paper-grid reproduction through
//! `ExperimentScheduler`) and `serve_open` (open-loop load on
//! `ClassifyService`). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer metrics and writes a Chrome trace
//! file. The last line of standard output is the JSON result. See
//! `blurbench/README.md`.

mod backend;
mod grid;
mod host;
mod metrics;
mod probes;
mod schedule;
mod serve;
mod stats;
mod trace;
mod work;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use metrics::Metrics;
use trace::Trace;
use work::Work;

/// Every failure the benchmark reports (and exits non-zero on).
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Default workload seed: the seed the repository's tables come from.
const DEFAULT_SEED: u64 = blurnet_bench::EXPERIMENT_SEED;

/// Default measuring time, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Phases of the short serving session a traced grid run adds, so its
/// trace also covers the serving layers.
const SUPPLEMENT_PHASES: serve::Phases = serve::Phases {
    steady: Duration::from_millis(1500),
    overload: Duration::from_millis(500),
};

const USAGE: &str = "usage: blurbench --workload grid_cold|grid_warm|serve_open \
                     [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GridCold,
    GridWarm,
    ServeOpen,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "grid_cold" => Some(Workload::GridCold),
            "grid_warm" => Some(Workload::GridWarm),
            "serve_open" => Some(Workload::ServeOpen),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid_cold",
            Workload::GridWarm => "grid_warm",
            Workload::ServeOpen => "serve_open",
        }
    }
}

/// Correctness findings of one run. Any finding makes the result
/// `"correct": false`; findings are not counted as failed operations.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    /// Records `what()` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Records a finding.
    pub fn fail(&mut self, finding: String) {
        eprintln!("blurbench: correctness gate failed: {finding}");
        self.failures.push(finding);
    }

    fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// State shared by one benchmark process.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Working directory.
    pub work: Work,
    /// The recorder for traced steps (disabled unless `--trace 1`).
    pub trace: Trace,
    /// A disabled recorder, for the untraced steps of a traced run.
    pub quiet: Trace,
    /// Correctness findings.
    pub gates: Gates,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

/// What the process was asked to do.
enum Mode {
    Bench(Args),
    /// Internal: fill a grid cache in a child process (see `grid`).
    FillCache(PathBuf, u64),
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut trace_out = None;
    let mut fill = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--fill-cache" => fill = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(dir) = fill {
        return Ok(Mode::FillCache(dir, seed));
    }
    Ok(Mode::Bench(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Bench(args)) => args,
        Ok(Mode::FillCache(dir, seed)) => {
            return match grid::fill_child(&dir, seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("blurbench --fill-cache: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(msg) => {
            eprintln!("blurbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("blurbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the requested workload and returns the result line.
fn run(args: &Args) -> Result<String, Error> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: Work::open()?,
        trace: Trace::new(args.trace),
        quiet: Trace::new(false),
        gates: Gates::default(),
    };
    println!(
        "# blurbench workload={} seed={} seconds={} trace={} {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::facts()
    );
    let (metrics, attempted, failed) = if args.trace {
        traced(&mut ctx, args)?
    } else {
        untraced(&mut ctx, args.workload)?
    };
    Ok(metrics.result_line(ctx.gates.passed(), attempted, failed)?)
}

/// The end-to-end measurement (tracing off).
fn untraced(ctx: &mut Ctx, workload: Workload) -> Result<(Metrics, u64, u64), Error> {
    let mut m = Metrics::end_to_end();
    let (attempted, failed) = match workload {
        Workload::GridCold | Workload::GridWarm => {
            let measured = grid::measure(ctx, workload == Workload::GridWarm)?;
            grid::end_to_end(&measured, &mut m)
        }
        Workload::ServeOpen => {
            let (setup, setups) = serve::setup_repeated(ctx.seed, &mut ctx.gates)?;
            let phases = serve::Phases::of(ctx.seconds);
            let session = serve::run_session(&setup, ctx.seed, phases, &ctx.quiet, &mut ctx.gates)?;
            setup.service.shutdown()?;
            serve::end_to_end(&setups, &session, &mut m)?;
            (session.attempted, session.failed)
        }
    };
    m.set("peak_rss_mb", host::peak_rss_mb()?);
    Ok((m, attempted, failed))
}

/// The per-layer measurement: the workload once untraced (the overhead
/// baseline) and once traced, the layers the workload does not reach
/// (a short serving session for the grids, a cold grid for serving), and
/// the probes. Writes the trace file.
fn traced(ctx: &mut Ctx, args: &Args) -> Result<(Metrics, u64, u64), Error> {
    let mut m = Metrics::per_layer();
    let seed = ctx.seed;
    let (overhead_s, grid_rep, grid_dir, setup, session, mut attempted, mut failed);
    match args.workload {
        Workload::GridCold | Workload::GridWarm => {
            let (baseline, rep, dir) = grid::traced(ctx, args.workload == Workload::GridWarm)?;
            overhead_s = rep.wall_s - baseline.wall_s;
            let (started, _) = ctx
                .trace
                .span("serve", "serve set-up", || serve::setup(seed));
            setup = started?;
            session =
                serve::run_session(&setup, seed, SUPPLEMENT_PHASES, &ctx.trace, &mut ctx.gates)?;
            let ((a0, f0), (a1, f1)) = (baseline.counts(), rep.counts());
            (attempted, failed) = (a0 + a1, f0 + f1);
            (grid_rep, grid_dir) = (rep, dir);
        }
        Workload::ServeOpen => {
            let (started, _) = ctx
                .trace
                .span("serve", "serve set-up", || serve::setup(seed));
            setup = started?;
            let phases = serve::Phases::of(ctx.seconds);
            let baseline = serve::run_session(&setup, seed, phases, &ctx.quiet, &mut ctx.gates)?;
            session = serve::run_session(&setup, seed, phases, &ctx.trace, &mut ctx.gates)?;
            overhead_s = session.wall_s - baseline.wall_s;
            let dir = ctx.work.temp_dir("grid")?;
            grid_rep = grid::run_once(ctx, dir.path(), grid::WARM_WORKERS, 0, true)?;
            let (cells, failed_cells) = grid_rep.counts();
            (attempted, failed) = (baseline.attempted + cells, baseline.failed + failed_cells);
            grid_dir = dir;
        }
    }
    attempted += session.attempted;
    failed += session.failed;
    setup.service.shutdown()?;
    m.set("trace.overhead_s", overhead_s);
    grid::layer_metrics(&grid_rep.profile, &mut m);
    serve::layer_metrics(&session, &mut m)?;

    let depthwise = grid::load_depthwise(grid_dir.path(), seed)?;
    let inputs = probes::ProbeInputs {
        seed,
        depthwise: &depthwise,
        served: &setup.model,
        served_pool: &setup.pool,
        report: &grid_rep.report,
    };
    probes::run(&inputs, &ctx.work, &ctx.trace, &mut ctx.gates, &mut m)?;

    let path = args
        .trace_out
        .clone()
        .unwrap_or_else(|| ctx.work.trace_path(args.workload.name(), seed));
    ctx.trace.write_chrome(
        &path,
        &[
            ("workload", args.workload.name().to_string()),
            ("seed", seed.to_string()),
            ("overhead_s", format!("{overhead_s}")),
            ("host", host::facts()),
        ],
    )?;
    eprintln!(
        "# wrote {} spans to {}; tracing overhead {overhead_s:+.4} s",
        ctx.trace.len(),
        path.display()
    );
    Ok((m, attempted, failed))
}

//! Chaos suite for the core fault sites (`core.*`): every registered
//! queue/scheduler fault point is exercised one at a time, and the
//! survival invariants are asserted each time:
//!
//! * queue-level faults (spurious refusals, lost wakeups, spurious
//!   timeouts) never change the scheduler's report — resilient callers
//!   retry, so `results.json` stays **byte-identical** to a clean run;
//! * scheduler-node faults without `--retry-failed` degrade gracefully:
//!   the hit node is `Failed`, its dependents are `Skipped`, and every
//!   unaffected cell's report entry is byte-identical to the clean run;
//! * with `retry_failed(1)`, a once-firing fault is fully absorbed: the
//!   retried node succeeds and the whole report is byte-identical.
//!
//! The fault registry is process-global, so every test serializes around
//! one lock. Compile with `--features fault-injection`.

#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use blurnet::experiments::grid::{CellKind, CellSpec, ExperimentGrid};
use blurnet::experiments::Table1Victim;
use blurnet::fault::{self, sites, FaultKind, FaultSpec, MARKER};
use blurnet::journal::{read_journal, JournalHeader, JournalWriter};
use blurnet::queue::{BoundedQueue, PopTimeout};
use blurnet::report::{CellReport, RESULTS_SCHEMA};
use blurnet::{CellStatus, ExperimentScheduler, Scale, ScheduledRun};

/// The registry is global; chaos tests serialize around this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    // A previous test's assertion failure must not cascade into lock
    // poisoning noise.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The deterministic report as bytes — the byte-identity currency.
fn report_bytes(run: &ScheduledRun) -> Vec<u8> {
    serde_json::to_string(&run.report)
        .expect("report serializes")
        .into_bytes()
}

fn scheduler() -> ExperimentScheduler {
    ExperimentScheduler::new(Scale::Smoke, 7).threads(2)
}

#[test]
fn queue_faults_leave_the_scheduler_report_byte_identical() {
    let _guard = serialized();
    fault::disarm_all();
    let grid = ExperimentGrid::micro();
    let clean = scheduler().run(&grid).expect("clean run");
    assert!(clean.report.all_ok());

    for site in [sites::QUEUE_PUSH, sites::QUEUE_POP] {
        fault::disarm_all();
        fault::arm(site, FaultSpec::seeded(FaultKind::Error, 0xB10B, 0.25));
        let chaotic = scheduler().run(&grid).expect("chaotic run completes");
        assert!(
            fault::hits(site) > 0,
            "{site}: the scenario never reached its fault point"
        );
        assert!(
            fault::fires(site) > 0,
            "{site}: the fault never actually fired"
        );
        assert_eq!(
            report_bytes(&chaotic),
            report_bytes(&clean),
            "{site}: queue-level faults must be invisible in the report"
        );
    }
    fault::disarm_all();
}

#[test]
fn spurious_pop_timeouts_do_not_lose_queued_items() {
    let _guard = serialized();
    fault::disarm_all();
    // `core.queue.pop_timeout` models a spurious timeout: the resilient
    // consumer pattern (retry until `Closed`) still drains everything.
    fault::arm(
        sites::QUEUE_POP_TIMEOUT,
        FaultSpec::on_hit(FaultKind::Error, 1),
    );
    let queue = BoundedQueue::new(4);
    queue.push(42u32).expect("open queue accepts");
    assert_eq!(
        queue.pop_timeout(Duration::from_millis(50)),
        PopTimeout::TimedOut,
        "the armed fault reports a spurious timeout despite a queued item"
    );
    assert_eq!(
        queue.pop_timeout(Duration::from_millis(50)),
        PopTimeout::Item(42),
        "a retrying consumer recovers the item"
    );
    assert_eq!(fault::fires(sites::QUEUE_POP_TIMEOUT), 1);
    fault::disarm_all();
}

#[test]
fn a_failed_train_node_skips_only_its_dependents() {
    let _guard = serialized();
    fault::disarm_all();
    let grid = ExperimentGrid::micro();
    // Single worker: node order is deterministic, so the first train node
    // (grid order) takes the injected failure.
    let clean = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("clean run");

    fault::arm(sites::SCHED_TRAIN, FaultSpec::on_hit(FaultKind::Error, 1));
    let faulty = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("faulty run still reports");
    fault::disarm_all();

    assert!(!faulty.report.all_ok());
    let mut skipped = 0;
    for (cell, clean_cell) in faulty.report.cells.iter().zip(&clean.report.cells) {
        match &cell.status {
            CellStatus::Skipped { reason } => {
                assert!(
                    reason.contains(MARKER),
                    "skip reason should carry the injected cause, got: {reason}"
                );
                skipped += 1;
            }
            CellStatus::Ok => {
                assert_eq!(cell, clean_cell, "unaffected cell diverged from clean run");
            }
            other => panic!("unexpected cell status {other:?}"),
        }
    }
    // Exactly the failed variant's cells are skipped (micro grid: two
    // cells per variant), everything else survived.
    assert_eq!(skipped, 2);
}

#[test]
fn retry_failed_absorbs_a_transient_train_fault_byte_identically() {
    let _guard = serialized();
    fault::disarm_all();
    let grid = ExperimentGrid::micro();
    let clean = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("clean run");

    fault::arm(sites::SCHED_TRAIN, FaultSpec::on_hit(FaultKind::Error, 1));
    let retried = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .retry_failed(1)
        .run(&grid)
        .expect("retried run");
    assert_eq!(fault::fires(sites::SCHED_TRAIN), 1);
    fault::disarm_all();

    assert!(retried.report.all_ok());
    assert_eq!(
        report_bytes(&retried),
        report_bytes(&clean),
        "a successfully retried node must leave no trace in the report"
    );
}

#[test]
fn retry_failed_absorbs_an_injected_cell_panic() {
    let _guard = serialized();
    fault::disarm_all();
    let grid = ExperimentGrid::micro();
    let clean = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("clean run");

    // Panic kind: the cell's catch_unwind isolation feeds the retry path.
    fault::arm(sites::SCHED_CELL, FaultSpec::on_hit(FaultKind::Panic, 1));
    let retried = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .retry_failed(1)
        .run(&grid)
        .expect("retried run");
    assert_eq!(fault::fires(sites::SCHED_CELL), 1);
    fault::disarm_all();

    assert!(retried.report.all_ok());
    assert_eq!(report_bytes(&retried), report_bytes(&clean));
}

#[test]
fn an_unretried_cell_fault_fails_only_that_cell() {
    let _guard = serialized();
    fault::disarm_all();
    let grid = ExperimentGrid::micro();
    let clean = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("clean run");

    fault::arm(sites::SCHED_CELL, FaultSpec::on_hit(FaultKind::Error, 1));
    let faulty = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("faulty run still reports");
    fault::disarm_all();

    let failed: Vec<usize> = faulty
        .report
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.status, CellStatus::Failed { .. }))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed.len(), 1, "exactly one cell takes the fault");
    match &faulty.report.cells[failed[0]].status {
        CellStatus::Failed { error } => assert!(error.contains(MARKER)),
        _ => unreachable!(),
    }
    for (i, (cell, clean_cell)) in faulty
        .report
        .cells
        .iter()
        .zip(&clean.report.cells)
        .enumerate()
    {
        if i != failed[0] {
            assert_eq!(cell, clean_cell, "sibling cell {i} diverged");
        }
    }
}

/// Arms one panic at `core.sched.cell`, with no retry, on a
/// `threads`-worker run of the micro grid: the cell that takes it is
/// `Failed` with the panic text, and every sibling equals the clean run.
fn assert_a_cell_panic_is_isolated(threads: usize) {
    let _guard = serialized();
    fault::disarm_all();
    let grid = ExperimentGrid::micro();
    let scheduler = ExperimentScheduler::new(Scale::Smoke, 7).threads(threads);
    let clean = scheduler.run(&grid).expect("clean run");
    assert!(clean.report.all_ok());

    fault::arm(sites::SCHED_CELL, FaultSpec::on_hit(FaultKind::Panic, 1));
    let faulty = scheduler.run(&grid).expect("faulty run still reports");
    assert_eq!(fault::fires(sites::SCHED_CELL), 1);
    fault::disarm_all();

    let failed: Vec<usize> = (0..grid.len())
        .filter(|&i| faulty.report.cells[i].status != CellStatus::Ok)
        .collect();
    assert_eq!(failed.len(), 1, "exactly one cell takes the panic");
    let hit = &faulty.report.cells[failed[0]];
    match &hit.status {
        CellStatus::Failed { error } => assert!(
            error.contains("injected panic") && error.contains(MARKER),
            "failure should carry the panic message, got: {error}"
        ),
        other => panic!("expected the panicking cell to fail, got {other:?}"),
    }
    assert!(hit.output.is_none());
    for (i, (cell, clean_cell)) in faulty
        .report
        .cells
        .iter()
        .zip(&clean.report.cells)
        .enumerate()
    {
        if i != failed[0] {
            assert_eq!(cell, clean_cell, "sibling cell {i} diverged");
        }
    }
}

#[test]
fn a_panicking_cell_does_not_poison_its_siblings() {
    assert_a_cell_panic_is_isolated(2);
}

#[test]
fn panic_isolation_holds_with_a_single_worker() {
    // The 1-worker scheduler runs nodes inline on the caller thread; the
    // catch_unwind isolation must hold there too.
    assert_a_cell_panic_is_isolated(1);
}

#[test]
fn retry_failed_regenerates_a_faulted_artifact() {
    let _guard = serialized();
    fault::disarm_all();
    // A grid with one Table I cell forces the shared transfer-set
    // artifact node into the DAG.
    let grid = ExperimentGrid::custom(vec![CellSpec {
        experiment: "table1",
        label: Table1Victim::Baseline.label(),
        kind: CellKind::Table1(Table1Victim::Baseline),
    }]);
    let clean = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("clean run");
    assert!(clean.report.all_ok());

    // Without retries the artifact failure cascades into a skip...
    fault::arm(
        sites::SCHED_ARTIFACT,
        FaultSpec::on_hit(FaultKind::Error, 1),
    );
    let faulty = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("faulty run still reports");
    match &faulty.report.cells[0].status {
        CellStatus::Skipped { reason } => assert!(reason.contains(MARKER)),
        other => panic!("expected the cell to be skipped, got {other:?}"),
    }

    // ...with one retry the artifact regenerates deterministically.
    fault::disarm_all();
    fault::arm(
        sites::SCHED_ARTIFACT,
        FaultSpec::on_hit(FaultKind::Error, 1),
    );
    let retried = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .retry_failed(1)
        .run(&grid)
        .expect("retried run");
    assert_eq!(fault::fires(sites::SCHED_ARTIFACT), 1);
    fault::disarm_all();

    assert!(retried.report.all_ok());
    assert_eq!(report_bytes(&retried), report_bytes(&clean));
}

#[test]
fn a_faulted_shared_sweep_skips_every_reader_and_retries_cleanly() {
    let _guard = serialized();
    fault::disarm_all();
    // A Table II row and its Figure 5 series read one sweep node, the
    // grid's only artifact node.
    let row = ExperimentGrid::micro().cells()[0].clone();
    let series = ExperimentGrid::named("figure5", Scale::Smoke)
        .expect("figure5 grid")
        .cells()
        .iter()
        .find(|c| c.label == row.label)
        .expect("the row's Figure 5 series")
        .clone();
    let grid = ExperimentGrid::custom(vec![row, series]);
    let clean = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("clean run");
    assert!(clean.report.all_ok());

    fault::arm(
        sites::SCHED_ARTIFACT,
        FaultSpec::on_hit(FaultKind::Error, 1),
    );
    let faulty = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(&grid)
        .expect("faulty run still reports");
    assert_eq!(fault::fires(sites::SCHED_ARTIFACT), 1);
    for cell in &faulty.report.cells {
        match &cell.status {
            CellStatus::Skipped { reason } => {
                assert!(reason.contains(MARKER), "{reason}");
                assert!(reason.contains("artifact:sweep/"), "{reason}");
            }
            other => panic!("expected {} to be skipped, got {other:?}", cell.label),
        }
    }

    fault::disarm_all();
    fault::arm(
        sites::SCHED_ARTIFACT,
        FaultSpec::on_hit(FaultKind::Error, 1),
    );
    let retried = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .retry_failed(1)
        .run(&grid)
        .expect("retried run");
    assert_eq!(fault::fires(sites::SCHED_ARTIFACT), 1);
    fault::disarm_all();
    assert!(retried.report.all_ok());
    assert_eq!(report_bytes(&retried), report_bytes(&clean));
}

/// A per-test scratch directory under the system temp dir, removed on
/// drop so chaos runs never leak warm caches into each other.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("blurnet-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create chaos temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_poisoned_cache_probe_falls_back_to_retraining() {
    let _guard = serialized();
    fault::disarm_all();
    let grid = ExperimentGrid::micro();
    let clean = scheduler().run(&grid).expect("clean run");
    assert!(clean.report.all_ok());

    // Warm the disk cache with a clean cached run first, so the poisoned
    // run below actually has entries to refuse.
    let cache = TempDir::new("cache-load");
    let warm = scheduler()
        .cache_dir(cache.path())
        .run(&grid)
        .expect("warm cached run");
    assert_eq!(
        report_bytes(&warm),
        report_bytes(&clean),
        "writing the cache must not change the report"
    );

    // `core.cache.load`: every probe reports corruption, so the scheduler
    // must take the regenerate-from-scratch path for every entry — and
    // still produce the byte-identical report, because a cache is only an
    // accelerator, never a source of truth.
    fault::arm(sites::CACHE_LOAD, FaultSpec::always(FaultKind::Error));
    let poisoned = scheduler()
        .cache_dir(cache.path())
        .run(&grid)
        .expect("poisoned-cache run completes");
    assert!(
        fault::fires(sites::CACHE_LOAD) > 0,
        "the cached run never probed the disk cache"
    );
    fault::disarm_all();

    assert!(poisoned.report.all_ok(), "no cell may fail on a bad cache");
    assert_eq!(
        report_bytes(&poisoned),
        report_bytes(&clean),
        "a poisoned cache must downgrade to retraining, not change results"
    );
}

#[test]
fn on_disk_cache_corruption_downgrades_to_regeneration() {
    let _guard = serialized();
    fault::disarm_all();
    let grid = ExperimentGrid::micro();
    let clean = scheduler().run(&grid).expect("clean run");

    let cache = TempDir::new("cache-rot");
    scheduler()
        .cache_dir(cache.path())
        .run(&grid)
        .expect("warm cached run");

    // Flip one payload byte in every cached file — checksum validation
    // must catch each one and the scheduler must regenerate instead of
    // serving rot (or panicking).
    let mut corrupted = 0;
    for entry in std::fs::read_dir(cache.path()).expect("read cache dir") {
        let path = entry.expect("dir entry").path();
        let mut bytes = std::fs::read(&path).expect("read cache file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write corrupted file");
        corrupted += 1;
    }
    assert!(corrupted > 0, "the warm run cached nothing");

    let recovered = scheduler()
        .cache_dir(cache.path())
        .run(&grid)
        .expect("run over a rotten cache completes");
    assert!(recovered.report.all_ok());
    assert_eq!(
        report_bytes(&recovered),
        report_bytes(&clean),
        "corrupt cache entries must be regenerated, not trusted"
    );
}

#[test]
fn a_failed_journal_append_retires_the_journal_but_not_the_run() {
    let _guard = serialized();
    fault::disarm_all();
    let grid = ExperimentGrid::micro();
    let clean = scheduler().run(&grid).expect("clean run");
    assert!(clean.report.all_ok());

    // `core.journal.append`: the write-ahead journal is a recovery
    // accelerator, never a gate — an append failure must retire the
    // journal (delete it, so a later resume can't trust a lying one) and
    // leave the run itself byte-identical.
    let dir = TempDir::new("journal-retire");
    let journal = dir.path().join("run.journal");
    fault::arm(
        sites::JOURNAL_APPEND,
        FaultSpec::on_hit(FaultKind::Error, 2),
    );
    let journaled = scheduler()
        .journal_path(&journal)
        .run(&grid)
        .expect("run survives the retired journal");
    assert_eq!(fault::fires(sites::JOURNAL_APPEND), 1);
    fault::disarm_all();

    assert!(journaled.report.all_ok(), "no cell may fail on journal IO");
    assert_eq!(
        report_bytes(&journaled),
        report_bytes(&clean),
        "a retired journal must not change results"
    );
    assert!(
        !journal.exists(),
        "a journal that missed an append must be deleted, not left lying"
    );
}

#[test]
fn journal_fault_hits_follow_append_order() {
    let _guard = serialized();
    fault::disarm_all();
    // The journal sites are evaluated under the journal's file lock, so
    // hit order is append order: a delay at hit 1 holds back every later
    // append. (Evaluated before the lock, a second worker's append could
    // land between hit n and an abort there, leaving n cells, not n−1.)
    let dir = TempDir::new("journal-order");
    let path = dir.path().join("run.journal");
    let header = JournalHeader {
        schema: RESULTS_SCHEMA.to_string(),
        scale: "smoke".to_string(),
        seed: 7,
        cells: 2,
    };
    let writer = JournalWriter::create(&path, &header).expect("journal created");
    let cell = |label: &str| CellReport {
        experiment: "table2".to_string(),
        label: label.to_string(),
        status: CellStatus::Ok,
        output: None,
    };
    fault::arm(
        sites::JOURNAL_APPEND,
        FaultSpec::on_hit(FaultKind::Delay(Duration::from_millis(200)), 1),
    );
    std::thread::scope(|s| {
        s.spawn(|| writer.append_cell(&cell("first")));
        while fault::hits(sites::JOURNAL_APPEND) == 0 {
            std::thread::yield_now();
        }
        writer.append_cell(&cell("second"));
    });
    fault::disarm_all();
    let labels: Vec<String> = read_journal(&path)
        .expect("journal reads back")
        .cells
        .into_iter()
        .map(|c| c.label)
        .collect();
    assert_eq!(labels, ["first", "second"]);
}

#[test]
fn every_core_fault_site_has_a_chaos_scenario() {
    // The sites this suite exercises; `crates/serve/tests/chaos.rs` owns
    // the `serve.*` half of the registry, and the process-level
    // kill-anywhere coverage for the journal sites (abort + torn-append
    // kinds) lives in `crates/bench/tests/crash_chaos.rs`.
    let covered = [
        sites::QUEUE_PUSH,
        sites::QUEUE_POP,
        sites::QUEUE_POP_TIMEOUT,
        sites::SCHED_TRAIN,
        sites::SCHED_ARTIFACT,
        sites::SCHED_CELL,
        sites::CACHE_LOAD,
        sites::JOURNAL_APPEND,
        sites::JOURNAL_TORN,
    ];
    for site in fault::all_sites() {
        if site.starts_with("core.") {
            assert!(
                covered.contains(site),
                "core fault site {site} has no chaos scenario"
            );
        }
    }
}

//! Process-level chaos: kill `reproduce` anywhere, resume, demand the
//! bytes of an uninterrupted run.
//!
//! The in-process chaos suite (`tests/chaos.rs` at the workspace root)
//! proves the scheduler survives faults that stay *inside* the process.
//! This suite proves the journal makes the process itself expendable: it
//! re-execs the real `reproduce` binary as a subprocess, arms the
//! deterministic fault layer (via `BLURNET_FAULT`) to
//! `std::process::abort()` at a registered fault site — including
//! kill-after-N-cells points and a genuine torn write flushed mid-append
//! — then runs `reproduce --resume` over the wreckage and asserts the
//! recovered `results.json` is **byte-identical** to a cold run's.
//!
//! Everything runs on the smoke-scale micro grid (4 cells, 2 variants)
//! over one shared `--cache-dir`, so only the reference run pays for
//! training; each killed/resumed run is cache-warm. Work lands under
//! `target/crash-chaos/` so CI can upload the journals on failure.

#![cfg(feature = "fault-injection")]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// The workspace `target/` directory, derived from the binary path cargo
/// hands us (`target/<profile>/reproduce`).
fn work_root() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_reproduce"));
    exe.parent()
        .and_then(Path::parent)
        .expect("binary lives under target/<profile>/")
        .join("crash-chaos")
}

/// Runs `reproduce` on the smoke micro grid with results under `dir`,
/// the shared warm cache, and optional fault arming / resume source.
fn run_reproduce(dir: &Path, fault: Option<&str>, resume: Option<&Path>) -> Output {
    std::fs::create_dir_all(dir).expect("scenario dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.arg("--grid")
        .arg("micro")
        .arg("--out")
        .arg(dir.join("results.json"))
        .arg("--cache-dir")
        .arg(work_root().join("cache"))
        .env("BLURNET_SCALE", "smoke")
        .env_remove("BLURNET_FAULT");
    if let Some(spec) = fault {
        cmd.env("BLURNET_FAULT", spec);
    }
    if let Some(prior) = resume {
        cmd.arg("--resume").arg(prior);
    }
    cmd.output().expect("spawn reproduce")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The uninterrupted cold run every scenario's recovery is compared
/// against, produced once per process (it also warms the model cache).
fn reference_bytes() -> &'static [u8] {
    static REF: OnceLock<Vec<u8>> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = work_root().join("reference");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run_reproduce(&dir, None, None);
        assert!(
            out.status.success(),
            "reference run failed:\n{}",
            stderr_of(&out)
        );
        std::fs::read(dir.join("results.json")).expect("reference results.json")
    })
}

/// Kills a run at `fault`, asserts it died without a report, resumes it,
/// and asserts byte-identity with the cold reference.
fn kill_and_resume(name: &str, fault: &str) {
    let reference = reference_bytes();
    let dir = work_root().join(name);
    let _ = std::fs::remove_dir_all(&dir);

    let killed = run_reproduce(&dir, Some(fault), None);
    assert!(
        !killed.status.success(),
        "{name}: armed {fault} but the run survived:\n{}",
        stderr_of(&killed)
    );
    assert!(
        !dir.join("results.json").exists(),
        "{name}: a killed run must not have written its report"
    );

    let resumed = run_reproduce(&dir, None, Some(&dir));
    assert!(
        resumed.status.success(),
        "{name}: resume after {fault} failed:\n{}",
        stderr_of(&resumed)
    );
    let recovered = std::fs::read(dir.join("results.json")).expect("recovered results.json");
    assert_eq!(
        recovered, reference,
        "{name}: resumed report differs from the cold run"
    );
}

#[test]
fn every_abort_site_recovers_byte_identically() {
    // One abort per registered fault site reachable in a micro-grid run:
    // before training, during the cache probe, inside a cell, and inside
    // the journal append itself.
    for (name, fault) in [
        ("abort-train", "core.sched.train:abort@1"),
        ("abort-cache-load", "core.cache.load:abort@1"),
        ("abort-cell-first", "core.sched.cell:abort@1"),
        ("abort-cell-third", "core.sched.cell:abort@3"),
    ] {
        kill_and_resume(name, fault);
    }
}

#[test]
fn every_kill_after_n_cells_point_recovers_byte_identically() {
    // `core.journal.append` abort at hit N dies after N-1 cells made it
    // into the journal — sweeping N covers every between-cells kill
    // point of the 4-cell grid.
    for hit in 1..=4u32 {
        kill_and_resume(
            &format!("kill-after-{}-cells", hit - 1),
            &format!("core.journal.append:abort@{hit}"),
        );
    }
}

#[test]
fn a_torn_append_flushed_mid_write_recovers_byte_identically() {
    // `core.journal.torn` fsyncs a *prefix* of a record and aborts — the
    // torn-tail case a power cut mid-append leaves on disk.
    kill_and_resume("torn-first-append", "core.journal.torn:error@1");
    kill_and_resume("torn-third-append", "core.journal.torn:error@3");
}

/// Runs `reproduce --resume dir` to completion and asserts it replayed
/// exactly `replayed` cells and recovered the reference bytes.
fn resume_to_reference(name: &str, dir: &Path, replayed: usize, reference: &[u8]) {
    let final_run = run_reproduce(dir, None, Some(dir));
    let stderr = stderr_of(&final_run);
    assert!(
        final_run.status.success(),
        "{name}: final resume failed:\n{stderr}"
    );
    assert!(
        stderr.contains(&format!("# resume: replayed {replayed} cells")),
        "{name}: expected {replayed} replayed cells, got:\n{stderr}"
    );
    let recovered = std::fs::read(dir.join("results.json")).expect("recovered results.json");
    assert_eq!(recovered, reference, "{name}: chained resume diverged");
}

#[test]
fn a_killed_resume_resumes_again() {
    // Crash during the original run, then crash during the *resume*, then
    // resume once more: journals must chain.
    let reference = reference_bytes();
    let dir = work_root().join("double-crash");
    let _ = std::fs::remove_dir_all(&dir);

    let first = run_reproduce(&dir, Some("core.journal.append:abort@2"), None);
    assert!(!first.status.success(), "first kill did not kill");

    // Replay re-seeds the journal without `append_cell`, so every append
    // hit of the resume is a delta cell: hit 2 dies after the first
    // delta cell, leaving the replayed cell plus one new one.
    let second = run_reproduce(&dir, Some("core.journal.append:abort@2"), Some(&dir));
    assert!(!second.status.success(), "second kill did not kill");

    resume_to_reference("double-crash", &dir, 2, reference);
}

#[test]
fn a_resume_killed_at_its_first_append_keeps_the_prior_cells() {
    // The resume rewrites the journal it resumes from: the header and the
    // replayed cells land as one atomic file, so a kill right after the
    // re-seed (at the delta's first append) still holds both prior cells.
    let reference = reference_bytes();
    let dir = work_root().join("reseed-crash");
    let _ = std::fs::remove_dir_all(&dir);

    let first = run_reproduce(&dir, Some("core.journal.append:abort@3"), None);
    assert!(!first.status.success(), "first kill did not kill");
    let second = run_reproduce(&dir, Some("core.journal.append:abort@1"), Some(&dir));
    assert!(!second.status.success(), "second kill did not kill");

    resume_to_reference("reseed-crash", &dir, 2, reference);
}

#[test]
fn a_failed_append_retires_the_journal_but_not_the_run() {
    // Error kind (not abort): the append fails, the journal self-retires,
    // and the run completes with the reference bytes regardless.
    let reference = reference_bytes();
    let dir = work_root().join("append-error");
    let _ = std::fs::remove_dir_all(&dir);

    let out = run_reproduce(&dir, Some("core.journal.append:error@2"), None);
    assert!(
        out.status.success(),
        "an append failure must not fail the run:\n{}",
        stderr_of(&out)
    );
    assert!(
        !dir.join("run.journal").exists(),
        "a journal that lost an append must retire (delete) itself"
    );
    let report = std::fs::read(dir.join("results.json")).expect("results.json");
    assert_eq!(report, reference, "journal retirement changed the report");

    // Without a journal the run is not resumable: `results.json` is never
    // read back, so `--resume` refuses with a message instead.
    let resumed = run_reproduce(&dir, None, Some(&dir));
    let stderr = stderr_of(&resumed);
    assert_eq!(resumed.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("not resumable") && !stderr.contains("panicked"),
        "expected a not-resumable refusal, got:\n{stderr}"
    );
}

#[test]
fn an_unwritable_journal_or_report_exits_1_without_a_panic() {
    // A directory squatting on the journal's (then the report's) path
    // makes it impossible to create: `reproduce` must say so and exit 1.
    reference_bytes(); // warm the shared cache first
    for blocked in ["run.journal", "results.json"] {
        let dir = work_root().join(format!("unwritable-{blocked}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(blocked)).expect("blocking dir");

        let out = run_reproduce(&dir, None, None);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(1), "{blocked}: {stderr}");
        assert!(
            stderr.contains("reproduce: ") && !stderr.contains("panicked"),
            "{blocked}: expected a clean failure, got:\n{stderr}"
        );
    }
}

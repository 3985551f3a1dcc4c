//! Argument handling of the `reproduce` binary, driven as a subprocess.

use std::process::Command;

#[test]
fn zero_threads_exits_with_the_usage_code_before_any_run() {
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--threads", "0"])
        .env("BLURNET_SCALE", "smoke")
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    // The run banner ("scheduler: N workers") is printed only once the
    // arguments are accepted.
    assert!(!stderr.contains("scheduler:"), "--threads 0 started a run");
}

#[test]
fn a_missing_out_directory_is_created_for_results_and_journal() {
    let root = std::env::temp_dir().join(format!("blurnet-cli-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = root.join("nested").join("results.json");
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--grid", "micro", "--threads", "1", "--out"])
        .arg(&out)
        .env("BLURNET_SCALE", "smoke")
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(out.is_file(), "no results.json in {}", root.display());
    assert!(
        out.with_file_name("run.journal").is_file(),
        "no run.journal beside results.json"
    );
    let _ = std::fs::remove_dir_all(&root);
}

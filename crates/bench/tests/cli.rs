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

//! Command-line contract of the `linarb` binary.

use std::process::Command;

fn linarb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_linarb"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env_remove("LINARB_THREADS")
        .output()
        .expect("linarb binary runs")
}

/// `--threads` is the portfolio race width; the CEGAR loop is
/// sequential, so the flag without `--engine` is an error rather than
/// a silently ignored option.
#[test]
fn threads_without_engine_is_rejected() {
    let out = linarb(&["--threads", "2", "examples/fig1.smt2"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "no verdict may be printed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads") && err.contains("--engine"), "{err}");

    let raced = linarb(&[
        "--engine",
        "portfolio",
        "--threads",
        "2",
        "--timeout-ms",
        "60000",
        "examples/fig1.smt2",
    ]);
    assert!(raced.status.success(), "{raced:?}");
    assert_eq!(String::from_utf8_lossy(&raced.stdout).trim(), "sat");
}

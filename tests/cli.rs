//! Command-line contract of the `linarb` binary.

use std::process::Command;

fn linarb_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_linarb"));
    cmd.args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env_remove("LINARB_THREADS")
        .env_remove("LINARB_PORTFOLIO_FORCE");
    cmd
}

fn linarb(args: &[&str]) -> std::process::Output {
    linarb_cmd(args).output().expect("linarb binary runs")
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

/// A misspelt `LINARB_PORTFOLIO_FORCE` is an error naming the variable
/// and the value, not a silent fall-back to the full race.
#[test]
fn unknown_forced_engine_is_rejected() {
    let out = linarb_cmd(&[
        "--engine",
        "portfolio",
        "--timeout-ms",
        "60000",
        "examples/fig1.smt2",
    ])
    .env("LINARB_PORTFOLIO_FORCE", "spacr")
    .output()
    .expect("linarb binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "no verdict may be printed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("LINARB_PORTFOLIO_FORCE") && err.contains("spacr"),
        "{err}"
    );
}

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

/// The oracle is chosen in code (the CLI runs the incremental oracle,
/// the daemon the stateless one), and the paper's no-decision-tree
/// ablation is an engine: neither has a flag of its own.
#[test]
fn removed_selection_flags_are_unknown_options() {
    for args in [&["--oracle", "fresh"][..], &["--no-dt"][..]] {
        let out = linarb(&[args, &["examples/fig1.smt2"]].concat());
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "no verdict may be printed: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option"), "{args:?}: {err}");
    }
    let ablation =
        linarb(&["--engine", "cegar-nodt", "--timeout-ms", "60000", "examples/fig1.smt2"]);
    assert!(ablation.status.success(), "{ablation:?}");
    assert_eq!(String::from_utf8_lossy(&ablation.stdout).trim(), "sat");
}

/// The daemon has one solve path and one near-tier setting; the
/// options that switched them are gone.
#[test]
fn removed_serve_options_are_rejected() {
    for args in [&["--engine", "spacer"][..], &["--no-near"][..], &["--no-cache"][..]] {
        let out = linarb(&[&["serve"][..], args].concat());
        assert_eq!(out.status.code(), Some(1), "serve {args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option"), "serve {args:?}: {err}");
    }
}

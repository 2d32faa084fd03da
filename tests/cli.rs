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

/// A single `--engine` runs alone, so a race width for it is an error
/// too, not an ignored flag.
#[test]
fn threads_with_single_engine_is_rejected() {
    let out = linarb(&["--engine", "cegar", "--threads", "7", "examples/fig1.smt2"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "no verdict may be printed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads") && err.contains("--engine portfolio"), "{err}");
}

/// An engine that gives up reports its own reason: only a definite
/// verdict whose certificate fails is relabelled "not certified". BMC
/// cannot prove fig1 safe, so under a deadline it answers unknown.
#[test]
fn single_engine_unknown_keeps_its_reason() {
    let out = linarb(&["--engine", "bmc", "--timeout-ms", "1000", "examples/fig1.smt2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown"), "{err}");
    assert!(!err.contains("not certified"), "{err}");
}

/// A misspelt `--engine` name is an error naming the value, not a
/// silent fall-back to the full race.
#[test]
fn unknown_forced_engine_is_rejected() {
    let out = linarb(&["--engine", "spacr", "--timeout-ms", "60000", "examples/fig1.smt2"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "no verdict may be printed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("spacr"), "{err}");
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

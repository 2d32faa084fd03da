//! Integration tests for the observability subsystem: the
//! hierarchical self-profiler, the progress reporter, and their
//! determinism contracts across repeated runs.

use linarb_smt::Budget;
use linarb_solver::{CegarSolver, ProgressReporter, ProgressSnapshot, SolveResult, SolverConfig};
use linarb_suite::fig1;
use linarb_trace::{json, ProfileScope, ProfileTree};
use std::time::Instant;

fn solve_profiled() -> (ProfileTree, u128) {
    let b = fig1();
    let scope = ProfileScope::new();
    let start = Instant::now();
    let mut solver = CegarSolver::new(&b.system, SolverConfig::default());
    let result = solver.solve(&Budget::unlimited());
    let wall_us = start.elapsed().as_micros();
    assert!(matches!(result, SolveResult::Sat(_)), "fig1 must verify");
    (scope.take_tree(), wall_us)
}

#[test]
fn profile_tree_structure_and_timing() {
    let (tree, wall_us) = solve_profiled();
    // Structural invariant at every node; slack absorbs timer rounding.
    assert_eq!(tree.check_invariant(50), None);
    // The solve must appear as the single outermost span, with the
    // oracle phase beneath it.
    let solve = tree.root.children.get("cegar.solve").expect("cegar.solve span");
    assert_eq!(solve.calls, 1);
    let oracle = solve.children.get("core.oracle").expect("core.oracle under solve");
    assert!(oracle.calls >= 1);
    assert!(oracle.excl_us() <= oracle.incl_us);
    // Root inclusive tracks measured wall: everything the solver did
    // happened inside cegar.solve. (Generous upper slack: the process
    // may be descheduled between the timer reads.)
    let root = tree.root_incl_us() as u128;
    assert!(root <= wall_us, "profile root {root}us exceeds wall {wall_us}us");
    assert!(
        root * 100 >= wall_us * 80,
        "profile root {root}us is under 80% of wall {wall_us}us"
    );
}

#[test]
fn profile_exports_parse_and_agree() {
    let (tree, _) = solve_profiled();
    // JSON export parses with the in-tree reader and nests profile
    // nodes as objects with the four fields.
    let doc = json::parse(&tree.to_json()).expect("profile JSON parses");
    let tops = match doc.get("profile") {
        Some(json::Json::Arr(items)) => items,
        other => panic!("profile key must be an array, got {other:?}"),
    };
    assert!(!tops.is_empty());
    for t in tops {
        for field in ["name", "calls", "incl_us", "excl_us", "children"] {
            assert!(t.get(field).is_some(), "missing {field}");
        }
    }
    // Collapsed lines carry the linarb prefix and an exclusive-µs
    // value each; their sum equals the tree's total exclusive time.
    let collapsed = tree.to_collapsed();
    let mut sum = 0u64;
    for line in collapsed.lines() {
        let (path, val) = line.rsplit_once(' ').expect("path value");
        assert!(path.starts_with("linarb;"), "bad stack path {path}");
        sum += val.parse::<u64>().expect("exclusive micros");
    }
    fn excl_total(node: &linarb_trace::ProfileNode) -> u64 {
        node.excl_us() + node.children.values().map(excl_total).sum::<u64>()
    }
    let tree_sum: u64 = tree.root.children.values().map(excl_total).sum();
    assert_eq!(sum, tree_sum, "collapsed lines disagree with the tree");
}

#[test]
fn profile_deterministic_across_runs() {
    let (t1, _) = solve_profiled();
    let (t2, _) = solve_profiled();
    assert_eq!(
        t1.deterministic_key(),
        t2.deterministic_key(),
        "profile shape/calls diverged between runs"
    );
}

/// Progress trajectories (everything except wall-clock-dependent
/// fields) must be identical from run to run.
#[test]
fn progress_deterministic_across_runs() {
    let run = || -> Vec<String> {
        let b = fig1();
        let reporter = ProgressReporter::collector();
        let config = SolverConfig::default().with_progress(reporter.clone());
        let mut solver = CegarSolver::new(&b.system, config);
        assert!(matches!(solver.solve(&Budget::unlimited()), SolveResult::Sat(_)));
        reporter
            .take_lines()
            .iter()
            .map(|line| {
                let doc = json::parse(line).expect("progress line parses");
                let json::Json::Obj(m) = doc else { panic!("snapshot must be an object") };
                m.iter()
                    .filter(|(k, _)| !ProgressSnapshot::TIMING_FIELDS.contains(&k.as_str()))
                    .map(|(k, v)| format!("{k}={v:?}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    };
    let base = run();
    assert!(!base.is_empty(), "fig1 must emit progress rounds");
    assert_eq!(base, run(), "progress trajectory diverged between runs");
}

/// With no scope installed, spans must not record anything — the
/// disabled path stays an atomic load.
#[test]
fn no_scope_means_no_tree() {
    let b = fig1();
    let mut solver = CegarSolver::new(&b.system, SolverConfig::default());
    assert!(matches!(solver.solve(&Budget::unlimited()), SolveResult::Sat(_)));
    // Installing a scope *after* the solve sees an empty tree.
    let scope = ProfileScope::new();
    assert_eq!(scope.take_tree().root_incl_us(), 0);
}

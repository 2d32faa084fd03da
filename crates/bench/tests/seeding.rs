//! Differential tests for symbolic seeding.
//!
//! Seeding changes *which* candidate atoms the learner considers, so a
//! seeded run may legitimately converge to a syntactically different
//! interpretation than an unseeded one. What must never change is the
//! verdict — and both interpretations must independently verify
//! against every clause of the system.

use linarb_logic::{ChcSystem, Interpretation};
use linarb_smt::{check_sat, Budget, SmtResult};
use linarb_solver::{CegarSolver, OracleMode, SolveResult, SolverConfig};
use linarb_suite::Benchmark;
use std::time::Duration;

fn budget() -> Budget {
    Budget::timeout(Duration::from_secs(120))
}

/// Fast-converging instances covering sat and unsat outcomes, loops,
/// recursion, and multi-predicate systems.
fn suite() -> Vec<Benchmark> {
    vec![
        linarb_suite::fig1(),
        linarb_suite::program_c_fibo(),
        linarb_suite::fibo_unsafe(),
        linarb_suite::even_odd(),
        linarb_suite::half_counter(),
        linarb_suite::cggmp2005(),
        linarb_suite::jm2006(),
    ]
}

/// Every clause must be valid under `interp`: the SMT check of the
/// clause's negation is unsat.
fn assert_verifies(name: &str, label: &str, sys: &ChcSystem, interp: &Interpretation) {
    for clause in sys.clauses() {
        let vc = sys.validity_check(clause, interp);
        match check_sat(&vc, &budget()) {
            SmtResult::Unsat => {}
            other => panic!(
                "{name} [{label}]: clause {} not valid under the returned \
                 interpretation (oracle said {})",
                clause.id.0,
                other.label()
            ),
        }
    }
}

fn solve(bench: &Benchmark, seeding: bool) -> (SolveResult, u64, usize) {
    let config = SolverConfig::default()
        .with_oracle(OracleMode::Incremental)
        .with_seeding(seeding);
    let mut solver = CegarSolver::new(&bench.system, config);
    let result = solver.solve(&budget());
    let stats = solver.stats();
    (result, stats.seed_hits, stats.seeded_atoms)
}

/// Seeded and unseeded runs must agree on the verdict, and each sat
/// interpretation must verify on its own — seeding is an accelerant,
/// never a soundness lever.
#[test]
fn seeded_and_unseeded_agree_and_both_verify() {
    for bench in suite() {
        let (seeded, _, seeded_atoms) = solve(&bench, true);
        let (unseeded, unseeded_hits, unseeded_atoms) = solve(&bench, false);
        assert_eq!(
            unseeded_atoms, 0,
            "{}: with_seeding(false) still harvested seed planes",
            bench.name
        );
        assert_eq!(
            unseeded_hits, 0,
            "{}: with_seeding(false) still used seed planes",
            bench.name
        );
        match (&seeded, &unseeded) {
            (SolveResult::Sat(si), SolveResult::Sat(ui)) => {
                assert_verifies(&bench.name, "seeded", &bench.system, si);
                assert_verifies(&bench.name, "unseeded", &bench.system, ui);
            }
            (SolveResult::Unsat(_), SolveResult::Unsat(_)) => {}
            (a, b) => panic!(
                "{}: seeding changed the verdict ({} vs {})",
                bench.name,
                verdict(a),
                verdict(b)
            ),
        }
        // Clause-level harvesting finds at least one guard or goal
        // atom on every benchmark in this suite — an all-zero count
        // would mean the harvest silently broke.
        assert!(
            seeded_atoms > 0,
            "{}: seeded run harvested no planes at all",
            bench.name
        );
    }
}

fn verdict(r: &SolveResult) -> &'static str {
    match r {
        SolveResult::Sat(_) => "sat",
        SolveResult::Unsat(_) => "unsat",
        SolveResult::Unknown(_) => "unknown",
    }
}

//! Ground-truth gate for symbolic seeding.
//!
//! Seeding is always on: it changes *which* candidate atoms the
//! learner considers, never what counts as an answer. So every seeded
//! verdict must equal the suite's ground truth, every sat
//! interpretation must verify clause by clause, every unsat derivation
//! must replay, and the clause-level harvest must find at least one
//! plane on every problem.

use linarb_logic::{ChcSystem, Interpretation};
use linarb_smt::{check_sat, Budget, SmtResult};
use linarb_solver::{CegarSolver, SolveResult, SolverConfig};
use linarb_suite::{Benchmark, Expected};
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
fn assert_verifies(name: &str, sys: &ChcSystem, interp: &Interpretation) {
    for clause in sys.clauses() {
        let vc = sys.validity_check(clause, interp);
        match check_sat(&vc, &budget()) {
            SmtResult::Unsat => {}
            other => panic!(
                "{name}: clause {} not valid under the returned \
                 interpretation (oracle said {})",
                clause.id.0,
                other.label()
            ),
        }
    }
}

/// Each seeded verdict matches ground truth with a checked
/// certificate, and the harvest found planes to seed with.
#[test]
fn seeded_verdicts_match_ground_truth() {
    for bench in suite() {
        let mut solver = CegarSolver::new(&bench.system, SolverConfig::default());
        let result = solver.solve(&budget());
        match (&result, bench.expected) {
            (SolveResult::Sat(interp), Expected::Safe) => {
                assert_verifies(&bench.name, &bench.system, interp)
            }
            (SolveResult::Unsat(tree), Expected::Unsafe) => assert!(
                tree.replay(&bench.system),
                "{}: unsat derivation does not replay",
                bench.name
            ),
            (r, expected) => panic!("{}: expected {expected:?}, got {r:?}", bench.name),
        }
        // Clause-level harvesting finds at least one guard or goal
        // atom on every benchmark in this suite — an all-zero count
        // would mean the harvest silently broke.
        assert!(
            solver.stats().seeded_atoms > 0,
            "{}: harvested no planes at all",
            bench.name
        );
    }
}

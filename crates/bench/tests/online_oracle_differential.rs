//! Differential test for the online DPLL(T) engine.
//!
//! The reference is exhaustive enumeration, which shares no code with
//! the solver (no encoder, SAT core or simplex): every random formula
//! is conjoined with a box `-BOUND <= x_i <= BOUND`, so it is sat
//! exactly when some integer point of the box satisfies it, and both
//! verdicts — sat *and* unsat — are checked against a scan of every
//! point. Every sat model must also satisfy its formula. Which model a
//! sat formula gets and which irreducible core an unsat conjunction
//! gets depend on the simplex basis trajectory, which warm-starting
//! intentionally changes, so certificates are validated semantically
//! rather than compared (see DESIGN.md §11).

use linarb_arith::int;
use linarb_logic::{Atom, Formula, LinExpr, Model, Var};
use linarb_smt::{
    check_conjunction, check_sat, Budget, ConjunctionResult, IncrementalSolver, SmtResult,
    TheoryLia, TheoryVerdict,
};
use linarb_solver::{verify_interpretation, CegarSolver, OracleMode, SolveResult, SolverConfig};
use linarb_suite::Expected;

fn v(i: u32) -> Var {
    Var::from_index(i)
}

/// Deterministic xorshift PRNG: the differential suite must be
/// reproducible run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coeff(&mut self) -> i64 {
        (self.below(9) as i64) - 4
    }
}

/// A small random linear expression over three variables.
fn rand_expr(rng: &mut Rng) -> LinExpr {
    let mut e = LinExpr::constant(int(rng.coeff()));
    for i in 0..3 {
        e = &e + &LinExpr::var(v(i)).scale(&int(rng.coeff()));
    }
    e
}

fn rand_atom(rng: &mut Rng) -> Formula {
    let (a, b) = (rand_expr(rng), rand_expr(rng));
    match rng.below(4) {
        0 => Formula::from(Atom::ge(a, b)),
        1 => Formula::from(Atom::le(a, b)),
        2 => Formula::from(Atom::lt(a, b)),
        _ => Atom::eq_expr(a, b),
    }
}

/// A random boolean combination with bounded depth over x0..x2.
/// And-biased so the population carries a healthy unsat share.
fn rand_formula(rng: &mut Rng, depth: u32) -> Formula {
    if depth == 0 || rng.below(4) == 0 {
        return rand_atom(rng);
    }
    let arity = 2 + rng.below(3) as usize;
    let kids: Vec<Formula> = (0..arity).map(|_| rand_formula(rng, depth - 1)).collect();
    match rng.below(4) {
        0 | 1 => Formula::and(kids),
        2 => Formula::or(kids),
        _ => Formula::not(rand_formula(rng, depth - 1)),
    }
}

fn b() -> Budget {
    Budget::unlimited()
}

/// Half-width of the enumeration box: 11^3 = 1331 points over x0..x2.
const BOUND: i64 = 5;

/// `-BOUND <= x_i <= BOUND` for each of x0..x2.
fn in_box() -> Formula {
    Formula::and(
        (0..3)
            .flat_map(|i| {
                let x = LinExpr::var(v(i));
                [
                    Formula::from(Atom::ge(x.clone(), LinExpr::constant(int(-BOUND)))),
                    Formula::from(Atom::le(x, LinExpr::constant(int(BOUND)))),
                ]
            })
            .collect(),
    )
}

/// The reference decision procedure: does some integer point of the
/// box over x0..x2 satisfy `f`? `complete` assigns any further
/// variable that `f` defines as a function of the three.
fn box_has_model(f: &Formula, complete: impl Fn(&mut Model, [i64; 3])) -> bool {
    let range = -BOUND..=BOUND;
    range.clone().any(|a| {
        range.clone().any(|b| {
            range.clone().any(|c| {
                let mut m = Model::new();
                for (i, x) in [a, b, c].into_iter().enumerate() {
                    m.assign(v(i as u32), int(x));
                }
                complete(&mut m, [a, b, c]);
                f.eval(&m)
            })
        })
    })
}

/// `check_sat` decides a randomized population of boxed formulas
/// exactly as enumeration does, and every sat model satisfies its
/// formula.
#[test]
fn check_sat_matches_box_enumeration() {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    let (mut sat, mut unsat) = (0u32, 0u32);
    for case in 0..200 {
        let f = Formula::and(vec![rand_formula(&mut rng, 2), in_box()]);
        let reference = box_has_model(&f, |_, _| {});
        match check_sat(&f, &b()) {
            SmtResult::Sat(m) if reference => {
                sat += 1;
                assert!(f.eval(&m), "case {case}: model must satisfy {f:?}");
            }
            SmtResult::Unsat if !reference => unsat += 1,
            other => {
                panic!("case {case}: enumeration says sat={reference}, solver {other:?} on {f:?}")
            }
        }
    }
    // The population must exercise both verdicts to mean anything.
    assert!(sat >= 15, "only {sat} sat cases");
    assert!(unsat >= 15, "only {unsat} unsat cases");
}

/// One long-lived incremental context, fed a clause skeleton and then
/// one guarded boxed candidate per round as the CEGAR loop would,
/// decides every round exactly as enumeration does.
#[test]
fn incremental_checks_match_box_enumeration() {
    let mut rng = Rng(0xd1b54a32d192ed03);
    let mut ctx = IncrementalSolver::new();
    // Shared skeleton x3 = x0 + 1, as the CEGAR loop would assert a
    // clause; enumeration assigns x3 from it.
    let skeleton = Atom::eq_expr(
        LinExpr::var(v(3)),
        &LinExpr::var(v(0)) + &LinExpr::constant(int(1)),
    );
    ctx.assert_permanent(&skeleton);

    let (mut sat, mut unsat) = (0u32, 0u32);
    for round in 0..80 {
        let cand = Formula::and(vec![rand_formula(&mut rng, 2), in_box()]);
        let g = ctx.push_guarded(&cand);
        let whole = Formula::and(vec![skeleton.clone(), cand.clone()]);
        let reference = box_has_model(&whole, |m, [x0, _, _]| {
            m.assign(v(3), int(x0 + 1));
        });
        match ctx.check(&[g], &b()) {
            SmtResult::Sat(m) if reference => {
                sat += 1;
                assert!(
                    whole.eval(&m),
                    "round {round}: model must satisfy {whole:?}"
                );
            }
            SmtResult::Unsat if !reference => unsat += 1,
            other => {
                panic!(
                    "round {round}: enumeration says sat={reference}, solver {other:?} on {cand:?}"
                )
            }
        }
    }
    assert!(sat >= 15, "only {sat} sat rounds");
    assert!(unsat >= 15, "only {unsat} unsat rounds");
    assert!(
        ctx.num_theory_backtracks() > 0,
        "the context never exercised the theory trail"
    );
}

/// The pooled `check_conjunction` is observationally equivalent to a
/// fresh per-call theory: identical verdicts, and every certificate
/// independently valid. Cores need not be bit-identical — the pool's
/// warm basis can steer simplex to a *different* irreducible conflict
/// — so each pooled core is validated by re-asserting exactly its
/// atoms into a throwaway theory and requiring infeasibility.
#[test]
fn pooled_conjunction_matches_fresh_theory() {
    let mut rng = Rng(0x2545f4914f6cdd1d);
    for case in 0..150 {
        let n = 2 + rng.below(5) as usize;
        let atoms: Vec<Atom> = (0..n)
            .map(|_| {
                let (a, b) = (rand_expr(&mut rng), rand_expr(&mut rng));
                match rng.below(3) {
                    0 => Atom::ge(a, b),
                    1 => Atom::lt(a, b),
                    _ => Atom::le(a, b),
                }
            })
            .collect();
        let pooled = check_conjunction(&atoms, &b());

        // Reference: a throwaway theory context, as the pre-pool code
        // constructed per call.
        let mut fresh = TheoryLia::new();
        let fresh_result = (|| {
            for (tag, a) in atoms.iter().enumerate() {
                if let Err(c) = fresh.assert_atom(a, tag) {
                    return ConjunctionResult::Unsat {
                        core: c.core(),
                        farkas: Some(c),
                    };
                }
            }
            match fresh.check(&b()) {
                TheoryVerdict::Feasible(m) => ConjunctionResult::Sat(m),
                TheoryVerdict::Unknown => ConjunctionResult::Unknown,
                TheoryVerdict::Infeasible { core, farkas } => {
                    ConjunctionResult::Unsat { core, farkas }
                }
            }
        })();

        match (&pooled, &fresh_result) {
            (ConjunctionResult::Sat(mp), ConjunctionResult::Sat(mf)) => {
                let all = Formula::and(atoms.iter().cloned().map(Formula::from).collect());
                assert!(all.eval(mp), "case {case}: pooled model must satisfy");
                assert!(all.eval(mf), "case {case}: fresh model must satisfy");
            }
            (
                ConjunctionResult::Unsat {
                    core: cp,
                    farkas: fp,
                },
                ConjunctionResult::Unsat {
                    core: cf,
                    farkas: _,
                },
            ) => {
                for core in [cp, cf] {
                    assert!(
                        core.iter().all(|&t| t < atoms.len()),
                        "case {case}: core tag out of range"
                    );
                }
                if fp.is_some() && !cp.is_empty() {
                    // The pooled core must be infeasible on its own.
                    let core_atoms: Vec<Atom> = cp.iter().map(|&t| atoms[t].clone()).collect();
                    let mut check = TheoryLia::new();
                    let mut early = false;
                    for (tag, a) in core_atoms.iter().enumerate() {
                        if check.assert_atom(a, tag).is_err() {
                            early = true;
                            break;
                        }
                    }
                    assert!(
                        early || !matches!(check.check(&b()), TheoryVerdict::Feasible(_)),
                        "case {case}: pooled core {cp:?} is not infeasible"
                    );
                }
            }
            (ConjunctionResult::Unknown, ConjunctionResult::Unknown) => {}
            other => panic!("case {case}: pooled vs fresh diverge: {other:?}"),
        }
    }
}

/// Suite-level gate: the online incremental oracle solves the
/// converging benchmarks to certified answers (interpretations
/// validate, derivations replay), and two runs of the same system
/// agree on the interpretation and the trajectory statistics — clause-DB
/// reduction and theory warm-starts keep the solve deterministic.
#[test]
fn online_oracle_suite_deterministic_and_certified() {
    let suite = [
        linarb_suite::fig1(),
        linarb_suite::program_c_fibo(),
        linarb_suite::fibo_unsafe(),
        linarb_suite::even_odd(),
        linarb_suite::cggmp2005(),
    ];
    for bench in suite {
        let run = || {
            let mut s = CegarSolver::new(
                &bench.system,
                SolverConfig::default().with_oracle(OracleMode::Incremental),
            );
            let r = s.solve(&Budget::unlimited());
            (r, s.stats().clone())
        };
        let (r1, s1) = run();
        let (r2, s2) = run();
        match (&r1, &r2) {
            (SolveResult::Sat(i1), SolveResult::Sat(i2)) => {
                assert_eq!(bench.expected, Expected::Safe, "{}", bench.name);
                assert_eq!(
                    i1, i2,
                    "{}: interpretations diverge between runs",
                    bench.name
                );
                assert_eq!(
                    verify_interpretation(&bench.system, i1, &Budget::unlimited()),
                    Some(true),
                    "{}: interpretation must validate",
                    bench.name
                );
            }
            (SolveResult::Unsat(t1), SolveResult::Unsat(_)) => {
                assert_eq!(bench.expected, Expected::Unsafe, "{}", bench.name);
                assert!(t1.replay(&bench.system), "{}: cex must replay", bench.name);
            }
            other => panic!("{}: runs disagree: {other:?}", bench.name),
        }
        assert_eq!(s1.iterations, s2.iterations, "{}", bench.name);
        assert_eq!(s1.smt_checks, s2.smt_checks, "{}", bench.name);
        assert_eq!(s1.samples, s2.samples, "{}", bench.name);
        assert_eq!(s1.learn_calls, s2.learn_calls, "{}", bench.name);
    }
}

//! A lazy DPLL(T) SMT solver for quantifier-free linear integer
//! arithmetic (QF_LIA).
//!
//! This crate plays the role Z3 plays in the paper: it provides the
//! three oracle operations Algorithm 3 relies on —
//!
//! * `Z3Check`  → [`is_valid`] / [`check_sat`]
//! * `Z3Model`  → [`SmtResult::Sat`] carries a [`Model`]
//! * `Z3Eval`   → [`linarb_logic::LinExpr::eval`] under that model
//!
//! plus conjunction-level checks with **Farkas certificates**
//! ([`check_conjunction`]) that the baseline solvers use for unsat
//! cores and interpolation.
//!
//! Architecture: online DPLL(T). Formulas are Tseitin-encoded into the
//! CDCL solver from `linarb-sat`, which consults an exact rational
//! simplex with branch-and-bound for integrality ([`TheoryLia`])
//! whenever every decision variable is assigned *inside* its search;
//! theory conflicts are learned as clauses on the spot and the search
//! backjumps, with the theory's tableau kept warm across assignments.
//!
//! # Examples
//!
//! ```
//! use linarb_arith::int;
//! use linarb_logic::{Atom, Formula, LinExpr, Var};
//! use linarb_smt::{check_sat, Budget, SmtResult};
//!
//! let x = Var::from_index(0);
//! // (x <= 0 \/ x >= 10) /\ x >= 5
//! let f = Formula::and(vec![
//!     Formula::or(vec![
//!         Formula::from(Atom::le(LinExpr::var(x), LinExpr::constant(int(0)))),
//!         Formula::from(Atom::ge(LinExpr::var(x), LinExpr::constant(int(10)))),
//!     ]),
//!     Formula::from(Atom::ge(LinExpr::var(x), LinExpr::constant(int(5)))),
//! ]);
//! match check_sat(&f, &Budget::unlimited()) {
//!     SmtResult::Sat(m) => assert!(m.value(x) >= int(10)),
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

mod budget;
mod incremental;
mod online;
pub mod simplex;
mod theory;
mod tseitin;

pub use budget::{Budget, CancelToken};
pub use incremental::IncrementalSolver;
pub use linarb_sat::Lit;
pub use simplex::{BoundKind, Conflict, FarkasEntry};
pub use theory::{TheoryLia, TheoryVerdict};
pub use tseitin::Encoder;

use linarb_logic::{Atom, Formula, Model};

/// Result of a satisfiability check.
#[derive(Debug)]
pub enum SmtResult {
    /// Satisfiable, with an integer model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted before an answer was found.
    Unknown,
}

impl SmtResult {
    /// Returns the model if the result is `Sat`.
    pub fn model(self) -> Option<Model> {
        match self {
            SmtResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Returns `true` for [`SmtResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }

    /// Returns `true` for [`SmtResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }

    /// Stable lower-case label (used in trace events).
    pub fn label(&self) -> &'static str {
        match self {
            SmtResult::Sat(_) => "sat",
            SmtResult::Unsat => "unsat",
            SmtResult::Unknown => "unknown",
        }
    }
}

/// Result of a conjunction check ([`check_conjunction`]).
#[derive(Debug)]
pub enum ConjunctionResult {
    /// Satisfiable, with an integer model.
    Sat(Model),
    /// Unsatisfiable. `core` indexes into the input atoms; `farkas`
    /// carries multipliers when infeasibility is rational. An empty
    /// core means "the whole conjunction" (integer-only
    /// infeasibility).
    Unsat {
        /// Indices of a contradictory subset of the input atoms.
        core: Vec<usize>,
        /// Rational Farkas certificate when available.
        farkas: Option<Conflict>,
    },
    /// Budget exhausted.
    Unknown,
}

/// Eliminates [`Formula::Mod`] atoms by introducing fresh
/// quotient/remainder variables with defining constraints. Sound for
/// satisfiability: the definitions are total, so every model of the
/// original extends to the lowered formula and vice versa (projected).
fn lower_mods(f: &Formula) -> Formula {
    let mut next = f.vars().iter().map(|v| v.index() + 1).max().unwrap_or(0);
    lower_mods_from(f, &mut next)
}

/// [`lower_mods`] with a caller-owned fresh-variable supply, so an
/// incremental context lowering formulas one at a time never reuses an
/// index (`next` only moves forward).
fn lower_mods_from(f: &Formula, next: &mut u32) -> Formula {
    let groups = f.mod_atoms();
    if groups.is_empty() {
        return f.clone();
    }
    use linarb_arith::BigInt;
    use linarb_logic::{Atom, LinExpr, Var};
    use std::collections::HashMap;

    // One (quotient, remainder) pair per distinct (expr, modulus).
    let mut defs: Vec<Formula> = Vec::new();
    let mut rems: HashMap<(LinExpr, BigInt), Var> = HashMap::new();
    for a in &groups {
        let key = (a.expr().clone(), a.modulus().clone());
        if rems.contains_key(&key) {
            continue;
        }
        let q = Var::from_index(*next);
        let r = Var::from_index(*next + 1);
        *next += 2;
        let (qe, re) = (LinExpr::var(q), LinExpr::var(r));
        defs.push(Atom::eq_expr(a.expr().clone(), &qe.scale(a.modulus()) + &re));
        defs.push(Formula::from(Atom::ge(re.clone(), LinExpr::zero())));
        defs.push(Formula::from(Atom::lt(
            re,
            LinExpr::constant(a.modulus().clone()),
        )));
        rems.insert(key, r);
    }
    // Replace each Mod atom by (r = residue).
    fn replace(f: &Formula, rems: &HashMap<(LinExpr, BigInt), Var>) -> Formula {
        match f {
            Formula::Mod(a) => {
                let r = rems[&(a.expr().clone(), a.modulus().clone())];
                Atom::eq_expr(LinExpr::var(r), LinExpr::constant(a.residue().clone()))
            }
            Formula::And(fs) => Formula::and(fs.iter().map(|g| replace(g, rems)).collect()),
            Formula::Or(fs) => Formula::or(fs.iter().map(|g| replace(g, rems)).collect()),
            Formula::Not(g) => Formula::not(replace(g, rems)),
            other => other.clone(),
        }
    }
    let core = replace(f, &rems);
    defs.push(core);
    Formula::and(defs)
}

/// Decides satisfiability of a QF_LIA formula (with optional
/// divisibility atoms), producing an integer model when satisfiable.
pub fn check_sat(f: &Formula, budget: &Budget) -> SmtResult {
    use linarb_trace::Level;
    let mut span = linarb_trace::span(Level::Debug, "smt", "smt.check_sat");
    let mut rounds = 0u64;
    let result = check_sat_inner(f, budget, &mut rounds);
    if span.active() {
        span.record("rounds", rounds);
        span.record("result", result.label());
    }
    result
}

fn check_sat_inner(f: &Formula, budget: &Budget, rounds: &mut u64) -> SmtResult {
    use linarb_trace::{event, metrics, Level};
    let f = lower_mods(f).simplify();
    match f {
        Formula::True => return SmtResult::Sat(Model::new()),
        Formula::False => return SmtResult::Unsat,
        _ => {}
    }
    let mut enc = Encoder::new();
    let root = enc.encode(&f);
    enc.sat.add_clause(&[root]);
    event!(Level::Trace, "smt", "tseitin.encoded",
        "atoms" => enc.num_atoms(),
        "subformulas" => enc.num_subformulas(),
        "clauses" => enc.sat.num_clauses());
    metrics::counter("smt.tseitin_clauses", enc.sat.num_clauses() as u64);
    let atoms: Vec<(Atom, linarb_sat::BVar)> = enc.atoms().map(|(a, v)| (a.clone(), v)).collect();
    online::search(
        &mut enc.sat,
        &mut TheoryLia::new(),
        &atoms,
        &[],
        budget,
        rounds,
    )
}

/// Checks validity: `f` holds under every integer assignment.
///
/// Returns `Some(true)` / `Some(false)` (with the countermodel
/// available via [`find_countermodel`]) or `None` on budget
/// exhaustion.
pub fn is_valid(f: &Formula, budget: &Budget) -> Option<bool> {
    match check_sat(&Formula::not(f.clone()), budget) {
        SmtResult::Sat(_) => Some(false),
        SmtResult::Unsat => Some(true),
        SmtResult::Unknown => None,
    }
}

/// Finds a countermodel of `f` (a model of `¬f`), if any.
pub fn find_countermodel(f: &Formula, budget: &Budget) -> SmtResult {
    check_sat(&Formula::not(f.clone()), budget)
}

/// Decides satisfiability of a conjunction of atoms directly on the
/// theory solver (no SAT search), returning Farkas certificates on
/// unsatisfiability. This is the workhorse of the PDR and
/// interpolation baselines.
pub fn check_conjunction(atoms: &[Atom], budget: &Budget) -> ConjunctionResult {
    // Slack rows interned inside popped frames persist (they are
    // semantically inert without bounds), so a long-lived pool accretes
    // columns; rebuild once it crosses this cap.
    const POOL_MAX_SLACKS: usize = 4096;
    thread_local! {
        static CONJUNCTION_POOL: std::cell::RefCell<TheoryLia> =
            std::cell::RefCell::new(TheoryLia::new());
    }
    CONJUNCTION_POOL.with(|pool| {
        let mut theory = pool.borrow_mut();
        if theory.num_slacks() > POOL_MAX_SLACKS {
            *theory = TheoryLia::new();
        }
        let mark = theory.set_backtrack_point();
        for (tag, a) in atoms.iter().enumerate() {
            if let Err(c) = theory.assert_atom(a, tag) {
                theory.backtrack_to(mark);
                return ConjunctionResult::Unsat { core: c.core(), farkas: Some(c) };
            }
        }
        let result = match theory.check(budget) {
            TheoryVerdict::Feasible(m) => ConjunctionResult::Sat(m),
            TheoryVerdict::Unknown => ConjunctionResult::Unknown,
            TheoryVerdict::Infeasible { core, farkas } => ConjunctionResult::Unsat { core, farkas },
        };
        theory.backtrack_to(mark);
        result
    })
}

/// Checks whether the conjunction of `premises` entails `conclusion`
/// (`premises ∧ ¬conclusion` unsat). `None` on budget exhaustion.
pub fn entails(premises: &Formula, conclusion: &Formula, budget: &Budget) -> Option<bool> {
    let f = Formula::and(vec![premises.clone(), Formula::not(conclusion.clone())]);
    match check_sat(&f, budget) {
        SmtResult::Sat(_) => Some(false),
        SmtResult::Unsat => Some(true),
        SmtResult::Unknown => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;
    use linarb_logic::{LinExpr, Var};

    fn v(i: u32) -> Var {
        Var::from_index(i)
    }

    fn x() -> LinExpr {
        LinExpr::var(v(0))
    }

    fn y() -> LinExpr {
        LinExpr::var(v(1))
    }

    fn c(k: i64) -> LinExpr {
        LinExpr::constant(int(k))
    }

    fn b() -> Budget {
        Budget::unlimited()
    }

    #[test]
    fn sat_model_satisfies_formula() {
        let f = Formula::and(vec![
            Formula::or(vec![
                Formula::from(Atom::le(x(), c(-5))),
                Formula::from(Atom::ge(&x() + &y(), c(7))),
            ]),
            Formula::from(Atom::ge(x(), c(0))),
            Formula::from(Atom::le(y(), c(3))),
        ]);
        match check_sat(&f, &b()) {
            SmtResult::Sat(m) => assert!(f.eval(&m), "model {m:?} must satisfy formula"),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_conjunction_through_boolean_structure() {
        // (x <= 0 \/ x >= 10) /\ x >= 3 /\ x <= 7
        let f = Formula::and(vec![
            Formula::or(vec![
                Formula::from(Atom::le(x(), c(0))),
                Formula::from(Atom::ge(x(), c(10))),
            ]),
            Formula::from(Atom::ge(x(), c(3))),
            Formula::from(Atom::le(x(), c(7))),
        ]);
        assert!(check_sat(&f, &b()).is_unsat());
    }

    #[test]
    fn validity_of_tautology() {
        // x <= 3 \/ x >= 2 is valid over integers
        let f = Formula::or(vec![
            Formula::from(Atom::le(x(), c(3))),
            Formula::from(Atom::ge(x(), c(2))),
        ]);
        assert_eq!(is_valid(&f, &b()), Some(true));
        // x <= 3 alone is not valid
        assert_eq!(is_valid(&Formula::from(Atom::le(x(), c(3))), &b()), Some(false));
    }

    #[test]
    fn countermodel_falsifies() {
        let f = Formula::from(Atom::ge(&x() + &y(), c(1)));
        match find_countermodel(&f, &b()) {
            SmtResult::Sat(m) => assert!(!f.eval(&m)),
            other => panic!("expected countermodel, got {other:?}"),
        }
    }

    #[test]
    fn entailment() {
        let p = Formula::and(vec![
            Formula::from(Atom::ge(x(), c(2))),
            Formula::from(Atom::ge(y(), c(3))),
        ]);
        let q = Formula::from(Atom::ge(&x() + &y(), c(5)));
        assert_eq!(entails(&p, &q, &b()), Some(true));
        assert_eq!(entails(&q, &p, &b()), Some(false));
    }

    #[test]
    fn conjunction_api_core() {
        let atoms = vec![
            Atom::le(&x() + &y(), c(1)),
            Atom::ge(x(), c(1)),
            Atom::ge(y(), c(1)),
            Atom::le(x(), c(100)), // irrelevant
        ];
        match check_conjunction(&atoms, &b()) {
            ConjunctionResult::Unsat { core, farkas } => {
                assert_eq!(core, vec![0, 1, 2], "irrelevant atom must not be in core");
                assert!(farkas.is_some());
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn equalities_and_disequalities() {
        // x = 2y /\ x != 4 /\ 2 <= x <= 6  => x = 2? no: x in {2,6}? x=2y so x even: x in {2,4,6} minus 4 -> {2,6}
        let f = Formula::and(vec![
            Atom::eq_expr(x(), y().scale(&int(2))),
            Formula::or(vec![
                Formula::from(Atom::lt(x(), c(4))),
                Formula::from(Atom::gt(x(), c(4))),
            ]),
            Formula::from(Atom::ge(x(), c(2))),
            Formula::from(Atom::le(x(), c(6))),
        ]);
        match check_sat(&f, &b()) {
            SmtResult::Sat(m) => {
                let mx = m.value(v(0));
                assert!(mx == int(2) || mx == int(6), "got {mx}");
                assert!(f.eval(&m));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn deep_boolean_structure() {
        // nested implications: ((x>=1 -> y>=1) /\ (y>=1 -> x+y>=3)) /\ x>=2
        let f = Formula::and(vec![
            Formula::implies(
                Formula::from(Atom::ge(x(), c(1))),
                Formula::from(Atom::ge(y(), c(1))),
            ),
            Formula::implies(
                Formula::from(Atom::ge(y(), c(1))),
                Formula::from(Atom::ge(&x() + &y(), c(3))),
            ),
            Formula::from(Atom::ge(x(), c(2))),
        ]);
        match check_sat(&f, &b()) {
            SmtResult::Sat(m) => assert!(f.eval(&m)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn budget_timeout_returns_unknown_or_answer_quickly() {
        use std::time::Duration;
        let f = Formula::from(Atom::le(x(), c(3)));
        // Zero budget: allowed to answer Unknown; must not hang.
        let r = check_sat(&f, &Budget::timeout(Duration::from_millis(0)));
        assert!(matches!(r, SmtResult::Unknown | SmtResult::Sat(_)));
    }

    #[test]
    fn fig1_check_formula_roundtrip() {
        // body /\ not head of the paper's query with p := x>=1 /\ y>=0:
        // p(x,y) /\ x'=x+y /\ y'=y+1 /\ not(x' >= y')
        let xp = LinExpr::var(v(2));
        let yp = LinExpr::var(v(3));
        let f = Formula::and(vec![
            Formula::from(Atom::ge(x(), c(1))),
            Formula::from(Atom::ge(y(), c(0))),
            Atom::eq_expr(xp.clone(), &x() + &y()),
            Atom::eq_expr(yp.clone(), &y() + &c(1)),
            Formula::not(Formula::from(Atom::ge(xp.clone(), yp.clone()))),
        ]);
        // The invariant is NOT inductive-strong enough? Check: x>=1, y>=0,
        // x'=x+y>=1, y'=y+1>=1; need x'>=y' i.e. x+y >= y+1 i.e. x>=1. Holds!
        assert!(check_sat(&f, &b()).is_unsat());
    }
}

#[cfg(test)]
mod mod_tests {
    use super::*;
    use linarb_arith::int;
    use linarb_logic::{Atom, LinExpr, ModAtom, Var};

    fn x() -> LinExpr {
        LinExpr::var(Var::from_index(0))
    }

    #[test]
    fn mod_atom_sat_with_valid_model() {
        // x even /\ x >= 3  => x in {4, 6, ...}
        let f = Formula::and(vec![
            Formula::from(ModAtom::new(x(), int(2), int(0))),
            Formula::from(Atom::ge(x(), LinExpr::constant(int(3)))),
        ]);
        match check_sat(&f, &Budget::unlimited()) {
            SmtResult::Sat(m) => {
                assert!(f.eval(&m), "model must satisfy original formula");
                assert!(m.value(Var::from_index(0)).is_even());
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn negated_mod_atom() {
        // not(x ≡ 0 mod 2) /\ 0 <= x <= 2  => x = 1
        let f = Formula::and(vec![
            Formula::not(Formula::from(ModAtom::new(x(), int(2), int(0)))),
            Formula::from(Atom::ge(x(), LinExpr::zero())),
            Formula::from(Atom::le(x(), LinExpr::constant(int(2)))),
        ]);
        match check_sat(&f, &Budget::unlimited()) {
            SmtResult::Sat(m) => assert_eq!(m.value(Var::from_index(0)), int(1)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_congruences_unsat() {
        // x ≡ 0 (mod 2) /\ x ≡ 1 (mod 2)
        let f = Formula::and(vec![
            Formula::from(ModAtom::new(x(), int(2), int(0))),
            Formula::from(ModAtom::new(x(), int(2), int(1))),
        ]);
        assert!(check_sat(&f, &Budget::unlimited()).is_unsat());
    }

    #[test]
    fn mod_of_compound_expression() {
        // (x + y) ≡ 2 (mod 3) /\ x = 1 /\ y >= 0 /\ y <= 2 => y = 1
        let y = LinExpr::var(Var::from_index(1));
        let f = Formula::and(vec![
            Formula::from(ModAtom::new(&x() + &y, int(3), int(2))),
            Atom::eq_expr(x(), LinExpr::constant(int(1))),
            Formula::from(Atom::ge(y.clone(), LinExpr::zero())),
            Formula::from(Atom::le(y, LinExpr::constant(int(2)))),
        ]);
        match check_sat(&f, &Budget::unlimited()) {
            SmtResult::Sat(m) => {
                assert!(f.eval(&m));
                assert_eq!(m.value(Var::from_index(1)), int(1));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }
}

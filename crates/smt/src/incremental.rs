//! An incremental DPLL(T) context: persistent CDCL state, activation
//! literals, and assumption-based checking.
//!
//! [`check_sat`](crate::check_sat) rebuilds the Tseitin encoding, the
//! SAT solver, and the theory state on every call, discarding
//! everything the previous call learned. [`IncrementalSolver`] keeps
//! one context alive across calls instead:
//!
//! * **Permanent assertions** ([`assert_permanent`]) encode the parts
//!   of a query that never change — for the CEGAR loop, a clause's
//!   constraint and body/head skeleton.
//! * **Guarded assertions** ([`push_guarded`]) encode retractable
//!   parts — candidate predicate interpretations. Each one is guarded
//!   by a fresh *activation literal* `g` via the clause `¬g ∨ root(f)`:
//!   passing `g` to [`check`] enables the formula, omitting it retracts
//!   it with zero solver work (the clause is vacuously satisfiable).
//! * **Checks under assumptions** ([`check`]) run the online DPLL(T)
//!   search with the active guards as assumption literals, so learned
//!   clauses, VSIDS activity, saved phases, watcher state, and the
//!   warm simplex tableau all carry over to the next check.
//!
//! Learned clauses are consequences of the *clause set* only — never
//! of the assumptions — so lemmas derived while one interpretation was
//! active remain sound after it is retracted. Theory conflicts are
//! fed back as permanent blocking clauses for the same reason: a
//! theory-infeasible combination of atom polarities stays infeasible
//! no matter which guarded formulas are active. The one exception is
//! an *abandoned* assignment (the theory solver answered Unknown):
//! its blocking clause is only a search pragma, not a fact, so it is
//! guarded by a per-check **call literal** and expires when the check
//! returns — otherwise a later check could report an Unsat that
//! silently depended on an unproven abandonment.
//!
//! [`assert_permanent`]: IncrementalSolver::assert_permanent
//! [`push_guarded`]: IncrementalSolver::push_guarded
//! [`check`]: IncrementalSolver::check

use crate::budget::Budget;
use crate::theory::TheoryLia;
use crate::tseitin::Encoder;
use crate::{lower_mods_from, online, SmtResult};
use linarb_logic::{Atom, Formula};
use linarb_sat::{BVar, Lit};
use std::collections::{HashMap, HashSet};

/// First fresh variable index for lowered `Mod` atoms. High enough to
/// stay clear of any program variable the caller will ever mention;
/// fresh variables only appear in internal constraints and models,
/// where unknown indices are ignored by callers.
const FRESH_VAR_BASE: u32 = 1 << 28;

/// A persistent DPLL(T) solving context. See the [module
/// documentation](self) for the lifecycle.
#[derive(Clone, Debug)]
pub struct IncrementalSolver {
    enc: Encoder,
    /// Long-lived theory context: each candidate assignment is
    /// asserted under a backtrack mark and popped again, so the simplex
    /// tableau (rows, interned slacks, current basis) stays warm across
    /// assignments *and* across checks.
    theory: TheoryLia,
    /// Monotone supply of fresh `Var` indices for mod-lowering: shared
    /// across all asserts so two formulas never collide.
    next_fresh: u32,
    /// Atom variables mentioned by permanent assertions.
    permanent_atoms: HashSet<BVar>,
    /// Atom variables mentioned by each guarded assertion. A check only
    /// hands the theory solver atoms *relevant* to it — permanent plus
    /// active-guard atoms — because the SAT core assigns arbitrary
    /// polarities to atoms that occur solely in retracted formulas, and
    /// feeding those to the theory both wastes branch-and-bound effort
    /// and (worse) grows blocking clauses over irrelevant literals.
    guard_atoms: HashMap<Lit, Vec<BVar>>,
    checks: u64,
}

impl Default for IncrementalSolver {
    fn default() -> IncrementalSolver {
        IncrementalSolver::new()
    }
}

impl IncrementalSolver {
    /// Creates an empty context.
    pub fn new() -> IncrementalSolver {
        IncrementalSolver {
            enc: Encoder::new(),
            theory: TheoryLia::new(),
            next_fresh: FRESH_VAR_BASE,
            permanent_atoms: HashSet::new(),
            guard_atoms: HashMap::new(),
            checks: 0,
        }
    }

    fn prepare(&mut self, f: &Formula) -> Formula {
        lower_mods_from(f, &mut self.next_fresh).simplify()
    }

    /// Atom variables of a prepared (mod-free) formula, interning as
    /// needed. Walks the structure rather than hooking `encode`, which
    /// short-circuits on hash-consed subformulas.
    fn atom_vars_of(&mut self, f: &Formula, out: &mut Vec<BVar>) {
        match f {
            Formula::Atom(a) => out.push(self.enc.atom_lit(a).var()),
            Formula::Not(g) => self.atom_vars_of(g, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for g in fs {
                    self.atom_vars_of(g, out);
                }
            }
            Formula::True | Formula::False => {}
            Formula::Mod(_) => unreachable!("prepared formulas are mod-free"),
        }
    }

    /// Asserts `f` unconditionally: it holds in every subsequent
    /// [`check`](Self::check), forever.
    pub fn assert_permanent(&mut self, f: &Formula) {
        use linarb_trace::{event, Level};
        let f = self.prepare(f);
        let mut atoms = Vec::new();
        self.atom_vars_of(&f, &mut atoms);
        self.permanent_atoms.extend(atoms);
        let clauses0 = self.enc.sat.num_clauses();
        let vars0 = self.enc.sat.num_vars();
        let root = self.enc.encode(&f);
        self.enc.sat.add_clause(&[root]);
        event!(Level::Trace, "smt", "inc.assert_permanent",
            "new_clauses" => self.enc.sat.num_clauses() - clauses0,
            "new_vars" => self.enc.sat.num_vars() - vars0);
    }

    /// Asserts `f` under a fresh activation literal and returns it.
    /// `f` is only in force during checks whose assumptions include
    /// the returned literal; retracting it is simply never passing the
    /// literal again (no solver work, no state lost).
    pub fn push_guarded(&mut self, f: &Formula) -> Lit {
        use linarb_trace::{event, Level};
        let f = self.prepare(f);
        let mut atoms = Vec::new();
        self.atom_vars_of(&f, &mut atoms);
        let clauses0 = self.enc.sat.num_clauses();
        let vars0 = self.enc.sat.num_vars();
        let act = self.enc.sat.new_var().positive();
        let root = self.enc.encode(&f);
        self.enc.sat.add_clause(&[act.negated(), root]);
        self.guard_atoms.insert(act, atoms);
        event!(Level::Trace, "smt", "inc.push_guarded",
            "new_clauses" => self.enc.sat.num_clauses() - clauses0,
            "new_vars" => self.enc.sat.num_vars() - vars0);
        act
    }

    /// Decides satisfiability of the permanent assertions plus every
    /// guarded formula whose activation literal appears in `active`.
    pub fn check(&mut self, active: &[Lit], budget: &Budget) -> SmtResult {
        use linarb_trace::{metrics, Level};
        let mut span = linarb_trace::span(Level::Debug, "smt", "smt.inc_check");
        let learned0 = self.enc.sat.num_learned();
        let pivots0 = self.num_simplex_pivots();
        let mut rounds = 0u64;
        let result = self.check_inner(active, budget, &mut rounds);
        // Per-check distributions: theory effort (simplex pivots) and
        // DPLL(T) round count for this one check.
        metrics::histogram("smt.check_pivots", self.num_simplex_pivots() - pivots0);
        metrics::histogram("smt.check_rounds", rounds);
        metrics::counter("smt.inc_checks", 1);
        if span.active() {
            span.record("active", active.len());
            span.record("rounds", rounds);
            span.record("learned", self.enc.sat.num_learned() - learned0);
            span.record("result", result.label());
        }
        result
    }

    fn check_inner(&mut self, active: &[Lit], budget: &Budget, rounds: &mut u64) -> SmtResult {
        self.checks += 1;
        // Atoms this check's formulas actually mention; atoms occurring
        // only in retracted guarded formulas are invisible to the
        // theory (their SAT polarities are unconstrained noise).
        // Selected once per check — the search rounds only read their
        // values.
        let mut relevant: HashSet<BVar> = self.permanent_atoms.clone();
        for g in active {
            if let Some(atoms) = self.guard_atoms.get(g) {
                relevant.extend(atoms.iter().copied());
            }
        }
        let relevant_atoms: Vec<(Atom, BVar)> = self
            .enc
            .atoms()
            .filter(|(_, v)| relevant.contains(v))
            .map(|(a, v)| (a.clone(), v))
            .collect();
        // Slack rows interned inside popped frames persist (bound-free
        // slacks are semantically inert), so a context kept across
        // CEGAR iterations accretes one row per candidate atom it has
        // ever seen, and every simplex check pays for the whole
        // tableau (branch-and-bound clones it per node). Keep the warm
        // tableau while it stays commensurate with what *this* check
        // can use; once it has clearly outgrown the live atom set, a
        // fresh small tableau beats a warm bloated one. The factor was
        // tuned on an 11-benchmark suite: tighter caps forfeit real
        // warm-start wins, an uncapped context times out the biggest
        // instances. Keyed on solver state only — never wall time — to
        // preserve cross-thread determinism.
        let slack_cap = 8 * relevant_atoms.len() + 512;
        if self.theory.num_slacks() > slack_cap {
            let (bt, bn, pv) = (
                self.theory.num_backtracks(),
                self.theory.num_branch_nodes(),
                self.theory.num_pivots(),
            );
            self.theory = TheoryLia::new();
            self.theory.restore_stats(bt, bn, pv);
        }
        online::search(
            &mut self.enc.sat,
            &mut self.theory,
            &relevant_atoms,
            active,
            budget,
            rounds,
        )
    }

    /// Total clauses the persistent CDCL core has learned over the
    /// context's lifetime.
    pub fn learned_clauses(&self) -> u64 {
        self.enc.sat.num_learned()
    }

    /// Number of [`check`](Self::check) calls served by this context.
    pub fn num_checks(&self) -> u64 {
        self.checks
    }

    /// Number of distinct theory atoms interned by the encoder.
    pub fn num_atoms(&self) -> usize {
        self.enc.num_atoms()
    }

    /// Cumulative simplex pivots performed by this context's warm
    /// theory (statistics).
    pub fn num_simplex_pivots(&self) -> u64 {
        self.theory.num_pivots()
    }

    /// Cumulative theory-level backtracks (frame pops) on the warm
    /// theory context (statistics).
    pub fn num_theory_backtracks(&self) -> u64 {
        self.theory.num_backtracks()
    }

    /// Clause-database reductions performed by the CDCL core.
    pub fn num_db_reductions(&self) -> u64 {
        self.enc.sat.num_db_reductions()
    }

    /// Learned clauses currently alive in the CDCL clause database
    /// (after reductions; [`learned_clauses`](Self::learned_clauses)
    /// is the lifetime total).
    pub fn learned_db_size(&self) -> usize {
        self.enc.sat.learned_db_size()
    }
}

/// Convenience: a validity check through an incremental context —
/// `Sat(countermodel)` means invalid. The negated formula goes in as a
/// one-shot guarded assertion.
pub fn find_countermodel_incremental(
    ctx: &mut IncrementalSolver,
    f: &Formula,
    budget: &Budget,
) -> SmtResult {
    let guard = ctx.push_guarded(&Formula::not(f.clone()));
    ctx.check(&[guard], budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;
    use linarb_logic::{Atom, LinExpr, Var};

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
    fn permanent_assertions_accumulate() {
        let mut s = IncrementalSolver::new();
        s.assert_permanent(&Formula::from(Atom::ge(x(), c(0))));
        assert!(s.check(&[], &b()).is_sat());
        s.assert_permanent(&Formula::from(Atom::le(x(), c(5))));
        match s.check(&[], &b()) {
            SmtResult::Sat(m) => {
                assert!(m.value(v(0)) >= int(0) && m.value(v(0)) <= int(5));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        s.assert_permanent(&Formula::from(Atom::ge(x(), c(6))));
        assert!(s.check(&[], &b()).is_unsat());
    }

    #[test]
    fn guarded_formulas_toggle_without_rebuild() {
        let mut s = IncrementalSolver::new();
        s.assert_permanent(&Formula::from(Atom::ge(x(), c(3))));
        let g_low = s.push_guarded(&Formula::from(Atom::le(x(), c(1))));
        let g_high = s.push_guarded(&Formula::from(Atom::le(x(), c(10))));
        // active contradiction
        assert!(s.check(&[g_low], &b()).is_unsat());
        // retract it: sat again, with the other guard or none
        assert!(s.check(&[g_high], &b()).is_sat());
        assert!(s.check(&[], &b()).is_sat());
        // both: still the contradiction
        assert!(s.check(&[g_low, g_high], &b()).is_unsat());
        // and the solver is still alive afterwards
        assert!(s.check(&[g_high], &b()).is_sat());
    }

    #[test]
    fn agrees_with_fresh_check_sat_across_interpretation_swaps() {
        // A clause skeleton x' = x + 1, checked against a sequence of
        // candidate "interpretations" — mirroring the CEGAR loop.
        let xp = LinExpr::var(v(2));
        let skeleton = Atom::eq_expr(xp.clone(), &x() + &c(1));
        let mut s = IncrementalSolver::new();
        s.assert_permanent(&skeleton);
        let candidates = [
            // body: x >= 0, negated head: ¬(x' >= 1) — valid, unsat
            Formula::and(vec![
                Formula::from(Atom::ge(x(), c(0))),
                Formula::not(Formula::from(Atom::ge(xp.clone(), c(1)))),
            ]),
            // body: x >= -5, negated head: ¬(x' >= 1) — invalid, sat
            Formula::and(vec![
                Formula::from(Atom::ge(x(), c(-5))),
                Formula::not(Formula::from(Atom::ge(xp.clone(), c(1)))),
            ]),
            // body: x >= 0 ∧ y >= x, ¬(x' + y >= 1) — unsat
            Formula::and(vec![
                Formula::from(Atom::ge(x(), c(0))),
                Formula::from(Atom::ge(y(), x())),
                Formula::not(Formula::from(Atom::ge(&xp + &y(), c(1)))),
            ]),
        ];
        for (i, cand) in candidates.iter().enumerate() {
            let g = s.push_guarded(cand);
            let inc = s.check(&[g], &b());
            let whole = Formula::and(vec![Formula::from(skeleton.clone()), cand.clone()]);
            let fresh = crate::check_sat(&whole, &b());
            assert_eq!(
                inc.is_sat(),
                fresh.is_sat(),
                "candidate {i}: incremental {inc:?} vs fresh {fresh:?}"
            );
            assert_eq!(inc.is_unsat(), fresh.is_unsat(), "candidate {i}");
            if let SmtResult::Sat(m) = inc {
                assert!(whole.eval(&m), "candidate {i}: model must satisfy");
            }
        }
        assert!(s.num_checks() >= 3);
    }

    #[test]
    fn state_persists_across_checks() {
        // A boolean-heavy instance: re-checking after learning must
        // not restart from scratch (learned count is monotone and the
        // atom table never shrinks).
        let mut s = IncrementalSolver::new();
        let atoms: Vec<Formula> = (0..6)
            .map(|i| Formula::from(Atom::ge(LinExpr::var(v(i)), c(i as i64))))
            .collect();
        s.assert_permanent(&Formula::or(atoms.clone()));
        let g1 = s.push_guarded(&Formula::not(atoms[0].clone()));
        let g2 = s.push_guarded(&Formula::not(atoms[1].clone()));
        assert!(s.check(&[g1], &b()).is_sat());
        let atoms_after_first = s.num_atoms();
        assert!(s.check(&[g1, g2], &b()).is_sat());
        assert!(s.check(&[g2], &b()).is_sat());
        assert_eq!(s.num_atoms(), atoms_after_first, "atom table is stable");
    }

    #[test]
    fn mod_lowering_uses_disjoint_fresh_vars() {
        use linarb_logic::ModAtom;
        let mut s = IncrementalSolver::new();
        // x even
        s.assert_permanent(&Formula::from(ModAtom::new(x(), int(2), int(0))));
        // y ≡ 1 (mod 2), asserted separately: fresh vars must not clash
        s.assert_permanent(&Formula::from(ModAtom::new(y(), int(2), int(1))));
        s.assert_permanent(&Formula::from(Atom::ge(x(), c(1))));
        s.assert_permanent(&Formula::from(Atom::ge(y(), c(2))));
        match s.check(&[], &b()) {
            SmtResult::Sat(m) => {
                assert!(m.value(v(0)).is_even());
                assert!(!m.value(v(1)).is_even());
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn incremental_solver_is_send() {
        // Portfolio and serve workers run whole solves (contexts
        // included) on pool threads; the solver must be Send.
        fn assert_send<T: Send>() {}
        assert_send::<IncrementalSolver>();
    }

    #[test]
    fn countermodel_convenience() {
        let mut s = IncrementalSolver::new();
        s.assert_permanent(&Formula::from(Atom::ge(x(), c(0))));
        // x >= 0 does not entail x >= 5
        let r = find_countermodel_incremental(
            &mut s,
            &Formula::from(Atom::ge(x(), c(5))),
            &b(),
        );
        match r {
            SmtResult::Sat(m) => {
                assert!(m.value(v(0)) >= int(0) && m.value(v(0)) < int(5));
            }
            other => panic!("expected countermodel, got {other:?}"),
        }
    }
}

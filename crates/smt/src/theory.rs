//! Linear integer arithmetic theory solver: exact simplex plus
//! branch-and-bound for integrality.

use crate::budget::Budget;
use crate::simplex::{Conflict, Simplex, Tag};
use linarb_arith::{BigInt, BigRational};
use linarb_logic::{Atom, Model, Var};
use std::collections::HashMap;

/// Internal tag used by branch-and-bound bounds (never reported in
/// cores).
const INTERNAL_TAG: Tag = usize::MAX;

/// Verdict of a theory consistency check.
#[derive(Debug)]
pub enum TheoryVerdict {
    /// An integer model of the asserted atoms.
    Feasible(Model),
    /// The asserted atoms are jointly unsatisfiable; the core lists
    /// the tags of a contradictory subset, and `farkas` carries the
    /// rational certificate when one exists (`None` when
    /// infeasibility was established by branch-and-bound only).
    Infeasible {
        /// Tags of a contradictory subset of asserted atoms.
        core: Vec<Tag>,
        /// Rational Farkas certificate, if infeasibility is already
        /// rational.
        farkas: Option<Conflict>,
    },
    /// The budget or branching limit was exhausted.
    Unknown,
}

/// Incremental assertion context for conjunctions of linear atoms.
///
/// Each asserted [`Atom`] `e ≤ 0` is split into its homogeneous part
/// (turned into a shared simplex slack column) and its constant
/// (turned into a bound). Tags identify atoms in conflicts.
///
/// ```
/// use linarb_arith::int;
/// use linarb_logic::{Atom, LinExpr, Var};
/// use linarb_smt::{Budget, TheoryLia, TheoryVerdict};
///
/// let x = Var::from_index(0);
/// let mut t = TheoryLia::new();
/// t.assert_atom(&Atom::ge(LinExpr::var(x), LinExpr::constant(int(3))), 0).unwrap();
/// t.assert_atom(&Atom::le(LinExpr::var(x), LinExpr::constant(int(5))), 1).unwrap();
/// match t.check(&Budget::unlimited()) {
///     TheoryVerdict::Feasible(m) => {
///         let v = m.value(x);
///         assert!(v >= int(3) && v <= int(5));
///     }
///     other => panic!("expected feasible, got {other:?}"),
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct TheoryLia {
    simplex: Simplex,
    cols: HashMap<Var, usize>,
    /// Canonical homogeneous expression (as sorted (var, coeff) pairs,
    /// leading coefficient positive) -> slack column.
    slacks: HashMap<Vec<(Var, BigInt)>, usize>,
    /// All asserted atoms with caller tags (used by the rounding
    /// heuristic and the Diophantine equality check).
    asserted: Vec<(Atom, Tag)>,
    max_pivots: u64,
    max_branch_nodes: u64,
    /// Cumulative branch-and-bound nodes explored (statistics).
    branch_nodes: u64,
    /// Cumulative [`backtrack_to`](Self::backtrack_to) calls
    /// (statistics).
    backtracks: u64,
}

/// A snapshot of a [`TheoryLia`] assertion frame, returned by
/// [`TheoryLia::set_backtrack_point`] and consumed by
/// [`TheoryLia::backtrack_to`]. Marks must be popped in LIFO order.
#[derive(Clone, Copy, Debug)]
pub struct TheoryMark {
    simplex: usize,
    asserted: usize,
}

impl TheoryLia {
    /// Creates an empty context.
    pub fn new() -> TheoryLia {
        TheoryLia {
            simplex: Simplex::new(),
            cols: HashMap::new(),
            slacks: HashMap::new(),
            asserted: Vec::new(),
            max_pivots: 200_000,
            max_branch_nodes: 512,
            branch_nodes: 0,
            backtracks: 0,
        }
    }

    /// Takes a backtrack point covering everything asserted so far.
    ///
    /// Columns and slack rows interned below the mark survive a
    /// [`backtrack_to`](Self::backtrack_to) — only bounds (and the
    /// asserted-atom list) are retracted, which is what makes the next
    /// check a warm start on the existing tableau.
    pub fn set_backtrack_point(&mut self) -> TheoryMark {
        TheoryMark {
            simplex: self.simplex.set_backtrack_point(),
            asserted: self.asserted.len(),
        }
    }

    /// Retracts every assertion made since `mark` (LIFO). Interned
    /// columns, slack rows, and the current simplex basis are kept;
    /// see [`set_backtrack_point`](Self::set_backtrack_point).
    pub fn backtrack_to(&mut self, mark: TheoryMark) {
        self.simplex.backtrack_to(mark.simplex);
        self.asserted.truncate(mark.asserted);
        self.backtracks += 1;
    }

    /// Cumulative theory-level backtracks on this context (statistics).
    pub fn num_backtracks(&self) -> u64 {
        self.backtracks
    }

    /// Re-seeds the monotone statistics counters after a pool owner
    /// rebuilds an accreted context, so lifetime totals survive the
    /// rebuild.
    pub(crate) fn restore_stats(&mut self, backtracks: u64, branch_nodes: u64, pivots: u64) {
        self.backtracks = backtracks;
        self.branch_nodes = branch_nodes;
        self.simplex.restore_pivots(pivots);
    }

    /// Number of interned slack rows. Owners of a pooled context use
    /// this to decide when an accreting context is worth rebuilding
    /// from scratch.
    pub fn num_slacks(&self) -> usize {
        self.slacks.len()
    }

    /// Cumulative branch-and-bound nodes explored by
    /// [`check`](Self::check) calls on this context (statistics).
    pub fn num_branch_nodes(&self) -> u64 {
        self.branch_nodes
    }

    /// Total simplex pivots performed on the base tableau (statistics).
    pub fn num_pivots(&self) -> u64 {
        self.simplex.num_pivots()
    }

    /// Overrides the branch-and-bound node limit (default 512).
    pub fn set_branch_limit(&mut self, nodes: u64) {
        self.max_branch_nodes = nodes;
    }

    fn col_of(&mut self, v: Var) -> usize {
        if let Some(&c) = self.cols.get(&v) {
            return c;
        }
        let c = self.simplex.new_col();
        self.cols.insert(v, c);
        c
    }

    /// Asserts the atom `e ≤ 0` under `tag`.
    ///
    /// # Errors
    ///
    /// Returns the conflicting tags if the atom immediately
    /// contradicts previously asserted atoms' bounds.
    pub fn assert_atom(&mut self, atom: &Atom, tag: Tag) -> Result<(), Conflict> {
        self.asserted.push((atom.clone(), tag));
        if atom.is_truth() {
            return Ok(());
        }
        if atom.is_falsity() {
            // e ≤ 0 with e = positive constant: contradiction by itself.
            return Err(Conflict {
                entries: vec![crate::simplex::FarkasEntry {
                    multiplier: BigRational::one(),
                    tag,
                    kind: crate::simplex::BoundKind::Upper,
                }],
            });
        }
        let e = atom.expr();
        // Homogeneous part + canonical sign.
        let mut homo: Vec<(Var, BigInt)> = e.terms().map(|(v, c)| (v, c.clone())).collect();
        let flipped = homo
            .first()
            .map(|(_, c)| c.is_negative())
            .unwrap_or(false);
        if flipped {
            for (_, c) in &mut homo {
                *c = -&*c;
            }
        }
        let slack = match self.slacks.get(&homo) {
            Some(&s) => s,
            None => {
                let combo: Vec<(usize, BigRational)> = homo
                    .iter()
                    .map(|(v, c)| (self.col_of(*v), BigRational::from(c)))
                    .collect();
                let s = self.simplex.new_slack(&combo);
                self.slacks.insert(homo.clone(), s);
                s
            }
        };
        // e ≤ 0  ⟺  homo_orig ≤ -konst.
        let bound = BigRational::from(-e.constant_term());
        if flipped {
            // -canonical ≤ -konst  ⟺  canonical ≥ konst
            self.simplex.assert_lower(slack, -bound, tag)
        } else {
            self.simplex.assert_upper(slack, bound, tag)
        }
    }

    /// Decides integer feasibility of everything asserted so far.
    pub fn check(&mut self, budget: &Budget) -> TheoryVerdict {
        use linarb_trace::{metrics, Level};
        let mut span = linarb_trace::span(Level::Trace, "smt", "smt.theory_check");
        if !span.active() {
            return self.check_inner(budget);
        }
        let pivots0 = self.simplex.num_pivots();
        let nodes0 = self.branch_nodes;
        let verdict = self.check_inner(budget);
        metrics::counter("smt.simplex_pivots", self.simplex.num_pivots() - pivots0);
        metrics::counter("smt.branch_nodes", self.branch_nodes - nodes0);
        span.record("pivots", self.simplex.num_pivots() - pivots0);
        span.record("branch_nodes", self.branch_nodes - nodes0);
        span.record("verdict", match &verdict {
            TheoryVerdict::Feasible(_) => "feasible",
            TheoryVerdict::Infeasible { .. } => "infeasible",
            TheoryVerdict::Unknown => "unknown",
        });
        verdict
    }

    fn check_inner(&mut self, budget: &Budget) -> TheoryVerdict {
        use linarb_trace::{event, metrics, Level};
        // Diophantine reasoning over the asserted equalities: catches
        // integer-infeasible systems that are rationally feasible
        // (e.g. parity conflicts `2q = x ∧ 2q' = x − 1`), on which
        // branch-and-bound would diverge over unbounded variables.
        if let Some(core) = self.diophantine_conflict() {
            return TheoryVerdict::Infeasible { core, farkas: None };
        }
        // Rational feasibility: a rational conflict is a real core.
        if let Err(conflict) = self.simplex.check(self.max_pivots) {
            if conflict.entries.is_empty() {
                return TheoryVerdict::Unknown;
            }
            return TheoryVerdict::Infeasible { core: conflict.core(), farkas: Some(conflict) };
        }
        // Variables of the *currently asserted* atoms, in first-
        // assertion order. A warm context retains columns interned by
        // since-popped frames; those variables are unconstrained here
        // (their atoms are gone) and their beta values are stale —
        // backtracking restores bounds, not the assignment — so
        // branching on their fractional leftovers would be pure waste,
        // and unbounded waste at that: nothing forces them integral.
        // On a fresh context this order equals interning order.
        let mut active: Vec<(Var, usize)> = Vec::new();
        let mut seen: std::collections::HashSet<Var> = std::collections::HashSet::new();
        for (a, _) in &self.asserted {
            for (v, _) in a.expr().terms() {
                if seen.insert(v) {
                    if let Some(&col) = self.cols.get(&v) {
                        active.push((v, col));
                    }
                }
            }
        }
        // Branch and bound on fractional structural variables. The
        // frontier is explored breadth-first: on unbounded polyhedra a
        // depth-first "floor" chain can recede forever while the other
        // side holds an integer point one level up.
        let mut queue: std::collections::VecDeque<Simplex> =
            std::collections::VecDeque::from([self.simplex.clone()]);
        let mut nodes = 0u64;
        while let Some(state) = queue.pop_front() {
            nodes += 1;
            self.branch_nodes += 1;
            if nodes > self.max_branch_nodes || budget.exhausted() {
                event!(Level::Debug, "smt", "theory.budget_exhausted", "nodes" => nodes);
                metrics::counter("smt.theory_unknown", 1);
                return TheoryVerdict::Unknown;
            }
            // state is rationally feasible; find a fractional variable.
            let mut fractional: Option<(usize, BigRational)> = None;
            for &(_, col) in &active {
                let val = state.value(col);
                if !val.is_integer() {
                    fractional = Some((col, val));
                    break;
                }
            }
            match fractional {
                None => {
                    // Integer vertex found.
                    let mut m = Model::new();
                    for &(v, col) in &active {
                        let val = state.value(col);
                        debug_assert!(val.is_integer());
                        m.assign(v, val.floor());
                    }
                    return TheoryVerdict::Feasible(m);
                }
                Some((col, val)) => {
                    // Cheap repair: rounding the rational point often
                    // yields an integer model of the asserted atoms.
                    if let Some(m) = self.rounded_model(&state, &active) {
                        return TheoryVerdict::Feasible(m);
                    }
                    let fl = val.floor();
                    // lo branch: col <= floor
                    let mut lo = state.clone();
                    if lo
                        .assert_upper(col, BigRational::from(fl.clone()), INTERNAL_TAG)
                        .is_ok()
                        && lo.check(self.max_pivots).is_ok()
                    {
                        queue.push_back(lo);
                    }
                    // hi branch: col >= floor + 1
                    let mut hi = state;
                    if hi
                        .assert_lower(
                            col,
                            BigRational::from(&fl + &BigInt::one()),
                            INTERNAL_TAG,
                        )
                        .is_ok()
                        && hi.check(self.max_pivots).is_ok()
                    {
                        queue.push_back(hi);
                    }
                }
            }
        }
        // Rationally feasible but no integer point: report with a full
        // core (no rational certificate exists).
        TheoryVerdict::Infeasible { core: Vec::new(), farkas: None }
    }

    /// Integer (Diophantine) reasoning over the asserted *equalities*:
    /// repeatedly substitutes variables with unit coefficients, then
    /// applies the gcd test (`Σaᵢxᵢ = c` with `g = gcd(aᵢ)` requires
    /// `g | c`). Sound but incomplete; returns the union of the tags
    /// of the equalities combined into a violated equation.
    fn diophantine_conflict(&self) -> Option<Vec<Tag>> {
        use linarb_logic::LinExpr;
        // Pair up `e ≤ 0` with `-e ≤ 0` to recover equalities `e = 0`.
        let mut by_expr: HashMap<&LinExpr, Tag> = HashMap::new();
        for (a, tag) in &self.asserted {
            by_expr.entry(a.expr()).or_insert(*tag);
        }
        let mut equations: Vec<(LinExpr, Vec<Tag>)> = Vec::new();
        let mut seen: std::collections::HashSet<LinExpr> = std::collections::HashSet::new();
        for (a, tag) in &self.asserted {
            let e = a.expr();
            let neg = -e;
            if let Some(&other_tag) = by_expr.get(&neg) {
                // canonical orientation: leading coefficient positive
                let leading_neg = e
                    .terms()
                    .next()
                    .map(|(_, c)| c.is_negative())
                    .unwrap_or(false);
                let canon = if leading_neg { neg.clone() } else { e.clone() };
                if seen.insert(canon.clone()) {
                    equations.push((canon, vec![*tag, other_tag]));
                }
            }
        }
        if equations.is_empty() {
            return None;
        }
        // Eliminate unit-coefficient variables.
        for _round in 0..64 {
            // gcd violation?
            for (e, tags) in &equations {
                let g = e.coeff_gcd();
                if !g.is_zero()
                    && !g.is_one()
                    && !e.constant_term().mod_floor(&g).is_zero()
                {
                    let mut core = tags.clone();
                    core.sort_unstable();
                    core.dedup();
                    return Some(core);
                }
                if e.is_constant() && !e.constant_term().is_zero() {
                    let mut core = tags.clone();
                    core.sort_unstable();
                    core.dedup();
                    return Some(core);
                }
            }
            // pick an equation with a ±1 coefficient to substitute
            let mut pick: Option<(usize, Var)> = None;
            'outer: for (i, (e, _)) in equations.iter().enumerate() {
                for (v, c) in e.terms() {
                    if c.is_one() || *c == BigInt::minus_one() {
                        pick = Some((i, v));
                        break 'outer;
                    }
                }
            }
            let (idx, var) = pick?;
            let (e, tags) = equations.swap_remove(idx);
            let coeff = e.coeff(var);
            // e = coeff·var + rest = 0  =>  var = -rest/coeff
            let mut rest = e.clone();
            rest.add_term(var, &-&coeff);
            let solution = if coeff.is_one() { -&rest } else { rest };
            let map: HashMap<Var, LinExpr> = [(var, solution)].into_iter().collect();
            let mut changed = false;
            for (other, other_tags) in &mut equations {
                if !other.coeff(var).is_zero() {
                    *other = other.subst(&map);
                    other_tags.extend(tags.iter().copied());
                    changed = true;
                }
            }
            if !changed && equations.is_empty() {
                return None;
            }
        }
        None
    }

    /// Tries floor- and nearest-rounding of the rational assignment
    /// over the active (currently asserted) variables; returns a model
    /// if either candidate satisfies every asserted atom.
    fn rounded_model(&self, state: &Simplex, active: &[(Var, usize)]) -> Option<Model> {
        let half = BigRational::new(BigInt::one(), BigInt::from(2));
        for nearest in [false, true] {
            let mut m = Model::new();
            for &(v, col) in active {
                let val = state.value(col);
                let rounded = if nearest { (&val + &half).floor() } else { val.floor() };
                m.assign(v, rounded);
            }
            if self.asserted.iter().all(|(a, _)| a.holds(&m)) {
                return Some(m);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;
    use linarb_logic::LinExpr;

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

    fn feasible(t: &mut TheoryLia) -> Model {
        match t.check(&Budget::unlimited()) {
            TheoryVerdict::Feasible(m) => m,
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    fn infeasible_core(t: &mut TheoryLia) -> Vec<Tag> {
        match t.check(&Budget::unlimited()) {
            TheoryVerdict::Infeasible { core, .. } => core,
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn box_model() {
        let mut t = TheoryLia::new();
        t.assert_atom(&Atom::ge(x(), c(2)), 0).unwrap();
        t.assert_atom(&Atom::le(x(), c(2)), 1).unwrap();
        let m = feasible(&mut t);
        assert_eq!(m.value(v(0)), int(2));
    }

    #[test]
    fn shared_slack_for_negation() {
        // x <= 4 and not(x <= 4) i.e. x >= 5: direct bound conflict.
        let mut t = TheoryLia::new();
        let a = Atom::le(x(), c(4));
        t.assert_atom(&a, 0).unwrap();
        let res = t.assert_atom(&a.negate(), 1);
        match res {
            Err(conflict) => assert_eq!(conflict.core(), vec![0, 1]),
            Ok(()) => {
                let core = infeasible_core(&mut t);
                assert_eq!(core, vec![0, 1]);
            }
        }
    }

    #[test]
    fn multi_constraint_core() {
        // x + y <= 1; x >= 1; y >= 1
        let mut t = TheoryLia::new();
        t.assert_atom(&Atom::le(&x() + &y(), c(1)), 0).unwrap();
        t.assert_atom(&Atom::ge(x(), c(1)), 1).unwrap();
        t.assert_atom(&Atom::ge(y(), c(1)), 2).unwrap();
        let core = infeasible_core(&mut t);
        assert_eq!(core, vec![0, 1, 2]);
    }

    #[test]
    fn integrality_via_branching() {
        // 2x + 2y = 5 has rational solutions only after tightening...
        // use 2x + 3y = 5 with x,y >= 0 and x >= 1: x=1,y=1.
        let e = &x().scale(&int(2)) + &y().scale(&int(3));
        let mut t = TheoryLia::new();
        t.assert_atom(&Atom::le(e.clone(), c(5)), 0).unwrap();
        t.assert_atom(&Atom::ge(e.clone(), c(5)), 1).unwrap();
        t.assert_atom(&Atom::ge(x(), c(1)), 2).unwrap();
        t.assert_atom(&Atom::ge(y(), c(0)), 3).unwrap();
        let m = feasible(&mut t);
        let (mx, my) = (m.value(v(0)), m.value(v(1)));
        assert_eq!(&(&mx * &int(2)) + &(&my * &int(3)), int(5));
        assert!(mx >= int(1) && my >= int(0));
    }

    #[test]
    fn integer_infeasible_detected() {
        // 0 <= 3x - 3y - 1 <= 1 has rational solutions (x-y in [1/3, 2/3])
        // but no integer ones.
        let e = &x().scale(&int(3)) - &y().scale(&int(3));
        let mut t = TheoryLia::new();
        // Use non-normalized combination to defeat gcd-tightening:
        // 3x - 3y - 2z = 1 and z = 0 forces x - y = 1/3.
        let z = LinExpr::var(v(2));
        let e2 = &e - &z.scale(&int(2));
        t.assert_atom(&Atom::le(e2.clone(), c(1)), 0).unwrap();
        t.assert_atom(&Atom::ge(e2.clone(), c(1)), 1).unwrap();
        t.assert_atom(&Atom::le(z.clone(), c(0)), 2).unwrap();
        t.assert_atom(&Atom::ge(z, c(0)), 3).unwrap();
        // With x and y unbounded, pure branch-and-bound cannot refute
        // 3(x-y) = 1: it must answer Unknown at the node limit. With
        // bounds on x it becomes a finite search and must be refuted.
        match t.check(&Budget::unlimited()) {
            TheoryVerdict::Infeasible { .. } | TheoryVerdict::Unknown => {}
            other => panic!("expected infeasible/unknown, got {other:?}"),
        }
        let mut t2 = TheoryLia::new();
        let e3 = &(&x().scale(&int(3)) - &y().scale(&int(3))) - &LinExpr::var(v(2)).scale(&int(2));
        t2.assert_atom(&Atom::le(e3.clone(), c(1)), 0).unwrap();
        t2.assert_atom(&Atom::ge(e3.clone(), c(1)), 1).unwrap();
        t2.assert_atom(&Atom::le(LinExpr::var(v(2)), c(0)), 2).unwrap();
        t2.assert_atom(&Atom::ge(LinExpr::var(v(2)), c(0)), 3).unwrap();
        t2.assert_atom(&Atom::ge(x(), c(0)), 4).unwrap();
        t2.assert_atom(&Atom::le(x(), c(3)), 5).unwrap();
        t2.assert_atom(&Atom::ge(y(), c(0)), 6).unwrap();
        t2.assert_atom(&Atom::le(y(), c(3)), 7).unwrap();
        match t2.check(&Budget::unlimited()) {
            TheoryVerdict::Infeasible { .. } => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_direction_still_finds_model() {
        let mut t = TheoryLia::new();
        t.assert_atom(&Atom::ge(&x() - &y(), c(100)), 0).unwrap();
        let m = feasible(&mut t);
        assert!(&m.value(v(0)) - &m.value(v(1)) >= int(100));
    }

    #[test]
    fn trivial_atoms() {
        let mut t = TheoryLia::new();
        t.assert_atom(&Atom::truth(), 0).unwrap();
        assert!(t.assert_atom(&Atom::falsity(), 1).is_err());
    }

    #[test]
    fn many_constraints_consistent() {
        // octagon-ish: |x| <= 10, |y| <= 10, x + y >= 5, x - y <= 2
        let mut t = TheoryLia::new();
        t.assert_atom(&Atom::le(x(), c(10)), 0).unwrap();
        t.assert_atom(&Atom::ge(x(), c(-10)), 1).unwrap();
        t.assert_atom(&Atom::le(y(), c(10)), 2).unwrap();
        t.assert_atom(&Atom::ge(y(), c(-10)), 3).unwrap();
        t.assert_atom(&Atom::ge(&x() + &y(), c(5)), 4).unwrap();
        t.assert_atom(&Atom::le(&x() - &y(), c(2)), 5).unwrap();
        let m = feasible(&mut t);
        let (mx, my) = (m.value(v(0)), m.value(v(1)));
        assert!(&mx + &my >= int(5));
        assert!(&mx - &my <= int(2));
        assert!(mx <= int(10) && mx >= int(-10));
    }

    #[test]
    fn backtrack_retracts_assertions_and_reuses_tableau() {
        let mut t = TheoryLia::new();
        t.assert_atom(&Atom::ge(&x() + &y(), c(4)), 0).unwrap();
        let mark = t.set_backtrack_point();
        t.assert_atom(&Atom::le(x(), c(0)), 1).unwrap();
        t.assert_atom(&Atom::le(y(), c(0)), 2).unwrap();
        let core = infeasible_core(&mut t);
        assert_eq!(core, vec![0, 1, 2]);
        // Slacks interned inside the frame persist across the pop (by
        // design — they are bound-free after it and semantically inert).
        let slacks_interned = t.num_slacks();
        t.backtrack_to(mark);
        assert_eq!(t.num_backtracks(), 1);
        assert_eq!(t.num_slacks(), slacks_interned);
        // Re-asserting a homogeneous part seen before the mark interns
        // nothing new: the x+y slack is reused warm.
        t.assert_atom(&Atom::le(&x() + &y(), c(9)), 3).unwrap();
        assert_eq!(t.num_slacks(), slacks_interned);
        let m = feasible(&mut t);
        let s = &m.value(v(0)) + &m.value(v(1));
        assert!(s >= int(4) && s <= int(9));
    }

    #[test]
    fn backtrack_clears_early_assert_conflict_state() {
        // assert_atom pushes onto `asserted` before it can fail; the
        // mark must clean that up so rounding/diophantine reasoning
        // never sees the retracted atom again.
        let mut t = TheoryLia::new();
        t.assert_atom(&Atom::le(x(), c(4)), 0).unwrap();
        let mark = t.set_backtrack_point();
        assert!(t.assert_atom(&Atom::ge(x(), c(5)), 1).is_err());
        t.backtrack_to(mark);
        t.assert_atom(&Atom::ge(x(), c(4)), 1).unwrap();
        let m = feasible(&mut t);
        assert_eq!(m.value(v(0)), int(4));
    }
}

#[cfg(test)]
mod dio_tests {
    use super::*;
    use linarb_arith::int;
    use linarb_logic::LinExpr;

    fn v(i: u32) -> Var {
        Var::from_index(i)
    }

    #[test]
    fn parity_conflict_detected_without_branching() {
        // 2q = x  and  2q' = x - 1: rationally feasible, integer-
        // infeasible on unbounded vars; diophantine reasoning must
        // catch it instantly.
        let x = LinExpr::var(v(0));
        let q = LinExpr::var(v(1));
        let qp = LinExpr::var(v(2));
        let mut t = TheoryLia::new();
        let e1 = &q.scale(&int(2)) - &x; // 2q - x = 0
        t.assert_atom(&Atom::le(e1.clone(), LinExpr::zero()), 0).unwrap();
        t.assert_atom(&Atom::ge(e1, LinExpr::zero()), 1).unwrap();
        let e2 = &(&qp.scale(&int(2)) - &x) + &LinExpr::constant(int(1)); // 2q' - x + 1 = 0
        t.assert_atom(&Atom::le(e2.clone(), LinExpr::zero()), 2).unwrap();
        t.assert_atom(&Atom::ge(e2, LinExpr::zero()), 3).unwrap();
        match t.check(&Budget::unlimited()) {
            TheoryVerdict::Infeasible { core, .. } => {
                assert_eq!(core, vec![0, 1, 2, 3]);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn consistent_parities_still_feasible() {
        // 2q = x and 2q' = x - 2 is fine (x even).
        let x = LinExpr::var(v(0));
        let q = LinExpr::var(v(1));
        let qp = LinExpr::var(v(2));
        let mut t = TheoryLia::new();
        let e1 = &q.scale(&int(2)) - &x;
        t.assert_atom(&Atom::le(e1.clone(), LinExpr::zero()), 0).unwrap();
        t.assert_atom(&Atom::ge(e1, LinExpr::zero()), 1).unwrap();
        let e2 = &(&qp.scale(&int(2)) - &x) + &LinExpr::constant(int(2));
        t.assert_atom(&Atom::le(e2.clone(), LinExpr::zero()), 2).unwrap();
        t.assert_atom(&Atom::ge(e2, LinExpr::zero()), 3).unwrap();
        match t.check(&Budget::unlimited()) {
            TheoryVerdict::Feasible(m) => {
                assert!(m.value(v(0)).is_even());
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }
}

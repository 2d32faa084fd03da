//! Bounded model checking over CHC systems.
//!
//! Unrolls derivations up to a bounded height and checks whether any
//! query clause can be violated by a bounded derivation. Sound for
//! refutation (every violation found is real); inconclusive for
//! safety.
//!
//! While unrolling, a *shadow tree* records which clause instance
//! produced each disjunct; a satisfying model is then walked down the
//! tree to extract a concrete [`DerivationNode`] certificate that
//! replays against the original system.

use crate::util::{instantiate_clause, ClauseInstance, FreshVars};
use linarb_logic::{Atom, ChcSystem, ClauseId, Formula, LinExpr, Model, PredId};
use linarb_smt::{check_sat, Budget, SmtResult};
use linarb_solver::DerivationNode;

/// Result of a bounded check.
#[derive(Debug)]
pub enum BmcResult {
    /// A goal clause is violated by a derivation of height ≤ `depth`.
    Violation {
        /// The unrolling depth at which the violation appeared.
        depth: usize,
        /// The satisfying assignment of the unrolled formula.
        model: Model,
        /// The concrete counterexample derivation extracted from the
        /// model; replays against the original system.
        derivation: DerivationNode,
    },
    /// No violation exists within the bound.
    SafeUpTo(usize),
    /// Budget exhausted or a check came back unknown.
    Unknown,
}

impl BmcResult {
    /// `true` for [`BmcResult::Violation`].
    pub fn is_violation(&self) -> bool {
        matches!(self, BmcResult::Violation { .. })
    }
}

/// Shadow of one `unroll` call: the predicate occurrence and, per
/// candidate clause, the instance that was encoded for it.
struct ShadowNode {
    pred: PredId,
    /// The interface arguments this occurrence was requested with
    /// (expressions over the *parent's* fresh variables).
    args: Vec<LinExpr>,
    candidates: Vec<Candidate>,
}

struct Candidate {
    clause: ClauseId,
    inst: ClauseInstance,
    /// Constraint ∧ interface equalities of this disjunct (children's
    /// subformulas excluded — they are tested via `children`).
    local: Formula,
    children: Vec<ShadowNode>,
}

/// Builds the under-approximation of `pred` for derivations of height
/// ≤ `depth`, instantiated so that its free interface is `args`.
/// Returns the formula and the shadow node mirroring its disjuncts.
fn unroll(
    sys: &ChcSystem,
    pred: PredId,
    args: &[LinExpr],
    depth: usize,
    fresh: &mut FreshVars,
    nodes: &mut usize,
    budget: &Budget,
) -> (Formula, ShadowNode) {
    let shadow = ShadowNode { pred, args: args.to_vec(), candidates: Vec::new() };
    if depth == 0 || *nodes > 200_000 || budget.exhausted() {
        return (Formula::False, shadow);
    }
    *nodes += 1;
    let mut shadow = shadow;
    let mut disjuncts = Vec::new();
    for clause in sys.clauses() {
        let happ = match &clause.head {
            linarb_logic::ClauseHead::Pred(a) if a.pred == pred => a,
            _ => continue,
        };
        let _ = happ;
        let inst = instantiate_clause(clause, fresh);
        let mut local = vec![inst.constraint.clone()];
        // interface: head args equal the requested args
        for (ha, a) in inst.head_args.iter().zip(args.iter()) {
            local.push(Atom::eq_expr(ha.clone(), a.clone()));
        }
        let local = Formula::and(local);
        let mut conj = vec![local.clone()];
        let mut children = Vec::new();
        for app in &inst.body {
            let (sub, child) =
                unroll(sys, app.pred, &app.args, depth - 1, fresh, nodes, budget);
            conj.push(sub);
            children.push(child);
        }
        shadow.candidates.push(Candidate { clause: clause.id, inst, local, children });
        disjuncts.push(Formula::and(conj));
    }
    (Formula::or(disjuncts), shadow)
}

/// Walks the satisfying model down the shadow tree, picking the first
/// candidate whose local constraints hold and whose children all
/// extract. Sound because `Formula::eval` is total (unassigned
/// variables read as 0, matching `ClauseInstance::pull_back`).
fn extract(node: &ShadowNode, model: &Model) -> Option<DerivationNode> {
    'cand: for cand in &node.candidates {
        if !cand.local.eval(model) {
            continue;
        }
        let mut children = Vec::new();
        for child in &cand.children {
            match extract(child, model) {
                Some(d) => children.push(d),
                None => continue 'cand,
            }
        }
        return Some(DerivationNode {
            pred: Some(node.pred),
            sample: node.args.iter().map(|a| a.eval(model)).collect(),
            clause: cand.clause,
            model: cand.inst.pull_back(model),
            children,
        });
    }
    None
}

/// Checks all query clauses for violations by derivations of height ≤
/// `max_depth`, by iterative deepening.
pub fn bmc(sys: &ChcSystem, max_depth: usize, budget: &Budget) -> BmcResult {
    for depth in 0..=max_depth {
        if budget.exhausted() {
            return BmcResult::Unknown;
        }
        for clause in sys.clauses() {
            if !clause.is_query() {
                continue;
            }
            let mut fresh = FreshVars::for_system(sys);
            let mut nodes = 0usize;
            let inst = instantiate_clause(clause, &mut fresh);
            let mut conj = vec![inst.constraint.clone()];
            let mut shadows = Vec::new();
            for app in &inst.body {
                let (sub, shadow) =
                    unroll(sys, app.pred, &app.args, depth, &mut fresh, &mut nodes, budget);
                conj.push(sub);
                shadows.push(shadow);
            }
            conj.push(Formula::not(inst.goal.clone().expect("query clause")));
            let f = Formula::and(conj);
            match check_sat(&f, budget) {
                SmtResult::Sat(model) => {
                    let mut children = Vec::new();
                    let mut complete = true;
                    for shadow in &shadows {
                        match extract(shadow, &model) {
                            Some(d) => children.push(d),
                            None => {
                                complete = false;
                                break;
                            }
                        }
                    }
                    if !complete {
                        // A model that satisfies the unrolling always
                        // selects a full disjunct per occurrence; only
                        // a truncated (node-capped / cancelled) unroll
                        // can fail here. Report inconclusive.
                        return BmcResult::Unknown;
                    }
                    let derivation = DerivationNode {
                        pred: None,
                        sample: Vec::new(),
                        clause: clause.id,
                        model: inst.pull_back(&model),
                        children,
                    };
                    return BmcResult::Violation { depth, model, derivation };
                }
                SmtResult::Unsat => {}
                SmtResult::Unknown => return BmcResult::Unknown,
            }
        }
    }
    BmcResult::SafeUpTo(max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_logic::parse_chc;

    const SAFE: &str = r#"
        (declare-fun p (Int Int) Bool)
        (assert (forall ((x Int) (y Int))
            (=> (and (= x 1) (= y 0)) (p x y))))
        (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
            (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
        (assert (forall ((x Int) (y Int))
            (=> (p x y) (>= x 1))))
    "#;

    #[test]
    fn safe_within_bound() {
        let sys = parse_chc(SAFE).unwrap();
        match bmc(&sys, 4, &Budget::unlimited()) {
            BmcResult::SafeUpTo(4) => {}
            other => panic!("expected safe, got {other:?}"),
        }
    }

    #[test]
    fn violation_found_at_right_depth() {
        // property x >= 2 fails at the very first derivation (x = 1)
        let text = SAFE.replace("(>= x 1)", "(>= x 2)");
        let sys = parse_chc(&text).unwrap();
        match bmc(&sys, 4, &Budget::unlimited()) {
            BmcResult::Violation { depth, derivation, .. } => {
                assert_eq!(depth, 1);
                assert!(derivation.replay(&sys), "derivation must replay");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn deeper_violation_needs_deeper_bound() {
        // x grows by 1 from 0; x <= 2 fails after 3 steps
        let text = r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((x Int)) (=> (= x 0) (p x))))
            (assert (forall ((x Int) (x1 Int))
                (=> (and (p x) (= x1 (+ x 1))) (p x1))))
            (assert (forall ((x Int)) (=> (p x) (<= x 2))))
        "#;
        let sys = parse_chc(text).unwrap();
        assert!(!bmc(&sys, 3, &Budget::unlimited()).is_violation());
        match bmc(&sys, 5, &Budget::unlimited()) {
            BmcResult::Violation { depth, derivation, .. } => {
                assert_eq!(depth, 4);
                assert!(derivation.replay(&sys), "derivation must replay");
                assert_eq!(derivation.size(), 5, "root + four derivation steps");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn nonlinear_unrolling_fibo() {
        // fibo with the FALSE claim y >= x for x > 1; fails at x=2
        // which needs a derivation of height 3.
        let text = r#"
            (declare-fun p (Int Int) Bool)
            (assert (forall ((x Int) (y Int))
                (=> (and (< x 1) (= y 0)) (p x y))))
            (assert (forall ((x Int) (y Int))
                (=> (and (= x 1) (= y 1)) (p x y))))
            (assert (forall ((x Int) (y Int) (y1 Int) (y2 Int))
                (=> (and (> x 1) (p (- x 1) y1) (p (- x 2) y2) (= y (+ y1 y2)))
                    (p x y))))
            (assert (forall ((x Int) (y Int))
                (=> (and (p x y) (> x 1)) (>= y x))))
        "#;
        let sys = parse_chc(text).unwrap();
        match bmc(&sys, 4, &Budget::unlimited()) {
            BmcResult::Violation { derivation, .. } => {
                assert!(derivation.replay(&sys), "nonlinear derivation must replay");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }
}

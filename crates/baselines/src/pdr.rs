//! Property-directed reachability for CHC systems — the scale model
//! of GPDR [17] and Spacer [19] used by the evaluation.
//!
//! Frames `F₁ ⊇ F₂ ⊇ …` hold lemma cubes per predicate
//! (`F_i(p) = ⋀ ¬cube`), over-approximating the states derivable in
//! `≤ i` steps. Query countermodels spawn proof obligations that are
//! recursively blocked or confirmed reachable; blocked point cubes are
//! generalized dimension-wise before becoming lemmas; lemmas propagate
//! forward until two consecutive frames agree (an inductive
//! interpretation) or a derivation confirms unsatisfiability.
//!
//! `spacer_mode` additionally caches *must summaries* — concrete
//! reachable points — short-circuiting repeated sub-derivations, which
//! is the essential Spacer-over-GPDR optimization the paper's Fig.
//! 8(c) measures.

use crate::util::{instantiate_clause, FreshVars};
use linarb_arith::BigInt;
use linarb_logic::{
    Atom, ChcSystem, ClauseId, Formula, Interpretation, LinExpr, Model, PredApp, PredId, Var,
};
use linarb_ml::Sample;
use linarb_smt::{check_sat, Budget, SmtResult};
use linarb_solver::DerivationNode;
use std::collections::{BTreeMap, HashMap};

/// A conjunction of atoms over a predicate's parameters.
pub type Cube = Vec<Atom>;

/// PDR configuration.
#[derive(Clone, Copy, Debug)]
pub struct PdrConfig {
    /// Cache must-summaries (Spacer) instead of re-deriving (GPDR).
    pub spacer_mode: bool,
    /// Maximum frame level before giving up.
    pub max_level: usize,
    /// Maximum proof obligations before giving up.
    pub max_obligations: usize,
}

impl Default for PdrConfig {
    fn default() -> Self {
        PdrConfig { spacer_mode: true, max_level: 32, max_obligations: 6_000 }
    }
}

/// Result of a PDR run.
#[derive(Debug)]
pub enum PdrResult {
    /// Inductive interpretation found.
    Sat(Interpretation),
    /// A concrete derivation violates a query; the derivation replays
    /// against the original system ([`DerivationNode::replay`]).
    Unsat(DerivationNode),
    /// Budget, level, or obligation limit exhausted.
    Unknown,
}

impl PdrResult {
    /// `true` for [`PdrResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, PdrResult::Sat(_))
    }

    /// `true` for [`PdrResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, PdrResult::Unsat(_))
    }
}

enum Verdict {
    Reach,
    Blocked,
    Unknown,
}

/// The PDR engine.
pub struct PdrSolver<'a> {
    sys: &'a ChcSystem,
    config: PdrConfig,
    /// `frames[i][p]`: lemma cubes of `F_i(p)` (stored cumulatively:
    /// a lemma at level `i` is present in frames `1..=i`). Ordered
    /// maps keep runs deterministic.
    frames: Vec<BTreeMap<PredId, Vec<Cube>>>,
    /// Must summaries (Spacer mode).
    reach: BTreeMap<PredId, Vec<Sample>>,
    /// Justification of every reached point: the clause instance that
    /// derived it (model pulled back to the clause's own variables) and
    /// the body points it was derived from. Children are always
    /// justified before their parents, so certificate extraction
    /// terminates.
    justif: HashMap<(PredId, Sample), (ClauseId, Model, Vec<(PredId, Sample)>)>,
    obligations: usize,
}

impl<'a> PdrSolver<'a> {
    /// Creates a solver for `sys`.
    pub fn new(sys: &'a ChcSystem, config: PdrConfig) -> PdrSolver<'a> {
        PdrSolver {
            sys,
            config,
            frames: vec![BTreeMap::new(), BTreeMap::new()],
            reach: BTreeMap::new(),
            justif: HashMap::new(),
            obligations: 0,
        }
    }

    /// Number of proof obligations processed (statistics).
    pub fn num_obligations(&self) -> usize {
        self.obligations
    }

    fn frame_formula(&self, level: usize, pred: PredId, args: &[LinExpr]) -> Formula {
        if level == 0 {
            return Formula::False;
        }
        let Some(lemmas) = self.frames.get(level).and_then(|f| f.get(&pred)) else {
            return Formula::True;
        };
        let params = &self.sys.pred(pred).params;
        let map: HashMap<Var, LinExpr> =
            params.iter().copied().zip(args.iter().cloned()).collect();
        Formula::and(
            lemmas
                .iter()
                .map(|cube| {
                    Formula::not(Formula::and(
                        cube.iter().map(|a| Formula::from(a.subst(&map))).collect(),
                    ))
                })
                .collect(),
        )
    }

    fn cube_at(&self, pred: PredId, cube: &Cube, args: &[LinExpr]) -> Formula {
        let params = &self.sys.pred(pred).params;
        let map: HashMap<Var, LinExpr> =
            params.iter().copied().zip(args.iter().cloned()).collect();
        Formula::and(cube.iter().map(|a| Formula::from(a.subst(&map))).collect())
    }

    fn point_cube(&self, pred: PredId, point: &Sample) -> Cube {
        let params = &self.sys.pred(pred).params;
        let mut cube = Vec::new();
        for (v, val) in params.iter().zip(point.iter()) {
            let (le, ge) = Atom::eq(LinExpr::var(*v), LinExpr::constant(val.clone()));
            cube.push(le);
            cube.push(ge);
        }
        cube
    }

    fn cube_holds_at(&self, pred: PredId, cube: &Cube, point: &Sample) -> bool {
        let params = &self.sys.pred(pred).params;
        let m: linarb_logic::Model = params
            .iter()
            .copied()
            .zip(point.iter().cloned())
            .collect();
        cube.iter().all(|a| a.holds(&m))
    }

    /// Can some clause with head `pred` produce a state in `cube` from
    /// `F_{level-1}` bodies? Returns the first witnessing
    /// (clause, instance, model) or `None` when fully blocked.
    fn predecessor_query(
        &self,
        pred: PredId,
        cube: &Cube,
        level: usize,
        budget: &Budget,
    ) -> Result<Option<(ClauseId, crate::util::ClauseInstance, Model)>, ()> {
        for clause in self.sys.clauses() {
            if budget.exhausted() {
                return Err(());
            }
            let happ = match &clause.head {
                linarb_logic::ClauseHead::Pred(a) if a.pred == pred => a,
                _ => continue,
            };
            let _ = happ;
            let mut fresh = FreshVars::for_system(self.sys);
            let inst = instantiate_clause(clause, &mut fresh);
            let mut conj = vec![inst.constraint.clone()];
            conj.push(self.cube_at(pred, cube, &inst.head_args));
            for app in &inst.body {
                conj.push(self.frame_formula(level - 1, app.pred, &app.args));
            }
            match check_sat(&Formula::and(conj), budget) {
                SmtResult::Sat(m) => return Ok(Some((clause.id, inst, m))),
                SmtResult::Unsat => {}
                SmtResult::Unknown => return Err(()),
            }
        }
        Ok(None)
    }

    fn reachable(
        &mut self,
        pred: PredId,
        cube: Cube,
        level: usize,
        depth: usize,
        budget: &Budget,
    ) -> Verdict {
        self.obligations += 1;
        if depth == 0
            || self.obligations > self.config.max_obligations
            || budget.exhausted()
        {
            return Verdict::Unknown;
        }
        debug_assert!(level >= 1);
        if self.config.spacer_mode {
            if let Some(points) = self.reach.get(&pred) {
                if points.iter().any(|pt| self.cube_holds_at(pred, &cube, pt)) {
                    return Verdict::Reach;
                }
            }
        }
        loop {
            let (cid, inst, model) = match self.predecessor_query(pred, &cube, level, budget) {
                Err(()) => return Verdict::Unknown,
                Ok(None) => break,
                Ok(Some(x)) => x,
            };
            // Try to confirm each body point reachable one level down.
            let mut all_reached = true;
            let mut blocked_any = false;
            for app in &inst.body {
                let point = app.eval_args(&model);
                let pcube = self.point_cube(app.pred, &point);
                match self.reachable(app.pred, pcube, level - 1, depth - 1, budget) {
                    Verdict::Reach => {}
                    Verdict::Blocked => {
                        all_reached = false;
                        blocked_any = true;
                        break;
                    }
                    Verdict::Unknown => return Verdict::Unknown,
                }
            }
            if all_reached {
                let point: Sample = inst.head_args.iter().map(|a| a.eval(&model)).collect();
                let children: Vec<(PredId, Sample)> = inst
                    .body
                    .iter()
                    .map(|app| (app.pred, app.eval_args(&model)))
                    .collect();
                self.justif
                    .entry((pred, point.clone()))
                    .or_insert_with(|| (cid, inst.pull_back(&model), children));
                self.reach.entry(pred).or_default().push(point);
                return Verdict::Reach;
            }
            debug_assert!(blocked_any);
            // frames strengthened by the recursive call: re-solve
        }
        // Fully blocked: generalize and record the lemma.
        let gen = self.generalize(pred, cube, level, budget);
        self.add_lemma(pred, gen, level);
        Verdict::Blocked
    }

    /// Literal-dropping generalization: widen the blocked cube by
    /// removing one atom at a time while it stays blocked (equalities
    /// weaken to half-spaces, then disappear entirely). Never emits
    /// the empty cube.
    fn generalize(&self, pred: PredId, cube: Cube, level: usize, budget: &Budget) -> Cube {
        let mut current = cube;
        let mut i = 0;
        while i < current.len() {
            if current.len() == 1 || budget.exhausted() {
                break;
            }
            let mut candidate = current.clone();
            candidate.remove(i);
            let still_blocked = matches!(
                self.predecessor_query(pred, &candidate, level, budget),
                Ok(None)
            );
            if still_blocked {
                current = candidate;
            } else {
                i += 1;
            }
        }
        current
    }

    fn add_lemma(&mut self, pred: PredId, cube: Cube, level: usize) {
        for i in 1..=level {
            while self.frames.len() <= i {
                self.frames.push(BTreeMap::new());
            }
            let lemmas = self.frames[i].entry(pred).or_default();
            if !lemmas.contains(&cube) {
                lemmas.push(cube.clone());
            }
        }
    }

    fn frame_interp(&self, level: usize) -> Interpretation {
        let mut interp = Interpretation::new();
        if let Some(frame) = self.frames.get(level) {
            for (p, lemmas) in frame {
                let f = Formula::and(
                    lemmas
                        .iter()
                        .map(|cube| {
                            Formula::not(Formula::and(
                                cube.iter().cloned().map(Formula::from).collect(),
                            ))
                        })
                        .collect(),
                );
                interp.insert(*p, f);
            }
        }
        interp
    }

    /// Runs PDR to completion or exhaustion.
    pub fn solve(&mut self, budget: &Budget) -> PdrResult {
        let queries: Vec<_> = self
            .sys
            .clauses()
            .iter()
            .filter(|c| c.is_query())
            .cloned()
            .collect();
        for level in 1..=self.config.max_level {
            while self.frames.len() <= level {
                self.frames.push(BTreeMap::new());
            }
            // Block all query violations at this level.
            for query in &queries {
                loop {
                    if budget.exhausted() || self.obligations > self.config.max_obligations {
                        return PdrResult::Unknown;
                    }
                    let mut fresh = FreshVars::for_system(self.sys);
                    let inst = instantiate_clause(query, &mut fresh);
                    let mut conj = vec![inst.constraint.clone()];
                    for app in &inst.body {
                        conj.push(self.frame_formula(level, app.pred, &app.args));
                    }
                    conj.push(Formula::not(inst.goal.clone().expect("query")));
                    let model = match check_sat(&Formula::and(conj), budget) {
                        SmtResult::Unsat => break,
                        SmtResult::Unknown => return PdrResult::Unknown,
                        SmtResult::Sat(m) => m,
                    };
                    if inst.body.is_empty() {
                        return PdrResult::Unsat(DerivationNode {
                            pred: None,
                            sample: Vec::new(),
                            clause: query.id,
                            model: inst.pull_back(&model),
                            children: Vec::new(),
                        });
                    }
                    let mut all_reached = true;
                    for app in &inst.body {
                        let point = app.eval_args(&model);
                        let pcube = self.point_cube(app.pred, &point);
                        match self.reachable(app.pred, pcube, level, 64, budget) {
                            Verdict::Reach => {}
                            Verdict::Blocked => {
                                all_reached = false;
                                break;
                            }
                            Verdict::Unknown => return PdrResult::Unknown,
                        }
                    }
                    if all_reached {
                        let children = inst
                            .body
                            .iter()
                            .map(|app| self.derivation_for(app.pred, &app.eval_args(&model)))
                            .collect();
                        return PdrResult::Unsat(DerivationNode {
                            pred: None,
                            sample: Vec::new(),
                            clause: query.id,
                            model: inst.pull_back(&model),
                            children,
                        });
                    }
                }
            }
            // Propagate lemmas forward.
            while self.frames.len() <= level + 1 {
                self.frames.push(BTreeMap::new());
            }
            for i in 1..=level {
                let preds: Vec<PredId> = self.frames[i].keys().copied().collect();
                for p in preds {
                    let cubes = self.frames[i][&p].clone();
                    for cube in cubes {
                        if budget.exhausted() {
                            return PdrResult::Unknown;
                        }
                        if self.frames[i + 1]
                            .get(&p)
                            .is_some_and(|ls| ls.contains(&cube))
                        {
                            continue;
                        }
                        let blocked = matches!(
                            self.predecessor_query(p, &cube, i + 1, budget),
                            Ok(None)
                        );
                        if blocked {
                            self.frames[i + 1].entry(p).or_default().push(cube);
                        }
                    }
                }
            }
            // Fixpoint detection.
            for i in 1..=level {
                if self.frames_equal(i, i + 1) {
                    return PdrResult::Sat(self.frame_interp(i + 1));
                }
            }
        }
        PdrResult::Unknown
    }

    /// Rebuilds the derivation of a reached point from the
    /// justification map. Every point in `reach` has an entry (recorded
    /// the moment it was confirmed), and children are recorded before
    /// parents, so the recursion is total.
    fn derivation_for(&self, pred: PredId, sample: &Sample) -> DerivationNode {
        let (clause, model, children) = self
            .justif
            .get(&(pred, sample.clone()))
            .expect("reached point must be justified");
        DerivationNode {
            pred: Some(pred),
            sample: sample.clone(),
            clause: *clause,
            model: model.clone(),
            children: children
                .iter()
                .map(|(p, s)| self.derivation_for(*p, s))
                .collect(),
        }
    }

    fn frames_equal(&self, i: usize, j: usize) -> bool {
        let empty = BTreeMap::new();
        let a = self.frames.get(i).unwrap_or(&empty);
        let b = self.frames.get(j).unwrap_or(&empty);
        let preds: std::collections::HashSet<PredId> =
            a.keys().chain(b.keys()).copied().collect();
        preds.iter().all(|p| {
            let la = a.get(p).map(Vec::as_slice).unwrap_or(&[]);
            let lb = b.get(p).map(Vec::as_slice).unwrap_or(&[]);
            la.len() == lb.len() && la.iter().all(|c| lb.contains(c))
        })
    }
}

// keep BigInt referenced for doc purposes (samples are BigInt vectors)
#[allow(dead_code)]
fn _anchor(_: &BigInt, _: &PredApp) {}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_logic::parse_chc;
    use linarb_smt::Budget;
    use linarb_solver::verify_interpretation;
    use std::time::Duration;

    fn run(text: &str, spacer: bool) -> PdrResult {
        let sys = parse_chc(text).unwrap();
        let config = PdrConfig { spacer_mode: spacer, ..PdrConfig::default() };
        let mut pdr = PdrSolver::new(&sys, config);
        let r = pdr.solve(&Budget::timeout(Duration::from_secs(30)));
        match &r {
            PdrResult::Sat(interp) => {
                assert_eq!(
                    verify_interpretation(&sys, interp, &Budget::timeout(Duration::from_secs(30))),
                    Some(true),
                    "PDR interpretation must validate the system"
                );
            }
            PdrResult::Unsat(derivation) => {
                assert!(
                    derivation.replay(&sys),
                    "PDR derivation must replay against the system"
                );
            }
            PdrResult::Unknown => {}
        }
        r
    }

    const COUNTER_SAFE: &str = r#"
        (declare-fun p (Int) Bool)
        (assert (forall ((x Int)) (=> (= x 0) (p x))))
        (assert (forall ((x Int) (x1 Int))
            (=> (and (p x) (< x 5) (= x1 (+ x 1))) (p x1))))
        (assert (forall ((x Int)) (=> (p x) (<= x 5))))
    "#;

    #[test]
    fn safe_counter_both_modes() {
        for spacer in [false, true] {
            let r = run(COUNTER_SAFE, spacer);
            assert!(r.is_sat(), "spacer={spacer}: {r:?}");
        }
    }

    #[test]
    fn unsafe_counter_both_modes() {
        let text = COUNTER_SAFE.replace("(<= x 5)", "(<= x 3)");
        for spacer in [false, true] {
            let r = run(&text, spacer);
            assert!(r.is_unsat(), "spacer={spacer}: {r:?}");
        }
    }

    #[test]
    fn fact_violation() {
        let text = r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((x Int)) (=> (= x 7) (p x))))
            (assert (forall ((x Int)) (=> (p x) (<= x 3))))
        "#;
        let r = run(text, true);
        assert!(r.is_unsat(), "{r:?}");
    }

    #[test]
    fn no_queries_is_trivially_sat() {
        let text = r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((x Int)) (=> (= x 0) (p x))))
        "#;
        let r = run(text, true);
        assert!(r.is_sat(), "{r:?}");
    }

    #[test]
    fn fig1_box_invariant() {
        // Fig. 1 needs x >= 1 /\ y >= 0; PDR's box lemmas can find it.
        let text = r#"
            (declare-fun p (Int Int) Bool)
            (assert (forall ((x Int) (y Int))
                (=> (and (= x 1) (= y 0)) (p x y))))
            (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
                (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
            (assert (forall ((x Int) (y Int))
                (=> (p x y) (>= x 1))))
        "#;
        let r = run(text, true);
        // PDR may or may not converge here (the diverging example of
        // the paper!) — but it must never report Unsat.
        assert!(!r.is_unsat(), "{r:?}");
    }

    #[test]
    fn nonlinear_unsafe_fibo() {
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
        let r = run(text, true);
        assert!(r.is_unsat(), "{r:?}");
    }

    #[test]
    fn spacer_mode_caches_reachability() {
        // On the unsafe fibo, spacer should need no more obligations
        // than gpdr (must summaries avoid re-derivation).
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
                (=> (and (p x y) (> x 3)) (>= y x))))
        "#;
        let sys = parse_chc(text).unwrap();
        let mut gpdr = PdrSolver::new(&sys, PdrConfig { spacer_mode: false, ..Default::default() });
        let rg = gpdr.solve(&Budget::timeout(Duration::from_secs(60)));
        let mut spacer = PdrSolver::new(&sys, PdrConfig { spacer_mode: true, ..Default::default() });
        let rs = spacer.solve(&Budget::timeout(Duration::from_secs(60)));
        // Both should refute; spacer with fewer or equal obligations.
        if rg.is_unsat() && rs.is_unsat() {
            assert!(spacer.num_obligations() <= gpdr.num_obligations());
        }
    }
}

//! The data-driven CHC solver (the paper's Algorithm 3).
//!
//! [`CegarSolver`] decides satisfiability of a [`ChcSystem`] by a
//! counterexample-guided loop:
//!
//! 1. Start from the weakest interpretation (`true` for every unknown
//!    predicate).
//! 2. While some clause `φ ∧ p₁(T̄₁) ∧ … ∧ pₖ(T̄ₖ) → h` is invalid
//!    under the current interpretation, obtain a countermodel from the
//!    SMT oracle and convert it into **samples** of each predicate.
//! 3. If every body sample is already a known positive, the head
//!    sample is *derivable*: weaken the head (new positive sample,
//!    negatives cleared, interpretation reset to `true`) — or, if the
//!    head is a known goal, report **unsat** with the derivation tree.
//! 4. Otherwise strengthen the body: unknown body samples become
//!    tentative negatives and the affected predicates are re-learned
//!    with the machine-learning toolchain (`linarb-ml`).
//!
//! Positive samples are always justified by a derivation (the paper's
//! implicit unwinding), so unsat verdicts come with a concrete,
//! replayable counterexample.
//!
//! # Examples
//!
//! Solving the paper's Fig. 1 system:
//!
//! ```
//! use linarb_logic::parse_chc;
//! use linarb_smt::Budget;
//! use linarb_solver::{CegarSolver, SolveResult, SolverConfig};
//!
//! let sys = parse_chc(r#"
//!     (declare-fun p (Int Int) Bool)
//!     (assert (forall ((x Int) (y Int))
//!         (=> (and (= x 1) (= y 0)) (p x y))))
//!     (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
//!         (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
//!     (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
//!         (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (>= x1 y1))))
//!     (assert (forall ((x Int) (y Int))
//!         (=> (and (= x 1) (= y 0)) (>= x y))))
//! "#).unwrap();
//! let mut solver = CegarSolver::new(&sys, SolverConfig::default());
//! match solver.solve(&Budget::unlimited()) {
//!     SolveResult::Sat(interp) => assert!(interp.contains_key(&sys.pred_by_name("p").unwrap().id)),
//!     other => panic!("Fig. 1 must verify, got {other:?}"),
//! }
//! ```

use linarb_arith::BigInt;
use linarb_logic::{
    Atom, ChcSystem, Clause, ClauseHead, ClauseId, Formula, Interpretation, LinExpr, Model, PredApp,
    PredId, Var,
};
use linarb_ml::{learn, learn_seeded, Dataset, LearnConfig, LearnError, Sample, SeedPlane, SeedStore};
use linarb_smt::{check_sat, Budget, IncrementalSolver, Lit, SmtResult};
use linarb_trace::{event, Level, MetricsReport};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

pub mod progress;
pub use progress::{ProgressReporter, ProgressSnapshot};

/// A pluggable learning engine for the CEGAR loop.
///
/// The default engine is the paper's toolchain (Algorithm 1 + 2 from
/// `linarb-ml`); the evaluation's baseline learners (PIE-style
/// enumeration, DIG-style templates) implement this trait to be
/// compared inside the *same* sampling loop, exactly as in Fig. 8(a)
/// and 8(b).
pub trait Learner: Send + Sync {
    /// Produces a formula over `params` separating the dataset's
    /// positive samples from its negative samples.
    ///
    /// # Errors
    ///
    /// [`LearnError`] when no separator exists (contradictory data) or
    /// the engine's hypothesis space is exhausted.
    fn learn(&self, data: &Dataset, params: &[Var]) -> Result<Formula, LearnError>;

    /// [`learn`](Learner::learn) with symbolic seed planes offered as
    /// first-try separators. Returns the formula plus the indices of
    /// seeds used directly (for hit accounting). Engines that cannot
    /// exploit seeds simply ignore them — the default delegates to
    /// [`learn`](Learner::learn).
    ///
    /// # Errors
    ///
    /// As for [`learn`](Learner::learn).
    fn learn_seeded(
        &self,
        data: &Dataset,
        params: &[Var],
        seeds: &[SeedPlane],
    ) -> Result<(Formula, Vec<usize>), LearnError> {
        let _ = seeds;
        self.learn(data, params).map(|f| (f, Vec::new()))
    }

    /// A short engine name for reports.
    fn name(&self) -> &str;
}

/// The default learner: the paper's machine-learning toolchain.
#[derive(Clone, Debug, Default)]
pub struct MlLearner {
    /// Pipeline configuration (classifier choice, decision tree
    /// on/off, mod features, SVM `C`…).
    pub config: LearnConfig,
}

impl Learner for MlLearner {
    fn learn(&self, data: &Dataset, params: &[Var]) -> Result<Formula, LearnError> {
        learn(data, params, &self.config).map(|(f, _)| f)
    }

    fn learn_seeded(
        &self,
        data: &Dataset,
        params: &[Var],
        seeds: &[SeedPlane],
    ) -> Result<(Formula, Vec<usize>), LearnError> {
        learn_seeded(data, params, &self.config, seeds).map(|(f, s)| (f, s.seed_hits))
    }

    fn name(&self) -> &str {
        if self.config.use_decision_tree {
            "LinearArbitrary+DT"
        } else {
            "LinearArbitrary"
        }
    }
}

/// How the CEGAR loop consults its SMT oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OracleMode {
    /// One persistent DPLL(T) context per clause: the clause constraint
    /// and skeleton are encoded once, candidate interpretations are
    /// swapped in and out via activation literals, and learned clauses
    /// carry over between checks. Also enables the countermodel-reuse
    /// fast path.
    #[default]
    Incremental,
    /// Rebuild the encoding and solver state on every check (the
    /// pre-incremental behaviour). The serve daemon's oracle, and the
    /// reference for differential testing.
    Fresh,
}

/// Configuration of the CEGAR solver.
#[derive(Clone)]
pub struct SolverConfig {
    /// The learning engine.
    pub learner: Arc<dyn Learner>,
    /// Cap on CEGAR refinement steps before giving up.
    pub max_iterations: usize,
    /// SMT oracle strategy.
    pub oracle: OracleMode,
    /// Symbolic seeding (DESIGN.md §12): harvest candidate separating
    /// directions from clause syntax (and any attached hints/atoms),
    /// offer them to the learner as first-try separators and extra
    /// decision-tree features. Defaults to on; only
    /// [`with_seeding(false)`](SolverConfig::with_seeding) turns it off.
    /// Purely a heuristic accelerator: verdicts are unaffected.
    pub seeding: bool,
    /// Extra seed atoms in predicate parameter space, injected by the
    /// caller: the serve daemon's near tier passes the atoms of a
    /// cached invariant for a structurally similar system.
    /// Ignored when `seeding` is off.
    pub seed_atoms: Vec<(PredId, Atom)>,
    /// Live progress telemetry: when set, the solver pushes one
    /// [`ProgressSnapshot`] per CEGAR round into the reporter (see
    /// [`progress`]). `None` (the default) costs nothing.
    pub progress: Option<ProgressReporter>,
    /// Warm-start state captured from a previous solve of a
    /// structurally similar system (see [`SolveSnapshot`]): negative
    /// samples and seed directions are imported up front. `None` (the
    /// default) starts cold.
    pub warm_start: Option<Arc<SolveSnapshot>>,
}

impl SolverConfig {
    /// The paper's configuration with a custom learning pipeline.
    pub fn with_learn_config(learn: LearnConfig) -> SolverConfig {
        SolverConfig::with_learner(Arc::new(MlLearner { config: learn }))
    }

    /// A configuration around any learning engine.
    pub fn with_learner(learner: Arc<dyn Learner>) -> SolverConfig {
        SolverConfig {
            learner,
            max_iterations: 20_000,
            oracle: OracleMode::default(),
            seeding: true,
            seed_atoms: Vec::new(),
            progress: None,
            warm_start: None,
        }
    }

    /// Selects the SMT oracle strategy.
    pub fn with_oracle(mut self, oracle: OracleMode) -> SolverConfig {
        self.oracle = oracle;
        self
    }

    /// Enables or disables symbolic seeding (see
    /// [`SolverConfig::seeding`]).
    pub fn with_seeding(mut self, seeding: bool) -> SolverConfig {
        self.seeding = seeding;
        self
    }

    /// Injects caller-provided seed atoms (see
    /// [`SolverConfig::seed_atoms`]).
    pub fn with_seed_atoms(mut self, atoms: Vec<(PredId, Atom)>) -> SolverConfig {
        self.seed_atoms = atoms;
        self
    }

    /// Attaches a live progress reporter (see
    /// [`SolverConfig::progress`]).
    pub fn with_progress(mut self, progress: ProgressReporter) -> SolverConfig {
        self.progress = Some(progress);
        self
    }

    /// Attaches warm-start state from a previous solve (see
    /// [`SolverConfig::warm_start`]).
    pub fn with_warm_start(mut self, snapshot: Arc<SolveSnapshot>) -> SolverConfig {
        self.warm_start = Some(snapshot);
        self
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig::with_learn_config(LearnConfig::default())
    }
}

impl fmt::Debug for SolverConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SolverConfig {{ learner: {}, max_iterations: {}, oracle: {:?}, seeding: {}, seed_atoms: {}, progress: {}, warm_start: {} }}",
            self.learner.name(),
            self.max_iterations,
            self.oracle,
            self.seeding,
            self.seed_atoms.len(),
            self.progress.is_some(),
            self.warm_start.is_some()
        )
    }
}

/// One node of an unsat derivation tree: `pred(sample)` was derived by
/// `clause` from the child derivations (empty for facts).
#[derive(Clone, Debug)]
pub struct DerivationNode {
    /// The derived predicate, or `None` for the goal violation at the
    /// root.
    pub pred: Option<PredId>,
    /// The concrete argument values.
    pub sample: Sample,
    /// The clause whose instance performs this derivation step.
    pub clause: ClauseId,
    /// The clause-variable assignment witnessing the step.
    pub model: Model,
    /// Derivations of the body predicates.
    pub children: Vec<DerivationNode>,
}

impl DerivationNode {
    /// Total number of derivation steps.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(DerivationNode::size).sum::<usize>()
    }

    /// Depth of the tree.
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(DerivationNode::depth).max().unwrap_or(0)
    }

    /// Replays the derivation against the system, checking that every
    /// step's constraint holds under its recorded model and that the
    /// argument terms evaluate to the recorded samples. Used to
    /// validate counterexamples independently of the solver.
    pub fn replay(&self, sys: &ChcSystem) -> bool {
        let clause = sys.clause(self.clause);
        if !clause.constraint.eval(&self.model) {
            return false;
        }
        // head args must evaluate to our sample (goal roots carry the
        // goal-violating model instead of head args).
        if let (Some(_), ClauseHead::Pred(app)) = (&self.pred, &clause.head) {
            if app.eval_args(&self.model) != self.sample {
                return false;
            }
        }
        if let ClauseHead::Goal(g) = &clause.head {
            if self.pred.is_none() && g.eval(&self.model) {
                return false; // goal must be violated at the root
            }
        }
        if clause.body_preds.len() != self.children.len() {
            return false;
        }
        for (app, child) in clause.body_preds.iter().zip(self.children.iter()) {
            if Some(app.pred) != child.pred {
                return false;
            }
            if app.eval_args(&self.model) != child.sample {
                return false;
            }
            if !child.replay(sys) {
                return false;
            }
        }
        true
    }
}

/// Why the solver answered [`SolveResult::Unknown`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The wall-clock budget was exhausted.
    Timeout,
    /// The iteration cap was reached.
    IterationLimit,
    /// The SMT oracle answered unknown on a check.
    SmtUnknown,
    /// Learning failed (contradictory samples indicate an internal
    /// invariant violation; reported rather than panicking).
    LearnFailure(String),
}

/// Result of [`CegarSolver::solve`].
#[derive(Debug)]
pub enum SolveResult {
    /// The system is satisfiable; the interpretation validates every
    /// clause.
    Sat(Interpretation),
    /// The system is unsatisfiable; the derivation tree is a concrete
    /// counterexample.
    Unsat(DerivationNode),
    /// No verdict within budget.
    Unknown(UnknownReason),
}

impl SolveResult {
    /// Returns `true` for [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// Returns `true` for [`SolveResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat(_))
    }
}

/// Statistics of a solve run (feeds the paper's `#S` and `#A`
/// columns).
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// CEGAR refinement steps performed.
    pub iterations: usize,
    /// SMT validity checks issued (including ones answered without
    /// running the oracle; subtract `smt_checks_skipped` for the
    /// number of full oracle runs).
    pub smt_checks: usize,
    /// Checks answered without running the oracle: a cached
    /// countermodel still witnessed invalidity, or the head predicate
    /// was unconstrained (`true`) so the clause was trivially valid.
    pub smt_checks_skipped: usize,
    /// Guarded interpretation instantiations served from a clause
    /// context's cache instead of being re-encoded.
    pub ctx_reuse_hits: usize,
    /// CDCL clauses learned across all persistent clause contexts,
    /// over their lifetimes: a context that starts over keeps its
    /// totals (zero in [`OracleMode::Fresh`], whose learning is
    /// discarded after every check). The same holds for
    /// `simplex_pivots`, `theory_backtracks` and `db_reductions`.
    pub learned_clauses: usize,
    /// Total samples across predicates (the paper's `#S`).
    pub samples: usize,
    /// Positive samples across predicates.
    pub positive_samples: usize,
    /// Learner invocations.
    pub learn_calls: usize,
    /// Simplex pivots performed across all persistent clause contexts'
    /// warm theory tableaux.
    pub simplex_pivots: u64,
    /// Theory-level backtracks (assertion-frame pops) across all
    /// persistent clause contexts.
    pub theory_backtracks: u64,
    /// Clause-database reductions performed by the persistent CDCL
    /// cores.
    pub db_reductions: u64,
    /// Learned clauses still alive in the live contexts' CDCL databases
    /// after reduction (`learned_clauses` is the lifetime total).
    pub learned_db_size: usize,
    /// Symbolic seed planes harvested into the seed store (0 with
    /// seeding off).
    pub seeded_atoms: usize,
    /// Times the learner used a seed plane directly in place of a
    /// classifier run.
    pub seed_hits: u64,
    /// Always 0: seed planes are never retired. Kept only for readers
    /// that still sum it; not exported.
    pub seeds_pruned: usize,
    /// Always 0: every learner invocation runs the learner. Kept only
    /// for readers that still sum it; not exported.
    pub learn_memo_hits: usize,
    /// Negative samples imported from a warm-start snapshot (0 without
    /// [`SolverConfig::warm_start`]).
    pub warm_negatives: usize,
    /// Seed directions imported from a warm-start snapshot.
    pub warm_seed_dirs: usize,
}

impl SolveStats {
    /// Folds these statistics into a [`MetricsReport`] as `core.*`
    /// counters (the serde-free path from solver stats to JSON).
    pub fn export_into(&self, report: &mut MetricsReport) {
        report.set_counter("core.iterations", self.iterations as u64);
        report.set_counter("core.smt_checks", self.smt_checks as u64);
        report.set_counter("core.smt_checks_skipped", self.smt_checks_skipped as u64);
        report.set_counter("core.ctx_reuse_hits", self.ctx_reuse_hits as u64);
        report.set_counter("core.learned_clauses", self.learned_clauses as u64);
        report.set_counter("core.samples", self.samples as u64);
        report.set_counter("core.positive_samples", self.positive_samples as u64);
        report.set_counter("core.learn_calls", self.learn_calls as u64);
        report.set_counter("core.simplex_pivots", self.simplex_pivots);
        report.set_counter("core.theory_backtracks", self.theory_backtracks);
        report.set_counter("core.db_reductions", self.db_reductions);
        report.set_counter("core.learned_db_size", self.learned_db_size as u64);
        report.set_counter("core.seeded_atoms", self.seeded_atoms as u64);
        report.set_counter("core.seed_hits", self.seed_hits);
        report.set_counter("core.warm_negatives", self.warm_negatives as u64);
        report.set_counter("core.warm_seed_dirs", self.warm_seed_dirs as u64);
    }

    /// The statistics as a standalone JSON report.
    pub fn to_json(&self) -> String {
        let mut r = MetricsReport::default();
        self.export_into(&mut r);
        r.to_json()
    }
}

/// A persistent DPLL(T) context for one clause.
///
/// The clause constraint (and, for goal clauses, the negated goal) is
/// encoded once as a permanent assertion. Each distinct instantiated
/// interpretation piece — a body predicate's formula over the clause's
/// argument terms, or the negated head instantiation — is pushed once
/// under an activation literal and cached here by structural equality;
/// re-checking the clause under a partially-changed interpretation
/// re-assumes cached guards and encodes only the genuinely new pieces.
///
/// Retracted pieces stay encoded, so the context grows with every
/// interpretation it has seen. Once a check finds its SAT variable
/// count past [`ClauseContext::outgrown`]'s bound, it starts over from
/// its clause.
struct ClauseContext {
    solver: IncrementalSolver,
    guards: HashMap<Formula, Lit>,
    /// The countermodel from the last invalid check: re-evaluated
    /// before the next check, and if it still witnesses invalidity the
    /// oracle is skipped entirely.
    last_countermodel: Option<Model>,
    /// Lifetime totals of the solvers this context started over from.
    retired: OracleTotals,
}

/// Lifetime oracle totals of one clause context, folded into
/// [`SolveStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct OracleTotals {
    learned_clauses: u64,
    simplex_pivots: u64,
    theory_backtracks: u64,
    db_reductions: u64,
}

impl OracleTotals {
    fn of(solver: &IncrementalSolver) -> OracleTotals {
        OracleTotals {
            learned_clauses: solver.learned_clauses(),
            simplex_pivots: solver.num_simplex_pivots(),
            theory_backtracks: solver.num_theory_backtracks(),
            db_reductions: solver.num_db_reductions(),
        }
    }

    fn add(self, o: OracleTotals) -> OracleTotals {
        OracleTotals {
            learned_clauses: self.learned_clauses + o.learned_clauses,
            simplex_pivots: self.simplex_pivots + o.simplex_pivots,
            theory_backtracks: self.theory_backtracks + o.theory_backtracks,
            db_reductions: self.db_reductions + o.db_reductions,
        }
    }
}

impl ClauseContext {
    fn new(clause: &Clause) -> ClauseContext {
        ClauseContext {
            solver: Self::fresh_solver(clause),
            guards: HashMap::new(),
            last_countermodel: None,
            retired: OracleTotals::default(),
        }
    }

    fn fresh_solver(clause: &Clause) -> IncrementalSolver {
        let mut solver = IncrementalSolver::new();
        solver.assert_permanent(&clause.constraint);
        if let ClauseHead::Goal(g) = &clause.head {
            solver.assert_permanent(&Formula::not(g.clone()));
        }
        solver
    }

    /// Whether the context has outgrown its last check: its SAT
    /// variable count exceeds 8 × that check's live cone + 512.
    /// Every retracted piece keeps its gates, atoms and learned clauses
    /// in the CDCL core and its slack rows in the warm tableau, and
    /// each check pays for some of that (propagation over the whole
    /// clause database, branch-and-bound clones of the whole tableau).
    /// Once the context is far larger than what the check can use, a
    /// fresh one beats a warm bloated one. The form is that of the
    /// slack cap it replaces, tuned on an 11-benchmark suite: tighter
    /// caps forfeit real warm-start wins, an uncapped context times out
    /// the biggest instances. Keyed on solver state only, never wall
    /// time, so runs stay deterministic.
    fn outgrown(&self) -> bool {
        self.solver.num_vars() > 8 * self.solver.live_cone_len() + 512
    }

    /// Starts over from `clause`, keeping the lifetime totals.
    fn restart(&mut self, clause: &Clause) {
        let old = std::mem::replace(&mut self.solver, Self::fresh_solver(clause));
        self.retired = self.retired.add(OracleTotals::of(&old));
        self.guards.clear();
    }

    /// Lifetime totals, over every solver this context has used.
    fn totals(&self) -> OracleTotals {
        self.retired.add(OracleTotals::of(&self.solver))
    }
}

/// Warm-start state captured from a finished solve: the negative
/// sample stores and the harvested seed directions.
/// [`CegarSolver::snapshot`] captures it; [`SolverConfig::with_warm_start`]
/// replays it into a new solve, typically of a *different but
/// structurally similar* system (the serve daemon's near-miss tier).
///
/// Soundness: negatives only bias the learner (every `Sat` verdict is
/// still oracle-verified clause by clause, and `Unsat` derivations
/// are built exclusively from positives derived in-system), and seed
/// directions are purely advisory.
#[derive(Clone, Default)]
pub struct SolveSnapshot {
    /// Negative samples per predicate.
    pub negatives: Vec<(PredId, Sample)>,
    /// Seed-store directions per predicate.
    pub seed_dirs: Vec<(PredId, Vec<BigInt>)>,
}

impl SolveSnapshot {
    /// Whether the snapshot carries any state at all.
    pub fn is_empty(&self) -> bool {
        self.negatives.is_empty() && self.seed_dirs.is_empty()
    }

    /// Rewrites every predicate reference through `map` (producer id →
    /// consumer id), dropping entries whose predicate has no image —
    /// the bridge for transplanting a snapshot onto a different,
    /// structurally matched system (canonical indices on both sides
    /// define the map).
    pub fn remap_preds(&self, map: &HashMap<PredId, PredId>) -> SolveSnapshot {
        SolveSnapshot {
            negatives: self
                .negatives
                .iter()
                .filter_map(|(p, s)| map.get(p).map(|&np| (np, s.clone())))
                .collect(),
            seed_dirs: self
                .seed_dirs
                .iter()
                .filter_map(|(p, d)| map.get(p).map(|&np| (np, d.clone())))
                .collect(),
        }
    }
}

/// One SMT validity check of `clause` under `interp`, through the
/// oracle `mode`. The clause's persistent context (if any) travels
/// through `ctx_slot`.
fn oracle_check(
    sys: &ChcSystem,
    interp: &Interpretation,
    clause: &Clause,
    mode: OracleMode,
    ctx_slot: &mut Option<ClauseContext>,
    budget: &Budget,
    stats: &mut SolveStats,
) -> SmtResult {
    // The span covers skipped/cached answers too: "core.oracle" in
    // the metrics report is the loop's total oracle-side time.
    let mut span = linarb_trace::span(Level::Debug, "core", "core.oracle");
    stats.smt_checks += 1;
    let result = match mode {
        OracleMode::Fresh => check_sat(&sys.validity_check(clause, interp), budget),
        OracleMode::Incremental => {
            oracle_check_incremental(sys, interp, clause, ctx_slot, budget, stats)
        }
    };
    if span.active() {
        span.record("clause", clause.id.0);
        span.record("result", result.label());
    }
    result
}

fn oracle_check_incremental(
    sys: &ChcSystem,
    interp: &Interpretation,
    clause: &Clause,
    ctx_slot: &mut Option<ClauseContext>,
    budget: &Budget,
    stats: &mut SolveStats,
) -> SmtResult {
    // An unconstrained head (`true`) cannot be violated: the check
    // formula contains the conjunct ¬true.
    if let ClauseHead::Pred(app) = &clause.head {
        if !interp.contains_key(&app.pred) {
            stats.smt_checks_skipped += 1;
            return SmtResult::Unsat;
        }
    }
    let ctx = ctx_slot.get_or_insert_with(|| ClauseContext::new(clause));
    // Countermodel reuse: if the previous countermodel still
    // violates the clause under the *current* interpretation, it is
    // a valid answer and the oracle run is skipped. Two guards keep
    // the fast path from degrading sample quality: the model must
    // assign every variable of the current check (an under-
    // specified model would be zero-completed by `eval`, yielding
    // degenerate samples), and a cached model is served at most
    // once — `take()` clears it — so refinement never pins on one
    // stale point for many rounds.
    if let Some(m) = ctx.last_countermodel.take() {
        let chk = sys.validity_check(clause, interp);
        if chk.vars().iter().all(|v| m.get(*v).is_some()) && chk.eval(&m) {
            stats.smt_checks_skipped += 1;
            return SmtResult::Sat(m);
        }
    }
    // Assemble the interpretation-dependent pieces (body
    // instantiations, then the negated head) and their activation
    // literals, encoding only pieces this context has never seen.
    let instantiate = |app: &PredApp| {
        app.instantiate(ChcSystem::interp_of(interp, app.pred), &sys.pred(app.pred).params)
    };
    let head = match &clause.head {
        ClauseHead::Pred(app) => Some(Formula::not(instantiate(app))),
        ClauseHead::Goal(_) => None,
    };
    let mut active: Vec<Lit> = Vec::new();
    for piece in clause.body_preds.iter().map(instantiate).chain(head) {
        if matches!(piece, Formula::True) {
            continue;
        }
        let g = match ctx.guards.entry(piece) {
            Entry::Occupied(e) => {
                stats.ctx_reuse_hits += 1;
                *e.get()
            }
            Entry::Vacant(e) => {
                let g = ctx.solver.push_guarded(e.key());
                *e.insert(g)
            }
        };
        active.push(g);
    }
    let result = ctx.solver.check(&active, budget);
    if ctx.outgrown() {
        linarb_trace::metrics::counter("core.ctx_restarts", 1);
        ctx.restart(clause);
    }
    if let SmtResult::Sat(m) = &result {
        debug_assert!(
            sys.validity_check(clause, interp).eval(m),
            "incremental oracle must return genuine countermodels"
        );
        ctx.last_countermodel = Some(m.clone());
    }
    result
}

/// Returns the variable of a single-variable, unit-coefficient,
/// constant-free argument term, or `None` for anything richer.
fn plain_var(e: &LinExpr) -> Option<Var> {
    if !e.constant_term().is_zero() {
        return None;
    }
    let mut terms = e.terms();
    match (terms.next(), terms.next()) {
        (Some((v, c)), None) if c.is_one() => Some(v),
        _ => None,
    }
}

/// Harvests seed directions from the clauses themselves: for every
/// predicate application whose arguments include plain variables, each
/// atom of the clause constraint (and of the goal, for queries) over
/// those variables is a candidate separating direction in the
/// predicate's parameter space. Loop guards, initialization equalities
/// and safety properties all surface here.
fn harvest_clause_seeds(sys: &ChcSystem, seeds: &mut SeedStore) {
    for clause in sys.clauses() {
        let mut atoms: Vec<Atom> = clause.constraint.atoms();
        if let ClauseHead::Goal(g) = &clause.head {
            atoms.extend(g.atoms());
        }
        if atoms.is_empty() {
            continue;
        }
        let head_app = match &clause.head {
            ClauseHead::Pred(app) => Some(app),
            ClauseHead::Goal(_) => None,
        };
        for app in clause.body_preds.iter().chain(head_app) {
            // Map clause variables to the argument positions they
            // occupy (first occurrence wins).
            let mut pos: HashMap<Var, usize> = HashMap::new();
            for (i, arg) in app.args.iter().enumerate() {
                if let Some(v) = plain_var(arg) {
                    pos.entry(v).or_insert(i);
                }
            }
            if pos.is_empty() {
                continue;
            }
            for a in &atoms {
                let expr = a.expr();
                if expr.vars().any(|v| !pos.contains_key(&v)) {
                    continue;
                }
                let mut dir = vec![BigInt::zero(); app.args.len()];
                for (v, &i) in &pos {
                    dir[i] = expr.coeff(*v);
                }
                seeds.add_dir(app.pred, dir);
            }
        }
    }
}

/// The data-driven CHC solver.
pub struct CegarSolver<'a> {
    sys: &'a ChcSystem,
    config: SolverConfig,
    interp: Interpretation,
    data: HashMap<PredId, Dataset>,
    /// Justification of each positive sample: the deriving clause, the
    /// body samples it consumed, and the witnessing model.
    justif: HashMap<(PredId, Sample), (ClauseId, Vec<(PredId, Sample)>, Model)>,
    /// Persistent per-clause oracle contexts ([`OracleMode::Incremental`]).
    contexts: HashMap<ClauseId, ClauseContext>,
    stats: SolveStats,
    /// Symbolic seed planes per predicate (empty when seeding is off).
    seeds: SeedStore,
    /// Cumulative oracle-phase micros this solve, reported through
    /// [`ProgressReporter`]. Wall-clock — never feeds back into the
    /// trajectory.
    phase_oracle_us: u64,
    /// Cumulative resolve-phase micros this solve (sample extraction,
    /// learning, interpretation updates).
    phase_resolve_us: u64,
    /// CEGAR rounds completed (frontier drains).
    round: u64,
}

impl<'a> CegarSolver<'a> {
    /// Creates a solver for the given system.
    pub fn new(sys: &'a ChcSystem, config: SolverConfig) -> CegarSolver<'a> {
        let mut data: HashMap<PredId, Dataset> = sys
            .preds()
            .iter()
            .map(|p| (p.id, Dataset::new(p.arity())))
            .collect();
        let mut stats = SolveStats::default();
        let warm = config.warm_start.clone();
        let mut seeds = SeedStore::new();
        if config.seeding {
            harvest_clause_seeds(sys, &mut seeds);
            for (p, dir) in sys.seed_hints() {
                if dir.len() == sys.pred(*p).params.len() {
                    seeds.add_dir(*p, dir.clone());
                }
            }
            for (p, atom) in &config.seed_atoms {
                seeds.add_atom(*p, atom, &sys.pred(*p).params);
            }
            // Warm-start directions join before pairwise closure so
            // imported planes combine with the syntactic harvest.
            if let Some(ws) = &warm {
                let importable: Vec<(PredId, Vec<BigInt>)> = ws
                    .seed_dirs
                    .iter()
                    .filter(|(p, dir)| {
                        (p.0 as usize) < sys.num_preds()
                            && dir.len() == sys.pred(*p).params.len()
                    })
                    .cloned()
                    .collect();
                stats.warm_seed_dirs = seeds.import_dirs(&importable);
            }
            seeds.combine_pairs();
        }
        if let Some(ws) = &warm {
            for (p, sample) in &ws.negatives {
                if let Some(d) = data.get_mut(p) {
                    if d.dim() == sample.len() && d.add_negative(sample.clone()) {
                        stats.warm_negatives += 1;
                    }
                }
            }
        }
        CegarSolver {
            sys,
            config,
            interp: Interpretation::new(),
            data,
            justif: HashMap::new(),
            contexts: HashMap::new(),
            stats,
            seeds,
            phase_oracle_us: 0,
            phase_resolve_us: 0,
            round: 0,
        }
    }

    /// Captures the warm-start state of this solve (see
    /// [`SolveSnapshot`]): the negative sample stores and the seed
    /// directions. Deterministic — entries are ordered by predicate
    /// id. Cheap relative to a solve (clones of already-built state);
    /// call it after [`solve`](Self::solve) returns.
    pub fn snapshot(&self) -> SolveSnapshot {
        let mut negatives = Vec::new();
        let mut preds: Vec<PredId> = self.data.keys().copied().collect();
        preds.sort();
        for p in &preds {
            for sample in self.data[p].negatives() {
                negatives.push((*p, sample.clone()));
            }
        }
        let mut seed_dirs = Vec::new();
        for p in self.sys.preds() {
            for plane in self.seeds.planes(p.id) {
                seed_dirs.push((p.id, plane.dir().to_vec()));
            }
        }
        SolveSnapshot { negatives, seed_dirs }
    }

    /// Statistics of the last [`solve`](Self::solve) run.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The current interpretation (meaningful after a `Sat` result).
    pub fn interpretation(&self) -> &Interpretation {
        &self.interp
    }

    /// Runs Algorithm 3 to completion (or budget exhaustion).
    pub fn solve(&mut self, budget: &Budget) -> SolveResult {
        let mut span = linarb_trace::span(Level::Info, "core", "cegar.solve");
        if span.active() {
            span.record("clauses", self.sys.clauses().len());
            span.record("preds", self.sys.preds().len());
        }
        let result = self.solve_inner(budget);
        if span.active() {
            span.record("result", match &result {
                SolveResult::Sat(_) => "sat",
                SolveResult::Unsat(_) => "unsat",
                SolveResult::Unknown(_) => "unknown",
            });
            span.record("iterations", self.stats.iterations);
            span.record("samples", self.stats.samples);
        }
        result
    }

    fn solve_inner(&mut self, budget: &Budget) -> SolveResult {
        // Dirty-set scheduling: a clause needs (re)checking iff the
        // interpretation of a predicate it mentions changed. Work
        // proceeds in rounds: each round drains the dirty queue in
        // FIFO dirtying order — the order the resolutions enqueued
        // clauses in, which preserves the paper's propagation
        // preference (consumers of a weakened head before the clause
        // that weakened it) — and refines each frontier clause until
        // it is valid. Round boundaries are where progress snapshots
        // are emitted.
        let mut dirty: VecDeque<ClauseId> =
            self.sys.clauses().iter().map(|c| c.id).collect();
        let mut dirty_set: HashSet<ClauseId> = dirty.iter().copied().collect();
        self.round = 0;
        self.phase_oracle_us = 0;
        self.phase_resolve_us = 0;

        while !dirty.is_empty() {
            if budget.exhausted() {
                self.finalize_stats();
                return SolveResult::Unknown(UnknownReason::Timeout);
            }
            self.round += 1;
            if self.config.progress.is_some() {
                let snap = self.progress_snapshot(dirty.len(), budget);
                // Re-borrow: snapshot assembly needs `&self`.
                if let Some(p) = &self.config.progress {
                    p.emit(&snap);
                }
            }
            let frontier: Vec<ClauseId> = dirty.drain(..).collect();
            // Note: `dirty_set` keeps the frontier clauses until each
            // one's turn, so mid-round dirtying of a clause that is
            // still pending this round stays a no-op.
            for cid in frontier {
                dirty_set.remove(&cid);
                let clause = self.sys.clause(cid);
                // Inner loop: resolve this clause until valid.
                loop {
                    self.stats.iterations += 1;
                    event!(Level::Debug, "core", "cegar.iteration",
                        "n" => self.stats.iterations, "clause" => clause.id.0);
                    if self.stats.iterations > self.config.max_iterations {
                        self.finalize_stats();
                        return SolveResult::Unknown(UnknownReason::IterationLimit);
                    }
                    if budget.exhausted() {
                        self.finalize_stats();
                        return SolveResult::Unknown(UnknownReason::Timeout);
                    }
                    let oracle_start = Instant::now();
                    let result = self.check_clause(clause, budget);
                    self.phase_oracle_us += oracle_start.elapsed().as_micros() as u64;
                    let model = match result {
                        SmtResult::Unsat => break, // clause valid
                        SmtResult::Unknown => {
                            self.finalize_stats();
                            // A check cut short by the deadline or a
                            // cancel is a timeout, not an oracle give-up.
                            let reason = if budget.exhausted() {
                                UnknownReason::Timeout
                            } else {
                                UnknownReason::SmtUnknown
                            };
                            return SolveResult::Unknown(reason);
                        }
                        SmtResult::Sat(m) => m,
                    };
                    let resolve_start = Instant::now();
                    let resolution = self.resolve(clause, model);
                    self.phase_resolve_us += resolve_start.elapsed().as_micros() as u64;
                    match resolution {
                        Resolution::HeadWeakened(h) => {
                            // Re-queue clauses mentioning h; prefer the
                            // clauses that consume h in the body (the
                            // paper's propagation order) by pushing this
                            // clause last.
                            self.mark_dirty(h, &mut dirty, &mut dirty_set);
                            if dirty_set.insert(cid) {
                                dirty.push_back(cid);
                            }
                            break;
                        }
                        Resolution::BodyStrengthened(changed) => {
                            for p in changed {
                                self.mark_dirty(p, &mut dirty, &mut dirty_set);
                            }
                            // keep refining this same clause (inner loop)
                        }
                        Resolution::Refuted(tree) => return SolveResult::Unsat(tree),
                        Resolution::Failed(reason) => {
                            self.finalize_stats();
                            return SolveResult::Unknown(reason);
                        }
                    }
                }
            }
        }
        // Every clause validated.
        self.finalize_stats();
        SolveResult::Sat(self.interp.clone())
    }

    /// Assembles the per-round [`ProgressSnapshot`] (round barrier
    /// state + cumulative phase timers). Only called when a reporter
    /// is attached, so the store walks cost nothing by default.
    fn progress_snapshot(&self, frontier: usize, budget: &Budget) -> ProgressSnapshot {
        ProgressSnapshot {
            round: self.round,
            iterations: self.stats.iterations,
            frontier,
            samples: self.data.values().map(Dataset::len).sum(),
            positive_samples: self.data.values().map(Dataset::num_positive).sum(),
            interp_preds: self.interp.len(),
            learned_db_size: self
                .contexts
                .values()
                .map(|c| c.solver.learned_db_size() as u64)
                .sum(),
            seeds_added: self.seeds.total_added(),
            seed_version_sum: self
                .sys
                .preds()
                .iter()
                .map(|p| self.seeds.version(p.id))
                .sum(),
            oracle_us: self.phase_oracle_us,
            resolve_us: self.phase_resolve_us,
            time_left_ms: budget.remaining().map(|d| d.as_millis() as u64),
        }
    }

    fn finalize_stats(&mut self) {
        self.stats.samples = self.data.values().map(Dataset::len).sum();
        self.stats.positive_samples =
            self.data.values().map(Dataset::num_positive).sum();
        let totals = self
            .contexts
            .values()
            .fold(OracleTotals::default(), |t, c| t.add(c.totals()));
        self.stats.learned_clauses = totals.learned_clauses as usize;
        self.stats.simplex_pivots = totals.simplex_pivots;
        self.stats.theory_backtracks = totals.theory_backtracks;
        self.stats.db_reductions = totals.db_reductions;
        self.stats.learned_db_size = self
            .contexts
            .values()
            .map(|c| c.solver.learned_db_size())
            .sum();
        self.stats.seeded_atoms = self.seeds.total_added();
        self.stats.seed_hits = self.seeds.total_hits();
    }

    /// One SMT validity check of `clause` under the current
    /// interpretation, through the configured oracle.
    fn check_clause(&mut self, clause: &Clause, budget: &Budget) -> SmtResult {
        let mut slot = self.contexts.remove(&clause.id);
        let result = oracle_check(
            self.sys,
            &self.interp,
            clause,
            self.config.oracle,
            &mut slot,
            budget,
            &mut self.stats,
        );
        if let Some(ctx) = slot {
            self.contexts.insert(clause.id, ctx);
        }
        result
    }

    fn mark_dirty(
        &self,
        pred: PredId,
        dirty: &mut VecDeque<ClauseId>,
        dirty_set: &mut HashSet<ClauseId>,
    ) {
        for c in self.sys.clauses() {
            let mentions = c.body_preds.iter().any(|a| a.pred == pred)
                || matches!(&c.head, ClauseHead::Pred(a) if a.pred == pred);
            if mentions && dirty_set.insert(c.id) {
                dirty.push_back(c.id);
            }
        }
    }

    fn resolve(&mut self, clause: &Clause, model: Model) -> Resolution {
        // Convert the countermodel into samples (Z3Eval).
        let body_samples: Vec<(PredId, Sample)> = {
            let _sp = linarb_trace::span(Level::Trace, "core", "core.sample_extraction");
            clause
                .body_preds
                .iter()
                .map(|app| (app.pred, app.eval_args(&model)))
                .collect()
        };
        let all_positive = body_samples
            .iter()
            .all(|(p, s)| self.data[p].contains_positive(s));

        if all_positive {
            match &clause.head {
                ClauseHead::Pred(app) => {
                    // Weaken the head: record the derived positive
                    // sample, clear negatives, reset to `true`.
                    let h = app.pred;
                    let sh = app.eval_args(&model);
                    let ds = self.data.get_mut(&h).expect("declared");
                    ds.add_positive(sh.clone());
                    ds.clear_negatives();
                    self.justif
                        .entry((h, sh))
                        .or_insert((clause.id, body_samples, model));
                    self.interp.remove(&h); // back to `true`
                    event!(Level::Debug, "core", "cegar.head_weakened",
                        "clause" => clause.id.0, "pred" => h.0);
                    Resolution::HeadWeakened(h)
                }
                ClauseHead::Goal(_) => {
                    // A derivable configuration violates the goal: the
                    // system is unsatisfiable.
                    let children: Vec<DerivationNode> = body_samples
                        .iter()
                        .map(|(p, s)| self.build_derivation(*p, s))
                        .collect();
                    self.finalize_stats();
                    event!(Level::Info, "core", "cegar.refuted", "clause" => clause.id.0);
                    Resolution::Refuted(DerivationNode {
                        pred: None,
                        sample: Vec::new(),
                        clause: clause.id,
                        model,
                        children,
                    })
                }
            }
        } else {
            // Strengthen: unknown body samples become negatives.
            let mut changed = Vec::new();
            for (p, s) in &body_samples {
                if !self.data[p].contains_positive(s) {
                    let ds = self.data.get_mut(p).expect("declared");
                    if ds.add_negative(s.clone()) && !changed.contains(p) {
                        changed.push(*p);
                    }
                }
            }
            if changed.is_empty() {
                // All body samples known (possible when a negative was
                // re-derived); re-learn every body predicate to force
                // progress.
                changed = body_samples.iter().map(|(p, _)| *p).collect();
                changed.dedup();
            }
            let mut span = linarb_trace::span(Level::Debug, "core", "core.learner");
            if span.active() {
                span.record("clause", clause.id.0);
                span.record("preds", changed.len());
            }
            for p in &changed {
                let pred = self.sys.pred(*p);
                let ds = &self.data[p];
                self.stats.learn_calls += 1;
                let learned = {
                    let planes: &[SeedPlane] = if self.config.seeding {
                        self.seeds.planes(*p)
                    } else {
                        &[]
                    };
                    self.config.learner.learn_seeded(ds, &pred.params, planes)
                };
                match learned {
                    Ok((f, hits)) => {
                        for i in hits {
                            self.seeds.note_hit(*p, i);
                        }
                        self.interp.insert(*p, f);
                    }
                    Err(LearnError::ContradictorySamples(s)) => {
                        return Resolution::Failed(UnknownReason::LearnFailure(format!(
                            "contradictory samples for {}: {s:?}",
                            pred.name
                        )))
                    }
                    Err(e) => {
                        return Resolution::Failed(UnknownReason::LearnFailure(e.to_string()))
                    }
                }
            }
            drop(span);
            event!(Level::Debug, "core", "cegar.body_strengthened",
                "clause" => clause.id.0, "preds" => changed.len());
            Resolution::BodyStrengthened(changed)
        }
    }

    fn build_derivation(&self, pred: PredId, sample: &Sample) -> DerivationNode {
        match self.justif.get(&(pred, sample.clone())) {
            Some((clause, body, model)) => DerivationNode {
                pred: Some(pred),
                sample: sample.clone(),
                clause: *clause,
                model: model.clone(),
                children: body
                    .iter()
                    .map(|(p, s)| self.build_derivation(*p, s))
                    .collect(),
            },
            None => unreachable!("positive samples always carry a justification"),
        }
    }

    /// The paper's `#A` column: for the final interpretation of each
    /// predicate, the number of conjuncts in each disjunct of the
    /// DNF-shaped formula.
    pub fn interpretation_shape(&self) -> HashMap<PredId, Vec<usize>> {
        self.interp
            .iter()
            .map(|(p, f)| (*p, disjunct_sizes(f)))
            .collect()
    }
}

/// Number of atoms in each top-level disjunct of a formula.
pub fn disjunct_sizes(f: &Formula) -> Vec<usize> {
    fn conjuncts(f: &Formula) -> usize {
        match f {
            Formula::And(fs) => fs.iter().map(conjuncts).sum(),
            Formula::True | Formula::False => 0,
            _ => 1,
        }
    }
    match f {
        Formula::Or(fs) => fs.iter().map(conjuncts).collect(),
        other => vec![conjuncts(other)],
    }
}

enum Resolution {
    HeadWeakened(PredId),
    BodyStrengthened(Vec<PredId>),
    Refuted(DerivationNode),
    Failed(UnknownReason),
}

impl fmt::Debug for CegarSolver<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CegarSolver {{ preds: {}, clauses: {}, iterations: {} }}",
            self.sys.num_preds(),
            self.sys.num_clauses(),
            self.stats.iterations
        )
    }
}

/// Verifies that an interpretation validates every clause of a system
/// (an independent soundness check used by tests and benches).
pub fn verify_interpretation(
    sys: &ChcSystem,
    interp: &Interpretation,
    budget: &Budget,
) -> Option<bool> {
    for c in sys.clauses() {
        let chk = sys.validity_check(c, interp);
        match check_sat(&chk, budget) {
            SmtResult::Unsat => {}
            SmtResult::Sat(_) => return Some(false),
            SmtResult::Unknown => return None,
        }
    }
    Some(true)
}

/// Convenience: parse-free entry point used by examples and benches.
pub fn solve_system(sys: &ChcSystem, config: SolverConfig, budget: &Budget) -> SolveResult {
    CegarSolver::new(sys, config).solve(budget)
}

// `BigInt` appears in the public `Sample` type alias.
#[doc(hidden)]
pub type _SampleElem = BigInt;

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_logic::parse_chc;

    fn solve_text(text: &str) -> (SolveResult, SolveStats) {
        let sys = parse_chc(text).expect("parse");
        let mut solver = CegarSolver::new(&sys, SolverConfig::default());
        let r = solver.solve(&Budget::unlimited());
        // Independent soundness check for SAT results.
        if let SolveResult::Sat(interp) = &r {
            assert_eq!(
                verify_interpretation(&sys, interp, &Budget::unlimited()),
                Some(true),
                "returned interpretation must validate every clause"
            );
        }
        if let SolveResult::Unsat(tree) = &r {
            assert!(tree.replay(&sys), "counterexample must replay");
        }
        (r, solver.stats().clone())
    }

    const FIG1: &str = r#"
        (declare-fun p (Int Int) Bool)
        (assert (forall ((x Int) (y Int))
            (=> (and (= x 1) (= y 0)) (p x y))))
        (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
            (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
        (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
            (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (>= x1 y1))))
        (assert (forall ((x Int) (y Int))
            (=> (and (= x 1) (= y 0)) (>= x y))))
    "#;

    #[test]
    fn fig1_verifies() {
        let (r, stats) = solve_text(FIG1);
        assert!(r.is_sat(), "{r:?}");
        assert!(stats.samples > 0);
    }

    #[test]
    fn fig1_unsafe_variant_refuted() {
        // strengthen the property to x > y, which fails at (1, 1)
        let text = FIG1.replace("(>= x1 y1)", "(> x1 y1)");
        let (r, _) = solve_text(&text);
        assert!(r.is_unsat(), "{r:?}");
        if let SolveResult::Unsat(tree) = r {
            assert!(tree.depth() >= 1);
        }
    }

    #[test]
    fn trivially_safe_no_predicates() {
        let (r, _) = solve_text("(assert (forall ((x Int)) (=> (> x 0) (>= x 1))))");
        assert!(r.is_sat());
    }

    #[test]
    fn trivially_unsafe_no_predicates() {
        let (r, _) = solve_text("(assert (forall ((x Int)) (=> (> x 0) (>= x 2))))");
        assert!(r.is_unsat(), "{r:?}");
    }

    #[test]
    fn simple_counter_loop() {
        // i := 0; while (i < 10) i++; assert i == 10
        let text = r#"
            (declare-fun inv (Int) Bool)
            (assert (forall ((i Int)) (=> (= i 0) (inv i))))
            (assert (forall ((i Int) (i1 Int))
                (=> (and (inv i) (< i 10) (= i1 (+ i 1))) (inv i1))))
            (assert (forall ((i Int))
                (=> (and (inv i) (>= i 10)) (= i 10))))
        "#;
        let (r, _) = solve_text(text);
        assert!(r.is_sat(), "{r:?}");
    }

    #[test]
    fn fibonacci_recursion() {
        // Program (c) of the paper: fibo with y >= x - 1.
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
                (=> (p x y) (>= y (- x 1)))))
        "#;
        let (r, stats) = solve_text(text);
        assert!(r.is_sat(), "{r:?}");
        assert!(stats.positive_samples > 0, "recursion must generate derivations");
    }

    #[test]
    fn unsafe_recursion_produces_derivation_tree() {
        // claim fibo(x) >= x, false at x = 1 (fib(1)=1>=1 ok) -> x=2:
        // fib(2) = 1 < 2. Non-linear derivation expected.
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
        let (r, _) = solve_text(text);
        match r {
            SolveResult::Unsat(tree) => {
                assert!(tree.size() >= 2, "needs at least one real derivation step");
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    const TWO_PREDS: &str = r#"
        (declare-fun a (Int) Bool)
        (declare-fun b (Int) Bool)
        (assert (forall ((x Int)) (=> (= x 0) (a x))))
        (assert (forall ((x Int) (x1 Int))
            (=> (and (a x) (< x 5) (= x1 (+ x 1))) (a x1))))
        (assert (forall ((x Int)) (=> (and (a x) (>= x 5)) (b x))))
        (assert (forall ((x Int) (x1 Int))
            (=> (and (b x) (= x1 (- x 1)) (> x 0)) (b x1))))
        (assert (forall ((x Int)) (=> (b x) (>= x 0))))
    "#;

    #[test]
    fn two_predicates_chained() {
        let (r, _) = solve_text(TWO_PREDS);
        assert!(r.is_sat(), "{r:?}");
    }

    #[test]
    fn snapshot_remap_renames_kept_pred_and_drops_the_rest() {
        // A goal on each predicate gives both of them negatives.
        let text = format!("{TWO_PREDS}(assert (forall ((x Int)) (=> (a x) (<= x 5))))");
        let sys = parse_chc(&text).unwrap();
        let (a, b) = (PredId(0), PredId(1));
        assert_eq!(sys.pred(b).name, "b");
        let mut solver = CegarSolver::new(&sys, SolverConfig::default().with_seeding(true));
        assert!(solver.solve(&Budget::unlimited()).is_sat());
        let snap = solver.snapshot();
        let of = |snap: &SolveSnapshot, p: PredId| {
            let negs: Vec<Sample> =
                snap.negatives.iter().filter(|(q, _)| *q == p).map(|(_, s)| s.clone()).collect();
            let dirs: Vec<Vec<BigInt>> =
                snap.seed_dirs.iter().filter(|(q, _)| *q == p).map(|(_, d)| d.clone()).collect();
            (negs, dirs)
        };
        let (a_negs, a_dirs) = of(&snap, a);
        let (b_negs, b_dirs) = of(&snap, b);
        for (negs, dirs) in [(&a_negs, &a_dirs), (&b_negs, &b_dirs)] {
            assert!(!negs.is_empty() && !dirs.is_empty(), "both preds carry both kinds");
        }

        // `b` moves to a fresh id; `a` has no image.
        let moved = PredId(7);
        let remapped = snap.remap_preds(&HashMap::from([(b, moved)]));
        assert_eq!(of(&remapped, moved), (b_negs, b_dirs));
        assert!(remapped.negatives.iter().all(|(p, _)| *p == moved), "a's negatives remain");
        assert!(remapped.seed_dirs.iter().all(|(p, _)| *p == moved), "a's directions remain");
    }

    #[test]
    fn disjunctive_invariant_program_a() {
        // Program (a) from the paper: x=0, y=*; while (y != 0) {...}
        // assert x != 0 inside the loop after update.
        // CHC encoding with invariant at loop head.
        let text = r#"
            (declare-fun inv (Int Int) Bool)
            (assert (forall ((x Int) (y Int)) (=> (= x 0) (inv x y))))
            (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
                (=> (and (inv x y) (distinct y 0)
                         (or (and (< y 0) (= x1 (- x 1)) (= y1 (+ y 1)))
                             (and (>= y 0) (= x1 (+ x 1)) (= y1 (- y 1)))))
                    (inv x1 y1))))
            (assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
                (=> (and (inv x y) (distinct y 0)
                         (or (and (< y 0) (= x1 (- x 1)) (= y1 (+ y 1)))
                             (and (>= y 0) (= x1 (+ x 1)) (= y1 (- y 1))))
                         (distinct y1 0))
                    (distinct x1 0))))
        "#;
        let (r, _) = solve_text(text);
        assert!(r.is_sat(), "program (a) needs a disjunctive invariant: {r:?}");
    }

    #[test]
    fn restarted_context_keeps_lifetime_totals() {
        // A clause checked under 400 distinct interpretations grows its
        // context past the restart bound; the lifetime totals folded
        // into `SolveStats` must never drop across a restart.
        let sys = parse_chc(
            "(declare-fun p (Int) Bool)
             (assert (forall ((x Int) (x1 Int))
                 (=> (and (p x) (= x1 (+ x 1))) (p x1))))",
        )
        .expect("parse");
        let clause = &sys.clauses()[0];
        let pred = clause.body_preds[0].pred;
        let param = LinExpr::var(sys.pred(pred).params[0]);
        let budget = Budget::unlimited();
        let mut stats = SolveStats::default();
        let mut slot = None;
        let (mut prev, mut prev_vars, mut restarts) = (OracleTotals::default(), 0, 0);
        for k in 0..400i64 {
            // x >= k is inductive (an unsat check), x <= k is not.
            let bound = LinExpr::constant(linarb_arith::int(k));
            let atom = if k % 2 == 0 {
                Atom::ge(param.clone(), bound)
            } else {
                Atom::le(param.clone(), bound)
            };
            let interp: Interpretation = [(pred, Formula::from(atom))].into_iter().collect();
            let r = oracle_check(
                &sys,
                &interp,
                clause,
                OracleMode::Incremental,
                &mut slot,
                &budget,
                &mut stats,
            );
            assert_eq!(r.is_unsat(), k % 2 == 0, "k = {k}");
            let ctx = slot.as_ref().expect("context");
            let t = ctx.totals();
            assert!(t.learned_clauses >= prev.learned_clauses, "k = {k}");
            assert!(t.simplex_pivots >= prev.simplex_pivots, "k = {k}");
            assert!(t.theory_backtracks >= prev.theory_backtracks, "k = {k}");
            assert!(t.db_reductions >= prev.db_reductions, "k = {k}");
            if ctx.solver.num_vars() < prev_vars {
                restarts += 1;
                assert_ne!(ctx.retired, OracleTotals::default(), "k = {k}");
            }
            (prev, prev_vars) = (t, ctx.solver.num_vars());
        }
        assert!(restarts >= 1, "the context never started over");
        assert!(prev.learned_clauses > 0 && prev.simplex_pivots > 0 && prev.theory_backtracks > 0);
    }

    #[test]
    fn stats_populated() {
        let (_, stats) = solve_text(FIG1);
        assert!(stats.iterations > 0);
        assert!(stats.smt_checks > 0);
    }

    #[test]
    fn interpretation_shape_reports_disjuncts() {
        let sys = parse_chc(FIG1).unwrap();
        let mut solver = CegarSolver::new(&sys, SolverConfig::default());
        let r = solver.solve(&Budget::unlimited());
        assert!(r.is_sat());
        let shape = solver.interpretation_shape();
        for sizes in shape.values() {
            assert!(!sizes.is_empty());
        }
    }

    #[test]
    fn ablation_without_dt_still_solves_simple() {
        let sys = parse_chc(FIG1).unwrap();
        let mut lc = LearnConfig::default();
        lc.use_decision_tree = false;
        let config = SolverConfig::with_learn_config(lc);
        let mut solver = CegarSolver::new(&sys, config);
        let r = solver.solve(&Budget::unlimited());
        // Without DT generalization this may need more iterations but
        // should still solve Fig. 1 (or at worst hit the cap).
        assert!(
            r.is_sat() || matches!(r, SolveResult::Unknown(_)),
            "must not report unsat: {r:?}"
        );
    }

    #[test]
    fn iteration_limit_respected() {
        let sys = parse_chc(FIG1).unwrap();
        let config = SolverConfig { max_iterations: 1, ..SolverConfig::default() };
        let mut solver = CegarSolver::new(&sys, config);
        match solver.solve(&Budget::unlimited()) {
            SolveResult::Unknown(UnknownReason::IterationLimit) => {}
            other => panic!("expected iteration limit, got {other:?}"),
        }
    }
}

/// Simplifies a satisfying interpretation by dropping redundant
/// pieces: each predicate's formula is pruned (top-level disjuncts,
/// then conjuncts inside them) as long as the whole interpretation
/// still validates every clause.
///
/// Returns the simplified interpretation; the result is guaranteed to
/// validate the system (checked incrementally during pruning).
pub fn simplify_interpretation(
    sys: &ChcSystem,
    interp: &Interpretation,
    budget: &Budget,
) -> Interpretation {
    let mut current = interp.clone();
    let preds: Vec<PredId> = current.keys().copied().collect();
    for p in preds {
        let formula = current[&p].clone();
        // candidate reductions: drop one top-level disjunct, or one
        // conjunct of a disjunct
        let mut best = formula.clone();
        loop {
            let mut improved = false;
            for candidate in reductions(&best) {
                if candidate.size() >= best.size() {
                    continue;
                }
                let mut trial = current.clone();
                trial.insert(p, candidate.clone());
                if verify_interpretation(sys, &trial, budget) == Some(true) {
                    best = candidate;
                    improved = true;
                    break;
                }
            }
            if !improved || budget.exhausted() {
                break;
            }
        }
        current.insert(p, best);
    }
    current
}

/// One-step structural reductions of a formula: remove a disjunct,
/// remove a conjunct, or replace the whole thing with `true`.
fn reductions(f: &Formula) -> Vec<Formula> {
    let mut out = vec![Formula::True];
    match f {
        Formula::Or(fs) => {
            for i in 0..fs.len() {
                let mut rest = fs.clone();
                rest.remove(i);
                out.push(Formula::or(rest));
            }
            // also try reducing inside each disjunct
            for (i, g) in fs.iter().enumerate() {
                for r in reductions(g) {
                    if matches!(r, Formula::True) {
                        continue;
                    }
                    let mut rest = fs.clone();
                    rest[i] = r;
                    out.push(Formula::or(rest));
                }
            }
        }
        Formula::And(fs) => {
            for i in 0..fs.len() {
                let mut rest = fs.clone();
                rest.remove(i);
                out.push(Formula::and(rest));
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod simplify_tests {
    use super::*;
    use linarb_logic::parse_chc;

    #[test]
    fn simplification_keeps_validity_and_shrinks() {
        let sys = parse_chc(
            r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((x Int)) (=> (= x 0) (p x))))
            (assert (forall ((x Int) (x1 Int))
                (=> (and (p x) (< x 5) (= x1 (+ x 1))) (p x1))))
            (assert (forall ((x Int)) (=> (p x) (<= x 5))))
        "#,
        )
        .unwrap();
        let mut solver = CegarSolver::new(&sys, SolverConfig::default());
        let SolveResult::Sat(interp) = solver.solve(&Budget::unlimited()) else {
            panic!("must verify");
        };
        let simplified = simplify_interpretation(&sys, &interp, &Budget::unlimited());
        assert_eq!(
            verify_interpretation(&sys, &simplified, &Budget::unlimited()),
            Some(true)
        );
        let before: usize = interp.values().map(Formula::size).sum();
        let after: usize = simplified.values().map(Formula::size).sum();
        assert!(after <= before, "simplification must not grow ({before} -> {after})");
    }

    #[test]
    fn trivial_interpretation_becomes_true_if_sufficient() {
        // query valid under `true` already: simplifier collapses to true
        let sys = parse_chc(
            r#"
            (declare-fun p (Int) Bool)
            (assert (forall ((x Int)) (=> (> x 0) (p x))))
            (assert (forall ((x Int)) (=> (p x) (>= x (- 100)))))
        "#,
        )
        .unwrap();
        // build an over-complicated interpretation by hand
        let p = sys.pred_by_name("p").unwrap();
        let param = p.params[0];
        use linarb_arith::int;
        use linarb_logic::{Atom, LinExpr};
        let complicated: Interpretation = [(
            p.id,
            Formula::and(vec![
                Formula::from(Atom::ge(LinExpr::var(param), LinExpr::constant(int(-100)))),
                Formula::from(Atom::le(LinExpr::var(param), LinExpr::constant(int(1_000_000)))),
            ]),
        )]
        .into_iter()
        .collect();
        // note: `complicated` is NOT valid here (p must cover all x>0,
        // and it does: x>0 -> x>=-100 and x <= 1000000? NO — x can be
        // 2000000). Use a valid one:
        let valid: Interpretation = [(
            p.id,
            Formula::and(vec![
                Formula::from(Atom::ge(LinExpr::var(param), LinExpr::constant(int(-100)))),
                Formula::from(Atom::ge(LinExpr::var(param), LinExpr::constant(int(-50)))),
            ]),
        )]
        .into_iter()
        .collect();
        let _ = complicated;
        assert_eq!(verify_interpretation(&sys, &valid, &Budget::unlimited()), Some(true));
        let simplified = simplify_interpretation(&sys, &valid, &Budget::unlimited());
        let f = &simplified[&p.id];
        assert!(f.size() <= 1, "should collapse to a single atom or true, got {f}");
    }
}

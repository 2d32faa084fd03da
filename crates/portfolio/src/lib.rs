//! Portfolio CHC driver: race diverse engines, first *checkable
//! certificate* wins.
//!
//! CHC-COMP-winning solvers are portfolios: no single engine dominates
//! across program shapes, so the fastest correct answer comes from
//! racing a diverse set under one budget. This crate races the
//! data-driven CEGAR solver (the paper's tool) against the baseline
//! engines from `linarb-baselines` — PDR/Spacer, BMC, unwinding
//! interpolation, and the PIE-/DIG-learner CEGAR variants — on scoped
//! threads ([`parallel_map`]).
//!
//! Three design decisions:
//!
//! * **Shared budget, cooperative cancellation.** Every engine polls
//!   the same [`Budget`] carrying one [`CancelToken`]; the first
//!   engine to produce a *certified* verdict flips the token and every
//!   loser winds down at its next poll site (the same sites that
//!   observe deadlines).
//! * **First checkable certificate, not first verdict.** An engine
//!   wins only if its answer survives an independent check: a SAT
//!   interpretation is verified clause-by-clause
//!   ([`verify_interpretation`]), an UNSAT derivation is replayed
//!   concretely ([`DerivationNode::replay`]). A racing engine with a
//!   soundness bug (or an interpolation `Unsat` whose trace cannot be
//!   reconstructed) therefore cannot poison the portfolio verdict —
//!   it just loses.
//! * **One engine per solver family first.** Engines start in *start
//!   order*: the first engine of each family (the CEGAR loop, PDR, BMC,
//!   interpolation) in [`EngineKind::race`] order, then the rest.
//!   Engines of one family solve the same programs, so diversity pays
//!   before depth: the race at width 2 runs cegar against spacer, and
//!   pie starts only once one of them gives up.
//!
//! The race always runs at least two engines at once, even on one
//! core: the OS interleaves them and neither restarts. Which engine
//! wins then depends on timing; the verdict does not, because it is
//! certified. [`solve_single`] runs exactly one engine instead, with
//! its certificate checked the same way — the deterministic mode
//! behind `linarb --engine <name>`.

use linarb_logic::{ChcSystem, Interpretation};
use linarb_ml::LearnConfig;
use linarb_smt::{Budget, CancelToken};
use linarb_solver::{
    verify_interpretation, CegarSolver, DerivationNode, SolveResult, SolverConfig,
};
use linarb_baselines::{
    bmc, BmcResult, DigLearner, InterpMode, InterpResult, PdrMode, PdrResult, PdrSolver,
    PieLearner, UnwindInterp,
};
use linarb_trace::{event, Level};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The engines the portfolio can race or run singly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's data-driven CEGAR solver (SVM + decision tree).
    Cegar,
    /// CEGAR ablation with the decision-tree layer disabled.
    CegarNoDt,
    /// PIE-style enumeration learner inside the CEGAR loop.
    Pie,
    /// DIG-style template learner inside the CEGAR loop.
    Dig,
    /// PDR with must summaries (Spacer).
    Spacer,
    /// PDR without must summaries (GPDR).
    Gpdr,
    /// Bounded model checking (refutation only).
    Bmc,
    /// Batch unwinding interpolation (Duality).
    Duality,
    /// Trace-by-trace interpolation (UAutomizer).
    UAutomizer,
}

impl EngineKind {
    /// The default race: the CEGAR solver plus the five baseline
    /// engine families of the paper's evaluation.
    pub fn race() -> Vec<EngineKind> {
        vec![
            EngineKind::Cegar,
            EngineKind::Pie,
            EngineKind::Dig,
            EngineKind::Spacer,
            EngineKind::Bmc,
            EngineKind::Duality,
        ]
    }

    /// Every selectable engine.
    pub fn all() -> Vec<EngineKind> {
        vec![
            EngineKind::Cegar,
            EngineKind::CegarNoDt,
            EngineKind::Pie,
            EngineKind::Dig,
            EngineKind::Spacer,
            EngineKind::Gpdr,
            EngineKind::Bmc,
            EngineKind::Duality,
            EngineKind::UAutomizer,
        ]
    }

    /// Stable CLI/env name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Cegar => "cegar",
            EngineKind::CegarNoDt => "cegar-nodt",
            EngineKind::Pie => "pie",
            EngineKind::Dig => "dig",
            EngineKind::Spacer => "spacer",
            EngineKind::Gpdr => "gpdr",
            EngineKind::Bmc => "bmc",
            EngineKind::Duality => "duality",
            EngineKind::UAutomizer => "uautomizer",
        }
    }

    /// Parses a CLI/env name (case-insensitive; accepts a few
    /// aliases).
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s.to_ascii_lowercase().as_str() {
            "cegar" | "linarb" | "lineararbitrary" => Some(EngineKind::Cegar),
            "cegar-nodt" | "nodt" => Some(EngineKind::CegarNoDt),
            "pie" => Some(EngineKind::Pie),
            "dig" => Some(EngineKind::Dig),
            "spacer" => Some(EngineKind::Spacer),
            "gpdr" => Some(EngineKind::Gpdr),
            "bmc" => Some(EngineKind::Bmc),
            "duality" => Some(EngineKind::Duality),
            "uautomizer" | "trace" => Some(EngineKind::UAutomizer),
            _ => None,
        }
    }

    /// The solver family: engines of one family share their search and
    /// so tend to solve the same programs.
    fn family(self) -> Family {
        match self {
            EngineKind::Cegar | EngineKind::CegarNoDt | EngineKind::Pie | EngineKind::Dig => {
                Family::Cegar
            }
            EngineKind::Spacer | EngineKind::Gpdr => Family::Pdr,
            EngineKind::Bmc => Family::Bmc,
            EngineKind::Duality | EngineKind::UAutomizer => Family::Interpolation,
        }
    }
}

#[derive(PartialEq)]
enum Family {
    Cegar,
    Pdr,
    Bmc,
    Interpolation,
}

/// The order the race starts `engines` in, as indices into it:
/// the first engine of each [`Family`] in list order, then the rest in
/// list order.
fn start_order(engines: &[EngineKind]) -> Vec<usize> {
    let leads = |&i: &usize| engines[..i].iter().all(|e| e.family() != engines[i].family());
    let (mut order, rest): (Vec<usize>, Vec<usize>) = (0..engines.len()).partition(leads);
    order.extend(rest);
    order
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An independently checkable proof object.
#[derive(Clone, Debug)]
pub enum Certificate {
    /// A SAT certificate: an interpretation claimed to validate every
    /// clause. Checked by [`verify_interpretation`].
    Invariant(Interpretation),
    /// An UNSAT certificate: a concrete counterexample derivation.
    /// Checked by [`DerivationNode::replay`].
    Derivation(DerivationNode),
}

/// The unified verdict every engine's native result converts into —
/// the satellite-task replacement for matching on `SolveResult`,
/// `PdrResult`, `BmcResult`, and `InterpResult` separately.
#[derive(Clone, Debug)]
pub enum EngineVerdict {
    /// System satisfiable, with the invariant certificate.
    Sat(Certificate),
    /// System unsatisfiable, with the derivation certificate.
    Unsat(Certificate),
    /// No certified answer; carries a short reason.
    Unknown(String),
}

impl EngineVerdict {
    /// The certificate backing a definite verdict.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            EngineVerdict::Sat(c) | EngineVerdict::Unsat(c) => Some(c),
            EngineVerdict::Unknown(_) => None,
        }
    }

    /// `true` for [`EngineVerdict::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, EngineVerdict::Sat(_))
    }

    /// `true` for [`EngineVerdict::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, EngineVerdict::Unsat(_))
    }

    /// Sat or Unsat (certificate-bearing)?
    pub fn is_definite(&self) -> bool {
        !matches!(self, EngineVerdict::Unknown(_))
    }

    /// Short lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            EngineVerdict::Sat(_) => "sat",
            EngineVerdict::Unsat(_) => "unsat",
            EngineVerdict::Unknown(_) => "unknown",
        }
    }
}

impl From<SolveResult> for EngineVerdict {
    fn from(r: SolveResult) -> EngineVerdict {
        match r {
            SolveResult::Sat(i) => EngineVerdict::Sat(Certificate::Invariant(i)),
            SolveResult::Unsat(d) => EngineVerdict::Unsat(Certificate::Derivation(d)),
            SolveResult::Unknown(why) => EngineVerdict::Unknown(format!("{why:?}")),
        }
    }
}

impl From<PdrResult> for EngineVerdict {
    fn from(r: PdrResult) -> EngineVerdict {
        match r {
            PdrResult::Sat(i) => EngineVerdict::Sat(Certificate::Invariant(i)),
            PdrResult::Unsat(d) => EngineVerdict::Unsat(Certificate::Derivation(d)),
            PdrResult::Unknown => EngineVerdict::Unknown("pdr exhausted".to_string()),
        }
    }
}

impl From<BmcResult> for EngineVerdict {
    fn from(r: BmcResult) -> EngineVerdict {
        match r {
            BmcResult::Violation { derivation, .. } => {
                EngineVerdict::Unsat(Certificate::Derivation(derivation))
            }
            BmcResult::SafeUpTo(d) => {
                EngineVerdict::Unknown(format!("bmc inconclusive: safe up to depth {d}"))
            }
            BmcResult::Unknown => EngineVerdict::Unknown("bmc exhausted".to_string()),
        }
    }
}

/// Checks a verdict's certificate against the system: SAT
/// interpretations are verified clause-by-clause, UNSAT derivations
/// replayed concretely. `Unknown` never checks. The budget bounds the
/// SMT work of the SAT check (pass one *without* the shared cancel
/// token: the winner checks itself after cancelling the losers).
pub fn check_certificate(sys: &ChcSystem, verdict: &EngineVerdict, budget: &Budget) -> bool {
    match verdict {
        EngineVerdict::Sat(Certificate::Invariant(interp)) => {
            verify_interpretation(sys, interp, budget) == Some(true)
        }
        EngineVerdict::Unsat(Certificate::Derivation(d)) => d.replay(sys),
        // Mismatched certificate kinds never certify: an invariant
        // cannot witness unsat, nor a derivation sat.
        _ => false,
    }
}

/// BMC's iterative-deepening cap, in the race and when run alone.
const BMC_MAX_DEPTH: usize = 256;

/// Portfolio configuration. The race runs [`EngineKind::race`] in
/// start order (see the crate docs).
#[derive(Clone, Debug)]
pub struct PortfolioConfig {
    /// Race width: engines running at once. [`solve_portfolio`] runs
    /// at least 2 and at most one per engine.
    pub threads: usize,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig { threads: 2 }
    }
}

impl PortfolioConfig {
    /// Builder: race width.
    pub fn with_threads(mut self, threads: usize) -> PortfolioConfig {
        self.threads = threads;
        self
    }
}

/// How one engine fared in a portfolio run.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The engine.
    pub engine: EngineKind,
    /// Final verdict label (`sat`/`unsat`/`unknown`/`skipped`).
    pub outcome: &'static str,
    /// Wall-clock spent in this engine.
    pub time: Duration,
    /// `Some(result)` if a certificate check ran.
    pub certified: Option<bool>,
    /// Did this engine's certified verdict decide the portfolio?
    pub winner: bool,
}

/// Result of a portfolio run.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// The winning certified verdict (or `Unknown`).
    pub verdict: EngineVerdict,
    /// Which engine won, if any.
    pub winner: Option<EngineKind>,
    /// Per-engine outcome/time/winner rows, in [`EngineKind::race`]
    /// order (one row from [`solve_single`]).
    pub reports: Vec<EngineReport>,
    /// Total wall-clock of the run.
    pub wall: Duration,
}

impl PortfolioOutcome {
    /// Exports per-engine outcome/time/winner into a metrics report
    /// (`portfolio.*` keys), alongside the CEGAR `SolveStats` export.
    pub fn export_into(&self, report: &mut linarb_trace::metrics::MetricsReport) {
        report.set_counter("portfolio.engines", self.reports.len() as u64);
        report.set_counter("portfolio.wall_us", self.wall.as_micros() as u64);
        for r in &self.reports {
            report.set_counter(
                &format!("portfolio.{}.time_us", r.engine),
                r.time.as_micros() as u64,
            );
            report.set_counter(
                &format!("portfolio.{}.winner", r.engine),
                u64::from(r.winner),
            );
            let code = match r.outcome {
                "sat" => 1,
                "unsat" => 2,
                "unknown" => 3,
                _ => 0, // skipped
            };
            report.set_counter(&format!("portfolio.{}.outcome", r.engine), code);
        }
    }

    /// One human-readable line per engine (for `--stats`/progress
    /// output).
    pub fn summary_lines(&self) -> Vec<String> {
        self.reports
            .iter()
            .map(|r| {
                format!(
                    "{:<11} {:>8} {:>9.3}s{}{}",
                    r.engine.name(),
                    r.outcome,
                    r.time.as_secs_f64(),
                    match r.certified {
                        Some(true) => " certified",
                        Some(false) => " REJECTED",
                        None => "",
                    },
                    if r.winner { " ← winner" } else { "" },
                )
            })
            .collect()
    }
}

/// Runs one engine to completion under `budget`, converting its native
/// result into an [`EngineVerdict`].
///
/// Interpolation `Unsat` verdicts carry only a depth; the driver
/// re-derives a concrete certificate by running BMC to that depth
/// (plus one level of slack) — failure to confirm demotes the verdict
/// to `Unknown`, keeping an uncertifiable refutation from winning.
pub fn run_engine(kind: EngineKind, sys: &ChcSystem, budget: &Budget) -> EngineVerdict {
    match kind {
        EngineKind::Cegar | EngineKind::CegarNoDt => {
            let mut lc = LearnConfig::default();
            if kind == EngineKind::CegarNoDt {
                lc.use_decision_tree = false;
            }
            let config = SolverConfig::with_learn_config(lc);
            CegarSolver::new(sys, config).solve(budget).into()
        }
        EngineKind::Pie => {
            let learner = PieLearner::default().with_budget(budget.clone());
            let config = SolverConfig::with_learner(Arc::new(learner));
            CegarSolver::new(sys, config).solve(budget).into()
        }
        EngineKind::Dig => {
            let learner = DigLearner::default().with_budget(budget.clone());
            let config = SolverConfig::with_learner(Arc::new(learner));
            CegarSolver::new(sys, config).solve(budget).into()
        }
        EngineKind::Spacer => PdrSolver::new(sys, PdrMode::Spacer).solve(budget).into(),
        EngineKind::Gpdr => PdrSolver::new(sys, PdrMode::Gpdr).solve(budget).into(),
        EngineKind::Bmc => bmc(sys, BMC_MAX_DEPTH, budget).into(),
        EngineKind::Duality | EngineKind::UAutomizer => {
            let mode = if kind == EngineKind::Duality {
                InterpMode::Duality
            } else {
                InterpMode::TraceRefinement
            };
            match UnwindInterp::new(sys, mode).solve(budget) {
                InterpResult::Sat(i) => EngineVerdict::Sat(Certificate::Invariant(i)),
                InterpResult::Unsat { depth } => {
                    // Re-derive a replayable certificate at the claimed
                    // depth (+1 covers the trace/derivation height
                    // off-by-one).
                    match bmc(sys, depth + 1, budget) {
                        BmcResult::Violation { derivation, .. } => {
                            EngineVerdict::Unsat(Certificate::Derivation(derivation))
                        }
                        _ => EngineVerdict::Unknown(format!(
                            "interp unsat at depth {depth} not confirmed by bmc"
                        )),
                    }
                }
                InterpResult::Unknown => EngineVerdict::Unknown("interp exhausted".to_string()),
            }
        }
    }
}

/// The shared winner slot: first certified definite verdict claims it
/// and cancels everyone else.
struct WinnerSlot {
    slot: Mutex<Option<(EngineKind, EngineVerdict)>>,
    token: CancelToken,
}

impl WinnerSlot {
    fn claim(&self, kind: EngineKind, verdict: EngineVerdict) -> bool {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some((kind, verdict));
            // Flip the token *after* the slot is written: a loser
            // observing cancellation will find the winner recorded.
            self.token.cancel();
            true
        } else {
            false
        }
    }
}

fn finish(
    verdict: EngineVerdict,
    winner: Option<EngineKind>,
    reports: Vec<EngineReport>,
    start: Instant,
) -> PortfolioOutcome {
    let outcome = PortfolioOutcome { verdict, winner, reports, wall: start.elapsed() };
    event!(
        Level::Info,
        "portfolio",
        "portfolio.done",
        "verdict" => outcome.verdict.label(),
        "winner" => outcome.winner.map_or("none", EngineKind::name),
        "wall_us" => outcome.wall.as_micros() as u64,
    );
    outcome
}

/// One `skipped` row per raced engine, overwritten as engines run.
fn skipped_reports(engines: &[EngineKind]) -> Vec<EngineReport> {
    engines
        .iter()
        .map(|&engine| EngineReport {
            engine,
            outcome: "skipped",
            time: Duration::ZERO,
            certified: None,
            winner: false,
        })
        .collect()
}

/// Runs exactly one engine under the full budget and checks its
/// certificate as the race would: an uncertified definite verdict is
/// demoted to `Unknown`. The outcome has one report row.
pub fn solve_single(kind: EngineKind, sys: &ChcSystem, budget: &Budget) -> PortfolioOutcome {
    let start = Instant::now();
    let verdict = run_engine(kind, sys, budget);
    let time = start.elapsed();
    let certified = verdict
        .is_definite()
        .then(|| check_certificate(sys, &verdict, &budget.without_cancel()));
    let won = certified == Some(true);
    let report = EngineReport {
        engine: kind,
        outcome: verdict.label(),
        time,
        certified,
        winner: won,
    };
    let final_verdict = if won {
        verdict
    } else {
        EngineVerdict::Unknown(format!(
            "engine {kind}: verdict {} not certified",
            verdict.label()
        ))
    };
    finish(final_verdict, won.then_some(kind), vec![report], start)
}

/// Races the [`EngineKind::race`] engines on `sys` under `budget`:
/// `threads.max(2)` workers take the engines in start order and run
/// each once under the shared cancellable budget; the first certified
/// verdict cancels the rest, and engines not yet started when it lands
/// or when the budget runs out stay `skipped`. See the crate docs for
/// the winning rule and cancellation semantics.
pub fn solve_portfolio(
    sys: &ChcSystem,
    config: &PortfolioConfig,
    budget: &Budget,
) -> PortfolioOutcome {
    let start = Instant::now();
    let token = CancelToken::new();
    let shared = budget.clone().with_cancel_token(token.clone());
    let winner = WinnerSlot { slot: Mutex::new(None), token };
    let engines = EngineKind::race();
    let order = start_order(&engines);

    let race_one = |kind: EngineKind| {
        let t0 = Instant::now();
        let verdict = run_engine(kind, sys, &shared);
        let mut certified = None;
        let mut won = false;
        if verdict.is_definite() {
            // Check under the caller's budget *without* the shared
            // token: the winner must be able to certify itself after
            // (or while) losers are cancelled.
            let ok = check_certificate(sys, &verdict, &budget.without_cancel());
            certified = Some(ok);
            if ok {
                won = winner.claim(kind, verdict.clone());
            }
        }
        let report = EngineReport {
            engine: kind,
            outcome: verdict.label(),
            time: t0.elapsed(),
            certified,
            winner: won,
        };
        event!(
            Level::Debug,
            "portfolio",
            "portfolio.engine_done",
            "engine" => kind.name(),
            "outcome" => report.outcome,
            "winner" => won,
        );
        report
    };
    let ran = parallel_map(config.threads.max(2), order.clone(), |i| {
        (!shared.exhausted()).then(|| race_one(engines[i]))
    });
    let mut reports = skipped_reports(&engines);
    for (i, report) in order.into_iter().zip(ran) {
        if let Some(report) = report {
            reports[i] = report;
        }
    }

    let (win_kind, win_verdict) = match winner.slot.into_inner().unwrap() {
        Some((k, v)) => (Some(k), v),
        None => (
            None,
            EngineVerdict::Unknown("no engine produced a certified verdict".to_string()),
        ),
    };
    finish(win_verdict, win_kind, reports, start)
}

/// Applies `f` to every item on up to `width` threads and returns the
/// results in input order. The caller works beside `width.min(n) - 1`
/// scoped helpers, and one shared cursor hands items out in index
/// order. Width ≤ 1, or at most one item, runs inline on the caller.
/// If `f` panics, the first panic payload is re-raised once every
/// worker has joined.
pub fn parallel_map<T, U, F>(width: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = width.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // The cursor only hands out indices; each slot's mutex publishes
    // its item and result, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    const UNPOISONED: &str = "no slot lock is held across a call to `f`";
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = items.get(i) else { break };
        let item = slot
            .lock()
            .expect(UNPOISONED)
            .take()
            .expect("each item is handed out once");
        let u = f(item);
        *results[i].lock().expect(UNPOISONED) = Some(u);
    };
    let first_panic = thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut joined = vec![catch_unwind(AssertUnwindSafe(work))];
        joined.extend(helpers.into_iter().map(|h| h.join()));
        joined.into_iter().find_map(Result::err)
    });
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect(UNPOISONED)
                .expect("every item was mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_logic::parse_chc;

    const SAFE: &str = r#"
        (declare-fun p (Int) Bool)
        (assert (forall ((x Int)) (=> (= x 0) (p x))))
        (assert (forall ((x Int) (x1 Int))
            (=> (and (p x) (< x 5) (= x1 (+ x 1))) (p x1))))
        (assert (forall ((x Int)) (=> (p x) (<= x 5))))
    "#;

    fn unsafe_text() -> String {
        SAFE.replace("(<= x 5)", "(<= x 3)")
    }

    #[test]
    fn engine_names_round_trip() {
        for kind in EngineKind::all() {
            assert_eq!(EngineKind::parse(kind.name()), Some(kind), "{kind}");
        }
        assert_eq!(EngineKind::parse("LinArb"), Some(EngineKind::Cegar));
        assert_eq!(EngineKind::parse("nonsense"), None);
    }

    #[test]
    fn race_starts_one_engine_per_family_first() {
        let race = EngineKind::race();
        let order: Vec<EngineKind> = start_order(&race).into_iter().map(|i| race[i]).collect();
        use EngineKind::*;
        assert_eq!(order, [Cegar, Spacer, Bmc, Duality, Pie, Dig]);
    }

    #[test]
    fn every_engine_verdict_is_certifiable_on_the_counter() {
        // Each run gets its own budget, so no run can starve the next
        // into a vacuous Unknown. Every engine answers both systems in
        // milliseconds, except BMC on the safe one: it cannot prove
        // safety and unrolls until its budget runs out.
        let sys = parse_chc(SAFE).unwrap();
        let bad = parse_chc(&unsafe_text()).unwrap();
        let budget = || Budget::timeout(Duration::from_secs(10));
        for kind in EngineKind::all() {
            let v = run_engine(kind, &sys, &budget());
            if kind != EngineKind::Bmc || v.is_definite() {
                assert!(v.is_sat(), "{kind} wrong on safe counter: {v:?}");
                assert!(check_certificate(&sys, &v, &budget()), "{kind} sat cert");
            }
            let v = run_engine(kind, &bad, &budget());
            assert!(v.is_unsat(), "{kind} wrong on unsafe counter: {v:?}");
            assert!(check_certificate(&bad, &v, &budget()), "{kind} unsat cert");
        }
    }

    #[test]
    fn portfolio_solves_both_polarities() {
        // Width 1 is clamped to a two-engine race.
        for width in [1, 3] {
            let config = PortfolioConfig::default().with_threads(width);
            let budget = Budget::timeout(Duration::from_secs(60));
            let sys = parse_chc(SAFE).unwrap();
            let out = solve_portfolio(&sys, &config, &budget);
            assert!(out.verdict.is_sat(), "width {width}: {out:?}");
            let win = out.winner.expect("racing winner");
            assert!(
                out.reports.iter().any(|r| r.engine == win && r.winner),
                "width {width}: winner row must be marked"
            );
            let bad = parse_chc(&unsafe_text()).unwrap();
            let out = solve_portfolio(&bad, &config, &budget);
            assert!(out.verdict.is_unsat(), "width {width}: {out:?}");
        }
    }

    #[test]
    fn forced_engine_is_deterministic() {
        let sys = parse_chc(SAFE).unwrap();
        let budget = Budget::timeout(Duration::from_secs(30));
        let out = solve_single(EngineKind::Spacer, &sys, &budget);
        assert_eq!(out.winner, Some(EngineKind::Spacer), "{out:?}");
        assert_eq!(out.reports.len(), 1);
        assert!(out.reports[0].certified == Some(true));
    }

    #[test]
    fn cancelled_engines_return_promptly() {
        // Satellite check: flipping the token makes every engine
        // return within a bounded number of steps — well under a
        // second on a system they cannot finish instantly.
        let sys = parse_chc(SAFE).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(token);
        for kind in EngineKind::all() {
            let t0 = Instant::now();
            let v = run_engine(kind, &sys, &budget);
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "{kind} did not cancel promptly"
            );
            assert!(!v.is_definite(), "{kind} answered under cancellation: {v:?}");
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(4, items, |x| x * 2 + 1);
        assert_eq!(out, (0..257).map(|x| x * 2 + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_map_width_zero_and_one_run_inline() {
        let caller = thread::current().id();
        for width in [0, 1] {
            let out = parallel_map(width, vec![1, 2, 3], |x| (x + 10, thread::current().id()));
            assert_eq!(
                out,
                [(11, caller), (12, caller), (13, caller)],
                "width {width}"
            );
        }
    }

    #[test]
    fn parallel_map_borrows_caller_data() {
        let data = vec![String::from("a"), String::from("bb")];
        let lens = parallel_map(2, vec![0usize, 1], |i| data[i].len());
        assert_eq!(lens, vec![1, 2]);
        drop(data);
    }

    #[test]
    fn parallel_map_reraises_the_original_panic_after_joining() {
        // Every even item panics, so the caller and the helper both
        // die; item 1 is slow and must finish before the re-raise.
        let slow_done = std::sync::atomic::AtomicBool::new(false);
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(2, (0..16).collect::<Vec<u32>>(), |i| {
                if i % 2 == 0 {
                    panic!("even task exploded");
                }
                if i == 1 {
                    thread::sleep(Duration::from_millis(50));
                    slow_done.store(true, Ordering::Relaxed);
                }
                i
            })
        }));
        let payload = r.expect_err("panic should propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "even task exploded");
        assert!(
            slow_done.load(Ordering::Relaxed),
            "re-raised before every worker joined"
        );
    }
}

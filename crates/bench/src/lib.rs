//! Evaluation runner shared by the paper-table benches and the
//! integration tests: runs any engine on any benchmark under a
//! wall-clock budget and scores the verdict against ground truth.

use linarb_portfolio::{solve_portfolio, EngineKind, EngineVerdict, PortfolioConfig};
use linarb_smt::Budget;
use linarb_solver::{CegarSolver, SolveResult, SolverConfig};
use linarb_suite::{Benchmark, Expected};
use std::time::{Duration, Instant};

/// An engine's name in the paper's tables.
pub fn paper_name(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Cegar => "LinearArbitrary",
        EngineKind::CegarNoDt => "LinearArbitrary(noDT)",
        EngineKind::Pie => "PIE",
        EngineKind::Dig => "DIG",
        EngineKind::Spacer => "Spacer",
        EngineKind::Gpdr => "GPDR",
        EngineKind::Bmc => "BMC",
        EngineKind::Duality => "Duality",
        EngineKind::UAutomizer => "UAutomizer",
    }
}

/// Normalized verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// System satisfiable / program safe.
    Safe,
    /// System unsatisfiable / program unsafe.
    Unsafe,
    /// No answer within budget.
    Unknown,
}

/// Result of one engine × benchmark run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Wall-clock time spent.
    pub time: Duration,
    /// `Some(true)` if the verdict matches ground truth, `Some(false)`
    /// if it *contradicts* it (a soundness bug!), `None` for unknown.
    pub correct: Option<bool>,
}

impl RunOutcome {
    /// Did the engine produce the right definite verdict?
    pub fn solved(&self) -> bool {
        self.correct == Some(true)
    }
}

/// Runs one engine on `bench` under `timeout`, through the portfolio
/// crate's single-engine runner (one construction site for every
/// engine's configuration).
pub fn run_engine(kind: EngineKind, bench: &Benchmark, timeout: Duration) -> RunOutcome {
    score(bench, || linarb_portfolio::run_engine(kind, &bench.system, &Budget::timeout(timeout)))
}

/// Races the portfolio on `bench` under `timeout`: the
/// [`EngineKind::race`] engines at `LINARB_THREADS` width (default 2;
/// at least 2 engines race), or the `LINARB_PORTFOLIO_FORCE` engine
/// alone.
pub fn run_portfolio(bench: &Benchmark, timeout: Duration) -> RunOutcome {
    let pconfig = PortfolioConfig::from_env().expect("LINARB_PORTFOLIO_FORCE");
    let threads = env_or("LINARB_THREADS", pconfig.threads);
    let budget = Budget::timeout(timeout);
    score(bench, || solve_portfolio(&bench.system, &pconfig.with_threads(threads), &budget).verdict)
}

/// Times `solve` and scores its verdict against `bench`'s ground truth.
fn score(bench: &Benchmark, solve: impl FnOnce() -> EngineVerdict) -> RunOutcome {
    let start = Instant::now();
    let verdict = match solve() {
        EngineVerdict::Sat(_) => Verdict::Safe,
        EngineVerdict::Unsat(_) => Verdict::Unsafe,
        EngineVerdict::Unknown(_) => Verdict::Unknown,
    };
    let time = start.elapsed();
    let correct = match verdict {
        Verdict::Unknown => None,
        Verdict::Safe => Some(bench.expected == Expected::Safe),
        Verdict::Unsafe => Some(bench.expected == Expected::Unsafe),
    };
    RunOutcome { verdict, time, correct }
}

/// Aggregate of a suite run for one engine.
#[derive(Clone, Debug, Default)]
pub struct SuiteSummary {
    /// Benchmarks attempted.
    pub total: usize,
    /// Correct definite verdicts.
    pub solved: usize,
    /// Verdicts contradicting ground truth (must stay 0).
    pub wrong: usize,
    /// Total time over solved instances.
    pub time_solved: Duration,
}

impl SuiteSummary {
    /// Mean time per solved instance.
    pub fn mean_time_solved(&self) -> Duration {
        if self.solved == 0 {
            Duration::ZERO
        } else {
            self.time_solved / self.solved as u32
        }
    }
}

/// Runs an engine over a suite, returning per-benchmark outcomes and
/// the summary.
pub fn run_suite(
    engine: EngineKind,
    suite: &[Benchmark],
    timeout: Duration,
) -> (Vec<RunOutcome>, SuiteSummary) {
    let mut outcomes = Vec::new();
    let mut summary = SuiteSummary { total: suite.len(), ..SuiteSummary::default() };
    for bench in suite {
        let out = run_engine(engine, bench, timeout);
        if out.solved() {
            summary.solved += 1;
            summary.time_solved += out.time;
        } else if out.correct == Some(false) {
            summary.wrong += 1;
        }
        outcomes.push(out);
    }
    (outcomes, summary)
}

/// Reads an env var with a default (bench knobs).
pub fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The default per-benchmark timeout for table generation
/// (`LINARB_TIMEOUT_MS`, default 2000 ms; the paper used 180 s on
/// full-size suites).
pub fn default_timeout() -> Duration {
    Duration::from_millis(env_or("LINARB_TIMEOUT_MS", 2000))
}

/// Subsamples a suite deterministically to at most `n` entries,
/// keeping the category mix (every k-th element).
pub fn subsample(suite: Vec<Benchmark>, n: usize) -> Vec<Benchmark> {
    if suite.len() <= n || n == 0 {
        return suite;
    }
    let step = suite.len() as f64 / n as f64;
    let mut out = Vec::with_capacity(n);
    let mut idx = 0.0;
    while (idx as usize) < suite.len() && out.len() < n {
        out.push(suite[idx as usize].clone());
        idx += step;
    }
    out
}

/// One row of the paper's characterization tables
/// (`#L`, `#C`, `#P`, `#V`, `#S`, `#A`, `T`).
#[derive(Clone, Debug)]
pub struct CharRow {
    /// Benchmark name.
    pub name: String,
    /// Source lines.
    pub lines: usize,
    /// Clauses.
    pub clauses: usize,
    /// Unknown predicates.
    pub preds: usize,
    /// Variables.
    pub vars: usize,
    /// Samples drawn.
    pub samples: usize,
    /// Conjuncts per disjunct of the most complex interpretation.
    pub shape: Vec<usize>,
    /// Wall-clock time.
    pub time: Duration,
    /// Verdict reached.
    pub verdict: Verdict,
}

/// Runs `LinearArbitrary` on a benchmark and extracts the paper's
/// per-benchmark statistics row.
pub fn characterize(bench: &Benchmark, timeout: Duration) -> CharRow {
    let budget = Budget::timeout(timeout);
    let mut solver = CegarSolver::new(&bench.system, SolverConfig::default());
    let start = Instant::now();
    let result = solver.solve(&budget);
    let time = start.elapsed();
    let verdict = match result {
        SolveResult::Sat(_) => Verdict::Safe,
        SolveResult::Unsat(_) => Verdict::Unsafe,
        SolveResult::Unknown(_) => Verdict::Unknown,
    };
    let (lines, clauses, preds, vars) = bench.stats();
    let shape = solver
        .interpretation_shape()
        .into_values()
        .max_by_key(Vec::len)
        .unwrap_or_default();
    CharRow {
        name: bench.name.clone(),
        lines,
        clauses,
        preds,
        vars,
        samples: solver.stats().samples,
        shape,
        time,
        verdict,
    }
}

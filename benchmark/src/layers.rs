//! Per-layer attribution of a traced run.
//!
//! Everything here is read from what the program already records: the
//! span timers and counters of the global metrics registry, the span
//! call tree of a `ProfileScope` (single-threaded workloads only),
//! `SolveStats`, `PortfolioOutcome::reports` and the serve `stats` op.
//! Layers without spans (loading, solver construction, canonical
//! forms, certificate checks) are timed around their public calls.

use std::collections::BTreeMap;

use linarb_solver::SolveStats;
use linarb_trace::{MetricsReport, ProfileNode, ProfileTree};

use crate::stats::percentile;

/// The engines of the default race, in `EngineKind::race()` order.
pub const ENGINES: [&str; 6] = ["cegar", "pie", "dig", "spacer", "bmc", "duality"];

/// Every per-layer metric a traced run reports, with its unit.
/// Metrics of a layer a workload does not reach read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sat.solve_s", "s"),
    ("sat.self_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.db_reductions", "count"),
    ("smt.oracle_s", "s"),
    ("smt.oracle_share", "ratio"),
    ("smt.inc_checks", "count"),
    ("smt.inc_check_s", "s"),
    ("smt.check_sat_calls", "count"),
    ("smt.check_sat_s", "s"),
    ("core.smt_checks", "count"),
    ("core.learned_db_size", "count"),
    ("smt.theory_s", "s"),
    ("smt.simplex_pivots", "count"),
    ("smt.pivots_per_s", "1/s"),
    ("smt.branch_nodes", "count"),
    ("smt.budget_exhausted", "count"),
    ("ml.learn_s", "s"),
    ("ml.learn_calls", "count"),
    ("ml.svm_s", "s"),
    ("ml.dtree_s", "s"),
    ("ml.samples_per_s", "1/s"),
    ("ml.seed_hits", "count"),
    ("ml.seeds_pruned", "count"),
    ("ml.learn_memo_hits", "count"),
    ("core.samples", "count"),
    ("core.solve_s", "s"),
    ("core.self_s", "s"),
    ("core.iterations", "count"),
    ("logic.parse_s", "s"),
    ("frontend.compile_s", "s"),
    ("frontend.canon_s", "s"),
    ("frontend.canon_us_per_clause", "us"),
    ("serve.exact_hits", "count"),
    ("serve.near_hits", "count"),
    ("serve.misses", "count"),
    ("serve.verify_failures", "count"),
    ("serve.errors", "count"),
    ("serve.job_ms_p50", "ms"),
    ("serve.job_ms_p90", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p90", "ms"),
    ("serve.io_ms_p50", "ms"),
    ("portfolio.race_s", "s"),
    ("portfolio.wins.cegar", "count"),
    ("portfolio.wins.pie", "count"),
    ("portfolio.wins.dig", "count"),
    ("portfolio.wins.spacer", "count"),
    ("portfolio.wins.bmc", "count"),
    ("portfolio.wins.duality", "count"),
    ("portfolio.engine_s.cegar", "s"),
    ("portfolio.engine_s.pie", "s"),
    ("portfolio.engine_s.dig", "s"),
    ("portfolio.engine_s.spacer", "s"),
    ("portfolio.engine_s.bmc", "s"),
    ("portfolio.engine_s.duality", "s"),
    ("portfolio.skipped", "count"),
    ("portfolio.overruns", "count"),
    ("portfolio.overrun_s_max", "s"),
    ("portfolio.cert_failures", "count"),
    ("core.cert_s", "s"),
    ("core.cert_checks", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// What the spans recorded during traced passes.
#[derive(Default)]
pub struct Spans {
    pub report: MetricsReport,
    /// The call tree, when the workload is single-threaded.
    pub tree: Option<ProfileTree>,
}

/// What the harness timed and counted around public calls.
#[derive(Default)]
pub struct Timed {
    pub compile_s: f64,
    pub parse_s: f64,
    /// `CegarSolver::new` (seed harvest, context set-up): no span.
    pub new_s: f64,
    pub canon_s: f64,
    pub canon_clauses: u64,
    pub cert_s: f64,
    pub cert_checks: u64,
    pub stats: SolveStats,
    pub portfolio: Portfolio,
    pub serve: Serve,
}

/// Race outcomes summed over a pass.
#[derive(Default)]
pub struct Portfolio {
    pub race_s: f64,
    pub wins: [u64; 6],
    pub engine_s: [f64; 6],
    pub skipped: u64,
    pub overruns: u64,
    pub overrun_s_max: f64,
    pub cert_failures: u64,
}

/// Daemon-side counters and per-job timings of the serve streams.
#[derive(Default)]
pub struct Serve {
    pub exact_hits: u64,
    pub near_hits: u64,
    pub misses: u64,
    pub verify_failures: u64,
    pub errors: u64,
    /// Job wall time inside the worker.
    pub job_ms: Vec<f64>,
    /// Batch round trip minus the job's own wall time.
    pub wait_ms: Vec<f64>,
    /// Batch round trip minus its slowest job.
    pub io_ms: Vec<f64>,
}

/// Traced and harness-timed data of a run's traced passes.
#[derive(Default)]
pub struct Layers {
    pub spans: Spans,
    pub timed: Timed,
}

impl Spans {
    pub fn absorb(&mut self, report: &MetricsReport, tree: Option<ProfileTree>) {
        self.report.absorb(report);
        if let Some(t) = tree {
            match &mut self.tree {
                Some(mine) => mine.merge(&t),
                None => self.tree = Some(t),
            }
        }
    }
}

/// Adds the statistics of one solve to a running total. Only the fields
/// the per-layer report reads are summed.
pub fn add_stats(total: &mut SolveStats, s: &SolveStats) {
    total.iterations += s.iterations;
    total.smt_checks += s.smt_checks;
    total.learned_db_size += s.learned_db_size;
    total.samples += s.samples;
    total.seed_hits += s.seed_hits;
    total.seeds_pruned += s.seeds_pruned;
    total.learn_memo_hits += s.learn_memo_hits;
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Sums `f` over every node of the tree named `name`.
fn sum_nodes(tree: &ProfileTree, name: &str, f: fn(&ProfileNode) -> u64) -> f64 {
    fn walk(n: &ProfileNode, name: &str, f: fn(&ProfileNode) -> u64) -> u64 {
        let own = if n.name == name { f(n) } else { 0 };
        own + n.children.values().map(|c| walk(c, name, f)).sum::<u64>()
    }
    walk(&tree.root, name, f) as f64 / 1e6
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
/// `traced_s` is the traced passes' summed time-to-verdict (or stream
/// wall), and `overhead` the traced-over-untraced slowdown.
pub fn metrics(l: &Layers, traced_s: f64, overhead: f64) -> Vec<(&'static str, f64, &'static str)> {
    let r = &l.spans.report;
    let t = &l.timed;
    let timer = |n: &str| r.timer_secs(n);
    let calls = |n: &str| r.timers.get(n).map_or(0, |x| x.count) as f64;
    let counter = |n: &str| r.counter(n) as f64;
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);

    // Self times: exact from the call tree when there is one, else the
    // nested timers subtracted.
    let (sat_self, core_self, unattributed) = match &l.spans.tree {
        Some(tree) => {
            let covered = t.compile_s + t.parse_s + t.new_s + tree.root_incl_us() as f64 / 1e6;
            (
                sum_nodes(tree, "sat.solve", ProfileNode::excl_us),
                sum_nodes(tree, "cegar.solve", ProfileNode::excl_us) + t.new_s,
                ratio(traced_s - covered, traced_s),
            )
        }
        None => (
            (timer("sat.solve") - timer("smt.theory_check")).max(0.0),
            (timer("cegar.solve")
                - timer("core.oracle")
                - timer("core.learner")
                - timer("core.sample_extraction"))
            .max(0.0)
                + t.new_s,
            0.0,
        ),
    };

    let s = &t.stats;
    let p = &t.portfolio;
    let sv = &t.serve;
    let mut v: BTreeMap<&str, f64> = BTreeMap::from([
        ("sat.solve_s", timer("sat.solve")),
        ("sat.self_s", sat_self),
        ("sat.conflicts", counter("sat.conflicts")),
        ("sat.propagations", counter("sat.propagations")),
        (
            "sat.props_per_s",
            ratio(counter("sat.propagations"), timer("sat.solve")),
        ),
        ("sat.db_reductions", counter("sat.db_reductions")),
        ("smt.oracle_s", timer("core.oracle")),
        ("smt.oracle_share", ratio(timer("core.oracle"), traced_s)),
        ("smt.inc_checks", counter("smt.inc_checks")),
        ("smt.inc_check_s", timer("smt.inc_check")),
        ("smt.check_sat_calls", calls("smt.check_sat")),
        ("smt.check_sat_s", timer("smt.check_sat")),
        ("core.smt_checks", s.smt_checks as f64),
        ("core.learned_db_size", s.learned_db_size as f64),
        ("smt.theory_s", timer("smt.theory_check")),
        ("smt.simplex_pivots", counter("smt.simplex_pivots")),
        (
            "smt.pivots_per_s",
            ratio(counter("smt.simplex_pivots"), timer("smt.theory_check")),
        ),
        ("smt.branch_nodes", counter("smt.branch_nodes")),
        ("smt.budget_exhausted", counter("smt.budget_exhausted")),
        ("ml.learn_s", timer("ml.learn")),
        ("ml.learn_calls", calls("ml.learn")),
        ("ml.svm_s", timer("ml.svm")),
        ("ml.dtree_s", timer("ml.dtree")),
        (
            "ml.samples_per_s",
            ratio(
                r.hists.get("ml.learn_samples").map_or(0, |h| h.sum) as f64,
                timer("ml.learn"),
            ),
        ),
        ("ml.seed_hits", s.seed_hits as f64),
        ("ml.seeds_pruned", s.seeds_pruned as f64),
        ("ml.learn_memo_hits", s.learn_memo_hits as f64),
        ("core.samples", s.samples as f64),
        ("core.solve_s", timer("cegar.solve")),
        ("core.self_s", core_self),
        ("core.iterations", s.iterations as f64),
        ("logic.parse_s", t.parse_s),
        ("frontend.compile_s", t.compile_s),
        ("frontend.canon_s", t.canon_s),
        (
            "frontend.canon_us_per_clause",
            ratio(t.canon_s * 1e6, t.canon_clauses as f64),
        ),
        ("serve.exact_hits", sv.exact_hits as f64),
        ("serve.near_hits", sv.near_hits as f64),
        ("serve.misses", sv.misses as f64),
        ("serve.verify_failures", sv.verify_failures as f64),
        ("serve.errors", sv.errors as f64),
        ("serve.job_ms_p50", pct(&sv.job_ms, 50.0)),
        ("serve.job_ms_p90", pct(&sv.job_ms, 90.0)),
        ("serve.wait_ms_p50", pct(&sv.wait_ms, 50.0)),
        ("serve.wait_ms_p90", pct(&sv.wait_ms, 90.0)),
        ("serve.io_ms_p50", pct(&sv.io_ms, 50.0)),
        ("portfolio.race_s", p.race_s),
        ("portfolio.skipped", p.skipped as f64),
        ("portfolio.overruns", p.overruns as f64),
        ("portfolio.overrun_s_max", p.overrun_s_max),
        ("portfolio.cert_failures", p.cert_failures as f64),
        ("core.cert_s", t.cert_s),
        ("core.cert_checks", t.cert_checks as f64),
        ("trace.overhead", overhead),
        ("trace.unattributed_share", unattributed),
    ]);
    let mut named = Vec::new();
    for (i, e) in ENGINES.iter().enumerate() {
        named.push((format!("portfolio.wins.{e}"), p.wins[i] as f64));
        named.push((format!("portfolio.engine_s.{e}"), p.engine_s[i]));
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = v
                .remove(name)
                .or_else(|| named.iter().find(|(n, _)| n == name).map(|(_, x)| *x));
            (
                name,
                value.expect("every per-layer metric is computed"),
                unit,
            )
        })
        .collect()
}

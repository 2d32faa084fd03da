//! Batch scheduling and solving behind the cache (DESIGN.md §15).
//!
//! [`ServeCore`] is the daemon's heart, usable with or without a
//! socket: jobs are spread over scoped threads
//! ([`linarb_portfolio::parallel_map`]), each worker runs parse →
//! canonicalize → cache probe → solve-or-verify,
//! and newly solved entries are inserted *after* the batch in batch
//! order, so cache contents are a deterministic function of the
//! submission sequence (never of worker timing).
//!
//! The parallelism budget is spent across jobs: each solve is the
//! sequential CEGAR loop, so per-job trajectories are identical at
//! every batch width.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use linarb_frontend::{canonicalize, Canon};
use linarb_logic::{parse_chc, Atom, ChcSystem, PredId};
use linarb_portfolio::parallel_map;
use linarb_smt::Budget;
use linarb_solver::{verify_interpretation, CegarSolver, OracleMode, SolveResult, SolverConfig};
use linarb_trace::json_string;

use crate::cache::{self, CacheEntry, InvariantCache};
use crate::proto::JobSpec;

/// Configuration of a [`ServeCore`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Batch width: jobs in flight at once.
    pub threads: usize,
    /// Per-job wall-clock budget.
    pub timeout: Duration,
    /// Master cache switch (`false` = every job solves cold; the
    /// replay driver's baseline mode).
    pub cache: bool,
    /// Maximum number of cache entries (FIFO eviction beyond).
    pub cache_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let threads = std::env::var("LINARB_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
            });
        ServeConfig {
            threads,
            timeout: Duration::from_secs(30),
            cache: true,
            cache_cap: 4096,
        }
    }
}

/// What a job solves: program text in a supported format, or an
/// already-built system (in-process callers like the replay driver).
pub enum Source {
    /// SMT-LIB2 Horn text.
    Smt2(String),
    /// Mini-C text for the frontend compiler.
    MiniC(String),
    /// A pre-built system.
    System(ChcSystem),
}

/// One scheduled job.
pub struct JobInput {
    /// Echoed back in the outcome.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// The program.
    pub source: Source,
}

impl JobInput {
    /// Converts a wire-level [`JobSpec`] into a schedulable job.
    pub fn from_spec(spec: JobSpec) -> JobInput {
        let source = match spec.format.as_str() {
            "c" => Source::MiniC(spec.program),
            _ => Source::Smt2(spec.program),
        };
        JobInput { id: spec.id, name: spec.name, source }
    }
}

/// Which cache tier answered a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Memoized verdict served after re-verification.
    Exact,
    /// Fresh solve seeded with the closest neighbor's invariant atoms.
    Near,
    /// Fresh cold solve (no usable neighbor).
    Miss,
    /// Cache disabled.
    Off,
}

impl Tier {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Near => "near",
            Tier::Miss => "miss",
            Tier::Off => "off",
        }
    }
}

/// The result of one job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Echo of [`JobInput::id`].
    pub id: u64,
    /// Echo of [`JobInput::name`].
    pub name: String,
    /// `"sat"`, `"unsat"`, `"unknown"`, or `"error"`.
    pub verdict: String,
    /// Which tier answered.
    pub tier: Tier,
    /// Whether the verdict passed an independent check
    /// (interpretation verification / derivation replay). Always true
    /// for served exact hits; best-effort for fresh solves (fresh Sat
    /// results are already oracle-validated by construction).
    pub verified: bool,
    /// Wall time of the job inside its worker.
    pub wall_us: u64,
    /// Unknown reason or parse/compile error text (empty otherwise).
    pub detail: String,
}

impl JobOutcome {
    /// Renders the response object for the wire.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{{\"id\":{},\"name\":{},\"verdict\":{},\"cache\":{},\"verified\":{},\"wall_us\":{}",
            self.id,
            json_string(&self.name),
            json_string(&self.verdict),
            json_string(self.tier.label()),
            self.verified,
            self.wall_us
        );
        if !self.detail.is_empty() {
            s.push_str(&format!(",\"detail\":{}", json_string(&self.detail)));
        }
        s.push('}');
        s
    }

    fn error(id: u64, name: &str, tier: Tier, detail: String, start: Instant) -> JobOutcome {
        JobOutcome {
            id,
            name: name.to_string(),
            verdict: "error".to_string(),
            tier,
            verified: false,
            wall_us: start.elapsed().as_micros() as u64,
            detail,
        }
    }
}

/// Scheduler and cache counters, exported by the daemon's `stats` op
/// and the replay driver.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Jobs completed.
    pub jobs: u64,
    /// Exact-tier hits served.
    pub exact_hits: u64,
    /// Near-tier solves (seeded with a neighbor's invariant atoms).
    pub near_hits: u64,
    /// Cold solves (cache enabled, no usable neighbor).
    pub misses: u64,
    /// Exact-tier candidates that failed re-verification (served as
    /// fresh solves instead).
    pub verify_failures: u64,
    /// Jobs that failed to parse/compile.
    pub errors: u64,
    /// Verdict counts.
    pub sat: u64,
    /// See [`ServeStats::sat`].
    pub unsat: u64,
    /// See [`ServeStats::sat`].
    pub unknown: u64,
}

impl ServeStats {
    /// Renders the counters as a JSON object body (no `op` field).
    pub fn render(&self, cache_entries: usize) -> String {
        format!(
            "{{\"jobs\":{},\"exact_hits\":{},\"near_hits\":{},\"misses\":{},\
             \"verify_failures\":{},\"errors\":{},\"sat\":{},\"unsat\":{},\
             \"unknown\":{},\"cache_entries\":{}}}",
            self.jobs,
            self.exact_hits,
            self.near_hits,
            self.misses,
            self.verify_failures,
            self.errors,
            self.sat,
            self.unsat,
            self.unknown,
            cache_entries
        )
    }
}

/// The resident solver: configuration, cache, counters.
pub struct ServeCore {
    cfg: ServeConfig,
    cache: Mutex<InvariantCache>,
    stats: Mutex<ServeStats>,
}

impl ServeCore {
    /// Builds a core with an empty cache.
    pub fn new(cfg: ServeConfig) -> ServeCore {
        let cache = Mutex::new(InvariantCache::new(cfg.cache_cap));
        ServeCore { cfg, cache, stats: Mutex::new(ServeStats::default()) }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ServeStats {
        self.stats.lock().unwrap().clone()
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Solves a batch in three deterministic waves:
    ///
    /// 1. **Prepare** (parallel): parse/compile and canonicalize every
    ///    job.
    /// 2. **Leaders** (parallel): for each canonical form not already
    ///    cached, its *first* job in submission order solves it; the
    ///    results are memoized in submission order.
    /// 3. **Followers** (parallel): the remaining jobs run with the
    ///    leaders' entries visible, so intra-batch duplicates hit the
    ///    exact tier instead of solving the same system N times.
    ///
    /// Results come back in submission order, and cache contents are a
    /// function of the submission sequence alone — never of worker
    /// timing or batch width.
    pub fn submit_batch(&self, jobs: Vec<JobInput>) -> Vec<JobOutcome> {
        let n = jobs.len();
        let width = self.cfg.threads;
        let prepared = parallel_map(width, jobs, |job| self.prepare(job));

        let mut slots: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();
        let mut leaders: Vec<(usize, Prepared)> = Vec::new();
        let mut followers: Vec<(usize, Prepared)> = Vec::new();
        {
            let cache = self.cache.lock().unwrap();
            let mut batch_forms: std::collections::HashSet<String> = std::collections::HashSet::new();
            for (idx, prep) in prepared.into_iter().enumerate() {
                match prep {
                    Prep::Failed(outcome) => {
                        let mut stats = self.stats.lock().unwrap();
                        stats.jobs += 1;
                        stats.errors += 1;
                        drop(stats);
                        slots[idx] = Some(outcome);
                    }
                    Prep::Ready(p) => {
                        let already = self.cfg.cache
                            && (cache.exact(&p.canon).is_some()
                                || !batch_forms.insert(p.canon.text.clone()));
                        if already {
                            followers.push((idx, p));
                        } else {
                            leaders.push((idx, p));
                        }
                    }
                }
            }
        }

        let solved = parallel_map(width, leaders, |(idx, p)| (idx, self.solve_prepared(p)));
        self.settle(solved, &mut slots);
        let solved = parallel_map(width, followers, |(idx, p)| (idx, self.solve_prepared(p)));
        self.settle(solved, &mut slots);

        slots.into_iter().map(|s| s.expect("every slot filled")).collect()
    }

    /// Sequential accounting for one wave: counters, cache insertion
    /// (in submission order), and result slotting.
    fn settle(
        &self,
        solved: Vec<(usize, (JobOutcome, Option<FreshSolve>))>,
        slots: &mut [Option<JobOutcome>],
    ) {
        let mut stats = self.stats.lock().unwrap();
        let mut cache = self.cache.lock().unwrap();
        for (idx, (outcome, fresh)) in solved {
            stats.jobs += 1;
            match outcome.verdict.as_str() {
                "sat" => stats.sat += 1,
                "unsat" => stats.unsat += 1,
                "unknown" => stats.unknown += 1,
                _ => stats.errors += 1,
            }
            match outcome.tier {
                Tier::Exact => stats.exact_hits += 1,
                Tier::Near => stats.near_hits += 1,
                Tier::Miss => stats.misses += 1,
                Tier::Off => {}
            }
            stats.verify_failures += fresh.as_ref().map_or(0, |f| f.verify_failed as u64);
            if let Some(f) = fresh {
                if let Some((key, entry)) = f.entry {
                    cache.insert(key, entry);
                }
            }
            slots[idx] = Some(outcome);
        }
    }

    /// Wave 1: parse/compile and canonicalize.
    fn prepare(&self, job: JobInput) -> Prep {
        let start = Instant::now();
        let sys = match job.source {
            Source::System(sys) => sys,
            Source::Smt2(text) => match parse_chc(&text) {
                Ok(sys) => sys,
                Err(e) => {
                    return Prep::Failed(JobOutcome::error(
                        job.id,
                        &job.name,
                        Tier::Off,
                        e.to_string(),
                        start,
                    ))
                }
            },
            Source::MiniC(text) => match linarb_frontend::compile(&text) {
                Ok(sys) => sys,
                Err(e) => {
                    return Prep::Failed(JobOutcome::error(
                        job.id,
                        &job.name,
                        Tier::Off,
                        e.to_string(),
                        start,
                    ))
                }
            },
        };
        let canon = canonicalize(&sys);
        Prep::Ready(Prepared { id: job.id, name: job.name, sys, canon, start })
    }

    /// Waves 2–3: cache probe, then solve or serve.
    fn solve_prepared(&self, p: Prepared) -> (JobOutcome, Option<FreshSolve>) {
        let Prepared { id, name, sys, canon, start } = p;
        let budget = Budget::timeout(self.cfg.timeout);
        let mut verify_failed = false;

        // Exact tier: serve the memoized verdict iff it independently
        // re-verifies against *this* submission.
        if self.cfg.cache {
            let hit = self.cache.lock().unwrap().exact(&canon);
            if let Some(entry) = hit {
                if let Some(result) = cache::restore_verdict(&canon, &sys, &entry.verdict) {
                    let ok = match &result {
                        SolveResult::Sat(interp) => {
                            verify_interpretation(&sys, interp, &budget) == Some(true)
                        }
                        SolveResult::Unsat(tree) => tree.replay(&sys),
                        SolveResult::Unknown(_) => false,
                    };
                    if ok {
                        let outcome = JobOutcome {
                            id,
                            name,
                            verdict: verdict_label(&result).to_string(),
                            tier: Tier::Exact,
                            verified: true,
                            wall_us: start.elapsed().as_micros() as u64,
                            detail: String::new(),
                        };
                        return (outcome, None);
                    }
                }
                verify_failed = true;
            }
        }

        // Near tier: carry the best neighbor's invariant atoms into
        // this system's parameter space as seed planes.
        let near = if self.cfg.cache { self.cache.lock().unwrap().nearest(&canon) } else { None };
        let seed_atoms: Vec<(PredId, Atom)> = near
            .map_or_else(Vec::new, |entry| cache::invariant_atoms(&entry.verdict))
            .into_iter()
            .filter_map(|(ci, atom)| {
                let pid = *canon.pred_of_canon.get(ci)?;
                Some((pid, atom.rename(&cache::from_canon_params(&sys, pid))))
            })
            .collect();
        let tier = match (self.cfg.cache, seed_atoms.is_empty()) {
            (false, _) => Tier::Off,
            (true, true) => Tier::Miss,
            (true, false) => Tier::Near,
        };

        let (result, detail) = run_solver(&sys, seed_atoms, &budget);

        // Memoize definite verdicts (in canonical coordinates).
        let entry = if self.cfg.cache {
            cache::cache_verdict(&canon, &sys, &result).map(|cv| {
                let entry = CacheEntry {
                    text: canon.text.clone(),
                    fingerprint: canon.fingerprint.clone(),
                    arities: canon.arities.clone(),
                    verdict: cv,
                };
                (canon.key.clone(), entry)
            })
        } else {
            None
        };

        let outcome = JobOutcome {
            id,
            name,
            verdict: verdict_label(&result).to_string(),
            tier,
            verified: false,
            wall_us: start.elapsed().as_micros() as u64,
            detail,
        };
        (outcome, Some(FreshSolve { entry, verify_failed }))
    }
}

/// The CEGAR loop on the stateless oracle, unlike the CLI's
/// default. In a probe on `serve_replay` (seeds 1–5, 20 s, five runs
/// each, 2-core VM) it took a median `total_s` of 0.961 s against
/// 1.148 s on the incremental oracle, and `p90_ms` 9.98 against 15.46
/// (DESIGN.md §8, §15). Large systems favour the incremental oracle
/// and are not measured through the daemon.
fn run_solver(
    sys: &ChcSystem,
    seed_atoms: Vec<(PredId, Atom)>,
    budget: &Budget,
) -> (SolveResult, String) {
    let config =
        SolverConfig::default().with_oracle(OracleMode::Fresh).with_seed_atoms(seed_atoms);
    let result = CegarSolver::new(sys, config).solve(budget);
    let detail = match &result {
        SolveResult::Unknown(reason) => format!("{reason:?}"),
        _ => String::new(),
    };
    (result, detail)
}

/// Byproducts of a fresh (non-exact-hit) solve.
struct FreshSolve {
    entry: Option<(String, CacheEntry)>,
    verify_failed: bool,
}

/// A parsed, canonicalized job awaiting its solve wave.
struct Prepared {
    id: u64,
    name: String,
    sys: ChcSystem,
    canon: Canon,
    start: Instant,
}

/// Wave-1 result: ready to solve, or failed to parse.
enum Prep {
    Ready(Prepared),
    Failed(JobOutcome),
}

fn verdict_label(r: &SolveResult) -> &'static str {
    match r {
        SolveResult::Sat(_) => "sat",
        SolveResult::Unsat(_) => "unsat",
        SolveResult::Unknown(_) => "unknown",
    }
}

// `Canon` appears in this module's docs.
#[doc(hidden)]
pub type _CanonRef = Canon;

//! The four workloads: how each sets up, what one pass over its inputs
//! does, and how its outputs are checked.
//!
//! A run sets up, then repeats whole passes over the workload's fixed
//! input set until `--seconds` would be exceeded by one more pass (at
//! least one pass; in a traced run untraced and traced passes
//! alternate, at least one of each). Every pass is one closed loop: the
//! next operation starts only after the previous one answered.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use linarb_frontend::canonicalize;
use linarb_logic::ChcSystem;
use linarb_portfolio::{check_certificate, solve_portfolio, EngineVerdict, PortfolioConfig};
use linarb_serve::client::Client;
use linarb_serve::proto::{render_batch, JobSpec};
use linarb_serve::{BindAddr, ServeConfig, ServeCore};
use linarb_smt::Budget;
use linarb_solver::{CegarSolver, SolverConfig};
use linarb_suite::Expected;
use linarb_trace::json::{self, Json};
use linarb_trace::{metrics, ProfileScope};

use crate::inputs::{self, Problem, Text};
use crate::layers::{self, add_stats, Layers, Spans, Timed, ENGINES};
use crate::stats::{median, percentile};

/// Workload names, in the order a full pass runs them.
pub const WORKLOADS: [&str; 4] = ["fig8_cli", "scaling_cli", "portfolio_race", "serve_replay"];

/// Every end-to-end metric, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("total_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("solved_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Race width of `portfolio_race` and pool width of the daemon: the
/// host the baseline was measured on has two cores.
const THREADS: usize = 2;
/// Time limit of `fig8_cli` and `portfolio_race`, between the two
/// problems closest to it: on the baseline host one is solved in
/// 1.2–1.5 s and the other in 2.0–2.9 s, depending on load on the host.
const SHORT_LIMIT_MS: u64 = 2200;
/// Time limit of `scaling_cli` (slowest solve 6 s) and of a serve job.
const LONG_LIMIT_MS: u64 = 10_000;
/// Largest share of a traced single-threaded pass that may lie outside
/// every span and harness-timed call.
const MAX_UNATTRIBUTED: f64 = 0.05;
/// Input generations timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// How one run is asked to behave.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced inputs and limits for a smoke run.
    pub quick: bool,
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run). A percentile with too few samples beyond it is `None`.
    pub metrics: Vec<(&'static str, Option<f64>, &'static str)>,
}

/// Correctness violations found so far; printed as they are found.
#[derive(Default)]
struct Check {
    violations: u64,
}

impl Check {
    fn fail(&mut self, what: String) {
        eprintln!("correctness: {what}");
        self.violations += 1;
    }
}

/// One pass over a workload's inputs.
#[derive(Default)]
struct Pass {
    /// Summed time-to-verdict, or the stream's wall time (serve).
    total_s: f64,
    /// Per-operation latencies: solves, races, or batch round trips.
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    solved: u64,
}

#[derive(Default)]
struct Measured {
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    layers: Layers,
}

impl Measured {
    fn all(&self) -> impl Iterator<Item = &Pass> {
        self.untraced.iter().chain(&self.traced)
    }
}

/// Runs `f` with the global metrics registry (and, for single-threaded
/// workloads, the span profiler) collecting into `spans`.
fn collect<T>(on: bool, profile: bool, spans: &mut Spans, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    metrics::enable(true);
    let scope = profile.then(ProfileScope::new);
    let out = f();
    let tree = scope.map(|s| s.take_tree());
    spans.absorb(&metrics::take_report(), tree);
    metrics::enable(false);
    out
}

/// Repeats passes until the next one would overrun `cfg.seconds`.
fn measure(cfg: &Config, mut pass: impl FnMut(bool, &mut Layers) -> Pass) -> Measured {
    let start = Instant::now();
    let mut m = Measured::default();
    loop {
        let traced = cfg.trace && m.untraced.len() > m.traced.len();
        let t = Instant::now();
        if traced {
            m.traced.push(pass(true, &mut m.layers));
        } else {
            m.untraced.push(pass(false, &mut Layers::default()));
        }
        let last = t.elapsed().as_secs_f64();
        let enough = !cfg.trace || !m.traced.is_empty();
        if enough && start.elapsed().as_secs_f64() + last > cfg.seconds {
            return m;
        }
    }
}

/// Median wall time of `f` over [`SETUP_REPEATS`] calls, and its last
/// result.
fn timed_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut out = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        out = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), out.expect("at least one repeat"))
}

fn late(secs: f64, limit: Duration) -> bool {
    secs > 1.5 * limit.as_secs_f64() + 0.1
}

fn label(e: Expected) -> &'static str {
    match e {
        Expected::Safe => "sat",
        Expected::Unsafe => "unsat",
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs workload `name`.
pub fn run(name: &str, cfg: &Config) -> Result<Outcome, String> {
    let quick_every = |v: Vec<Problem>, n: usize| -> Vec<Problem> {
        if cfg.quick {
            v.into_iter().step_by(n).collect()
        } else {
            v
        }
    };
    let limit = |ms: u64| Duration::from_millis(if cfg.quick { 500 } else { ms });
    let (setup_s, m, mut check) = match name {
        "fig8_cli" => {
            let (setup_s, problems) = timed_setup(|| quick_every(inputs::fig8(cfg.seed), 8));
            let (m, check) = solver_workload(cfg, &problems, Engine::Cegar, limit(SHORT_LIMIT_MS));
            (setup_s, m, check)
        }
        "scaling_cli" => {
            let (setup_s, problems) = timed_setup(|| quick_every(inputs::scaling(cfg.seed), 8));
            let (m, check) = solver_workload(cfg, &problems, Engine::Cegar, limit(LONG_LIMIT_MS));
            (setup_s, m, check)
        }
        "portfolio_race" => {
            let (setup_s, problems) = timed_setup(|| quick_every(inputs::portfolio(cfg.seed), 8));
            let (m, check) =
                solver_workload(cfg, &problems, Engine::Portfolio, limit(SHORT_LIMIT_MS));
            (setup_s, m, check)
        }
        "serve_replay" => {
            let variants = if cfg.quick { 7 } else { inputs::SERVE_VARIANTS };
            let (gen_s, jobs) = timed_setup(|| serve_inputs(cfg.seed, variants));
            let (start_s, m, check) = serve_workload(cfg, &jobs, limit(LONG_LIMIT_MS))?;
            (gen_s + start_s, m, check)
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };

    let attempted = m.all().map(|p| p.attempted).sum();
    let failed = m.all().map(|p| p.failed).sum();
    let metrics = if cfg.trace {
        let traced_s: f64 = m.traced.iter().map(|p| p.total_s).sum();
        let med = |ps: &[Pass]| median(&ps.iter().map(|p| p.total_s).collect::<Vec<_>>());
        let overhead = med(&m.traced) / med(&m.untraced) - 1.0;
        let per_layer = layers::metrics(&m.layers, traced_s, overhead);
        for &(n, v, _) in &per_layer {
            if n == "trace.unattributed_share" && v > MAX_UNATTRIBUTED {
                check.fail(format!(
                    "spans and timed calls cover only {:.1}% of the traced wall",
                    100.0 * (1.0 - v)
                ));
            }
        }
        per_layer
            .into_iter()
            .map(|(n, v, u)| (n, Some(v), u))
            .collect()
    } else {
        let lat: Vec<f64> = m
            .untraced
            .iter()
            .flat_map(|p| p.latencies.iter().map(|s| s * 1e3))
            .collect();
        let tried: u64 = m.untraced.iter().map(|p| p.attempted).sum();
        let solved: u64 = m.untraced.iter().map(|p| p.solved).sum();
        let values = [
            Some(setup_s),
            Some(median(
                &m.untraced.iter().map(|p| p.total_s).collect::<Vec<_>>(),
            )),
            percentile(&lat, 50.0),
            percentile(&lat, 90.0),
            Some(solved as f64 / tried.max(1) as f64),
            Some(peak_rss_mb()),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect()
    };
    Ok(Outcome {
        correct: check.violations == 0,
        attempted,
        failed,
        metrics,
    })
}

// ---------------------------------------------------------------------
// fig8_cli, scaling_cli, portfolio_race
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// `CegarSolver::new(.., SolverConfig::default())` + `solve`: what
    /// `linarb <file>` runs.
    Cegar,
    /// `solve_portfolio` at race width [`THREADS`].
    Portfolio,
}

/// A definite verdict awaiting its certificate check, which runs after
/// the pass so it is neither timed nor traced.
struct Pending {
    problem: usize,
    sys: ChcSystem,
    verdict: EngineVerdict,
}

fn solver_workload(
    cfg: &Config,
    problems: &[Problem],
    engine: Engine,
    limit: Duration,
) -> (Measured, Check) {
    let mut check = Check::default();
    let mut m = measure(cfg, |traced, layers| {
        let profile = engine == Engine::Cegar;
        let Layers { spans, timed } = layers;
        // Traced runs time every solve once on both sides, so that
        // `trace.overhead` compares like with like.
        let (mut pass, pending) = collect(traced, profile, spans, || {
            solve_pass(problems, engine, limit, !cfg.trace, timed)
        });
        for p in pending {
            certify(problems, p, timed, &mut check, &mut pass);
        }
        pass
    });
    if cfg.trace {
        replay_canon(problems, &mut m.layers.timed, false);
    }
    (m, check)
}

/// In untraced runs a problem is solved again, up to [`MAX_REPEATS`]
/// times, while its solves add up to less than this, and timed by the
/// fastest solve: the rest of the host can only ever add time, and a
/// sub-millisecond solve is otherwise at the mercy of one preemption or
/// cache miss. Only the first answer is checked.
const REPEAT_BUDGET_S: f64 = 0.2;
const MAX_REPEATS: usize = 5;

fn solve_pass(
    problems: &[Problem],
    engine: Engine,
    limit: Duration,
    repeat: bool,
    timed: &mut Timed,
) -> (Pass, Vec<Pending>) {
    let mut pass = Pass::default();
    let mut pending = Vec::new();
    for (i, p) in problems.iter().enumerate() {
        let mut times = Vec::new();
        let mut first = None;
        let mut failed = false;
        loop {
            let start = Instant::now();
            let answer = catch_unwind(AssertUnwindSafe(|| solve_one(p, engine, limit, timed)));
            let secs = start.elapsed().as_secs_f64();
            times.push(secs);
            let why = match &answer {
                Ok(Ok(_)) if late(secs, limit) => Some(format!("answered after {secs:.3}s")),
                Ok(Ok(_)) => None,
                Ok(Err(e)) => Some(e.clone()),
                Err(_) => Some("panicked".to_string()),
            };
            if let Some(why) = why {
                eprintln!("failed: {}: {why}", p.name);
                failed = true;
            }
            first.get_or_insert(answer);
            if !repeat || times.len() == MAX_REPEATS || times.iter().sum::<f64>() >= REPEAT_BUDGET_S
            {
                break;
            }
        }
        let secs = times.iter().copied().fold(f64::INFINITY, f64::min);
        pass.total_s += secs;
        pass.latencies.push(secs);
        pass.attempted += 1;
        pass.failed += u64::from(failed);
        if let Some(Ok(Ok((sys, verdict)))) = first {
            if verdict.is_definite() {
                pending.push(Pending {
                    problem: i,
                    sys,
                    verdict,
                });
            }
        }
    }
    (pass, pending)
}

/// Load, then solve: the timed span of one operation.
fn solve_one(
    p: &Problem,
    engine: Engine,
    limit: Duration,
    timed: &mut Timed,
) -> Result<(ChcSystem, EngineVerdict), String> {
    let t = Instant::now();
    let sys = p.load()?;
    match p.text {
        Text::MiniC(_) => timed.compile_s += t.elapsed().as_secs_f64(),
        Text::Smt2(_) => timed.parse_s += t.elapsed().as_secs_f64(),
    }
    let budget = Budget::timeout(limit);
    let verdict = match engine {
        Engine::Cegar => {
            let t = Instant::now();
            let mut solver = CegarSolver::new(&sys, SolverConfig::default());
            timed.new_s += t.elapsed().as_secs_f64();
            let result = solver.solve(&budget);
            add_stats(&mut timed.stats, solver.stats());
            EngineVerdict::from(result)
        }
        Engine::Portfolio => {
            let out = solve_portfolio(
                &sys,
                &PortfolioConfig::default().with_threads(THREADS),
                &budget,
            );
            let tp = &mut timed.portfolio;
            tp.race_s += out.wall.as_secs_f64();
            let over = out.wall.as_secs_f64() - limit.as_secs_f64();
            tp.overrun_s_max = tp.overrun_s_max.max(over);
            if over > 0.1 {
                tp.overruns += 1;
            }
            for r in &out.reports {
                let e = ENGINES.iter().position(|&n| n == r.engine.name());
                if let Some(e) = e {
                    tp.engine_s[e] += r.time.as_secs_f64();
                    tp.wins[e] += u64::from(r.winner);
                }
                tp.skipped += u64::from(r.outcome == "skipped");
                tp.cert_failures += u64::from(r.certified == Some(false));
            }
            out.verdict
        }
    };
    Ok((sys, verdict))
}

/// Checks a definite verdict against ground truth and its certificate.
fn certify(
    problems: &[Problem],
    p: Pending,
    timed: &mut Timed,
    check: &mut Check,
    pass: &mut Pass,
) {
    let problem = &problems[p.problem];
    let t = Instant::now();
    let certified = check_certificate(
        &p.sys,
        &p.verdict,
        &Budget::timeout(Duration::from_secs(30)),
    );
    timed.cert_s += t.elapsed().as_secs_f64();
    timed.cert_checks += 1;
    let right = problem
        .expected
        .is_none_or(|e| label(e) == p.verdict.label());
    if !certified {
        timed.portfolio.cert_failures += 1;
        check.fail(format!(
            "{}: {} certificate does not check",
            problem.name,
            p.verdict.label()
        ));
    }
    if !right {
        check.fail(format!(
            "{}: answered {}, ground truth differs",
            problem.name,
            p.verdict.label()
        ));
    }
    pass.solved += u64::from(certified && right);
}

/// Times `canonicalize` over the workload's own inputs: the CLI path
/// never calls it, serve calls it on every job.
fn replay_canon(problems: &[Problem], timed: &mut Timed, time_parse: bool) {
    for p in problems {
        let t = Instant::now();
        let Ok(sys) = p.load() else { continue };
        if time_parse {
            timed.parse_s += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        std::hint::black_box(canonicalize(&sys));
        timed.canon_s += t.elapsed().as_secs_f64();
        timed.canon_clauses += sys.num_clauses() as u64;
    }
}

// ---------------------------------------------------------------------
// serve_replay
// ---------------------------------------------------------------------

/// Jobs per batch request.
const BATCH: usize = 8;

struct ServeInputs {
    jobs: Vec<Problem>,
    /// Rendered batch request frames, [`BATCH`] jobs each.
    frames: Vec<String>,
}

fn serve_inputs(seed: u64, variants: usize) -> ServeInputs {
    let jobs = inputs::serve(seed, variants);
    let frames = jobs
        .chunks(BATCH)
        .enumerate()
        .map(|(b, chunk)| {
            let specs: Vec<JobSpec> = chunk
                .iter()
                .enumerate()
                .map(|(k, p)| {
                    let Text::Smt2(src) = &p.text else {
                        unreachable!("serve jobs are SMT-LIB")
                    };
                    JobSpec {
                        id: (b * BATCH + k) as u64,
                        name: p.name.clone(),
                        format: "smt2".to_string(),
                        program: src.clone(),
                    }
                })
                .collect();
            render_batch(&specs)
        })
        .collect();
    ServeInputs { jobs, frames }
}

/// Where the daemon listens: under the build's output directory,
/// relative to the working directory when possible (socket paths are
/// limited to about 100 bytes).
fn socket_path() -> PathBuf {
    let dir = crate::out_dir();
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("serve-{}.sock", std::process::id()))
}

/// Starts a fresh in-process daemon; returns its connected client, the
/// accept-loop thread, and the time until the socket answered.
fn start_daemon(
    path: &Path,
    limit: Duration,
) -> Result<(Client, std::thread::JoinHandle<std::io::Result<()>>, f64), String> {
    let start = Instant::now();
    let core = Arc::new(ServeCore::new(ServeConfig {
        threads: THREADS,
        timeout: limit,
        ..ServeConfig::default()
    }));
    let addr = BindAddr::Unix(path.to_path_buf());
    let daemon = {
        let addr = addr.clone();
        std::thread::spawn(move || linarb_serve::serve(&addr, core))
    };
    loop {
        // The daemon removes a stale socket file before binding, so a
        // connect can succeed only once the new listener is up.
        if daemon.is_finished() {
            return Err(match daemon.join() {
                Ok(Err(e)) => format!("daemon failed to start: {e}"),
                _ => "daemon exited before listening".to_string(),
            });
        }
        match Client::connect(&addr) {
            Ok(c) => return Ok((c, daemon, start.elapsed().as_secs_f64())),
            Err(_) if start.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(e) => return Err(format!("daemon did not listen on {}: {e}", path.display())),
        }
    }
}

fn num(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn serve_workload(
    cfg: &Config,
    input: &ServeInputs,
    limit: Duration,
) -> Result<(f64, Measured, Check), String> {
    let path = socket_path();
    let mut check = Check::default();
    let mut starts = Vec::new();
    let mut error = None;
    // Served verdicts of the perturbed jobs, checked after the streams.
    let served: Mutex<BTreeMap<usize, Vec<String>>> = Mutex::new(BTreeMap::new());
    let mut m = measure(cfg, |traced, layers| {
        let Layers { spans, timed } = layers;
        match collect(traced, false, spans, || {
            stream(&path, input, limit, timed, &mut check, &served)
        }) {
            Ok((pass, start_s)) => {
                starts.push(start_s);
                pass
            }
            Err(e) => {
                error.get_or_insert(e);
                Pass {
                    attempted: input.jobs.len() as u64,
                    failed: input.jobs.len() as u64,
                    ..Pass::default()
                }
            }
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    gate(
        &input.jobs,
        &served.into_inner().expect("no stream panicked"),
        limit,
        &mut m.layers.timed,
        &mut check,
    );
    if cfg.trace {
        replay_canon(&input.jobs, &mut m.layers.timed, true);
    }
    Ok((median(&starts), m, check))
}

/// One stream: a fresh daemon, every batch in order, then its counters.
fn stream(
    path: &Path,
    input: &ServeInputs,
    limit: Duration,
    timed: &mut Timed,
    check: &mut Check,
    served: &Mutex<BTreeMap<usize, Vec<String>>>,
) -> Result<(Pass, f64), String> {
    let (mut client, daemon, start_s) = start_daemon(path, limit)?;
    let mut pass = Pass::default();
    let wall = Instant::now();
    for frame in &input.frames {
        let t = Instant::now();
        let reply = client.call(frame);
        let rtt = t.elapsed().as_secs_f64();
        pass.latencies.push(rtt);
        let results = match reply.as_deref().map(json::parse) {
            Ok(Ok(v)) => match v.get("results") {
                Some(Json::Arr(items)) => items.clone(),
                _ => Vec::new(),
            },
            _ => Vec::new(),
        };
        let expected_jobs = frame.matches("\"format\":\"smt2\"").count() as u64;
        pass.attempted += expected_jobs;
        if results.len() as u64 != expected_jobs {
            eprintln!(
                "failed: a batch got {} of {expected_jobs} results: {reply:?}",
                results.len()
            );
            pass.failed += expected_jobs;
            continue;
        }
        let mut slowest = 0.0f64;
        for r in &results {
            let id = num(r, "id") as usize;
            let Some(job) = input.jobs.get(id) else {
                eprintln!("failed: a result names unknown job {id}");
                pass.failed += 1;
                continue;
            };
            let verdict = r.get("verdict").and_then(Json::as_str).unwrap_or("error");
            let tier = r.get("cache").and_then(Json::as_str).unwrap_or("");
            let verified = matches!(r.get("verified"), Some(Json::Bool(true)));
            let job_s = num(r, "wall_us") as f64 / 1e6;
            slowest = slowest.max(job_s);
            timed.serve.job_ms.push(job_s * 1e3);
            timed.serve.wait_ms.push((rtt - job_s) * 1e3);
            let failed = verdict == "error" || (tier == "exact" && !verified) || late(job_s, limit);
            if failed {
                eprintln!(
                    "failed: {}: {verdict} cache={tier} verified={verified} {job_s:.3}s",
                    job.name
                );
                pass.failed += 1;
            }
            let definite = verdict == "sat" || verdict == "unsat";
            match job.expected {
                Some(e) if definite && label(e) != verdict => check.fail(format!(
                    "{}: served {verdict}, ground truth {}",
                    job.name,
                    label(e)
                )),
                Some(_) => pass.solved += u64::from(definite && !failed),
                None if definite => {
                    served
                        .lock()
                        .expect("no stream panicked")
                        .entry(id)
                        .or_default()
                        .push(verdict.to_string());
                    // Counted as solved; the gate re-checks it.
                    pass.solved += u64::from(!failed);
                }
                None => {}
            }
        }
        timed.serve.io_ms.push((rtt - slowest) * 1e3);
    }
    pass.total_s = wall.elapsed().as_secs_f64();
    let stats = client
        .call("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats op: {e}"))?;
    if let Some(s) = json::parse(&stats)
        .ok()
        .as_ref()
        .and_then(|v| v.get("stats"))
    {
        let sv = &mut timed.serve;
        sv.exact_hits += num(s, "exact_hits");
        sv.near_hits += num(s, "near_hits");
        sv.misses += num(s, "misses");
        sv.verify_failures += num(s, "verify_failures");
        sv.errors += num(s, "errors");
    }
    client
        .call("{\"op\":\"shutdown\"}")
        .map_err(|e| format!("shutdown op: {e}"))?;
    drop(client);
    match daemon.join() {
        Ok(Ok(())) => Ok((pass, start_s)),
        Ok(Err(e)) => Err(format!("daemon: {e}")),
        Err(_) => Err("daemon panicked".to_string()),
    }
}

/// Perturbed variants have no ground truth: solve each in-process
/// (certificate-checked) and require no served verdict to contradict
/// it. Untimed; two solver threads.
fn gate(
    jobs: &[Problem],
    served: &BTreeMap<usize, Vec<String>>,
    limit: Duration,
    timed: &mut Timed,
    check: &mut Check,
) {
    let start = Instant::now();
    let ids: Vec<usize> = served.keys().copied().collect();
    let next = AtomicUsize::new(0);
    let reference: Mutex<Vec<(usize, &'static str, bool, f64)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                while let Some(&id) = ids.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let Ok(sys) = jobs[id].load() else { continue };
                    let verdict = EngineVerdict::from(
                        CegarSolver::new(&sys, SolverConfig::default())
                            .solve(&Budget::timeout(limit)),
                    );
                    let t = Instant::now();
                    let ok = !verdict.is_definite()
                        || check_certificate(
                            &sys,
                            &verdict,
                            &Budget::timeout(Duration::from_secs(30)),
                        );
                    let cert_s = t.elapsed().as_secs_f64();
                    reference.lock().expect("no gate worker panicked").push((
                        id,
                        verdict.label(),
                        ok,
                        cert_s,
                    ));
                }
            });
        }
    });
    eprintln!(
        "serve gate: {} perturbed variants re-solved in {:.1}s",
        ids.len(),
        start.elapsed().as_secs_f64()
    );
    for (id, want, ok, cert_s) in reference.into_inner().expect("no gate worker panicked") {
        let name = &jobs[id].name;
        if want != "unknown" {
            timed.cert_s += cert_s;
            timed.cert_checks += 1;
        }
        if !ok {
            check.fail(format!(
                "{name}: in-process {want} certificate does not check"
            ));
        } else if want != "unknown" {
            for got in &served[&id] {
                if got != want {
                    check.fail(format!("{name}: served {got}, in-process certified {want}"));
                }
            }
        }
    }
}

//! `linarb` — command-line front door to the data-driven CHC solver.
//!
//! Reads a CHC system from an SMT-LIB2 HORN file (`.smt2`) or a mini-C
//! program (`.c`), runs the CEGAR solver, and prints `sat`, `unsat`,
//! or `unknown`. Structured tracing and metrics from `linarb-trace`
//! are exposed via `--trace`, `--trace-out`, and `--stats`.

use linarb::portfolio::{self, EngineKind, EngineVerdict, PortfolioConfig};
use linarb::smt::Budget;
use linarb::solver::{CegarSolver, SolveResult, SolverConfig};
use linarb::trace::{self, Level};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: linarb [options] <file.smt2|file.c>
       linarb serve [options]     run the solver daemon (see serve --help)
       linarb client [options]    talk to a running daemon

options:
  --trace <off|info|debug|trace>  stderr trace verbosity (default off;
                                  env LINARB_TRACE)
  --trace-out <path>              write the trace as JSONL to <path>
                                  instead of stderr (env LINARB_TRACE_OUT)
  --stats                         print the end-of-run metrics report
                                  (counters, histograms, span timers) as
                                  JSON on stdout
  --engine <name>                 `portfolio` races cegar, spacer, bmc,
                                  duality, pie and dig, started in that
                                  order, under one shared budget (first
                                  checkable certificate wins); any
                                  single engine name runs just that
                                  engine with its certificate checked
                                  (`cegar-nodt` is the paper's ablation
                                  without decision trees). Omit the
                                  flag for the classic CEGAR path
  --threads <n>                   portfolio race width (default 2; env
                                  LINARB_THREADS): engines running at
                                  once, never fewer than 2, so 1 and 2
                                  both run cegar beside spacer. Needs
                                  --engine, since the CEGAR loop is
                                  sequential
  --profile                       aggregate the span tree into a
                                  hierarchical self-profile; print a
                                  summary to stderr after solving
  --profile-out <path>            write the profile as JSON to <path>
                                  and collapsed-stack lines (flamegraph
                                  input) to <path>.folded; implies
                                  --profile
  --progress                      emit one progress line per CEGAR
                                  round to stderr
  --progress-out <path>           write progress snapshots as JSONL to
                                  <path> instead of stderr
  --timeout-ms <n>                solve budget in milliseconds
  --max-iterations <n>            CEGAR iteration cap
  --check-jsonl <path>            validate that <path> is well-formed
                                  JSONL and exit (used by CI)
  --help                          this message

exit status: 0 = sat/unsat decided, 2 = unknown, 1 = error";

/// What `--engine` selected.
#[derive(Clone, Copy)]
enum EngineSel {
    /// Race the default engine set.
    Portfolio,
    /// Run exactly one engine (certificate still checked).
    Single(EngineKind),
}

struct Cli {
    file: Option<String>,
    engine: Option<EngineSel>,
    trace_level: Level,
    trace_out: Option<String>,
    stats: bool,
    threads: Option<usize>,
    profile: bool,
    profile_out: Option<String>,
    progress: bool,
    progress_out: Option<String>,
    timeout_ms: Option<u64>,
    max_iterations: Option<usize>,
    check_jsonl: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        file: None,
        engine: None,
        trace_level: Level::Off,
        trace_out: None,
        stats: false,
        threads: None,
        profile: false,
        profile_out: None,
        progress: false,
        progress_out: None,
        timeout_ms: None,
        max_iterations: None,
        check_jsonl: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--trace" => {
                let v = value("--trace")?;
                cli.trace_level = Level::parse(&v)
                    .ok_or_else(|| format!("bad --trace level `{v}`"))?;
            }
            "--engine" => {
                let v = value("--engine")?;
                cli.engine = Some(if v == "portfolio" {
                    EngineSel::Portfolio
                } else {
                    EngineSel::Single(EngineKind::parse(&v).ok_or_else(|| {
                        format!(
                            "bad --engine `{v}` (expected portfolio or one of: {})",
                            EngineKind::all()
                                .iter()
                                .map(|k| k.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?)
                });
            }
            "--trace-out" => cli.trace_out = Some(value("--trace-out")?),
            "--stats" => cli.stats = true,
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads value".to_string())?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                cli.threads = Some(n);
            }
            "--profile" => cli.profile = true,
            "--profile-out" => {
                cli.profile_out = Some(value("--profile-out")?);
                cli.profile = true;
            }
            "--progress" => cli.progress = true,
            "--progress-out" => {
                cli.progress_out = Some(value("--progress-out")?);
                cli.progress = true;
            }
            "--timeout-ms" => {
                cli.timeout_ms = Some(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|_| "bad --timeout-ms value".to_string())?,
                );
            }
            "--max-iterations" => {
                cli.max_iterations = Some(
                    value("--max-iterations")?
                        .parse()
                        .map_err(|_| "bad --max-iterations value".to_string())?,
                );
            }
            "--check-jsonl" => cli.check_jsonl = Some(value("--check-jsonl")?),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            _ => {
                if cli.file.replace(arg).is_some() {
                    return Err("more than one input file".to_string());
                }
            }
        }
    }
    if cli.threads.is_some() && cli.engine.is_none() {
        return Err("--threads sets the portfolio race width and needs --engine".to_string());
    }
    Ok(cli)
}

fn load_system(path: &str) -> Result<linarb::logic::ChcSystem, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".c") {
        linarb::frontend::compile(&src).map_err(|e| format!("{path}: {e}"))
    } else {
        linarb::logic::parse_chc(&src).map_err(|e| format!("{path}: {e}"))
    }
}

fn main() -> ExitCode {
    // Subcommand dispatch: `linarb serve …` / `linarb client …` run
    // the daemon paths; anything else is the classic one-shot CLI.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return ExitCode::from(linarb::serve::cli::serve_main(&argv[1..]) as u8),
        Some("client") => {
            return ExitCode::from(linarb::serve::cli::client_main(&argv[1..]) as u8)
        }
        _ => {}
    }

    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("linarb: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // CI helper: validate a JSONL trace without solving anything.
    if let Some(path) = &cli.check_jsonl {
        return match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("linarb: cannot read {path}: {e}");
                ExitCode::FAILURE
            }
            Ok(text) => match trace::json::validate_jsonl(&text) {
                Ok(0) => {
                    eprintln!("linarb: {path}: empty JSONL document");
                    ExitCode::FAILURE
                }
                Ok(n) => {
                    println!("{path}: {n} valid JSONL records");
                    ExitCode::SUCCESS
                }
                Err((line, e)) => {
                    eprintln!("linarb: {path}:{line}: {e}");
                    ExitCode::FAILURE
                }
            },
        };
    }

    let Some(file) = &cli.file else {
        eprintln!("linarb: no input file");
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    // CLI flags take precedence; fall back to LINARB_TRACE[_OUT].
    let level = if cli.trace_level != Level::Off || cli.trace_out.is_some() {
        trace::install_cli_sink(cli.trace_level, cli.trace_out.as_deref())
    } else {
        trace::init_from_env()
    };
    // Metrics feed --stats and the JSONL metrics trailer.
    let collect_metrics = cli.stats || level != Level::Off;
    if collect_metrics {
        trace::metrics::enable(true);
    }

    let sys = match load_system(file) {
        Ok(sys) => sys,
        Err(msg) => {
            eprintln!("linarb: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = SolverConfig::default();
    if let Some(n) = cli.max_iterations {
        config.max_iterations = n;
    }
    if cli.progress {
        let reporter = match &cli.progress_out {
            Some(path) => {
                match linarb::solver::ProgressReporter::jsonl_file(std::path::Path::new(path)) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("linarb: cannot open {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => linarb::solver::ProgressReporter::stderr(),
        };
        config = config.with_progress(reporter);
    }
    let budget = match cli.timeout_ms {
        Some(ms) => Budget::timeout(Duration::from_millis(ms)),
        None => Budget::unlimited(),
    };

    // The scope must exist before the solve; dropping it after export
    // re-disables profiling.
    let pscope = cli.profile.then(trace::ProfileScope::new);
    let start = std::time::Instant::now();
    // Either the portfolio driver (`--engine ...`) or the classic
    // direct CEGAR path; exactly one of the two is `Some` afterwards.
    let mut cegar = None;
    let mut race = None;
    match cli.engine {
        Some(EngineSel::Portfolio) => {
            let mut pconfig = PortfolioConfig::default();
            if let Some(t) = cli
                .threads
                .or_else(|| std::env::var("LINARB_THREADS").ok()?.parse().ok())
            {
                pconfig.threads = t;
            }
            race = Some(portfolio::solve_portfolio(&sys, &pconfig, &budget));
        }
        Some(EngineSel::Single(kind)) => {
            race = Some(portfolio::solve_single(kind, &sys, &budget));
        }
        None => {
            let mut solver = CegarSolver::new(&sys, config);
            let result = solver.solve(&budget);
            cegar = Some((solver, result));
        }
    }
    let wall = start.elapsed();
    if let Some(ps) = &pscope {
        let tree = ps.take_tree();
        if let Some(violation) = tree.check_invariant(50) {
            eprintln!("linarb: profile invariant violated: {violation}");
        }
        if let Some(path) = &cli.profile_out {
            let folded = format!("{path}.folded");
            if let Err(e) = std::fs::write(path, tree.to_json()) {
                eprintln!("linarb: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            if let Err(e) = std::fs::write(&folded, tree.to_collapsed()) {
                eprintln!("linarb: cannot write {folded}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("linarb: profile written to {path} (collapsed: {folded})");
        }
        // Stderr summary: the outermost spans and their heaviest
        // children, against measured wall for a sanity cross-check.
        eprintln!(
            "profile: root {}us over {} top-level span(s), wall {}us",
            tree.root_incl_us(),
            tree.root.children.len(),
            wall.as_micros()
        );
        for top in tree.root.children.values() {
            eprintln!(
                "  {:28} calls {:6} incl {:10}us excl {:8}us",
                top.name,
                top.calls,
                top.incl_us,
                top.excl_us()
            );
            for child in top.children.values() {
                eprintln!(
                    "    {:26} calls {:6} incl {:10}us excl {:8}us",
                    child.name,
                    child.calls,
                    child.incl_us,
                    child.excl_us()
                );
            }
        }
    }

    let (verdict, code) = match (&cegar, &race) {
        (Some((_, result)), _) => match result {
            SolveResult::Sat(_) => ("sat", ExitCode::SUCCESS),
            SolveResult::Unsat(_) => ("unsat", ExitCode::SUCCESS),
            SolveResult::Unknown(_) => ("unknown", ExitCode::from(2)),
        },
        (None, Some(out)) => match &out.verdict {
            EngineVerdict::Sat(_) => ("sat", ExitCode::SUCCESS),
            EngineVerdict::Unsat(_) => ("unsat", ExitCode::SUCCESS),
            EngineVerdict::Unknown(_) => ("unknown", ExitCode::from(2)),
        },
        (None, None) => unreachable!("one of the paths always runs"),
    };
    println!("{verdict}");
    if let Some((_, SolveResult::Unknown(reason))) = &cegar {
        eprintln!("linarb: unknown: {reason:?}");
    }
    if let Some(out) = &race {
        if let EngineVerdict::Unknown(reason) = &out.verdict {
            eprintln!("linarb: unknown: {reason}");
        }
        // Per-engine outcome/time/winner table on stderr.
        if cli.stats || cli.progress {
            for line in out.summary_lines() {
                eprintln!("portfolio: {line}");
            }
        }
    }

    if collect_metrics {
        let mut report = trace::metrics::take_report();
        if let Some((solver, _)) = &cegar {
            solver.stats().export_into(&mut report);
        }
        if let Some(out) = &race {
            out.export_into(&mut report);
        }
        report.set_counter("cli.wall_us", wall.as_micros() as u64);
        trace::emit_metrics(&report);
        if cli.stats {
            println!("{}", report.to_json());
        }
    }
    // Dropping the global sink flushes the JSONL file.
    trace::clear_global_sink();
    code
}

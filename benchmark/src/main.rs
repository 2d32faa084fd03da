//! The repository benchmark: linarb's shipped paths end to end, with a
//! per-layer breakdown in traced runs. See `benchmark/README.md`.
//!
//! ```text
//! linarb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! linarb-benchmark [--seed N] [--seconds S] [--traced] [--quick]
//! linarb-benchmark compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! The first form runs one workload in this process and ends its
//! output with one JSON line. The second runs every workload, each in
//! a child process of its own (so peak memory is per workload), prints
//! `<workload>.<metric> <value> <unit>` lines and writes the same data
//! to `<target>/bench/run-<time>-seed<N>.json`. The third compares two
//! sets of such files.

mod inputs;
mod layers;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use linarb_trace::json::{self, Json};
use linarb_trace::json_string;

use stats::Better;
use workloads::{Config, Outcome, WORKLOADS};

/// Seconds one run measures unless told otherwise.
const DEFAULT_SECONDS: f64 = 20.0;

/// Where results and the daemon socket go: `$CARGO_TARGET_DIR/bench`
/// (default `target/bench`), relative to the working directory when it
/// lies below it.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = PathBuf::from(target).join("bench");
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(dir),
        Err(_) => dir,
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--traced" => a.trace = true,
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // No environment knob may change what is measured; children inherit
    // the cleaned environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LINARB_") {
            std::env::remove_var(&key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("linarb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

/// One workload in this process; the last stdout line is the result.
fn run_one(name: &str, args: &Args) -> ExitCode {
    // A smoke run makes a single pass.
    let seconds = if args.quick { 0.0 } else { args.seconds };
    let cfg = Config {
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
    };
    let out: Outcome = match workloads::run(name, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("linarb-benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut body = Vec::new();
    for &(metric, value, unit) in &out.metrics {
        let shown = value.map_or("n/a".to_string(), |v| v.to_string());
        println!("{name}.{metric} {shown} {unit}");
        match value {
            Some(v) if v.is_finite() => body.push(format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_string(metric),
                json_string(unit)
            )),
            // A smoke run's samples are too few for some percentiles.
            _ if args.quick => {}
            _ => {
                eprintln!("linarb-benchmark: {name}: no value for {metric}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        body.join(",")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `--workload name` in a child process, forwards its metric
/// lines and returns its result line.
fn child(name: &str, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let prefix = format!("{name}.");
    stdout
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .for_each(|l| println!("{l}"));
    let last = stdout.lines().last().unwrap_or("").to_string();
    if json::parse(&last).is_err() {
        return Err(format!("{name} printed no result ({})", out.status));
    }
    Ok(last)
}

/// Every workload, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut sections = Vec::new();
    for (key, traced) in [("runs", false), ("traced", true)] {
        if traced && !args.trace {
            continue;
        }
        let mut entries = Vec::new();
        for name in WORKLOADS {
            let line = match child(name, args, traced) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("linarb-benchmark: {e}");
                    ok = false;
                    continue;
                }
            };
            let v = json::parse(&line).expect("checked in child()");
            ok &= v.get("correct") == Some(&Json::Bool(true));
            for k in ["correct", "attempted", "failed"] {
                let shown = match v.get(k) {
                    Some(Json::Bool(b)) => b.to_string(),
                    Some(Json::Num(n)) => n.to_string(),
                    _ => "?".to_string(),
                };
                println!("{name}.{k} {shown}");
            }
            entries.push(format!("{}:{line}", json_string(name)));
        }
        sections.push(format!("{}:{{{}}}", json_string(key), entries.join(",")));
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let file = out_dir().join(format!("run-{stamp}-seed{}.json", args.seed));
    let doc = format!(
        "{{\"seed\":{},\"seconds\":{},\"quick\":{},{}}}\n",
        args.seed,
        args.seconds,
        args.quick,
        sections.join(",")
    );
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&file, doc)) {
        Ok(()) => println!("results written to {}", file.display()),
        Err(e) => {
            eprintln!("linarb-benchmark: cannot write {}: {e}", file.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "linarb-benchmark: a workload failed its correctness checks or produced no result"
        );
        ExitCode::FAILURE
    }
}

/// A metric's bound and direction, from `BENCHMARK.json`.
struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn read_bounds() -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    items
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (better, bound) {
                (Some(better), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    better,
                    bound,
                }),
                _ => Err(format!("end_to_end `{name}` needs better and bound")),
            }
        })
        .collect()
}

/// Reads `runs.<workload>.metrics.<metric>.value` from each run file.
fn values(docs: &[Json], workload: &str, metric: &str) -> Option<Vec<f64>> {
    docs.iter()
        .map(|d| {
            d.get("runs")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// `compare PARENT... -- CHANGE...`: one row per workload × end-to-end
/// metric. Exits non-zero when a row regressed.
fn compare(argv: &[String]) -> ExitCode {
    let Some(split) = argv.iter().position(|a| a == "--") else {
        eprintln!("usage: compare PARENT.json... -- CHANGE.json...");
        return ExitCode::from(2);
    };
    let load = |files: &[String]| -> Result<Vec<Json>, String> {
        files
            .iter()
            .map(|f| {
                let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{f}: {e}"))
            })
            .collect()
    };
    let (parent, change, bounds) = match (
        load(&argv[..split]),
        load(&argv[split + 1..]),
        read_bounds(),
    ) {
        (Ok(p), Ok(c), Ok(b)) => (p, c, b),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("linarb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if parent.len() != change.len() || parent.len() < 10 {
        eprintln!(
            "linarb-benchmark: need at least 10 alternating pairs (got {} parent, {} change runs)",
            parent.len(),
            change.len()
        );
        return ExitCode::from(2);
    }
    println!(
        "{:15} {:13} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "worse", "wins"
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        for b in &bounds {
            let (Some(p), Some(c)) = (
                values(&parent, workload, &b.name),
                values(&change, workload, &b.name),
            ) else {
                println!("{workload:15} {:13} missing from some run", b.name);
                continue;
            };
            let row = stats::compare(&p, &c, b.better, b.bound);
            regressed |= row.verdict == stats::Verdict::Regressed;
            println!(
                "{workload:15} {:13} {:>12.6} [{:>11.6}, {:>11.6}] {:>12.6} [{:>11.6}, {:>11.6}] {:>7.2}% {:>3}/{:<2}  {} (bound {}%)",
                b.name,
                row.parent_median,
                row.parent_quartiles.0,
                row.parent_quartiles.1,
                row.change_median,
                row.change_quartiles.0,
                row.change_quartiles.1,
                row.worse_by * 100.0,
                row.wins,
                row.pairs,
                row.verdict.label(),
                b.bound * 100.0
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables in the code and in `BENCHMARK.json` agree.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("no {key}")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(workloads::END_TO_END));
        assert_eq!(listed("per_layer"), own(layers::PER_LAYER));
        let Some(Json::Arr(w)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<&str> = w
            .iter()
            .map(|x| x.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn engine_names_follow_the_race() {
        let race: Vec<&str> = linarb_portfolio::EngineKind::race()
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(race, layers::ENGINES);
    }
}

//! `linarb serve` / `linarb client` subcommand entry points (thin
//! argument parsing over [`crate::server`] and [`crate::client`]).

use std::sync::Arc;
use std::time::Duration;

use linarb_portfolio::EngineKind;
use linarb_trace::json::{self, Json};

use crate::client::Client;
use crate::engine::{ServeConfig, ServeCore};
use crate::proto::{render_batch, JobSpec};
use crate::server::{parse_addr, serve};

const SERVE_USAGE: &str = "\
usage: linarb serve [options]

options:
  --addr <unix:PATH|tcp:HOST:PORT>  listen address
                                    (default unix:/tmp/linarb-serve.sock)
  --threads <n>                     jobs of a batch solved at once (default
                                    LINARB_THREADS or the machine)
  --timeout-ms <n>                  per-job budget (default 30000)
  --engine <name>                   solve with a single portfolio
                                    engine instead of the in-daemon
                                    CEGAR path (disables warm starts)
  --no-cache                        disable the invariant cache
  --no-near                         disable the near-miss tier
  --cache-cap <n>                   max cache entries (default 4096)

the daemon prints one `ready` line once listening and exits on a
client `shutdown` request";

const CLIENT_USAGE: &str = "\
usage: linarb client [options] [file.smt2|file.c ...]

options:
  --addr <unix:PATH|tcp:HOST:PORT>  daemon address
                                    (default unix:/tmp/linarb-serve.sock)
  --op <ping|stats|shutdown>        send a control request instead of
                                    solving files

files are submitted as one batch; each result prints as
`<name> <verdict> cache=<tier> verified=<bool> wall_us=<n>`.
exit status: 0 = all verdicts definite, 2 = some unknown, 1 = error";

const DEFAULT_ADDR: &str = "unix:/tmp/linarb-serve.sock";

/// `linarb serve …` — runs the daemon until shutdown.
pub fn serve_main(args: &[String]) -> i32 {
    let mut cfg = ServeConfig::default();
    let mut addr = DEFAULT_ADDR.to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        let r: Result<(), String> = (|| {
            match arg.as_str() {
                "--help" | "-h" => Err(String::new()),
                "--addr" => {
                    addr = value("--addr")?.to_string();
                    Ok(())
                }
                "--threads" => {
                    cfg.threads = value("--threads")?
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("bad --threads value")?;
                    Ok(())
                }
                "--timeout-ms" => {
                    let ms: u64 =
                        value("--timeout-ms")?.parse().map_err(|_| "bad --timeout-ms value")?;
                    cfg.timeout = Duration::from_millis(ms);
                    Ok(())
                }
                "--engine" => {
                    let v = value("--engine")?;
                    cfg.engine =
                        Some(EngineKind::parse(v).ok_or_else(|| format!("bad --engine `{v}`"))?);
                    Ok(())
                }
                "--no-cache" => {
                    cfg.cache = false;
                    Ok(())
                }
                "--no-near" => {
                    cfg.near = false;
                    Ok(())
                }
                "--cache-cap" => {
                    cfg.cache_cap = value("--cache-cap")?
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("bad --cache-cap value")?;
                    Ok(())
                }
                other => Err(format!("unknown option `{other}`")),
            }
        })();
        if let Err(msg) = r {
            if msg.is_empty() {
                println!("{SERVE_USAGE}");
                return 0;
            }
            eprintln!("linarb serve: {msg}");
            eprintln!("{SERVE_USAGE}");
            return 1;
        }
    }
    let addr = match parse_addr(&addr) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("linarb serve: {msg}");
            return 1;
        }
    };
    match serve(&addr, Arc::new(ServeCore::new(cfg))) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("linarb serve: {e}");
            1
        }
    }
}

/// `linarb client …` — submits files or a control op to a daemon.
pub fn client_main(args: &[String]) -> i32 {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut op: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{CLIENT_USAGE}");
                return 0;
            }
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => {
                    eprintln!("linarb client: --addr needs a value");
                    return 1;
                }
            },
            "--op" => match it.next() {
                Some(v) if matches!(v.as_str(), "ping" | "stats" | "shutdown") => {
                    op = Some(v.clone());
                }
                Some(v) => {
                    eprintln!("linarb client: bad --op `{v}`");
                    return 1;
                }
                None => {
                    eprintln!("linarb client: --op needs a value");
                    return 1;
                }
            },
            other if other.starts_with('-') => {
                eprintln!("linarb client: unknown option `{other}`");
                eprintln!("{CLIENT_USAGE}");
                return 1;
            }
            file => files.push(file.to_string()),
        }
    }
    let addr = match parse_addr(&addr) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("linarb client: {msg}");
            return 1;
        }
    };
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("linarb client: cannot connect: {e}");
            return 1;
        }
    };

    if let Some(op) = op {
        let reply = match client.call(&format!("{{\"op\":\"{op}\"}}")) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("linarb client: {e}");
                return 1;
            }
        };
        println!("{reply}");
        return 0;
    }

    if files.is_empty() {
        eprintln!("linarb client: no files and no --op");
        eprintln!("{CLIENT_USAGE}");
        return 1;
    }
    let mut jobs = Vec::with_capacity(files.len());
    for (i, path) in files.iter().enumerate() {
        let program = match std::fs::read_to_string(path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("linarb client: cannot read {path}: {e}");
                return 1;
            }
        };
        let format = if path.ends_with(".c") { "c" } else { "smt2" };
        jobs.push(JobSpec {
            id: i as u64,
            name: path.clone(),
            format: format.to_string(),
            program,
        });
    }
    let reply = match client.call(&render_batch(&jobs)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("linarb client: {e}");
            return 1;
        }
    };
    let parsed = match json::parse(&reply) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("linarb client: bad response: {e}");
            return 1;
        }
    };
    if let Some(err) = parsed.get("error").and_then(Json::as_str) {
        eprintln!("linarb client: server error: {err}");
        return 1;
    }
    let Some(Json::Arr(results)) = parsed.get("results") else {
        eprintln!("linarb client: malformed response: {reply}");
        return 1;
    };
    let mut code = 0;
    for r in results {
        let name = r.get("name").and_then(Json::as_str).unwrap_or("?");
        let verdict = r.get("verdict").and_then(Json::as_str).unwrap_or("?");
        let tier = r.get("cache").and_then(Json::as_str).unwrap_or("?");
        let verified = matches!(r.get("verified"), Some(Json::Bool(true)));
        let wall = r.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        println!("{name} {verdict} cache={tier} verified={verified} wall_us={wall}");
        match verdict {
            "sat" | "unsat" => {}
            "unknown" => code = code.max(2),
            _ => {
                if let Some(d) = r.get("detail").and_then(Json::as_str) {
                    eprintln!("linarb client: {name}: {d}");
                }
                code = 1;
            }
        }
    }
    code
}

//! End-to-end tests for the serve subsystem: cache tiers, verdict
//! stability, the socket daemon, and a warm-vs-cold variant replay.

use std::sync::Arc;
use std::time::Duration;

use linarb_serve::engine::{JobInput, ServeConfig, ServeCore, Source, Tier};
use linarb_serve::client::Client;
use linarb_serve::replay::variant;
use linarb_serve::server::{serve, BindAddr};
use linarb_smt::Budget;
use linarb_solver::{CegarSolver, SolveResult, SolverConfig};
use linarb_suite::{even_odd, fibo_unsafe, fig1, Benchmark};

fn test_config() -> ServeConfig {
    ServeConfig { threads: 2, timeout: Duration::from_secs(60), ..ServeConfig::default() }
}

fn job(id: u64, b: &Benchmark) -> JobInput {
    JobInput { id, name: b.name.clone(), source: Source::System(b.system.clone()) }
}

#[test]
fn repeat_submission_is_a_verified_exact_hit() {
    let core = ServeCore::new(test_config());
    let bench = fig1();
    let first = core.submit_batch(vec![job(0, &bench)]);
    assert_eq!(first[0].verdict, "sat");
    assert_eq!(first[0].tier, Tier::Miss);
    let second = core.submit_batch(vec![job(1, &bench)]);
    assert_eq!(second[0].verdict, "sat");
    assert_eq!(second[0].tier, Tier::Exact, "same system again must hit the exact tier");
    assert!(second[0].verified, "exact hits must be re-verified before serving");
    let stats = core.stats();
    assert_eq!(stats.exact_hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.verify_failures, 0);
}

#[test]
fn unsat_verdicts_cache_and_replay() {
    let core = ServeCore::new(test_config());
    let bench = fibo_unsafe();
    let first = core.submit_batch(vec![job(0, &bench)]);
    assert_eq!(first[0].verdict, "unsat");
    let second = core.submit_batch(vec![job(1, &bench)]);
    assert_eq!(second[0].verdict, "unsat");
    assert_eq!(second[0].tier, Tier::Exact);
    assert!(second[0].verified);
}

#[test]
fn perturbed_resubmission_is_a_near_hit_with_the_cold_verdict() {
    for bench in [fig1(), fibo_unsafe()] {
        let core = ServeCore::new(test_config());
        assert_eq!(core.submit_batch(vec![job(0, &bench)])[0].tier, Tier::Miss);
        // Variant 0 of every eight is the constant perturbation.
        let perturbed = variant(&bench.system, 0x1abb_5eed, 0);
        let out = core.submit_batch(vec![JobInput {
            id: 1,
            name: format!("{}@0", bench.name),
            source: Source::System(perturbed.clone()),
        }]);
        assert_eq!(out[0].tier, Tier::Near, "{}: perturbed resubmission", bench.name);
        let cold = CegarSolver::new(&perturbed, SolverConfig::default())
            .solve(&Budget::timeout(Duration::from_secs(60)));
        let cold = match cold {
            SolveResult::Sat(_) => "sat",
            SolveResult::Unsat(_) => "unsat",
            SolveResult::Unknown(r) => panic!("{}: cold solve gave unknown: {r:?}", bench.name),
        };
        assert_eq!(out[0].verdict, cold, "{}: near-tier verdict", bench.name);
    }
}

#[test]
fn cache_disabled_never_hits() {
    let core = ServeCore::new(ServeConfig { cache: false, ..test_config() });
    let bench = fig1();
    for id in 0..2 {
        let out = core.submit_batch(vec![job(id, &bench)]);
        assert_eq!(out[0].verdict, "sat");
        assert_eq!(out[0].tier, Tier::Off);
    }
    assert_eq!(core.cache_len(), 0);
}

#[test]
fn batches_shard_across_the_pool_in_order() {
    let core = ServeCore::new(test_config());
    let benches = [fig1(), fibo_unsafe(), even_odd()];
    let jobs: Vec<JobInput> = benches.iter().enumerate().map(|(i, b)| job(i as u64, b)).collect();
    let out = core.submit_batch(jobs);
    assert_eq!(out.len(), 3);
    // Results come back in submission order regardless of completion
    // order.
    for (i, (o, b)) in out.iter().zip(benches.iter()).enumerate() {
        assert_eq!(o.id, i as u64);
        assert_eq!(o.name, b.name);
    }
    assert_eq!(out[0].verdict, "sat");
    assert_eq!(out[1].verdict, "unsat");
    assert_eq!(out[2].verdict, "sat");
}

#[test]
fn daemon_round_trip_over_unix_socket() {
    let dir = std::env::temp_dir().join(format!("linarb-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr = BindAddr::Unix(dir.join("daemon.sock"));
    let core = Arc::new(ServeCore::new(test_config()));
    let server_addr = addr.clone();
    let handle = std::thread::spawn(move || serve(&server_addr, core));

    // The daemon binds asynchronously; poll for the socket.
    let mut client = None;
    for _ in 0..200 {
        match Client::connect(&addr) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut client = client.expect("daemon did not come up");

    let pong = client.call("{\"op\":\"ping\"}").unwrap();
    assert!(pong.contains("\"ok\":true"), "bad ping reply: {pong}");

    let smt2 = fig1().system.to_smtlib();
    let req = format!(
        "{{\"op\":\"solve\",\"id\":1,\"name\":\"fig1\",\"format\":\"smt2\",\"program\":{}}}",
        linarb_trace::json_string(&smt2)
    );
    let reply = client.call(&req).unwrap();
    assert!(reply.contains("\"verdict\":\"sat\""), "bad solve reply: {reply}");
    assert!(reply.contains("\"cache\":\"miss\""), "first solve must miss: {reply}");

    // Same program again on a new connection: exact hit.
    drop(client);
    let mut client = Client::connect(&addr).unwrap();
    let reply = client.call(&req).unwrap();
    assert!(reply.contains("\"cache\":\"exact\""), "repeat must hit: {reply}");
    assert!(reply.contains("\"verified\":true"), "hit must be verified: {reply}");

    let stats = client.call("{\"op\":\"stats\"}").unwrap();
    assert!(stats.contains("\"exact_hits\":1"), "bad stats: {stats}");

    let bye = client.call("{\"op\":\"shutdown\"}").unwrap();
    assert!(bye.contains("\"ok\":true"));
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_frames_get_error_responses() {
    let dir = std::env::temp_dir().join(format!("linarb-serve-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr = BindAddr::Unix(dir.join("daemon.sock"));
    let core = Arc::new(ServeCore::new(test_config()));
    let server_addr = addr.clone();
    let handle = std::thread::spawn(move || serve(&server_addr, core));
    let mut client = None;
    for _ in 0..200 {
        match Client::connect(&addr) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut client = client.expect("daemon did not come up");
    let reply = client.call("this is not json").unwrap();
    assert!(reply.contains("\"op\":\"error\""), "bad error reply: {reply}");
    // The connection survives a bad request.
    let pong = client.call("{\"op\":\"ping\"}").unwrap();
    assert!(pong.contains("\"ok\":true"));
    client.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_driver_small_run_agrees_and_hits() {
    // The same variant stream through a cache-enabled (warm) and a
    // cache-disabled (cold) core: the cache may change speed, never
    // answers.
    let mut jobs: Vec<(String, linarb_logic::ChcSystem)> = Vec::new();
    for b in [fig1(), fibo_unsafe()] {
        let variants: Vec<_> = (0..12)
            .map(|i| (format!("{}@{i}", b.name), variant(&b.system, 0x1abb_5eed, i)))
            .collect();
        jobs.push((b.name, b.system));
        jobs.extend(variants);
    }
    assert_eq!(jobs.len(), 2 * 13);
    let run = |cache: bool| {
        let core = ServeCore::new(ServeConfig { cache, ..test_config() });
        let mut verdicts = Vec::with_capacity(jobs.len());
        for chunk in jobs.chunks(8) {
            let inputs: Vec<JobInput> = chunk
                .iter()
                .enumerate()
                .map(|(k, (name, sys))| JobInput {
                    id: (verdicts.len() + k) as u64,
                    name: name.clone(),
                    source: Source::System(sys.clone()),
                })
                .collect();
            verdicts.extend(core.submit_batch(inputs).into_iter().map(|o| o.verdict));
        }
        (verdicts, core.stats())
    };
    let (warm_verdicts, warm) = run(true);
    let (cold_verdicts, cold) = run(false);
    let mismatches = warm_verdicts
        .iter()
        .zip(&cold_verdicts)
        .filter(|(w, c)| w != c && *w != "unknown" && *c != "unknown")
        .count();
    assert_eq!(mismatches, 0, "cache must never change a verdict");
    assert_eq!(warm.unknown, 0);
    // Rename/reorder/scale variants (7 of every 8) must hit the exact
    // tier after each base's first solve: 12 variants per base means
    // 10 exact-class ones each (indices 0 and 8 are perturbations).
    assert!(
        warm.exact_hits >= 20,
        "expected most mutants to exact-hit, got {} (near {}, miss {})",
        warm.exact_hits,
        warm.near_hits,
        warm.misses
    );
    assert_eq!(cold.exact_hits + cold.near_hits, 0, "cold side must not hit");
    assert_eq!(warm.verify_failures, 0);
}

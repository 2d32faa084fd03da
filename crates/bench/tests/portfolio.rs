//! Portfolio driver integration tests: differential agreement with the
//! single engines, winner-certificate checking on both polarities,
//! deterministic forced-winner mode, and the harder-tier claim (the
//! portfolio solves instances the CEGAR engine alone cannot at the
//! same budget).

use linarb_bench::{paper_name, run_engine, run_portfolio, Verdict};
use linarb_portfolio::{
    check_certificate, solve_portfolio, Certificate, EngineKind, EngineVerdict, PortfolioConfig,
};
use linarb_smt::Budget;
use linarb_suite::{harder_tier, Benchmark};
use std::time::Duration;

/// A fixed selection of the suite: loop invariants needing many
/// refinements, recursion, and an unsat instance.
fn suite() -> Vec<Benchmark> {
    vec![
        linarb_suite::fig1(),
        linarb_suite::program_a(),
        linarb_suite::program_c_fibo(),
        linarb_suite::fibo_unsafe(),
        linarb_suite::even_odd(),
        linarb_suite::cggmp2005(),
        linarb_suite::jm2006(),
        linarb_suite::hhk2008(),
        linarb_suite::invgen_sum(),
        linarb_suite::half_counter(),
    ]
}

fn timeout() -> Duration {
    Duration::from_millis(linarb_bench::env_or("LINARB_TIMEOUT_MS", 3_000))
}

/// The portfolio's definite verdicts must agree with every single
/// engine's definite verdict on the whole suite (an engine timing out
/// is fine; a contradiction is a soundness bug in someone).
#[test]
fn portfolio_agrees_with_single_engines() {
    let singles = [
        EngineKind::Cegar,
        EngineKind::Pie,
        EngineKind::Dig,
        EngineKind::Spacer,
        EngineKind::Gpdr,
        EngineKind::Duality,
        EngineKind::UAutomizer,
    ];
    for bench in suite() {
        let port = run_portfolio(&bench, timeout());
        assert_ne!(
            port.correct,
            Some(false),
            "portfolio contradicts ground truth on {}",
            bench.name
        );
        for engine in singles {
            let single = run_engine(engine, &bench, timeout());
            assert_ne!(
                single.correct,
                Some(false),
                "{} contradicts ground truth on {}",
                paper_name(engine),
                bench.name
            );
            if port.verdict != Verdict::Unknown && single.verdict != Verdict::Unknown {
                assert_eq!(
                    port.verdict, single.verdict,
                    "portfolio and {} disagree on {}",
                    paper_name(engine),
                    bench.name
                );
            }
        }
    }
}

/// The winning verdict's certificate must check on both polarities:
/// a SAT invariant verifies clause-by-clause, an UNSAT derivation
/// replays concretely.
#[test]
fn winner_certificates_check_on_both_polarities() {
    let config = PortfolioConfig::default().with_threads(4);
    let mut sat_seen = false;
    let mut unsat_seen = false;
    for bench in suite() {
        let budget = Budget::timeout(timeout());
        let out = solve_portfolio(&bench.system, &config, &budget);
        let Some(winner) = out.winner else { continue };
        let cert = out.verdict.certificate().expect("winner must carry a certificate");
        match (&out.verdict, cert) {
            (EngineVerdict::Sat(_), Certificate::Invariant(_)) => sat_seen = true,
            (EngineVerdict::Unsat(_), Certificate::Derivation(_)) => unsat_seen = true,
            other => panic!("mismatched verdict/certificate from {winner}: {other:?}"),
        }
        assert!(
            check_certificate(&bench.system, &out.verdict, &Budget::unlimited()),
            "winning certificate from {winner} fails the independent check on {}",
            bench.name
        );
        let row = out
            .reports
            .iter()
            .find(|r| r.engine == winner)
            .expect("winner has a report row");
        assert!(row.winner && row.certified == Some(true));
    }
    assert!(sat_seen, "no SAT instance was won — suite/budget mis-set");
    assert!(unsat_seen, "no UNSAT instance was won — suite/budget mis-set");
}

/// `force: Some(engine)` (the `LINARB_PORTFOLIO_FORCE` mechanism) runs
/// exactly that engine and is reproducible run to run.
#[test]
fn forced_winner_is_deterministic() {
    let bench = linarb_suite::fig1();
    let config = PortfolioConfig {
        force: Some(EngineKind::Cegar),
        ..PortfolioConfig::default()
    };
    let a = solve_portfolio(&bench.system, &config, &Budget::timeout(timeout()));
    let b = solve_portfolio(&bench.system, &config, &Budget::timeout(timeout()));
    assert_eq!(a.winner, Some(EngineKind::Cegar));
    assert_eq!(a.winner, b.winner);
    assert_eq!(a.verdict.label(), b.verdict.label());
    assert_eq!(a.reports.len(), 1);
    assert_eq!(b.reports.len(), 1);
}

/// `LINARB_PORTFOLIO_FORCE` reaches the config through `from_env`,
/// and a name that does not parse is an error, not the full race.
/// (Set/unset inside one test to keep the process env race-free.)
#[test]
fn force_env_parses() {
    std::env::set_var("LINARB_PORTFOLIO_FORCE", "spacer");
    let config = PortfolioConfig::from_env();
    std::env::set_var("LINARB_PORTFOLIO_FORCE", "spacr");
    let typo = PortfolioConfig::from_env();
    std::env::remove_var("LINARB_PORTFOLIO_FORCE");
    assert_eq!(
        config.expect("spacer parses").force,
        Some(EngineKind::Spacer)
    );
    let err = typo.expect_err("a misspelt engine must not run the race");
    assert!(
        err.contains("LINARB_PORTFOLIO_FORCE") && err.contains("spacr"),
        "{err}"
    );
    assert_eq!(
        PortfolioConfig::from_env().expect("unset parses").force,
        None
    );
}

/// The tentpole claim: at the same budget, the racing portfolio solves
/// harder-tier instances the CEGAR engine alone times out on.
#[test]
fn portfolio_beats_lone_cegar_on_harder_tier() {
    let budget_ms = linarb_bench::env_or("LINARB_TIMEOUT_MS", 2_000u64);
    let timeout = Duration::from_millis(budget_ms);
    let mut portfolio_only = 0usize;
    for bench in harder_tier(7) {
        let cegar = run_engine(EngineKind::Cegar, &bench, timeout);
        let port = run_portfolio(&bench, timeout);
        assert_ne!(port.correct, Some(false), "portfolio wrong on {}", bench.name);
        assert_ne!(cegar.correct, Some(false), "cegar wrong on {}", bench.name);
        eprintln!(
            "harder-tier {}: cegar {:?} in {:.2}s, portfolio {:?} in {:.2}s",
            bench.name,
            cegar.verdict,
            cegar.time.as_secs_f64(),
            port.verdict,
            port.time.as_secs_f64()
        );
        if port.solved() && !cegar.solved() {
            portfolio_only += 1;
        }
    }
    assert!(
        portfolio_only >= 1,
        "no harder-tier instance separates the portfolio from lone CEGAR"
    );
}

/// Engines start one per solver family first, so at race width 2
/// spacer runs beside cegar. It proves the wide-constant loops of
/// `harder_tier(1)`, where the CEGAR learners, which filled both
/// workers before, ran into the budget. The widths are fixed here,
/// not read from `LINARB_THREADS`: the default config, width 1
/// (clamped to 2) and an explicit width 2.
#[test]
fn two_engine_races_solve_hard_wide_systems() {
    let configs = [
        PortfolioConfig::default(),
        PortfolioConfig::default().with_threads(1),
        PortfolioConfig::default().with_threads(2),
    ];
    let wide: Vec<Benchmark> = harder_tier(1)
        .into_iter()
        .filter(|b| b.name.starts_with("hard_wide_"))
        .collect();
    assert!(!wide.is_empty(), "harder_tier(1) has no hard_wide systems");
    for config in &configs {
        for bench in &wide {
            let budget = Budget::timeout(Duration::from_secs(2));
            let out = solve_portfolio(&bench.system, config, &budget);
            let at = format!("{} at width {}", bench.name, config.threads);
            assert!(out.verdict.is_sat(), "{at}: {:?}", out.verdict);
            assert!(
                check_certificate(&bench.system, &out.verdict, &Budget::unlimited()),
                "{at}: invariant fails the independent check"
            );
            assert!(
                matches!(
                    out.winner,
                    Some(
                        EngineKind::Spacer
                            | EngineKind::Gpdr
                            | EngineKind::Duality
                            | EngineKind::UAutomizer
                    )
                ),
                "{at}: won by {:?}, not a PDR or interpolation engine",
                out.winner
            );
        }
    }
}

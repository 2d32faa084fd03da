//! Head-to-head: the data-driven solver vs the PDR and interpolation
//! baselines on the paper's running examples — a miniature of the
//! Fig. 8(c)/(d) comparison, including the Fig. 1 system on which the
//! paper reports Spacer diverging — followed by the portfolio racing
//! them all under one shared budget.
//!
//! Every engine runs through the portfolio crate's single-engine
//! runner, so this example shares its dispatch (and certificate
//! checking) with the `--engine` CLI path and the bench harness
//! instead of hand-rolling each solver's construction.
//!
//! Run with `cargo run --release --example solver_comparison`.

use linarb::portfolio::{
    check_certificate, run_engine, solve_portfolio, EngineKind, PortfolioConfig,
};
use linarb::smt::Budget;
use linarb::suite::{paper_examples, Expected};
use std::time::{Duration, Instant};

fn main() {
    let timeout = Duration::from_secs(3);
    let engines = [
        EngineKind::Cegar,
        EngineKind::Spacer,
        EngineKind::Gpdr,
        EngineKind::Duality,
    ];
    print!("{:<18} {:>9}", "benchmark", "expected");
    for e in engines {
        print!(" {:>12}", e.name());
    }
    println!(" {:>16}", "portfolio");
    for bench in paper_examples() {
        let expected = match bench.expected {
            Expected::Safe => "safe",
            Expected::Unsafe => "unsafe",
        };
        print!("{:<18} {:>9}", bench.name, expected);
        for e in engines {
            let budget = Budget::timeout(timeout);
            let start = Instant::now();
            let v = run_engine(e, &bench.system, &budget);
            let t = start.elapsed();
            // A definite verdict only counts if its certificate checks.
            let cell = if v.is_definite() && check_certificate(&bench.system, &v, &budget) {
                format!("{} {:.2}s", v.label(), t.as_secs_f64())
            } else {
                "timeout".to_string()
            };
            print!(" {cell:>12}");
        }
        let config = PortfolioConfig::default();
        let out = solve_portfolio(&bench.system, &config, &Budget::timeout(timeout));
        let cell = match out.winner {
            Some(w) => format!("{} {:.2}s ({w})", out.verdict.label(), out.wall.as_secs_f64()),
            None => "timeout".to_string(),
        };
        println!(" {cell:>16}");
    }
}

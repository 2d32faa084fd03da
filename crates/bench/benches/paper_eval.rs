//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! Run with `cargo bench -p linarb-bench --bench paper_eval`.
//! Knobs (environment variables):
//!
//! * `LINARB_TIMEOUT_MS` — per-benchmark timeout (default 2000; the
//!   paper used 180 000 on full-size suites, 1 000 000 for the
//!   scalability study).
//! * `LINARB_MAX` — cap on benchmarks per suite (default 40; set to a
//!   large value for full suites).
//! * `LINARB_SCALE` — scale factor for the 381-program suite
//!   (default 0.25; 1.0 = full 381).
//! * `LINARB_EXPERIMENTS` — comma-separated subset of
//!   `fig8a,fig8b,fig8c,fig8d,scale,ablation` (default: all).

use linarb_bench::{
    characterize, default_timeout, env_or, paper_name, run_suite, subsample, RunOutcome,
};
use linarb_portfolio::EngineKind;
use linarb_suite::Benchmark;
use std::time::Duration;

fn fmt_time(t: Duration, solved: bool) -> String {
    if solved {
        format!("{:.3}s", t.as_secs_f64())
    } else {
        "TO".to_string()
    }
}

/// Prints scatter-plot series: per-benchmark times for two engines.
fn scatter(
    title: &str,
    suite: &[Benchmark],
    a: EngineKind,
    b: EngineKind,
    timeout: Duration,
) -> (Vec<RunOutcome>, Vec<RunOutcome>) {
    println!("\n=== {title} ===");
    println!("{:<24} {:>14} {:>14}", "benchmark", paper_name(a), paper_name(b));
    let (oa, sa) = run_suite(a, suite, timeout);
    let (ob, sb) = run_suite(b, suite, timeout);
    for ((bench, ra), rb) in suite.iter().zip(&oa).zip(&ob) {
        println!(
            "{:<24} {:>14} {:>14}",
            bench.name,
            fmt_time(ra.time, ra.solved()),
            fmt_time(rb.time, rb.solved())
        );
    }
    println!(
        "summary: {} solved {}/{} (mean {:.3}s) | {} solved {}/{} (mean {:.3}s) | wrong: {}/{}",
        paper_name(a),
        sa.solved,
        sa.total,
        sa.mean_time_solved().as_secs_f64(),
        paper_name(b),
        sb.solved,
        sb.total,
        sb.mean_time_solved().as_secs_f64(),
        sa.wrong,
        sb.wrong,
    );
    (oa, ob)
}

fn char_table(title: &str, benches: &[Benchmark], timeout: Duration) {
    println!("\n--- {title} (#L #C #P #V #S #A T) ---");
    println!(
        "{:<18} {:>5} {:>4} {:>4} {:>5} {:>5}  {:<18} {:>9}",
        "name", "#L", "#C", "#P", "#V", "#S", "#A", "T"
    );
    for b in benches {
        let row = characterize(b, timeout);
        let shape = row
            .shape
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{:<18} {:>5} {:>4} {:>4} {:>5} {:>5}  {:<18} {:>9}",
            row.name,
            row.lines,
            row.clauses,
            row.preds,
            row.vars,
            row.samples,
            shape,
            fmt_time(row.time, row.verdict != linarb_bench::Verdict::Unknown)
        );
    }
}

fn main() {
    let timeout = default_timeout();
    let max: usize = env_or("LINARB_MAX", 40);
    let scale: f64 = env_or("LINARB_SCALE", 0.25);
    let filter = std::env::var("LINARB_EXPERIMENTS").unwrap_or_default();
    let want = |name: &str| filter.is_empty() || filter.split(',').any(|f| f.trim() == name);

    println!("linarb paper evaluation — timeout {timeout:?}, max/suite {max}, scale {scale}");
    println!("paper reference numbers are quoted next to each table for shape comparison");

    if want("fig8a") {
        // Fig. 8(a): Learning vs Enumeration (PIE), 82 programs.
        let suite = subsample(linarb_suite::pie82(), max);
        scatter(
            "Fig. 8(a)  Learning vs Enumeration (PIE)   [paper: LinearArbitrary ~10x faster]",
            &suite,
            EngineKind::Cegar,
            EngineKind::Pie,
            timeout,
        );
        // The 31.c / 33.c style characterization rows: the two hardest
        // members by clause count.
        let mut hard: Vec<Benchmark> = suite.clone();
        hard.sort_by_key(|b| std::cmp::Reverse(b.system.num_clauses()));
        hard.truncate(2);
        char_table("Fig. 8(a) hard members (paper rows 31.c / 33.c)", &hard, timeout);
    }

    if want("fig8b") {
        // Fig. 8(b): Learning vs Template (DIG).
        let suite = subsample(linarb_suite::dig_linear(), max);
        scatter(
            "Fig. 8(b)  Learning vs Template (DIG)   [paper: DIG times out on disjunctive]",
            &suite,
            EngineKind::Cegar,
            EngineKind::Dig,
            timeout,
        );
        let mut hard: Vec<Benchmark> = suite
            .iter()
            .filter(|b| b.name.starts_with("diamond") || b.name.starts_with("phase"))
            .take(2)
            .cloned()
            .collect();
        if hard.is_empty() {
            hard = suite.iter().take(2).cloned().collect();
        }
        char_table("Fig. 8(b) disjunctive members (paper rows 04.c / 10.c)", &hard, timeout);
    }

    if want("fig8c") {
        // Fig. 8(c) + the solver-comparison table.
        let suite = subsample(linarb_suite::chc381_scaled(scale), max);
        scatter(
            "Fig. 8(c)  Learning vs PDR (Spacer)   [paper: Spacer faster when it finishes, solves fewer]",
            &suite,
            EngineKind::Cegar,
            EngineKind::Spacer,
            timeout,
        );
        println!("\n--- Solver comparison table (paper: 381 total | GPDR 300 | Spacer 303 | Duality 309 | LinearArbitrary 368) ---");
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>12}",
            "engine", "solved", "total", "wrong", "mean-time"
        );
        use EngineKind::{Cegar, Duality, Gpdr, Spacer};
        for engine in [Gpdr, Spacer, Duality, Cegar] {
            let (_, s) = run_suite(engine, &suite, timeout);
            println!(
                "{:<22} {:>8} {:>8} {:>8} {:>11.3}s",
                paper_name(engine),
                s.solved,
                s.total,
                s.wrong,
                s.mean_time_solved().as_secs_f64()
            );
        }
    }

    if want("fig8d") {
        // Fig. 8(d): Learning vs Interpolation (UAutomizer), 135 programs.
        let suite = subsample(linarb_suite::svcomp135(), max);
        scatter(
            "Fig. 8(d)  Learning vs Interpolation (UAutomizer)   [paper: 126 vs 111 of 135]",
            &suite,
            EngineKind::Cegar,
            EngineKind::UAutomizer,
            timeout,
        );
        // The recursive characterization rows (paper: Prime, EvenOdd,
        // recHanoi3, Fib2calls).
        let named = vec![
            linarb_suite::prime_mult(),
            linarb_suite::even_odd(),
            linarb_suite::rec_hanoi3(),
            linarb_suite::fib2calls(),
        ];
        char_table(
            "SV-COMP recursive rows (paper: Prime / EvenOdd / recHanoi3 / Fib2calls)",
            &named,
            timeout,
        );
    }

    if want("scale") {
        // Scalability study: NTDriver / Product-lines / Psyco / SystemC.
        let sizes = [2usize, 4, 8, 12];
        let suite = linarb_suite::scalability(&sizes);
        println!("\n=== Scalability study (paper: sfifo/acclrm/elevator/parport rows; UAutomizer 403 vs LinearArbitrary 644 of 679) ===");
        println!(
            "{:<22} {:>6} {:>5} {:>5} {:>6} {:>12} {:>12}",
            "benchmark", "#L", "#C", "#P", "#V", "LinArb", "UAutomizer"
        );
        for b in &suite {
            let (l, c, p, v) = b.stats();
            let la = linarb_bench::run_engine(EngineKind::Cegar, b, timeout);
            let ua = linarb_bench::run_engine(EngineKind::UAutomizer, b, timeout);
            println!(
                "{:<22} {:>6} {:>5} {:>5} {:>6} {:>12} {:>12}",
                b.name,
                l,
                c,
                p,
                v,
                fmt_time(la.time, la.solved()),
                fmt_time(ua.time, ua.solved())
            );
        }
        char_table(
            "Scalability characterization (#S/#A rows)",
            &suite[..4.min(suite.len())],
            timeout,
        );
    }

    if want("ablation") {
        // §6: disabling DT learning collapses the convergence rate.
        let suite = subsample(linarb_suite::chc381_scaled(scale), max.min(24));
        println!("\n=== Ablation: decision-tree layer (paper: without DT most benchmarks time out) ===");
        println!("{:<22} {:>8} {:>8} {:>12}", "engine", "solved", "total", "mean-time");
        for engine in [EngineKind::Cegar, EngineKind::CegarNoDt] {
            let (_, s) = run_suite(engine, &suite, timeout);
            println!(
                "{:<22} {:>8} {:>8} {:>11.3}s",
                paper_name(engine),
                s.solved,
                s.total,
                s.mean_time_solved().as_secs_f64()
            );
        }
    }

    println!("\ndone.");
}

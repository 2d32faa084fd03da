//! Workload inputs, built with the suite crate's public constructors.
//! The solver only ever sees the generated text.
//!
//! The seed changes only what leaves a workload's cost alone: the solve
//! order of the CLI and portfolio workloads, and the syntactic dress of
//! the serve stream's resubmissions. Rebuilding the generated families
//! from the seed was measured and rejected: it changes which problem
//! is the median one, moving `p50_ms` and `p90_ms` by about a third
//! between seeds, which would then be read as a property of the code.

use std::collections::HashSet;

use linarb_frontend::canonicalize;
use linarb_logic::ChcSystem;
use linarb_suite::{self as suite, Benchmark, Expected};
use linarb_testutil::XorShiftRng;

/// The default seed, which is also the seed of the published harder
/// tier (`harder_tier(7)` in the committed BENCH reports).
pub const DEFAULT_SEED: u64 = 7;

/// The variant seed of the committed serve replay (BENCH_10), used for
/// the perturbed variants so every seed serves the same new problems.
const REPLAY_SEED: u64 = 0x1abb_5eed;

/// One verification problem as a user hands it to `linarb <file>`.
pub struct Problem {
    /// Suite-qualified name (first occurrence wins after dedup).
    pub name: String,
    /// Ground truth; `None` for perturbed serve variants.
    pub expected: Option<Expected>,
    /// The program text.
    pub text: Text,
}

/// The two input formats of the CLI.
pub enum Text {
    /// Mini-C source (`file.c`), compiled by the frontend.
    MiniC(String),
    /// SMT-LIB2 HORN text (`file.smt2`).
    Smt2(String),
}

impl Problem {
    fn from_benchmark(suite: &str, b: Benchmark) -> Problem {
        let text = match b.source {
            Some(src) => Text::MiniC(src),
            None => Text::Smt2(b.system.to_smtlib()),
        };
        Problem {
            name: format!("{suite}/{}", b.name),
            expected: Some(b.expected),
            text,
        }
    }

    /// The CLI's load path (`load_system` in `src/main.rs`).
    pub fn load(&self) -> Result<ChcSystem, String> {
        match &self.text {
            Text::MiniC(src) => linarb_frontend::compile(src).map_err(|e| e.to_string()),
            Text::Smt2(src) => linarb_logic::parse_chc(src).map_err(|e| e.to_string()),
        }
    }
}

/// Keeps the first benchmark of each canonical form, in an order drawn
/// from the seed.
fn distinct(benches: Vec<(&str, Benchmark)>, seed: u64) -> Vec<Problem> {
    let mut seen = HashSet::new();
    let mut out: Vec<Problem> = benches
        .into_iter()
        .filter(|(_, b)| seen.insert(canonicalize(&b.system).text))
        .map(|(suite, b)| Problem::from_benchmark(suite, b))
        .collect();
    let mut rng = XorShiftRng::seed_from_u64(seed);
    for k in (1..out.len()).rev() {
        out.swap(k, rng.gen_range(0..=k));
    }
    out
}

/// The Fig. 8 suites as published, plus the named paper and literature
/// programs (648 benchmarks, 212 distinct).
fn fig8_benchmarks() -> Vec<(&'static str, Benchmark)> {
    type Suite = fn() -> Vec<Benchmark>;
    let suites: [(&str, Suite); 6] = [
        ("pie82", suite::pie82),
        ("dig", suite::dig_linear),
        ("chc381", suite::chc381),
        ("svcomp135", suite::svcomp135),
        ("paper", suite::paper_examples),
        ("literature", suite::literature_programs),
    ];
    suites
        .into_iter()
        .flat_map(|(name, build)| build().into_iter().map(move |b| (name, b)))
        .collect()
}

/// `fig8_cli`: the distinct problems of the paper's Fig. 8 suites.
pub fn fig8(seed: u64) -> Vec<Problem> {
    distinct(fig8_benchmarks(), seed)
}

/// `scaling_cli`: the scalability generators at sizes the solver decides
/// well inside the limit — `ntdriver` and `systemc` at four sizes each,
/// and 16 `psyco` state machines at each even size from 4 to 16, which
/// also gives the percentiles more than 100 samples.
pub fn scaling(seed: u64) -> Vec<Problem> {
    let mut benches = Vec::new();
    for k in [2, 3, 4, 8] {
        benches.push(("ntdriver", suite::ntdriver(k, 0)));
    }
    for k in [2, 4, 5, 6] {
        benches.push(("systemc", suite::systemc(k, 0)));
    }
    for k in (4..=16).step_by(2) {
        for j in 0..16 {
            let mut b = suite::psyco(k, DEFAULT_SEED + k as u64 + 1000 * j);
            b.name = format!("{}_{j}", b.name);
            benches.push(("psyco", b));
        }
    }
    distinct(benches, seed)
}

/// `portfolio_race`: the Fig. 8 problems plus the published harder tier.
pub fn portfolio(seed: u64) -> Vec<Problem> {
    let mut benches = fig8_benchmarks();
    benches.extend(
        suite::harder_tier(DEFAULT_SEED)
            .into_iter()
            .map(|b| ("harder", b)),
    );
    distinct(benches, seed)
}

/// Variants per serve base (the committed replay's size).
pub const SERVE_VARIANTS: usize = 125;

/// `serve_replay`: eight bases, each followed by its variants
/// `replay::variant(base, seed, i)`. Every eighth variant (`i % 8 == 0`)
/// perturbs a constant and has no ground truth; those are drawn from
/// the committed replay's seed, so their difficulty does not depend on
/// the run's seed. The others rename, reorder or scale, and keep their
/// base's verdict.
pub fn serve(seed: u64, variants: usize) -> Vec<Problem> {
    let bases = [
        suite::fig1(),
        suite::fibo_unsafe(),
        suite::even_odd(),
        suite::cggmp2005(),
        suite::hhk2008(),
        suite::invgen_sum(),
        suite::program_c_fibo(),
        suite::jm2006(),
    ];
    let mut out = Vec::with_capacity(bases.len() * (variants + 1));
    for b in bases {
        out.push(Problem {
            name: b.name.clone(),
            expected: Some(b.expected),
            text: Text::Smt2(b.system.to_smtlib()),
        });
        for i in 0..variants {
            let perturbed = i % 8 == 0;
            let v = linarb_serve::replay::variant(
                &b.system,
                if perturbed { REPLAY_SEED } else { seed },
                i,
            );
            out.push(Problem {
                name: format!("{}@{i}", b.name),
                expected: (!perturbed).then_some(b.expected),
                text: Text::Smt2(v.to_smtlib()),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_has_212_distinct_problems_in_a_seeded_order() {
        let a = fig8(DEFAULT_SEED);
        assert_eq!(a.len(), 212);
        let b = fig8(DEFAULT_SEED + 1);
        let names = |v: &[Problem]| v.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
        let (mut x, mut y) = (names(&a), names(&b));
        assert_ne!(x, y, "the seed permutes the order");
        x.sort();
        y.sort();
        assert_eq!(x, y, "the seed keeps the problem set");
    }

    #[test]
    fn serve_stream_shape() {
        let jobs = serve(DEFAULT_SEED, 9);
        assert_eq!(jobs.len(), 8 * 10);
        let perturbed: Vec<&Problem> = jobs.iter().filter(|p| p.expected.is_none()).collect();
        assert_eq!(perturbed.len(), 8 * 2);
        // Perturbed variants are the same at every seed; the others are not.
        let other = serve(DEFAULT_SEED + 1, 9);
        let text = |p: &Problem| match &p.text {
            Text::Smt2(s) | Text::MiniC(s) => s.clone(),
        };
        for (a, b) in jobs.iter().zip(&other) {
            if a.expected.is_none() {
                assert_eq!(text(a), text(b), "{}", a.name);
            }
        }
        assert!(jobs.iter().zip(&other).any(|(a, b)| text(a) != text(b)));
    }
}

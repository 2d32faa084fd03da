//! Learner golden gate: `learn_seeded` on a fixed family of random
//! datasets must reproduce `learn_golden.txt` byte for byte.
//!
//! Each line records one learn call: the learned formula's `Display`,
//! `la_atoms`, `dt_used`, `dt_size`, `seeded_features` and the
//! seed-hit order. The datasets come from `linarb-testutil`'s xorshift
//! generator and cover dimensions 1–4, 2–400 samples, coordinates both
//! small and near ±2⁶² or ±2⁷⁰ (products leave `i64`, so `BigInt`'s
//! large path runs), 0–8 seed planes, both classifiers, and the
//! decision tree on and off. A change to the learner that is meant to
//! leave every learned formula unchanged must leave this file
//! unchanged.
//!
//! To regenerate the expected file after an intended behaviour change,
//! run the test with `LINARB_BLESS=1`: it writes the file and then
//! fails, so a blessed run never counts as a pass; rerun without it.

use linarb_arith::BigInt;
use linarb_logic::{PredId, Var};
use linarb_ml::{learn_seeded, ClassifierKind, Dataset, LearnConfig, SeedStore};
use linarb_testutil::XorShiftRng;
use std::collections::HashSet;
use std::fmt::Write as _;

const CASES: u64 = 320;
const EXPECTED: &str = "tests/learn_golden.txt";

/// A coordinate: small, or within a small offset of ±2⁶² (inside
/// `i64`, with products outside it) or of ±2⁷⁰ (outside `i64`).
fn coord(rng: &mut XorShiftRng, large: bool, span: i64) -> BigInt {
    let small = rng.gen_range(-span..=span);
    if large && rng.gen_bool(0.7) {
        let base = if rng.gen_bool(0.8) { 1i128 << 62 } else { 1i128 << 70 };
        let base = if rng.gen_bool(0.5) { base } else { -base };
        BigInt::from(base + small as i128)
    } else {
        BigInt::from(small)
    }
}

/// A small random direction, not all zero.
fn direction(rng: &mut XorShiftRng, dim: usize) -> Vec<BigInt> {
    loop {
        let d: Vec<i64> = (0..dim).map(|_| rng.gen_range(-3i64..=3)).collect();
        if d.iter().any(|&c| c != 0) {
            return d.into_iter().map(BigInt::from).collect();
        }
    }
}

fn dot(w: &[BigInt], x: &[BigInt]) -> BigInt {
    w.iter().zip(x).map(|(a, b)| a * b).sum()
}

/// One dataset, its seed planes and a learner configuration. Labels
/// follow a random union of one or two random polyhedra, optionally
/// flipped at random for a fraction of the samples (noise), so both
/// shallow and deep recursions occur.
fn case(i: u64) -> (Dataset, Vec<linarb_ml::SeedPlane>, LearnConfig) {
    let mut rng = XorShiftRng::seed_from_u64(0x601D ^ (i * 0x9E37_79B9));
    let dim = rng.gen_range(1usize..=4);
    let n = match rng.gen_range(0u32..10) {
        0..=5 => rng.gen_range(2usize..40),
        6..=8 => rng.gen_range(40usize..150),
        _ => rng.gen_range(150usize..=400),
    };
    let large = rng.gen_bool(0.25);
    let span = [3i64, 10, 50][rng.gen_range(0usize..3)];
    let noise = if n <= 60 { [0.0, 0.1, 0.5][rng.gen_range(0usize..3)] } else { 0.0 };
    // Ground truth: a disjunction of conjunctions of half-planes.
    let disjuncts: Vec<Vec<(Vec<BigInt>, BigInt)>> = (0..rng.gen_range(1usize..=2))
        .map(|_| {
            (0..rng.gen_range(1usize..=2))
                .map(|_| (direction(&mut rng, dim), BigInt::from(rng.gen_range(-span..=span))))
                .collect()
        })
        .collect();
    // A few datasets keep a point labelled both ways, so the
    // contradiction error is covered too.
    let contradict = rng.gen_bool(0.05);
    let mut negatives = HashSet::new();
    let mut d = Dataset::new(dim);
    for _ in 0..n {
        let x: Vec<BigInt> = (0..dim).map(|_| coord(&mut rng, large, span)).collect();
        let truth = disjuncts
            .iter()
            .any(|conj| conj.iter().all(|(w, c)| dot(w, &x) >= *c));
        let label = if rng.gen_bool(noise) { !truth } else { truth };
        if label {
            if contradict || !negatives.contains(&x) {
                d.add_positive(x);
            }
        } else if !d.contains_positive(&x) {
            negatives.insert(x.clone());
            d.add_negative(x);
        }
    }
    // Seeds: some ground-truth directions, some random ones.
    let mut store = SeedStore::new();
    let pred = PredId(0);
    for _ in 0..rng.gen_range(0usize..=8) {
        let dir = if rng.gen_bool(0.4) {
            let conj = &disjuncts[rng.gen_range(0..disjuncts.len())];
            conj[rng.gen_range(0..conj.len())].0.clone()
        } else {
            direction(&mut rng, dim)
        };
        store.add_dir(pred, dir);
    }
    let config = LearnConfig {
        classifier: if rng.gen_bool(0.5) { ClassifierKind::Svm } else { ClassifierKind::Perceptron },
        use_decision_tree: rng.gen_bool(0.7),
    };
    (d, store.planes(pred).to_vec(), config)
}

fn transcript() -> String {
    let mut out = String::new();
    for i in 0..CASES {
        let (d, seeds, config) = case(i);
        let params: Vec<Var> = (0..d.dim() as u32).map(Var::from_index).collect();
        write!(
            out,
            "#{i} dim={} +{} -{} seeds={} {:?} dt={}: ",
            d.dim(),
            d.num_positive(),
            d.num_negative(),
            seeds.len(),
            config.classifier,
            config.use_decision_tree
        )
        .unwrap();
        match learn_seeded(&d, &params, &config, &seeds) {
            Ok((f, s)) => writeln!(
                out,
                "la_atoms={} dt_used={} dt_size={} seeded_features={} seed_hits={:?} formula={f}",
                s.la_atoms, s.dt_used, s.dt_size, s.seeded_features, s.seed_hits
            ),
            Err(e) => writeln!(out, "error={e}"),
        }
        .unwrap();
    }
    out
}

#[test]
fn learner_reproduces_golden_transcript() {
    let got = transcript();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(EXPECTED);
    if std::env::var_os("LINARB_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write the expected file");
        // A blessed run compared nothing, so it must never pass.
        panic!("blessed {EXPECTED}; rerun without LINARB_BLESS");
    }
    let want = std::fs::read_to_string(&path).expect("read the expected file");
    if got != want {
        let (line, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(want.lines().count()), ("<end>", "<end>")));
        panic!("learner transcript differs at line {}:\n got: {g}\nwant: {w}", line + 1);
    }
}

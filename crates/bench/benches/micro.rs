//! Component microbenchmarks: the engineering substrate under the
//! paper's numbers — SAT, rational arithmetic, simplex, SMT,
//! classification, decision trees, and end-to-end solves of the
//! running examples.
//!
//! Self-timed (no external harness): each benchmark runs a warmup
//! pass, then reports the median wall time over a fixed number of
//! samples. Run with `cargo bench --bench micro`.

use linarb_arith::{int, rat, BigRational};
use linarb_logic::{Atom, Formula, LinExpr, Var};
use linarb_ml::{
    learn, learn_seeded, linear_classify, ClassifierKind, Dataset, LearnConfig, SeedStore,
};
use linarb_sat::{Lit, SatResult, SatSolver};
use linarb_smt::{check_sat, simplex::Simplex, Budget};
use linarb_solver::{CegarSolver, SolverConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 10;

/// Times `f` over [`SAMPLES`] runs (after one warmup) and prints the
/// median, min, and max, criterion-style but dependency-free.
fn bench_function<R>(name: &str, mut f: impl FnMut() -> R) {
    black_box(f()); // warmup
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort();
    println!(
        "{name:<28} median {:>12?}   min {:>12?}   max {:>12?}",
        times[SAMPLES / 2],
        times[0],
        times[SAMPLES - 1]
    );
}

fn bench_sat() {
    bench_function("sat_php_5_4_unsat", || {
        let n = 5usize;
        let m = 4usize;
        let mut s = SatSolver::new();
        let mut v = vec![];
        for _ in 0..n * m {
            v.push(s.new_var());
        }
        let p = |i: usize, h: usize| v[i * m + h];
        for i in 0..n {
            let cl: Vec<Lit> = (0..m).map(|h| p(i, h).positive()).collect();
            s.add_clause(&cl);
        }
        for h in 0..m {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[p(i, h).negative(), p(j, h).negative()]);
                }
            }
        }
        s.solve()
    });
}

fn bench_sat_incremental() {
    // An incremental solver that keeps gaining variables, as the
    // oracle's per-clause contexts do: every solve decides all of the
    // free ones, so this row is dominated by the cost of a decision.
    bench_function("sat_incremental_3k_vars", || {
        let mut s = SatSolver::new();
        let mut vars = Vec::new();
        let mut sat = 0;
        for round in 0..100 {
            for _ in 0..30 {
                vars.push(s.new_var());
            }
            let a = vars[vars.len() - 1];
            let b = vars[round * 7 % vars.len()];
            s.add_clause(&[a.negative(), b.positive()]);
            if s.solve_under_assumptions(&[a.positive()]) == SatResult::Sat {
                sat += 1;
            }
        }
        sat
    });
}

fn bench_rational() {
    // Gaussian elimination on a dense 8×8 matrix of small rationals:
    // the div/mul/sub/compare mix of a simplex pivot.
    let n = 8usize;
    let matrix: Vec<Vec<BigRational>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let k = (i * n + j) as i64;
                    rat(k % 7 - 3 + if i == j { 9 } else { 0 }, k % 5 + 1)
                })
                .collect()
        })
        .collect();
    bench_function("rational_pivot_mix_8x8", || {
        let mut m = matrix.clone();
        for p in 0..n {
            let pivot = m[p].clone();
            for (_, row) in m.iter_mut().enumerate().filter(|(r, _)| *r != p) {
                let factor = &row[p] / &pivot[p];
                for (x, y) in row.iter_mut().zip(&pivot).skip(p) {
                    *x = &*x - &(&factor * y);
                }
            }
        }
        m.iter()
            .enumerate()
            .filter(|(i, row)| row[*i] > BigRational::zero())
            .count()
    });
}

fn bench_simplex() {
    bench_function("simplex_chain_20", || {
        let mut s = Simplex::new();
        let cols: Vec<_> = (0..20).map(|_| s.new_col()).collect();
        for w in cols.windows(2) {
            let sl = s.new_slack(&[(w[0], rat(1, 1)), (w[1], rat(-1, 1))]);
            s.assert_upper(sl, rat(1, 1), 0).unwrap();
            s.assert_lower(sl, rat(-1, 1), 1).unwrap();
        }
        s.assert_lower(cols[0], rat(5, 1), 2).unwrap();
        s.assert_upper(cols[19], rat(30, 1), 3).unwrap();
        s.check(100_000).is_ok()
    });
}

fn bench_smt() {
    let x = Var::from_index(0);
    let y = Var::from_index(1);
    let f = Formula::and(vec![
        Formula::or(vec![
            Formula::from(Atom::le(LinExpr::var(x), LinExpr::constant(int(-5)))),
            Formula::from(Atom::ge(
                &LinExpr::var(x) + &LinExpr::var(y),
                LinExpr::constant(int(7)),
            )),
        ]),
        Formula::from(Atom::ge(LinExpr::var(x), LinExpr::constant(int(0)))),
        Formula::from(Atom::le(LinExpr::var(y), LinExpr::constant(int(3)))),
    ]);
    bench_function("smt_boolean_lia", || {
        check_sat(&f, &Budget::unlimited()).is_sat()
    });
}

fn bench_classification() {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for i in 0..40i64 {
        pos.push(vec![int(i % 10 + 1), int(i / 10 + 1)]);
        neg.push(vec![int(-(i % 10) - 1), int(-(i / 10) - 1)]);
    }
    bench_function("svm_80_samples", || {
        linear_classify(ClassifierKind::Svm, &pos, &neg, 7)
    });
    bench_function("perceptron_80_samples", || {
        linear_classify(ClassifierKind::Perceptron, &pos, &neg, 7)
    });
}

fn bench_learn() {
    // the diamond dataset of the paper's Fig. 6
    let mut d = Dataset::new(2);
    for p in [(0, -2), (0, -1), (0, 0), (0, 1)] {
        d.add_positive(vec![int(p.0), int(p.1)]);
    }
    d.add_negative(vec![int(3), int(-3)]);
    d.add_negative(vec![int(-3), int(3)]);
    let params = vec![Var::from_index(0), Var::from_index(1)];
    bench_function("learn_diamond_alg2", || {
        learn(&d, &params, &LearnConfig::default()).unwrap()
    });

    // One CEGAR learn call at the size `gr2006` works at: dimension 2,
    // ~150 samples of a disjunctive invariant, 4 seed planes.
    let mut d = Dataset::new(2);
    for x in -6..=6i64 {
        for y in -6..=5i64 {
            let s = vec![int(x), int(y)];
            if (x >= 0 && y <= x) || (x < 0 && y >= 2 * x + 3) {
                d.add_positive(s);
            } else {
                d.add_negative(s);
            }
        }
    }
    let mut store = SeedStore::new();
    let pred = linarb_logic::PredId(0);
    for dir in [[1, 0], [0, 1], [1, -1], [2, -1]] {
        store.add_dir(pred, vec![int(dir[0]), int(dir[1])]);
    }
    let seeds = store.planes(pred);
    bench_function("learn_seeded_156x2_4seeds", || {
        learn_seeded(&d, &params, &LearnConfig::default(), seeds).unwrap()
    });
}

fn bench_end_to_end() {
    let fig1 = linarb_suite::fig1();
    bench_function("solve_fig1", || {
        let mut solver = CegarSolver::new(&fig1.system, SolverConfig::default());
        solver.solve(&Budget::unlimited()).is_sat()
    });
    let fibo = linarb_suite::program_c_fibo();
    bench_function("solve_fibo", || {
        let mut solver = CegarSolver::new(&fibo.system, SolverConfig::default());
        solver.solve(&Budget::unlimited()).is_sat()
    });
}

fn main() {
    bench_sat();
    bench_sat_incremental();
    bench_rational();
    bench_simplex();
    bench_smt();
    bench_classification();
    bench_learn();
    bench_end_to_end();
}

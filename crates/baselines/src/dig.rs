//! DIG-style learner: template equations + octagonal bounds from
//! positive traces [27].
//!
//! DIG infers *conjunctive* candidate invariants from execution data:
//! linear equalities (the nullspace of the sample moment matrix,
//! computed here by exact Gaussian elimination) and octagonal interval
//! bounds. It has no mechanism for disjunctions — the limitation the
//! paper's Fig. 8(b) measures: on programs whose invariants are
//! disjunctive, the candidates never separate the counterexamples and
//! verification stalls.

use linarb_arith::{BigInt, BigRational};
use linarb_logic::{Atom, Formula, LinExpr, Var};
use linarb_ml::{Dataset, LearnError, Sample};
use linarb_smt::Budget;
use linarb_solver::Learner;

/// The DIG-style template learner. Implements
/// [`Learner`](linarb_solver::Learner) so it runs inside the same
/// CEGAR sampling loop as the paper's toolchain.
#[derive(Clone, Debug, Default)]
pub struct DigLearner {
    /// Optional shared budget polled inside the candidate-selection
    /// loop so portfolio cancellation is prompt even mid-learn.
    pub budget: Option<Budget>,
}

impl DigLearner {
    /// Attaches a budget polled by the greedy candidate-selection loop.
    pub fn with_budget(mut self, budget: Budget) -> DigLearner {
        self.budget = Some(budget);
        self
    }

    fn stopped(&self) -> bool {
        self.budget.as_ref().is_some_and(Budget::exhausted)
    }
}

/// Exact nullspace basis of the row space of `rows` (each row a
/// rational vector): vectors `v` with `row · v = 0` for every row.
fn nullspace(rows: &[Vec<BigRational>], width: usize) -> Vec<Vec<BigRational>> {
    // Gaussian elimination to RREF.
    let mut m: Vec<Vec<BigRational>> = rows.to_vec();
    let mut pivot_cols = Vec::new();
    let mut r = 0usize;
    for c in 0..width {
        // find pivot
        let Some(pr) = (r..m.len()).find(|&i| !m[i][c].is_zero()) else {
            continue;
        };
        m.swap(r, pr);
        let inv = m[r][c].recip();
        for x in m[r].iter_mut() {
            *x = &*x * &inv;
        }
        for i in 0..m.len() {
            if i != r && !m[i][c].is_zero() {
                let f = m[i][c].clone();
                for j in 0..width {
                    let sub = &f * &m[r][j];
                    m[i][j] = &m[i][j] - &sub;
                }
            }
        }
        pivot_cols.push(c);
        r += 1;
        if r == m.len() {
            break;
        }
    }
    // free columns generate the nullspace
    let mut basis = Vec::new();
    for free in 0..width {
        if pivot_cols.contains(&free) {
            continue;
        }
        let mut v = vec![BigRational::zero(); width];
        v[free] = BigRational::one();
        for (row_idx, &pc) in pivot_cols.iter().enumerate() {
            v[pc] = -&m[row_idx][free];
        }
        basis.push(v);
    }
    basis
}

fn to_integer_vector(v: &[BigRational]) -> Vec<BigInt> {
    let lcm = v
        .iter()
        .fold(BigInt::one(), |l, x| BigInt::lcm(&l, x.denom()));
    let ints: Vec<BigInt> = v
        .iter()
        .map(|x| {
            let s = x * &BigRational::from(lcm.clone());
            debug_assert!(s.is_integer());
            s.floor()
        })
        .collect();
    let g = ints
        .iter()
        .fold(BigInt::zero(), |g, c| BigInt::gcd(&g, c));
    if g.is_zero() || g.is_one() {
        ints
    } else {
        ints.iter().map(|c| c / &g).collect()
    }
}

impl DigLearner {
    /// Linear equalities holding on all positive samples.
    fn equations(&self, pos: &[Sample], params: &[Var]) -> Vec<Formula> {
        let width = params.len() + 1; // [x₁..x_d, 1]
        let rows: Vec<Vec<BigRational>> = pos
            .iter()
            .map(|s| {
                s.iter()
                    .map(BigRational::from)
                    .chain(std::iter::once(BigRational::one()))
                    .collect()
            })
            .collect();
        nullspace(&rows, width)
            .iter()
            .map(|v| {
                let iv = to_integer_vector(v);
                let expr = LinExpr::from_terms(
                    params.iter().zip(iv.iter()).map(|(p, c)| (*p, c.clone())),
                    iv[params.len()].clone(),
                );
                Atom::eq_expr(expr, LinExpr::zero())
            })
            .collect()
    }

    /// Octagonal bounds (min/max of `±xᵢ` and `xᵢ ± xⱼ`) over the
    /// positive samples.
    fn bounds(&self, pos: &[Sample], params: &[Var]) -> Vec<Formula> {
        let dim = params.len();
        let mut dirs: Vec<Vec<BigInt>> = Vec::new();
        for i in 0..dim {
            let mut w = vec![BigInt::zero(); dim];
            w[i] = BigInt::one();
            dirs.push(w);
        }
        for i in 0..dim {
            for j in (i + 1)..dim {
                for (si, sj) in [(1i64, 1i64), (1, -1)] {
                    let mut w = vec![BigInt::zero(); dim];
                    w[i] = BigInt::from(si);
                    w[j] = BigInt::from(sj);
                    dirs.push(w);
                }
            }
        }
        let mut out = Vec::new();
        for w in dirs {
            let proj: Vec<BigInt> = pos
                .iter()
                .map(|s| w.iter().zip(s.iter()).map(|(a, b)| a * b).sum())
                .collect();
            let (Some(min), Some(max)) = (proj.iter().min(), proj.iter().max()) else {
                continue;
            };
            let expr = LinExpr::from_terms(
                params.iter().zip(w.iter()).map(|(p, c)| (*p, c.clone())),
                BigInt::zero(),
            );
            out.push(Formula::from(Atom::ge(
                expr.clone(),
                LinExpr::constant(min.clone()),
            )));
            out.push(Formula::from(Atom::le(expr, LinExpr::constant(max.clone()))));
        }
        out
    }
}

impl Learner for DigLearner {
    fn learn(&self, data: &Dataset, params: &[Var]) -> Result<Formula, LearnError> {
        if let Some(s) = data.first_contradiction() {
            return Err(LearnError::ContradictorySamples(s.clone()));
        }
        if data.num_positive() == 0 {
            return Ok(Formula::False);
        }
        // Candidate pool: equations first (they generalize), then
        // octagonal bounds. Like DIG's CEGIR filtering, only the
        // candidates needed to refute the counterexamples are kept —
        // a pure-equation invariant stays pure (and inductive).
        let mut pool = self.equations(data.positives(), params);
        pool.extend(self.bounds(data.positives(), params));
        let holds_at = |f: &Formula, s: &Sample| {
            let m: linarb_logic::Model =
                params.iter().copied().zip(s.iter().cloned()).collect();
            f.eval(&m)
        };
        let mut remaining: Vec<&Sample> = data.negatives().iter().collect();
        let mut chosen: Vec<Formula> = Vec::new();
        // Equations are always kept: they are DIG's primary output.
        let num_eqs = self.equations(data.positives(), params).len();
        for f in pool.drain(..num_eqs) {
            remaining.retain(|n| holds_at(&f, n));
            chosen.push(f);
        }
        // Bounds only as needed, most-excluding first.
        while !remaining.is_empty() {
            if self.stopped() {
                return Err(LearnError::HypothesisExhausted);
            }
            let best = pool
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    (remaining.iter().filter(|n| !holds_at(f, n)).count(), i)
                })
                .max();
            match best {
                Some((excluded, i)) if excluded > 0 => {
                    let f = pool.swap_remove(i);
                    remaining.retain(|n| holds_at(&f, n));
                    chosen.push(f);
                }
                // DIG is conjunctive-only: a negative inside the hull
                // of the positives cannot be carved out.
                _ => return Err(LearnError::HypothesisExhausted),
            }
        }
        Ok(Formula::and(chosen))
    }

    fn name(&self) -> &str {
        "DIG-template"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;
    use linarb_logic::Model;

    fn params(n: u32) -> Vec<Var> {
        (0..n).map(Var::from_index).collect()
    }

    fn dataset(pos: &[&[i64]], neg: &[&[i64]]) -> Dataset {
        let dim = pos.first().or_else(|| neg.first()).map_or(0, |x| x.len());
        let mut d = Dataset::new(dim);
        for p in pos {
            d.add_positive(p.iter().map(|&c| int(c)).collect());
        }
        for n in neg {
            d.add_negative(n.iter().map(|&c| int(c)).collect());
        }
        d
    }

    #[test]
    fn finds_exact_equation() {
        // samples on the line y = 2x + 1
        let d = dataset(&[&[0, 1], &[1, 3], &[2, 5], &[5, 11]], &[&[1, 1]]);
        let ps = params(2);
        let f = DigLearner::default().learn(&d, &ps).unwrap();
        // the equation must hold on a fresh in-box point of the line …
        let mut m = Model::new();
        m.assign(ps[0], int(3));
        m.assign(ps[1], int(7));
        assert!(f.eval(&m), "{f}");
        // … and fail off the line
        m.assign(ps[1], int(6));
        assert!(!f.eval(&m), "{f}");
        // the off-line negative is excluded by the equation alone, so
        // greedy selection adds no bounds: a far point ON the line
        // still satisfies the invariant (the generalization DIG wants)
        m.assign(ps[0], int(10));
        m.assign(ps[1], int(21));
        assert!(f.eval(&m), "pure-equation invariants must generalize: {f}");
    }

    #[test]
    fn octagonal_bounds_close_the_box() {
        let d = dataset(&[&[0, 0], &[1, 2], &[3, 1]], &[&[10, 10]]);
        let ps = params(2);
        let f = DigLearner::default().learn(&d, &ps).unwrap();
        let mut m = Model::new();
        m.assign(ps[0], int(2));
        m.assign(ps[1], int(1));
        assert!(f.eval(&m), "interior point must satisfy: {f}");
        m.assign(ps[0], int(50));
        assert!(!f.eval(&m), "far point must violate: {f}");
    }

    #[test]
    fn disjunctive_data_exhausts_space() {
        // XOR pattern: the negative sits in the octagonal hull of the
        // positives; no conjunction of equations/bounds excludes it.
        let d = dataset(&[&[0, 0], &[4, 4]], &[&[2, 2]]);
        assert!(matches!(
            DigLearner::default().learn(&d, &params(2)),
            Err(LearnError::HypothesisExhausted)
        ));
    }

    #[test]
    fn nullspace_small_cases() {
        // single row (1, 2): nullspace of dimension 1 in width 2
        let rows = vec![vec![BigRational::from(1i64), BigRational::from(2i64)]];
        let ns = nullspace(&rows, 2);
        assert_eq!(ns.len(), 1);
        let v = &ns[0];
        let dot = &(&rows[0][0] * &v[0]) + &(&rows[0][1] * &v[1]);
        assert!(dot.is_zero());
        // full-rank rows: empty nullspace
        let rows = vec![
            vec![BigRational::from(1i64), BigRational::from(0i64)],
            vec![BigRational::from(0i64), BigRational::from(1i64)],
        ];
        assert!(nullspace(&rows, 2).is_empty());
    }
}

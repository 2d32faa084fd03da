//! PIE-style learner: syntax-guided feature enumeration + greedy
//! boolean learning [29].
//!
//! Where `LinearArbitrary` *learns* hyperplanes from the data, PIE
//! *enumerates* a hypothesis space of candidate features (here:
//! interval and octagonal atoms with enumerated constants, the space
//! PIE's default grammar effectively reaches for integer programs) and
//! then searches for a small DNF over those features consistent with
//! the samples. The enumeration cost per call — and the failure when
//! the required invariant lies outside the octagonal space — is
//! exactly the behaviour Fig. 8(a) compares against.

use linarb_arith::BigInt;
use linarb_logic::{Atom, Formula, LinExpr, Var};
use linarb_ml::{Dataset, LearnError, Sample};
use linarb_smt::Budget;
use linarb_solver::Learner;

/// Configuration of the enumeration space.
#[derive(Clone, Debug)]
pub struct PieConfig {
    /// Enumerate constants in `[-range, range]` around observed
    /// values.
    pub constant_slack: i64,
    /// Include two-variable (octagonal) features.
    pub octagonal: bool,
}

impl Default for PieConfig {
    fn default() -> Self {
        PieConfig { constant_slack: 2, octagonal: true }
    }
}

/// The PIE-style enumerating learner. Implements
/// [`Learner`](linarb_solver::Learner) so it runs inside the same
/// CEGAR sampling loop as the paper's toolchain.
#[derive(Clone, Debug, Default)]
pub struct PieLearner {
    /// Enumeration space configuration.
    pub config: PieConfig,
    /// Optional shared budget polled inside the enumeration loops so
    /// portfolio cancellation is prompt even mid-learn.
    pub budget: Option<Budget>,
}

impl PieLearner {
    /// Attaches a budget polled by the feature-enumeration and greedy
    /// cover loops.
    pub fn with_budget(mut self, budget: Budget) -> PieLearner {
        self.budget = Some(budget);
        self
    }

    fn stopped(&self) -> bool {
        self.budget.as_ref().is_some_and(Budget::exhausted)
    }
    /// Enumerates the feature atoms for a dataset: `±xᵢ ≤ c` and
    /// (optionally) `±xᵢ ± xⱼ ≤ c`, with `c` drawn from the projected
    /// sample values plus slack.
    fn features(&self, data: &Dataset, params: &[Var]) -> Vec<Atom> {
        let dim = params.len();
        let mut dirs: Vec<Vec<BigInt>> = Vec::new();
        for i in 0..dim {
            let mut w = vec![BigInt::zero(); dim];
            w[i] = BigInt::one();
            dirs.push(w.clone());
            w[i] = BigInt::minus_one();
            dirs.push(w);
        }
        if self.config.octagonal {
            for i in 0..dim {
                for j in (i + 1)..dim {
                    for (si, sj) in [(1, 1), (1, -1), (-1, 1), (-1, -1)] {
                        let mut w = vec![BigInt::zero(); dim];
                        w[i] = BigInt::from(si);
                        w[j] = BigInt::from(sj);
                        dirs.push(w);
                    }
                }
            }
        }
        let samples: Vec<&Sample> = data
            .positives()
            .iter()
            .chain(data.negatives().iter())
            .collect();
        let mut atoms = Vec::new();
        for w in dirs {
            if self.stopped() {
                break; // partial feature set; learn will bail shortly
            }
            let mut values: Vec<BigInt> = samples
                .iter()
                .map(|s| {
                    w.iter()
                        .zip(s.iter())
                        .map(|(a, b)| a * b)
                        .sum::<BigInt>()
                })
                .collect();
            values.sort();
            values.dedup();
            let lhs = LinExpr::from_terms(
                params.iter().zip(w.iter()).map(|(v, c)| (*v, c.clone())),
                BigInt::zero(),
            );
            for v in &values {
                for slack in -self.config.constant_slack..=self.config.constant_slack {
                    let c = v + &BigInt::from(slack);
                    atoms.push(Atom::le(lhs.clone(), LinExpr::constant(c)));
                }
            }
        }
        atoms.sort_by_key(|a| format!("{a}"));
        atoms.dedup();
        atoms
    }
}

fn holds(atom: &Atom, params: &[Var], s: &Sample) -> bool {
    let m: linarb_logic::Model = params
        .iter()
        .copied()
        .zip(s.iter().cloned())
        .collect();
    atom.holds(&m)
}

impl Learner for PieLearner {
    fn learn(&self, data: &Dataset, params: &[Var]) -> Result<Formula, LearnError> {
        if let Some(s) = data.first_contradiction() {
            return Err(LearnError::ContradictorySamples(s.clone()));
        }
        if data.num_positive() == 0 {
            return Ok(Formula::False);
        }
        if data.num_negative() == 0 {
            return Ok(Formula::True);
        }
        let features = self.features(data, params);
        // Greedy DNF cover: repeatedly build a cube anchored at an
        // uncovered positive that excludes every negative.
        let mut uncovered: Vec<&Sample> = data.positives().iter().collect();
        let mut cubes: Vec<Vec<Atom>> = Vec::new();
        while let Some(anchor) = uncovered.first().copied() {
            if self.stopped() {
                return Err(LearnError::HypothesisExhausted);
            }
            // Features true at the anchor are cube candidates.
            let candidates: Vec<&Atom> = features
                .iter()
                .filter(|a| holds(a, params, anchor))
                .collect();
            let mut alive: Vec<&Sample> = data.negatives().iter().collect();
            let mut cube: Vec<Atom> = Vec::new();
            while !alive.is_empty() {
                // Pick the candidate excluding the most live negatives
                // (ties: covering the most uncovered positives).
                let mut best: Option<(usize, usize, &Atom)> = None;
                for a in &candidates {
                    let excluded =
                        alive.iter().filter(|n| !holds(a, params, n)).count();
                    if excluded == 0 {
                        continue;
                    }
                    let covered = uncovered
                        .iter()
                        .filter(|p| holds(a, params, p))
                        .count();
                    if best
                        .as_ref()
                        .map_or(true, |(e, c, _)| excluded > *e || (excluded == *e && covered > *c))
                    {
                        best = Some((excluded, covered, a));
                    }
                }
                let Some((_, _, chosen)) = best else {
                    return Err(LearnError::HypothesisExhausted);
                };
                alive.retain(|n| holds(chosen, params, n));
                cube.push(chosen.clone());
            }
            uncovered.retain(|p| !cube.iter().all(|a| holds(a, params, p)));
            cubes.push(cube);
            if cubes.len() > data.num_positive() {
                return Err(LearnError::HypothesisExhausted);
            }
        }
        Ok(Formula::or(
            cubes
                .into_iter()
                .map(|cube| {
                    Formula::and(cube.into_iter().map(Formula::from).collect())
                })
                .collect(),
        ))
    }

    fn name(&self) -> &str {
        "PIE-enum"
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

    fn perfect(f: &Formula, ps: &[Var], d: &Dataset) -> bool {
        let at = |s: &Sample| {
            let m: Model = ps.iter().copied().zip(s.iter().cloned()).collect();
            f.eval(&m)
        };
        d.positives().iter().all(at) && d.negatives().iter().all(|s| !at(s))
    }

    #[test]
    fn box_separable() {
        let d = dataset(&[&[1, 0], &[2, 3]], &[&[-1, 0], &[5, 5]]);
        let ps = params(2);
        let f = PieLearner::default().learn(&d, &ps).unwrap();
        assert!(perfect(&f, &ps, &d), "{f}");
    }

    #[test]
    fn octagonal_diamond() {
        // the paper's program (a) samples: separable octagonally
        let d = dataset(
            &[&[0, -2], &[0, -1], &[0, 0], &[0, 1]],
            &[&[3, -3], &[-3, 3]],
        );
        let ps = params(2);
        let f = PieLearner::default().learn(&d, &ps).unwrap();
        assert!(perfect(&f, &ps, &d), "{f}");
    }

    #[test]
    fn disjunction_needed() {
        let d = dataset(&[&[0, 0], &[5, 5]], &[&[0, 5], &[5, 0]]);
        let ps = params(2);
        let f = PieLearner::default().learn(&d, &ps).unwrap();
        assert!(perfect(&f, &ps, &d), "{f}");
        assert!(matches!(f, Formula::Or(_)), "XOR needs a disjunction: {f}");
    }

    #[test]
    fn outside_hypothesis_space_fails() {
        // Separable only by x + 2y >= 0 style slopes; octagon cannot:
        // p=(1,-1) vs n=(2,-1): octagon distinguishes via x<=1... pick
        // points where every octagonal projection collides:
        // pos (0,0),(1,1),(-1,-1) ; neg (2,2),(-2,-2) are separable by
        // |x|<=1 octagonally. A genuinely hard case: same octagonal
        // projections: pos (1,2) neg (2,1) differ on x-y. Octagon CAN
        // separate those. True inseparability needs slope 2: pos
        // (0,0),(2,1); neg (1,1),(-1,0): x-2y separates; octagon
        // projections: x: 0,2 vs 1,-1 (interleaved); y: 0,1 vs 1,0;
        // x+y: 0,3 vs 2,-1; x-y: 0,1 vs 0,-1 — x-y<=? pos{0,1}
        // neg{0,-1} overlap at 0. All overlap -> single cube fails,
        // but DNF of boxes can still carve finite points. PIE's greedy
        // will find something; the real gap shows on *generalization*,
        // exercised by the CEGAR loop benches. Here we only check it
        // never misclassifies.
        let d = dataset(&[&[0, 0], &[2, 1]], &[&[1, 1], &[-1, 0]]);
        let ps = params(2);
        match PieLearner::default().learn(&d, &ps) {
            Ok(f) => assert!(perfect(&f, &ps, &d), "{f}"),
            Err(LearnError::HypothesisExhausted) => {}
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn contradiction_detected() {
        let mut d = dataset(&[&[1]], &[&[2]]);
        d.add_negative(vec![int(1)]);
        assert!(matches!(
            PieLearner::default().learn(&d, &params(1)),
            Err(LearnError::ContradictorySamples(_))
        ));
    }

    #[test]
    fn degenerate_classes() {
        let ps = params(1);
        assert_eq!(
            PieLearner::default().learn(&dataset(&[&[1]], &[]), &ps).unwrap(),
            Formula::True
        );
        assert_eq!(
            PieLearner::default().learn(&dataset(&[], &[&[1]]), &ps).unwrap(),
            Formula::False
        );
    }
}

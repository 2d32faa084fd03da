//! `LinearArbitrary` — Algorithm 1 of the paper.
//!
//! Applies a linear classifier recursively: misclassified negatives
//! spawn a conjunct (`φ ∧ LA(S⁺✓, S⁻✗)`), misclassified positives a
//! disjunct (`φ ∨ LA(S⁺✗, S⁻)`), until every positive sample is
//! separated from every negative sample. The result is an arbitrary
//! boolean combination of linear inequalities.
//!
//! Beyond the paper's pseudo-code, the implementation guarantees
//! progress: when the black-box classifier returns a useless
//! hyperplane (captures no positives, or excludes no negatives while
//! misclassifying none of the positives), it is replaced by an exact
//! two-point separator — any two *distinct* integer points are
//! separable by `w = p − n` — so recursion terminates on every
//! consistent dataset.

use crate::dataset::{Dataset, Sample};
use crate::linear::{
    linear_classify, refit_intercept, refit_intercept_scored, ClassifierKind, Hyperplane,
};
use crate::seed::SeedPlane;
use linarb_arith::BigInt;
use linarb_logic::{Atom, Formula, LinExpr, Var};

/// Why learning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// The same point is labeled positive and negative; no classifier
    /// exists. Carries the offending point.
    ContradictorySamples(Sample),
    /// Internal recursion guard tripped (should not happen on
    /// consistent data; kept as a defensive error).
    DepthExceeded,
    /// The learner's hypothesis space cannot separate the samples
    /// (used by restricted-space baseline learners such as the
    /// PIE-style enumerator).
    HypothesisExhausted,
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnError::ContradictorySamples(s) => {
                write!(f, "sample labeled both positive and negative: {s:?}")
            }
            LearnError::DepthExceeded => write!(f, "classifier recursion depth exceeded"),
            LearnError::HypothesisExhausted => {
                write!(f, "hypothesis space cannot separate the samples")
            }
        }
    }
}

impl std::error::Error for LearnError {}

/// Configuration of the learning pipeline (shared with Algorithm 2).
#[derive(Clone, Debug)]
pub struct LearnConfig {
    /// Which linear classifier backs `LinearClassify`.
    pub classifier: ClassifierKind,
    /// Run decision-tree generalization on top of `LinearArbitrary`
    /// (Algorithm 2). Disabling this reproduces the paper's ablation.
    pub use_decision_tree: bool,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig { classifier: ClassifierKind::Svm, use_decision_tree: true }
    }
}

/// Base seed of the classifier's RNG, mixed with the recursion depth
/// so runs are reproducible.
const SEED: u64 = 0x11AB;

/// Converts a hyperplane `w·x ≥ c` into an atom over `params`.
pub fn hyperplane_to_atom(h: &Hyperplane, params: &[Var]) -> Atom {
    let lhs = LinExpr::from_terms(
        params
            .iter()
            .zip(h.weights.iter())
            .map(|(v, w)| (*v, w.clone())),
        BigInt::zero(),
    );
    Atom::ge(lhs, LinExpr::constant(h.threshold.clone()))
}

/// Runs Algorithm 1 on a dataset, producing a formula over `params`
/// (one variable per sample dimension) that is `true` on every
/// positive and `false` on every negative sample.
///
/// # Errors
///
/// [`LearnError::ContradictorySamples`] if a point carries both
/// labels.
///
/// ```
/// use linarb_arith::int;
/// use linarb_logic::Var;
/// use linarb_ml::{linear_arbitrary, Dataset, LearnConfig};
///
/// let mut d = Dataset::new(1);
/// d.add_positive(vec![int(5)]);
/// d.add_negative(vec![int(0)]);
/// let params = vec![Var::from_index(0)];
/// let f = linear_arbitrary(&d, &params, &LearnConfig::default())?;
/// // f must accept 5 and reject 0
/// # use linarb_logic::Model;
/// let mut m = Model::new();
/// m.assign(params[0], int(5));
/// assert!(f.eval(&m));
/// m.assign(params[0], int(0));
/// assert!(!f.eval(&m));
/// # Ok::<(), linarb_ml::LearnError>(())
/// ```
pub fn linear_arbitrary(
    data: &Dataset,
    params: &[Var],
    config: &LearnConfig,
) -> Result<Formula, LearnError> {
    let mut hits = Vec::new();
    linear_arbitrary_seeded(data, params, config, &[], &mut hits)
}

/// [`linear_arbitrary`] with a symbolic seed fast path: at every
/// recursion level, the seed directions are scored by an exact
/// intercept refit first. A seed that separates the level's samples
/// perfectly — or captures every positive while excluding at least one
/// negative (guaranteed conjunctive progress, the shape of
/// equality-style invariants) — replaces the classifier run outright.
/// Indices of directly-used seeds are appended to `hits`.
pub fn linear_arbitrary_seeded(
    data: &Dataset,
    params: &[Var],
    config: &LearnConfig,
    seeds: &[SeedPlane],
    hits: &mut Vec<usize>,
) -> Result<Formula, LearnError> {
    assert_eq!(params.len(), data.dim(), "one parameter per dimension");
    if let Some(s) = data.first_contradiction() {
        return Err(LearnError::ContradictorySamples(s.clone()));
    }
    let depth_guard = 8 * (data.len() + 4);
    la_rec(
        data.positives(),
        data.negatives(),
        params,
        config,
        seeds,
        hits,
        depth_guard,
    )
}

/// Scores every seed direction by exact refit; returns the best as
/// `(index, hyperplane, errors, pos_errors)`. Deterministic: strict
/// improvement in error count, first index wins ties, early exit on a
/// perfect separator.
fn best_seed(
    seeds: &[SeedPlane],
    pos: &[Sample],
    neg: &[Sample],
) -> Option<(usize, Hyperplane, usize, usize)> {
    let mut best: Option<(usize, Hyperplane, usize, usize)> = None;
    for (i, sp) in seeds.iter().enumerate() {
        if let Some((h, errors, pos_errors)) = refit_intercept_scored(sp.dir(), pos, neg) {
            if best.as_ref().map_or(true, |(_, _, e, _)| errors < *e) {
                let perfect = errors == 0;
                best = Some((i, h, errors, pos_errors));
                if perfect {
                    break;
                }
            }
        }
    }
    best
}

fn la_rec(
    pos: &[Sample],
    neg: &[Sample],
    params: &[Var],
    config: &LearnConfig,
    seeds: &[SeedPlane],
    hits: &mut Vec<usize>,
    fuel: usize,
) -> Result<Formula, LearnError> {
    if pos.is_empty() {
        return Ok(Formula::False);
    }
    if neg.is_empty() {
        return Ok(Formula::True);
    }
    if fuel == 0 {
        return Err(LearnError::DepthExceeded);
    }

    let mut hp: Option<Hyperplane> = None;
    if let Some((i, h, errors, pos_errors)) = best_seed(seeds, pos, neg) {
        if errors == 0 || (pos_errors == 0 && errors < neg.len()) {
            hits.push(i);
            hp = Some(h);
        }
    }
    if hp.is_none() {
        hp = linear_classify(config.classifier, pos, neg, SEED ^ fuel as u64);
    }
    let mut split = hp.as_ref().map(|h| partition(h, pos, neg));
    // Progress guard: the hyperplane must capture at least one
    // positive, and must not classify everything as positive.
    let useless = match &split {
        None => true,
        Some((ok_pos, bad_pos, bad_neg)) => {
            ok_pos.is_empty() || (bad_neg.len() == neg.len() && bad_pos.is_empty())
        }
    };
    if useless {
        let h = two_point_separator(pos, neg)?;
        split = Some(partition(&h, pos, neg));
        hp = Some(h);
    }
    let h = hp.expect("set above");
    let (ok_pos, bad_pos, bad_neg) = split.expect("set above");
    debug_assert!(!ok_pos.is_empty());
    debug_assert!(bad_neg.len() < neg.len() || !bad_pos.is_empty());

    let mut phi = Formula::from(hyperplane_to_atom(&h, params));
    if !bad_neg.is_empty() {
        // line 5-6: conjoin a classifier separating the captured
        // positives from the misclassified negatives.
        let sub = la_rec(&ok_pos, &bad_neg, params, config, seeds, hits, fuel - 1)?;
        phi = Formula::and(vec![phi, sub]);
    }
    if !bad_pos.is_empty() {
        // line 7-8: disjoin a classifier for the missed positives.
        let sub = la_rec(&bad_pos, neg, params, config, seeds, hits, fuel - 1)?;
        phi = Formula::or(vec![phi, sub]);
    }
    Ok(phi)
}

type Partition = (Vec<Sample>, Vec<Sample>, Vec<Sample>);

/// Splits samples by the hyperplane:
/// `(S⁺✓, S⁺✗, S⁻✗)` — correctly captured positives, missed
/// positives, misclassified negatives.
fn partition(h: &Hyperplane, pos: &[Sample], neg: &[Sample]) -> Partition {
    let mut ok_pos = Vec::new();
    let mut bad_pos = Vec::new();
    let mut bad_neg = Vec::new();
    for p in pos {
        if h.predict(p) {
            ok_pos.push(p.clone());
        } else {
            bad_pos.push(p.clone());
        }
    }
    for n in neg {
        if h.predict(n) {
            bad_neg.push(n.clone());
        }
    }
    (ok_pos, bad_pos, bad_neg)
}

/// Exact separator of `pos[0]` from `neg[0]` along `w = p − n`,
/// refit against all samples to capture as much as possible.
fn two_point_separator(pos: &[Sample], neg: &[Sample]) -> Result<Hyperplane, LearnError> {
    // Find a (p, n) pair of distinct points.
    for p in pos {
        for n in neg {
            if p == n {
                continue;
            }
            let dir: Vec<BigInt> = p.iter().zip(n.iter()).map(|(a, b)| a - b).collect();
            // Refit on the full data for quality, but then *force* the
            // separation of p from n if the refit compromised it.
            if let Some(h) = refit_intercept(&dir, pos, neg) {
                if h.predict(p) && !h.predict(n) {
                    return Ok(h);
                }
            }
            // Direct threshold: midpoint of the projections.
            let hp = Hyperplane { weights: dir.clone(), threshold: BigInt::zero() };
            let tp = hp.project(p);
            let tn = hp.project(n);
            debug_assert!(tp > tn);
            let threshold = &(&tp + &tn).div_mod_floor(&BigInt::from(2)).0 + &BigInt::one();
            let h = Hyperplane { weights: dir, threshold };
            if h.predict(p) && !h.predict(n) {
                return Ok(h);
            }
        }
    }
    // Every positive equals every negative: contradictory data.
    Err(LearnError::ContradictorySamples(pos[0].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;
    use linarb_logic::Model;

    fn params(n: u32) -> Vec<Var> {
        (0..n).map(Var::from_index).collect()
    }

    fn eval_at(f: &Formula, ps: &[Var], point: &[i64]) -> bool {
        let mut m = Model::new();
        for (v, &x) in ps.iter().zip(point.iter()) {
            m.assign(*v, int(x));
        }
        f.eval(&m)
    }

    fn dataset(pos: &[&[i64]], neg: &[&[i64]]) -> Dataset {
        let dim = pos.first().or_else(|| neg.first()).map_or(0, |s| s.len());
        let mut d = Dataset::new(dim);
        for p in pos {
            d.add_positive(p.iter().map(|&c| int(c)).collect());
        }
        for n in neg {
            d.add_negative(n.iter().map(|&c| int(c)).collect());
        }
        d
    }

    fn separates(f: &Formula, ps: &[Var], d: &Dataset) -> bool {
        d.positives().iter().all(|s| {
            let pt: Vec<i64> = s.iter().map(|x| x.to_i64().unwrap()).collect();
            eval_at(f, ps, &pt)
        }) && d.negatives().iter().all(|s| {
            let pt: Vec<i64> = s.iter().map(|x| x.to_i64().unwrap()).collect();
            !eval_at(f, ps, &pt)
        })
    }

    #[test]
    fn separable_case_single_atom_works() {
        let d = dataset(&[&[4], &[9]], &[&[0], &[-3]]);
        let ps = params(1);
        let f = linear_arbitrary(&d, &ps, &LearnConfig::default()).unwrap();
        assert!(separates(&f, &ps, &d), "{f}");
    }

    #[test]
    fn paper_fig6_diamond() {
        // Program (a): positives on the y-axis, negatives at (3,-3), (-3,3).
        // Needs a disjunctive/conjunctive combination (Fig. 6).
        let d = dataset(
            &[&[0, -2], &[0, -1], &[0, 0], &[0, 1]],
            &[&[3, -3], &[-3, 3]],
        );
        let ps = params(2);
        for kind in [ClassifierKind::Svm, ClassifierKind::Perceptron] {
            let config = LearnConfig { classifier: kind, ..LearnConfig::default() };
            let f = linear_arbitrary(&d, &ps, &config).unwrap();
            assert!(separates(&f, &ps, &d), "classifier {kind:?}: {f}");
        }
    }

    #[test]
    fn xor_pattern_needs_arbitrary_boolean_shape() {
        // positives at (0,0) and (5,5); negatives at (0,5) and (5,0):
        // not separable by any single hyperplane.
        let d = dataset(&[&[0, 0], &[5, 5]], &[&[0, 5], &[5, 0]]);
        let ps = params(2);
        let f = linear_arbitrary(&d, &ps, &LearnConfig::default()).unwrap();
        assert!(separates(&f, &ps, &d), "{f}");
        assert!(f.size() > 1, "single atom cannot express XOR");
    }

    #[test]
    fn surrounded_point() {
        // positive at origin surrounded by negatives: the §5 dummy
        // scenario; needs a conjunction of halfplanes.
        let d = dataset(
            &[&[0, 0]],
            &[&[1, 0], &[-1, 0], &[0, 1], &[0, -1], &[1, 1], &[-1, -1], &[1, -1], &[-1, 1]],
        );
        let ps = params(2);
        let f = linear_arbitrary(&d, &ps, &LearnConfig::default()).unwrap();
        assert!(separates(&f, &ps, &d), "{f}");
    }

    #[test]
    fn contradiction_reported() {
        let mut d = dataset(&[&[1, 2]], &[&[3, 4]]);
        d.add_negative(vec![int(1), int(2)]);
        let err = linear_arbitrary(&d, &params(2), &LearnConfig::default()).unwrap_err();
        assert!(matches!(err, LearnError::ContradictorySamples(_)));
    }

    #[test]
    fn empty_classes() {
        let ps = params(1);
        let pos_only = dataset(&[&[1]], &[]);
        assert_eq!(
            linear_arbitrary(&pos_only, &ps, &LearnConfig::default()).unwrap(),
            Formula::True
        );
        let neg_only = dataset(&[], &[&[1]]);
        assert_eq!(
            linear_arbitrary(&neg_only, &ps, &LearnConfig::default()).unwrap(),
            Formula::False
        );
    }

    #[test]
    fn large_random_consistent_cloud() {
        use linarb_testutil::XorShiftRng;
        let mut rng = XorShiftRng::seed_from_u64(99);
        // Ground truth: x - 2y >= 1 \/ (x + y <= -4)
        let mut d = Dataset::new(2);
        for _ in 0..120 {
            let x = rng.gen_range(-10i64..=10);
            let y = rng.gen_range(-10i64..=10);
            let label = x - 2 * y >= 1 || x + y <= -4;
            if label {
                d.add_positive(vec![int(x), int(y)]);
            } else {
                d.add_negative(vec![int(x), int(y)]);
            }
        }
        let ps = params(2);
        let f = linear_arbitrary(&d, &ps, &LearnConfig::default()).unwrap();
        assert!(separates(&f, &ps, &d), "learned {f}");
    }

    #[test]
    fn checkerboard_worst_case_still_terminates() {
        // 4x4 checkerboard: maximally non-separable; exercises the
        // two-point fallback heavily.
        let mut d = Dataset::new(2);
        for x in 0..4i64 {
            for y in 0..4i64 {
                if (x + y) % 2 == 0 {
                    d.add_positive(vec![int(x), int(y)]);
                } else {
                    d.add_negative(vec![int(x), int(y)]);
                }
            }
        }
        let ps = params(2);
        let f = linear_arbitrary(&d, &ps, &LearnConfig::default()).unwrap();
        assert!(separates(&f, &ps, &d));
    }
}

//! `Learn` — Algorithm 2: the layered machine-learning toolchain.
//!
//! Runs [`linear_arbitrary`] (Algorithm 1) to discover feature
//! attributes, then generalizes with decision-tree learning over those
//! attributes plus predefined features (unit "Box" directions, `mod`
//! features). Falls back to the raw `LinearArbitrary` formula when the
//! decision tree cannot classify perfectly, preserving Lemma 3.1: the
//! returned formula is valid on every positive and invalid on every
//! negative sample.

use crate::algorithm::{linear_arbitrary_seeded, table, LearnConfig, LearnError};
use crate::dataset::Dataset;
use crate::dtree::{dt_learn, Feature};
use crate::seed::SeedPlane;
use linarb_arith::BigInt;
use linarb_logic::{Formula, Var};

/// Modulus of the predefined `mod` features handed to the decision
/// tree (§3.3 *Beyond Polyhedra*).
const MOD_MODULUS: i128 = 2;

/// Statistics of one `Learn` invocation, used by the evaluation
/// harness to report the paper's `#A` (conjuncts per disjunct) and by
/// the ablation bench.
#[derive(Clone, Debug, Default)]
pub struct LearnStats {
    /// Atoms produced by `LinearArbitrary`.
    pub la_atoms: usize,
    /// Whether the decision tree succeeded (vs. falling back).
    pub dt_used: bool,
    /// Node count of the decision tree (0 when unused).
    pub dt_size: usize,
    /// Seed-store indices of symbolic seeds the recursion used
    /// directly in place of a classifier run (may repeat).
    pub seed_hits: Vec<usize>,
    /// Seed directions added to the decision tree's feature set (not
    /// already present among the learned atoms).
    pub seeded_features: usize,
}

/// Learns a classifier for `data` as a formula over `params`
/// (Algorithm 2).
///
/// # Errors
///
/// Propagates [`LearnError::ContradictorySamples`] from Algorithm 1.
///
/// ```
/// use linarb_arith::int;
/// use linarb_logic::Var;
/// use linarb_ml::{learn, Dataset, LearnConfig};
///
/// let mut d = Dataset::new(2);
/// d.add_positive(vec![int(1), int(0)]);
/// d.add_positive(vec![int(1), int(1)]);
/// d.add_negative(vec![int(0), int(5)]);
/// let params = vec![Var::from_index(0), Var::from_index(1)];
/// let (f, stats) = learn(&d, &params, &LearnConfig::default())?;
/// assert!(stats.la_atoms >= 1);
/// # let _ = f;
/// # Ok::<(), linarb_ml::LearnError>(())
/// ```
pub fn learn(
    data: &Dataset,
    params: &[Var],
    config: &LearnConfig,
) -> Result<(Formula, LearnStats), LearnError> {
    learn_seeded(data, params, config, &[])
}

/// [`learn`] with a set of symbolic seed planes: the `LinearArbitrary`
/// recursion tries each seed as a first-choice separator (recording
/// direct uses in `LearnStats::seed_hits`), and every seed direction is
/// offered to the decision tree as an extra feature attribute.
///
/// With `seeds` empty this is exactly [`learn`].
pub fn learn_seeded(
    data: &Dataset,
    params: &[Var],
    config: &LearnConfig,
    seeds: &[SeedPlane],
) -> Result<(Formula, LearnStats), LearnError> {
    use linarb_trace::{metrics, Level};
    let mut span = linarb_trace::span(Level::Debug, "ml", "ml.learn");
    if !span.active() {
        return learn_inner(data, params, config, seeds);
    }
    span.record("pos", data.num_positive());
    span.record("neg", data.num_negative());
    span.record("dims", params.len());
    span.record("seeds", seeds.len());
    let result = learn_inner(data, params, config, seeds);
    match &result {
        Ok((_, stats)) => {
            span.record("la_atoms", stats.la_atoms);
            span.record("dt_used", stats.dt_used);
            span.record("dt_size", stats.dt_size);
            span.record("seed_hits", stats.seed_hits.len());
            // Per-invocation distributions: dataset size and how many
            // half-planes the recursion needed — the learner-side
            // analogue of the oracle's pivot/conflict histograms.
            metrics::histogram(
                "ml.learn_samples",
                (data.num_positive() + data.num_negative()) as u64,
            );
            metrics::histogram("ml.learn_la_atoms", stats.la_atoms as u64);
        }
        Err(_) => span.record("error", true),
    }
    result
}

fn learn_inner(
    data: &Dataset,
    params: &[Var],
    config: &LearnConfig,
    seeds: &[SeedPlane],
) -> Result<(Formula, LearnStats), LearnError> {
    use linarb_trace::{event, Level};
    let mut stats = LearnStats::default();
    // Degenerate classes do not need the pipeline.
    if data.num_positive() == 0 {
        return Ok((Formula::False, stats));
    }
    if data.num_negative() == 0 {
        return Ok((Formula::True, stats));
    }

    // One table for the whole call: Algorithm 1 and the tree share its
    // projection columns.
    let mut t = table(data, params)?;
    let phi = linear_arbitrary_seeded(&mut t, params, config, seeds, &mut stats.seed_hits)?;
    let la_atoms = phi.atoms();
    stats.la_atoms = la_atoms.len();
    if !config.use_decision_tree {
        return Ok((phi, stats));
    }

    // Feature attributes: the homogeneous parts of the learned atoms…
    let mut features: Vec<Feature> = Vec::new();
    for a in &la_atoms {
        let w: Vec<BigInt> = params.iter().map(|v| a.expr().coeff(*v)).collect();
        if w.iter().any(|c| !c.is_zero()) {
            let f = Feature::Linear(w);
            if !features.contains(&f) {
                features.push(f);
            }
        }
    }
    // …plus the symbolic seed directions the recursion did not emit…
    for s in seeds {
        if s.dir().len() == params.len() && s.dir().iter().any(|c| !c.is_zero()) {
            let f = Feature::Linear(s.dir().to_vec());
            if !features.contains(&f) {
                features.push(f);
                stats.seeded_features += 1;
            }
        }
    }
    // …plus predefined ones: unit (Box) directions and mod features.
    for d in 0..params.len() {
        let mut w = vec![BigInt::zero(); params.len()];
        w[d] = BigInt::one();
        let f = Feature::Linear(w);
        if !features.contains(&f) {
            features.push(f);
        }
    }
    for d in 0..params.len() {
        features.push(Feature::Mod { dim: d, modulus: BigInt::from(MOD_MODULUS) });
    }

    event!(Level::Trace, "ml", "ml.features", "candidates" => features.len());
    match dt_learn(&mut t, &features) {
        Some(tree) => {
            stats.dt_used = true;
            stats.dt_size = tree.size();
            event!(Level::Trace, "ml", "ml.dtree",
                "size" => tree.size(), "depth" => tree.depth());
            Ok((tree.to_formula(&features, params), stats))
        }
        // Lemma 3.1 fallback: the raw LinearArbitrary classifier is
        // always perfect on the training data.
        None => Ok((phi, stats)),
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
        let at = |s: &[BigInt]| {
            let mut m = Model::new();
            for (v, x) in ps.iter().zip(s.iter()) {
                m.assign(*v, x.clone());
            }
            f.eval(&m)
        };
        d.positives().iter().all(|s| at(s)) && d.negatives().iter().all(|s| !at(s))
    }

    use linarb_arith::BigInt;

    #[test]
    fn lemma_3_1_perfect_classification() {
        // Several shapes; Learn must always be perfect on training data.
        let cases: Vec<(Vec<&[i64]>, Vec<&[i64]>)> = vec![
            (vec![&[1, 0], &[2, 1], &[3, 1]], vec![&[0, 2], &[-1, 0]]),
            (
                vec![&[0, -2], &[0, -1], &[0, 0], &[0, 1]],
                vec![&[3, -3], &[-3, 3]],
            ),
            (vec![&[0, 0], &[5, 5]], vec![&[0, 5], &[5, 0]]),
        ];
        for (pos, neg) in cases {
            let d = dataset(&pos, &neg);
            let ps = params(2);
            let (f, _) = learn(&d, &ps, &LearnConfig::default()).unwrap();
            assert!(perfect(&f, &ps, &d), "{f} imperfect on {pos:?} / {neg:?}");
        }
    }

    #[test]
    fn dt_generalizes_to_simpler_formula() {
        // Positives x>=1 band with noise dimensions; DT should find a
        // small tree.
        let mut pos: Vec<Vec<i64>> = Vec::new();
        let mut neg: Vec<Vec<i64>> = Vec::new();
        for a in 1..8i64 {
            pos.push(vec![a, a % 3]);
        }
        for a in -7..0i64 {
            neg.push(vec![a, a.rem_euclid(3)]);
        }
        let posr: Vec<&[i64]> = pos.iter().map(|v| v.as_slice()).collect();
        let negr: Vec<&[i64]> = neg.iter().map(|v| v.as_slice()).collect();
        let d = dataset(&posr, &negr);
        let ps = params(2);
        let (f, stats) = learn(&d, &ps, &LearnConfig::default()).unwrap();
        assert!(perfect(&f, &ps, &d));
        assert!(stats.dt_used);
        assert!(stats.dt_size <= 5, "expected a small tree, got {}", stats.dt_size);
    }

    #[test]
    fn ablation_no_dt_still_perfect() {
        let d = dataset(&[&[0, 0], &[5, 5]], &[&[0, 5], &[5, 0]]);
        let ps = params(2);
        let config = LearnConfig { use_decision_tree: false, ..LearnConfig::default() };
        let (f, stats) = learn(&d, &ps, &config).unwrap();
        assert!(perfect(&f, &ps, &d));
        assert!(!stats.dt_used);
    }

    #[test]
    fn parity_needs_mod_features() {
        let d = dataset(&[&[0], &[2], &[4], &[6], &[-2]], &[&[1], &[3], &[5], &[-1]]);
        let ps = params(1);
        let (f, stats) = learn(&d, &ps, &LearnConfig::default()).unwrap();
        assert!(perfect(&f, &ps, &d), "{f}");
        assert!(stats.dt_used, "mod feature must rescue the tree");
        // generalization beyond training data:
        let mut m = Model::new();
        m.assign(ps[0], int(100));
        assert!(f.eval(&m), "even number far from data should classify positive: {f}");
        m.assign(ps[0], int(101));
        assert!(!f.eval(&m));
    }

    #[test]
    fn degenerate_classes() {
        let ps = params(1);
        let d = dataset(&[&[1]], &[]);
        assert_eq!(learn(&d, &ps, &LearnConfig::default()).unwrap().0, Formula::True);
        let d = dataset(&[], &[&[1]]);
        assert_eq!(learn(&d, &ps, &LearnConfig::default()).unwrap().0, Formula::False);
    }

    #[test]
    fn contradiction_propagates() {
        let mut d = dataset(&[&[1]], &[&[2]]);
        d.add_negative(vec![int(1)]);
        assert!(matches!(
            learn(&d, &params(1), &LearnConfig::default()),
            Err(LearnError::ContradictorySamples(_))
        ));
    }
}

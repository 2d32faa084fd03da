//! Decision-tree learning over feature attributes (Algorithm 2's
//! generalization layer).
//!
//! Features are integer-valued functions of a sample: linear
//! combinations `w·x` (extracted from `LinearArbitrary`'s atoms, plus
//! the unit "Box" features) and `mod`-features `xᵢ mod k` (§3.3,
//! *Beyond Polyhedra*). Each internal node tests `f(x) ≤ c`; the tree
//! must classify the training data perfectly (the paper tunes its DT
//! implementation the same way), choosing splits by information gain.
//! Feature values come from the learn call's [`Table`], which holds
//! each feature's column once for Algorithm 1 and the tree together.

use crate::dataset::Sample;
use crate::table::{Col, Table};
use linarb_arith::BigInt;
use linarb_logic::{Atom, Formula, LinExpr, ModAtom, Var};
use std::fmt;

/// An integer-valued feature attribute.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum Feature {
    /// `w·x` for an integer weight vector over the sample dimensions.
    Linear(Vec<BigInt>),
    /// `x_dim mod modulus` (result in `[0, modulus)`).
    Mod {
        /// Sample dimension.
        dim: usize,
        /// Modulus (`≥ 2`).
        modulus: BigInt,
    },
}

impl Feature {
    /// Evaluates the feature on a sample.
    pub(crate) fn eval(&self, s: &Sample) -> BigInt {
        match self {
            Feature::Linear(w) => w.iter().zip(s.iter()).map(|(a, b)| a * b).sum(),
            Feature::Mod { dim, modulus } => s[*dim].mod_floor(modulus),
        }
    }

    /// [`Feature::eval`] in `i128` arithmetic, or `None` when a
    /// coordinate or coefficient leaves `i64` or a sum overflows. Most
    /// samples are small, and `i128` products and comparisons are far
    /// cheaper than `BigInt` ones.
    pub(crate) fn eval_i128(&self, s: &Sample) -> Option<i128> {
        match self {
            Feature::Linear(w) => w.iter().zip(s).try_fold(0i128, |acc, (a, b)| {
                acc.checked_add(i128::from(a.to_i64()?) * i128::from(b.to_i64()?))
            }),
            Feature::Mod { dim, modulus } => {
                let m = modulus.to_i64().filter(|m| *m > 0)?;
                Some(i128::from(s[*dim].to_i64()?.rem_euclid(m)))
            }
        }
    }

    /// The formula for the decision `f(x) ≤ c` over `params`.
    pub(crate) fn le_formula(&self, c: &BigInt, params: &[Var]) -> Formula {
        match self {
            Feature::Linear(w) => {
                let lhs = LinExpr::from_terms(
                    params.iter().zip(w.iter()).map(|(v, a)| (*v, a.clone())),
                    BigInt::zero(),
                );
                Formula::from(Atom::le(lhs, LinExpr::constant(c.clone())))
            }
            Feature::Mod { dim, modulus } => {
                // (x mod k) <= c  ==  disjunction of residues 0..=c
                let mut residues = Vec::new();
                let mut r = BigInt::zero();
                while &r <= c && r < *modulus {
                    residues.push(Formula::from(ModAtom::new(
                        LinExpr::var(params[*dim]),
                        modulus.clone(),
                        r.clone(),
                    )));
                    r = &r + &BigInt::one();
                }
                Formula::or(residues)
            }
        }
    }
}

impl fmt::Debug for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Feature::Linear(w) => write!(f, "lin{w:?}"),
            Feature::Mod { dim, modulus } => write!(f, "x{dim} mod {modulus}"),
        }
    }
}

/// A learned decision tree.
#[derive(Clone, Debug)]
pub(crate) enum DecisionTree {
    /// Classify as positive (`true`) or negative (`false`).
    Leaf(bool),
    /// Test `feature(x) ≤ threshold`; `then` on true, `els` on false.
    Node {
        /// Index into the feature list used at learning time.
        feature: usize,
        /// The threshold `c`.
        threshold: BigInt,
        /// Subtree when `f(x) ≤ c`.
        then: Box<DecisionTree>,
        /// Subtree when `f(x) > c`.
        els: Box<DecisionTree>,
    },
}

impl DecisionTree {
    /// Classifies a sample.
    #[cfg(test)]
    fn classify(&self, features: &[Feature], s: &Sample) -> bool {
        match self {
            DecisionTree::Leaf(b) => *b,
            DecisionTree::Node { feature, threshold, then, els } => {
                if features[*feature].eval(s) <= *threshold {
                    then.classify(features, s)
                } else {
                    els.classify(features, s)
                }
            }
        }
    }

    /// Number of nodes.
    pub(crate) fn size(&self) -> usize {
        match self {
            DecisionTree::Leaf(_) => 1,
            DecisionTree::Node { then, els, .. } => 1 + then.size() + els.size(),
        }
    }

    /// Depth of the tree (a lone leaf has depth 1).
    pub(crate) fn depth(&self) -> usize {
        match self {
            DecisionTree::Leaf(_) => 1,
            DecisionTree::Node { then, els, .. } => 1 + then.depth().max(els.depth()),
        }
    }

    /// Converts the tree into the disjunction over all paths reaching
    /// positive leaves (the paper's DT-to-formula conversion).
    pub(crate) fn to_formula(&self, features: &[Feature], params: &[Var]) -> Formula {
        fn walk(
            t: &DecisionTree,
            features: &[Feature],
            params: &[Var],
            path: &mut Vec<Formula>,
            out: &mut Vec<Formula>,
        ) {
            match t {
                DecisionTree::Leaf(true) => out.push(Formula::and(path.clone())),
                DecisionTree::Leaf(false) => {}
                DecisionTree::Node { feature, threshold, then, els } => {
                    let dec = features[*feature].le_formula(threshold, params);
                    path.push(dec.clone());
                    walk(then, features, params, path, out);
                    path.pop();
                    path.push(Formula::not(dec));
                    walk(els, features, params, path, out);
                    path.pop();
                }
            }
        }
        let mut out = Vec::new();
        let mut path = Vec::new();
        walk(self, features, params, &mut path, &mut out);
        Formula::or(out)
    }
}

/// Shannon entropy of a (positive, negative) split, in bits.
fn entropy(pos: usize, neg: usize) -> f64 {
    let n = pos + neg;
    if n == 0 || pos == 0 || neg == 0 {
        return 0.0;
    }
    let p = pos as f64 / n as f64;
    let q = neg as f64 / n as f64;
    -(p * p.log2() + q * q.log2())
}

/// Information gain of splitting `(pos, neg)` into
/// `(pos_le, neg_le)` / `(pos_gt, neg_gt)`, given the entropy `before`
/// of the unsplit `(pos_le + pos_gt, neg_le + neg_gt)`, which one node
/// computes once for all its candidates. Never exceeds `before`: it
/// subtracts two non-negative terms from it.
fn split_gain(before: f64, pos_le: usize, neg_le: usize, pos_gt: usize, neg_gt: usize) -> f64 {
    let n = (pos_le + neg_le + pos_gt + neg_gt) as f64;
    if n == 0.0 {
        return 0.0;
    }
    let le = (pos_le + neg_le) as f64 / n;
    let gt = (pos_gt + neg_gt) as f64 / n;
    before - le * entropy(pos_le, neg_le) - gt * entropy(pos_gt, neg_gt)
}

/// Learns a decision tree that classifies every row of `t` perfectly
/// using the given features, or `None` if the features cannot
/// distinguish some positive from some negative sample.
///
/// Each feature's column and sorted row order come from the table, so
/// a direction Algorithm 1 already projected (a seed, a learned atom's
/// hyperplane) costs the tree nothing; each node's threshold scan is a
/// single sweep per feature over that order.
pub(crate) fn dt_learn(t: &mut Table, features: &[Feature]) -> Option<DecisionTree> {
    use linarb_trace::Level;
    let mut span = linarb_trace::span(Level::Debug, "ml", "ml.dtree");
    if span.active() {
        span.record("samples", t.len());
        span.record("features", features.len());
    }
    let cols: Vec<Col> = features.iter().map(|f| t.feature(f)).collect();
    let members: Vec<u32> = (0..t.len() as u32).collect();
    build(t, &cols, &members)
}

fn build(t: &mut Table, cols: &[Col], members: &[u32]) -> Option<DecisionTree> {
    // Rows are positives first, negatives after.
    let n_pos = t.n_pos();
    let pos_cnt = members.iter().filter(|&&i| (i as usize) < n_pos).count();
    let neg_cnt = members.len() - pos_cnt;
    if neg_cnt == 0 {
        return Some(DecisionTree::Leaf(true));
    }
    if pos_cnt == 0 {
        return Some(DecisionTree::Leaf(false));
    }
    // Pick the (feature, threshold) with maximal information gain:
    // walk this node's members in each feature's sorted order,
    // evaluating a candidate at every distinct value except the last
    // (same candidate set and tie-breaks as the naive scan). A
    // candidate threshold is the value of the row that starts its run.
    // No gain exceeds the node's entropy `before`, so once the best
    // reaches it no later candidate can replace it, and the scan stops.
    let before = entropy(pos_cnt, neg_cnt);
    let unbeatable = |best: &Option<(f64, usize, u32)>| {
        best.is_some_and(|(b, _, _)| b + 1e-12 >= before)
    };
    let mut best: Option<(f64, usize, u32)> = None;
    for (fi, &col) in cols.iter().enumerate() {
        if unbeatable(&best) {
            break;
        }
        let (mut pos_le, mut neg_le) = (0usize, 0usize);
        let mut group: Option<u32> = None;
        t.sweep(col, &[members], |i, starts| {
            if starts {
                if let Some(g) = group.filter(|_| !unbeatable(&best)) {
                    let gain = split_gain(
                        before,
                        pos_le,
                        neg_le,
                        pos_cnt - pos_le,
                        neg_cnt - neg_le,
                    );
                    if best.is_none_or(|(b, _, _)| gain > b + 1e-12) {
                        best = Some((gain, fi, g));
                    }
                }
                group = Some(i);
            }
            if (i as usize) < n_pos {
                pos_le += 1;
            } else {
                neg_le += 1;
            }
        });
    }
    let (gain, fi, row) = best?;
    if gain <= 1e-12 {
        // No split makes progress: features cannot separate the data.
        return None;
    }
    let threshold = t.value(cols[fi], row);
    let cut = t.at_most(cols[fi], &threshold);
    let (m_le, m_gt): (Vec<u32>, Vec<u32>) = members.iter().partition(|&&i| cut.holds(i));
    let then = build(t, cols, &m_le)?;
    let els = build(t, cols, &m_gt)?;
    Some(DecisionTree::Node {
        feature: fi,
        threshold,
        then: Box::new(then),
        els: Box::new(els),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use linarb_arith::int;
    use linarb_logic::Model;

    fn dt_learn(d: &Dataset, features: &[Feature]) -> Option<DecisionTree> {
        super::dt_learn(&mut Table::new(d.dim(), d.positives(), d.negatives()), features)
    }

    fn s(coords: &[i64]) -> Sample {
        coords.iter().map(|&c| int(c)).collect()
    }

    fn dataset(pos: &[&[i64]], neg: &[&[i64]]) -> Dataset {
        let dim = pos.first().or_else(|| neg.first()).map_or(0, |x| x.len());
        let mut d = Dataset::new(dim);
        for p in pos {
            d.add_positive(s(p));
        }
        for n in neg {
            d.add_negative(s(n));
        }
        d
    }

    #[test]
    fn entropy_shape() {
        assert_eq!(entropy(0, 10), 0.0);
        assert_eq!(entropy(10, 0), 0.0);
        assert!((entropy(5, 5) - 1.0).abs() < 1e-12);
        assert!(entropy(1, 9) < entropy(3, 7));
    }

    #[test]
    fn info_gain_prefers_clean_splits() {
        let before = entropy(5, 5);
        // clean split: 5+/0- vs 0+/5-
        let clean = split_gain(before, 5, 0, 0, 5);
        // muddy split: 3+/2- vs 2+/3-
        let muddy = split_gain(before, 3, 2, 2, 3);
        assert!(clean > muddy);
        assert!((clean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_linear_feature_tree() {
        let d = dataset(&[&[0], &[1], &[2]], &[&[5], &[9]]);
        let features = vec![Feature::Linear(vec![int(1)])];
        let t = dt_learn(&d, &features).expect("separable by x");
        assert!(d.positives().iter().all(|p| t.classify(&features, p)));
        assert!(d.negatives().iter().all(|n| !t.classify(&features, n)));
        // one split suffices
        assert_eq!(t.size(), 3);
    }

    #[test]
    fn tree_formula_matches_tree() {
        let d = dataset(&[&[0, 0], &[1, 1], &[4, 5]], &[&[5, 0], &[6, 1], &[0, 6]]);
        let features = vec![
            Feature::Linear(vec![int(1), int(0)]),
            Feature::Linear(vec![int(0), int(1)]),
            Feature::Linear(vec![int(1), int(1)]),
            Feature::Linear(vec![int(1), int(-1)]),
        ];
        let t = dt_learn(&d, &features).expect("separable");
        let params = vec![Var::from_index(0), Var::from_index(1)];
        let f = t.to_formula(&features, &params);
        for x in -2i64..8 {
            for y in -2i64..8 {
                let sample = s(&[x, y]);
                let mut m = Model::new();
                m.assign(params[0], int(x));
                m.assign(params[1], int(y));
                assert_eq!(
                    t.classify(&features, &sample),
                    f.eval(&m),
                    "mismatch at ({x},{y}) for {f}"
                );
            }
        }
    }

    #[test]
    fn mod_feature_separates_parity() {
        let d = dataset(&[&[0], &[2], &[4], &[-2]], &[&[1], &[3], &[-1]]);
        // Linear features can only carve the finite samples into many
        // intervals; the mod feature separates them in a single split.
        let lin = vec![Feature::Linear(vec![int(1)])];
        let lin_tree = dt_learn(&d, &lin).expect("intervals separate finite data");
        assert!(lin_tree.size() > 3, "interval tree must be larger");
        let features = vec![
            Feature::Linear(vec![int(1)]),
            Feature::Mod { dim: 0, modulus: int(2) },
        ];
        let t = dt_learn(&d, &features).expect("parity separable with mod");
        assert!(d.positives().iter().all(|p| t.classify(&features, p)));
        assert!(d.negatives().iter().all(|n| !t.classify(&features, n)));
        // formula semantics
        let params = vec![Var::from_index(0)];
        let f = t.to_formula(&features, &params);
        for x in -5i64..=5 {
            let mut m = Model::new();
            m.assign(params[0], int(x));
            assert_eq!(f.eval(&m), x.rem_euclid(2) == 0, "x={x} f={f}");
        }
    }

    #[test]
    fn insufficient_features_fail() {
        // positives and negatives share the x-projection
        let d = dataset(&[&[0, 0]], &[&[0, 1]]);
        let features = vec![Feature::Linear(vec![int(1), int(0)])];
        assert!(dt_learn(&d, &features).is_none());
    }

    #[test]
    fn prefers_high_gain_feature() {
        // y separates perfectly; x is noise. The root must use y.
        let d = dataset(
            &[&[1, 0], &[5, 1], &[3, 2]],
            &[&[2, 8], &[4, 9], &[1, 7]],
        );
        let features = vec![
            Feature::Linear(vec![int(1), int(0)]),
            Feature::Linear(vec![int(0), int(1)]),
        ];
        let t = dt_learn(&d, &features).unwrap();
        match &t {
            DecisionTree::Node { feature, .. } => assert_eq!(*feature, 1),
            _ => panic!("expected a split"),
        }
        assert_eq!(t.size(), 3, "single y-split suffices");
    }

    #[test]
    fn paper_program_b_attributes() {
        // §2.2: DT picks concise attributes -i+x and -i+2x-2y with
        // thresholds separating the data. We emulate with samples from
        // the program: reachable states have x == i and x == 2y or 2y+1.
        let mut d = Dataset::new(4); // (i, x, y, n)
        // positives: actual loop-head states
        for i in 0..6i64 {
            let x = i;
            let y = i / 2;
            d.add_positive(s(&[i, x, y, 6]));
        }
        // negatives: states violating x == i
        d.add_negative(s(&[2, 5, 1, 6]));
        d.add_negative(s(&[3, 1, 0, 6]));
        d.add_negative(s(&[4, 4, 0, 6])); // violates parity relation
        let features = vec![
            Feature::Linear(vec![int(-1), int(1), int(0), int(0)]), // -i + x
            Feature::Linear(vec![int(-1), int(2), int(-2), int(0)]), // -i + 2x - 2y
            Feature::Linear(vec![int(-10), int(-1), int(5), int(6)]), // junk complex
        ];
        let t = dt_learn(&d, &features).expect("separable");
        assert!(d.positives().iter().all(|p| t.classify(&features, p)));
        assert!(d.negatives().iter().all(|n| !t.classify(&features, n)));
    }
}

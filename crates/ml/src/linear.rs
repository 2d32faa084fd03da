//! Linear classification: Perceptron, soft-margin SVM, and the
//! rationalization pipeline that turns learned directions into exact
//! integer hyperplanes.
//!
//! The paper treats the classifier as a black box ("LinearClassify")
//! with a precision/generalization trade-off knob (the SVM `C`
//! parameter). We reproduce that: [`ClassifierKind::Svm`] runs a
//! Pegasos-style subgradient soft-margin SVM in `f64`, whose weight
//! direction is then *rationalized* to small integer coefficients and
//! given an exact integer intercept refit on the sample projections;
//! [`ClassifierKind::Perceptron`] runs an exact integer perceptron.
//! The §5 "dummy classifier" fallback (retry against a single sample
//! of the opposite class) is implemented in [`linear_classify`].

use crate::dataset::Sample;
use linarb_arith::BigInt;
use linarb_testutil::XorShiftRng;

/// Which linear classification algorithm drives `LinearClassify`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassifierKind {
    /// Soft-margin linear SVM (Pegasos subgradient) with
    /// regularization strength `C = 1`.
    Svm,
    /// Exact integer (pocket) perceptron.
    Perceptron,
}

/// The paper's SVM `C` parameter: larger values penalize
/// misclassification harder (less margin, more over-fitting). The
/// paper prefers a reasonably small `C` for larger margins.
const SVM_C: f64 = 1.0;

/// SVM subgradient iterations.
const SVM_ITERS: usize = 2_000;

/// An integer separating hyperplane: the predicate
/// `w·x ≥ threshold`.
///
/// `predict` is `true` on the (intended) positive side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hyperplane {
    /// Integer weight vector (gcd-normalized, not all zero).
    pub weights: Vec<BigInt>,
    /// Integer threshold.
    pub threshold: BigInt,
}

impl Hyperplane {
    /// The projection `w·x`.
    pub fn project(&self, x: &Sample) -> BigInt {
        self.weights
            .iter()
            .zip(x.iter())
            .map(|(w, v)| w * v)
            .sum()
    }

    /// Classifies `x`: `true` iff `w·x ≥ threshold`.
    pub fn predict(&self, x: &Sample) -> bool {
        self.project(x) >= self.threshold
    }
}

/// Runs the configured classifier and returns an integer hyperplane,
/// or `None` when every direction collapses to zero (contradictory or
/// empty data).
///
/// This is the paper's `LinearClassify` with the §5 dummy-classifier
/// retry: if the primary run yields the zero direction, the classifier
/// is re-run against single samples of the opposite class.
pub fn linear_classify(
    kind: ClassifierKind,
    pos: &[Sample],
    neg: &[Sample],
    seed: u64,
) -> Option<Hyperplane> {
    if pos.is_empty() || neg.is_empty() {
        return None;
    }
    let primary = raw_direction(kind, pos, neg, seed)
        .and_then(|dir| refit_intercept(&dir, pos, neg));
    if primary.is_some() {
        return primary;
    }
    // §5 fallback: S⁺ against one random negative, then one random
    // positive against S⁻.
    let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x5eed);
    let n = &neg[rng.gen_range(0..neg.len())];
    if let Some(h) = raw_direction(kind, pos, std::slice::from_ref(n), seed ^ 1)
        .and_then(|dir| refit_intercept(&dir, pos, neg))
    {
        return Some(h);
    }
    let p = &pos[rng.gen_range(0..pos.len())];
    if let Some(h) = raw_direction(kind, std::slice::from_ref(p), neg, seed ^ 2)
        .and_then(|dir| refit_intercept(&dir, pos, neg))
    {
        return Some(h);
    }
    // Last resort: the exact two-point separator direction p − n.
    let dir: Vec<BigInt> = p.iter().zip(n.iter()).map(|(a, b)| a - b).collect();
    if dir.iter().all(BigInt::is_zero) {
        return None;
    }
    refit_intercept(&normalize_gcd(dir), pos, neg)
}

/// Learns a raw integer *direction* (no meaningful intercept yet).
fn raw_direction(
    kind: ClassifierKind,
    pos: &[Sample],
    neg: &[Sample],
    seed: u64,
) -> Option<Vec<BigInt>> {
    let dir = match kind {
        ClassifierKind::Perceptron => perceptron_direction(pos, neg),
        ClassifierKind::Svm => svm_direction(pos, neg, seed),
    };
    let dir = normalize_gcd(dir);
    if dir.iter().all(BigInt::is_zero) {
        None
    } else {
        Some(dir)
    }
}

/// Exact integer pocket perceptron; returns the weight vector with the
/// fewest training mistakes seen.
fn perceptron_direction(pos: &[Sample], neg: &[Sample]) -> Vec<BigInt> {
    let dim = pos.first().or_else(|| neg.first()).map_or(0, Vec::len);
    let mut w = vec![BigInt::zero(); dim];
    let mut b = BigInt::zero();
    let mut best_w = w.clone();
    let mut best_errors = usize::MAX;
    let max_epochs = 64usize;
    for _ in 0..max_epochs {
        let mut mistakes = 0usize;
        for (label_pos, s) in pos
            .iter()
            .map(|s| (true, s))
            .chain(neg.iter().map(|s| (false, s)))
        {
            let score: BigInt = w
                .iter()
                .zip(s.iter())
                .map(|(wi, xi)| wi * xi)
                .sum::<BigInt>()
                + b.clone();
            let ok = if label_pos { score.is_positive() } else { score.is_negative() };
            if !ok {
                mistakes += 1;
                if label_pos {
                    for (wi, xi) in w.iter_mut().zip(s.iter()) {
                        *wi = &*wi + xi;
                    }
                    b = &b + &BigInt::one();
                } else {
                    for (wi, xi) in w.iter_mut().zip(s.iter()) {
                        *wi = &*wi - xi;
                    }
                    b = &b - &BigInt::one();
                }
            }
        }
        if mistakes < best_errors && w.iter().any(|c| !c.is_zero()) {
            best_errors = mistakes;
            best_w = w.clone();
        }
        if mistakes == 0 {
            break;
        }
    }
    best_w
}

/// Pegasos-style soft-margin SVM in `f64`; returns a rationalized
/// integer direction. The walk always runs the full iteration budget:
/// early averaged iterates hug the samples, and their rationalizations
/// send CEGAR down trajectories that stop converging (`jm2006`).
fn svm_direction(pos: &[Sample], neg: &[Sample], seed: u64) -> Vec<BigInt> {
    use linarb_trace::Level;
    let mut span = linarb_trace::span(Level::Trace, "ml", "ml.svm");
    let dim = pos.first().or_else(|| neg.first()).map_or(0, Vec::len);
    let n = pos.len() + neg.len();
    let lambda = 1.0 / (SVM_C * n as f64).max(1e-9);
    let mut w = vec![0.0f64; dim];
    let mut b = 0.0f64;
    let mut avg_w = vec![0.0f64; dim];
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let data: Vec<(f64, Vec<f64>)> = pos
        .iter()
        .map(|s| (1.0, s.iter().map(BigInt::to_f64).collect()))
        .chain(neg.iter().map(|s| (-1.0, s.iter().map(BigInt::to_f64).collect())))
        .collect();
    for t in 1..=SVM_ITERS {
        let (y, x) = &data[rng.gen_range(0..n)];
        let eta = 1.0 / (lambda * t as f64);
        let margin = y * (dot(&w, x) + b);
        for wi in w.iter_mut() {
            *wi *= 1.0 - eta * lambda;
        }
        if margin < 1.0 {
            for (wi, xi) in w.iter_mut().zip(x.iter()) {
                *wi += eta * y * xi;
            }
            b += eta * y;
        }
        for (a, wi) in avg_w.iter_mut().zip(w.iter()) {
            *a += wi;
        }
    }
    let scale = 1.0 / SVM_ITERS as f64;
    for a in avg_w.iter_mut() {
        *a *= scale;
    }
    if span.active() {
        span.record("iters", SVM_ITERS);
    }
    let _rs = linarb_trace::span(Level::Trace, "ml", "ml.rationalize");
    rationalize(&avg_w)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Converts an `f64` direction into small integer coefficients:
/// components are scaled relative to the largest magnitude, snapped to
/// rationals with denominator ≤ 12 by continued fractions, and
/// multiplied out to integers.
pub fn rationalize(w: &[f64]) -> Vec<BigInt> {
    const MAX_DEN: i64 = 6;
    let max = w.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    if max <= 1e-12 || !max.is_finite() {
        return vec![BigInt::zero(); w.len()];
    }
    // Snap each scaled component to p/q with q <= MAX_DEN.
    let fracs: Vec<(i64, i64)> = w
        .iter()
        .map(|&x| approx_fraction(x / max, MAX_DEN))
        .collect();
    let lcm = fracs
        .iter()
        .fold(1i64, |l, &(_, q)| num_lcm(l, q.max(1)));
    fracs
        .iter()
        .map(|&(p, q)| BigInt::from(p * (lcm / q.max(1))))
        .collect()
}

fn num_lcm(a: i64, b: i64) -> i64 {
    fn gcd(mut a: i64, mut b: i64) -> i64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a.abs().max(1)
    }
    (a / gcd(a, b)) * b
}

/// Best rational approximation `p/q` of `x` with `q ≤ max_den`
/// (continued-fraction convergents; values snapped to 0 below 1/(2·max_den)).
fn approx_fraction(x: f64, max_den: i64) -> (i64, i64) {
    if x.abs() < 1.0 / (2.0 * max_den as f64) {
        return (0, 1);
    }
    let neg = x < 0.0;
    let mut x = x.abs();
    let (mut p0, mut q0, mut p1, mut q1) = (0i64, 1i64, 1i64, 0i64);
    for _ in 0..24 {
        let a = x.floor() as i64;
        let (p2, q2) = (a * p1 + p0, a * q1 + q0);
        if q2 > max_den {
            break;
        }
        p0 = p1;
        q0 = q1;
        p1 = p2;
        q1 = q2;
        let frac = x - a as f64;
        if frac < 1e-9 {
            break;
        }
        x = 1.0 / frac;
    }
    if q1 == 0 {
        return (0, 1);
    }
    (if neg { -p1 } else { p1 }, q1)
}

fn normalize_gcd(mut w: Vec<BigInt>) -> Vec<BigInt> {
    let g = w.iter().fold(BigInt::zero(), |g, c| BigInt::gcd(&g, c));
    if g.is_zero() || g.is_one() {
        return w;
    }
    for c in &mut w {
        *c = &*c / &g;
    }
    w
}

/// Given an integer direction, chooses the orientation and integer
/// threshold that best separate the samples, by exact projection.
///
/// The returned hyperplane maximizes classification accuracy over all
/// integer thresholds (midpoints of adjacent projections); ties prefer
/// wider margins. Returns `None` only for the zero direction.
pub fn refit_intercept(dir: &[BigInt], pos: &[Sample], neg: &[Sample]) -> Option<Hyperplane> {
    refit_intercept_scored(dir, pos, neg).map(|(h, _, _)| h)
}

/// [`refit_intercept`] that also reports `(errors, pos_errors)` of the
/// chosen hyperplane on the training data, so callers (the symbolic
/// seed fast path) can rank candidate directions without re-scanning.
///
/// Implementation: projections are computed once and sorted; a single
/// sweep over the distinct values evaluates every candidate threshold
/// in both orientations with running counts — O(n log n) total,
/// replacing the former O(candidates × samples) rescan with its
/// per-candidate `BigInt` clones. The candidate enumeration order (and
/// therefore every tie-break) matches the old exhaustive scan: an
/// ascending pass per orientation, un-flipped first, strict
/// improvement only.
pub(crate) fn refit_intercept_scored(
    dir: &[BigInt],
    pos: &[Sample],
    neg: &[Sample],
) -> Option<(Hyperplane, usize, usize)> {
    if dir.iter().all(BigInt::is_zero) {
        return None;
    }
    let h = Hyperplane { weights: dir.to_vec(), threshold: BigInt::zero() };
    let mut proj: Vec<(BigInt, bool)> = pos
        .iter()
        .map(|s| (h.project(s), true))
        .chain(neg.iter().map(|s| (h.project(s), false)))
        .collect();
    if proj.is_empty() {
        return None;
    }
    proj.sort_by(|a, b| a.0.cmp(&b.0));
    let pos_total = pos.len();
    let neg_total = neg.len();
    // Distinct candidate thresholds, ascending: the minimum projection
    // v₀ (everything classified "≥"), then v+1 after each distinct
    // value v. `*_below` counts entries with projection < candidate.
    // Un-flipped predicts true iff proj ≥ c; flipped (threshold
    // −c + 1 on negated weights) predicts true iff proj < c.
    let mut best_n: Option<(usize, usize, BigInt)> = None; // errors, pos_errors, threshold
    let mut best_f: Option<(usize, usize, BigInt)> = None;
    let mut consider = |pos_below: usize, neg_below: usize, c: &BigInt, plus_one: bool| {
        let thr = if plus_one { c + &BigInt::one() } else { c.clone() };
        let err_n = pos_below + (neg_total - neg_below);
        if best_n.as_ref().map_or(true, |(e, _, _)| err_n < *e) {
            best_n = Some((err_n, pos_below, thr.clone()));
        }
        let err_f = (pos_total - pos_below) + neg_below;
        if best_f.as_ref().map_or(true, |(e, _, _)| err_f < *e) {
            best_f = Some((err_f, pos_total - pos_below, -&thr + &BigInt::one()));
        }
    };
    consider(0, 0, &proj[0].0, false);
    let (mut pb, mut nb) = (0usize, 0usize);
    let mut i = 0;
    while i < proj.len() {
        let mut j = i;
        while j < proj.len() && proj[j].0 == proj[i].0 {
            if proj[j].1 {
                pb += 1;
            } else {
                nb += 1;
            }
            j += 1;
        }
        consider(pb, nb, &proj[i].0, true);
        i = j;
    }
    let (en, pn, tn) = best_n.expect("non-empty projections");
    let (ef, pf, tf) = best_f.expect("non-empty projections");
    let (errors, pos_errors, threshold, flipped) =
        if ef < en { (ef, pf, tf, true) } else { (en, pn, tn, false) };
    let weights = if flipped { dir.iter().map(|c| -c).collect() } else { dir.to_vec() };
    Some((Hyperplane { weights, threshold }, errors, pos_errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;

    fn s(coords: &[i64]) -> Sample {
        coords.iter().map(|&c| int(c)).collect()
    }

    fn sep_perfectly(h: &Hyperplane, pos: &[Sample], neg: &[Sample]) -> bool {
        pos.iter().all(|p| h.predict(p)) && neg.iter().all(|n| !h.predict(n))
    }

    #[test]
    fn perceptron_separable_1d() {
        let pos = vec![s(&[3]), s(&[4]), s(&[10])];
        let neg = vec![s(&[0]), s(&[-5]), s(&[2])];
        let h = linear_classify(
            ClassifierKind::Perceptron,
            &pos,
            &neg,
            7,
        )
        .expect("separable");
        assert!(sep_perfectly(&h, &pos, &neg), "{h:?}");
    }

    #[test]
    fn svm_separable_2d_diagonal() {
        // positives above x + y = 3, negatives below
        let pos = vec![s(&[2, 2]), s(&[3, 1]), s(&[0, 4]), s(&[5, 5])];
        let neg = vec![s(&[0, 0]), s(&[1, 1]), s(&[2, 0]), s(&[-3, 2])];
        let h = linear_classify(ClassifierKind::Svm, &pos, &neg, 7)
            .expect("separable");
        assert!(sep_perfectly(&h, &pos, &neg), "{h:?}");
    }

    #[test]
    fn perceptron_2d_paper_shape() {
        // Fig. 6(i)-like: positives on the y-axis segment, negatives at
        // (3,-3) and (-3,3). Not all separable, but the classifier must
        // still return *some* hyperplane making progress.
        let pos = vec![s(&[0, -2]), s(&[0, -1]), s(&[0, 0]), s(&[0, 1])];
        let neg = vec![s(&[3, -3]), s(&[-3, 3])];
        let h = linear_classify(
            ClassifierKind::Perceptron,
            &pos,
            &neg,
            7,
        )
        .expect("must return something");
        // progress: at least one sample class partially correct
        let pos_ok = pos.iter().filter(|p| h.predict(p)).count();
        let neg_ok = neg.iter().filter(|n| !h.predict(n)).count();
        assert!(pos_ok + neg_ok > 0);
    }

    #[test]
    fn rationalize_simple_directions() {
        assert_eq!(rationalize(&[1.0, 1.0]), vec![int(1), int(1)]);
        assert_eq!(rationalize(&[2.0, -2.0]), vec![int(1), int(-1)]);
        assert_eq!(rationalize(&[0.5, 1.0]), vec![int(1), int(2)]);
        assert_eq!(rationalize(&[0.0, 0.0]), vec![int(0), int(0)]);
        // near-thirds snap
        let r = rationalize(&[0.3333333, 1.0]);
        assert_eq!(r, vec![int(1), int(3)]);
    }

    #[test]
    fn rationalize_drops_noise() {
        let r = rationalize(&[1.0, 1e-9]);
        assert_eq!(r, vec![int(1), int(0)]);
    }

    #[test]
    fn refit_threshold_maximizes_accuracy() {
        // direction (1, 0): pos at x>=5, neg at x<=1
        let pos = vec![s(&[5, 9]), s(&[7, -2])];
        let neg = vec![s(&[1, 3]), s(&[0, 0])];
        let h = refit_intercept(&[int(1), int(0)], &pos, &neg).unwrap();
        assert!(sep_perfectly(&h, &pos, &neg));
        assert!(h.threshold >= int(2) && h.threshold <= int(5));
    }

    #[test]
    fn refit_flips_orientation() {
        // direction (1,0) but positives on the SMALL side
        let pos = vec![s(&[0, 1]), s(&[1, 0])];
        let neg = vec![s(&[8, 2]), s(&[9, 3])];
        let h = refit_intercept(&[int(1), int(0)], &pos, &neg).unwrap();
        assert!(sep_perfectly(&h, &pos, &neg), "{h:?}");
        assert_eq!(h.weights[0], int(-1));
    }

    #[test]
    fn dummy_fallback_two_points() {
        // Identical direction impossible: symmetric data forces the
        // fallback path; it must still separate the two-point core.
        let pos = vec![s(&[1, 1])];
        let neg = vec![s(&[-1, -1])];
        let h = linear_classify(ClassifierKind::Svm, &pos, &neg, 3)
            .expect("two distinct points are separable");
        assert!(sep_perfectly(&h, &pos, &neg));
    }

    #[test]
    fn empty_classes_return_none() {
        assert!(linear_classify(
            ClassifierKind::Svm,
            &[],
            &[s(&[1])],
            0
        )
        .is_none());
        assert!(linear_classify(
            ClassifierKind::Perceptron,
            &[s(&[1])],
            &[],
            0
        )
        .is_none());
    }

    #[test]
    fn identical_point_both_classes_returns_none_or_imperfect() {
        let p = vec![s(&[2, 2])];
        let n = vec![s(&[2, 2])];
        if let Some(h) = linear_classify(ClassifierKind::Svm, &p, &n, 0) {
            // cannot separate identical points
            assert!(!sep_perfectly(&h, &p, &n));
        }
    }
}

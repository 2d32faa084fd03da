//! Order statistics and the parent-versus-change comparison rules.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `values`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (such a percentile is
/// decided by a handful of samples and is not reported).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    if v.is_empty() || v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// The median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads here match the ones a Python script reports.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        // Signed after the clamp: small samples extrapolate.
        let delta = m as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The outcome of comparing one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9 pairs in 10 and the medians differ by
    /// more than the parent's interquartile range.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The parent's own spread is wider than the bound, so a regression
    /// of the bound's size could not be seen.
    Unresolved,
    /// No claim either way: within the bound.
    WithinBound,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within bound",
        }
    }
}

/// One compared row.
#[derive(Clone, Debug)]
pub struct Row {
    pub parent_median: f64,
    pub parent_quartiles: (f64, f64),
    pub change_median: f64,
    pub change_quartiles: (f64, f64),
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    pub pairs: usize,
    /// Relative worsening of the median (negative = better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Compares paired runs: `parent[i]` and `change[i]` form pair `i`.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Row {
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| better.is_better(change[i], parent[i]))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let (pq, cq) = (quartiles(parent), quartiles(change));
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm.abs(),
        Better::Higher => (pm - cm) / pm.abs(),
    };
    let parent_iqr = pq.1 - pq.0;
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.is_better(c, p)));
    let verdict = if wins * 10 >= pairs * 9 && (cm - pm).abs() > parent_iqr && worse_by < 0.0 {
        Verdict::Improved
    } else if spread(parent) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    Row {
        parent_median: pm,
        parent_quartiles: pq,
        change_median: cm,
        change_quartiles: cq,
        wins,
        pairs,
        worse_by,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]), (1.0, 5.0));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 91.0), None);
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&few, 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 5)).collect()
    }

    #[test]
    fn compare_verdicts() {
        let parent = runs(100.0, 1.0);
        // Clearly faster on every pair.
        let row = compare(&parent, &runs(80.0, 1.0), Better::Lower, 0.1);
        assert_eq!((row.verdict, row.wins), (Verdict::Improved, 10));
        // 20% slower against a 10% bound.
        assert_eq!(
            compare(&parent, &runs(120.0, 1.0), Better::Lower, 0.1).verdict,
            Verdict::Regressed
        );
        // 5% slower against a 10% bound.
        assert_eq!(
            compare(&parent, &runs(105.0, 1.0), Better::Lower, 0.1).verdict,
            Verdict::WithinBound
        );
        // The parent's own spread (~4%) exceeds a 1% bound.
        assert_eq!(
            compare(&parent, &runs(103.0, 1.0), Better::Lower, 0.01).verdict,
            Verdict::Unresolved
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            compare(&parent, &runs(80.0, 1.0), Better::Higher, 0.1).verdict,
            Verdict::Regressed
        );
        // Winning 8 pairs of 10 is no claim.
        let mut change = runs(95.0, 1.0);
        change[0] = 200.0;
        change[1] = 200.0;
        assert_eq!(
            compare(&parent, &change, Better::Lower, 0.1).verdict,
            Verdict::WithinBound
        );
    }
}

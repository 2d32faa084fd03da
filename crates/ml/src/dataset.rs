//! Labeled sample sets.

use linarb_arith::BigInt;
use std::collections::HashSet;
use std::fmt;

/// A concrete data point: one integer per predicate argument.
pub type Sample = Vec<BigInt>;

/// Positive and negative samples of one unknown predicate.
///
/// Invariants: all samples share the dataset's dimension; duplicates
/// within a class are dropped. Whether some point carries both labels
/// is tracked as samples are inserted, so the consistency check every
/// learn call starts with costs no scan.
///
/// ```
/// use linarb_arith::int;
/// use linarb_ml::Dataset;
/// let mut d = Dataset::new(2);
/// d.add_positive(vec![int(1), int(0)]);
/// d.add_negative(vec![int(0), int(5)]);
/// assert_eq!((d.num_positive(), d.num_negative()), (1, 1));
/// assert!(d.is_consistent());
/// ```
#[derive(Clone, Default)]
pub struct Dataset {
    dim: usize,
    pos: Vec<Sample>,
    neg: Vec<Sample>,
    pos_set: HashSet<Sample>,
    neg_set: HashSet<Sample>,
    /// Index in `pos` of the first positive that is also negative.
    contradiction: Option<usize>,
}

impl Dataset {
    /// Creates an empty dataset of the given dimension.
    pub fn new(dim: usize) -> Dataset {
        Dataset { dim, ..Dataset::default() }
    }

    /// The number of coordinates per sample.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds a positive sample; returns `false` if it was already
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if the sample dimension does not match.
    pub fn add_positive(&mut self, s: Sample) -> bool {
        assert_eq!(s.len(), self.dim, "sample dimension mismatch");
        if !self.pos_set.insert(s.clone()) {
            return false;
        }
        if self.contradiction.is_none() && self.neg_set.contains(&s) {
            self.contradiction = Some(self.pos.len());
        }
        self.pos.push(s);
        true
    }

    /// Adds a negative sample; returns `false` if it was already
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if the sample dimension does not match.
    pub fn add_negative(&mut self, s: Sample) -> bool {
        assert_eq!(s.len(), self.dim, "sample dimension mismatch");
        if !self.neg_set.insert(s.clone()) {
            return false;
        }
        if self.pos_set.contains(&s) {
            // Rare (the CEGAR loop never makes one), so a scan finds
            // the positive's index.
            let i = self.pos.iter().position(|p| *p == s).expect("in pos_set");
            self.contradiction = Some(self.contradiction.map_or(i, |c| c.min(i)));
        }
        self.neg.push(s);
        true
    }

    /// Removes every negative sample (the paper's head-weakening step
    /// clears `s⁻(h)`).
    pub fn clear_negatives(&mut self) {
        self.neg.clear();
        self.neg_set.clear();
        self.contradiction = None;
    }

    /// The positive samples, in insertion order.
    pub fn positives(&self) -> &[Sample] {
        &self.pos
    }

    /// The negative samples, in insertion order.
    pub fn negatives(&self) -> &[Sample] {
        &self.neg
    }

    /// Number of positive samples.
    pub fn num_positive(&self) -> usize {
        self.pos.len()
    }

    /// Number of negative samples.
    pub fn num_negative(&self) -> usize {
        self.neg.len()
    }

    /// Total number of samples (the paper's `#S`).
    pub fn len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// Returns `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }

    /// Membership test for the positive class.
    pub fn contains_positive(&self, s: &Sample) -> bool {
        self.pos_set.contains(s)
    }

    /// Returns `true` iff no sample is labeled both positive and
    /// negative.
    pub fn is_consistent(&self) -> bool {
        self.first_contradiction().is_none()
    }

    /// The first positive sample, in insertion order, that is also
    /// labeled negative, if any.
    pub fn first_contradiction(&self) -> Option<&Sample> {
        self.contradiction.map(|i| &self.pos[i])
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dataset(dim={}, +{}, -{})", self.dim, self.pos.len(), self.neg.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;

    fn s(a: i64, b: i64) -> Sample {
        vec![int(a), int(b)]
    }

    #[test]
    fn dedup_within_class() {
        let mut d = Dataset::new(2);
        assert!(d.add_positive(s(1, 2)));
        assert!(!d.add_positive(s(1, 2)));
        assert_eq!(d.num_positive(), 1);
    }

    #[test]
    fn contradiction_detection() {
        let mut d = Dataset::new(2);
        d.add_positive(s(0, 0));
        d.add_positive(s(1, 1));
        d.add_positive(s(2, 2));
        assert!(d.is_consistent());
        // Appears when a negative repeats a positive…
        d.add_negative(s(2, 2));
        assert!(!d.is_consistent());
        assert_eq!(d.first_contradiction(), Some(&s(2, 2)));
        // …names the earliest such positive, whichever label came last…
        d.add_negative(s(0, 0));
        assert_eq!(d.first_contradiction(), Some(&s(0, 0)));
        d.add_negative(s(1, 1));
        assert_eq!(d.first_contradiction(), Some(&s(0, 0)));
        // …and is cleared with the negatives.
        d.clear_negatives();
        assert!(d.is_consistent());
        assert_eq!(d.first_contradiction(), None);
        // A positive that repeats an earlier negative counts too.
        d.add_negative(s(7, 7));
        d.add_negative(s(1, 1));
        assert_eq!(d.first_contradiction(), Some(&s(1, 1)));
        d.add_positive(s(7, 7));
        assert_eq!(d.first_contradiction(), Some(&s(1, 1)));
        d.clear_negatives();
        d.add_negative(s(9, 9));
        d.add_positive(s(9, 9));
        assert_eq!(d.first_contradiction(), Some(&s(9, 9)));
    }

    #[test]
    fn clear_negatives() {
        let mut d = Dataset::new(1);
        d.add_negative(vec![int(3)]);
        d.add_negative(vec![int(4)]);
        assert_eq!(d.num_negative(), 2);
        d.clear_negatives();
        assert_eq!(d.num_negative(), 0);
        // re-adding after clear works
        assert!(d.add_negative(vec![int(3)]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_checked() {
        let mut d = Dataset::new(2);
        d.add_positive(vec![int(1)]);
    }
}

//! The sample table one learn call shares between its layers.
//!
//! Rows are the call's samples, positives first and then negatives,
//! each addressed by a `u32` index. Every recursion level of
//! `LinearArbitrary` and every decision-tree node works on index
//! subsets of these rows, so no layer copies a sample.
//!
//! Columns hold feature values: the projection `w·x` of every row for a
//! linear direction `w`, or `x_d mod k` for a `mod` feature, kept as
//! each row's rank among the column's sorted distinct values. A column
//! and its rows' ascending order are computed the first time any layer
//! asks for them and never again in the same call: the seed scoring at
//! every recursion level, the intercept refit, the partition that
//! follows it and the decision tree all read the same columns, and
//! threshold tests compare ranks. A direction and its negation share
//! one column, stored for the sign-canonical direction (first non-zero
//! coefficient positive); a [`Col`] records which of the two the caller
//! asked for.

use crate::dataset::Sample;
use crate::dtree::Feature;
use linarb_arith::BigInt;
use std::collections::HashMap;

/// A column as one caller sees it: the stored column, read negated when
/// `neg` is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Col {
    id: usize,
    neg: bool,
}

impl Col {
    /// The same column read with the opposite sign.
    pub(crate) fn negated(self) -> Col {
        Col { neg: !self.neg, ..self }
    }
}

struct Column {
    /// The column's distinct values, ascending.
    distinct: Vec<BigInt>,
    /// Each row's value, as an index into `distinct`.
    rank: Vec<u32>,
    /// Row indices in ascending order of value.
    order: Vec<u32>,
}

impl Column {
    /// The column of `vals` (one per row); `big` converts a value.
    fn ranked<T: Ord>(vals: Vec<T>, big: impl Fn(T) -> BigInt) -> Column {
        let mut keyed: Vec<(T, u32)> = vals.into_iter().zip(0..).collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut distinct: Vec<T> = Vec::new();
        let mut rank = vec![0u32; keyed.len()];
        let mut order = Vec::with_capacity(keyed.len());
        for (v, i) in keyed {
            if distinct.last() != Some(&v) {
                distinct.push(v);
            }
            rank[i as usize] = distinct.len() as u32 - 1;
            order.push(i);
        }
        Column { distinct: distinct.into_iter().map(big).collect(), rank, order }
    }
}

/// The rows and lazily computed columns of one learn call.
pub(crate) struct Table<'a> {
    rows: Vec<&'a Sample>,
    n_pos: usize,
    dim: usize,
    cols: Vec<Column>,
    index: HashMap<Feature, usize>,
    /// The rows as `f64`, row-major; filled on the SVM's first call.
    floats: Vec<f64>,
    /// Marks the rows of the current sweep; all clear between sweeps.
    member: Vec<bool>,
}

impl<'a> Table<'a> {
    /// A table over `pos` followed by `neg`, samples of dimension `dim`.
    pub(crate) fn new(dim: usize, pos: &'a [Sample], neg: &'a [Sample]) -> Table<'a> {
        let rows: Vec<&Sample> = pos.iter().chain(neg).collect();
        Table {
            member: vec![false; rows.len()],
            rows,
            n_pos: pos.len(),
            dim,
            cols: Vec::new(),
            index: HashMap::new(),
            floats: Vec::new(),
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Coordinates per sample.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Number of positive rows; rows `0..n_pos()` are the positives.
    pub(crate) fn n_pos(&self) -> usize {
        self.n_pos
    }

    /// The sample of row `i`.
    pub(crate) fn row(&self, i: u32) -> &'a Sample {
        self.rows[i as usize]
    }

    /// The index lists of all positive and all negative rows.
    pub(crate) fn classes(&self) -> (Vec<u32>, Vec<u32>) {
        let n_pos = self.n_pos as u32;
        ((0..n_pos).collect(), (n_pos..self.rows.len() as u32).collect())
    }

    /// Every row's coordinates as `f64`, row-major (`dim()` per row).
    pub(crate) fn floats(&mut self) -> &[f64] {
        if self.floats.is_empty() {
            self.floats = self.rows.iter().flat_map(|s| s.iter().map(BigInt::to_f64)).collect();
        }
        &self.floats
    }

    /// The projection column of direction `dir`.
    pub(crate) fn linear(&mut self, dir: &[BigInt]) -> Col {
        let neg = dir.iter().find(|c| !c.is_zero()).is_some_and(BigInt::is_negative);
        let key = if neg { dir.iter().map(|c| -c).collect() } else { dir.to_vec() };
        Col { id: self.column(Feature::Linear(key)), neg }
    }

    /// The column of a decision-tree feature.
    pub(crate) fn feature(&mut self, f: &Feature) -> Col {
        match f {
            Feature::Linear(w) => self.linear(w),
            Feature::Mod { .. } => Col { id: self.column(f.clone()), neg: false },
        }
    }

    fn column(&mut self, key: Feature) -> usize {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let small: Option<Vec<i128>> = self.rows.iter().map(|s| key.eval_i128(s)).collect();
        let col = match small {
            Some(vals) => Column::ranked(vals, BigInt::from),
            None => Column::ranked(self.rows.iter().map(|s| key.eval(s)).collect(), |v| v),
        };
        let id = self.cols.len();
        self.cols.push(col);
        self.index.insert(key, id);
        id
    }

    /// The value of row `i` in column `c`.
    pub(crate) fn value(&self, c: Col, i: u32) -> BigInt {
        let col = &self.cols[c.id];
        let v = &col.distinct[col.rank[i as usize] as usize];
        if c.neg {
            -v
        } else {
            v.clone()
        }
    }

    /// The test `value ≥ t` on column `c`.
    pub(crate) fn at_least(&self, c: Col, t: &BigInt) -> Cut<'_> {
        let col = &self.cols[c.id];
        // As ranks: `v ≥ t` holds from the first distinct value ≥ t on;
        // `−v ≥ t`, i.e. `v ≤ −t`, below the first distinct value > −t.
        if c.neg {
            let t = -t;
            let bound = col.distinct.partition_point(|d| *d <= t) as u32;
            Cut { rank: &col.rank, bound, below: true }
        } else {
            let bound = col.distinct.partition_point(|d| d < t) as u32;
            Cut { rank: &col.rank, bound, below: false }
        }
    }

    /// The test `value ≤ t` on column `c`.
    pub(crate) fn at_most(&self, c: Col, t: &BigInt) -> Cut<'_> {
        self.at_least(c.negated(), &-t)
    }

    /// Visits the rows of `sets` in ascending order of their value in
    /// column `c`, as `visit(row, starts_group)`: `starts_group` is set
    /// on the first row of each run of equal values. Rows within a run
    /// come in no particular order. The walk follows the column's order
    /// over all rows and skips those outside `sets`.
    pub(crate) fn sweep(&mut self, c: Col, sets: &[&[u32]], mut visit: impl FnMut(u32, bool)) {
        let col = &self.cols[c.id];
        let members = || sets.iter().copied().flatten().map(|&i| i as usize);
        for i in members() {
            self.member[i] = true;
        }
        let member = &self.member;
        let rows = col.order.iter().copied().filter(|&i| member[i as usize]);
        let mut prev = None;
        let step = |i: u32| {
            let r = Some(col.rank[i as usize]);
            visit(i, prev != r);
            prev = r;
        };
        if c.neg {
            rows.rev().for_each(step);
        } else {
            rows.for_each(step);
        }
        for i in members() {
            self.member[i] = false;
        }
    }
}

/// A threshold test on one column, as a bound on the rows' ranks with
/// the column's sign folded in.
pub(crate) struct Cut<'t> {
    rank: &'t [u32],
    bound: u32,
    below: bool,
}

impl Cut<'_> {
    /// Whether row `i` passes the test.
    pub(crate) fn holds(&self, i: u32) -> bool {
        let r = self.rank[i as usize];
        if self.below {
            r < self.bound
        } else {
            r >= self.bound
        }
    }
}

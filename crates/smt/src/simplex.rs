//! Exact general simplex with variable bounds (Dutertre–de Moura).
//!
//! This is the linear-rational-arithmetic engine under the LIA theory
//! solver. Variables are abstract column indices; constraints enter as
//! *bounds* on variables (structural variables or slack variables that
//! stand for linear rows). Infeasibility produces a Farkas certificate
//! naming the bounds involved with positive rational multipliers.
//!
//! Pivot selection follows Bland's rule (smallest index first), which
//! guarantees termination.

use linarb_arith::BigRational;
use std::collections::BTreeMap;

/// Column index of a simplex variable.
pub type ColId = usize;

/// Opaque caller tag identifying the origin of a bound (e.g. the index
/// of an asserted atom). Used to report conflicts/cores.
pub type Tag = usize;

/// Which side of a variable a certificate entry refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundKind {
    /// `x ≤ u`
    Upper,
    /// `x ≥ l`
    Lower,
}

/// One entry of a Farkas infeasibility certificate: `multiplier ×` the
/// bound registered under `tag`.
#[derive(Clone, Debug)]
pub struct FarkasEntry {
    /// Positive rational multiplier.
    pub multiplier: BigRational,
    /// Caller tag of the offending bound.
    pub tag: Tag,
    /// Which side of the bound is involved.
    pub kind: BoundKind,
}

/// An infeasibility certificate: a positive combination of the listed
/// bounds is contradictory (sums to `0 ≤ negative`).
#[derive(Clone, Debug)]
pub struct Conflict {
    /// The certificate entries.
    pub entries: Vec<FarkasEntry>,
}

impl Conflict {
    /// The distinct tags involved (the unsat core).
    pub fn core(&self) -> Vec<Tag> {
        let mut tags: Vec<Tag> = self.entries.iter().map(|e| e.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }
}

#[derive(Clone, Debug)]
struct Row {
    basic: ColId,
    /// `basic = Σ coeff · nonbasic`
    coeffs: BTreeMap<ColId, BigRational>,
}

#[derive(Clone, Debug, Default)]
struct Bound {
    value: Option<(BigRational, Tag)>,
}

/// One undo record on the bound trail: the previous value of a bound
/// that [`assert_upper`](Simplex::assert_upper)/
/// [`assert_lower`](Simplex::assert_lower) overwrote.
#[derive(Clone, Debug)]
struct TrailEntry {
    col: ColId,
    kind: BoundKind,
    prev: Option<(BigRational, Tag)>,
}

/// The simplex tableau. Cloneable so branch-and-bound can fork states.
///
/// ```
/// use linarb_arith::{rat, BigRational};
/// use linarb_smt::simplex::Simplex;
///
/// let mut s = Simplex::new();
/// let x = s.new_col();
/// let y = s.new_col();
/// // s1 = x + y
/// let s1 = s.new_slack(&[(x, rat(1, 1)), (y, rat(1, 1))]);
/// s.assert_lower(s1, rat(4, 1), 0).unwrap();
/// s.assert_upper(x, rat(1, 1), 1).unwrap();
/// s.check(10_000).unwrap();
/// assert!(&s.value(x) + &s.value(y) >= rat(4, 1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Simplex {
    rows: Vec<Row>,
    /// col -> row index if basic
    basic_row: Vec<Option<usize>>,
    lower: Vec<Bound>,
    upper: Vec<Bound>,
    beta: Vec<BigRational>,
    pivots: u64,
    /// Undo records for bound overwrites since the first backtrack
    /// point. Recording only starts once a caller takes a point, so
    /// backtrack-free use (e.g. branch-and-bound clones) pays nothing.
    trail: Vec<TrailEntry>,
    recording: bool,
}

impl Simplex {
    /// Creates an empty tableau.
    pub fn new() -> Simplex {
        Simplex::default()
    }

    /// Creates a fresh unbounded column (a structural variable).
    pub fn new_col(&mut self) -> ColId {
        let id = self.beta.len();
        self.beta.push(BigRational::zero());
        self.lower.push(Bound::default());
        self.upper.push(Bound::default());
        self.basic_row.push(None);
        id
    }

    /// Creates a slack column defined as the linear combination
    /// `Σ coeff·col` of existing columns, and makes it basic.
    pub fn new_slack(&mut self, combo: &[(ColId, BigRational)]) -> ColId {
        let s = self.new_col();
        let mut coeffs: BTreeMap<ColId, BigRational> = BTreeMap::new();
        for (col, c) in combo {
            if c.is_zero() {
                continue;
            }
            match self.basic_row[*col] {
                None => {
                    add_coeff(&mut coeffs, *col, c.clone());
                }
                Some(r) => {
                    for (v, cv) in &self.rows[r].coeffs {
                        add_coeff(&mut coeffs, *v, c * cv);
                    }
                }
            }
        }
        let beta: BigRational = coeffs
            .iter()
            .map(|(v, c)| c * &self.beta[*v])
            .sum();
        self.beta[s] = beta;
        self.basic_row[s] = Some(self.rows.len());
        self.rows.push(Row { basic: s, coeffs });
        s
    }

    /// Current value of a column (meaningful after a successful
    /// [`check`](Self::check)).
    pub fn value(&self, col: ColId) -> BigRational {
        self.beta[col].clone()
    }

    /// Total pivots performed (statistics).
    pub fn num_pivots(&self) -> u64 {
        self.pivots
    }

    /// Takes a backtrack point: the returned token restores the
    /// current bound set when passed to
    /// [`backtrack_to`](Self::backtrack_to). Also enables trail
    /// recording from here on.
    pub fn set_backtrack_point(&mut self) -> usize {
        self.recording = true;
        self.trail.len()
    }

    /// Undoes every bound assertion made since `point` (a token from
    /// [`set_backtrack_point`](Self::set_backtrack_point)), in reverse
    /// order.
    ///
    /// The basis and the assignment `beta` are deliberately *not*
    /// restored: tableau rows and the beta/row consistency invariant
    /// are bound-independent, so leaving them in place is sound and is
    /// exactly what makes the next [`check`](Self::check) a warm start
    /// — it resumes from the last feasible vertex instead of
    /// re-pivoting from scratch. Slack rows likewise persist; a slack
    /// whose bounds have all been retracted no longer constrains
    /// anything.
    pub fn backtrack_to(&mut self, point: usize) {
        while self.trail.len() > point {
            let e = self.trail.pop().expect("trail entry");
            match e.kind {
                BoundKind::Upper => self.upper[e.col].value = e.prev,
                BoundKind::Lower => self.lower[e.col].value = e.prev,
            }
        }
    }

    /// Asserts `col ≤ bound`. Tighter bounds replace looser ones.
    ///
    /// # Errors
    ///
    /// Returns a [`Conflict`] if the bound contradicts an existing
    /// lower bound.
    pub fn assert_upper(
        &mut self,
        col: ColId,
        bound: BigRational,
        tag: Tag,
    ) -> Result<(), Conflict> {
        if let Some((u, _)) = &self.upper[col].value {
            if *u <= bound {
                return Ok(());
            }
        }
        if let Some((l, ltag)) = &self.lower[col].value {
            if *l > bound {
                return Err(Conflict {
                    entries: vec![
                        FarkasEntry {
                            multiplier: BigRational::one(),
                            tag,
                            kind: BoundKind::Upper,
                        },
                        FarkasEntry {
                            multiplier: BigRational::one(),
                            tag: *ltag,
                            kind: BoundKind::Lower,
                        },
                    ],
                });
            }
        }
        if self.recording {
            self.trail.push(TrailEntry {
                col,
                kind: BoundKind::Upper,
                prev: self.upper[col].value.clone(),
            });
        }
        self.upper[col].value = Some((bound.clone(), tag));
        if self.basic_row[col].is_none() && self.beta[col] > bound {
            self.update_nonbasic(col, bound);
        }
        Ok(())
    }

    /// Asserts `col ≥ bound`. Tighter bounds replace looser ones.
    ///
    /// # Errors
    ///
    /// Returns a [`Conflict`] if the bound contradicts an existing
    /// upper bound.
    pub fn assert_lower(
        &mut self,
        col: ColId,
        bound: BigRational,
        tag: Tag,
    ) -> Result<(), Conflict> {
        if let Some((l, _)) = &self.lower[col].value {
            if *l >= bound {
                return Ok(());
            }
        }
        if let Some((u, utag)) = &self.upper[col].value {
            if *u < bound {
                return Err(Conflict {
                    entries: vec![
                        FarkasEntry {
                            multiplier: BigRational::one(),
                            tag,
                            kind: BoundKind::Lower,
                        },
                        FarkasEntry {
                            multiplier: BigRational::one(),
                            tag: *utag,
                            kind: BoundKind::Upper,
                        },
                    ],
                });
            }
        }
        if self.recording {
            self.trail.push(TrailEntry {
                col,
                kind: BoundKind::Lower,
                prev: self.lower[col].value.clone(),
            });
        }
        self.lower[col].value = Some((bound.clone(), tag));
        if self.basic_row[col].is_none() && self.beta[col] < bound {
            self.update_nonbasic(col, bound);
        }
        Ok(())
    }

    fn update_nonbasic(&mut self, col: ColId, v: BigRational) {
        let delta = &v - &self.beta[col];
        self.beta[col] = v;
        for row in &self.rows {
            if let Some(c) = row.coeffs.get(&col) {
                let b = row.basic;
                self.beta[b] = &self.beta[b] + &(c * &delta);
            }
        }
    }

    /// Restores bound-consistency by pivoting. On success every column
    /// respects its bounds; values are read via [`value`](Self::value).
    ///
    /// # Errors
    ///
    /// Returns a Farkas [`Conflict`] if the constraints are infeasible
    /// over the rationals, or a pseudo-conflict with an empty entry
    /// list if `max_pivots` is exceeded (callers treat it as unknown —
    /// with Bland's rule this cannot happen, but the guard keeps the
    /// engine total).
    pub fn check(&mut self, max_pivots: u64) -> Result<(), Conflict> {
        let start = self.pivots;
        loop {
            if self.pivots - start > max_pivots {
                return Err(Conflict { entries: Vec::new() });
            }
            // Bland: smallest basic variable violating its bounds.
            let mut violated: Option<(ColId, bool)> = None; // (col, below_lower)
            for row in &self.rows {
                let b = row.basic;
                if let Some((l, _)) = &self.lower[b].value {
                    if self.beta[b] < *l {
                        if violated.map_or(true, |(v, _)| b < v) {
                            violated = Some((b, true));
                        }
                        continue;
                    }
                }
                if let Some((u, _)) = &self.upper[b].value {
                    if self.beta[b] > *u {
                        if violated.map_or(true, |(v, _)| b < v) {
                            violated = Some((b, false));
                        }
                    }
                }
            }
            let (xi, below) = match violated {
                None => return Ok(()),
                Some(v) => v,
            };
            let row_idx = self.basic_row[xi].expect("violated var is basic");
            // Find entering variable (Bland: smallest col index).
            let mut enter: Option<ColId> = None;
            for (&xj, a) in &self.rows[row_idx].coeffs {
                let can_move = if below == a.is_positive() {
                    // increase xj (below & a>0) or (above & a<0 → still increase)
                    match &self.upper[xj].value {
                        Some((u, _)) => self.beta[xj] < *u,
                        None => true,
                    }
                } else {
                    match &self.lower[xj].value {
                        Some((l, _)) => self.beta[xj] > *l,
                        None => true,
                    }
                };
                if can_move {
                    enter = Some(xj);
                    break; // BTreeMap iterates in increasing col order
                }
            }
            let xj = match enter {
                Some(x) => x,
                None => {
                    // Infeasible: build the Farkas certificate from the row.
                    let mut entries = Vec::new();
                    let (own_kind, own_tag) = if below {
                        let (_, t) = self.lower[xi].value.as_ref().expect("violated");
                        (BoundKind::Lower, *t)
                    } else {
                        let (_, t) = self.upper[xi].value.as_ref().expect("violated");
                        (BoundKind::Upper, *t)
                    };
                    entries.push(FarkasEntry {
                        multiplier: BigRational::one(),
                        tag: own_tag,
                        kind: own_kind,
                    });
                    for (&v, a) in &self.rows[row_idx].coeffs {
                        // xi below lower: each a>0 var is at upper, a<0 at lower.
                        // xi above upper: mirrored.
                        let at_upper = below == a.is_positive();
                        let (kind, tag) = if at_upper {
                            let (_, t) =
                                self.upper[v].value.as_ref().expect("blocked at upper");
                            (BoundKind::Upper, *t)
                        } else {
                            let (_, t) =
                                self.lower[v].value.as_ref().expect("blocked at lower");
                            (BoundKind::Lower, *t)
                        };
                        entries.push(FarkasEntry { multiplier: a.abs(), tag, kind });
                    }
                    return Err(Conflict { entries });
                }
            };
            let target = if below {
                self.lower[xi].value.as_ref().expect("violated").0.clone()
            } else {
                self.upper[xi].value.as_ref().expect("violated").0.clone()
            };
            self.pivot_and_update(row_idx, xi, xj, target);
        }
    }

    fn pivot_and_update(&mut self, row_idx: usize, xi: ColId, xj: ColId, v: BigRational) {
        self.pivots += 1;
        let a = self.rows[row_idx].coeffs[&xj].clone();
        let theta = &(&v - &self.beta[xi]) / &a;
        self.beta[xi] = v;
        self.beta[xj] = &self.beta[xj] + &theta;
        for (k, row) in self.rows.iter().enumerate() {
            if k == row_idx {
                continue;
            }
            if let Some(c) = row.coeffs.get(&xj) {
                let b = row.basic;
                self.beta[b] = &self.beta[b] + &(c * &theta);
            }
        }
        // Rewrite pivot row: xi = Σ a_k x_k  with pivot var xj:
        //   xj = (1/a)·xi − Σ_{k≠j} (a_k/a)·x_k
        let mut old = std::mem::take(&mut self.rows[row_idx].coeffs);
        let aj = old.remove(&xj).expect("pivot coeff");
        debug_assert_eq!(aj, a);
        let inv = a.recip();
        let mut new_coeffs: BTreeMap<ColId, BigRational> = BTreeMap::new();
        new_coeffs.insert(xi, inv.clone());
        for (k, c) in &old {
            new_coeffs.insert(*k, -&(c * &inv));
        }
        self.rows[row_idx].basic = xj;
        self.rows[row_idx].coeffs = new_coeffs;
        self.basic_row[xj] = Some(row_idx);
        self.basic_row[xi] = None;
        // Substitute xj into all other rows.
        let pivot_coeffs = self.rows[row_idx].coeffs.clone();
        for k in 0..self.rows.len() {
            if k == row_idx {
                continue;
            }
            if let Some(c) = self.rows[k].coeffs.remove(&xj) {
                for (v2, cv) in &pivot_coeffs {
                    let add = &c * cv;
                    add_coeff(&mut self.rows[k].coeffs, *v2, add);
                }
            }
        }
    }
}

fn add_coeff(map: &mut BTreeMap<ColId, BigRational>, col: ColId, c: BigRational) {
    if c.is_zero() {
        return;
    }
    use std::collections::btree_map::Entry;
    match map.entry(col) {
        Entry::Vacant(e) => {
            e.insert(c);
        }
        Entry::Occupied(mut e) => {
            let sum = &*e.get() + &c;
            if sum.is_zero() {
                e.remove();
            } else {
                *e.get_mut() = sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::rat;

    const MAX: u64 = 100_000;

    #[test]
    fn feasible_box() {
        let mut s = Simplex::new();
        let x = s.new_col();
        let y = s.new_col();
        s.assert_lower(x, rat(1, 1), 0).unwrap();
        s.assert_upper(x, rat(3, 1), 1).unwrap();
        s.assert_lower(y, rat(-2, 1), 2).unwrap();
        s.assert_upper(y, rat(2, 1), 3).unwrap();
        s.check(MAX).unwrap();
        assert!(s.value(x) >= rat(1, 1) && s.value(x) <= rat(3, 1));
        assert!(s.value(y) >= rat(-2, 1) && s.value(y) <= rat(2, 1));
    }

    #[test]
    fn direct_bound_conflict() {
        let mut s = Simplex::new();
        let x = s.new_col();
        s.assert_lower(x, rat(5, 1), 7).unwrap();
        let err = s.assert_upper(x, rat(4, 1), 9).unwrap_err();
        let core = err.core();
        assert_eq!(core, vec![7, 9]);
    }

    #[test]
    fn row_propagation() {
        // x + y >= 4, x <= 1  ==>  y >= 3
        let mut s = Simplex::new();
        let x = s.new_col();
        let y = s.new_col();
        let sum = s.new_slack(&[(x, rat(1, 1)), (y, rat(1, 1))]);
        s.assert_lower(sum, rat(4, 1), 0).unwrap();
        s.assert_upper(x, rat(1, 1), 1).unwrap();
        s.check(MAX).unwrap();
        assert!(&s.value(x) + &s.value(y) >= rat(4, 1));
        assert!(s.value(x) <= rat(1, 1));
    }

    #[test]
    fn infeasible_system_with_certificate() {
        // x + y <= 1, x >= 1, y >= 1  infeasible
        let mut s = Simplex::new();
        let x = s.new_col();
        let y = s.new_col();
        let sum = s.new_slack(&[(x, rat(1, 1)), (y, rat(1, 1))]);
        s.assert_upper(sum, rat(1, 1), 10).unwrap();
        s.assert_lower(x, rat(1, 1), 11).unwrap();
        s.assert_lower(y, rat(1, 1), 12).unwrap();
        let conflict = s.check(MAX).unwrap_err();
        let core = conflict.core();
        assert_eq!(core, vec![10, 11, 12]);
        // Multipliers must all be positive.
        assert!(conflict.entries.iter().all(|e| e.multiplier.is_positive()));
    }

    #[test]
    fn chained_rows() {
        // a = x + y; b = x - y; a <= 2; b <= 0; x >= 1  => y in [1, ..]
        let mut s = Simplex::new();
        let x = s.new_col();
        let y = s.new_col();
        let a = s.new_slack(&[(x, rat(1, 1)), (y, rat(1, 1))]);
        let b = s.new_slack(&[(x, rat(1, 1)), (y, rat(-1, 1))]);
        s.assert_upper(a, rat(2, 1), 0).unwrap();
        s.assert_upper(b, rat(0, 1), 1).unwrap();
        s.assert_lower(x, rat(1, 1), 2).unwrap();
        s.check(MAX).unwrap();
        let (vx, vy) = (s.value(x), s.value(y));
        assert!(&vx + &vy <= rat(2, 1));
        assert!(&vx - &vy <= rat(0, 1));
        assert!(vx >= rat(1, 1));
    }

    #[test]
    fn slack_over_basic_vars() {
        // Force pivoting so a later slack is built over basic vars.
        let mut s = Simplex::new();
        let x = s.new_col();
        let y = s.new_col();
        let a = s.new_slack(&[(x, rat(2, 1)), (y, rat(1, 1))]);
        s.assert_lower(a, rat(10, 1), 0).unwrap();
        s.check(MAX).unwrap();
        // now define b = x + y after pivots
        let b = s.new_slack(&[(x, rat(1, 1)), (y, rat(1, 1))]);
        s.assert_upper(b, rat(3, 1), 1).unwrap();
        s.check(MAX).unwrap();
        let (vx, vy) = (s.value(x), s.value(y));
        assert!(&(&vx + &vx) + &vy >= rat(10, 1));
        assert!(&vx + &vy <= rat(3, 1));
    }

    #[test]
    fn equality_via_two_bounds() {
        // x + 2y = 7 and x - y = 1  =>  x = 3, y = 2
        let mut s = Simplex::new();
        let x = s.new_col();
        let y = s.new_col();
        let e1 = s.new_slack(&[(x, rat(1, 1)), (y, rat(2, 1))]);
        let e2 = s.new_slack(&[(x, rat(1, 1)), (y, rat(-1, 1))]);
        s.assert_lower(e1, rat(7, 1), 0).unwrap();
        s.assert_upper(e1, rat(7, 1), 1).unwrap();
        s.assert_lower(e2, rat(1, 1), 2).unwrap();
        s.assert_upper(e2, rat(1, 1), 3).unwrap();
        s.check(MAX).unwrap();
        assert_eq!(s.value(x), rat(3, 1));
        assert_eq!(s.value(y), rat(2, 1));
    }

    #[test]
    fn redundant_weaker_bounds_ignored() {
        let mut s = Simplex::new();
        let x = s.new_col();
        s.assert_upper(x, rat(5, 1), 0).unwrap();
        s.assert_upper(x, rat(9, 1), 1).unwrap(); // weaker, ignored
        s.assert_lower(x, rat(6, 1), 2).unwrap_err(); // conflicts with 5
    }

    #[test]
    fn backtrack_restores_bounds_and_warm_starts() {
        // Assert a box, take a point, tighten into infeasibility, pop:
        // the original box must be feasible again, and the check after
        // the pop starts from the previous vertex (warm basis).
        let mut s = Simplex::new();
        let x = s.new_col();
        let y = s.new_col();
        let sum = s.new_slack(&[(x, rat(1, 1)), (y, rat(1, 1))]);
        s.assert_lower(sum, rat(4, 1), 0).unwrap();
        s.assert_upper(x, rat(3, 1), 1).unwrap();
        s.check(MAX).unwrap();
        let point = s.set_backtrack_point();
        s.assert_upper(y, rat(0, 1), 2).unwrap();
        s.assert_upper(x, rat(1, 1), 3).unwrap();
        let conflict = s.check(MAX).unwrap_err();
        assert_eq!(conflict.core(), vec![0, 2, 3]);
        s.backtrack_to(point);
        s.check(MAX).unwrap();
        assert!(&s.value(x) + &s.value(y) >= rat(4, 1));
        assert!(s.value(x) <= rat(3, 1));
        // The retracted y <= 0 is gone: y >= 2 would contradict it,
        // but now asserts cleanly and the system stays feasible.
        s.assert_lower(y, rat(2, 1), 4).unwrap();
        s.check(MAX).unwrap();
        assert!(s.value(y) >= rat(2, 1));
    }

    #[test]
    fn backtrack_restores_overwritten_tighter_bounds() {
        // Overwriting a bound twice inside one frame must restore the
        // original value (not the intermediate one) on pop.
        let mut s = Simplex::new();
        let x = s.new_col();
        s.assert_upper(x, rat(10, 1), 0).unwrap();
        let point = s.set_backtrack_point();
        s.assert_upper(x, rat(5, 1), 1).unwrap();
        s.assert_upper(x, rat(2, 1), 2).unwrap();
        // Looser-than-current assertions are no-ops and must not
        // corrupt the trail.
        s.assert_upper(x, rat(7, 1), 3).unwrap();
        s.backtrack_to(point);
        // Back to x <= 10: lower bound of 8 is now consistent.
        s.assert_lower(x, rat(8, 1), 4).unwrap();
        s.check(MAX).unwrap();
        assert!(s.value(x) >= rat(8, 1) && s.value(x) <= rat(10, 1));
    }

    #[test]
    fn nested_backtrack_points_pop_in_order() {
        let mut s = Simplex::new();
        let x = s.new_col();
        let p0 = s.set_backtrack_point();
        s.assert_lower(x, rat(1, 1), 0).unwrap();
        let p1 = s.set_backtrack_point();
        s.assert_lower(x, rat(6, 1), 1).unwrap();
        assert!(s.assert_upper(x, rat(4, 1), 2).is_err());
        s.backtrack_to(p1);
        s.assert_upper(x, rat(4, 1), 2).unwrap();
        s.check(MAX).unwrap();
        assert!(s.value(x) >= rat(1, 1) && s.value(x) <= rat(4, 1));
        s.backtrack_to(p0);
        // All bounds retracted: x unconstrained again.
        s.assert_upper(x, rat(-100, 1), 3).unwrap();
        s.check(MAX).unwrap();
    }

    #[test]
    fn farkas_certificate_is_valid_combination() {
        // 2x + 3y <= 6 ; x >= 3 ; y >= 1  infeasible:
        // 1*(2x+3y>=?) ... validate: sum of multipliers * inequalities
        // yields contradiction. We check: m0*(upper) + m1*(lower as
        // -x<=-3) + m2*(-y<=-1) cancels variables.
        let mut s = Simplex::new();
        let x = s.new_col();
        let y = s.new_col();
        let e = s.new_slack(&[(x, rat(2, 1)), (y, rat(3, 1))]);
        s.assert_upper(e, rat(6, 1), 0).unwrap();
        s.assert_lower(x, rat(3, 1), 1).unwrap();
        s.assert_lower(y, rat(1, 1), 2).unwrap();
        let c = s.check(MAX).unwrap_err();
        // Reconstruct the combination over (x, y):
        // Upper on e contributes m*(2,3); Lower on x contributes m*(-1,0); etc.
        let mut cx = rat(0, 1);
        let mut cy = rat(0, 1);
        let mut rhs = rat(0, 1);
        for entry in &c.entries {
            let (vecx, vecy, b) = match (entry.tag, entry.kind) {
                (0, BoundKind::Upper) => (rat(2, 1), rat(3, 1), rat(6, 1)),
                (1, BoundKind::Lower) => (rat(-1, 1), rat(0, 1), rat(-3, 1)),
                (2, BoundKind::Lower) => (rat(0, 1), rat(-1, 1), rat(-1, 1)),
                other => panic!("unexpected certificate entry {other:?}"),
            };
            cx = &cx + &(&entry.multiplier * &vecx);
            cy = &cy + &(&entry.multiplier * &vecy);
            rhs = &rhs + &(&entry.multiplier * &b);
        }
        assert!(cx.is_zero() && cy.is_zero(), "coefficients must cancel");
        assert!(rhs.is_negative(), "0 <= negative required, got {rhs}");
    }
}

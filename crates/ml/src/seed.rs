//! Symbolic seeding: a per-predicate store of candidate separating
//! hyperplane *directions* harvested from symbolic sources — clause
//! constraints and goals, frontend branch conditions, Farkas/interpolant
//! certificates — consumed by the learner as first-try separators and
//! extra decision-tree features.
//!
//! The store is deterministic by construction: insertion order is the
//! harvest order, and directions are gcd-normalized with a canonical
//! sign (orientation is irrelevant — the intercept refit tries both).

use linarb_arith::BigInt;
use linarb_logic::{Atom, PredId, Var};
use std::collections::HashMap;

/// Hard cap on stored planes per predicate.
const MAX_PLANES: usize = 64;
/// Only the first this-many harvested planes participate in pairwise
/// combination (the octagon-style closure below).
const COMBO_BASE: usize = 12;
/// Pairwise combination stops once a predicate holds this many planes.
const COMBO_CAP: usize = 48;

/// One candidate separating direction, with its usage counters.
#[derive(Clone, Debug)]
pub struct SeedPlane {
    dir: Vec<BigInt>,
    hits: u64,
}

impl SeedPlane {
    /// The direction (gcd-normalized, first non-zero coefficient
    /// positive).
    pub fn dir(&self) -> &[BigInt] {
        &self.dir
    }

    /// How many times the learner used this plane directly.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// Canonical form of a direction: gcd-normalized, first non-zero
/// coefficient positive; `None` for the zero direction.
fn canonical(mut dir: Vec<BigInt>) -> Option<Vec<BigInt>> {
    let g = dir.iter().fold(BigInt::zero(), |g, c| BigInt::gcd(&g, c));
    if g.is_zero() {
        return None;
    }
    if !g.is_one() {
        for c in &mut dir {
            *c = &*c / &g;
        }
    }
    if dir.iter().find(|c| !c.is_zero())?.is_negative() {
        for c in &mut dir {
            *c = -&*c;
        }
    }
    Some(dir)
}

#[derive(Clone, Debug, Default)]
struct PredSeeds {
    planes: Vec<SeedPlane>,
    /// Bumped on every plane addition; summed into the solver's
    /// progress snapshots.
    version: u64,
}

/// Per-predicate store of seed hyperplane directions.
#[derive(Clone, Debug, Default)]
pub struct SeedStore {
    by_pred: HashMap<PredId, PredSeeds>,
    total_added: usize,
    total_hits: u64,
}

impl SeedStore {
    /// An empty store.
    pub fn new() -> SeedStore {
        SeedStore::default()
    }

    /// Harvests the direction of `atom` for `pred`, provided every
    /// variable of the atom is one of the predicate's `params`.
    /// Returns `true` if a new plane was admitted.
    pub fn add_atom(&mut self, pred: PredId, atom: &Atom, params: &[Var]) -> bool {
        let expr = atom.expr();
        if expr.vars().any(|v| !params.contains(&v)) {
            return false;
        }
        let dir: Vec<BigInt> = params.iter().map(|v| expr.coeff(*v)).collect();
        self.add_dir(pred, dir)
    }

    /// Admits a raw direction (deduped against the canonical forms
    /// already stored; zero directions and over-cap additions are
    /// rejected).
    pub fn add_dir(&mut self, pred: PredId, dir: Vec<BigInt>) -> bool {
        let Some(dir) = canonical(dir) else {
            return false;
        };
        let entry = self.by_pred.entry(pred).or_default();
        if entry.planes.len() >= MAX_PLANES
            || entry.planes.iter().any(|p| p.dir == dir)
        {
            return false;
        }
        entry.planes.push(SeedPlane { dir, hits: 0 });
        entry.version += 1;
        self.total_added += 1;
        true
    }

    /// Octagon-style closure: for every predicate, adds the pairwise
    /// sums and differences of the first 12 harvested directions
    /// (`COMBO_BASE`), until it holds 48 planes (`COMBO_CAP`).
    /// Equality-shaped invariants like `res + cnt == a + b` typically
    /// live exactly one such combination away from the harvested
    /// guard/goal directions.
    pub fn combine_pairs(&mut self) {
        let preds: Vec<PredId> = {
            let mut ps: Vec<PredId> = self.by_pred.keys().copied().collect();
            ps.sort_by_key(|p| p.0);
            ps
        };
        for pred in preds {
            let base: Vec<Vec<BigInt>> = self.by_pred[&pred]
                .planes
                .iter()
                .take(COMBO_BASE)
                .map(|p| p.dir.clone())
                .collect();
            'outer: for i in 0..base.len() {
                for j in (i + 1)..base.len() {
                    for minus in [false, true] {
                        if self.by_pred[&pred].planes.len() >= COMBO_CAP {
                            break 'outer;
                        }
                        let dir: Vec<BigInt> = base[i]
                            .iter()
                            .zip(base[j].iter())
                            .map(|(a, b)| if minus { a - b } else { a + b })
                            .collect();
                        self.add_dir(pred, dir);
                    }
                }
            }
        }
    }

    /// The planes stored for `pred` (empty slice when none).
    pub fn planes(&self, pred: PredId) -> &[SeedPlane] {
        self.by_pred.get(&pred).map_or(&[], |e| e.planes.as_slice())
    }

    /// The store version for `pred` (bumped on every addition).
    pub fn version(&self, pred: PredId) -> u64 {
        self.by_pred.get(&pred).map_or(0, |e| e.version)
    }

    /// Records that the learner used plane `idx` of `pred` directly.
    pub fn note_hit(&mut self, pred: PredId, idx: usize) {
        if let Some(e) = self.by_pred.get_mut(&pred) {
            if let Some(p) = e.planes.get_mut(idx) {
                p.hits += 1;
                self.total_hits += 1;
            }
        }
    }

    /// Planes ever admitted.
    pub fn total_added(&self) -> usize {
        self.total_added
    }

    /// Direct learner uses across all planes.
    pub fn total_hits(&self) -> u64 {
        self.total_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;
    use linarb_logic::{LinExpr, Var};

    fn pid(n: u32) -> PredId {
        PredId(n)
    }

    fn vars(n: u32) -> Vec<Var> {
        (0..n).map(Var::from_index).collect()
    }

    #[test]
    fn canonicalizes_sign_and_gcd() {
        let mut s = SeedStore::new();
        assert!(s.add_dir(pid(0), vec![int(-2), int(4)]));
        assert_eq!(s.planes(pid(0))[0].dir(), &[int(1), int(-2)]);
        // same plane up to scale/sign: rejected as duplicate
        assert!(!s.add_dir(pid(0), vec![int(3), int(-6)]));
        assert!(!s.add_dir(pid(0), vec![int(0), int(0)]));
        assert_eq!(s.total_added(), 1);
    }

    #[test]
    fn add_atom_requires_param_vars_only() {
        let ps = vars(2);
        let stray = Var::from_index(7);
        let mut s = SeedStore::new();
        let a = Atom::le_zero(LinExpr::from_terms(
            [(ps[0], int(1)), (ps[1], int(-1))],
            int(3),
        ));
        assert!(s.add_atom(pid(1), &a, &ps));
        // constant term is irrelevant to the direction
        assert_eq!(s.planes(pid(1))[0].dir(), &[int(1), int(-1)]);
        let b = Atom::le_zero(LinExpr::from_terms([(ps[0], int(1)), (stray, int(1))], int(0)));
        assert!(!s.add_atom(pid(1), &b, &ps));
    }

    #[test]
    fn pairwise_combos_reach_equality_directions() {
        // hhk2008 shape: goal direction res−a−b plus unit cnt must
        // combine into the invariant direction res+cnt−a−b.
        let mut s = SeedStore::new();
        s.add_dir(pid(0), vec![int(-1), int(-1), int(1), int(0)]); // res - a - b
        s.add_dir(pid(0), vec![int(0), int(0), int(0), int(1)]); // cnt
        s.combine_pairs();
        // canonical form of res+cnt-a-b (first non-zero positive)
        let want = vec![int(1), int(1), int(-1), int(-1)];
        assert!(
            s.planes(pid(0)).iter().any(|p| p.dir() == want.as_slice()),
            "combination must contain res+cnt-a-b (canonicalized)"
        );
    }

    #[test]
    fn hit_and_version_tracking() {
        let mut s = SeedStore::new();
        s.add_dir(pid(0), vec![int(1)]);
        let v = s.version(pid(0));
        s.note_hit(pid(0), 0);
        s.note_hit(pid(0), 99); // out of range: ignored
        assert_eq!(s.total_hits(), 1);
        assert_eq!(s.planes(pid(0))[0].hits(), 1);
        assert_eq!(s.version(pid(0)), v, "hits do not bump the version");
    }
}

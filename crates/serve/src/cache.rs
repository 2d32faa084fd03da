//! The two-tier invariant cache (DESIGN.md §15).
//!
//! Entries are keyed by the canonical form of the solved system
//! ([`linarb_frontend::Canon`]). Cached artifacts are stored in
//! *canonical coordinates* — predicates by canonical index, variables
//! by canonical (per-clause first-occurrence) number, interpretation
//! formulas over canonical parameter positions — so they can be
//! carried to any later system sharing the form, regardless of its
//! names, declaration order, or clause order:
//!
//! * **Exact tier.** Lookup by 128-bit key, confirmed by comparing the
//!   full canonical text (collisions cost a miss, never a wrong hit).
//!   The cached verdict is translated into the submitting system's
//!   coordinates and independently re-checked before being served.
//! * **Near tier.** When no exact entry matches, the best neighbor by
//!   per-clause fingerprint overlap donates its solver snapshot and
//!   invariant atoms as a warm start. Warm-start material only biases
//!   the search — verdicts still come from a full solve — so a poor
//!   neighbor costs time, not soundness.
//!
//! The cache is bounded (FIFO eviction) and all iteration orders are
//! deterministic (insertion order), keeping daemon behavior
//! reproducible across runs and thread counts.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use linarb_arith::BigInt;
use linarb_frontend::Canon;
use linarb_logic::{Atom, ChcSystem, Formula, Interpretation, Model, Var};
use linarb_solver::{DerivationNode, SolveResult, SolveSnapshot};

/// Minimum fingerprint-overlap fraction for a near-tier donor.
const NEAR_MIN_FRAC: f64 = 0.5;

/// A memoized verdict in canonical coordinates.
#[derive(Clone, Debug)]
pub enum CachedVerdict {
    /// Sat: per canonical predicate, the invariant over canonical
    /// parameter variables `v0 … v(arity-1)`.
    Sat(Vec<Formula>),
    /// Unsat: the derivation tree in canonical clause/variable space.
    Unsat(CanonDeriv),
}

/// A [`DerivationNode`] with clauses, variables, and predicates
/// replaced by their canonical numbers.
#[derive(Clone, Debug)]
pub struct CanonDeriv {
    /// Canonical index of the derived predicate (`None` at a goal
    /// root).
    pub pred: Option<usize>,
    /// Derived argument values.
    pub sample: Vec<BigInt>,
    /// Canonical clause index.
    pub clause: usize,
    /// Witnessing assignment: canonical variable number → value,
    /// sorted by number.
    pub model: Vec<(u32, BigInt)>,
    /// Derivations of the body predicates, in body order.
    pub children: Vec<CanonDeriv>,
}

/// Warm-start material donated to near-tier consumers.
#[derive(Clone, Default)]
pub struct WarmStart {
    /// The producer's solver snapshot, still in the producer's
    /// `PredId` space ([`SolveSnapshot::remap_preds`] translates it).
    pub snapshot: SolveSnapshot,
    /// Atoms of the producer's final invariants (Sat runs only), per
    /// canonical predicate index, over canonical parameter variables.
    pub atoms: Vec<(usize, Atom)>,
}

/// One cache entry: the canonical form, the verdict, and the solver
/// state that produced it.
#[derive(Clone)]
pub struct CacheEntry {
    /// Name of the job that populated the entry (debugging only).
    pub name: String,
    /// Full canonical text; exact hits compare this.
    pub text: String,
    /// Sorted per-clause shape hashes for near-miss search.
    pub fingerprint: Vec<u64>,
    /// Canonical predicate arities; near-tier donors must match.
    pub arities: Vec<usize>,
    /// The memoized verdict.
    pub verdict: CachedVerdict,
    /// Producer canonical index → producer `PredId`, for translating
    /// [`WarmStart::snapshot`] into a consumer's `PredId` space.
    pub pred_of_canon: Vec<linarb_logic::PredId>,
    /// Warm-start material for near-tier consumers.
    pub warm: WarmStart,
}

/// Translates a fresh solve result into canonical coordinates for
/// caching. Returns `None` for verdicts that cannot be represented
/// (never observed in practice; callers just skip caching).
pub fn cache_verdict(canon: &Canon, sys: &ChcSystem, result: &SolveResult) -> Option<CachedVerdict> {
    match result {
        SolveResult::Sat(interp) => {
            let mut formulas = Vec::with_capacity(canon.arities.len());
            for ci in 0..canon.arities.len() {
                let pid = canon.pred_of_canon[ci];
                let Some(f) = interp.get(&pid) else {
                    formulas.push(Formula::True);
                    continue;
                };
                let params = &sys.pred(pid).params;
                let map: HashMap<Var, Var> = params
                    .iter()
                    .enumerate()
                    .map(|(j, v)| (*v, Var::from_index(j as u32)))
                    .collect();
                formulas.push(f.rename(&map));
            }
            Some(CachedVerdict::Sat(formulas))
        }
        SolveResult::Unsat(tree) => deriv_to_canon(canon, tree).map(CachedVerdict::Unsat),
        SolveResult::Unknown(_) => None,
    }
}

fn deriv_to_canon(canon: &Canon, n: &DerivationNode) -> Option<CanonDeriv> {
    let ci = *canon.canon_of_clause.get(n.clause.0 as usize)?;
    let inv: HashMap<Var, u32> = canon.clause_vars[ci]
        .iter()
        .enumerate()
        .map(|(k, v)| (*v, k as u32))
        .collect();
    let mut model = Vec::new();
    for (v, val) in n.model.iter() {
        // Assignments outside the clause's own variables are inert
        // during replay (replay only evaluates clause-local terms),
        // so they are dropped rather than blocking the cache.
        if let Some(k) = inv.get(&v) {
            model.push((*k, val.clone()));
        }
    }
    model.sort_by(|a, b| a.0.cmp(&b.0));
    let mut children = Vec::with_capacity(n.children.len());
    for ch in &n.children {
        children.push(deriv_to_canon(canon, ch)?);
    }
    Some(CanonDeriv {
        pred: n.pred.map(|p| canon.canon_of_pred[p.0 as usize]),
        sample: n.sample.clone(),
        clause: ci,
        model,
        children,
    })
}

/// Translates a cached verdict into `sys`'s coordinates via its
/// canonical form. The result is *not yet trusted* — the caller must
/// re-verify (interpretation check or derivation replay) before
/// serving it. Returns `None` on any structural mismatch.
pub fn restore_verdict(canon: &Canon, sys: &ChcSystem, v: &CachedVerdict) -> Option<SolveResult> {
    match v {
        CachedVerdict::Sat(formulas) => {
            if formulas.len() != canon.arities.len() {
                return None;
            }
            let mut interp = Interpretation::new();
            for (ci, f) in formulas.iter().enumerate() {
                let pid = *canon.pred_of_canon.get(ci)?;
                let params = &sys.pred(pid).params;
                let map: HashMap<Var, Var> = params
                    .iter()
                    .enumerate()
                    .map(|(j, v)| (Var::from_index(j as u32), *v))
                    .collect();
                interp.insert(pid, f.rename(&map));
            }
            Some(SolveResult::Sat(interp))
        }
        CachedVerdict::Unsat(tree) => deriv_from_canon(canon, tree).map(SolveResult::Unsat),
    }
}

fn deriv_from_canon(canon: &Canon, n: &CanonDeriv) -> Option<DerivationNode> {
    let clause = *canon.clause_of_canon.get(n.clause)?;
    let vars = canon.clause_vars.get(n.clause)?;
    let mut model = Model::new();
    for (k, val) in &n.model {
        model.assign(*vars.get(*k as usize)?, val.clone());
    }
    let mut children = Vec::with_capacity(n.children.len());
    for ch in &n.children {
        children.push(deriv_from_canon(canon, ch)?);
    }
    Some(DerivationNode {
        pred: match n.pred {
            Some(ci) => Some(*canon.pred_of_canon.get(ci)?),
            None => None,
        },
        sample: n.sample.clone(),
        clause,
        model,
        children,
    })
}

/// Collects the atoms of a cached Sat verdict as near-tier seed
/// material: `(canonical predicate index, atom)` pairs.
pub fn invariant_atoms(verdict: &CachedVerdict) -> Vec<(usize, Atom)> {
    let CachedVerdict::Sat(formulas) = verdict else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (ci, f) in formulas.iter().enumerate() {
        collect_atoms(f, ci, &mut out);
    }
    out
}

fn collect_atoms(f: &Formula, ci: usize, out: &mut Vec<(usize, Atom)>) {
    match f {
        Formula::Atom(a) => out.push((ci, a.clone())),
        Formula::And(fs) | Formula::Or(fs) => {
            for g in fs {
                collect_atoms(g, ci, out);
            }
        }
        Formula::Not(g) => collect_atoms(g, ci, out),
        Formula::True | Formula::False | Formula::Mod(_) => {}
    }
}

fn overlap(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The bounded, deterministic entry store.
pub struct InvariantCache {
    by_key: HashMap<String, Arc<CacheEntry>>,
    /// Keys in insertion order: FIFO eviction and deterministic
    /// near-tier scans.
    order: VecDeque<String>,
    cap: usize,
}

impl InvariantCache {
    /// An empty cache holding at most `cap` entries (min 1).
    pub fn new(cap: usize) -> InvariantCache {
        InvariantCache { by_key: HashMap::new(), order: VecDeque::new(), cap: cap.max(1) }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Exact-tier lookup: key match confirmed by full canonical text
    /// comparison.
    pub fn exact(&self, canon: &Canon) -> Option<Arc<CacheEntry>> {
        self.by_key.get(&canon.key).filter(|e| e.text == canon.text).cloned()
    }

    /// Near-tier lookup: the entry with the highest fingerprint
    /// overlap fraction, provided it reaches half of the larger
    /// fingerprint and its canonical arities match (snapshot predicate
    /// remapping requires aligned signatures). Ties keep the earliest
    /// inserted entry, so results do not depend on hash order.
    pub fn nearest(&self, canon: &Canon) -> Option<Arc<CacheEntry>> {
        let mut best: Option<(f64, Arc<CacheEntry>)> = None;
        for key in &self.order {
            let e = &self.by_key[key];
            if e.arities != canon.arities || e.text == canon.text {
                continue;
            }
            let denom = e.fingerprint.len().max(canon.fingerprint.len()).max(1);
            let frac = overlap(&e.fingerprint, &canon.fingerprint) as f64 / denom as f64;
            if frac >= NEAR_MIN_FRAC && best.as_ref().map_or(true, |(b, _)| frac > *b) {
                best = Some((frac, Arc::clone(e)));
            }
        }
        best.map(|(_, e)| e)
    }

    /// Inserts (or replaces) the entry for `key`, evicting the oldest
    /// entry when full.
    pub fn insert(&mut self, key: String, entry: CacheEntry) {
        if self.by_key.insert(key.clone(), Arc::new(entry)).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.by_key.remove(&old);
                }
            }
        }
    }
}

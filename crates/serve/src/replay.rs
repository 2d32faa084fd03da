//! Variant generator for replaying cached workloads (DESIGN.md §15):
//! deterministic mutated copies of a base system, for measuring and
//! testing the serve daemon's cache.
//!
//! Each base system spawns a deterministic stream of variants built
//! from three *syntactic* mutations and one *semantic* one:
//!
//! * **rename** — predicates and variables renamed (canonical form
//!   unchanged → exact tier);
//! * **reorder** — clauses permuted (unchanged → exact tier);
//! * **scale** — every linear atom multiplied by a positive constant
//!   ([`Atom::le_zero`] normalizes it away → exact tier);
//! * **perturb** — one guard constant nudged (a *semantic* change →
//!   at best the near tier).
//!
//! Variants cycle through eight classes: the seven non-empty
//! combinations of the syntactic mutations, then one perturb. That mix
//! models the intended service workload — mostly resubmissions of
//! systems the daemon has already seen in different syntactic dress,
//! with a steady minority of genuinely new problems.

use linarb_arith::BigInt;
use linarb_logic::{Atom, ChcSystem, ClauseHead, Formula, PredApp};

/// xorshift64* — the workspace's stock tiny deterministic RNG,
/// re-implemented locally because `linarb-testutil` is a
/// dev-dependency by convention.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Atom-level mutation applied during a rebuild (renaming and clause
/// reordering are separate rebuild inputs, so all three syntactic
/// mutations compose freely).
enum Tweak {
    /// Atoms untouched.
    None,
    /// All atoms scaled by this factor.
    Scale(BigInt),
    /// Atom `atom_idx` of clause `clause_idx` (counting constraint
    /// atoms then goal atoms) gets `delta` added to its constant.
    Perturb { clause_idx: usize, atom_idx: usize, delta: BigInt },
}

fn map_formula(f: &Formula, n: &mut usize, tweak: &mut impl FnMut(usize, &Atom) -> Atom) -> Formula {
    match f {
        Formula::Atom(a) => {
            let idx = *n;
            *n += 1;
            Formula::Atom(tweak(idx, a))
        }
        Formula::And(fs) => Formula::And(fs.iter().map(|g| map_formula(g, n, tweak)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| map_formula(g, n, tweak)).collect()),
        Formula::Not(g) => Formula::Not(Box::new(map_formula(g, n, tweak))),
        Formula::True | Formula::False | Formula::Mod(_) => f.clone(),
    }
}

fn count_atoms(f: &Formula) -> usize {
    match f {
        Formula::Atom(_) => 1,
        Formula::And(fs) | Formula::Or(fs) => fs.iter().map(count_atoms).sum(),
        Formula::Not(g) => count_atoms(g),
        Formula::True | Formula::False | Formula::Mod(_) => 0,
    }
}

/// Rebuilds `sys` with renamed symbols, permuted clauses, and tweaked
/// atoms, *preserving the variable and predicate index layout* (the
/// rebuilt system's `Var`/`PredId` values match the original's).
/// Returns `None` when the system's parameter blocks are not laid out
/// the way [`ChcSystem::declare_pred`] produces them (never the case
/// for in-tree frontends); callers fall back to a plain clone.
fn rebuild(sys: &ChcSystem, tag: Option<&str>, order: &[usize], tweak: &Tweak) -> Option<ChcSystem> {
    let mut out = ChcSystem::new();
    // Vars and preds, in index order, interleaving predicate parameter
    // blocks at their original positions.
    let mut cursor: u32 = 0;
    for p in sys.preds() {
        let arity = p.params.len();
        let name = match tag {
            Some(t) => format!("{}_{t}", p.name),
            None => p.name.clone(),
        };
        if arity == 0 {
            out.declare_pred(&name, 0);
            continue;
        }
        let start = p.params[0].index();
        if start < cursor {
            return None;
        }
        while cursor < start {
            out.fresh_var(&var_name(sys, cursor, tag));
            cursor += 1;
        }
        for (j, v) in p.params.iter().enumerate() {
            if v.index() != start + j as u32 {
                return None;
            }
        }
        let pid = out.declare_pred(&name, arity);
        if pid != p.id || out.pred(pid).params != p.params {
            return None;
        }
        cursor += arity as u32;
    }
    while (cursor as usize) < sys.num_vars() {
        out.fresh_var(&var_name(sys, cursor, tag));
        cursor += 1;
    }

    let clauses = sys.clauses();
    for &idx in order {
        let c = &clauses[idx];
        // Atom tweaks see a per-clause atom counter spanning the
        // constraint first, then a goal head.
        let mut n = 0usize;
        let mut f = |atom_idx: usize, a: &Atom| match tweak {
            Tweak::None => a.clone(),
            Tweak::Scale(k) => Atom::le_zero(a.expr().scale(k)),
            Tweak::Perturb { clause_idx, atom_idx: t, delta } => {
                if *clause_idx == idx && *t == atom_idx {
                    let mut e = a.expr().clone();
                    e.add_constant(delta);
                    Atom::le_zero(e)
                } else {
                    a.clone()
                }
            }
        };
        let constraint = map_formula(&c.constraint, &mut n, &mut f);
        let head = match &c.head {
            ClauseHead::Pred(app) => {
                ClauseHead::Pred(PredApp::new(app.pred, app.args.clone()))
            }
            ClauseHead::Goal(g) => ClauseHead::Goal(map_formula(g, &mut n, &mut f)),
        };
        out.add_clause(c.body_preds.clone(), constraint, head);
    }
    Some(out)
}

fn var_name(sys: &ChcSystem, idx: u32, tag: Option<&str>) -> String {
    let base = sys.var_name(linarb_logic::Var::from_index(idx));
    match tag {
        Some(t) => format!("{base}_{t}"),
        None => base.to_string(),
    }
}

/// Generates variant `i` of `sys`, deterministically from the seed.
/// Indices cycle through eight classes: the seven non-empty
/// combinations of rename/reorder/scale (all of which preserve the
/// canonical form, so they exact-hit once the base is cached), then
/// one constant perturbation (a semantic change: near tier at best).
pub fn variant(sys: &ChcSystem, seed: u64, i: usize) -> ChcSystem {
    let mut rng = Rng::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n = sys.num_clauses();
    let identity: Vec<usize> = (0..n).collect();
    // Classes 1..=7 read the low three bits as a rename/reorder/scale
    // mask; class 0 (mask 000 would be a no-op) is the perturbation.
    let mask = (i % 8) as u32;
    let tag = format!("v{i}");
    let rename = mask & 0b001 != 0;
    let order = if mask & 0b010 != 0 {
        let mut order = identity.clone();
        // Fisher–Yates.
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below(k + 1));
        }
        order
    } else {
        identity.clone()
    };
    let tweak = if mask == 0 {
        perturb_tweak(sys, &mut rng)
    } else if mask & 0b100 != 0 {
        Tweak::Scale(BigInt::from(2 + rng.below(5) as i64))
    } else {
        Tweak::None
    };
    let built = rebuild(sys, rename.then_some(tag.as_str()), &order, &tweak);
    built.unwrap_or_else(|| {
        rebuild(sys, None, &identity, &Tweak::None).unwrap_or_else(|| {
            // Layout too exotic to rebuild at all: replay the original.
            parse_roundtrip(sys)
        })
    })
}

/// Picks one atom (uniformly across all clauses) and a small nonzero
/// delta for its constant. Systems with no atoms at all degrade to an
/// exact duplicate.
fn perturb_tweak(sys: &ChcSystem, rng: &mut Rng) -> Tweak {
    let clauses = sys.clauses();
    let counts: Vec<usize> = clauses
        .iter()
        .map(|c| {
            count_atoms(&c.constraint)
                + match &c.head {
                    ClauseHead::Goal(g) => count_atoms(g),
                    ClauseHead::Pred(_) => 0,
                }
        })
        .collect();
    let total: usize = counts.iter().sum();
    if total == 0 {
        return Tweak::None;
    }
    let mut pick = rng.below(total);
    let mut clause_idx = 0;
    for (ci, cnt) in counts.iter().enumerate() {
        if pick < *cnt {
            clause_idx = ci;
            break;
        }
        pick -= cnt;
    }
    let delta = BigInt::from(1 + rng.below(3) as i64);
    let delta = if rng.below(2) == 0 { delta } else { -delta };
    Tweak::Perturb { clause_idx, atom_idx: pick, delta }
}

/// Last-resort clone via the SMT-LIB round trip (always succeeds for
/// systems the parser produced).
fn parse_roundtrip(sys: &ChcSystem) -> ChcSystem {
    linarb_logic::parse_chc(&sys.to_smtlib()).expect("smtlib round trip")
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_frontend::canonicalize;
    use linarb_suite::fig1;

    #[test]
    fn exact_class_variants_preserve_the_canonical_form() {
        let sys = fig1().system;
        let base = canonicalize(&sys);
        for i in 0..24 {
            let v = variant(&sys, 0x1abb_5eed, i);
            let c = canonicalize(&v);
            if i % 8 == 0 {
                assert_ne!(c.text, base.text, "perturb variant {i} must change the form");
                assert!(
                    !c.fingerprint.is_empty(),
                    "perturbed variant must keep a fingerprint"
                );
            } else {
                assert_eq!(
                    c.text, base.text,
                    "variant {i} (syntactic mask {:03b}) must keep the canonical form",
                    i % 8
                );
            }
        }
    }
}

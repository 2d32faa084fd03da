//! Online DPLL(T): the one search loop behind [`check_sat`] and
//! [`IncrementalSolver::check`], and the bridge that connects the CDCL
//! core's theory hook ([`linarb_sat::TheoryHook`]) to the LIA theory
//! context through its push/pop trail.
//!
//! The theory context is long-lived: every complete boolean assignment
//! is judged inside the SAT search under a backtrack mark, theory
//! conflicts become learned clauses on the spot (the search backjumps
//! instead of restarting), and the simplex tableau — rows, interned
//! slack columns, and the current basis — stays warm from one frame to
//! the next. The outer loop re-enters the SAT search only after the
//! theory abandoned an assignment it could not decide (`Unknown`).
//!
//! [`check_sat`]: crate::check_sat
//! [`IncrementalSolver::check`]: crate::IncrementalSolver::check

use crate::budget::Budget;
use crate::theory::{TheoryLia, TheoryVerdict};
use crate::SmtResult;
use linarb_logic::{Atom, Model};
use linarb_sat::{BVar, Lit, SatResult, SatSolver, TheoryHook, TheoryResponse};

/// The literal↔atom bridge handed to [`SatSolver::solve_with_theory`].
///
/// At every complete boolean assignment it pushes a theory frame,
/// asserts the induced atom polarities in variable-index order (the
/// index doubling as the theory tag), asks for a verdict, and pops the
/// frame — leaving the tableau warm for the next frame.
struct LiaHook<'a> {
    theory: &'a mut TheoryLia,
    /// Atom ↔ boolean-variable map fixing the assertion order; the
    /// slice index is the theory tag, so cores map back to literals.
    atoms: &'a [(Atom, BVar)],
    budget: &'a Budget,
    /// Model of the accepted assignment, when the search ends `Sat`.
    model: Option<Model>,
    /// Blocking clause for an assignment the theory abandoned
    /// (`Unknown`): [`search`] installs it under its call literal and
    /// re-solves.
    abandoned: Option<Vec<Lit>>,
}

impl TheoryHook for LiaHook<'_> {
    fn check_model(&mut self, sat: &SatSolver) -> TheoryResponse {
        if self.budget.exhausted() {
            return TheoryResponse::Pause;
        }
        let mark = self.theory.set_backtrack_point();
        // True literal of each atom under the current assignment, in
        // tag order; cores index into this.
        let mut lits: Vec<Lit> = Vec::with_capacity(self.atoms.len());
        let mut early: Option<Vec<usize>> = None;
        for (tag, (a, v)) in self.atoms.iter().enumerate() {
            let value = sat.value(*v).expect("full assignment");
            lits.push(v.lit(value));
            let atom = if value { a.clone() } else { a.negate() };
            if let Err(c) = self.theory.assert_atom(&atom, tag) {
                early = Some(c.core());
                break;
            }
        }
        let response = match early {
            Some(core) => {
                TheoryResponse::Conflict(core.iter().map(|&t| lits[t].negated()).collect())
            }
            None => match self.theory.check(self.budget) {
                TheoryVerdict::Feasible(m) => {
                    self.model = Some(m);
                    TheoryResponse::Sat
                }
                TheoryVerdict::Unknown => {
                    self.abandoned = Some(lits.iter().map(|l| l.negated()).collect());
                    TheoryResponse::Pause
                }
                TheoryVerdict::Infeasible { core, .. } => {
                    let clause: Vec<Lit> = if core.is_empty() {
                        lits.iter().map(|l| l.negated()).collect()
                    } else {
                        core.iter().map(|&t| lits[t].negated()).collect()
                    };
                    if clause.is_empty() {
                        // No theory atoms at all yet "infeasible" —
                        // cannot happen (the empty conjunction is
                        // feasible); pause defensively rather than
                        // fabricate an empty conflict.
                        self.abandoned = Some(Vec::new());
                        TheoryResponse::Pause
                    } else {
                        TheoryResponse::Conflict(clause)
                    }
                }
            },
        };
        self.theory.backtrack_to(mark);
        response
    }
}

/// Decides the clauses of `sat` under the assumption literals
/// `active`, with `theory` judging the polarities of `atoms` at every
/// complete assignment. `rounds` counts SAT searches.
///
/// A theory-`Unknown` abandonment is blocked so the search moves on to
/// another assignment, but the blocking clause is a search pragma, not
/// a fact: it is guarded by a **call literal** (made on the first
/// abandonment and passed as an extra assumption) so it expires when
/// this call returns, and an eventual boolean `Unsat` is reported as
/// `Unknown`. Theory conflicts, by contrast, are learned permanently:
/// an infeasible combination of atom polarities stays infeasible
/// whatever the assumptions.
pub(crate) fn search(
    sat: &mut SatSolver,
    theory: &mut TheoryLia,
    atoms: &[(Atom, BVar)],
    active: &[Lit],
    budget: &Budget,
    rounds: &mut u64,
) -> SmtResult {
    use linarb_trace::{event, metrics, Level};
    let mut assumptions: Vec<Lit> = active.to_vec();
    let mut call_lit: Option<Lit> = None;
    loop {
        if budget.exhausted() {
            event!(Level::Debug, "smt", "smt.budget_exhausted", "rounds" => *rounds);
            metrics::counter("smt.budget_exhausted", 1);
            return SmtResult::Unknown;
        }
        *rounds += 1;
        sat.set_conflict_limit(budget.conflict_limit());
        let mut hook = LiaHook {
            theory: &mut *theory,
            atoms,
            budget,
            model: None,
            abandoned: None,
        };
        let verdict = sat.solve_with_theory(&assumptions, &mut hook);
        let LiaHook {
            model, abandoned, ..
        } = hook;
        match verdict {
            SatResult::Unsat if call_lit.is_none() => return SmtResult::Unsat,
            SatResult::Unsat | SatResult::Unknown => return SmtResult::Unknown,
            SatResult::Sat => {
                if let Some(m) = model {
                    return SmtResult::Sat(m);
                }
                // Paused: either the budget tripped (the loop head
                // reports it) or the theory abandoned this assignment.
                if let Some(mut clause) = abandoned {
                    let cl = *call_lit.get_or_insert_with(|| {
                        let l = sat.new_var().positive();
                        assumptions.push(l);
                        l
                    });
                    clause.push(cl.negated());
                    if !sat.add_clause(&clause) {
                        return SmtResult::Unknown;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_sat, Budget, IncrementalSolver, SmtResult, TheoryLia, TheoryVerdict};
    use linarb_arith::int;
    use linarb_logic::{Atom, Formula, LinExpr, Var};

    fn var(i: u32) -> LinExpr {
        LinExpr::var(Var::from_index(i))
    }

    fn c(k: i64) -> LinExpr {
        LinExpr::constant(int(k))
    }

    /// `1 <= 3x - 3y - 2z <= 2 ∧ z = 0` over unbounded x, y: rationally
    /// feasible and integer-infeasible (x - y would lie in [1/3, 2/3]).
    /// No equality carries the parity argument, so only branch-and-bound
    /// could refute it, and it gives up at its node limit.
    fn theory_atoms() -> [Atom; 4] {
        let e = &(&var(0).scale(&int(3)) - &var(1).scale(&int(3))) - &var(2).scale(&int(2));
        [
            Atom::ge(e.clone(), c(1)),
            Atom::le(e, c(2)),
            Atom::ge(var(2), c(0)),
            Atom::le(var(2), c(0)),
        ]
    }

    fn undecidable_by_theory() -> Formula {
        Formula::and(theory_atoms().into_iter().map(Formula::from).collect())
    }

    #[test]
    fn theory_gives_up_on_the_abandonment_input() {
        let mut t = TheoryLia::new();
        for (tag, a) in theory_atoms().iter().enumerate() {
            t.assert_atom(a, tag).unwrap();
        }
        assert!(matches!(
            t.check(&Budget::unlimited()),
            TheoryVerdict::Unknown
        ));
    }

    /// An abandoned assignment blocks the search but proves nothing, so
    /// the search must end `Unknown`, never `Unsat`.
    #[test]
    fn abandonment_is_never_reported_unsat() {
        assert!(matches!(
            check_sat(&undecidable_by_theory(), &Budget::unlimited()),
            SmtResult::Unknown
        ));
    }

    /// The blocking clause of an abandonment expires with its check: a
    /// later check of the same guard abandons afresh instead of finding
    /// the assignment already blocked and answering `Unsat`.
    #[test]
    fn abandonment_clause_expires_with_its_check() {
        let b = Budget::unlimited();
        let mut s = IncrementalSolver::new();
        let g1 = s.push_guarded(&undecidable_by_theory());
        let g2 = s.push_guarded(&Formula::from(Atom::ge(var(0), c(7))));
        assert!(matches!(s.check(&[g1], &b), SmtResult::Unknown));
        assert!(s.check(&[g2], &b).is_sat());
        assert!(matches!(s.check(&[g1], &b), SmtResult::Unknown));
    }
}

//! Logic intermediate representation for the linarb CHC solver.
//!
//! This crate defines the shared vocabulary of the whole system:
//!
//! * [`Var`] — integer-sorted first-order variables.
//! * [`LinExpr`] — linear expressions `Σ aᵢ·xᵢ + c` with exact
//!   [`BigInt`](linarb_arith::BigInt) coefficients.
//! * [`Atom`] — normalized linear atoms `e ≤ 0`, closed under integer
//!   negation (`¬(e ≤ 0) ≡ -e + 1 ≤ 0`).
//! * [`Formula`] — quantifier-free boolean combinations of atoms.
//! * [`Clause`], [`ChcSystem`] — Constrained Horn Clauses
//!   `φ ∧ p₁(T̄₁) ∧ … ∧ pₖ(T̄ₖ) → h`, where `h` is a predicate
//!   application or a known (goal) formula.
//! * [`parse_chc`] / [`ChcSystem::to_smtlib`] — a parser and printer
//!   for the SMT-LIB2 `HORN` fragment used by CHC-COMP and SeaHorn.
//!
//! # Examples
//!
//! Build the CHC encoding of the paper's Fig. 1 loop by hand:
//!
//! ```
//! use linarb_arith::int;
//! use linarb_logic::{Atom, ChcSystem, Formula, LinExpr};
//!
//! let mut sys = ChcSystem::new();
//! let p = sys.declare_pred("p", 2);
//! let x = sys.fresh_var("x");
//! let y = sys.fresh_var("y");
//! // x = 1 /\ y = 0 -> p(x, y)
//! let init = Formula::and(vec![
//!     Formula::from(Atom::eq_expr(LinExpr::var(x), LinExpr::constant(int(1)))),
//!     Formula::from(Atom::eq_expr(LinExpr::var(y), LinExpr::constant(int(0)))),
//! ]);
//! sys.fact(init, p, vec![LinExpr::var(x), LinExpr::var(y)]);
//! assert_eq!(sys.clauses().len(), 1);
//! ```

mod atom;
mod chc;
mod formula;
mod linexpr;
mod modatom;
mod model;
mod parser;
mod var;

pub use atom::Atom;
pub use chc::{
    Clause, ClauseHead, ClauseId, ChcSystem, Interpretation, PredApp, PredId, Predicate,
};
pub use formula::Formula;
pub use linexpr::LinExpr;
pub use modatom::ModAtom;
pub use model::Model;
pub use parser::{parse_chc, ParseChcError, MAX_NESTING};
pub use var::Var;

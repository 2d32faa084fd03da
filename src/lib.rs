//! # linarb — a data-driven CHC solver
//!
//! A from-scratch Rust reproduction of *"A Data-Driven CHC Solver"*
//! (He Zhu, Stephen Magill, Suresh Jagannathan, PLDI 2018) — the
//! **LinearArbitrary** system — including every substrate the paper's
//! tool depends on: exact big-number arithmetic, a CDCL SAT solver, a
//! QF_LIA SMT solver with models and Farkas certificates, the
//! machine-learning toolchain (recursive linear classification +
//! decision trees), the CEGAR sampling loop, a mini-C frontend, and
//! the evaluation's baseline solvers (PDR, interpolation, PIE- and
//! DIG-style learners).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`arith`] | `linarb-arith` | `BigInt` / `BigRational` |
//! | [`logic`] | `linarb-logic` | terms, atoms, formulas, CHC systems, SMT-LIB2 HORN parsing |
//! | [`sat`] | `linarb-sat` | CDCL SAT |
//! | [`smt`] | `linarb-smt` | DPLL(T) for linear integer arithmetic |
//! | [`ml`] | `linarb-ml` | Algorithms 1 & 2 (LinearArbitrary, decision trees) |
//! | [`solver`] | `linarb-solver` | Algorithm 3 (the CEGAR CHC solver) |
//! | [`frontend`] | `linarb-frontend` | mini-C → CHC |
//! | [`baselines`] | `linarb-baselines` | BMC, GPDR/Spacer, Duality/UAutomizer, PIE, DIG |
//! | [`portfolio`] | `linarb-portfolio` | races all engines, first checkable certificate wins |
//! | [`serve`] | `linarb-serve` | persistent daemon, invariant cache, batch scheduling |
//! | [`suite`] | `linarb-suite` | the benchmark corpus |
//!
//! # Quickstart
//!
//! Verify the paper's Fig. 1 program end to end:
//!
//! ```
//! use linarb::frontend::compile;
//! use linarb::smt::Budget;
//! use linarb::solver::{solve_system, SolverConfig};
//!
//! let sys = compile(r#"
//!     void main() {
//!         int x = 1; int y = 0;
//!         while (*) { x = x + y; y = y + 1; }
//!         assert(x >= y);
//!     }
//! "#)?;
//! let result = solve_system(&sys, SolverConfig::default(), &Budget::unlimited());
//! assert!(result.is_sat());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use linarb_arith as arith;
pub use linarb_baselines as baselines;
pub use linarb_frontend as frontend;
pub use linarb_logic as logic;
pub use linarb_ml as ml;
pub use linarb_portfolio as portfolio;
pub use linarb_sat as sat;
pub use linarb_serve as serve;
pub use linarb_smt as smt;
pub use linarb_solver as solver;
pub use linarb_suite as suite;
pub use linarb_trace as trace;

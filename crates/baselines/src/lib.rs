//! Baseline CHC solvers for the paper's evaluation (§6).
//!
//! The paper compares `LinearArbitrary` against four families of
//! tools; this crate implements a faithful scale model of each, all
//! speaking the same [`ChcSystem`](linarb_logic::ChcSystem) language:
//!
//! | Paper tool | Here | Mechanism |
//! |------------|------|-----------|
//! | Spacer \[19\] | [`PdrSolver`] ([`PdrMode::Spacer`]) | PDR + must summaries |
//! | GPDR \[17\] | [`PdrSolver`] ([`PdrMode::Gpdr`]) | PDR, re-derives |
//! | Duality \[24, 25\] | [`UnwindInterp`] ([`InterpMode::Duality`]) | unwinding + Farkas interpolation, batch |
//! | UAutomizer \[16\] | [`UnwindInterp`] ([`InterpMode::TraceRefinement`]) | trace-by-trace interpolation |
//! | PIE \[29\] | [`PieLearner`] | feature enumeration inside the CEGAR loop |
//! | DIG \[27\] | [`DigLearner`] | template equations inside the CEGAR loop |
//!
//! [`bmc`] (bounded model checking) underpins the tests and provides
//! refutation cross-checks.

mod bmc;
mod dig;
mod interp;
mod pdr;
mod pie;
mod util;

pub use bmc::{bmc, BmcResult};
pub use dig::DigLearner;
pub use interp::{InterpMode, InterpResult, UnwindInterp};
pub use pdr::{Cube, PdrMode, PdrResult, PdrSolver};
pub use pie::PieLearner;
pub use util::{instantiate_clause, ClauseInstance, FreshVars};

//! Mini-C frontend for the linarb CHC solver — the stand-in for the
//! paper's SeaHorn/LLVM pipeline.
//!
//! The crate provides a small C-like language ([`parse_program`]) and
//! verification-condition generation into Constrained Horn Clauses
//! ([`generate_chc`]), with the same clause shapes SeaHorn emits for
//! the paper's benchmarks: loop-head invariant predicates, function
//! summary predicates (non-linear CHCs for multi-call recursion like
//! `fibo`), and goal clauses per `assert`.
//!
//! # Examples
//!
//! ```
//! use linarb_frontend::{parse_program, generate_chc};
//!
//! let prog = parse_program(r#"
//!     void main() {
//!         int x = 1; int y = 0;
//!         while (*) { x = x + y; y = y + 1; }
//!         assert(x >= y);
//!     }
//! "#)?;
//! let sys = generate_chc(&prog)?;
//! assert!(sys.is_recursive());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod ast;
pub mod canon;
mod interp;
mod parser;
mod vcgen;

pub use ast::{CmpOp, Cond, Expr, Function, Program, Stmt};
pub use canon::{canonicalize, Canon};
pub use interp::{execute, ExecOutcome, NondetScript};
pub use parser::{parse_program, ParseError, MAX_NESTING};
pub use vcgen::{generate_chc, VcError};

/// Parses and compiles a mini-C source to CHCs in one step.
///
/// # Errors
///
/// Returns a boxed [`ParseError`] or [`VcError`].
pub fn compile(src: &str) -> Result<linarb_logic::ChcSystem, Box<dyn std::error::Error>> {
    let prog = parse_program(src)?;
    Ok(generate_chc(&prog)?)
}

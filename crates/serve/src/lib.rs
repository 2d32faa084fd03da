//! Solver-as-a-service: a persistent daemon with structural invariant
//! caching and batch scheduling (DESIGN.md §15).
//!
//! Verification workloads are repetitive: CI re-submits the same CHC
//! systems on every push, and small program edits yield systems that
//! are *structurally* near-identical to ones already solved. A
//! one-shot CLI pays full price every time. This crate keeps the
//! solver resident and exploits that repetition with a two-tier
//! persistent cache keyed on canonical CHC forms
//! ([`linarb_frontend::canonicalize`]):
//!
//! * **Exact tier.** Systems whose canonical *text* matches a cached
//!   entry get the memoized verdict back after a cheap independent
//!   re-check ([`linarb_solver::verify_interpretation`] for SAT,
//!   [`linarb_solver::DerivationNode::replay`] for UNSAT). A served
//!   hit is therefore never trusted blindly — staleness or a
//!   canonicalization bug costs a cache miss, not soundness.
//! * **Near tier.** Systems with no exact hit are matched to the
//!   closest cached neighbor by structural fingerprint overlap, and
//!   the neighbor's solver state — seed directions and learner
//!   negatives ([`linarb_solver::SolveSnapshot`]) plus its invariant
//!   atoms — warm starts the fresh solve.
//!
//! Fresh solves run the CEGAR engine on the stateless oracle
//! (`OracleMode::Fresh`), which carries no per-clause state between
//! checks and so none between jobs either.
//!
//! The daemon ([`server`]) speaks length-prefixed JSON frames
//! ([`linarb_trace::frame`]) over a Unix or TCP socket; batches are
//! spread over scoped threads by [`engine::ServeCore`],
//! which is also usable in-process (the repository benchmark and the
//! tests drive it without a socket). [`replay::variant`] generates
//! deterministic mutated variants of a base system — renamed,
//! reordered, scaled or perturbed — to exercise both cache tiers.

pub mod cache;
pub mod cli;
pub mod client;
pub mod engine;
pub mod proto;
pub mod replay;
pub mod server;

pub use cache::{CacheEntry, CachedVerdict, InvariantCache};
pub use engine::{JobInput, JobOutcome, ServeConfig, ServeCore, ServeStats, Source};
pub use proto::{parse_request, JobSpec, Request};
pub use server::{parse_addr, serve, BindAddr, Listener};

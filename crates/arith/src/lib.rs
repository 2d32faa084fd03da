//! Arbitrary-precision integer and rational arithmetic.
//!
//! The linarb CHC solver performs exact computations throughout: the
//! simplex core pivots on rationals, learned hyperplanes are
//! rationalized to integer coefficients, and Farkas certificates are
//! exact integer combinations. This crate provides the two number
//! types everything else is built on:
//!
//! * [`BigInt`] — an arbitrary-precision integer.
//! * [`BigRational`] — a normalized quotient of two [`BigInt`]s.
//!
//! Values that occur while solving CHCs are small (coefficients,
//! sample coordinates, pivot entries), so a [`BigInt`] keeps any value
//! that fits in an `i64` inline, with no heap allocation, and computes
//! on it with checked machine arithmetic. An operation that overflows
//! falls back to sign-magnitude `u32` limbs (schoolbook multiplication,
//! binary long division), and every result that fits in an `i64` again
//! is narrowed back, so each value has one representation. The fast
//! path computes exactly the values the limb code does.
//!
//! # Examples
//!
//! ```
//! use linarb_arith::{BigInt, BigRational};
//!
//! let a = BigInt::from(6);
//! let b = BigInt::from(-4);
//! assert_eq!((&a * &b).to_string(), "-24");
//! assert_eq!(BigInt::gcd(&a, &b), BigInt::from(2));
//!
//! let q = BigRational::new(BigInt::from(6), BigInt::from(-4));
//! assert_eq!(q.to_string(), "-3/2");
//! assert_eq!(q.floor(), BigInt::from(-2));
//! ```

mod bigint;
mod rational;

pub use bigint::{BigInt, ParseBigIntError};
pub use rational::{BigRational, ParseBigRationalError};

/// Convenience constructor for a [`BigInt`] from any primitive integer.
///
/// ```
/// use linarb_arith::int;
/// assert_eq!(int(-7).to_string(), "-7");
/// ```
pub fn int(v: i64) -> BigInt {
    BigInt::from(v)
}

/// Convenience constructor for a [`BigRational`] from an integer pair.
///
/// # Panics
///
/// Panics if `den == 0`.
///
/// ```
/// use linarb_arith::rat;
/// assert_eq!(rat(2, 4).to_string(), "1/2");
/// ```
pub fn rat(num: i64, den: i64) -> BigRational {
    BigRational::new(BigInt::from(num), BigInt::from(den))
}

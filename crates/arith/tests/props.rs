//! Property-based tests: BigInt/BigRational agree with i128 reference
//! semantics and satisfy ring/field/order laws.
//!
//! Randomness comes from the in-tree deterministic PRNG; each case's
//! seed is `base_seed + case_index`, so failures reproduce exactly.

use linarb_arith::{BigInt, BigRational};
use linarb_testutil::{any_i128, any_i64, cases, XorShiftRng};

const CASES: u64 = 256;

fn big(v: i128) -> BigInt {
    BigInt::from(v)
}

#[test]
fn add_matches_i128() {
    cases(CASES, 0xA001, |rng| {
        let a = rng.gen_range(-1_000_000_000_000i128..1_000_000_000_000);
        let b = rng.gen_range(-1_000_000_000_000i128..1_000_000_000_000);
        assert_eq!(&big(a) + &big(b), big(a + b));
    });
}

#[test]
fn mul_matches_i128() {
    cases(CASES, 0xA002, |rng| {
        let a = rng.gen_range(-1_000_000_000i128..1_000_000_000);
        let b = rng.gen_range(-1_000_000_000i128..1_000_000_000);
        assert_eq!(&big(a) * &big(b), big(a * b));
    });
}

#[test]
fn div_rem_matches_i128() {
    cases(CASES, 0xA003, |rng| {
        let a = any_i64(rng);
        let b = any_i64(rng);
        if b == 0 {
            return;
        }
        let (q, r) = big(a as i128).div_rem(&big(b as i128));
        assert_eq!(q, big((a as i128) / (b as i128)));
        assert_eq!(r, big((a as i128) % (b as i128)));
    });
}

#[test]
fn div_rem_reconstructs() {
    cases(CASES, 0xA004, |rng| {
        let a = any_i128(rng);
        let b = any_i128(rng);
        if b == 0 {
            return;
        }
        let (q, r) = big(a).div_rem(&big(b));
        assert_eq!(&(&q * &big(b)) + &r, big(a));
        assert!(r.abs() < big(b).abs());
    });
}

#[test]
fn floor_mod_in_range() {
    cases(CASES, 0xA005, |rng| {
        let a = any_i64(rng);
        let b = rng.gen_range(1i64..1_000_000);
        let m = big(a as i128).mod_floor(&big(b as i128));
        assert!(!m.is_negative());
        assert!(m < big(b as i128));
        let (q, r) = big(a as i128).div_mod_floor(&big(b as i128));
        assert_eq!(&(&q * &big(b as i128)) + &r, big(a as i128));
    });
}

#[test]
fn ordering_matches_i128() {
    cases(CASES, 0xA006, |rng| {
        let a = any_i128(rng);
        let b = any_i128(rng);
        assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
    });
}

#[test]
fn parse_display_roundtrip() {
    cases(CASES, 0xA007, |rng| {
        let v = big(any_i128(rng));
        let back: BigInt = v.to_string().parse().unwrap();
        assert_eq!(back, v);
    });
}

#[test]
fn gcd_divides_both() {
    cases(CASES, 0xA008, |rng| {
        let a = any_i64(rng);
        let b = any_i64(rng);
        let g = BigInt::gcd(&big(a as i128), &big(b as i128));
        if a != 0 || b != 0 {
            assert!(!g.is_zero());
            assert!(big(a as i128).div_rem(&g).1.is_zero());
            assert!(big(b as i128).div_rem(&g).1.is_zero());
        } else {
            assert!(g.is_zero());
        }
    });
}

#[test]
fn large_mul_div_roundtrip() {
    cases(CASES, 0xA009, |rng| {
        let a = any_i128(rng);
        let b = any_i128(rng);
        if a == 0 {
            return;
        }
        let prod = &big(a) * &big(b);
        let (q, r) = prod.div_rem(&big(a));
        assert_eq!(q, big(b));
        assert!(r.is_zero());
    });
}

#[test]
fn rational_field_laws() {
    let rat = |rng: &mut XorShiftRng| {
        BigRational::new(
            BigInt::from(rng.gen_range(-10_000i64..10_000)),
            BigInt::from(rng.gen_range(1i64..100)),
        )
    };
    cases(CASES, 0xA00A, |rng| {
        let a = rat(rng);
        let b = rat(rng);
        let c = rat(rng);
        // commutativity / associativity / distributivity
        assert_eq!(&a + &b, &b + &a);
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        assert_eq!(&a * &b, &b * &a);
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        // inverses
        assert_eq!(&a - &a, BigRational::zero());
        if !b.is_zero() {
            assert_eq!(&(&a / &b) * &b, a.clone());
        }
    });
}

#[test]
fn rational_order_total() {
    cases(CASES, 0xA00B, |rng| {
        let an = rng.gen_range(-1000i64..1000);
        let ad = rng.gen_range(1i64..50);
        let bn = rng.gen_range(-1000i64..1000);
        let bd = rng.gen_range(1i64..50);
        let a = BigRational::new(BigInt::from(an), BigInt::from(ad));
        let b = BigRational::new(BigInt::from(bn), BigInt::from(bd));
        let lhs = (an as i128) * (bd as i128);
        let rhs = (bn as i128) * (ad as i128);
        assert_eq!(a.cmp(&b), lhs.cmp(&rhs));
    });
}

#[test]
fn rational_floor_ceil() {
    cases(CASES, 0xA00C, |rng| {
        let an = rng.gen_range(-100_000i64..100_000);
        let ad = rng.gen_range(1i64..1000);
        let a = BigRational::new(BigInt::from(an), BigInt::from(ad));
        let fl = a.floor();
        let ce = a.ceil();
        assert!(BigRational::from(fl.clone()) <= a);
        assert!(a <= BigRational::from(ce.clone()));
        let diff = &ce - &fl;
        assert!(diff == BigInt::zero() || diff == BigInt::one());
    });
}

// ---------------------------------------------------- across the i64 edge
//
// Values that fit in an i64 are stored inline and everything else in
// limbs, so these cases cross that boundary in both directions.

fn hash_of(v: &BigInt) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `v` equals, compares equal to and hashes like the canonical `expected`.
fn assert_same(v: BigInt, expected: i128) {
    let e = big(expected);
    assert_eq!(v, e);
    assert_eq!(v.cmp(&e), std::cmp::Ordering::Equal);
    assert_eq!(hash_of(&v), hash_of(&e), "{v}");
    assert_eq!(v.to_i128(), Some(expected));
    assert_eq!(v.to_i64(), i64::try_from(expected).ok());
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut x, mut y) = (a.unsigned_abs(), b.unsigned_abs());
    while y != 0 {
        (x, y) = (y, x % y);
    }
    x as i128
}

/// An operand near `i64::MIN`, `i64::MAX`, zero or `±2^32`, sometimes
/// just outside the i64 range.
fn edge_operand(rng: &mut XorShiftRng) -> i128 {
    let near = rng.gen_range(-300i128..300);
    match rng.gen_range(0..5u32) {
        0 => i64::MIN as i128 + near,
        1 => i64::MAX as i128 + near,
        2 => near,
        3 => (1i128 << 32) + near,
        _ => -(1i128 << 32) + near,
    }
}

#[test]
fn edge_arithmetic_matches_i128() {
    cases(CASES * 4, 0xA00D, |rng| {
        let a = edge_operand(rng);
        let b = edge_operand(rng);
        let (x, y) = (big(a), big(b));
        assert_same(&x + &y, a + b);
        assert_same(&x - &y, a - b);
        assert_same(&x * &y, a * b);
        assert_same(-&x, -a);
        assert_same(-x.clone(), -a);
        assert_same(x.abs(), a.abs());
        assert_same(BigInt::gcd(&x, &y), gcd_i128(a, b));
        assert_eq!(x.cmp(&y), a.cmp(&b));
        if b != 0 {
            let (q, r) = x.div_rem(&y);
            assert_same(q, a / b);
            assert_same(r, a % b);
        }
    });
}

#[test]
fn i64_extremes() {
    let (min, max) = (i64::MIN as i128, i64::MAX as i128);
    let (q, r) = big(min).div_rem(&big(-1));
    assert_same(q, 1i128 << 63);
    assert_same(r, 0);
    assert_same(BigInt::gcd(&big(min), &big(0)), 1i128 << 63);
    assert_same(BigInt::gcd(&big(0), &big(min)), 1i128 << 63);
    assert_same(BigInt::gcd(&big(min), &big(min)), 1i128 << 63);
    assert_same(big(min).abs(), 1i128 << 63);
    assert_same(-big(min), 1i128 << 63);
    assert_same(-big(1i128 << 63), min);
    assert_same(&big(max) + &big(1), max + 1);
    assert_same(&big(min) - &big(1), min - 1);
    assert_same(&big(min) * &big(min), min * min);
    assert_same(&big(max) * &big(-1), -max);
    assert!(big(max) < big(max + 1));
    assert!(big(min - 1) < big(min));
    assert!(big(-(1i128 << 64)) < big(min));
}

#[test]
fn multi_limb_intermediates_narrow_back() {
    let two64 = big(1i128 << 64);
    assert_same(&(&two64 + &big(5)) - &two64, 5);
    assert_same(&(&two64 + &big(5)) + &(-&two64), 5);
    assert_same(&big(-5) - &(-&two64) - &two64, -5);
    assert_same(&(&two64 * &two64) / &two64, 1i128 << 64);
    assert_same(&(&two64 * &big(3)) / &two64, 3);
    assert_same(&(&two64 * &big(7)) % &(&two64 * &big(2)), 1i128 << 64);
    assert_same(&big((1i128 << 64) + 9) % &two64, 9);
    assert_same(
        BigInt::gcd(&(&two64 * &big(6)), &(&two64 * &big(4))),
        1i128 << 65,
    );
    assert_same(BigInt::gcd(&(&two64 + &big(1)), &big(2)), 1);
    let p: BigInt = "340282366920938463463374607431768211457".parse().unwrap();
    assert_same(&p - &(&p - &big(12)), 12);
    assert_eq!(
        BigInt::from(5).to_string(),
        (&(&two64 + &big(5)) - &two64).to_string()
    );
    // Rationals built from multi-limb parts reduce to small ones.
    let r = BigRational::new(&two64 * &big(3), &two64 * &big(-6));
    assert_eq!(r, BigRational::new(big(-1), big(2)));
    assert_eq!(hash_of(r.numer()), hash_of(&big(-1)));
}

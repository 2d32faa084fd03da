//! Arbitrary-precision integers with an inline `i64` fast path.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// An arbitrary-precision signed integer.
///
/// Representation: every value that fits in an `i64` is stored inline;
/// only values outside that range carry a heap-allocated sign-magnitude
/// limb vector. Every operation narrows its result back to the inline
/// form when it fits, so each value has exactly one representation and
/// derived equality and hashing are value equality and value hashing.
///
/// ```
/// use linarb_arith::BigInt;
/// let big: BigInt = "123456789012345678901234567890".parse()?;
/// assert_eq!((&big - &big), BigInt::zero());
/// # Ok::<(), linarb_arith::ParseBigIntError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Every value in `i64` range, and only those.
    Small(i64),
    /// Values outside `i64` range. Boxed so a `BigInt` stays two words.
    Large(Box<Limbs>),
}

/// Sign in `{-1, 1}` and a little-endian `u32` limb magnitude with no
/// trailing zero limbs.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Limbs {
    sign: i8,
    mag: Vec<u32>,
}

/// Error returned when parsing a [`BigInt`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError;

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal")
    }
}

impl std::error::Error for ParseBigIntError {}

// ---------------------------------------------------------------- magnitudes

fn mag_trim(mag: &mut Vec<u32>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn mag_cmp(a: &[u32], b: &[u32]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x.cmp(y);
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let s = long[i] as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
        out.push(s as u32);
        carry = s >> 32;
    }
    if carry != 0 {
        out.push(carry as u32);
    }
    out
}

/// Requires `a >= b`.
fn mag_sub(a: &[u32], b: &[u32]) -> Vec<u32> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i64;
    for i in 0..a.len() {
        let d = a[i] as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
        if d < 0 {
            out.push((d + (1i64 << 32)) as u32);
            borrow = 1;
        } else {
            out.push(d as u32);
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0);
    mag_trim(&mut out);
    out
}

fn mag_mul(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u32; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u64;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u64 + x as u64 * y as u64 + carry;
            out[i + j] = cur as u32;
            carry = cur >> 32;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u64 + carry;
            out[k] = cur as u32;
            carry = cur >> 32;
            k += 1;
        }
    }
    mag_trim(&mut out);
    out
}

fn mag_bits(a: &[u32]) -> usize {
    match a.last() {
        None => 0,
        Some(&hi) => (a.len() - 1) * 32 + (32 - hi.leading_zeros() as usize),
    }
}

fn mag_bit(a: &[u32], i: usize) -> bool {
    let limb = i / 32;
    limb < a.len() && (a[limb] >> (i % 32)) & 1 == 1
}

fn mag_shl1(a: &mut Vec<u32>) {
    let mut carry = 0u32;
    for limb in a.iter_mut() {
        let next = *limb >> 31;
        *limb = (*limb << 1) | carry;
        carry = next;
    }
    if carry != 0 {
        a.push(carry);
    }
}

/// Divide by a single limb; returns (quotient, remainder).
fn mag_divrem_limb(a: &[u32], d: u32) -> (Vec<u32>, u32) {
    debug_assert!(d != 0);
    let mut q = vec![0u32; a.len()];
    let mut rem = 0u64;
    for i in (0..a.len()).rev() {
        let cur = (rem << 32) | a[i] as u64;
        q[i] = (cur / d as u64) as u32;
        rem = cur % d as u64;
    }
    mag_trim(&mut q);
    (q, rem as u32)
}

/// General magnitude division: binary long division. Returns (q, r).
fn mag_divrem(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
    debug_assert!(!b.is_empty(), "division by zero magnitude");
    if mag_cmp(a, b) == Ordering::Less {
        return (Vec::new(), a.to_vec());
    }
    if b.len() == 1 {
        let (q, r) = mag_divrem_limb(a, b[0]);
        return (q, if r == 0 { Vec::new() } else { vec![r] });
    }
    let bits = mag_bits(a);
    let mut q = vec![0u32; a.len()];
    let mut rem: Vec<u32> = Vec::new();
    for i in (0..bits).rev() {
        mag_shl1(&mut rem);
        if mag_bit(a, i) {
            if rem.is_empty() {
                rem.push(1);
            } else {
                rem[0] |= 1;
            }
        }
        if mag_cmp(&rem, b) != Ordering::Less {
            rem = mag_sub(&rem, b);
            q[i / 32] |= 1 << (i % 32);
        }
    }
    mag_trim(&mut q);
    (q, rem)
}

/// The limbs of `|v|` in `buf`, trimmed.
fn small_limbs(v: i64, buf: &mut [u32; 2]) -> &[u32] {
    let u = v.unsigned_abs();
    *buf = [u as u32, (u >> 32) as u32];
    let len = if u == 0 { 0 } else if u >> 32 == 0 { 1 } else { 2 };
    &buf[..len]
}

/// `sa·|ma| + sb·|mb|` on sign-magnitude operands.
fn add_signed(sa: i8, ma: &[u32], sb: i8, mb: &[u32]) -> BigInt {
    if sa == 0 {
        return BigInt::from_mag(sb, mb.to_vec());
    }
    if sb == 0 {
        return BigInt::from_mag(sa, ma.to_vec());
    }
    if sa == sb {
        return BigInt::from_mag(sa, mag_add(ma, mb));
    }
    match mag_cmp(ma, mb) {
        Ordering::Equal => BigInt::zero(),
        Ordering::Greater => BigInt::from_mag(sa, mag_sub(ma, mb)),
        Ordering::Less => BigInt::from_mag(sb, mag_sub(mb, ma)),
    }
}

// ------------------------------------------------------------------- BigInt

impl BigInt {
    /// The integer `0`.
    pub fn zero() -> BigInt {
        BigInt(Repr::Small(0))
    }

    /// The integer `1`.
    pub fn one() -> BigInt {
        BigInt(Repr::Small(1))
    }

    /// The integer `-1`.
    pub fn minus_one() -> BigInt {
        BigInt(Repr::Small(-1))
    }

    /// Returns `true` if `self == 0`.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// Returns `true` if `self == 1`.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// Returns `true` if `self > 0`.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// Returns `true` if `self < 0`.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// Sign of the value: `-1`, `0` or `1`.
    pub fn signum(&self) -> i8 {
        match &self.0 {
            Repr::Small(v) => v.signum() as i8,
            Repr::Large(l) => l.sign,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.0 {
            Repr::Small(v) => match v.checked_abs() {
                Some(a) => BigInt(Repr::Small(a)),
                None => BigInt::from(v.unsigned_abs() as i128),
            },
            // Outside i64 range on either side, |v| is too.
            Repr::Large(l) => BigInt::large(1, l.mag.clone()),
        }
    }

    /// `true` if the low bit is clear.
    pub fn is_even(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => v & 1 == 0,
            Repr::Large(l) => l.mag[0] & 1 == 0,
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> usize {
        match &self.0 {
            Repr::Small(v) => 64 - v.unsigned_abs().leading_zeros() as usize,
            Repr::Large(l) => mag_bits(&l.mag),
        }
    }

    fn large(sign: i8, mag: Vec<u32>) -> BigInt {
        BigInt(Repr::Large(Box::new(Limbs { sign, mag })))
    }

    /// Sign and magnitude, with an inline value's limbs written to `buf`.
    fn parts<'a>(&'a self, buf: &'a mut [u32; 2]) -> (i8, &'a [u32]) {
        match &self.0 {
            Repr::Small(v) => (v.signum() as i8, small_limbs(*v, buf)),
            Repr::Large(l) => (l.sign, &l.mag),
        }
    }

    /// The canonical value `sign·|mag|`: inline whenever it fits.
    fn from_mag(sign: i8, mut mag: Vec<u32>) -> BigInt {
        mag_trim(&mut mag);
        if mag.len() <= 2 {
            let u = mag.iter().rev().fold(0u64, |acc, &l| acc << 32 | l as u64);
            if sign >= 0 && u <= i64::MAX as u64 {
                return BigInt(Repr::Small(u as i64));
            }
            if sign < 0 && u <= 1 << 63 {
                return BigInt(Repr::Small((u as i64).wrapping_neg()));
            }
        }
        BigInt::large(sign, mag)
    }

    /// Truncated division with remainder: `self = q * d + r`, `|r| < |d|`,
    /// and `r` has the sign of `self` (like Rust's `/` and `%` on
    /// primitives).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem(&self, d: &BigInt) -> (BigInt, BigInt) {
        assert!(!d.is_zero(), "BigInt division by zero");
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &d.0) {
            return match a.checked_div(*b) {
                Some(q) => (BigInt(Repr::Small(q)), BigInt(Repr::Small(a % b))),
                // i64::MIN / -1
                None => (BigInt::from(-(*a as i128)), BigInt::zero()),
            };
        }
        let (mut ba, mut bd) = ([0; 2], [0; 2]);
        let (sa, ma) = self.parts(&mut ba);
        let (sd, md) = d.parts(&mut bd);
        let (qm, rm) = mag_divrem(ma, md);
        (BigInt::from_mag(sa * sd, qm), BigInt::from_mag(sa, rm))
    }

    /// Euclidean/floor division: rounds the quotient toward negative
    /// infinity, so the remainder is always in `[0, |d|)` for `d > 0`.
    ///
    /// This is the semantics the frontend uses to lower `%` by a
    /// positive constant into linear arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_mod_floor(&self, d: &BigInt) -> (BigInt, BigInt) {
        let (q, r) = self.div_rem(d);
        if r.is_zero() || r.signum() == d.signum() {
            (q, r)
        } else {
            (&q - &BigInt::one(), &r + d)
        }
    }

    /// Floor modulus; see [`BigInt::div_mod_floor`].
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn mod_floor(&self, d: &BigInt) -> BigInt {
        self.div_mod_floor(d).1
    }

    /// Greatest common divisor (always non-negative; `gcd(0,0) = 0`).
    pub fn gcd(a: &BigInt, b: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&a.0, &b.0) {
            let (mut x, mut y) = (a.unsigned_abs(), b.unsigned_abs());
            while y != 0 {
                (x, y) = (y, x % y);
            }
            // gcd(i64::MIN, 0) = 2^63 does not fit an i64.
            return BigInt::from(x as i128);
        }
        let mut x = a.abs();
        let mut y = b.abs();
        while !y.is_zero() {
            let r = x.div_rem(&y).1.abs();
            x = y;
            y = r;
        }
        x
    }

    /// Least common multiple (non-negative; `lcm(x,0) = 0`).
    pub fn lcm(a: &BigInt, b: &BigInt) -> BigInt {
        if a.is_zero() || b.is_zero() {
            return BigInt::zero();
        }
        let g = BigInt::gcd(a, b);
        (&(a / &g) * b).abs()
    }

    /// Raise to a small power.
    pub fn pow(&self, mut e: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = &acc * &base;
            }
            e >>= 1;
            if e > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Convert to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Large(_) => None,
        }
    }

    /// Convert to `i128` if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        let l = match &self.0 {
            Repr::Small(v) => return Some(*v as i128),
            Repr::Large(l) => l,
        };
        if l.mag.len() > 4 {
            return None;
        }
        let v = l.mag.iter().rev().fold(0u128, |acc, &x| acc << 32 | x as u128);
        match l.sign {
            1 if v <= i128::MAX as u128 => Some(v as i128),
            -1 if v <= i128::MAX as u128 + 1 => Some(v.wrapping_neg() as i128),
            _ => None,
        }
    }

    /// Lossy conversion to `f64` (used only for ML scoring, never for
    /// logical decisions).
    pub fn to_f64(&self) -> f64 {
        // Both branches round |v| once, to nearest, then apply the sign.
        let (sign, v) = match &self.0 {
            Repr::Small(v) => (v.signum() as i8, v.unsigned_abs() as f64),
            Repr::Large(l) => {
                (l.sign, l.mag.iter().rev().fold(0.0f64, |v, &x| v * 4294967296.0 + x as f64))
            }
        };
        if sign < 0 {
            -v
        } else {
            v
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> BigInt {
        BigInt(Repr::Small(v))
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> BigInt {
        BigInt(Repr::Small(v as i64))
    }
}

impl From<u32> for BigInt {
    fn from(v: u32) -> BigInt {
        BigInt(Repr::Small(v as i64))
    }
}

impl From<usize> for BigInt {
    fn from(v: usize) -> BigInt {
        BigInt::from(v as i128)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        if let Ok(small) = i64::try_from(v) {
            return BigInt(Repr::Small(small));
        }
        let mut u = v.unsigned_abs();
        let mut mag = Vec::new();
        while u != 0 {
            mag.push(u as u32);
            u >>= 32;
        }
        BigInt::large(if v < 0 { -1 } else { 1 }, mag)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return a.cmp(b);
        }
        let (mut ba, mut bb) = ([0; 2], [0; 2]);
        let (sa, ma) = self.parts(&mut ba);
        let (sb, mb) = other.parts(&mut bb);
        match sa.cmp(&sb) {
            Ordering::Equal => {}
            ord => return ord,
        }
        let m = mag_cmp(ma, mb);
        if sa < 0 {
            m.reverse()
        } else {
            m
        }
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l = match &self.0 {
            Repr::Small(v) => return write!(f, "{v}"),
            Repr::Large(l) => l,
        };
        let mut digits = Vec::new();
        let mut mag = l.mag.clone();
        while !mag.is_empty() {
            let (q, r) = mag_divrem_limb(&mag, 1_000_000_000);
            digits.push(r);
            mag = q;
        }
        let mut s = String::new();
        if l.sign < 0 {
            s.push('-');
        }
        s.push_str(&digits.last().unwrap().to_string());
        for d in digits.iter().rev().skip(1) {
            s.push_str(&format!("{d:09}"));
        }
        write!(f, "{s}")
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError);
        }
        let mut acc = BigInt::zero();
        let ten9 = BigInt::from(1_000_000_000i64);
        let bytes = body.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let take = (bytes.len() - i).min(9);
            let chunk: u32 = body[i..i + take].parse().map_err(|_| ParseBigIntError)?;
            let scale = BigInt::from(10i64.pow(take as u32));
            acc = &(&acc * if take == 9 { &ten9 } else { &scale }) + &BigInt::from(chunk);
            i += take;
        }
        if neg {
            acc = -acc;
        }
        Ok(acc)
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.0 {
            Repr::Small(_) => -&self,
            // 2^63 narrows to i64::MIN.
            Repr::Large(l) => BigInt::from_mag(-l.sign, l.mag),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match &self.0 {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => BigInt(Repr::Small(n)),
                None => BigInt::from(-(*v as i128)),
            },
            Repr::Large(l) => BigInt::from_mag(-l.sign, l.mag.clone()),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            return match a.checked_add(*b) {
                Some(s) => BigInt(Repr::Small(s)),
                None => BigInt::from(*a as i128 + *b as i128),
            };
        }
        let (mut ba, mut bb) = ([0; 2], [0; 2]);
        let (sa, ma) = self.parts(&mut ba);
        let (sb, mb) = rhs.parts(&mut bb);
        add_signed(sa, ma, sb, mb)
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            return match a.checked_sub(*b) {
                Some(d) => BigInt(Repr::Small(d)),
                None => BigInt::from(*a as i128 - *b as i128),
            };
        }
        let (mut ba, mut bb) = ([0; 2], [0; 2]);
        let (sa, ma) = self.parts(&mut ba);
        let (sb, mb) = rhs.parts(&mut bb);
        add_signed(sa, ma, -sb, mb)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            return match a.checked_mul(*b) {
                Some(p) => BigInt(Repr::Small(p)),
                // |a·b| ≤ 2^126 always fits an i128.
                None => BigInt::from(*a as i128 * *b as i128),
            };
        }
        let (mut ba, mut bb) = ([0; 2], [0; 2]);
        let (sa, ma) = self.parts(&mut ba);
        let (sb, mb) = rhs.parts(&mut bb);
        BigInt::from_mag(sa * sb, mag_mul(ma, mb))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl Sum for BigInt {
    fn sum<I: Iterator<Item = BigInt>>(iter: I) -> BigInt {
        iter.fold(BigInt::zero(), |a, b| &a + &b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn roundtrip_i128() {
        for v in [0i128, 1, -1, 42, -9_000_000_000, i64::MAX as i128, i64::MIN as i128] {
            assert_eq!(b(v).to_i128(), Some(v));
        }
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(&b(3) + &b(4), b(7));
        assert_eq!(&b(3) - &b(4), b(-1));
        assert_eq!(&b(-3) + &b(-4), b(-7));
        assert_eq!(&b(-3) - &b(-4), b(1));
        assert_eq!(&b(0) + &b(0), b(0));
    }

    #[test]
    fn mul_carry_chains() {
        let x = b(u32::MAX as i128);
        assert_eq!(&x * &x, b((u32::MAX as i128) * (u32::MAX as i128)));
        assert_eq!(&b(0) * &x, b(0));
        assert_eq!(&b(-5) * &b(7), b(-35));
    }

    #[test]
    fn div_rem_truncates_toward_zero() {
        assert_eq!(b(7).div_rem(&b(2)), (b(3), b(1)));
        assert_eq!(b(-7).div_rem(&b(2)), (b(-3), b(-1)));
        assert_eq!(b(7).div_rem(&b(-2)), (b(-3), b(1)));
        assert_eq!(b(-7).div_rem(&b(-2)), (b(3), b(-1)));
    }

    #[test]
    fn floor_division() {
        assert_eq!(b(-7).div_mod_floor(&b(2)), (b(-4), b(1)));
        assert_eq!(b(7).div_mod_floor(&b(2)), (b(3), b(1)));
        assert_eq!(b(-6).mod_floor(&b(3)), b(0));
        assert_eq!(b(-5).mod_floor(&b(3)), b(1));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = b(1).div_rem(&b(0));
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(BigInt::gcd(&b(12), &b(18)), b(6));
        assert_eq!(BigInt::gcd(&b(-12), &b(18)), b(6));
        assert_eq!(BigInt::gcd(&b(0), &b(0)), b(0));
        assert_eq!(BigInt::gcd(&b(0), &b(-5)), b(5));
        assert_eq!(BigInt::lcm(&b(4), &b(6)), b(12));
        assert_eq!(BigInt::lcm(&b(4), &b(0)), b(0));
    }

    #[test]
    fn ordering_across_signs() {
        assert!(b(-10) < b(-2));
        assert!(b(-2) < b(0));
        assert!(b(0) < b(3));
        assert!(b(3) < b(10));
        let huge: BigInt = "9999999999999999999999999999999999999999".parse().unwrap();
        assert!(b(i128::MAX) < huge);
        assert!(-&huge < b(i128::MIN));
    }

    #[test]
    fn display_parse_roundtrip_large() {
        let s = "123456789012345678901234567890123456789";
        let v: BigInt = s.parse().unwrap();
        assert_eq!(v.to_string(), s);
        let neg: BigInt = format!("-{s}").parse().unwrap();
        assert_eq!(neg.to_string(), format!("-{s}"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
        assert!("--3".parse::<BigInt>().is_err());
    }

    #[test]
    fn pow_small() {
        assert_eq!(b(2).pow(10), b(1024));
        assert_eq!(b(-3).pow(3), b(-27));
        assert_eq!(b(5).pow(0), b(1));
        assert_eq!(b(0).pow(0), b(1));
    }

    #[test]
    fn large_division() {
        let a: BigInt = "340282366920938463463374607431768211457".parse().unwrap();
        let d: BigInt = "18446744073709551629".parse().unwrap();
        let (q, r) = a.div_rem(&d);
        assert_eq!(&(&q * &d) + &r, a);
        assert!(r < d);
        assert!(!r.is_negative());
    }

    #[test]
    fn to_f64_sane() {
        assert_eq!(b(0).to_f64(), 0.0);
        assert_eq!(b(-3).to_f64(), -3.0);
        assert!((b(1i128 << 40).to_f64() - (1u64 << 40) as f64).abs() < 1e-6);
    }

    #[test]
    fn inline_values_stay_two_words() {
        assert_eq!(std::mem::size_of::<BigInt>(), 16);
        assert!(matches!(b(i64::MAX as i128).0, Repr::Small(_)));
        assert!(matches!(b(i64::MIN as i128).0, Repr::Small(_)));
        assert!(matches!(b(i64::MAX as i128 + 1).0, Repr::Large(_)));
        assert!(matches!((-&b(1i128 << 63)).0, Repr::Small(i64::MIN)));
    }

    #[test]
    fn is_even_and_bits() {
        assert!(b(0).is_even());
        assert!(b(-4).is_even());
        assert!(!b(7).is_even());
        assert_eq!(b(0).bits(), 0);
        assert_eq!(b(1).bits(), 1);
        assert_eq!(b(255).bits(), 8);
        assert_eq!(b(256).bits(), 9);
        assert_eq!(b(i64::MIN as i128).bits(), 64);
        assert_eq!(b(1i128 << 64).bits(), 65);
        assert!(b(1i128 << 64).is_even());
    }
}

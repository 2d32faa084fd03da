//! Linear expressions over integer variables.

use crate::model::Model;
use crate::var::Var;
use linarb_arith::BigInt;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A linear expression `Σ aᵢ·xᵢ + c` with exact integer coefficients.
///
/// The representation is canonical: the terms are kept sorted by
/// variable with each variable at most once, and zero coefficients are
/// never stored, so structural equality is semantic equality.
///
/// ```
/// use linarb_arith::int;
/// use linarb_logic::{LinExpr, Var};
/// let x = Var::from_index(0);
/// let y = Var::from_index(1);
/// let e = LinExpr::var(x).scale(&int(2)) + LinExpr::var(y) + LinExpr::constant(int(-3));
/// assert_eq!(e.coeff(x), int(2));
/// assert_eq!(e.constant_term(), &int(-3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    /// Sorted by variable, no repeats, no zero coefficients.
    terms: Vec<(Var, BigInt)>,
    konst: BigInt,
}

/// Sorts `terms` by variable, sums repeated variables and drops the
/// zero sums.
fn normalize(mut terms: Vec<(Var, BigInt)>) -> Vec<(Var, BigInt)> {
    terms.sort_by_key(|(v, _)| *v);
    let mut out: Vec<(Var, BigInt)> = Vec::with_capacity(terms.len());
    for (v, c) in terms {
        match out.last_mut() {
            Some((w, acc)) if *w == v => *acc += &c,
            _ => out.push((v, c)),
        }
    }
    out.retain(|(_, c)| !c.is_zero());
    out
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: BigInt) -> LinExpr {
        LinExpr { terms: Vec::new(), konst: c }
    }

    /// The expression `1·v`.
    pub fn var(v: Var) -> LinExpr {
        LinExpr::term(v, BigInt::one())
    }

    /// The expression `coeff·v`.
    pub fn term(v: Var, coeff: BigInt) -> LinExpr {
        let terms = if coeff.is_zero() { Vec::new() } else { vec![(v, coeff)] };
        LinExpr { terms, konst: BigInt::zero() }
    }

    /// Builds an expression from `(variable, coefficient)` pairs plus a
    /// constant; repeated variables are summed.
    pub fn from_terms<I: IntoIterator<Item = (Var, BigInt)>>(pairs: I, konst: BigInt) -> LinExpr {
        LinExpr { terms: normalize(pairs.into_iter().collect()), konst }
    }

    /// Adds `coeff·v` in place.
    pub fn add_term(&mut self, v: Var, coeff: &BigInt) {
        if coeff.is_zero() {
            return;
        }
        match self.terms.binary_search_by_key(&v, |(w, _)| *w) {
            Ok(i) => {
                self.terms[i].1 += coeff;
                if self.terms[i].1.is_zero() {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (v, coeff.clone())),
        }
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: &BigInt) {
        self.konst = &self.konst + c;
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Var) -> BigInt {
        match self.terms.binary_search_by_key(&v, |(w, _)| *w) {
            Ok(i) => self.terms[i].1.clone(),
            Err(_) => BigInt::zero(),
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> &BigInt {
        &self.konst
    }

    /// Iterates over `(variable, coefficient)` pairs in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (Var, &BigInt)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, c))
    }

    /// Number of variables with non-zero coefficient.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the expression mentions no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates the variables mentioned.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().map(|(v, _)| *v)
    }

    /// Multiplies every coefficient and the constant by `k`.
    pub fn scale(&self, k: &BigInt) -> LinExpr {
        if k.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self.terms.iter().map(|(v, c)| (*v, c * k)).collect(),
            konst: &self.konst * k,
        }
    }

    /// Evaluates under a model; unassigned variables default to `0`.
    pub fn eval(&self, model: &Model) -> BigInt {
        let mut acc = self.konst.clone();
        for (v, c) in &self.terms {
            acc = &acc + &(c * &model.value(*v));
        }
        acc
    }

    /// Substitutes variables by expressions. Variables without a
    /// mapping are left in place.
    pub fn subst(&self, map: &HashMap<Var, LinExpr>) -> LinExpr {
        let mut out = LinExpr::constant(self.konst.clone());
        for (v, c) in &self.terms {
            match map.get(v) {
                Some(e) => out = &out + &e.scale(c),
                None => out.add_term(*v, c),
            }
        }
        out
    }

    /// Renames variables through `map`; unmapped variables are kept.
    pub fn rename(&self, map: &HashMap<Var, Var>) -> LinExpr {
        LinExpr {
            terms: normalize(
                self.terms.iter().map(|(v, c)| (*map.get(v).unwrap_or(v), c.clone())).collect(),
            ),
            konst: self.konst.clone(),
        }
    }

    /// GCD of the variable coefficients (zero if constant).
    pub fn coeff_gcd(&self) -> BigInt {
        self.terms
            .iter()
            .fold(BigInt::zero(), |g, (_, c)| BigInt::gcd(&g, c))
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                if c.is_one() {
                    write!(f, "{v}")?;
                } else if *c == BigInt::minus_one() {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if c.is_negative() {
                let a = c.abs();
                if a.is_one() {
                    write!(f, " - {v}")?;
                } else {
                    write!(f, " - {a}*{v}")?;
                }
            } else if c.is_one() {
                write!(f, " + {v}")?;
            } else {
                write!(f, " + {c}*{v}")?;
            }
        }
        if first {
            write!(f, "{}", self.konst)?;
        } else if self.konst.is_positive() {
            write!(f, " + {}", self.konst)?;
        } else if self.konst.is_negative() {
            write!(f, " - {}", self.konst.abs())?;
        }
        Ok(())
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl Add for &LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: &LinExpr) -> LinExpr {
        // Merge of two sorted term lists.
        let (a, b) = (&self.terms, &rhs.terms);
        let mut terms = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    terms.push(a[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    terms.push(b[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    let c = &a[i].1 + &b[j].1;
                    if !c.is_zero() {
                        terms.push((a[i].0, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&a[i..]);
        terms.extend_from_slice(&b[j..]);
        LinExpr { terms, konst: &self.konst + &rhs.konst }
    }
}

impl Sub for &LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: &LinExpr) -> LinExpr {
        self + &(-rhs)
    }
}

impl Neg for &LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scale(&BigInt::minus_one())
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        -&self
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        &self + &rhs
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        &self - &rhs
    }
}

impl Mul<&BigInt> for &LinExpr {
    type Output = LinExpr;
    fn mul(self, k: &BigInt) -> LinExpr {
        self.scale(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linarb_arith::int;

    fn v(i: u32) -> Var {
        Var::from_index(i)
    }

    #[test]
    fn canonical_zero_coeffs() {
        let e = LinExpr::from_terms([(v(0), int(2)), (v(0), int(-2))], int(5));
        assert!(e.is_constant());
        assert_eq!(e, LinExpr::constant(int(5)));
    }

    #[test]
    fn add_sub_scale() {
        let e = LinExpr::from_terms([(v(0), int(1)), (v(1), int(2))], int(3));
        let f = LinExpr::from_terms([(v(0), int(-1)), (v(2), int(1))], int(-3));
        let sum = &e + &f;
        assert_eq!(sum.coeff(v(0)), int(0));
        assert_eq!(sum.coeff(v(1)), int(2));
        assert_eq!(sum.coeff(v(2)), int(1));
        assert_eq!(sum.constant_term(), &int(0));
        assert_eq!((&e - &e), LinExpr::zero());
        assert_eq!(e.scale(&int(0)), LinExpr::zero());
        assert_eq!(e.scale(&int(-2)).coeff(v(1)), int(-4));
    }

    #[test]
    fn eval_default_zero() {
        let e = LinExpr::from_terms([(v(0), int(2)), (v(1), int(-1))], int(7));
        let mut m = Model::new();
        m.assign(v(0), int(3));
        assert_eq!(e.eval(&m), int(13)); // 2*3 - 0 + 7
        m.assign(v(1), int(5));
        assert_eq!(e.eval(&m), int(8));
    }

    #[test]
    fn subst_composes() {
        // e = x + 2y, substitute x := y - 1 gives 3y - 1
        let e = LinExpr::from_terms([(v(0), int(1)), (v(1), int(2))], int(0));
        let mut map = HashMap::new();
        map.insert(v(0), LinExpr::from_terms([(v(1), int(1))], int(-1)));
        let s = e.subst(&map);
        assert_eq!(s.coeff(v(1)), int(3));
        assert_eq!(s.constant_term(), &int(-1));
    }

    #[test]
    fn rename_merges() {
        // x + y with both renamed to z merges coefficients
        let e = LinExpr::from_terms([(v(0), int(1)), (v(1), int(1))], int(0));
        let map: HashMap<Var, Var> = [(v(0), v(9)), (v(1), v(9))].into_iter().collect();
        let r = e.rename(&map);
        assert_eq!(r.coeff(v(9)), int(2));
        assert_eq!(r.num_terms(), 1);
    }

    fn ascending(e: &LinExpr) -> bool {
        e.terms().zip(e.terms().skip(1)).all(|((a, _), (b, _))| a < b)
    }

    #[test]
    fn terms_iterate_in_ascending_var_order() {
        // The theory tags atoms in term order, so its cores depend on it.
        let e = LinExpr::from_terms(
            [(v(7), int(1)), (v(2), int(3)), (v(5), int(-1)), (v(2), int(1)), (v(0), int(4))],
            int(0),
        );
        assert!(ascending(&e));
        let order: Vec<Var> = e.vars().collect();
        assert_eq!(order, vec![v(0), v(2), v(5), v(7)]);
        assert_eq!(e.coeff(v(2)), int(4));

        // Cancellation removes the entry and keeps the rest in order.
        let mut f = e.clone();
        f.add_term(v(2), &int(-4));
        assert!(ascending(&f));
        assert_eq!(f.vars().collect::<Vec<_>>(), vec![v(0), v(5), v(7)]);
        f.add_term(v(3), &int(2));
        f.add_term(v(9), &int(1));
        assert!(ascending(&f));
        assert_eq!(f.vars().collect::<Vec<_>>(), vec![v(0), v(3), v(5), v(7), v(9)]);

        // Renaming reverses the order of the input, and merges two
        // terms into one: it cancels in `h` and survives in `g`.
        let map: HashMap<Var, Var> =
            [(v(0), v(8)), (v(5), v(1)), (v(7), v(1)), (v(2), v(6))].into_iter().collect();
        let g = LinExpr::from_terms(
            [(v(0), int(1)), (v(2), int(1)), (v(5), int(3)), (v(7), int(2))],
            int(0),
        )
        .rename(&map);
        assert!(ascending(&g));
        assert_eq!(g.vars().collect::<Vec<_>>(), vec![v(1), v(6), v(8)]);
        assert_eq!(g.coeff(v(1)), int(5));
        let h = e.rename(&map);
        assert!(ascending(&h));
        assert_eq!(h.vars().collect::<Vec<_>>(), vec![v(6), v(8)]);
        assert_eq!((h.coeff(v(6)), h.coeff(v(8))), (int(4), int(4)));

        // Sums and subtractions merge in order.
        assert!(ascending(&(&e + &g)));
        assert!(ascending(&(&g - &e)));
    }

    #[test]
    fn display_pretty() {
        let e = LinExpr::from_terms([(v(0), int(1)), (v(1), int(-3))], int(2));
        assert_eq!(e.to_string(), "v0 - 3*v1 + 2");
        assert_eq!(LinExpr::zero().to_string(), "0");
        assert_eq!(LinExpr::constant(int(-4)).to_string(), "-4");
    }

    #[test]
    fn coeff_gcd() {
        let e = LinExpr::from_terms([(v(0), int(4)), (v(1), int(-6))], int(3));
        assert_eq!(e.coeff_gcd(), int(2));
        assert_eq!(LinExpr::constant(int(3)).coeff_gcd(), int(0));
    }
}

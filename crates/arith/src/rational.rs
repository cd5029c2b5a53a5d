//! Exact rational numbers over [`BigInt`].
//!
//! A [`Rational`] is always stored in canonical form: the denominator is
//! strictly positive and `gcd(|numerator|, denominator) == 1` (with `0`
//! represented as `0/1`). Equality and ordering are therefore exact and cheap.
//!
//! # Fast paths
//!
//! Because [`BigInt`] stores every `i64`-sized value inline, a rational whose
//! numerator and denominator both fit in `i64` occupies no heap at all. Every
//! arithmetic operation first tries an `i128` cross-multiplication fast path
//! (the products of two `i64`s always fit in `i128`), normalizing with the
//! machine binary GCD ([`crate::gcd_u64`]/[`gcd_u128`]) without building a
//! `BigInt`; only results that overflow the checked `i128` arithmetic fall
//! back to the general `BigInt` path, which normalizes with [`BigInt::gcd`]
//! (Lehmer's algorithm, no allocation per step) and two exact divisions.
//!
//! # Deferred normalization (gcd-light fused ops)
//!
//! The exact simplex solver spends almost all of its time in row updates of
//! the form `x ← x − f·p`. Computed naively that is two canonicalizing
//! operations (one multiply, one subtract), i.e. two GCD normalizations per
//! element. [`Rational::sub_mul_assign`] / [`Rational::add_mul_assign`] fuse
//! the multiply into the addition over a common denominator and normalize
//! exactly **once**, and [`Rational::cmp_div`] compares two quotients without
//! materializing (or normalizing) either of them — the minimum-ratio test
//! needs no division at all.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use core::str::FromStr;

use crate::bigint::{BigInt, Sign};
use crate::gcd::gcd_u128;

/// An exact rational number.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    numer: BigInt,
    denom: BigInt,
}

impl Rational {
    /// The value `0`.
    pub fn zero() -> Rational {
        Rational {
            numer: BigInt::zero(),
            denom: BigInt::one(),
        }
    }

    /// The value `1`.
    pub fn one() -> Rational {
        Rational {
            numer: BigInt::one(),
            denom: BigInt::one(),
        }
    }

    /// Views the value as machine integers when both parts fit in `i64`
    /// (exactly the case where [`BigInt`] stores them inline).
    #[inline]
    fn small_parts(&self) -> Option<(i64, i64)> {
        Some((self.numer.to_i64()?, self.denom.to_i64()?))
    }

    /// Builds the canonical rational for `numer / denom` given as `i128`s.
    /// `denom` must be nonzero; both magnitudes must stay clear of
    /// `i128::MIN` (guaranteed for cross-products of `i64`s).
    fn from_i128_frac(mut numer: i128, mut denom: i128) -> Rational {
        debug_assert!(denom != 0, "rational with zero denominator");
        if numer == 0 {
            return Rational::zero();
        }
        if denom < 0 {
            numer = -numer;
            denom = -denom;
        }
        let g = gcd_u128(numer.unsigned_abs(), denom.unsigned_abs());
        if g > 1 {
            numer /= g as i128;
            denom /= g as i128;
        }
        Rational {
            numer: BigInt::from(numer),
            denom: BigInt::from(denom),
        }
    }

    /// Builds the rational `numer / denom`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `denom` is zero.
    // lint: allow(L008) assert pins the documented non-zero-denominator precondition
    pub fn from_frac(numer: BigInt, denom: BigInt) -> Rational {
        assert!(!denom.is_zero(), "rational with zero denominator");
        if let (Some(n), Some(d)) = (numer.to_i64(), denom.to_i64()) {
            return Rational::from_i128_frac(n as i128, d as i128);
        }
        if numer.is_zero() {
            return Rational::zero();
        }
        let mut numer = numer;
        let mut denom = denom;
        if denom.is_negative() {
            numer = -numer;
            denom = -denom;
        }
        let g = numer.gcd(&denom);
        if !g.is_one() {
            numer = &numer / &g;
            denom = &denom / &g;
        }
        Rational { numer, denom }
    }

    /// Builds an integer-valued rational.
    pub fn from_integer(value: BigInt) -> Rational {
        Rational {
            numer: value,
            denom: BigInt::one(),
        }
    }

    /// Best rational approximation of an `f64` with denominator at most
    /// `max_denom`, via continued fractions. Returns `None` for non-finite
    /// inputs or `max_denom == 0`.
    ///
    /// Used only for *reporting* general (non power-of-two) `β = log_M L`
    /// values; all optimality proofs in the workspace run on exactly
    /// representable instances.
    pub fn approx_f64(value: f64, max_denom: u64) -> Option<Rational> {
        if !value.is_finite() || max_denom == 0 {
            return None;
        }
        let negative = value < 0.0;
        let mut x = value.abs();
        // Continued-fraction convergents p/q.
        let (mut p0, mut q0, mut p1, mut q1) = (0i128, 1i128, 1i128, 0i128);
        for _ in 0..64 {
            let a = x.floor();
            if a > i64::MAX as f64 {
                break;
            }
            let ai = a as i128;
            let p2 = ai.checked_mul(p1)?.checked_add(p0)?;
            let q2 = ai.checked_mul(q1)?.checked_add(q0)?;
            if q2 as u128 > max_denom as u128 {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a;
            if frac < 1e-15 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            return None;
        }
        let mut out = Rational::from_frac(BigInt::from(p1), BigInt::from(q1));
        if negative {
            out = -&out;
        }
        Some(out)
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &BigInt {
        &self.numer
    }

    /// Denominator (always strictly positive).
    pub fn denom(&self) -> &BigInt {
        &self.denom
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.numer.is_zero()
    }

    /// Returns `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        self.numer.is_one() && self.denom.is_one()
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.numer.is_negative()
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.numer.is_positive()
    }

    /// Returns `true` iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.denom.is_one()
    }

    /// Sign of the value.
    pub fn sign(&self) -> Sign {
        self.numer.sign()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            -self
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    // lint: allow(L008) assert pins non-zero receiver; callers check is_zero first
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        // Already in lowest terms: only the sign may need moving.
        if self.numer.is_negative() {
            Rational {
                numer: -&self.denom,
                denom: -&self.numer,
            }
        } else {
            Rational {
                numer: self.denom.clone(),
                denom: self.numer.clone(),
            }
        }
    }

    /// Raises to an integer power (negative exponents invert; `0^0 == 1`).
    ///
    /// # Panics
    /// Panics if the value is zero and `exp < 0`.
    pub fn pow(&self, exp: i32) -> Rational {
        if exp == 0 {
            return Rational::one();
        }
        let mag = exp.unsigned_abs();
        // Powers of a canonical fraction stay canonical; no gcd needed.
        let out = Rational {
            numer: self.numer.pow(mag),
            denom: self.denom.pow(mag),
        };
        if exp < 0 {
            out.recip()
        } else {
            out
        }
    }

    /// Largest integer `<=` the value.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.numer.div_rem(&self.denom);
        if r.is_zero() || !self.numer.is_negative() {
            q
        } else {
            &q - &BigInt::one()
        }
    }

    /// Smallest integer `>=` the value.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.numer.div_rem(&self.denom);
        if r.is_zero() || self.numer.is_negative() {
            q
        } else {
            &q + &BigInt::one()
        }
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        // Scale so that both parts stay in f64 range for typical magnitudes.
        self.numer.to_f64() / self.denom.to_f64()
    }

    /// Returns the smaller of two rationals (by value).
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rationals (by value).
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Fused `self ← self − f·p` with a **single** normalization.
    ///
    /// This is the simplex row-update kernel: the product is folded into the
    /// subtraction over the common denominator `d(self)·d(f)·d(p)`, so the
    /// whole update costs one GCD instead of the two a separate multiply and
    /// subtract would pay — and on the `i64` fast path, no allocation at all.
    pub fn sub_mul_assign(&mut self, f: &Rational, p: &Rational) {
        self.fused_mul_acc(f, p, true);
    }

    /// Fused `self ← self + f·p`; see [`Rational::sub_mul_assign`].
    pub fn add_mul_assign(&mut self, f: &Rational, p: &Rational) {
        self.fused_mul_acc(f, p, false);
    }

    fn fused_mul_acc(&mut self, f: &Rational, p: &Rational, subtract: bool) {
        if f.is_zero() || p.is_zero() {
            return;
        }
        if let (Some((an, ad)), Some((fn_, fd)), Some((pn, pd))) =
            (self.small_parts(), f.small_parts(), p.small_parts())
        {
            // num = an·(fd·pd) ∓ ad·(fn·pn),  den = ad·(fd·pd).
            // The inner products always fit in i128; the outer ones are
            // checked and overflow falls through to the BigInt path.
            let fp_n = fn_ as i128 * pn as i128;
            let fp_d = fd as i128 * pd as i128;
            let outer = || -> Option<(i128, i128)> {
                let t1 = (an as i128).checked_mul(fp_d)?;
                let t2 = (ad as i128).checked_mul(fp_n)?;
                let num = if subtract {
                    t1.checked_sub(t2)?
                } else {
                    t1.checked_add(t2)?
                };
                let den = (ad as i128).checked_mul(fp_d)?;
                Some((num, den))
            };
            if let Some((num, den)) = outer() {
                *self = Rational::from_i128_frac(num, den);
                return;
            }
        }
        let fp_d = &f.denom * &p.denom;
        let t1 = &self.numer * &fp_d;
        let t2 = &self.denom * &(&f.numer * &p.numer);
        let num = if subtract { &t1 - &t2 } else { &t1 + &t2 };
        let den = &self.denom * &fp_d;
        *self = Rational::from_frac(num, den);
    }

    /// Compares `a/b` against `c/d` (as exact values) without forming either
    /// quotient. `b` and `d` must be strictly positive.
    ///
    /// This is the simplex minimum-ratio comparison: it needs no division,
    /// no normalization, and on the `i64` fast path no allocation.
    pub fn cmp_div(a: &Rational, b: &Rational, c: &Rational, d: &Rational) -> Ordering {
        debug_assert!(
            b.is_positive() && d.is_positive(),
            "cmp_div needs positive denominators"
        );
        // a/b vs c/d  ⇔  a·d vs c·b (b, d > 0), expanded over the four
        // component fractions:
        //   (an·dn)·(cd·bd)  vs  (cn·bn)·(ad·dd)
        if let (Some((an, ad)), Some((bn, bd)), Some((cn, cd)), Some((dn, dd))) = (
            a.small_parts(),
            b.small_parts(),
            c.small_parts(),
            d.small_parts(),
        ) {
            let lhs = (an as i128 * dn as i128).checked_mul(cd as i128 * bd as i128);
            let rhs = (cn as i128 * bn as i128).checked_mul(ad as i128 * dd as i128);
            if let (Some(l), Some(r)) = (lhs, rhs) {
                return l.cmp(&r);
            }
        }
        let lhs = &(&a.numer * &d.numer) * &(&c.denom * &b.denom);
        let rhs = &(&c.numer * &b.numer) * &(&a.denom * &d.denom);
        lhs.cmp(&rhs)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Rational {
        Rational::from_integer(v)
    }
}

macro_rules! impl_from_machine {
    ($($t:ty),*) => {$(
        impl From<$t> for Rational {
            fn from(v: $t) -> Rational {
                Rational::from_integer(BigInt::from(v))
            }
        }
    )*};
}

impl_from_machine!(u8, u16, u32, u64, usize, i8, i16, i32, i64, i128);

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b  (b, d > 0).
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), other.small_parts()) {
            return (an as i128 * bd as i128).cmp(&(bn as i128 * ad as i128));
        }
        let lhs = &self.numer * &other.denom;
        let rhs = &other.numer * &self.denom;
        lhs.cmp(&rhs)
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            numer: -&self.numer,
            denom: self.denom.clone(),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            numer: -self.numer,
            denom: self.denom,
        }
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            // an·bd + bn·ad can overflow i128 only at the extreme corner
            // (both summands near 2^126); checked-add and fall through.
            let num = (an as i128 * bd as i128).checked_add(bn as i128 * ad as i128);
            if let Some(num) = num {
                return Rational::from_i128_frac(num, ad as i128 * bd as i128);
            }
        }
        Rational::from_frac(
            &(&self.numer * &rhs.denom) + &(&rhs.numer * &self.denom),
            &self.denom * &rhs.denom,
        )
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            let num = (an as i128 * bd as i128).checked_sub(bn as i128 * ad as i128);
            if let Some(num) = num {
                return Rational::from_i128_frac(num, ad as i128 * bd as i128);
            }
        }
        self + &(-rhs)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            return Rational::from_i128_frac(an as i128 * bn as i128, ad as i128 * bd as i128);
        }
        Rational::from_frac(&self.numer * &rhs.numer, &self.denom * &rhs.denom)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "division of Rational by zero");
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            return Rational::from_i128_frac(an as i128 * bd as i128, ad as i128 * bn as i128);
        }
        Rational::from_frac(&self.numer * &rhs.denom, &self.denom * &rhs.numer)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$method(&rhs)
            }
        }
    };
}

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom.is_one() {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({})", self)
    }
}

/// Error returned when parsing a [`Rational`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError;

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Rational literal (expected `p` or `p/q`)")
    }
}

impl std::error::Error for ParseRationalError {}

/// Serialized as the exact string `"p"` or `"p/q"` (the [`fmt::Display`]
/// form), so JSON documents carry rationals without precision loss.
impl serde::Serialize for Rational {
    /// The quoted [`fmt::Display`] form, written in place: digits, `-` and
    /// `/` need no escapes.
    fn write_json(&self, out: &mut String) {
        use fmt::Write;
        // Writing into a `String` cannot fail.
        let _ = write!(out, "\"{self}\"");
    }
}

impl serde::Deserialize for Rational {
    fn deserialize(v: &serde::Value) -> Result<Rational, serde::Error> {
        match v {
            serde::Value::String(s) => Rational::parse_json(s),
            serde::Value::Int(i) => Ok(Rational::from_integer(BigInt::from(*i))),
            other => Err(serde::Error::custom(format!(
                "expected a rational literal string, found {}",
                other.kind()
            ))),
        }
    }

    /// A string is parsed where it lies in the text (escape-free, as every
    /// printed rational is); an integer or anything else reads as a tree.
    fn read_json(r: &mut serde::json::Reader<'_>) -> Result<Rational, serde::Error> {
        if r.peek()? == b'"' {
            Rational::parse_json(&r.string()?)
        } else {
            Rational::deserialize(&r.value()?)
        }
    }
}

impl Rational {
    /// Parses the text of a JSON rational string, with the deserializer's
    /// error.
    fn parse_json(text: &str) -> Result<Rational, serde::Error> {
        text.parse()
            .map_err(|e: ParseRationalError| serde::Error::custom(e.to_string()))
    }
}

impl FromStr for Rational {
    type Err = ParseRationalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            None => {
                let n: BigInt = s.parse().map_err(|_| ParseRationalError)?;
                Ok(Rational::from_integer(n))
            }
            Some((num, den)) => {
                let n: BigInt = num.parse().map_err(|_| ParseRationalError)?;
                let d: BigInt = den.parse().map_err(|_| ParseRationalError)?;
                if d.is_zero() {
                    return Err(ParseRationalError);
                }
                Ok(Rational::from_frac(n, d))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio;

    #[test]
    fn normalization() {
        assert_eq!(ratio(2, 4), ratio(1, 2));
        assert_eq!(ratio(-2, -4), ratio(1, 2));
        assert_eq!(ratio(2, -4), ratio(-1, 2));
        assert_eq!(ratio(0, 7), Rational::zero());
        assert!(ratio(0, 7).denom().is_one());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = ratio(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(&ratio(1, 2) + &ratio(1, 3), ratio(5, 6));
        assert_eq!(&ratio(1, 2) - &ratio(1, 3), ratio(1, 6));
        assert_eq!(&ratio(2, 3) * &ratio(3, 4), ratio(1, 2));
        assert_eq!(&ratio(2, 3) / &ratio(4, 3), ratio(1, 2));
        assert_eq!(-&ratio(1, 2), ratio(-1, 2));
    }

    #[test]
    fn arithmetic_beyond_the_small_path() {
        // Denominators of ~2^80 force the BigInt fallback; results must agree
        // with hand-computed canonical forms.
        let big = Rational::from_frac(BigInt::one(), BigInt::from(2).pow(80));
        let sum = &big + &big;
        assert_eq!(
            sum,
            Rational::from_frac(BigInt::one(), BigInt::from(2).pow(79))
        );
        let prod = &big * &Rational::from_integer(BigInt::from(2).pow(80));
        assert_eq!(prod, Rational::one());
        assert!(big < ratio(1, 1_000_000));
        assert!(big.is_positive());
    }

    #[test]
    fn fused_sub_mul_matches_separate_ops() {
        let cases = [
            (ratio(3, 4), ratio(5, 6), ratio(-7, 8)),
            (ratio(0, 1), ratio(1, 3), ratio(3, 1)),
            (ratio(-2, 9), ratio(0, 5), ratio(4, 7)),
            (ratio(1, 1), ratio(1, 1), ratio(1, 1)),
            (
                ratio(i64::MAX - 1, 3),
                ratio(i64::MAX - 2, 5),
                ratio(7, i64::MAX - 3),
            ),
        ];
        for (a, f, p) in cases {
            let mut fused = a.clone();
            fused.sub_mul_assign(&f, &p);
            assert_eq!(fused, &a - &(&f * &p), "sub_mul {a} {f} {p}");
            let mut fused = a.clone();
            fused.add_mul_assign(&f, &p);
            assert_eq!(fused, &a + &(&f * &p), "add_mul {a} {f} {p}");
        }
    }

    #[test]
    fn fused_ops_fall_back_to_bigint_cleanly() {
        let huge = Rational::from_frac(BigInt::from(3), BigInt::from(2).pow(100));
        let mut x = ratio(1, 3);
        x.sub_mul_assign(&huge, &ratio(1, 7));
        assert_eq!(x, &ratio(1, 3) - &(&huge * &ratio(1, 7)));
    }

    #[test]
    fn cmp_div_matches_division() {
        let vals = [
            ratio(1, 2),
            ratio(-3, 4),
            ratio(5, 1),
            ratio(0, 1),
            ratio(7, 9),
            ratio(-1, 100),
        ];
        let dens = [ratio(1, 3), ratio(2, 1), ratio(9, 7)];
        for a in &vals {
            for b in &dens {
                for c in &vals {
                    for d in &dens {
                        let expect = (a / b).cmp(&(c / d));
                        assert_eq!(
                            Rational::cmp_div(a, b, c, d),
                            expect,
                            "cmp_div({a},{b},{c},{d})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ordering_and_minmax() {
        assert!(ratio(1, 3) < ratio(1, 2));
        assert!(ratio(-1, 2) < ratio(-1, 3));
        assert!(ratio(3, 2) > Rational::one());
        assert_eq!(ratio(1, 3).min(ratio(1, 2)), ratio(1, 3));
        assert_eq!(ratio(1, 3).max(ratio(1, 2)), ratio(1, 2));
    }

    #[test]
    fn pow_and_recip() {
        assert_eq!(ratio(2, 3).pow(2), ratio(4, 9));
        assert_eq!(ratio(2, 3).pow(-2), ratio(9, 4));
        assert_eq!(ratio(2, 3).pow(0), Rational::one());
        assert_eq!(ratio(2, 3).recip(), ratio(3, 2));
        assert_eq!(ratio(-2, 3).recip(), ratio(-3, 2));
        assert!(ratio(-2, 3).recip().denom().is_positive());
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(ratio(7, 2).floor(), BigInt::from(3));
        assert_eq!(ratio(7, 2).ceil(), BigInt::from(4));
        assert_eq!(ratio(-7, 2).floor(), BigInt::from(-4));
        assert_eq!(ratio(-7, 2).ceil(), BigInt::from(-3));
        assert_eq!(ratio(6, 2).floor(), BigInt::from(3));
        assert_eq!(ratio(6, 2).ceil(), BigInt::from(3));
        assert_eq!(Rational::zero().floor(), BigInt::zero());
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(ratio(3, 2).to_string(), "3/2");
        assert_eq!(ratio(4, 2).to_string(), "2");
        assert_eq!("3/2".parse::<Rational>().unwrap(), ratio(3, 2));
        assert_eq!("-5".parse::<Rational>().unwrap(), ratio(-5, 1));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("a/b".parse::<Rational>().is_err());
    }

    #[test]
    fn to_f64_reasonable() {
        assert!((ratio(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-12);
        assert!((ratio(-22, 7).to_f64() + 22.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn approx_f64_recovers_simple_fractions() {
        assert_eq!(Rational::approx_f64(0.5, 100).unwrap(), ratio(1, 2));
        assert_eq!(Rational::approx_f64(-0.75, 100).unwrap(), ratio(-3, 4));
        let third = Rational::approx_f64(1.0 / 3.0, 1000).unwrap();
        assert_eq!(third, ratio(1, 3));
        assert!(Rational::approx_f64(f64::NAN, 10).is_none());
        assert!(Rational::approx_f64(1.0, 0).is_none());
    }
}

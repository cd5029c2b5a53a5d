//! Arbitrary-precision signed integers with an inline small-value fast path.
//!
//! # Representation
//!
//! [`BigInt`] is a two-variant sum type:
//!
//! * `Small(i64)` — every value in `[i64::MIN, i64::MAX]` is stored inline,
//!   with no heap allocation. This is the representation the exact simplex
//!   solver lives in: the LPs of Dinh & Demmel (SPAA 2020) keep numerators
//!   and denominators at tens of digits *at most*, and in practice far below
//!   64 bits.
//! * `Large { sign, limbs }` — sign-magnitude with 32-bit little-endian
//!   limbs, used only when the magnitude exceeds `i64::MAX`.
//!
//! The representation is **canonical**: a value is `Large` *iff* it does not
//! fit in `i64`, and a `Large` limb vector never has trailing zero limbs.
//! Every constructor and operation re-establishes this invariant (see
//! [`BigInt::from_limbs`]), so the derived `PartialEq`/`Eq`/`Hash` are
//! value-correct.
//!
//! # Algorithms
//!
//! * `Small × Small` arithmetic fast-paths through machine integers
//!   (widening to `i128` where the result can overflow).
//! * Multi-limb multiplication is schoolbook: the engine's values stay a few
//!   limbs long, far below where a subquadratic method would pay.
//! * Multi-limb division is limb-wise Knuth Algorithm D (TAOCP vol. 2,
//!   §4.3.1), replacing the seed's bit-by-bit binary long division.
//! * Multi-limb gcd is Lehmer's algorithm (TAOCP vol. 2, §4.5.2,
//!   Algorithm L) in two reused buffers, replacing a Euclid loop that
//!   allocated a quotient and a remainder per step; see [`BigInt::gcd`].
//!
//! The replaced algorithms are retained verbatim in [`reference`] and the
//! property suite checks the fast paths against them exactly
//! (`crates/arith/tests/proptest_arith.rs`).

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use core::str::FromStr;

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    /// Returns the opposite sign (zero stays zero).
    pub fn negate(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    /// Signum as an `i32` in `{-1, 0, 1}`.
    pub fn signum(self) -> i32 {
        match self {
            Sign::Negative => -1,
            Sign::Zero => 0,
            Sign::Positive => 1,
        }
    }
}

/// Internal representation; see the module docs for the canonical-form
/// invariant that makes the derived `Eq`/`Hash` value-correct.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Inline value; used for every value that fits in `i64`.
    Small(i64),
    /// Sign + little-endian 32-bit limbs; magnitude always exceeds
    /// `i64::MAX`, so the limb vector has at least two limbs and no trailing
    /// zeros.
    Large { sign: Sign, limbs: Vec<u32> },
}

/// An arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    repr: Repr,
}

/// Stack buffer for viewing a `Small` value as magnitude limbs.
type SmallBuf = [u32; 2];

impl BigInt {
    /// The value `0`.
    pub fn zero() -> BigInt {
        BigInt {
            repr: Repr::Small(0),
        }
    }

    /// The value `1`.
    pub fn one() -> BigInt {
        BigInt {
            repr: Repr::Small(1),
        }
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small(0))
    }

    /// Returns `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Small(1))
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Negative
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Positive
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        match &self.repr {
            Repr::Small(v) => match v.cmp(&0) {
                Ordering::Less => Sign::Negative,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Positive,
            },
            Repr::Large { sign, .. } => *sign,
        }
    }

    /// The value as an `i64`, exactly when it fits.
    ///
    /// Because the representation is canonical this is `Some` *iff* the value
    /// is stored inline, so callers can use it to detect the fast path.
    pub fn to_i64(&self) -> Option<i64> {
        match &self.repr {
            Repr::Small(v) => Some(*v),
            Repr::Large { .. } => None,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.repr {
            Repr::Small(v) => match v.checked_abs() {
                Some(a) => BigInt {
                    repr: Repr::Small(a),
                },
                // |i64::MIN| = 2^63 does not fit in i64.
                None => BigInt::from_u128_sign(Sign::Positive, 1u128 << 63),
            },
            Repr::Large { limbs, .. } => BigInt {
                repr: Repr::Large {
                    sign: Sign::Positive,
                    limbs: limbs.clone(),
                },
            },
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bit_len(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => (64 - v.unsigned_abs().leading_zeros()) as usize,
            Repr::Large { limbs, .. } => {
                let top = *limbs.last().expect("Large is non-empty");
                (limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize)
            }
        }
    }

    /// Views the magnitude as limbs, using `buf` as backing storage for
    /// inline values. Returns the sign alongside.
    fn parts<'a>(&'a self, buf: &'a mut SmallBuf) -> (Sign, &'a [u32]) {
        match &self.repr {
            Repr::Small(v) => {
                let mag = v.unsigned_abs();
                buf[0] = mag as u32;
                buf[1] = (mag >> 32) as u32;
                let len = if mag == 0 {
                    0
                } else if mag >> 32 == 0 {
                    1
                } else {
                    2
                };
                (self.sign(), &buf[..len])
            }
            Repr::Large { sign, limbs } => (*sign, limbs.as_slice()),
        }
    }

    /// Builds a value from a sign and magnitude limbs, restoring the
    /// canonical form (trailing zeros trimmed, small magnitudes demoted to
    /// the inline representation).
    fn from_limbs(sign: Sign, mut limbs: Vec<u32>) -> BigInt {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        if limbs.is_empty() {
            return BigInt::zero();
        }
        debug_assert_ne!(sign, Sign::Zero, "nonzero magnitude must carry a sign");
        if limbs.len() <= 2 {
            let mag = limbs[0] as u64 | ((*limbs.get(1).unwrap_or(&0) as u64) << 32);
            if let Some(small) = small_from_mag(sign, mag) {
                return BigInt {
                    repr: Repr::Small(small),
                };
            }
        }
        BigInt {
            repr: Repr::Large { sign, limbs },
        }
    }

    /// Builds a value from a sign and a `u128` magnitude.
    fn from_u128_sign(sign: Sign, mag: u128) -> BigInt {
        if mag == 0 {
            return BigInt::zero();
        }
        if let Some(small) = u64::try_from(mag)
            .ok()
            .and_then(|m| small_from_mag(sign, m))
        {
            return BigInt {
                repr: Repr::Small(small),
            };
        }
        let mut limbs = Vec::with_capacity(4);
        let mut m = mag;
        while m > 0 {
            limbs.push(m as u32);
            m >>= 32;
        }
        BigInt {
            repr: Repr::Large { sign, limbs },
        }
    }

    /// Builds a value from an `i128`.
    fn from_i128_value(v: i128) -> BigInt {
        if let Ok(small) = i64::try_from(v) {
            return BigInt {
                repr: Repr::Small(small),
            };
        }
        let sign = if v < 0 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        BigInt::from_u128_sign(sign, v.unsigned_abs())
    }

    /// Compares magnitudes, ignoring signs.
    fn cmp_magnitude(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    fn add_magnitude(a: &[u32], b: &[u32]) -> Vec<u32> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry: u64 = 0;
        for (i, &w) in long.iter().enumerate() {
            let s = w as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// Computes `a - b` for magnitudes, requiring `a >= b`.
    fn sub_magnitude(a: &[u32], b: &[u32]) -> Vec<u32> {
        debug_assert_ne!(Self::cmp_magnitude(a, b), Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow: i64 = 0;
        for (i, &w) in a.iter().enumerate() {
            let mut d = w as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u32);
        }
        debug_assert_eq!(borrow, 0);
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Schoolbook magnitude multiplication (quadratic; also the
    /// [`reference`] implementation's).
    fn mul_magnitude(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry: u64 = 0;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u64 + ai as u64 * bj as u64 + carry;
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
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Divides a magnitude by a single limb. Returns `(quotient, remainder)`.
    fn divrem_by_limb(a: &[u32], d: u32) -> (Vec<u32>, u32) {
        debug_assert!(d != 0);
        let d = d as u64;
        let mut q = vec![0u32; a.len()];
        let mut rem: u64 = 0;
        for i in (0..a.len()).rev() {
            let cur = (rem << 32) | a[i] as u64;
            q[i] = (cur / d) as u32;
            rem = cur % d;
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        (q, rem as u32)
    }

    /// Shifts a magnitude left by `shift < 32` bits in place and returns the
    /// bits shifted out of its top limb.
    fn shl_in_place(x: &mut [u32], shift: u32) -> u32 {
        if shift == 0 {
            return 0;
        }
        let mut carry = 0u32;
        for w in x.iter_mut() {
            let out = *w >> (32 - shift);
            *w = (*w << shift) | carry;
            carry = out;
        }
        carry
    }

    /// Shifts a magnitude right by `shift < 32` bits in place, dropping the
    /// bits shifted out of its bottom limb.
    fn shr_in_place(x: &mut [u32], shift: u32) {
        if shift == 0 {
            return;
        }
        let mut carry = 0u32;
        for w in x.iter_mut().rev() {
            let out = *w << (32 - shift);
            *w = (*w >> shift) | carry;
            carry = out;
        }
    }

    /// Knuth Algorithm D steps D3–D6 on one window: `u` holds `n + 1` limbs
    /// whose value is below `v·2^32`, and `v` (`n >= 2` limbs) is normalized
    /// (top bit set). Replaces `u` by `u mod v` and returns `u / v`.
    fn knuth_d_digit(u: &mut [u32], v: &[u32]) -> u32 {
        let n = v.len();
        let vn1 = v[n - 1] as u64;
        let vn2 = v[n - 2] as u64;
        debug_assert!(vn1 >= 1 << 31, "the divisor is normalized");

        // D3: estimate the quotient limb from the top three dividend limbs
        // and top two divisor limbs; the estimate is at most 2 too large,
        // corrected by the loop below and the add-back step.
        let top = ((u[n] as u64) << 32) | u[n - 1] as u64;
        let mut qhat = top / vn1;
        let mut rhat = top % vn1;
        while qhat >= 1 << 32 || qhat * vn2 > ((rhat << 32) | u[n - 2] as u64) {
            qhat -= 1;
            rhat += vn1;
            if rhat >= 1 << 32 {
                break;
            }
        }

        // D4: multiply-subtract qhat·v from u (wrapping on underflow,
        // detected via the final borrow).
        let mut mul_carry: u64 = 0;
        let mut borrow: i64 = 0;
        for i in 0..n {
            let p = qhat * v[i] as u64 + mul_carry;
            mul_carry = p >> 32;
            let t = u[i] as i64 - (p as u32) as i64 - borrow;
            u[i] = t as u32;
            borrow = i64::from(t < 0);
        }
        let t = u[n] as i64 - mul_carry as i64 - borrow;
        u[n] = t as u32;

        // D5/D6: if the subtraction underflowed, the estimate was one too
        // large — add one multiple of v back.
        if t < 0 {
            qhat -= 1;
            let mut carry: u64 = 0;
            for i in 0..n {
                let s = u[i] as u64 + v[i] as u64 + carry;
                u[i] = s as u32;
                carry = s >> 32;
            }
            u[n] = (u[n] as u64).wrapping_add(carry) as u32;
        }
        qhat as u32
    }

    /// Multi-limb magnitude division by Knuth Algorithm D (TAOCP vol. 2,
    /// §4.3.1). Requires `b.len() >= 2` and `a >= b`.
    fn divrem_magnitude_knuth(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let n = b.len();
        debug_assert!(n >= 2);
        debug_assert_ne!(Self::cmp_magnitude(a, b), Ordering::Less);

        // D1: normalize so the divisor's top limb has its high bit set; the
        // dividend gains one (possibly zero) spill limb.
        let shift = b[n - 1].leading_zeros();
        let mut u = Vec::with_capacity(a.len() + 1);
        u.extend_from_slice(a);
        let spill = Self::shl_in_place(&mut u, shift);
        u.push(spill);
        let mut v = b.to_vec();
        let v_spill = Self::shl_in_place(&mut v, shift);
        debug_assert_eq!(v_spill, 0, "normalization never spills the divisor");

        // D2–D7: one quotient limb per window, most significant first.
        let m = a.len() - n;
        let mut q = vec![0u32; m + 1];
        for j in (0..=m).rev() {
            q[j] = Self::knuth_d_digit(&mut u[j..=j + n], &v);
        }

        // D8: denormalize the remainder.
        while q.last() == Some(&0) {
            q.pop();
        }
        u.truncate(n);
        Self::shr_in_place(&mut u, shift);
        while u.last() == Some(&0) {
            u.pop();
        }
        (q, u)
    }

    /// Replaces `u[..len]` by its remainder modulo `v` in place (Algorithm D
    /// without the quotient) and returns the remainder's length. Requires
    /// `u[..len] >= v`, `v.len() >= 2` with a nonzero top limb, and a zero
    /// limb at `u[len]` for the normalization spill; every limb of
    /// `u[rem_len..=len]` is zero afterwards. `v` is normalized in place and
    /// restored.
    fn rem_in_place(u: &mut [u32], len: usize, v: &mut [u32]) -> usize {
        let n = v.len();
        let shift = v[n - 1].leading_zeros();
        Self::shl_in_place(v, shift);
        u[len] = Self::shl_in_place(&mut u[..len], shift);
        for j in (0..=len - n).rev() {
            Self::knuth_d_digit(&mut u[j..=j + n], v);
        }
        Self::shr_in_place(&mut u[..n], shift);
        Self::shr_in_place(v, shift);
        trimmed_len(&u[..n])
    }

    /// Magnitude division dispatch. Returns `(quotient, remainder)`.
    fn divrem_magnitude(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        assert!(!b.is_empty(), "division by zero BigInt");
        if Self::cmp_magnitude(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let (q, r) = Self::divrem_by_limb(a, b[0]);
            let rem = if r == 0 { Vec::new() } else { vec![r] };
            return (q, rem);
        }
        Self::divrem_magnitude_knuth(a, b)
    }

    /// Truncated division: returns `(q, r)` with `self == q * rhs + r`,
    /// `|r| < |rhs|`, and `r` having the sign of `self` (or zero).
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    // lint: allow(L008) long-division loop invariant (non-zero divisor checked above) pinned by asserts, covered by differential oracles
    pub fn div_rem(&self, rhs: &BigInt) -> (BigInt, BigInt) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            assert!(*b != 0, "division by zero BigInt");
            // i64::MIN / -1 overflows i64; widen that one case.
            return match (a.checked_div(*b), a.checked_rem(*b)) {
                (Some(q), Some(r)) => (
                    BigInt {
                        repr: Repr::Small(q),
                    },
                    BigInt {
                        repr: Repr::Small(r),
                    },
                ),
                _ => (
                    BigInt::from_i128_value(*a as i128 / *b as i128),
                    BigInt::from_i128_value(*a as i128 % *b as i128),
                ),
            };
        }
        assert!(!rhs.is_zero(), "division by zero BigInt");
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (mut abuf, mut bbuf) = ([0u32; 2], [0u32; 2]);
        let (a_sign, a_mag) = self.parts(&mut abuf);
        let (b_sign, b_mag) = rhs.parts(&mut bbuf);
        let (qm, rm) = Self::divrem_magnitude(a_mag, b_mag);
        let q_sign = if qm.is_empty() {
            Sign::Zero
        } else if a_sign == b_sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        let r_sign = if rm.is_empty() { Sign::Zero } else { a_sign };
        (
            BigInt::from_limbs(q_sign, qm),
            BigInt::from_limbs(r_sign, rm),
        )
    }

    /// Greatest common divisor of the magnitudes (always non-negative).
    ///
    /// Two inline values take the binary [`crate::gcd_u64`]. Otherwise, once
    /// the smaller operand fits in one 64-bit word, a single remainder folded
    /// limb by limb in `u128` hands both to `gcd_u64`. Longer operands run
    /// Lehmer's algorithm (Knuth, TAOCP vol. 2, §4.5.2, Algorithm L):
    /// Euclid simulated on the leading 60 bits in `i64`, its cofactors
    /// applied to both magnitudes in place, and an exact remainder step
    /// whenever the leading bits cannot certify a single quotient (the
    /// operands differ by about a limb or more). The working magnitudes live
    /// in two buffers, on the stack for short operands; no step allocates.
    /// The allocating Euclid loop this replaces is `reference::euclid_gcd`,
    /// the property suite's oracle.
    pub fn gcd(&self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            let g = crate::gcd::gcd_u64(a.unsigned_abs(), b.unsigned_abs());
            return BigInt::from_u128_sign(Sign::Positive, g as u128);
        }
        let (mut abuf, mut bbuf) = ([0u32; 2], [0u32; 2]);
        let (_, a) = self.parts(&mut abuf);
        let (_, b) = rhs.parts(&mut bbuf);
        let (a, b) = match Self::cmp_magnitude(a, b) {
            Ordering::Less => (b, a),
            _ => (a, b),
        };
        if b.len() <= 2 {
            return gcd_with_word(a, word_value(b));
        }
        let lehmer = if a.len() < LEHMER_STACK_LIMBS {
            lehmer_gcd(
                &mut [0; LEHMER_STACK_LIMBS],
                &mut [0; LEHMER_STACK_LIMBS],
                a,
                b,
            )
        } else {
            lehmer_gcd(&mut vec![0; a.len() + 1], &mut vec![0; a.len() + 1], a, b)
        };
        lehmer.unwrap_or_else(|| reference::euclid_gcd(self, rhs))
    }

    /// Raises the value to a non-negative integer power (`0^0 == 1`).
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Converts to `i128` if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        match &self.repr {
            Repr::Small(v) => Some(*v as i128),
            Repr::Large { sign, limbs } => {
                if self.bit_len() > 127 {
                    return None;
                }
                let mut mag: u128 = 0;
                for &limb in limbs.iter().rev() {
                    mag = (mag << 32) | limb as u128;
                }
                match sign {
                    Sign::Zero => Some(0),
                    Sign::Positive => i128::try_from(mag).ok(),
                    Sign::Negative => Some(-(i128::try_from(mag).ok()?)),
                }
            }
        }
    }

    /// Converts to `u64` if the value is non-negative and fits.
    pub fn to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Small(v) => u64::try_from(*v).ok(),
            Repr::Large { sign, limbs } => {
                if *sign == Sign::Negative || limbs.len() > 2 {
                    return None;
                }
                let mut mag: u64 = 0;
                for &limb in limbs.iter().rev() {
                    mag = (mag << 32) | limb as u64;
                }
                Some(mag)
            }
        }
    }

    /// Lossy conversion to `f64` (saturating to infinity for huge values).
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(v) => *v as f64,
            Repr::Large { sign, limbs } => {
                let mut val = 0.0f64;
                for &limb in limbs.iter().rev() {
                    val = val * 4294967296.0 + limb as f64;
                }
                match sign {
                    Sign::Negative => -val,
                    _ => val,
                }
            }
        }
    }
}

/// Converts a sign + `u64` magnitude to the inline representation if it fits.
fn small_from_mag(sign: Sign, mag: u64) -> Option<i64> {
    match sign {
        Sign::Zero => Some(0),
        Sign::Positive => i64::try_from(mag).ok(),
        Sign::Negative => {
            if mag <= 1 << 63 {
                Some((mag as i64).wrapping_neg())
            } else {
                None
            }
        }
    }
}

/// Width of the leading-bit window Lehmer's gcd simulates Euclid on. With 60
/// bits every simulated remainder, cofactor and quotient product stays below
/// `2^62`, so the inner loop runs in `i64` without overflow.
const LEHMER_BITS: usize = 60;

/// Operands shorter than this many limbs run Lehmer's gcd in stack buffers
/// (each holds the longer operand plus the remainder step's spill limb).
const LEHMER_STACK_LIMBS: usize = 16;

/// Length of a magnitude once its zero top limbs are dropped.
fn trimmed_len(x: &[u32]) -> usize {
    x.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1)
}

/// The value of a magnitude of at most two limbs.
fn word_value(x: &[u32]) -> u64 {
    x.iter().rev().fold(0, |acc, &l| (acc << 32) | l as u64)
}

/// `⌊x / 2^shift⌋` for a magnitude `x < 2^(shift + 64)`.
fn bits_from(x: &[u32], shift: usize) -> u64 {
    let (limb, bit) = (shift / 32, shift % 32);
    let window = (0..3).rev().fold(0u128, |acc, k| {
        (acc << 32) | *x.get(limb + k).unwrap_or(&0) as u128
    });
    (window >> bit) as u64
}

/// `gcd(a, w)` for a magnitude `a >= w`: one remainder folded limb by limb in
/// `u128`, then [`crate::gcd_u64`].
fn gcd_with_word(a: &[u32], w: u64) -> BigInt {
    if w == 0 {
        return BigInt::from_limbs(Sign::Positive, a.to_vec());
    }
    let r = a
        .iter()
        .rev()
        .fold(0u128, |r, &l| ((r << 32) | l as u128) % w as u128);
    BigInt::from(crate::gcd::gcd_u64(w, r as u64))
}

/// Lehmer's gcd of magnitudes `a >= b` with `b` longer than two limbs, in
/// the zeroed buffers `x` and `y` of at least `a.len() + 1` limbs each. Every
/// limb past a working value's length stays zero. Returns `None` only if a
/// cofactor update leaves a carry, which the algorithm rules out.
fn lehmer_gcd(x: &mut [u32], y: &mut [u32], a: &[u32], b: &[u32]) -> Option<BigInt> {
    x[..a.len()].copy_from_slice(a);
    y[..b.len()].copy_from_slice(b);
    let (mut u, mut v) = (x, y);
    let (mut u_len, mut v_len) = (a.len(), b.len());
    // Invariant: u >= v, and v exceeds one word, so u has over 64 bits.
    while v_len > 2 {
        let shift = u_len * 32 - u[u_len - 1].leading_zeros() as usize - LEHMER_BITS;
        let uh = bits_from(&u[..u_len], shift) as i64;
        let vh = bits_from(&v[..v_len], shift) as i64;
        match lehmer_cofactors(uh, vh) {
            Some(m) => (u_len, v_len) = apply_cofactors(&mut u[..u_len], &mut v[..u_len], m)?,
            None => {
                let r_len = BigInt::rem_in_place(u, u_len, &mut v[..v_len]);
                core::mem::swap(&mut u, &mut v);
                (u_len, v_len) = (v_len, r_len);
            }
        }
    }
    Some(gcd_with_word(&u[..u_len], word_value(&v[..v_len])))
}

/// Knuth's steps L2–L3 on the leading bits `uh >= vh` of the operands (the
/// same shift of both): Euclid runs on them while the quotients of the two
/// bracketing fractions agree, so every quotient taken is also the exact
/// quotient of the full operands. Returns the cofactors `[a, b, c, d]` with
/// `(u, v) ← (a·u + b·v, c·u + d·v)`, or `None` when not one step is
/// certain.
fn lehmer_cofactors(mut uh: i64, mut vh: i64) -> Option<[i64; 4]> {
    let (mut a, mut b, mut c, mut d) = (1i64, 0i64, 0i64, 1i64);
    loop {
        let (num_a, num_b, den_c, den_d) = (uh + a, uh + b, vh + c, vh + d);
        if num_a < 0 || num_b < 0 || den_c <= 0 || den_d <= 0 {
            break;
        }
        let q = num_a / den_c;
        if q != num_b / den_d {
            break;
        }
        (a, c) = (c, a - q * c);
        (b, d) = (d, b - q * d);
        (uh, vh) = (vh, uh - q * vh);
    }
    (b != 0).then_some([a, b, c, d])
}

/// Replaces `(u, v)` (equal-length slices) by `(a·u + b·v, c·u + d·v)` in
/// place with signed `i128` carries and returns the new lengths. Both
/// results are Euclid remainders of `u` and `v`, hence non-negative and no
/// longer than `u`; a carry left over would contradict that, and returns
/// `None`.
fn apply_cofactors(u: &mut [u32], v: &mut [u32], m: [i64; 4]) -> Option<(usize, usize)> {
    let [a, b, c, d] = m.map(i128::from);
    let (mut carry_u, mut carry_v) = (0i128, 0i128);
    for (x, y) in u.iter_mut().zip(v.iter_mut()) {
        let (xi, yi) = (i128::from(*x), i128::from(*y));
        carry_u += a * xi + b * yi;
        carry_v += c * xi + d * yi;
        *x = carry_u as u32;
        *y = carry_v as u32;
        carry_u >>= 32;
        carry_v >>= 32;
    }
    debug_assert!(
        carry_u == 0 && carry_v == 0,
        "Lehmer cofactors left a carry"
    );
    (carry_u == 0 && carry_v == 0).then(|| (trimmed_len(u), trimmed_len(v)))
}

/// Reference implementations of the simple algorithms the fast paths
/// replaced (the seed's schoolbook multiplication and bit-by-bit binary long
/// division, and the allocating Euclid gcd loop), kept as the oracle for the
/// differential property tests of the fast paths. Not part of the public API
/// surface.
#[doc(hidden)]
pub mod reference {
    use super::{BigInt, Sign};
    use core::cmp::Ordering;

    /// Euclid's algorithm on magnitudes, one allocating [`BigInt::div_rem`]
    /// per step: the loop [`BigInt::gcd`] ran before Lehmer's algorithm.
    /// Always non-negative.
    pub fn euclid_gcd(a: &BigInt, b: &BigInt) -> BigInt {
        // Each step drops to the small fast path as soon as both operands
        // fit in i64.
        let mut a = a.abs();
        let mut b = b.abs();
        while !b.is_zero() {
            if let (Some(x), Some(y)) = (a.to_i64(), b.to_i64()) {
                let g = crate::gcd::gcd_u64(x.unsigned_abs(), y.unsigned_abs());
                return BigInt::from_u128_sign(Sign::Positive, g as u128);
            }
            let (_, r) = a.div_rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Shifts a magnitude left by one bit in place.
    fn shl1_magnitude(limbs: &mut Vec<u32>) {
        let mut carry = 0u32;
        for limb in limbs.iter_mut() {
            let new_carry = *limb >> 31;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        if carry != 0 {
            limbs.push(carry);
        }
    }

    fn magnitude_bit(limbs: &[u32], i: usize) -> bool {
        match limbs.get(i / 32) {
            Some(&w) => (w >> (i % 32)) & 1 == 1,
            None => false,
        }
    }

    /// Schoolbook multiplication with full sign handling.
    pub fn schoolbook_mul(a: &BigInt, b: &BigInt) -> BigInt {
        if a.is_zero() || b.is_zero() {
            return BigInt::zero();
        }
        let (mut abuf, mut bbuf) = ([0u32; 2], [0u32; 2]);
        let (a_sign, a_mag) = a.parts(&mut abuf);
        let (b_sign, b_mag) = b.parts(&mut bbuf);
        let sign = if a_sign == b_sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt::from_limbs(sign, BigInt::mul_magnitude(a_mag, b_mag))
    }

    /// Bit-by-bit binary long division (truncated), the seed's algorithm.
    ///
    /// # Panics
    /// Panics if `b` is zero.
    pub fn binary_long_divrem(a: &BigInt, b: &BigInt) -> (BigInt, BigInt) {
        assert!(!b.is_zero(), "division by zero BigInt");
        if a.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (mut abuf, mut bbuf) = ([0u32; 2], [0u32; 2]);
        let (a_sign, a_mag) = a.parts(&mut abuf);
        let (b_sign, b_mag) = b.parts(&mut bbuf);

        let (qm, rm) = if BigInt::cmp_magnitude(a_mag, b_mag) == Ordering::Less {
            (Vec::new(), a_mag.to_vec())
        } else {
            let nbits = a.bit_len();
            let mut quotient = vec![0u32; a_mag.len()];
            let mut remainder: Vec<u32> = Vec::with_capacity(b_mag.len() + 1);
            for bit in (0..nbits).rev() {
                shl1_magnitude(&mut remainder);
                if magnitude_bit(a_mag, bit) {
                    if remainder.is_empty() {
                        remainder.push(1);
                    } else {
                        remainder[0] |= 1;
                    }
                }
                if BigInt::cmp_magnitude(&remainder, b_mag) != Ordering::Less {
                    remainder = BigInt::sub_magnitude(&remainder, b_mag);
                    quotient[bit / 32] |= 1 << (bit % 32);
                }
            }
            while quotient.last() == Some(&0) {
                quotient.pop();
            }
            (quotient, remainder)
        };

        let q_sign = if qm.is_empty() {
            Sign::Zero
        } else if a_sign == b_sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        let r_sign = if rm.is_empty() { Sign::Zero } else { a_sign };
        (
            BigInt::from_limbs(q_sign, qm),
            BigInt::from_limbs(r_sign, rm),
        )
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

macro_rules! impl_from_small_int {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                BigInt { repr: Repr::Small(v as i64) }
            }
        }
    )*};
}

impl_from_small_int!(u8, u16, u32, i8, i16, i32, i64);

impl From<u64> for BigInt {
    fn from(v: u64) -> BigInt {
        BigInt::from_u128_sign(Sign::Positive, v as u128)
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> BigInt {
        BigInt::from_u128_sign(Sign::Positive, v)
    }
}

impl From<usize> for BigInt {
    fn from(v: usize) -> BigInt {
        BigInt::from_u128_sign(Sign::Positive, v as u128)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        BigInt::from_i128_value(v)
    }
}

impl From<isize> for BigInt {
    fn from(v: isize) -> BigInt {
        BigInt::from_i128_value(v as i128)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // Canonical form: a Large magnitude always exceeds any Small one.
            (Repr::Small(_), Repr::Large { sign, .. }) => match sign {
                Sign::Negative => Ordering::Greater,
                _ => Ordering::Less,
            },
            (Repr::Large { sign, .. }, Repr::Small(_)) => match sign {
                Sign::Negative => Ordering::Less,
                _ => Ordering::Greater,
            },
            (
                Repr::Large {
                    sign: sa,
                    limbs: la,
                },
                Repr::Large {
                    sign: sb,
                    limbs: lb,
                },
            ) => match (sa, sb) {
                (Sign::Negative, Sign::Negative) => Self::cmp_magnitude(lb, la),
                (Sign::Positive, Sign::Positive) => Self::cmp_magnitude(la, lb),
                _ => sa.signum().cmp(&sb.signum()),
            },
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match &self.repr {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => BigInt {
                    repr: Repr::Small(n),
                },
                None => BigInt::from_u128_sign(Sign::Positive, 1u128 << 63),
            },
            // from_limbs re-canonicalizes: negating 2^63 lands on i64::MIN.
            Repr::Large { sign, limbs } => BigInt::from_limbs(sign.negate(), limbs.clone()),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.repr {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => BigInt {
                    repr: Repr::Small(n),
                },
                None => BigInt::from_u128_sign(Sign::Positive, 1u128 << 63),
            },
            Repr::Large { sign, limbs } => BigInt::from_limbs(sign.negate(), limbs),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            return match a.checked_add(*b) {
                Some(s) => BigInt {
                    repr: Repr::Small(s),
                },
                None => BigInt::from_i128_value(*a as i128 + *b as i128),
            };
        }
        let (mut abuf, mut bbuf) = ([0u32; 2], [0u32; 2]);
        let (a_sign, a_mag) = self.parts(&mut abuf);
        let (b_sign, b_mag) = rhs.parts(&mut bbuf);
        match (a_sign, b_sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_limbs(a, BigInt::add_magnitude(a_mag, b_mag)),
            _ => match BigInt::cmp_magnitude(a_mag, b_mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_limbs(a_sign, BigInt::sub_magnitude(a_mag, b_mag))
                }
                Ordering::Less => BigInt::from_limbs(b_sign, BigInt::sub_magnitude(b_mag, a_mag)),
            },
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            return match a.checked_sub(*b) {
                Some(s) => BigInt {
                    repr: Repr::Small(s),
                },
                None => BigInt::from_i128_value(*a as i128 - *b as i128),
            };
        }
        self + &(-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            // i64 × i64 always fits in i128.
            return BigInt::from_i128_value(*a as i128 * *b as i128);
        }
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let (mut abuf, mut bbuf) = ([0u32; 2], [0u32; 2]);
        let (a_sign, a_mag) = self.parts(&mut abuf);
        let (b_sign, b_mag) = rhs.parts(&mut bbuf);
        let sign = if a_sign == b_sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt::from_limbs(sign, BigInt::mul_magnitude(a_mag, b_mag))
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

macro_rules! forward_binop {
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

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);
forward_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            if let Some(s) = a.checked_add(*b) {
                self.repr = Repr::Small(s);
                return;
            }
        }
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
            if let Some(s) = a.checked_sub(*b) {
                self.repr = Repr::Small(s);
                return;
            }
        }
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small(v) => write!(f, "{v}"),
            Repr::Large { sign, limbs } => {
                // Convert the magnitude to decimal by repeated division by 10^9.
                let mut chunks: Vec<u32> = Vec::new();
                let mut mag = limbs.clone();
                while !mag.is_empty() {
                    let (q, r) = BigInt::divrem_by_limb(&mag, 1_000_000_000);
                    chunks.push(r);
                    mag = q;
                }
                // A `Large` value is nonzero, so it has a top chunk; a
                // formatter must not panic, so an empty one prints as zero.
                let Some((top, rest)) = chunks.split_last() else {
                    return write!(f, "0");
                };
                if *sign == Sign::Negative {
                    write!(f, "-")?;
                }
                write!(f, "{top}")?;
                for chunk in rest.iter().rev() {
                    write!(f, "{:09}", chunk)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({})", self)
    }
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError;

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid BigInt literal")
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError);
        }
        // Accumulate the magnitude in 9-digit decimal chunks: each step is a
        // single-limb multiply-add rather than a full BigInt multiply.
        let mut limbs: Vec<u32> = Vec::new();
        let bytes = digits.as_bytes();
        let mut pos = 0;
        while pos < bytes.len() {
            let take = (bytes.len() - pos).min(9);
            let mut chunk: u32 = 0;
            for &b in &bytes[pos..pos + take] {
                chunk = chunk * 10 + (b - b'0') as u32;
            }
            let scale = 10u32.pow(take as u32);
            mul_add_limb(&mut limbs, scale, chunk);
            pos += take;
        }
        let sign = if neg { Sign::Negative } else { Sign::Positive };
        Ok(BigInt::from_limbs(sign, limbs))
    }
}

/// Computes `limbs = limbs * m + a` in place.
fn mul_add_limb(limbs: &mut Vec<u32>, m: u32, a: u32) {
    let mut carry = a as u64;
    for limb in limbs.iter_mut() {
        let cur = *limb as u64 * m as u64 + carry;
        *limb = cur as u32;
        carry = cur >> 32;
    }
    while carry != 0 {
        limbs.push(carry as u32);
        carry >>= 32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    /// Asserts the canonical-form invariant for a value.
    fn assert_canonical(x: &BigInt) {
        match &x.repr {
            Repr::Small(_) => {}
            Repr::Large { sign, limbs } => {
                assert_ne!(*sign, Sign::Zero);
                assert_ne!(limbs.last(), Some(&0), "trailing zero limb");
                assert!(x.bit_len() >= 64, "Large magnitude must exceed i64::MAX");
                assert!(x.to_i64().is_none());
            }
        }
    }

    #[test]
    fn construction_and_zero() {
        assert!(bi(0).is_zero());
        assert_eq!(bi(0), BigInt::zero());
        assert!(bi(5).is_positive());
        assert!(bi(-5).is_negative());
        assert_eq!(bi(1), BigInt::one());
        assert!(BigInt::one().is_one());
        assert!(!bi(2).is_one());
    }

    #[test]
    fn canonical_form_at_the_small_large_boundary() {
        for v in [
            0i128,
            1,
            -1,
            i64::MAX as i128,
            i64::MAX as i128 + 1,
            i64::MIN as i128,
            i64::MIN as i128 - 1,
            u64::MAX as i128,
            -(u64::MAX as i128),
            i128::MAX,
            i128::MIN + 1,
        ] {
            let x = bi(v);
            assert_canonical(&x);
            assert_eq!(x.to_i128(), Some(v), "roundtrip {v}");
            // Values that fit i64 must be Small (so Eq/Hash are value-based).
            assert_eq!(
                x.to_i64().is_some(),
                i64::try_from(v).is_ok(),
                "repr of {v}"
            );
        }
    }

    #[test]
    fn arithmetic_stays_canonical_across_the_boundary() {
        let near = [
            bi(i64::MAX as i128),
            bi(i64::MAX as i128 - 1),
            bi(i64::MIN as i128),
            bi(i64::MIN as i128 + 1),
            bi(1),
            bi(-1),
            bi(0),
        ];
        for a in &near {
            for b in &near {
                for v in [a + b, a - b, a * b] {
                    assert_canonical(&v);
                }
                assert_eq!(a + b, bi(a.to_i128().unwrap() + b.to_i128().unwrap()));
            }
            assert_canonical(&-a);
        }
        // Subtraction pulling a Large value back into Small territory.
        let big = bi(i64::MAX as i128) + bi(1);
        assert_canonical(&big);
        let back = &big - &bi(1);
        assert_eq!(back, bi(i64::MAX as i128));
        assert!(back.to_i64().is_some());
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(&bi(3) + &bi(4), bi(7));
        assert_eq!(&bi(3) - &bi(4), bi(-1));
        assert_eq!(&bi(-3) + &bi(-4), bi(-7));
        assert_eq!(&bi(-3) - &bi(-4), bi(1));
        assert_eq!(&bi(0) + &bi(0), bi(0));
        assert_eq!(&bi(10) - &bi(10), bi(0));
    }

    #[test]
    fn mul_small() {
        assert_eq!(&bi(6) * &bi(7), bi(42));
        assert_eq!(&bi(-6) * &bi(7), bi(-42));
        assert_eq!(&bi(-6) * &bi(-7), bi(42));
        assert_eq!(&bi(0) * &bi(123456789), bi(0));
    }

    #[test]
    fn carries_across_limbs() {
        let a = bi((1i128 << 32) - 1);
        assert_eq!(&a + &bi(1), bi(1i128 << 32));
        let big = bi(u32::MAX as i128);
        assert_eq!(&big * &big, bi((u32::MAX as i128) * (u32::MAX as i128)));
        let big64 = bi(u64::MAX as i128);
        let expect: BigInt = "340282366920938463426481119284349108225".parse().unwrap();
        assert_eq!(&big64 * &big64, expect);
    }

    #[test]
    fn div_rem_matches_i128() {
        let cases: &[(i128, i128)] = &[
            (7, 3),
            (-7, 3),
            (7, -3),
            (-7, -3),
            (0, 5),
            (1 << 40, 3),
            (123456789012345678, 987654321),
            (-123456789012345678, 987654321),
            (i64::MIN as i128, -1),
            (i128::MAX / 2, i64::MAX as i128),
            (i128::MIN + 1, 3),
        ];
        for &(a, b) in cases {
            let (q, r) = bi(a).div_rem(&bi(b));
            assert_eq!(q, bi(a / b), "quotient for {a}/{b}");
            assert_eq!(r, bi(a % b), "remainder for {a}%{b}");
        }
    }

    #[test]
    fn knuth_division_matches_binary_reference_on_multi_limb_values() {
        // Deterministic multi-limb stress cases, including add-back triggers
        // (dividend top limbs just below a multiple of the divisor).
        let mut vals: Vec<BigInt> = Vec::new();
        for e in [64u32, 65, 95, 96, 127, 160, 224] {
            let p = bi(2).pow(e);
            vals.push(p.clone());
            vals.push(&p - &bi(1));
            vals.push(&p + &bi(1));
            vals.push(&p * &bi(0x1234_5678));
        }
        for a in &vals {
            for b in &vals {
                let (q, r) = a.div_rem(b);
                let (qr, rr) = reference::binary_long_divrem(a, b);
                assert_eq!(q, qr, "quotient {a}/{b}");
                assert_eq!(r, rr, "remainder {a}%{b}");
                assert_eq!(&(&q * b) + &r, a.clone(), "reconstruction {a}/{b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = bi(1).div_rem(&bi(0));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics_large() {
        let _ = bi(i128::MAX).div_rem(&bi(0));
    }

    #[test]
    fn gcd_matches_reference() {
        for a in -30i128..30 {
            for b in -30i128..30 {
                let expect = crate::gcd_i128(a, b);
                assert_eq!(bi(a).gcd(&bi(b)), bi(expect), "gcd({a},{b})");
            }
        }
        // Mixed small/large and large/large.
        let p = bi(2).pow(90) * bi(3).pow(5);
        let q = bi(2).pow(70) * bi(5).pow(4);
        assert_eq!(p.gcd(&q), bi(2).pow(70));
        assert_eq!(p.gcd(&bi(6)), bi(6));
        assert_eq!(
            bi(i64::MIN as i128).gcd(&bi(i64::MIN as i128)),
            bi(1i128 << 63)
        );
        // Lehmer's extremes against the Euclid loop: consecutive Fibonacci
        // numbers (every quotient 1, so the cofactors grow fastest),
        // Mersenne numbers (gcd(2^m - 1, 2^n - 1) = 2^gcd(m,n) - 1), a
        // multiple (one exact remainder step), neighbours and equal values.
        let (mut f0, mut f1) = (bi(0), bi(1));
        for i in 0..700 {
            (f0, f1) = (f1.clone(), &f0 + &f1);
            if i > 90 {
                assert_eq!(f1.gcd(&f0), reference::euclid_gcd(&f1, &f0), "F{i}");
            }
        }
        let mersenne = |e: u32| &bi(2).pow(e) - &bi(1);
        for (m, n) in [(96, 64), (180, 120), (500, 75), (131, 97), (640, 639)] {
            let g = crate::gcd_i128(m as i128, n as i128) as u32;
            assert_eq!(mersenne(m).gcd(&mersenne(n)), mersenne(g), "({m}, {n})");
        }
        let big = &bi(3).pow(200) * &bi(7).pow(40);
        for other in [&big * &bi(3).pow(90), &big + &bi(1), big.clone(), -&big] {
            assert_eq!(big.gcd(&other), reference::euclid_gcd(&big, &other));
        }
    }

    #[test]
    fn pow_small() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(3).pow(0), bi(1));
        assert_eq!(bi(0).pow(0), bi(1));
        assert_eq!(bi(-2).pow(3), bi(-8));
        assert_eq!(bi(10).pow(20), "100000000000000000000".parse().unwrap());
    }

    #[test]
    fn ordering() {
        assert!(bi(-5) < bi(-1));
        assert!(bi(-1) < bi(0));
        assert!(bi(0) < bi(1));
        assert!(bi(1) < bi(5));
        assert!(bi(1i128 << 40) > bi(1i128 << 20));
        assert!(bi(-(1i128 << 40)) < bi(-(1i128 << 20)));
        // Across the Small/Large boundary.
        assert!(bi(i64::MAX as i128) < bi(i64::MAX as i128) + bi(1));
        assert!(bi(i64::MIN as i128) > bi(i64::MIN as i128) - bi(1));
        assert!(bi(i128::MIN + 1) < bi(i64::MIN as i128));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for v in [
            0i128,
            1,
            -1,
            42,
            -42,
            1_000_000_007,
            i64::MAX as i128,
            i64::MIN as i128,
        ] {
            let s = bi(v).to_string();
            assert_eq!(s, v.to_string());
            assert_eq!(s.parse::<BigInt>().unwrap(), bi(v));
        }
        let huge = bi(10).pow(40);
        let s = huge.to_string();
        assert_eq!(s.len(), 41);
        assert_eq!(s.parse::<BigInt>().unwrap(), huge);
        for v in [i128::MAX, i128::MIN + 1, i64::MAX as i128 + 1] {
            assert_eq!(bi(v).to_string(), v.to_string());
            assert_eq!(v.to_string().parse::<BigInt>().unwrap(), bi(v));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
        assert!("1.5".parse::<BigInt>().is_err());
    }

    #[test]
    fn conversions() {
        assert_eq!(bi(12345).to_i128(), Some(12345));
        assert_eq!(bi(-12345).to_i128(), Some(-12345));
        assert_eq!(bi(12345).to_u64(), Some(12345));
        assert_eq!(bi(-1).to_u64(), None);
        assert_eq!(bi(u64::MAX as i128).to_u64(), Some(u64::MAX));
        assert_eq!(bi(u64::MAX as i128 + 1).to_u64(), None);
        assert_eq!(bi(10).pow(50).to_i128(), None);
        assert!((bi(1i128 << 80).to_f64() - (1i128 << 80) as f64).abs() < 1e10);
        assert_eq!(bi(7).to_i64(), Some(7));
        assert_eq!(bi(i64::MAX as i128 + 1).to_i64(), None);
    }

    #[test]
    fn negation_at_i64_min() {
        let x = bi(i64::MIN as i128);
        let n = -&x;
        assert_canonical(&n);
        assert_eq!(n.to_i128(), Some(-(i64::MIN as i128)));
        assert_eq!(-n, x);
    }

    #[test]
    fn bit_len() {
        assert_eq!(bi(0).bit_len(), 0);
        assert_eq!(bi(1).bit_len(), 1);
        assert_eq!(bi(255).bit_len(), 8);
        assert_eq!(bi(256).bit_len(), 9);
        assert_eq!(bi(1i128 << 64).bit_len(), 65);
        assert_eq!(bi(i64::MIN as i128).bit_len(), 64);
    }

    #[test]
    fn assign_ops() {
        let mut x = bi(10);
        x += &bi(5);
        assert_eq!(x, bi(15));
        x -= &bi(20);
        assert_eq!(x, bi(-5));
        x *= &bi(-3);
        assert_eq!(x, bi(15));
        let mut y = bi(i64::MAX as i128);
        y += &bi(1);
        assert_canonical(&y);
        assert_eq!(y.to_i128(), Some(i64::MAX as i128 + 1));
    }
}

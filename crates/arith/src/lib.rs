//! Exact arithmetic substrate for `projtile`.
//!
//! The communication lower bounds and tilings of Dinh & Demmel (SPAA 2020) are
//! defined by small linear programs whose optimal values must be compared
//! *exactly*: Theorem 3 of the paper states that the optimum of the tiling LP
//! (5.1) equals one of the Theorem-2 exponents, and the test suite of this
//! workspace checks that equality literally. Floating point is not good enough
//! for that, so this crate provides:
//!
//! * [`BigInt`] — an arbitrary-precision signed integer (sign + magnitude,
//!   32-bit limbs), with the usual ring operations, Euclidean division, GCD,
//!   and exponentiation.
//! * [`Rational`] — an exact rational number over [`BigInt`], always kept in
//!   lowest terms with a positive denominator.
//! * [`log`] — helpers for representing `β_i = log_M L_i` as an exact rational
//!   when `L_i` and `M` share a common integer base (e.g. both are powers of
//!   two), and as a controlled rational approximation otherwise.
//!
//! The crate has no dependencies; it is deliberately small and heavily tested
//! (unit tests in each module plus property tests against `i128` semantics).
//!
//! # Representation and fast paths
//!
//! This crate is the hot path of the whole workspace — every Theorem-2 bound,
//! tiling LP, and tightness check bottoms out in `Rational` ops inside the
//! exact simplex solver — so both types are built around a small-value fast
//! path:
//!
//! * [`BigInt`] stores every value in `[i64::MIN, i64::MAX]` **inline**
//!   (`Small(i64)`), touching the heap only beyond 64 bits (`Large`:
//!   sign + 32-bit limbs). The representation is *canonical*: a value is
//!   `Large` iff it does not fit in `i64`, and `Large` limb vectors carry no
//!   trailing zeros. Every constructor restores this invariant, which is what
//!   makes the derived `Eq`/`Hash` value-correct. `Small × Small` arithmetic
//!   runs on machine integers (widened to `i128` where needed); multi-limb
//!   multiplication is schoolbook (the LP values stay a few limbs long);
//!   multi-limb division is limb-wise Knuth Algorithm D; multi-limb GCD is
//!   Lehmer's algorithm in two reused buffers.
//! * [`Rational`] is always in lowest terms with a positive denominator.
//!   When all four components of a binary operation fit in `i64`, the op is
//!   one `i128` cross-multiplication plus one binary-GCD normalization
//!   ([`gcd_u64`]/[`gcd_u128`]) — no allocation. The fused
//!   [`Rational::sub_mul_assign`] / [`Rational::add_mul_assign`] perform the
//!   simplex row-update `x ← x ∓ f·p` with a *single* normalization, and
//!   [`Rational::cmp_div`] compares two quotients without forming either —
//!   these are the "gcd-light" kernels `projtile_lp::simplex` pivots on.
//!
//! The simple algorithms the fast paths replaced (the seed's schoolbook
//! multiplication and bit-by-bit binary long division, and the allocating
//! Euclid gcd loop that Lehmer's algorithm replaced) are retained under
//! `reference` (doc-hidden) and the property suite
//! (`tests/proptest_arith.rs`) checks the fast paths against them *exactly*,
//! limb-for-limb, alongside `i128` differential checks for `Rational`.
//!
//! # Benchmark protocol
//!
//! Perf snapshots live in `BENCH_*.json` at the repository root; the full
//! protocol (how to produce a snapshot, what the baselines mean) is
//! documented in `docs/benchmarking.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod gcd;
pub mod log;
mod rational;

#[doc(hidden)]
pub use bigint::reference;
pub use bigint::{BigInt, Sign};
pub use gcd::{gcd_i128, gcd_u128, gcd_u64};
pub use rational::Rational;

/// Convenience constructor for a rational `num / den` from machine integers.
///
/// # Panics
/// Panics if `den == 0`.
pub fn ratio(num: i64, den: i64) -> Rational {
    Rational::from_frac(BigInt::from(num), BigInt::from(den))
}

/// Convenience constructor for an integer-valued rational.
pub fn int(value: i64) -> Rational {
    Rational::from_integer(BigInt::from(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_int_agree() {
        assert_eq!(ratio(4, 2), int(2));
        assert_eq!(ratio(-3, 6), ratio(1, -2));
        assert_eq!(ratio(0, 5), int(0));
    }
}

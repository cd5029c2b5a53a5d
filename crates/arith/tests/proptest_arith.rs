//! Property tests: BigInt/Rational arithmetic must agree with i128 semantics
//! on inputs that fit, and must satisfy the algebraic laws used by the exact
//! simplex solver (field axioms for Rational, ring axioms for BigInt).

use projtile_arith::{ratio, BigInt, Rational};
use proptest::prelude::*;
use proptest::TestCaseError;

fn bi(v: i128) -> BigInt {
    BigInt::from(v)
}

proptest! {
    #[test]
    fn add_matches_i128(a in -1_000_000_000_000i128..1_000_000_000_000, b in -1_000_000_000_000i128..1_000_000_000_000) {
        prop_assert_eq!(&bi(a) + &bi(b), bi(a + b));
    }

    #[test]
    fn sub_matches_i128(a in -1_000_000_000_000i128..1_000_000_000_000, b in -1_000_000_000_000i128..1_000_000_000_000) {
        prop_assert_eq!(&bi(a) - &bi(b), bi(a - b));
    }

    #[test]
    fn mul_matches_i128(a in -1_000_000_000i128..1_000_000_000, b in -1_000_000_000i128..1_000_000_000) {
        prop_assert_eq!(&bi(a) * &bi(b), bi(a * b));
    }

    #[test]
    fn div_rem_matches_i128(a in -1_000_000_000_000i128..1_000_000_000_000, b in -1_000_000i128..1_000_000) {
        prop_assume!(b != 0);
        let (q, r) = bi(a).div_rem(&bi(b));
        prop_assert_eq!(q, bi(a / b));
        prop_assert_eq!(r, bi(a % b));
    }

    #[test]
    fn div_rem_reconstructs(a in any::<i64>(), b in any::<i64>()) {
        prop_assume!(b != 0);
        let (q, r) = bi(a as i128).div_rem(&bi(b as i128));
        prop_assert_eq!(&(&q * &bi(b as i128)) + &r, bi(a as i128));
    }

    #[test]
    fn ordering_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(bi(a as i128).cmp(&bi(b as i128)), a.cmp(&b));
    }

    #[test]
    fn display_parse_roundtrip(a in any::<i128>()) {
        let x = bi(a);
        let s = x.to_string();
        prop_assert_eq!(s.parse::<BigInt>().unwrap(), x);
        prop_assert_eq!(s, a.to_string());
    }

    #[test]
    fn gcd_divides_and_is_max(a in -100_000i64..100_000, b in -100_000i64..100_000) {
        let g = bi(a as i128).gcd(&bi(b as i128));
        if a == 0 && b == 0 {
            prop_assert!(g.is_zero());
        } else {
            prop_assert!(g.is_positive());
            prop_assert!((&bi(a as i128) % &g).is_zero());
            prop_assert!((&bi(b as i128) % &g).is_zero());
        }
    }

    #[test]
    fn rational_field_laws(
        an in -1000i64..1000, ad in 1i64..1000,
        bn in -1000i64..1000, bd in 1i64..1000,
        cn in -1000i64..1000, cd in 1i64..1000,
    ) {
        let a = ratio(an, ad);
        let b = ratio(bn, bd);
        let c = ratio(cn, cd);
        // commutativity and associativity
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        // distributivity
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        // additive / multiplicative inverses
        prop_assert_eq!(&a - &a, Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rational::one());
            prop_assert_eq!(&(&b / &a) * &a, b.clone());
        }
    }

    #[test]
    fn rational_ordering_consistent_with_f64(
        an in -1000i64..1000, ad in 1i64..1000,
        bn in -1000i64..1000, bd in 1i64..1000,
    ) {
        let a = ratio(an, ad);
        let b = ratio(bn, bd);
        let fa = an as f64 / ad as f64;
        let fb = bn as f64 / bd as f64;
        if (fa - fb).abs() > 1e-9 {
            prop_assert_eq!(a < b, fa < fb);
        }
    }

    #[test]
    fn rational_floor_ceil_bracket(an in -10_000i64..10_000, ad in 1i64..100) {
        let a = ratio(an, ad);
        let floor = Rational::from_integer(a.floor());
        let ceil = Rational::from_integer(a.ceil());
        prop_assert!(floor <= a);
        prop_assert!(a <= ceil);
        prop_assert!(&ceil - &floor <= Rational::one());
        if a.is_integer() {
            prop_assert_eq!(floor, ceil);
        }
    }

    #[test]
    fn bigint_pow_matches_u128(base in 0u32..50, exp in 0u32..8) {
        let expect = (base as u128).pow(exp);
        prop_assert_eq!(BigInt::from(base).pow(exp), BigInt::from(expect));
    }
}

// ---------------------------------------------------------------------------
// Differential tests: the fast-path arithmetic (inline small values, Knuth-D
// division, multi-limb multiplication, i128 Rational cross-multiplication)
// must agree *exactly* with the retained reference implementations
// (`projtile_arith::reference`: schoolbook multiplication and bit-by-bit
// binary long division — the seed's algorithms) and with independent i128
// arithmetic.
// ---------------------------------------------------------------------------

/// Builds a BigInt spanning `limbs.len()` 32-bit limbs (plus sign), so the
/// multi-limb code paths are exercised, not just the inline fast path.
fn from_limbs_and_sign(limbs: &[u32], negative: bool) -> BigInt {
    let shift = BigInt::from(1u128 << 32);
    let mut acc = BigInt::zero();
    for &l in limbs.iter().rev() {
        acc = &(&acc * &shift) + &BigInt::from(l);
    }
    if negative {
        acc = -acc;
    }
    acc
}

/// Reference u128 gcd (Euclid) used to reduce fractions independently of the
/// library's binary-gcd fast path.
fn euclid_gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn multi_limb_mul_matches_schoolbook_reference(
        a_limbs in proptest::collection::vec(any::<u32>(), 1..12),
        b_limbs in proptest::collection::vec(any::<u32>(), 1..12),
        a_neg in proptest::bool::ANY,
        b_neg in proptest::bool::ANY,
    ) {
        let a = from_limbs_and_sign(&a_limbs, a_neg);
        let b = from_limbs_and_sign(&b_limbs, b_neg);
        prop_assert_eq!(&a * &b, projtile_arith::reference::schoolbook_mul(&a, &b));
    }

    #[test]
    fn karatsuba_sized_mul_matches_schoolbook_reference(
        a_limbs in proptest::collection::vec(any::<u32>(), 33..80),
        b_limbs in proptest::collection::vec(any::<u32>(), 33..80),
        a_neg in proptest::bool::ANY,
    ) {
        // Long operands (33–79 limbs), past any value the LPs produce.
        let a = from_limbs_and_sign(&a_limbs, a_neg);
        let b = from_limbs_and_sign(&b_limbs, false);
        prop_assert_eq!(&a * &b, projtile_arith::reference::schoolbook_mul(&a, &b));
    }

    #[test]
    fn knuth_d_divrem_matches_binary_reference(
        a_limbs in proptest::collection::vec(any::<u32>(), 1..14),
        b_limbs in proptest::collection::vec(any::<u32>(), 2..7),
        a_neg in proptest::bool::ANY,
        b_neg in proptest::bool::ANY,
    ) {
        let a = from_limbs_and_sign(&a_limbs, a_neg);
        let b = from_limbs_and_sign(&b_limbs, b_neg);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        let (qr, rr) = projtile_arith::reference::binary_long_divrem(&a, &b);
        prop_assert_eq!(&q, &qr);
        prop_assert_eq!(&r, &rr);
        // And the Euclidean identity holds exactly.
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn single_limb_divisor_matches_binary_reference(
        a_limbs in proptest::collection::vec(any::<u32>(), 1..10),
        d in 1u32..u32::MAX,
        a_neg in proptest::bool::ANY,
    ) {
        let a = from_limbs_and_sign(&a_limbs, a_neg);
        let b = BigInt::from(d);
        let (q, r) = a.div_rem(&b);
        let (qr, rr) = projtile_arith::reference::binary_long_divrem(&a, &b);
        prop_assert_eq!(q, qr);
        prop_assert_eq!(r, rr);
    }

    #[test]
    fn rational_ops_match_i128_cross_multiplication(
        an in -100_000i64..100_000, ad in 1i64..100_000,
        bn in -100_000i64..100_000, bd in 1i64..100_000,
    ) {
        let a = ratio(an, ad);
        let b = ratio(bn, bd);
        // Expected values computed with plain i128 arithmetic and an
        // independent Euclid gcd, then compared component-wise.
        let check = |r: &Rational, mut num: i128, mut den: i128| -> Result<(), TestCaseError> {
            if den < 0 {
                num = -num;
                den = -den;
            }
            let g = euclid_gcd_u128(num.unsigned_abs(), den.unsigned_abs());
            if g > 1 {
                num /= g as i128;
                den /= g as i128;
            }
            if num == 0 {
                den = 1;
            }
            prop_assert_eq!(r.numer().to_i128(), Some(num));
            prop_assert_eq!(r.denom().to_i128(), Some(den));
            Ok(())
        };
        check(&(&a + &b), an as i128 * bd as i128 + bn as i128 * ad as i128,
              ad as i128 * bd as i128)?;
        check(&(&a - &b), an as i128 * bd as i128 - bn as i128 * ad as i128,
              ad as i128 * bd as i128)?;
        check(&(&a * &b), an as i128 * bn as i128, ad as i128 * bd as i128)?;
        if bn != 0 {
            check(&(&a / &b), an as i128 * bd as i128, ad as i128 * bn as i128)?;
        }
        // Ordering matches i128 cross multiplication.
        let lhs = an as i128 * bd as i128;
        let rhs = bn as i128 * ad as i128;
        prop_assert_eq!(a.cmp(&b), lhs.cmp(&rhs));
    }

    #[test]
    fn fused_ops_match_separate_ops(
        an in -1000i64..1000, ad in 1i64..1000,
        fn_ in -1000i64..1000, fd in 1i64..1000,
        pn in -1000i64..1000, pd in 1i64..1000,
    ) {
        let a = ratio(an, ad);
        let f = ratio(fn_, fd);
        let p = ratio(pn, pd);
        let mut fused = a.clone();
        fused.sub_mul_assign(&f, &p);
        prop_assert_eq!(fused, &a - &(&f * &p));
        let mut fused = a.clone();
        fused.add_mul_assign(&f, &p);
        prop_assert_eq!(fused, &a + &(&f * &p));
    }

    #[test]
    fn cmp_div_matches_explicit_division(
        an in -1000i64..1000, ad in 1i64..1000,
        bn in 1i64..1000, bd in 1i64..1000,
        cn in -1000i64..1000, cd in 1i64..1000,
        dn in 1i64..1000, dd in 1i64..1000,
    ) {
        let a = ratio(an, ad);
        let b = ratio(bn, bd);
        let c = ratio(cn, cd);
        let d = ratio(dn, dd);
        prop_assert_eq!(Rational::cmp_div(&a, &b, &c, &d), (&a / &b).cmp(&(&c / &d)));
    }

    #[test]
    fn rational_ops_agree_with_reference_beyond_i64(
        an in any::<i64>(), ad in 1i64..i64::MAX,
        bn in any::<i64>(), bd in 1i64..i64::MAX,
    ) {
        // Near the top of the i64 range the fast path overflows its i128
        // intermediates and must fall back to BigInt arithmetic; the result
        // must be identical either way. Compare against values computed from
        // scratch with BigInt-only building blocks.
        let a = ratio(an, ad);
        let b = ratio(bn, bd);
        let sum = &a + &b;
        let expect_num = &(&BigInt::from(an) * &BigInt::from(bd))
            + &(&BigInt::from(bn) * &BigInt::from(ad));
        let expect_den = &BigInt::from(ad) * &BigInt::from(bd);
        let g = expect_num.gcd(&expect_den);
        if !g.is_zero() {
            prop_assert_eq!(sum.numer(), &(&expect_num / &g));
            prop_assert_eq!(sum.denom(), &(&expect_den / &g));
        } else {
            prop_assert!(sum.is_zero());
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-limb gcd: Lehmer's algorithm in `BigInt::gcd` against the Euclid loop
// it replaced (`projtile_arith::reference::euclid_gcd`), and the canonical
// form of rationals whose normalization runs it.
// ---------------------------------------------------------------------------

/// A limb that is zero or all ones a quarter of the time, so carries, zero
/// limbs and exact divisions turn up as well as uniform values.
fn gcd_limb() -> impl Strategy<Value = u32> {
    any::<u64>().prop_map(|x| match x % 8 {
        0 => 0,
        1 => u32::MAX,
        _ => (x >> 32) as u32,
    })
}

/// Zero and the values at the `Small`/`Large` boundary and at the one- and
/// two-word boundaries of the gcd's fast paths.
fn gcd_edge_values() -> Vec<BigInt> {
    let one = BigInt::one();
    let pow2 = |e: u32| BigInt::from(2).pow(e);
    vec![
        BigInt::zero(),
        BigInt::from(i64::MIN),
        pow2(63),
        &pow2(64) - &one,
        &pow2(64) + &one,
        &pow2(128) - &one,
        &pow2(128) + &one,
    ]
}

/// Asserts that `r` is in lowest terms with a positive denominator, using
/// the reference gcd so the check does not share the fast path under test.
fn assert_canonical(r: &Rational) -> Result<(), TestCaseError> {
    prop_assert!(r.denom().is_positive(), "denominator of {} not positive", r);
    prop_assert_eq!(
        projtile_arith::reference::euclid_gcd(r.numer(), r.denom()),
        BigInt::one(),
        "{} not in lowest terms",
        r
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gcd_matches_euclid_reference_on_multi_limb_operands(
        a_limbs in proptest::collection::vec(gcd_limb(), 1..=16),
        b_limbs in proptest::collection::vec(gcd_limb(), 1..=16),
        f_limbs in proptest::collection::vec(gcd_limb(), 1..=8),
        a_neg in proptest::bool::ANY,
        b_neg in proptest::bool::ANY,
        edge in 0usize..7,
    ) {
        use projtile_arith::reference::euclid_gcd;
        let a = from_limbs_and_sign(&a_limbs, a_neg);
        let b = from_limbs_and_sign(&b_limbs, b_neg);
        // A shared factor of 1-8 limbs makes the gcd itself multi-limb.
        let f = from_limbs_and_sign(&f_limbs, false);
        let (af, bf) = (&a * &f, &b * &f);
        let e = &gcd_edge_values()[edge];
        let pairs = [(&a, &b), (&af, &bf), (&af, &b), (&a, &a), (&af, &af), (&a, e), (&af, e)];
        for (x, y) in pairs {
            let g = euclid_gcd(x, y);
            prop_assert_eq!(x.gcd(y), g.clone(), "gcd({}, {})", x, y);
            prop_assert_eq!(y.gcd(x), g.clone(), "gcd({}, {})", y, x);
            prop_assert_eq!((-x).gcd(y), g, "gcd(-({}), {})", x, y);
        }
    }

    #[test]
    fn large_rational_ops_stay_canonical(
        an in proptest::collection::vec(gcd_limb(), 2..=6),
        ad in proptest::collection::vec(gcd_limb(), 2..=6),
        bn in proptest::collection::vec(gcd_limb(), 2..=6),
        bd in proptest::collection::vec(gcd_limb(), 2..=6),
        f_limbs in proptest::collection::vec(gcd_limb(), 1..=3),
        a_neg in proptest::bool::ANY,
        b_neg in proptest::bool::ANY,
    ) {
        // Components share a factor so that every operation has a
        // multi-limb common divisor to cancel.
        let f = from_limbs_and_sign(&f_limbs, false);
        prop_assume!(!f.is_zero());
        let big = |limbs: &[u32], neg: bool| &from_limbs_and_sign(limbs, neg) * &f;
        let (an, ad, bn, bd) = (big(&an, a_neg), big(&ad, false), big(&bn, b_neg), big(&bd, false));
        prop_assume!(!ad.is_zero() && !bd.is_zero());
        let a = Rational::from_frac(an.clone(), ad.clone());
        let b = Rational::from_frac(bn.clone(), bd.clone());
        assert_canonical(&a)?;
        assert_canonical(&b)?;
        // Each result must equal its unreduced fraction `num / den`.
        let same_value = |r: &Rational, num: &BigInt, den: &BigInt| {
            r.numer() * den == num * r.denom()
        };
        let sum = &a + &b;
        assert_canonical(&sum)?;
        prop_assert!(same_value(&sum, &(&(&an * &bd) + &(&bn * &ad)), &(&ad * &bd)));
        let product = &a * &b;
        assert_canonical(&product)?;
        prop_assert!(same_value(&product, &(&an * &bn), &(&ad * &bd)));
        if !b.is_zero() {
            let quotient = &a / &b;
            assert_canonical(&quotient)?;
            prop_assert!(same_value(&quotient, &(&an * &bd), &(&ad * &bn)));
        }
        let mut fused = a.clone();
        fused.sub_mul_assign(&b, &sum);
        assert_canonical(&fused)?;
        prop_assert_eq!(&fused, &(&a - &(&b * &sum)));
    }
}

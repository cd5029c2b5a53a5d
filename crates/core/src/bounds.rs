//! Arbitrary-bound tile-size upper bounds and communication lower bounds
//! (Theorem 2, §4 of the paper).
//!
//! For every subset `Q ⊆ [d]` of loop indices treated as "small" and every
//! nonnegative `ŝ` satisfying the HBL constraints with the rows of `Q`
//! removed, the paper derives the tile-size upper bound `M^{k_Q(ŝ)}` with
//!
//! ```text
//! k_Q(ŝ) = Σ_i ŝ_i  +  Σ_{j ∈ Q : Σ_{i ∈ R_j} ŝ_i ≤ 1}  β_j · (1 − Σ_{i ∈ R_j} ŝ_i)
//! ```
//!
//! where `R_j` is the set of arrays whose support contains loop index `j` and
//! `β_j = log_M L_j`. The strongest such bound over all `(Q, ŝ)` is obtained
//! in one shot by the linear program (5.5)/(5.6) of the paper (the dual of the
//! tiling LP) with every index allowed to contribute:
//!
//! ```text
//! minimize  Σ_i ŝ_i + Σ_j β_j ζ_j
//! subject to ζ_j + Σ_{i ∈ R_j} ŝ_i ≥ 1   for every loop index j
//!            ŝ, ζ ≥ 0
//! ```
//!
//! (at the optimum `ζ_j = max(0, 1 − Σ_{R_j} ŝ_i)`, so the objective is
//! exactly `k_Q(ŝ)` for `Q = {j : ζ_j > 0}`). This module computes both the
//! strongest bound (via that LP) and the paper's explicit `2^d`-subset
//! enumeration, which uses the *optimal* row-deleted HBL solution for each `Q`
//! and is therefore an upper bound on the tile size that may be slightly
//! weaker; the test suite checks the expected relationships between the two.
//!
//! The enumeration solves only a few of its `2^d` row-deleted programs. The
//! subsets form a lattice, and a subset whose one-larger parent's optimum
//! already satisfies the extra row inherits that optimum and its exponent
//! exactly (see [`enumerated_exponent`] for why).
//!
//! The resulting communication lower bound is
//! `(#iterations) · M / M^{k̂} = ∏ L_i · M^{1 − k̂}` words.

use projtile_arith::{log, Rational};
use projtile_loopnest::{IndexSet, LoopNest};
use projtile_lp::{solve, Constraint, LinearProgram, Relation};
use projtile_par::par_map;
use serde::{json, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::collections::HashMap;

use crate::hbl::{solve_hbl, HblFamily};

/// The strongest Theorem-2 bound, with the certificate that witnesses it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LowerBound {
    /// The tile-size exponent `k̂` (tile size is at most `M^{k̂}`).
    pub exponent: Rational,
    /// The witness subset `Q* = {j : ζ_j > 0}` from the dual optimum.
    pub witness_subset: IndexSet,
    /// The witness HBL weights `ŝ` (feasible for the HBL LP with the rows of
    /// `Q*` removed).
    pub s_hat: Vec<Rational>,
    /// The dual multipliers `ζ_j` of the loop-bound constraints.
    pub zeta: Vec<Rational>,
    /// Upper bound on tile size, `M^{k̂}`, as a float.
    pub tile_size_bound: f64,
    /// Communication lower bound `∏ L_i · M^{1 − k̂}` in words, as a float.
    pub words: f64,
}

/// The result of the paper's explicit subset enumeration.
///
/// Its `Deserialize` is written by hand and reads the derive's document
/// (`{"exponent": k, "best_subset": Q, "per_subset": [[Q, k_Q], …]}`) with
/// the derive's errors. The `2^d` exponents take few distinct values (the
/// row-deleted HBL optimum behind `k_Q` does), so within one call each
/// distinct `k_Q` string is parsed once, through a map that is O(1) per
/// entry even when every value is distinct. `read_json` keys that map by
/// each escape-free `k_Q`'s slice of the text itself, so no `String` is
/// made per pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EnumeratedBound {
    /// The best exponent found by the enumeration.
    pub exponent: Rational,
    /// The subset achieving it (smallest such subset on ties).
    pub best_subset: IndexSet,
    /// Every `(Q, k_Q)` pair, in mask order (useful for reports and plots).
    pub per_subset: Vec<(IndexSet, Rational)>,
}

/// Reads the fields in the derive's order with the derive's error texts.
impl Deserialize for EnumeratedBound {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let mut memo: HashMap<&str, Rational> = HashMap::new();
        let exponent = memo_rational(&mut memo, v.field("exponent")?)?;
        let best_subset = IndexSet::deserialize(v.field("best_subset")?)?;
        let per_subset = match v.field("per_subset")? {
            Value::Array(items) => items
                .iter()
                .map(|item| match item.array_of(2, "a pair")? {
                    [q, k] => Ok((IndexSet::deserialize(q)?, memo_rational(&mut memo, k)?)),
                    _ => Err(serde::Error::custom("expected 2 elements for a pair")),
                })
                .collect::<Result<_, _>>()?,
            other => {
                return Err(serde::Error::custom(format!(
                    "expected an array, found {}",
                    other.kind()
                )))
            }
        };
        Ok(EnumeratedBound {
            exponent,
            best_subset,
            per_subset,
        })
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, serde::Error> {
        read_enumerated(r)
    }
}

/// Reads the derive's document as its `deserialize` does: fields in any
/// order, the first of a repeated key, unknown keys dropped.
fn read_enumerated<'a>(r: &mut json::Reader<'a>) -> Result<EnumeratedBound, serde::Error> {
    let mut memo: HashMap<&'a str, Rational> = HashMap::new();
    let (mut exponent, mut best_subset, mut per_subset) = (None, None, None);
    r.object(|r, key| {
        match &*key {
            "exponent" if exponent.is_none() => exponent = Some(read_rational(r, &mut memo)?),
            "best_subset" if best_subset.is_none() => best_subset = Some(IndexSet::read_json(r)?),
            "per_subset" if per_subset.is_none() => {
                let mut pairs = Vec::new();
                r.array(|r| {
                    let (mut q, mut k) = (None, None);
                    r.tuple(2, |r, i| {
                        if i == 0 {
                            q = Some(IndexSet::read_json(r)?);
                        } else {
                            k = Some(read_rational(r, &mut memo)?);
                        }
                        Ok(())
                    })?;
                    pairs.push(
                        q.zip(k).ok_or_else(|| {
                            serde::Error::custom("expected 2 elements for a pair")
                        })?,
                    );
                    Ok(())
                })?;
                per_subset = Some(pairs);
            }
            _ => r.skip()?,
        }
        Ok(())
    })?;
    let missing = |f: &str| serde::Error::custom(format!("missing field `{f}`"));
    Ok(EnumeratedBound {
        exponent: exponent.ok_or_else(|| missing("exponent"))?,
        best_subset: best_subset.ok_or_else(|| missing("best_subset"))?,
        per_subset: per_subset.ok_or_else(|| missing("per_subset"))?,
    })
}

/// [`Rational::read_json`], parsing each distinct escape-free string once
/// per `memo`, which borrows it from the text.
fn read_rational<'a>(
    r: &mut json::Reader<'a>,
    memo: &mut HashMap<&'a str, Rational>,
) -> Result<Rational, serde::Error> {
    if r.peek()? != b'"' {
        return Rational::read_json(r);
    }
    match r.string()? {
        Cow::Borrowed(text) => memoized(memo, text),
        Cow::Owned(text) => parse_rational(&text),
    }
}

/// [`Rational::deserialize`], parsing each distinct string once per `memo`.
fn memo_rational<'v>(
    memo: &mut HashMap<&'v str, Rational>,
    v: &'v Value,
) -> Result<Rational, serde::Error> {
    match v {
        Value::String(text) => memoized(memo, text),
        _ => Rational::deserialize(v),
    }
}

/// The rational a JSON string holds, parsed once per distinct `text` per
/// `memo`.
fn memoized<'a>(
    memo: &mut HashMap<&'a str, Rational>,
    text: &'a str,
) -> Result<Rational, serde::Error> {
    if let Some(k) = memo.get(text) {
        return Ok(k.clone());
    }
    let k = parse_rational(text)?;
    memo.insert(text, k.clone());
    Ok(k)
}

/// A JSON string's rational, with `Rational::deserialize`'s error.
fn parse_rational(text: &str) -> Result<Rational, serde::Error> {
    text.parse::<Rational>()
        .map_err(|e| serde::Error::custom(e.to_string()))
}

/// The log-bounds `β_i = log_M L_i` of a nest, as exact rationals where
/// possible (see [`projtile_arith::log::beta`]).
pub fn betas(nest: &LoopNest, cache_size: u64) -> Vec<Rational> {
    nest.bounds()
        .iter()
        .map(|&l| log::beta(l as u128, cache_size as u128))
        .collect()
}

/// Builds the bound LP (5.5)/(5.6): variables `ŝ_1..ŝ_n, ζ_1..ζ_d`.
pub fn bound_lp(nest: &LoopNest, cache_size: u64) -> LinearProgram {
    bound_lp_for_betas(nest, betas(nest, cache_size))
}

/// [`bound_lp`] for explicitly given log-bounds `β_1..β_d`, which need not
/// come from integer loop bounds. The per-region Theorem-3 check of
/// [`crate::tightness::check_tightness_surface`] uses this to validate
/// strong duality at the (rational) witness point of every critical region
/// of an exponent surface.
// lint: allow(L008) assert_eq pins betas.len() == num_loops, established by validate_query
pub fn bound_lp_for_betas(nest: &LoopNest, beta: Vec<Rational>) -> LinearProgram {
    let n = nest.num_arrays();
    let d = nest.num_loops();
    assert_eq!(beta.len(), d, "one beta per loop required");
    let mut costs = vec![Rational::one(); n];
    costs.extend(beta);
    let mut lp = LinearProgram::minimize(costs);
    for j in 0..d {
        let mut coeffs = vec![Rational::zero(); n + d];
        for (i, c) in coeffs.iter_mut().enumerate().take(n) {
            if nest.support(i).contains(j) {
                *c = Rational::one();
            }
        }
        coeffs[n + j] = Rational::one();
        lp.add_constraint(Constraint::new(coeffs, Relation::Ge, Rational::one()));
    }
    lp
}

/// Computes the Theorem-2 exponent `k_Q(ŝ)` for a subset `Q` and an explicit
/// `ŝ` vector (which must satisfy the row-deleted HBL constraints for the
/// bound to be valid; this is the caller's responsibility).
pub fn exponent_from_s_hat(
    nest: &LoopNest,
    cache_size: u64,
    q: IndexSet,
    s_hat: &[Rational],
) -> Rational {
    exponent_from_s_hat_with_betas(nest, &betas(nest, cache_size), q, s_hat)
}

/// [`exponent_from_s_hat`] with the `β_i` precomputed by the caller, so sweeps
/// over many subsets (the `2^d` enumeration) compute the logs exactly once.
// lint: allow(L008) assert_eq pins dimension agreement established by validate_query
pub fn exponent_from_s_hat_with_betas(
    nest: &LoopNest,
    beta: &[Rational],
    q: IndexSet,
    s_hat: &[Rational],
) -> Rational {
    assert_eq!(
        s_hat.len(),
        nest.num_arrays(),
        "one weight per array required"
    );
    assert_eq!(beta.len(), nest.num_loops(), "one beta per loop required");
    let one = Rational::one();
    let mut k: Rational = s_hat.iter().fold(Rational::zero(), |acc, s| &acc + s);
    for j in q.iter() {
        let r_j_sum: Rational = (0..nest.num_arrays())
            .filter(|&a| nest.support(a).contains(j))
            .fold(Rational::zero(), |acc, a| &acc + &s_hat[a]);
        if r_j_sum <= one {
            // k += β_j · (1 − Σ_{R_j} ŝ): fused, one normalization.
            k.add_mul_assign(&beta[j], &(&one - &r_j_sum));
        }
    }
    k
}

/// The Theorem-2 exponent for a single subset `Q`, using the optimal solution
/// of the row-deleted HBL LP as `ŝ` (the paper's stated recipe).
pub fn exponent_for_subset(nest: &LoopNest, cache_size: u64, q: IndexSet) -> Rational {
    let sol = solve_hbl(nest, q);
    exponent_from_s_hat(nest, cache_size, q, &sol.s)
}

/// The paper's explicit `2^d` enumeration: evaluates `k_Q` for every subset
/// and reports the minimum. Because each `k_Q` uses the *optimal* row-deleted
/// HBL solution rather than the best feasible one, this can be marginally
/// weaker than [`arbitrary_bound_exponent`]; it is provided because it is the
/// form stated in the paper and is useful for reports.
///
/// The subsets form a lattice, and most of them take their answer from a
/// parent. Masks are visited in descending order, so every parent
/// `Q ∪ {i}` comes before `Q`. A subset `Q` **inherits** both `ŝ*_Q` and
/// `k_Q` from a parent whose optimum satisfies row `i`
/// (`Σ_{a : i ∈ supp a} ŝ_a ≥ 1`). This is exact:
///
/// * `ŝ*_Q = ŝ*_{Q∪{i}}`: enforcing row `i` only shrinks the feasible
///   region, so a lex-min optimum that stays feasible is still the lex-min
///   optimum;
/// * `k_Q = k_{Q∪{i}}`: row `i`'s term `β_i (1 − Σ_{R_i} ŝ)` is zero or
///   absent once its sum reaches 1.
///
/// Only subsets that no parent covers are solved, on one warm-started
/// [`HblFamily`]. Results are bitwise-identical to the cold
/// [`enumerated_exponent_cold`] (both report the canonical lex-min optimum
/// of each subset's LP, a property of the program rather than of the pivot
/// path), and the cold form is retained as the differential oracle.
///
/// # Panics
/// Panics if the nest has more than 30 loops (like
/// [`IndexSet::all_subsets`]: the sweep is exponential in `d`).
pub fn enumerated_exponent(nest: &LoopNest, cache_size: u64) -> EnumeratedBound {
    enumerate_lattice(nest, cache_size, &mut HblFamily::new(nest))
}

/// One solved subset of the lattice walk: its exponent and the rows its
/// optimum satisfies (every subset inheriting from it shares both).
struct Solved {
    k: Rational,
    satisfied: IndexSet,
}

/// [`enumerated_exponent`] on a caller-supplied family, whose counters then
/// show how many subsets needed an LP solve.
// lint: allow(L008) asserts pin nest/betas dimension agreement checked at the surface
fn enumerate_lattice(nest: &LoopNest, cache_size: u64, family: &mut HblFamily) -> EnumeratedBound {
    assert!(cache_size >= 2, "cache size must be at least 2 words");
    let d = nest.num_loops();
    assert!(
        d <= 30,
        "subset enumeration over more than 30 indices refused"
    );
    // One betas computation shared by all solved subsets.
    let beta = betas(nest, cache_size);
    let full = IndexSet::full(d);
    let mut solved: Vec<Solved> = Vec::new();
    // `source[mask]` indexes the solve whose optimum subset `mask` shares.
    let mut source: Vec<usize> = vec![0; 1 << d];
    for mask in (0..1u64 << d).rev() {
        let q = IndexSet::from_bits(mask);
        let inherited = full.difference(q).iter().find_map(|i| {
            let s = source[(mask | 1 << i) as usize];
            solved[s].satisfied.contains(i).then_some(s)
        });
        source[mask as usize] = inherited.unwrap_or_else(|| {
            let s_hat = family.solve(q).s;
            solved.push(Solved {
                k: exponent_from_s_hat_with_betas(nest, &beta, q, &s_hat),
                satisfied: rows_satisfied(nest, &s_hat),
            });
            solved.len() - 1
        });
    }
    let per_subset = source
        .iter()
        .enumerate()
        .map(|(mask, &s)| (IndexSet::from_bits(mask as u64), solved[s].k.clone()))
        .collect();
    select_best(per_subset)
}

/// The loop indices `i` whose HBL row `ŝ` satisfies: `Σ_{a : i ∈ supp a} ŝ_a ≥ 1`.
fn rows_satisfied(nest: &LoopNest, s_hat: &[Rational]) -> IndexSet {
    let one = Rational::one();
    IndexSet::from_indices((0..nest.num_loops()).filter(|&i| {
        let r_i = (0..nest.num_arrays())
            .filter(|&a| nest.support(a).contains(i))
            .fold(Rational::zero(), |acc, a| &acc + &s_hat[a]);
        r_i >= one
    }))
}

/// The pre-batching form of [`enumerated_exponent`]: one independent cold LP
/// solve per subset. Kept as the differential oracle for the warm-started
/// sweep (the test suite asserts exact equality of the full result).
pub fn enumerated_exponent_cold(nest: &LoopNest, cache_size: u64) -> EnumeratedBound {
    assert!(cache_size >= 2, "cache size must be at least 2 words");
    let d = nest.num_loops();
    let subsets: Vec<IndexSet> = IndexSet::all_subsets(d).collect();
    let beta = betas(nest, cache_size);
    let per_subset: Vec<(IndexSet, Rational)> = par_map(&subsets, |&q| {
        let sol = solve_hbl(nest, q);
        (q, exponent_from_s_hat_with_betas(nest, &beta, q, &sol.s))
    });
    select_best(per_subset)
}

/// Picks the minimum exponent (ties: smallest subset, then mask order) from a
/// mask-ordered per-subset list.
// lint: allow(L008) expect: the candidate list is non-empty by construction (one entry per vertex)
pub(crate) fn select_best(per_subset: Vec<(IndexSet, Rational)>) -> EnumeratedBound {
    let (best_subset, exponent) = per_subset
        .iter()
        .min_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.len().cmp(&b.0.len())))
        .map(|(q, k)| (*q, k.clone()))
        .expect("at least the empty subset is evaluated");
    EnumeratedBound {
        exponent,
        best_subset,
        per_subset,
    }
}

/// Computes the strongest Theorem-2 bound by solving the bound LP, and returns
/// it together with its `(Q, ŝ, ζ)` certificate.
///
/// ```
/// use projtile_arith::{int, ratio};
/// use projtile_core::bounds::arbitrary_bound_exponent;
/// use projtile_loopnest::builders;
///
/// let m = 1u64 << 10;
/// // All bounds large: the classical exponent 3/2.
/// let lb = arbitrary_bound_exponent(&builders::matmul(512, 512, 512), m);
/// assert_eq!(lb.exponent, ratio(3, 2));
/// // Matrix-vector (L3 = 1): Theorem 2 sharpens it to 1, i.e. the bound
/// // becomes the full matrix size L1·L2 — stronger than §3's L1·L2/√M.
/// let lb = arbitrary_bound_exponent(&builders::matvec(512, 512), m);
/// assert_eq!(lb.exponent, int(1));
/// assert_eq!(lb.words, (512.0 * 512.0));
/// ```
// lint: allow(L008) asserts pin validated query dimensions, covered by the enumerated differential oracle
pub fn arbitrary_bound_exponent(nest: &LoopNest, cache_size: u64) -> LowerBound {
    assert!(cache_size >= 2, "cache size must be at least 2 words");
    let n = nest.num_arrays();
    let d = nest.num_loops();
    let lp = bound_lp(nest, cache_size);
    let sol = solve(&lp).expect("the bound LP is always feasible and bounded");
    let s_hat = sol.values[..n].to_vec();
    let zeta = sol.values[n..n + d].to_vec();
    let witness_subset = IndexSet::from_indices((0..d).filter(|&j| zeta[j].is_positive()));
    let exponent = sol.objective_value;
    let m = cache_size as f64;
    let tile_size_bound = m.powf(exponent.to_f64());
    let ops = nest.iteration_space_size() as f64;
    let words = ops * m.powf(1.0 - exponent.to_f64());
    LowerBound {
        exponent,
        witness_subset,
        s_hat,
        zeta,
        tile_size_bound,
        words,
    }
}

/// The communication lower bound in words (Theorem 2 followed by the
/// tiles-to-words argument of §2): `∏ L_i · M^{1 − k̂}`.
pub fn communication_lower_bound(nest: &LoopNest, cache_size: u64) -> LowerBound {
    arbitrary_bound_exponent(nest, cache_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use projtile_arith::{int, ratio};
    use projtile_loopnest::builders;

    #[test]
    fn matmul_large_bounds_recovers_classical_exponent() {
        // All bounds >= sqrt(M): k̂ = 3/2 and no loop-bound constraint binds.
        let m = 1u64 << 10;
        let nest = builders::matmul(1 << 8, 1 << 8, 1 << 8);
        let lb = arbitrary_bound_exponent(&nest, m);
        assert_eq!(lb.exponent, ratio(3, 2));
        assert_eq!(lb.witness_subset, IndexSet::empty());
        assert!(lb.zeta.iter().all(|z| z.is_zero()));
        let expect_words = (1u128 << 24) as f64 / (m as f64).sqrt();
        assert!((lb.words - expect_words).abs() / expect_words < 1e-9);
        // Enumeration agrees exactly here.
        let en = enumerated_exponent(&nest, m);
        assert_eq!(en.exponent, ratio(3, 2));
        assert_eq!(en.best_subset, IndexSet::empty());
        assert_eq!(en.per_subset.len(), 8);
    }

    #[test]
    fn matvec_lower_bound_is_input_size() {
        // §6.1: with L3 = 1 the bound becomes L1·L2 (A2 must be read entirely).
        let m = 1u64 << 10;
        let l1 = 1u64 << 7;
        let l2 = 1u64 << 9;
        let nest = builders::matvec(l1, l2);
        let lb = arbitrary_bound_exponent(&nest, m);
        assert_eq!(lb.exponent, int(1));
        assert!((lb.words - (l1 * l2) as f64).abs() < 1e-6);
        // The classical bound would have claimed L1·L2 / sqrt(M), which is weaker.
        assert!(lb.words > (l1 * l2) as f64 / (m as f64).sqrt());
        // The witness subset contains the small index x3.
        let k_pos = nest.index_position("k").unwrap();
        assert!(lb.witness_subset.contains(k_pos));
    }

    #[test]
    fn matmul_small_l3_exponent_is_one_plus_beta3() {
        // §6.1: for L3 <= sqrt(M), k̂ = 1 + β3 (tile size M·L3); beyond sqrt(M)
        // the classical 3/2 takes over.
        let m = 1u64 << 10; // sqrt(M) = 32 = 2^5
        for log_l3 in 0..=5u32 {
            let l3 = 1u64 << log_l3;
            let nest = builders::matmul(1 << 8, 1 << 8, l3);
            let lb = arbitrary_bound_exponent(&nest, m);
            let beta3 = ratio(log_l3 as i64, 10);
            assert_eq!(lb.exponent, &int(1) + &beta3, "l3 = {l3}");
            let expect_tile = (m * l3) as f64;
            assert!((lb.tile_size_bound - expect_tile).abs() / expect_tile < 1e-9);
            // Enumeration also achieves the same exponent (via Q = {x3}).
            let en = enumerated_exponent(&nest, m);
            assert_eq!(en.exponent, lb.exponent, "l3 = {l3}");
        }
        for log_l3 in 5..=8u32 {
            let nest = builders::matmul(1 << 8, 1 << 8, 1 << log_l3);
            let lb = arbitrary_bound_exponent(&nest, m);
            assert_eq!(lb.exponent, ratio(3, 2), "l3 = 2^{log_l3}");
        }
    }

    #[test]
    fn full_matmul_bound_is_max_of_four_terms() {
        // §6.1 conclusion: the tight bound is
        // max(L1 L2 L3 / sqrt(M), L1 L2, L2 L3, L1 L3), with the §6.3 caveat
        // that the model always charges at least M words per (single) tile, so
        // the formula additionally saturates at M when everything fits in cache.
        let m = 1u64 << 10;
        for (l1, l2, l3) in [
            (1u64 << 8, 1u64 << 8, 1u64 << 8),
            (1 << 8, 1 << 8, 1),
            (1 << 9, 1 << 4, 2),
            (1 << 3, 1 << 9, 1 << 2),
            (1 << 2, 1 << 2, 1 << 2),
        ] {
            let nest = builders::matmul(l1, l2, l3);
            let lb = arbitrary_bound_exponent(&nest, m);
            let classical = (l1 * l2 * l3) as f64 / (m as f64).sqrt();
            let expect = classical
                .max((l1 * l2) as f64)
                .max((l2 * l3) as f64)
                .max((l1 * l3) as f64)
                .max(m as f64);
            assert!(
                (lb.words - expect).abs() / expect < 1e-9,
                "({l1},{l2},{l3}): got {} expected {}",
                lb.words,
                expect
            );
        }
    }

    #[test]
    fn nbody_exponents_match_section_6_3() {
        let m = 1u64 << 8; // M = 256
                           // Both bounds large: tile size M^2, i.e. exponent 2.
        let lb = arbitrary_bound_exponent(&builders::nbody(1 << 10, 1 << 10), m);
        assert_eq!(lb.exponent, int(2));
        // L1 small: tile size L1 * M -> exponent β1 + 1.
        let lb = arbitrary_bound_exponent(&builders::nbody(1 << 4, 1 << 10), m);
        assert_eq!(lb.exponent, &ratio(4, 8) + &int(1));
        // Both small: tile size L1 * L2 -> exponent β1 + β2.
        let lb = arbitrary_bound_exponent(&builders::nbody(1 << 4, 1 << 6), m);
        assert_eq!(lb.exponent, &ratio(4, 8) + &ratio(6, 8));
    }

    #[test]
    fn strongest_bound_never_weaker_than_classical_or_enumeration() {
        for seed in 0..15u64 {
            let nest = builders::random_projective(seed, 4, 4, (1, 256));
            let m = 1u64 << 6;
            let lb = arbitrary_bound_exponent(&nest, m);
            let classical = crate::hbl::hbl_exponent(&nest);
            let en = enumerated_exponent(&nest, m);
            // k̂ <= k_HBL (Q = ∅ with the optimal HBL weights is feasible for
            // the bound LP with ζ chosen as the shortfalls).
            assert!(lb.exponent <= classical, "seed {seed}");
            // The LP bound is at least as strong as the explicit enumeration.
            assert!(lb.exponent <= en.exponent, "seed {seed}");
            // Every enumerated subset gives a valid (>= k̂) upper bound.
            assert!(
                en.per_subset.iter().all(|(_, k)| *k >= lb.exponent),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn warm_enumeration_is_bitwise_identical_to_cold_oracle() {
        // The lattice walk on one warm-started solver must reproduce the
        // one-cold-solve-per-subset oracle exactly — including every
        // per-subset exponent and the tie-broken best subset.
        for seed in 0..10u64 {
            let nest = builders::random_projective(seed, 5, 4, (1, 256));
            for m in [4u64, 1 << 6, 1 << 10] {
                let warm = enumerated_exponent(&nest, m);
                let cold = enumerated_exponent_cold(&nest, m);
                assert_eq!(warm, cold, "seed {seed}, M={m}");
            }
        }
        // Also on the worked examples used throughout the test suite.
        let m = 1u64 << 10;
        for nest in [
            builders::matmul(1 << 8, 1 << 8, 1 << 8),
            builders::matmul(1 << 8, 1 << 8, 1),
            builders::matvec(1 << 7, 1 << 9),
            builders::nbody(1 << 4, 1 << 6),
        ] {
            assert_eq!(
                enumerated_exponent(&nest, m),
                enumerated_exponent_cold(&nest, m),
                "{nest}"
            );
        }
    }

    /// LP solves a family has run, warm or cold.
    fn solves(family: &HblFamily) -> u64 {
        let stats = family.stats();
        stats.cold_solves + stats.warm_solves
    }

    #[test]
    fn lattice_inherits_where_a_parent_covers_and_solves_elsewhere() {
        // Rows i, j, k, l; A = {i}, B = {i, j}, C = {j, k}, D = {k, l}.
        // Along the chain {i,j,k,l} ⊃ {j,k,l} ⊃ {k,l} ⊃ {l} of relaxed rows
        // the optimum changes, stays, then changes again: {k,l} inherits
        // from {j,k,l} (whose B = 1 satisfies row j) and {l} from {j,l}.
        let nest = LoopNest::builder()
            .index("i", 3)
            .index("j", 40)
            .index("k", 5)
            .index("l", 200)
            .array("A", ["i"])
            .array("B", ["i", "j"])
            .array("C", ["j", "k"])
            .array("D", ["k", "l"])
            .build()
            .expect("valid nest");
        let chain = [0b1111u64, 0b1110, 0b1100, 0b1000]
            .map(|bits| crate::hbl::solve_hbl(&nest, IndexSet::from_bits(bits)).s);
        assert_ne!(chain[0], chain[1]);
        assert_eq!(chain[1], chain[2]);
        assert_ne!(chain[2], chain[3]);
        for m in [4u64, 1 << 6, 1 << 10] {
            let mut family = HblFamily::new(&nest);
            let walked = enumerate_lattice(&nest, m, &mut family);
            assert_eq!(walked, enumerated_exponent_cold(&nest, m), "M={m}");
            let n = solves(&family);
            assert!(1 < n && n < 16, "M={m}: {n} solves");
        }
    }

    #[test]
    fn lattice_solves_few_subsets_at_depth_eleven() {
        // The `lower_bound/subset_enumeration/d11` bench input: a sweep of
        // every subset runs 2048 solves, the walk only those no parent covers.
        let nest = builders::random_projective(42, 11, 4, (1, 256));
        let mut family = HblFamily::new(&nest);
        let en = enumerate_lattice(&nest, 1 << 6, &mut family);
        assert_eq!(en.per_subset.len(), 2048);
        assert!(solves(&family) <= 64, "{} solves", solves(&family));
    }

    #[test]
    fn witness_certificate_is_consistent() {
        // The (Q*, ŝ) certificate must reproduce the exponent through the
        // Theorem-2 formula and satisfy the row-deleted HBL constraints.
        for seed in 0..10u64 {
            let nest = builders::random_projective(seed, 4, 3, (1, 128));
            let m = 1u64 << 8;
            let lb = arbitrary_bound_exponent(&nest, m);
            let k_from_formula = exponent_from_s_hat(&nest, m, lb.witness_subset, &lb.s_hat);
            assert_eq!(k_from_formula, lb.exponent, "seed {seed}");
            let row_deleted = crate::hbl::hbl_lp(&nest, lb.witness_subset);
            assert!(row_deleted.is_feasible(&lb.s_hat), "seed {seed}");
        }
    }

    #[test]
    fn exponent_is_monotone_in_bounds() {
        // Growing a loop bound can only increase (or keep) the tile-size
        // exponent: larger iteration spaces never get *smaller* optimal tiles.
        let m = 1u64 << 10;
        let mut prev = Rational::zero();
        for log_l in 0..=8u32 {
            let nest = builders::matmul(1 << 8, 1 << 8, 1 << log_l);
            let k = arbitrary_bound_exponent(&nest, m).exponent;
            assert!(k >= prev, "exponent decreased at L3 = 2^{log_l}");
            prev = k;
        }
    }

    #[test]
    fn exponent_from_any_feasible_s_hat_dominates_optimum() {
        // Theorem 2 holds for any feasible ŝ; the all-ones vector is always
        // feasible for every row-deleted LP, so its exponent dominates k̂.
        let nest = builders::matmul(1 << 3, 1 << 8, 1 << 2);
        let m = 1u64 << 10;
        let ones = vec![Rational::one(); nest.num_arrays()];
        let best = arbitrary_bound_exponent(&nest, m);
        for q in IndexSet::all_subsets(3) {
            let loose = exponent_from_s_hat(&nest, m, q, &ones);
            assert!(loose >= best.exponent);
        }
    }

    #[test]
    fn betas_are_exact_for_power_of_two_instances() {
        let nest = builders::matmul(1 << 4, 1 << 6, 1 << 2);
        let b = betas(&nest, 1 << 8);
        assert_eq!(b, vec![ratio(1, 2), ratio(3, 4), ratio(1, 4)]);
    }

    #[test]
    fn bound_lp_dimensions() {
        let nest = builders::pointwise_conv(4, 4, 4, 4, 4);
        let lp = bound_lp(&nest, 256);
        assert_eq!(lp.num_vars(), nest.num_arrays() + nest.num_loops());
        assert_eq!(lp.num_constraints(), nest.num_loops());
    }

    #[test]
    fn singleton_cache_guard() {
        let nest = builders::matmul(4, 4, 4);
        let res = std::panic::catch_unwind(|| arbitrary_bound_exponent(&nest, 1));
        assert!(res.is_err());
    }
}

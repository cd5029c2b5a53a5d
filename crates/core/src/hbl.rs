//! The Hölder–Brascamp–Lieb linear program (§3 of the paper).
//!
//! For projective loop nests, Theorem 6.6 of Christ–Demmel–Knight–Scanlon–
//! Yelick reduces the HBL constraints to one inequality per *loop index*: the
//! weights `s_j` of the arrays whose support contains index `i` must sum to at
//! least one. That is LP (3.1)/(3.2):
//!
//! ```text
//! minimize  Σ_j s_j
//! subject to Σ_{j : i ∈ supp(φ_j)} s_j ≥ 1      for every loop index i
//!            s_j ≥ 0
//! ```
//!
//! Its optimal value `k_HBL` bounds the size of any tile whose array
//! footprints fit in `M` words by `M^{k_HBL}`, giving the classical
//! large-bound communication lower bound `∏ L_i / M^{k_HBL − 1}`.
//!
//! Theorem 2 needs the same LP with some rows (loop indices) deleted — the
//! indices in the small-bound subset `Q` — so the construction takes the set
//! of removed rows as a parameter.
//!
//! # Row deletion as right-hand-side relaxation
//!
//! Because every variable is non-negative and every constraint has 0/1
//! coefficients, deleting the row of loop index `i` is equivalent to keeping
//! the row and **relaxing its right-hand side to zero**: `Σ s_j ≥ 0` is
//! implied by `s ≥ 0`, so the feasible region (and hence the optimal value)
//! is identical. This rewrites the entire `2^d` family of row-deleted LPs as
//! one constraint matrix with `2^d` right-hand sides in `{0,1}^d` — exactly
//! the shape [`projtile_lp::SolverContext`] warm-starts across. [`HblFamily`]
//! packages that: one retained basis per family, re-entered per subset via
//! the dual simplex, with results **bitwise-identical** to the cold
//! [`solve_hbl`] (both paths report the canonical lex-min optimal vertex, a
//! property of the program rather than of the pivot path).

use projtile_arith::Rational;
use projtile_loopnest::{IndexSet, LoopNest};
use projtile_lp::{solve_canonical, Constraint, LinearProgram, LpError, Relation, SolverContext};

/// Solution of the (possibly row-deleted) HBL LP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HblSolution {
    /// Optimal array weights `s_1, ..., s_n` (indexed like the nest's arrays).
    pub s: Vec<Rational>,
    /// Optimal value `Σ_j s_j`.
    pub value: Rational,
    /// The loop-index rows that were removed before solving (the paper's `Q`).
    pub removed_rows: IndexSet,
}

/// Builds the HBL LP (3.2) for `nest`, omitting the constraint rows of the
/// loop indices in `removed_rows` (pass [`IndexSet::empty`] for the plain
/// large-bound LP).
pub fn hbl_lp(nest: &LoopNest, removed_rows: IndexSet) -> LinearProgram {
    let n = nest.num_arrays();
    let d = nest.num_loops();
    let mut lp = LinearProgram::minimize(vec![Rational::one(); n]);
    for i in 0..d {
        if removed_rows.contains(i) {
            continue;
        }
        let coeffs: Vec<Rational> = (0..n)
            .map(|j| {
                if nest.support(j).contains(i) {
                    Rational::one()
                } else {
                    Rational::zero()
                }
            })
            .collect();
        lp.add_constraint(Constraint::new(coeffs, Relation::Ge, Rational::one()));
    }
    lp
}

/// Builds the full-matrix HBL LP with the rows of `relaxed_rows` kept but
/// relaxed to a zero right-hand side — the same feasible region and optimal
/// value as [`hbl_lp`] with those rows deleted (see the module docs), but a
/// constraint matrix shared by all `2^d` subsets.
pub fn hbl_lp_relaxed(nest: &LoopNest, relaxed_rows: IndexSet) -> LinearProgram {
    let n = nest.num_arrays();
    let d = nest.num_loops();
    let mut lp = LinearProgram::minimize(vec![Rational::one(); n]);
    for i in 0..d {
        let coeffs: Vec<Rational> = (0..n)
            .map(|j| {
                if nest.support(j).contains(i) {
                    Rational::one()
                } else {
                    Rational::zero()
                }
            })
            .collect();
        let rhs = if relaxed_rows.contains(i) {
            Rational::zero()
        } else {
            Rational::one()
        };
        lp.add_constraint(Constraint::new(coeffs, Relation::Ge, rhs));
    }
    lp
}

// lint: allow(L008) unreachable: the LP solver returns one of the matched statuses by construction
fn to_hbl_solution(
    result: Result<projtile_lp::Solution, LpError>,
    removed_rows: IndexSet,
) -> HblSolution {
    match result {
        Ok(sol) => HblSolution {
            s: sol.values,
            value: sol.objective_value,
            removed_rows,
        },
        Err(LpError::Infeasible) | Err(LpError::Unbounded) | Err(LpError::Malformed(_)) => {
            unreachable!("the projective HBL LP is always feasible and bounded")
        }
    }
}

/// Solves the (row-deleted) HBL LP with a cold solve of the relaxed-rhs
/// formulation, reporting the canonical (lex-min) optimal weights; this is
/// the differential oracle the warm-started [`HblFamily`] is tested against
/// (bitwise-equal results).
///
/// The LP is always feasible (setting every `s_j = 1` satisfies all rows
/// because every retained loop index appears in at least one support) and
/// bounded below by zero, so failure indicates an internal error.
pub fn solve_hbl(nest: &LoopNest, removed_rows: IndexSet) -> HblSolution {
    let lp = hbl_lp_relaxed(nest, removed_rows);
    to_hbl_solution(solve_canonical(&lp), removed_rows)
}

/// A warm-started solver for one nest's family of row-deleted HBL LPs.
///
/// All `2^d` subsets share one constraint matrix under the rhs-relaxation
/// rewrite, so consecutive [`HblFamily::solve`] calls re-enter the dual
/// simplex from the previous optimal basis, whichever subsets they are.
/// [`crate::bounds::enumerated_exponent`] solves on one family only the
/// subsets its lattice walk cannot inherit. Results are bitwise-identical to
/// [`solve_hbl`].
pub struct HblFamily {
    lp: LinearProgram,
    ctx: SolverContext,
}

impl HblFamily {
    /// Creates a family for `nest`; no LP is solved yet.
    pub fn new(nest: &LoopNest) -> HblFamily {
        HblFamily {
            lp: hbl_lp_relaxed(nest, IndexSet::empty()),
            ctx: SolverContext::new(),
        }
    }

    /// Solves the HBL LP with the rows of `removed_rows` relaxed, exactly as
    /// [`solve_hbl`] would.
    pub fn solve(&mut self, removed_rows: IndexSet) -> HblSolution {
        for (i, c) in self.lp.constraints.iter_mut().enumerate() {
            c.rhs = if removed_rows.contains(i) {
                Rational::zero()
            } else {
                Rational::one()
            };
        }
        // The family owns its program and only ever rewrites the rhs, so the
        // structure-check-free re-entry applies.
        to_hbl_solution(self.ctx.solve_rhs_update(&self.lp), removed_rows)
    }

    /// Warm-start counters (for tests and perf reports).
    pub fn stats(&self) -> projtile_lp::ContextStats {
        self.ctx.stats()
    }
}

/// The large-bound exponent `k_HBL` (§3): the optimal value of the full HBL LP.
pub fn hbl_exponent(nest: &LoopNest) -> Rational {
    solve_hbl(nest, IndexSet::empty()).value
}

/// The classical large-bound communication lower bound
/// `∏ L_i / M^{k_HBL − 1}`, evaluated as a floating-point word count.
pub fn large_bound_lower_bound(nest: &LoopNest, cache_size: u64) -> f64 {
    let k = hbl_exponent(nest);
    let ops: f64 = nest.iteration_space_size() as f64;
    let m = cache_size as f64;
    ops / m.powf(k.to_f64() - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use projtile_arith::{int, ratio};
    use projtile_loopnest::builders;

    #[test]
    fn matmul_khbl_is_three_halves() {
        let nest = builders::matmul(100, 100, 100);
        let sol = solve_hbl(&nest, IndexSet::empty());
        assert_eq!(sol.value, ratio(3, 2));
        assert_eq!(sol.s, vec![ratio(1, 2), ratio(1, 2), ratio(1, 2)]);
        assert_eq!(hbl_exponent(&nest), ratio(3, 2));
    }

    #[test]
    fn matmul_row_deleted_lp_matches_equation_6_2() {
        // Removing the x3 row leaves constraints s1+s2>=1 (row x1) and
        // s2+s3>=1 (row x2); the optimum is 1 (s2 = 1).
        let nest = builders::matmul(100, 100, 100);
        let k_pos = nest.index_position("k").unwrap();
        let sol = solve_hbl(&nest, IndexSet::from_indices([k_pos]));
        assert_eq!(sol.value, int(1));
        // s2 = 1 is an optimal solution; the solver may return any optimum,
        // but the value must be exactly 1 and the point must satisfy (6.2).
        let lp = hbl_lp(&nest, IndexSet::from_indices([k_pos]));
        assert!(lp.is_feasible(&sol.s));
    }

    #[test]
    fn nbody_khbl_is_two() {
        // n-body: Acc(x1), Src(x1), Other(x2). Row x1: s1+s2>=1; row x2: s3>=1.
        // Optimum: s1=1 (or s2=1), s3=1 -> k = 2.
        let nest = builders::nbody(50, 60);
        assert_eq!(hbl_exponent(&nest), int(2));
    }

    #[test]
    fn pointwise_conv_khbl_is_three_halves() {
        // §6.2: contraction-shaped programs share matmul's exponent.
        let nest = builders::pointwise_conv(8, 8, 8, 8, 8);
        assert_eq!(hbl_exponent(&nest), ratio(3, 2));
    }

    #[test]
    fn removing_all_rows_gives_zero() {
        let nest = builders::matmul(10, 10, 10);
        let sol = solve_hbl(&nest, IndexSet::full(3));
        assert_eq!(sol.value, int(0));
        assert!(sol.s.iter().all(|v| v.is_zero()));
    }

    #[test]
    fn row_deletion_never_increases_value() {
        // Removing constraints can only lower (or keep) the optimum of a
        // minimization problem — the monotonicity Theorem 2 builds on.
        for seed in 0..10u64 {
            let nest = builders::random_projective(seed, 4, 4, (2, 64));
            let full = solve_hbl(&nest, IndexSet::empty()).value;
            for q in IndexSet::all_subsets(4) {
                let partial = solve_hbl(&nest, q).value;
                assert!(partial <= full, "seed {seed}, Q={q:?}");
            }
        }
    }

    #[test]
    fn hbl_values_lie_in_valid_range() {
        // 0 <= k_HBL <= n (taking every s_j = 1 is feasible) and k_HBL >= 1
        // whenever at least one row remains.
        for seed in 0..10u64 {
            let nest = builders::random_projective(seed, 5, 3, (2, 32));
            let k = hbl_exponent(&nest);
            assert!(k >= Rational::one());
            assert!(k <= int(nest.num_arrays() as i64));
        }
    }

    #[test]
    fn large_bound_lower_bound_matches_formula() {
        let nest = builders::matmul(1 << 6, 1 << 6, 1 << 6);
        let m = 1u64 << 8;
        let lb = large_bound_lower_bound(&nest, m);
        let expect = (1u128 << 18) as f64 / (m as f64).sqrt();
        assert!((lb - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn relaxed_formulation_matches_row_deleted_values() {
        // Identical feasible regions: the relaxed LP's optimum equals the
        // row-deleted LP's optimum for every subset, and its solution is
        // feasible for the row-deleted program.
        for seed in 0..8u64 {
            let nest = builders::random_projective(seed, 4, 4, (2, 64));
            for q in IndexSet::all_subsets(4) {
                let relaxed = solve_hbl(&nest, q);
                let row_deleted = hbl_lp(&nest, q);
                assert!(row_deleted.is_feasible(&relaxed.s), "seed {seed}, Q={q:?}");
                let deleted_opt = projtile_lp::solve(&row_deleted).expect("row-deleted LP solves");
                assert_eq!(
                    relaxed.value, deleted_opt.objective_value,
                    "seed {seed}, Q={q:?}"
                );
            }
        }
    }

    #[test]
    fn warm_family_is_bitwise_identical_to_cold_solves() {
        // The differential oracle of the warm-start layer at the HBL level:
        // solve all subsets in descending mask order (the lattice walk's
        // order) and compare every field against a cold solve.
        for seed in [0u64, 3, 11] {
            let nest = builders::random_projective(seed, 6, 4, (1, 128));
            let mut family = HblFamily::new(&nest);
            for mask in (0u64..1 << 6).rev() {
                let q = IndexSet::from_bits(mask);
                let warm = family.solve(q);
                let cold = solve_hbl(&nest, q);
                assert_eq!(warm, cold, "seed {seed}, Q={q:?}");
            }
            let stats = family.stats();
            assert!(
                stats.warm_solves > 0,
                "seed {seed}: warm path never taken: {stats:?}"
            );
        }
    }

    #[test]
    fn lp_structure_matches_nest_dimensions() {
        let nest = builders::pointwise_conv(4, 4, 4, 4, 4);
        let lp = hbl_lp(&nest, IndexSet::empty());
        assert_eq!(lp.num_vars(), nest.num_arrays());
        assert_eq!(lp.num_constraints(), nest.num_loops());
        let lp_del = hbl_lp(&nest, IndexSet::from_indices([0, 2]));
        assert_eq!(lp_del.num_constraints(), nest.num_loops() - 2);
    }
}

//! Exact linear-programming substrate for `projtile`.
//!
//! Every result in Dinh & Demmel (SPAA 2020) is phrased in terms of small
//! linear programs:
//!
//! * the HBL LP (3.1)/(3.2) whose optimum `k_HBL` gives the large-bound
//!   communication lower bound `∏L_i / M^{k_HBL−1}`;
//! * its row-deleted variants, which give the Theorem-2 arbitrary-bound
//!   exponents; and
//! * the tiling LP (5.1), whose optimal solution *is* the optimal rectangular
//!   tile (in log-space) and whose dual is exactly the Theorem-2 bound
//!   (Theorem 3).
//!
//! This crate provides a dense, two-phase simplex solver over exact rationals
//! ([`projtile_arith::Rational`]), explicit dual-program construction (so that
//! strong duality can be *checked*, not assumed), a one-dimensional
//! parametric right-hand-side analysis ([`parametric`]), and a full
//! multiparametric analysis over a box of right-hand-side parameters
//! ([`mplp`]) — both used for the piecewise-linear closed-form exponents of
//! Section 7 of the paper.
//!
//! ```
//! use projtile_arith::{int, ratio};
//! use projtile_lp::{solve, Constraint, LinearProgram, Relation};
//!
//! // The matmul HBL LP (3.2): min s1+s2+s3 st pairwise sums ≥ 1 → 3/2.
//! let mut lp = LinearProgram::minimize(vec![int(1), int(1), int(1)]);
//! for row in [[1, 1, 0], [0, 1, 1], [1, 0, 1]] {
//!     lp.add_constraint(Constraint::new(
//!         row.iter().map(|&v| int(v)).collect(),
//!         Relation::Ge,
//!         int(1),
//!     ));
//! }
//! let sol = solve(&lp).unwrap();
//! assert_eq!(sol.objective_value, ratio(3, 2));
//! ```
//!
//! The solver uses Bland's rule, so it terminates on every input, including
//! the degenerate LPs that appear when several loop bounds are exactly at a
//! crossover point (e.g. `L_3 = √M` in the matrix-multiplication example).
//!
//! # Warm-started and batched solving
//!
//! Both the `2^d` Theorem-2 subset enumeration and the §7 parametric sweeps
//! solve *families* of LPs that share one constraint matrix and differ only
//! in their right-hand sides (the subset enumeration after rewriting row
//! deletion as rhs relaxation — see `projtile_core::hbl`). The
//! [`warm::SolverContext`] exploits this: it retains the final simplex
//! tableau of the previous solve and re-enters the **dual simplex** from the
//! retained basis when only the rhs changed. The protocol and its invariants:
//!
//! 1. **When a retained basis is reusable.** The next program must have the
//!    same objective sense, the same cost vector, and constraints with the
//!    same coefficients and relations, in the same order; only the rhs may
//!    differ. The context checks this itself and cold-restarts otherwise, so
//!    reuse is a performance property, never a correctness obligation of the
//!    caller. A retained basis is also discarded when the previous solve
//!    dropped redundant rows (the constraint-to-row mapping is lost) or
//!    failed; [`warm::SolverContext::reset`] drops it explicitly.
//! 2. **Why re-entry is sound.** Reduced costs do not depend on the rhs, so
//!    the retained basis stays dual feasible; installing the new rhs only
//!    perturbs the basic values (`B⁻¹b`), and the dual simplex (with Bland's
//!    anti-cycling rule) restores primal feasibility in few pivots when few
//!    rhs entries changed. A negative-rhs row with no admissible pivot is an
//!    exact infeasibility certificate.
//! 3. **Exactness.** [`warm::SolverContext::solve`] is bitwise-identical to
//!    the cold [`solve_canonical`]: both finish by moving to the
//!    lexicographically smallest optimal vertex, a canonical point that
//!    depends only on the program and not on the pivot path, so degenerate
//!    programs with whole optimal faces cannot make a warm and a cold solve
//!    disagree. [`warm::SolverContext::solve_value`] skips the
//!    canonicalization for value-only sweeps: optimal values are unique, so
//!    they are exactly those of [`solve`] and [`solve_canonical`] alike,
//!    while the reported point may be any optimal vertex.
//! 4. **Batching.** Drive sweeps through `projtile_par::par_map_with` with
//!    one context per worker: warm starts then compound along each worker's
//!    contiguous chunk (order the family so neighbours differ in few rhs
//!    entries, as a §7 β-sweep does).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dual;
mod error;
pub mod mplp;
pub mod parametric;
mod problem;
mod simplex;
pub mod warm;

pub use dual::dual_program;
pub use error::LpError;
pub use mplp::{AffinePiece, CriticalRegion, HalfSpace, ParamBox, ValueSurface};
pub use problem::{Constraint, LinearProgram, Objective, Relation, Solution};
pub use simplex::{solve, solve_canonical, verify_optimal};
pub use warm::{ContextPool, ContextStats, PooledContext, SolverContext};

#[cfg(test)]
mod tests {
    use super::*;
    use projtile_arith::{int, ratio};

    #[test]
    fn end_to_end_matmul_hbl() {
        // minimize s1+s2+s3 st pairwise sums >= 1 -> optimum 3/2.
        let mut lp = LinearProgram::minimize(vec![int(1), int(1), int(1)]);
        lp.add_constraint(Constraint::new(
            vec![int(1), int(1), int(0)],
            Relation::Ge,
            int(1),
        ));
        lp.add_constraint(Constraint::new(
            vec![int(0), int(1), int(1)],
            Relation::Ge,
            int(1),
        ));
        lp.add_constraint(Constraint::new(
            vec![int(1), int(0), int(1)],
            Relation::Ge,
            int(1),
        ));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.objective_value, ratio(3, 2));
    }
}

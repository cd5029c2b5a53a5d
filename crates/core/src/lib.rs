//! Communication lower bounds and optimal tilings for projective nested loops
//! with arbitrary bounds.
//!
//! This crate is the reproduction of the main contribution of Dinh & Demmel,
//! *"Communication-Optimal Tilings for Projective Nested Loops with Arbitrary
//! Bounds"* (SPAA 2020). Given a projective loop nest (a
//! [`projtile_loopnest::LoopNest`]) and a fast-memory size `M`, it computes:
//!
//! * the classical large-bound HBL exponent `k_HBL` and lower bound
//!   `∏L_i / M^{k_HBL − 1}` (§3 of the paper) — [`hbl`];
//! * the arbitrary-bound tile-size exponent `k̂` of Theorem 2, obtained by
//!   minimizing over all subsets `Q ⊆ [d]` of loop indices treated as "small",
//!   and the corresponding communication lower bound (§4) — [`bounds`];
//! * the optimal rectangular tiling from the linear program (5.1), both in
//!   log-space (exact rational block exponents `λ_i`) and as concrete integer
//!   block sizes (§5) — [`mod@tiling_lp`] and [`tiling`];
//! * an executable check of Theorem 3 — that the tiling LP optimum coincides
//!   exactly with one of the Theorem-2 exponents, i.e. the tiling attains the
//!   lower bound — [`tightness`];
//! * the α-parameterized family of optimal tilings discussed at the end of
//!   §6.1 — [`alpha`];
//! * closed forms for the worked examples of §6 (matrix multiplication,
//!   tensor contractions / pointwise convolutions, n-body interactions) —
//!   [`closed_forms`] and [`contraction`];
//! * the piecewise-linear dependence of the optimal exponent on the
//!   log-bounds `β_i = log_M L_i` (§7), as one-dimensional sweeps
//!   ([`parametric::exponent_vs_beta`]) and as the full multiparametric
//!   value surface with critical regions and symbolic closed-form pieces
//!   ([`parametric::exponent_surface`]) — [`parametric`].
//!
//! All optimization is done with the exact rational simplex solver in
//! [`projtile_lp`], so every "equals" in the theorems is checked as literal
//! equality of rationals, not floating-point closeness.
//!
//! ```
//! use projtile_core::ProblemInstance;
//! use projtile_loopnest::builders;
//!
//! let inst = ProblemInstance::new(builders::matmul(512, 512, 8), 1 << 10);
//! assert!(inst.check_tightness().tight); // Theorem 3, checked exactly
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod bounds;
pub mod closed_forms;
pub mod contraction;
pub mod distributed;
pub mod engine;
pub mod hbl;
pub mod parametric;
pub mod tightness;
pub mod tiling;
pub mod tiling_lp;

pub use bounds::{arbitrary_bound_exponent, communication_lower_bound, LowerBound};
pub use engine::{AnalysisResult, Engine, EngineError, Query, SurfaceSummary, TilingSummary};
pub use hbl::{hbl_exponent, hbl_lp, solve_hbl, HblSolution};
pub use parametric::{exponent_surface, exponent_vs_beta, ExponentSurface};
pub use tightness::{
    check_tightness, check_tightness_surface, SurfaceTightnessReport, TightnessReport,
};
pub use tiling::{CommunicationModel, Tiling};
pub use tiling_lp::{optimal_tiling, solve_tiling_lp, tiling_lp, TilingSolution};

/// A loop nest paired with the fast-memory (cache) size it is analyzed
/// against.
///
/// Since PR 4 the instance routes every method through an internal
/// [`engine::Engine`] session, so repeated calls on the same instance reuse
/// shared artifacts and memoized results instead of recomputing (a second
/// `check_tightness()` is a pure lookup). Answers are bitwise-identical to
/// the stateless free functions in the submodules, which remain available
/// for one-shot use and as the engine's differential oracles.
#[derive(Debug)]
pub struct ProblemInstance {
    /// The projective loop nest under analysis.
    pub nest: projtile_loopnest::LoopNest,
    /// Fast-memory capacity `M`, in words.
    pub cache_size: u64,
    session: engine::Engine,
}

impl Clone for ProblemInstance {
    /// Clones the problem description; the clone starts with a fresh (empty)
    /// session cache.
    fn clone(&self) -> ProblemInstance {
        ProblemInstance {
            nest: self.nest.clone(),
            cache_size: self.cache_size,
            session: engine::Engine::new(),
        }
    }
}

impl ProblemInstance {
    /// Creates an instance.
    ///
    /// # Panics
    /// Panics if `cache_size < 2` (the log-space analysis needs `M >= 2`).
    pub fn new(nest: projtile_loopnest::LoopNest, cache_size: u64) -> ProblemInstance {
        assert!(cache_size >= 2, "cache size must be at least 2 words");
        ProblemInstance {
            nest,
            cache_size,
            session: engine::Engine::new(),
        }
    }

    fn query(&self, query: engine::Query) -> engine::AnalysisResult {
        self.session
            .analyze(&self.nest, &query)
            .expect("instance queries are validated at construction")
    }

    /// The large-bound HBL exponent `k_HBL` (§3).
    pub fn hbl_exponent(&self) -> projtile_arith::Rational {
        hbl::hbl_exponent(&self.nest)
    }

    /// The Theorem-2 arbitrary-bound exponent `k̂` and the subset `Q` that
    /// attains it (§4).
    pub fn tile_size_exponent(&self) -> bounds::LowerBound {
        match self.query(engine::Query::LowerBound {
            cache_size: self.cache_size,
        }) {
            engine::AnalysisResult::LowerBound(lb) => lb,
            other => unreachable!("engine answered {other:?} to a LowerBound query"),
        }
    }

    /// The communication lower bound `∏L_i · M^{1 − k̂}` in words (§4).
    pub fn communication_lower_bound(&self) -> f64 {
        self.tile_size_exponent().words
    }

    /// The optimal rectangular tiling from LP (5.1) (§5).
    pub fn optimal_tiling(&self) -> tiling::Tiling {
        match self.query(engine::Query::OptimalTiling {
            cache_size: self.cache_size,
        }) {
            engine::AnalysisResult::OptimalTiling(summary) => tiling::Tiling::new(
                self.nest.clone(),
                self.cache_size,
                summary.tile_dims,
                Some(summary.lambda),
            ),
            other => unreachable!("engine answered {other:?} to an OptimalTiling query"),
        }
    }

    /// Checks Theorem 3: the tiling LP optimum equals the Theorem-2 exponent.
    pub fn check_tightness(&self) -> tightness::TightnessReport {
        match self.query(engine::Query::Tightness {
            cache_size: self.cache_size,
        }) {
            engine::AnalysisResult::Tightness(report) => report,
            other => unreachable!("engine answered {other:?} to a Tightness query"),
        }
    }

    /// Session counters of the instance's internal engine (hits witness the
    /// cross-call reuse).
    pub fn session_stats(&self) -> engine::EngineStats {
        self.session.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use projtile_arith::ratio;
    use projtile_loopnest::builders;

    #[test]
    fn problem_instance_end_to_end_matmul() {
        let inst = ProblemInstance::new(builders::matmul(1 << 8, 1 << 8, 1 << 8), 1 << 10);
        assert_eq!(inst.hbl_exponent(), ratio(3, 2));
        let report = inst.check_tightness();
        assert!(report.tight);
        let tiling = inst.optimal_tiling();
        assert!(tiling.tile_dims().iter().all(|&b| b >= 1));
        assert!(inst.communication_lower_bound() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 words")]
    fn tiny_cache_rejected() {
        let _ = ProblemInstance::new(builders::matmul(4, 4, 4), 1);
    }
}

//! Executable form of Theorem 3: the tiling LP attains the lower bound.
//!
//! Theorem 3 states that the optimal value of the tiling LP (5.1) equals one
//! of the Theorem-2 tile-size exponents, i.e. the rectangular tile the LP
//! produces is as large as any tile fitting in cache can be, so the blocked
//! schedule built from it attains the communication lower bound (up to the
//! constant factors the paper ignores throughout).
//!
//! The check performed here is constructive and exact:
//!
//! 1. solve the tiling LP (5.1) — value `v`;
//! 2. solve the bound LP (5.5)/(5.6) — value `k̂` with certificate `(Q*, ŝ)`;
//! 3. assert `v == k̂` as rationals (this is the strong-duality equality the
//!    paper's proof establishes by induction);
//! 4. assert that plugging `(Q*, ŝ)` into the Theorem-2 formula reproduces
//!    `k̂`, and that `ŝ` is feasible for the HBL LP with the rows of `Q*`
//!    removed — i.e. the expression (5.2) the theorem promises really is
//!    exhibited by an explicit subset and weight vector;
//! 5. additionally report the exponent obtained from the paper's explicit
//!    `2^d` enumeration, which is always `>= k̂` and usually equal.

use projtile_arith::Rational;
use projtile_loopnest::{IndexSet, LoopNest};
use projtile_lp::LpError;
use serde::{Deserialize, Serialize};

use crate::bounds::{
    arbitrary_bound_exponent, betas, bound_lp_for_betas, enumerated_exponent, exponent_from_s_hat,
};
use crate::hbl::hbl_lp;
use crate::parametric::{exponent_surface, ExponentSurface};
use crate::tiling_lp::solve_tiling_lp;

/// Result of checking Theorem 3 on one problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TightnessReport {
    /// Optimal value of the tiling LP (5.1): the achievable tile exponent.
    pub tiling_exponent: Rational,
    /// The Theorem-2 exponent `k̂` from the bound LP.
    pub bound_exponent: Rational,
    /// The exponent from the explicit subset enumeration (always `>= k̂`).
    pub enumerated_exponent: Rational,
    /// The witness subset `Q*`.
    pub witness_subset: IndexSet,
    /// `true` iff the tiling exponent equals the bound exponent exactly and
    /// the certificate checks out — i.e. Theorem 3 holds on this instance.
    pub tight: bool,
}

/// Runs the full Theorem-3 check on `nest` with cache size `cache_size`.
///
/// Step 5's `2^d` subset enumeration runs through the lattice walk of
/// [`crate::bounds::enumerated_exponent`], which solves only the subsets no
/// parent covers; at depth 11 that is a few dozen of 2048, so the
/// enumeration no longer dwarfs the two LPs. Its results are
/// bitwise-identical to the cold per-subset solves (see the differential
/// tests there), so the exactness of this check is unaffected.
///
/// ```
/// use projtile_core::tightness::check_tightness;
/// use projtile_loopnest::builders;
///
/// // Theorem 3 on the §6.1 small-inner-dimension example: the optimal tile
/// // of LP (5.1) attains the Theorem-2 lower bound, exactly.
/// let report = check_tightness(&builders::matmul(512, 512, 8), 1 << 10);
/// assert!(report.tight);
/// assert_eq!(report.tiling_exponent, report.bound_exponent);
/// ```
pub fn check_tightness(nest: &LoopNest, cache_size: u64) -> TightnessReport {
    let tiling = solve_tiling_lp(nest, cache_size);
    let bound = arbitrary_bound_exponent(nest, cache_size);
    let enumerated = enumerated_exponent(nest, cache_size);

    // Certificate validation (step 4 above).
    let formula_value = exponent_from_s_hat(nest, cache_size, bound.witness_subset, &bound.s_hat);
    let row_deleted = hbl_lp(nest, bound.witness_subset);
    let certificate_ok = formula_value == bound.exponent && row_deleted.is_feasible(&bound.s_hat);

    let tight = tiling.value == bound.exponent && certificate_ok;
    TightnessReport {
        tiling_exponent: tiling.value,
        bound_exponent: bound.exponent,
        enumerated_exponent: enumerated.exponent,
        witness_subset: bound.witness_subset,
        tight,
    }
}

/// Theorem 3 checked on one critical region of an exponent surface: the
/// tiling-LP value function (the region's affine piece, evaluated at its
/// witness) against the bound LP (5.5) solved directly at the witness β.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionTightness {
    /// The region's affine piece: gradient over the swept axes.
    pub gradient: Vec<Rational>,
    /// The region's affine piece: constant term.
    pub constant: Rational,
    /// The witness β point (one value per swept axis).
    pub witness: Vec<Rational>,
    /// The tiling exponent at the witness, read off the surface.
    pub tiling_exponent: Rational,
    /// The Theorem-2 bound exponent at the witness, from a direct solve of
    /// the bound LP with the witness β plugged in.
    pub bound_exponent: Rational,
    /// `true` iff the two agree exactly (strong duality / Theorem 3).
    pub tight: bool,
}

/// Per-region Theorem-3 report for a whole exponent surface. Produced by
/// [`check_tightness_surface`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfaceTightnessReport {
    /// The swept loop-index positions.
    pub axes: Vec<usize>,
    /// One entry per critical region of the surface.
    pub regions: Vec<RegionTightness>,
    /// `true` iff every region is tight.
    pub all_tight: bool,
}

/// Runs the Theorem-3 check **per critical region** of the multiparametric
/// §7 surface: sweeps the loop bounds of `axes` over `[lo_bounds, hi_bounds]`
/// (in log space), decomposes the exponent into critical regions with
/// [`exponent_surface`], and at each region's witness point validates strong
/// duality against an independent solve of the bound LP (5.5) with the
/// witness β substituted — i.e. Theorem 3 at *rational* β, not only at β
/// realized by integer loop bounds.
pub fn check_tightness_surface(
    nest: &LoopNest,
    cache_size: u64,
    axes: &[usize],
    lo_bounds: &[u64],
    hi_bounds: &[u64],
) -> Result<SurfaceTightnessReport, LpError> {
    let surface = exponent_surface(nest, cache_size, axes, lo_bounds, hi_bounds)?;
    surface_tightness(nest, cache_size, &surface)
}

/// The report-building half of [`check_tightness_surface`], for callers that
/// already hold the surface.
pub fn surface_tightness(
    nest: &LoopNest,
    cache_size: u64,
    surface: &ExponentSurface,
) -> Result<SurfaceTightnessReport, LpError> {
    let base_betas = betas(nest, cache_size);
    let mut regions = Vec::with_capacity(surface.num_regions());
    for region in surface.surface().regions() {
        let witness = &region.witness;
        let mut full = base_betas.clone();
        for (&axis, b) in surface.axes().iter().zip(witness) {
            full[axis] = b.clone();
        }
        let bound = projtile_lp::solve(&bound_lp_for_betas(nest, full))?;
        let tiling_exponent = surface.value_at(witness);
        let tight = tiling_exponent == bound.objective_value;
        regions.push(RegionTightness {
            gradient: region.piece.gradient.clone(),
            constant: region.piece.constant.clone(),
            witness: witness.clone(),
            tiling_exponent,
            bound_exponent: bound.objective_value,
            tight,
        });
    }
    let all_tight = regions.iter().all(|r| r.tight);
    Ok(SurfaceTightnessReport {
        axes: surface.axes().to_vec(),
        regions,
        all_tight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use projtile_arith::ratio;
    use projtile_loopnest::builders;

    #[test]
    fn matmul_is_tight_across_regimes() {
        let m = 1u64 << 10;
        for (l1, l2, l3) in [
            (1u64 << 8, 1u64 << 8, 1u64 << 8), // all large
            (1 << 8, 1 << 8, 1),               // matrix-vector
            (1 << 8, 1 << 8, 1 << 3),          // one small
            (1 << 3, 1 << 8, 1 << 2),          // two small
            (1 << 2, 1 << 2, 1 << 2),          // everything fits in cache
            (1 << 5, 1 << 5, 1 << 5),          // exactly at the crossover
        ] {
            let report = check_tightness(&builders::matmul(l1, l2, l3), m);
            assert!(report.tight, "({l1},{l2},{l3}): {report:?}");
            assert!(report.enumerated_exponent >= report.bound_exponent);
        }
    }

    #[test]
    fn matmul_large_bound_exponent_value() {
        let report = check_tightness(&builders::matmul(1 << 8, 1 << 8, 1 << 8), 1 << 10);
        assert_eq!(report.tiling_exponent, ratio(3, 2));
        assert_eq!(report.bound_exponent, ratio(3, 2));
        assert_eq!(report.enumerated_exponent, ratio(3, 2));
    }

    #[test]
    fn paper_kernels_are_tight() {
        let m = 1u64 << 8;
        let nests = vec![
            builders::matvec(1 << 7, 1 << 6),
            builders::pointwise_conv(4, 2, 32, 16, 16),
            builders::fully_connected(64, 4, 128),
            builders::nbody(1 << 3, 1 << 9),
            builders::tensor_contraction(2, 4, &[4, 8, 2, 16, 32]),
        ];
        for nest in nests {
            let report = check_tightness(&nest, m);
            assert!(report.tight, "{nest}: {report:?}");
        }
    }

    #[test]
    fn random_projective_programs_are_tight() {
        // Theorem 3 is fully general over projective programs; exercise it on
        // random nests with a mix of tiny and large bounds and several cache
        // sizes, checking exact equality every time.
        for seed in 0..25u64 {
            let nest = builders::random_projective(seed, 4, 4, (1, 512));
            for m in [4u64, 64, 1 << 10] {
                let report = check_tightness(&nest, m);
                assert!(report.tight, "seed {seed}, M={m}: {report:?}");
            }
        }
    }

    #[test]
    fn deeper_random_programs_are_tight() {
        for seed in 0..8u64 {
            let nest = builders::random_projective(seed, 6, 5, (1, 128));
            let report = check_tightness(&nest, 256);
            assert!(report.tight, "seed {seed}: {report:?}");
        }
    }

    #[test]
    fn tightness_report_is_oblivious_to_warm_starting() {
        // check_tightness consumes the warm-started enumeration; rebuilding
        // the same report from the cold oracle must give identical fields.
        for seed in 0..6u64 {
            let nest = builders::random_projective(seed, 5, 4, (1, 256));
            let m = 1u64 << 8;
            let report = check_tightness(&nest, m);
            let cold = crate::bounds::enumerated_exponent_cold(&nest, m);
            assert_eq!(report.enumerated_exponent, cold.exponent, "seed {seed}");
        }
    }

    #[test]
    fn matmul_surface_is_tight_in_every_region() {
        // Theorem 3, per critical region of the full (β1, β2, β3) surface:
        // the tiling value function and the bound LP agree at every region's
        // witness, including witnesses at rational β no integer bound hits.
        let m = 1u64 << 8;
        let nest = builders::matmul(1 << 6, 1 << 6, 1 << 6);
        let report = check_tightness_surface(&nest, m, &[0, 1, 2], &[1, 1, 1], &[m, m, m]).unwrap();
        assert!(report.regions.len() >= 5, "{report:?}");
        assert!(report.all_tight, "{report:?}");
        for r in &report.regions {
            assert_eq!(r.tiling_exponent, r.bound_exponent);
        }
    }

    #[test]
    fn random_surfaces_are_tight_in_every_region() {
        for seed in 0..4u64 {
            let nest = builders::random_projective(seed, 4, 4, (1, 256));
            let m = 1u64 << 6;
            let report = check_tightness_surface(&nest, m, &[0, 2], &[1, 1], &[m, m]).unwrap();
            assert!(report.all_tight, "seed {seed}: {report:?}");
        }
    }

    #[test]
    fn enumeration_matches_bound_on_worked_examples() {
        // On the paper's worked examples the explicit enumeration achieves the
        // same exponent as the bound LP (no gap).
        let m = 1u64 << 10;
        for nest in [
            builders::matmul(1 << 8, 1 << 8, 1 << 2),
            builders::matvec(1 << 8, 1 << 8),
            builders::nbody(1 << 4, 1 << 6),
        ] {
            let report = check_tightness(&nest, m);
            assert_eq!(report.enumerated_exponent, report.bound_exponent, "{nest}");
        }
    }
}

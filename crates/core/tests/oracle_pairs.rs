//! Differential tests pinning each warm/batched fast path against its
//! retained `_cold` oracle: the pair must agree **exactly** (same rationals,
//! same breakpoints, same per-subset results), because both report
//! path-independent canonical LP optima. These are the joint exercises the
//! workspace lint's L001 (oracle coverage) checks for.

use projtile_core::bounds::{enumerated_exponent, enumerated_exponent_cold};
use projtile_core::parametric::{exponent_vs_beta, exponent_vs_beta_cold};
use projtile_loopnest::builders;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn enumerated_exponent_matches_cold_oracle(
        seed in 0u64..1_000_000,
        d in 1usize..12,
        n in 1usize..8,
        log_m in 1u32..16,
    ) {
        // The subset-lattice walk must report exactly the cold enumeration's
        // result for every subset, not just the optimum, up to depth 11.
        let nest = builders::random_projective(seed, d, n, (1, 256));
        let m = 1u64 << log_m;
        let warm = enumerated_exponent(&nest, m);
        let cold = enumerated_exponent_cold(&nest, m);
        prop_assert_eq!(warm, cold);
    }

    #[test]
    fn exponent_vs_beta_matches_cold_oracle(
        seed in 0u64..1_000_000,
        d in 1usize..5,
        n in 1usize..5,
        axis_pick in 0usize..4,
    ) {
        // The warm parametric sweep along one loop axis must produce the
        // identical value function (breakpoints and values) as one cold
        // solve per probe.
        let nest = builders::random_projective(seed, d, n, (1, 256));
        let axis = axis_pick % d;
        let m = 1u64 << 10;
        let warm = exponent_vs_beta(&nest, m, axis, 1, 1 << 10)
            .expect("projective sweeps stay feasible and bounded");
        let cold = exponent_vs_beta_cold(&nest, m, axis, 1, 1 << 10)
            .expect("the cold oracle solves the same programs");
        prop_assert_eq!(warm, cold);
    }
}

#[test]
fn matmul_pairs_agree_at_the_paper_sizes() {
    // The §6.1 running example, at a size where the answers are known:
    // both pairs must agree bitwise on the canonical nest.
    let nest = builders::matmul(512, 512, 512);
    let m = 1 << 10;
    assert_eq!(
        enumerated_exponent(&nest, m),
        enumerated_exponent_cold(&nest, m)
    );
    assert_eq!(
        exponent_vs_beta(&nest, m, 2, 1, 1 << 10).expect("matmul sweep solves"),
        exponent_vs_beta_cold(&nest, m, 2, 1, 1 << 10).expect("matmul cold sweep solves")
    );
}

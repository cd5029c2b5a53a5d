//! Differential tests for the engine session API: every engine answer must be
//! bitwise-identical to the retained stateless free functions (the cold
//! oracles), including across nest permutations, repeat queries, and batches.

use projtile_core::engine::{AnalysisResult, Engine, EngineError, Query};
use projtile_core::{bounds, parametric, tightness, tiling_lp};
use projtile_loopnest::canon::permute_nest;
use projtile_loopnest::{builders, LoopNest};
use proptest::prelude::*;

/// A deterministic permutation of `0..n` derived from `seed`.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// All six query kinds for one nest at cache size `m` (axis 0 for the 1-D
/// queries, axes {0, last} for the surface).
fn all_queries(nest: &LoopNest, m: u64) -> Vec<Query> {
    let last = nest.num_loops() - 1;
    let mut axes = vec![0usize];
    if last != 0 {
        axes.push(last);
    }
    vec![
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
        Query::Tightness { cache_size: m },
        Query::Slice {
            cache_size: m,
            axis: 0,
            lo_bound: 1,
            hi_bound: m,
        },
        Query::Surface {
            cache_size: m,
            axes: axes.clone(),
            lo_bounds: vec![1; axes.len()],
            hi_bounds: vec![m; axes.len()],
        },
    ]
}

/// Checks one engine answer against the cold free-function oracle, bitwise.
fn assert_matches_oracle(nest: &LoopNest, query: &Query, result: &AnalysisResult) {
    match (query, result) {
        (Query::LowerBound { cache_size }, AnalysisResult::LowerBound(lb)) => {
            assert_eq!(lb, &bounds::arbitrary_bound_exponent(nest, *cache_size));
        }
        (Query::EnumeratedBound { cache_size }, AnalysisResult::EnumeratedBound(en)) => {
            assert_eq!(en, &bounds::enumerated_exponent_cold(nest, *cache_size));
        }
        (Query::OptimalTiling { cache_size }, AnalysisResult::OptimalTiling(t)) => {
            let sol = tiling_lp::solve_tiling_lp(nest, *cache_size);
            assert_eq!(t.lambda, sol.lambda);
            assert_eq!(t.value, sol.value);
            let oracle = tiling_lp::optimal_tiling(nest, *cache_size);
            assert_eq!(t.tile_dims, oracle.tile_dims());
            assert_eq!(Some(t.lambda.as_slice()), oracle.lambda());
        }
        (Query::Tightness { cache_size }, AnalysisResult::Tightness(report)) => {
            assert_eq!(report, &tightness::check_tightness(nest, *cache_size));
        }
        (
            Query::Slice {
                cache_size,
                axis,
                lo_bound,
                hi_bound,
            },
            AnalysisResult::Slice(vf),
        ) => {
            let oracle =
                parametric::exponent_vs_beta_cold(nest, *cache_size, *axis, *lo_bound, *hi_bound)
                    .expect("oracle sweep solves");
            assert_eq!(vf, &oracle);
        }
        (
            Query::Surface {
                cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            },
            AnalysisResult::Surface(summary),
        ) => {
            // The engine's retained oracle for surfaces is the public
            // `exponent_surface` (the region decomposition is a property of
            // the warm traversal; only *values* are unique across warm/cold —
            // see `warm_and_cold_surfaces_evaluate_identically`).
            let oracle =
                parametric::exponent_surface(nest, *cache_size, axes, lo_bounds, hi_bounds)
                    .expect("oracle surface solves");
            assert_eq!(summary.axes, axes.clone());
            assert_eq!(summary.num_regions, oracle.num_regions());
            let oracle_pieces: Vec<_> = oracle.pieces().into_iter().cloned().collect();
            assert_eq!(summary.pieces, oracle_pieces);
            assert_eq!(summary.rendered, oracle.render_pieces());
            // Value-level agreement with the fully cold decomposition at the
            // box corners.
            let cold =
                parametric::exponent_surface_cold(nest, *cache_size, axes, lo_bounds, hi_bounds)
                    .expect("cold surface solves");
            let corners: Vec<Vec<projtile_arith::Rational>> = (0..(1usize << axes.len()))
                .map(|mask| {
                    (0..axes.len())
                        .map(|k| {
                            let bound = if mask >> k & 1 == 1 {
                                hi_bounds[k]
                            } else {
                                lo_bounds[k]
                            };
                            projtile_arith::log::beta(bound as u128, *cache_size as u128)
                        })
                        .collect()
                })
                .collect();
            for corner in corners {
                assert_eq!(oracle.value_at(&corner), cold.value_at(&corner));
            }
        }
        (q, r) => panic!("result variant {r:?} does not match query {q:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_answers_equal_cold_oracles_bitwise(
        seed in 0u64..1000,
        d in 2usize..5,
        n in 2usize..5,
        log_m in 2u32..9,
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 256));
        let m = 1u64 << log_m;
        let engine = Engine::new();
        for query in all_queries(&nest, m) {
            let result = engine.analyze(&nest, &query).expect("valid query");
            assert_matches_oracle(&nest, &query, &result);
            // The repeat is a pure lookup and identical.
            let again = engine.analyze(&nest, &query).expect("valid query");
            prop_assert_eq!(result, again);
        }
    }

    #[test]
    fn permuted_nests_share_one_entry_and_stay_oracle_exact(
        seed in 0u64..1000,
        loop_seed in any::<u64>(),
        array_seed in any::<u64>(),
        d in 2usize..5,
        n in 2usize..5,
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 128));
        let permuted = permute_nest(
            &nest,
            &permutation(loop_seed, d),
            &permutation(array_seed, n),
        );
        let m = 1u64 << 6;
        let engine = Engine::new();
        for query in all_queries(&nest, m) {
            let result = engine.analyze(&nest, &query).expect("valid query");
            assert_matches_oracle(&nest, &query, &result);
        }
        // The permuted variant lands in the same cache entry...
        for query in all_queries(&permuted, m) {
            let result = engine.analyze(&permuted, &query).expect("valid query");
            // ...and its answers are still exactly the oracle's answers *for
            // the permuted declaration order*.
            assert_matches_oracle(&permuted, &query, &result);
        }
        prop_assert_eq!(engine.stats().interned, 1);
    }

    #[test]
    fn batch_answers_equal_sequential_answers(
        seed in 0u64..1000,
        d in 2usize..5,
        n in 2usize..5,
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 128));
        let m = 1u64 << 6;
        let mut queries = all_queries(&nest, m);
        // Duplicates and a second cache size in the same batch.
        queries.push(Query::LowerBound { cache_size: m });
        queries.push(Query::Tightness { cache_size: 4 });
        let batch: Vec<_> = Engine::new().analyze_batch(&nest, &queries);
        let sequential_engine = Engine::new();
        for (q, b) in queries.iter().zip(&batch) {
            let s = sequential_engine.analyze(&nest, q);
            prop_assert_eq!(b, &s);
            // Both sides run the same pipeline, so the cold free functions
            // are the independent reference.
            assert_matches_oracle(&nest, q, b.as_ref().expect("valid query"));
        }
    }

    #[test]
    fn exponent_at_bound_matches_cold_oracle(
        seed in 0u64..1000,
        d in 2usize..6,
        n in 2usize..5,
        axis_pick in any::<u64>(),
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 512));
        let m = 1u64 << 6;
        let axis = (axis_pick % d as u64) as usize;
        let engine = Engine::new();
        for bound in [1u64, 2, 3, 5, 16, 64, 100, 1000] {
            let fast = engine
                .exponent_at_bound(&nest, m, axis, bound)
                .expect("valid query");
            let cold = parametric::exponent_at_bound_cold(&nest, m, axis, bound);
            prop_assert_eq!(fast, cold, "axis {}, bound {}", axis, bound);
        }
        // Only the first query swept; the rest were read off the memoized
        // slice (the widening sweep covers every probed bound at once).
        prop_assert!(engine.stats().hits >= 5, "stats: {:?}", engine.stats());
    }
}

#[test]
fn tightness_warms_its_component_queries() {
    let nest = builders::matmul(1 << 8, 1 << 8, 1 << 3);
    let m = 1u64 << 10;
    let engine = Engine::new();
    engine
        .analyze(&nest, &Query::Tightness { cache_size: m })
        .unwrap();
    let after_tightness = engine.stats();
    // The sub-artifacts were cached as a side effect: these are hits.
    for query in [
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
    ] {
        engine.analyze(&nest, &query).unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.hits, after_tightness.hits + 3, "stats: {stats:?}");
    assert_eq!(stats.misses, after_tightness.misses, "stats: {stats:?}");
}

#[test]
fn batched_tightness_also_warms_its_component_queries() {
    // Regression: the batch fan-out must install the tightness check's
    // component artifacts exactly like the sequential path does.
    let nest = builders::matmul(1 << 8, 1 << 8, 1 << 3);
    let m = 1u64 << 10;
    let engine = Engine::new();
    let batch = engine.analyze_batch(&nest, &[Query::Tightness { cache_size: m }]);
    assert!(batch[0].is_ok());
    let after_batch = engine.stats();
    for query in [
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
    ] {
        let result = engine.analyze(&nest, &query).unwrap();
        assert_matches_oracle(&nest, &query, &result);
    }
    let stats = engine.stats();
    assert_eq!(stats.hits, after_batch.hits + 3, "stats: {stats:?}");
    assert_eq!(stats.misses, after_batch.misses, "stats: {stats:?}");
}

#[test]
fn exponent_at_bound_survives_extreme_bounds() {
    // Regression: a bound near u64::MAX must not overflow the widening
    // power-of-two rounding; the answer still matches the cold oracle.
    let nest = builders::matmul(1 << 6, 1 << 6, 1 << 6);
    let m = 1u64 << 8;
    let engine = Engine::new();
    for bound in [(1u64 << 63) + 1, u64::MAX] {
        let fast = engine.exponent_at_bound(&nest, m, 2, bound).unwrap();
        let cold = parametric::exponent_at_bound_cold(&nest, m, 2, bound);
        assert_eq!(fast, cold, "bound {bound}");
    }
}

#[test]
fn slices_are_shared_across_permuted_variants() {
    // A slice computed for one declaration order answers the permuted
    // variant's equivalent slice from cache (the value function carries no
    // positional data).
    let nest = builders::matmul(1 << 8, 1 << 8, 1 << 8);
    let permuted = permute_nest(&nest, &[2, 0, 1], &[1, 2, 0]);
    let m = 1u64 << 10;
    let k_orig = nest.index_position("k").unwrap();
    let k_perm = permuted.index_position("k").unwrap();
    let engine = Engine::new();
    let first = engine
        .analyze(
            &nest,
            &Query::Slice {
                cache_size: m,
                axis: k_orig,
                lo_bound: 1,
                hi_bound: m,
            },
        )
        .unwrap();
    let misses_after_first = engine.stats().misses;
    let second = engine
        .analyze(
            &permuted,
            &Query::Slice {
                cache_size: m,
                axis: k_perm,
                lo_bound: 1,
                hi_bound: m,
            },
        )
        .unwrap();
    assert_eq!(first, second);
    assert_eq!(
        engine.stats().misses,
        misses_after_first,
        "second slice hit"
    );
    // And both equal the cold oracle on the permuted nest.
    if let AnalysisResult::Slice(vf) = &second {
        let oracle = parametric::exponent_vs_beta_cold(&permuted, m, k_perm, 1, m).unwrap();
        assert_eq!(vf, &oracle);
    } else {
        panic!("slice query answered with {second:?}");
    }
}

#[test]
fn surfaces_are_memoized_and_retrievable() {
    let nest = builders::matmul(1 << 6, 1 << 6, 1 << 6);
    let m = 1u64 << 8;
    let engine = Engine::new();
    let surface = engine
        .exponent_surface(&nest, m, &[0, 2], &[1, 1], &[m, m])
        .unwrap();
    let again = engine
        .exponent_surface(&nest, m, &[0, 2], &[1, 1], &[m, m])
        .unwrap();
    assert_eq!(surface, again);
    assert_eq!(engine.stats().hits, 1);
    // The Query::Surface form hits the same memo.
    let result = engine
        .analyze(
            &nest,
            &Query::Surface {
                cache_size: m,
                axes: vec![0, 2],
                lo_bounds: vec![1, 1],
                hi_bounds: vec![m, m],
            },
        )
        .unwrap();
    assert_eq!(engine.stats().hits, 2);
    match result {
        AnalysisResult::Surface(summary) => {
            assert_eq!(summary.num_regions, surface.num_regions())
        }
        other => panic!("unexpected {other:?}"),
    }

    // A permuted-axes first request computes the sorted surface once and
    // returns the free function's surface for the caller's order; the
    // sorted request then hits it.
    let engine = Engine::new();
    let permuted = engine
        .exponent_surface(&nest, m, &[2, 0], &[1, 1], &[m, m])
        .unwrap();
    let oracle = parametric::exponent_surface(&nest, m, &[2, 0], &[1, 1], &[m, m]).unwrap();
    assert_eq!(permuted, oracle);
    assert_eq!(
        engine
            .exponent_surface(&nest, m, &[0, 2], &[1, 1], &[m, m])
            .unwrap(),
        surface
    );
    let stats = engine.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
    // Mismatched bound lists are rejected, not indexed.
    assert!(matches!(
        engine.exponent_surface(&nest, m, &[2, 0], &[1], &[m, m]),
        Err(EngineError::InvalidQuery(_))
    ));
}

#[test]
fn invalid_queries_are_rejected_with_errors() {
    let nest = builders::matmul(8, 8, 8);
    let engine = Engine::new();
    for query in [
        Query::LowerBound { cache_size: 1 },
        Query::Slice {
            cache_size: 64,
            axis: 7,
            lo_bound: 1,
            hi_bound: 8,
        },
        Query::Slice {
            cache_size: 64,
            axis: 0,
            lo_bound: 8,
            hi_bound: 4,
        },
        Query::Surface {
            cache_size: 64,
            axes: vec![],
            lo_bounds: vec![],
            hi_bounds: vec![],
        },
        Query::Surface {
            cache_size: 64,
            axes: vec![0, 0],
            lo_bounds: vec![1, 1],
            hi_bounds: vec![8, 8],
        },
    ] {
        match engine.analyze(&nest, &query) {
            Err(EngineError::InvalidQuery(_)) => {}
            other => panic!("{query:?} should be rejected, got {other:?}"),
        }
    }
    // Batch keeps per-query errors positional.
    let queries = vec![
        Query::LowerBound { cache_size: 1 },
        Query::LowerBound { cache_size: 64 },
    ];
    let results = engine.analyze_batch(&nest, &queries);
    assert!(matches!(results[0], Err(EngineError::InvalidQuery(_))));
    assert!(results[1].is_ok());
}

#[test]
fn results_round_trip_through_json() {
    let nest = builders::matmul(1 << 8, 1 << 8, 1 << 2);
    let m = 1u64 << 10;
    let engine = Engine::new();
    for query in all_queries(&nest, m) {
        // Queries are wire-ready...
        let qtext = serde::json::to_string(&query);
        let qback: Query = serde::json::from_str(&qtext).expect("query parses back");
        assert_eq!(qback, query, "query round trip via {qtext}");
        // ...and so are the results, bit-exactly (rationals as `p/q` strings,
        // floats in shortest-round-trip form).
        let result = engine.analyze(&nest, &query).unwrap();
        let text = serde::json::to_string(&result);
        let back: AnalysisResult = serde::json::from_str(&text).expect("result parses back");
        assert_eq!(back, result, "result round trip via {text}");
    }
}

#[test]
fn problem_instance_reuses_its_session() {
    let inst = projtile_core::ProblemInstance::new(builders::matmul(512, 512, 8), 1 << 10);
    let first = inst.check_tightness();
    let again = inst.check_tightness();
    assert_eq!(first, again);
    // The tightness check warmed the lower-bound artifact too.
    let lb = inst.tile_size_exponent();
    assert_eq!(lb.exponent, first.bound_exponent);
    let stats = inst.session_stats();
    assert!(stats.hits >= 2, "stats: {stats:?}");
}

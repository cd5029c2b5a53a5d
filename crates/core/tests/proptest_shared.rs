//! Differential tests for the service layer (PR 5): bounded caches under
//! eviction pressure, the thread-safe `SharedEngine` front under concurrent
//! traffic, and snapshot/restore persistence. Every answer must stay
//! **bitwise-identical** to the cold free-function oracles and to a private
//! single-threaded `Engine`, no matter what the caches evicted, which
//! thread asked, or whether the session was round-tripped through JSON.

use projtile_core::engine::{
    AnalysisResult, Engine, EngineConfig, EngineError, Query, SharedEngine,
};
use projtile_core::{bounds, parametric, tightness, tiling_lp};
use projtile_loopnest::canon::permute_nest;
use projtile_loopnest::{builders, LoopNest};
use proptest::prelude::*;

/// Budgets tiny enough that nearly every insertion evicts something.
fn tiny_config() -> EngineConfig {
    EngineConfig {
        results_capacity: 700,
        betas_capacity: 200,
        slices_capacity: 900,
        surfaces_capacity: 2000,
    }
}

/// A 1-loop filler nest whose tiling result is the cheapest possible cache
/// entry — smaller than a tightness report, so filler traffic evicts the
/// (least recently used, derived-last) report and nothing else.
fn filler_nest() -> LoopNest {
    LoopNest::builder()
        .index("i", 2)
        .array("A", ["i"])
        .build()
        .expect("trivial filler nest is valid")
}

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

/// All six query kinds for one nest at cache size `m`.
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
            let oracle =
                parametric::exponent_surface(nest, *cache_size, axes, lo_bounds, hi_bounds)
                    .expect("oracle surface solves");
            assert_eq!(summary.axes, axes.clone());
            assert_eq!(summary.num_regions, oracle.num_regions());
            let oracle_pieces: Vec<_> = oracle.pieces().into_iter().cloned().collect();
            assert_eq!(summary.pieces, oracle_pieces);
            assert_eq!(summary.rendered, oracle.render_pieces());
        }
        (q, r) => panic!("result variant {r:?} does not match query {q:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tiny caps force evictions on nearly every query; answers must stay
    /// oracle-exact anyway (evicted artifacts recompute deterministically),
    /// and the caps must actually be respected.
    #[test]
    fn eviction_pressure_never_changes_answers(
        seed in 0u64..1000,
        d in 2usize..5,
        n in 2usize..5,
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 128));
        let mut engine = Engine::with_config(tiny_config());
        // Two sweeps over several cache sizes: the second sweep re-answers
        // queries whose results were long evicted by the first.
        for _ in 0..2 {
            for m in [4u64, 16, 64] {
                for query in all_queries(&nest, m) {
                    let result = engine.analyze(&nest, &query).expect("valid query");
                    assert_matches_oracle(&nest, &query, &result);
                }
            }
        }
        let metrics = engine.cache_metrics();
        prop_assert!(
            metrics.results.evictions > 0,
            "tiny caps must actually evict: {metrics:?}"
        );
        for cache in [metrics.betas, metrics.results, metrics.slices, metrics.surfaces] {
            prop_assert!(
                cache.cost <= cache.capacity || cache.entries == 1,
                "cap violated: {cache:?}"
            );
        }
    }

    /// Concurrent `SharedEngine` traffic — mixed single queries and batches,
    /// mixed declaration orders, tiny caps — answers bitwise what a private
    /// sequential engine answers, from every thread.
    #[test]
    fn concurrent_shared_engine_matches_sequential_bitwise(
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
        let queries = all_queries(&nest, m);
        let queries_perm = all_queries(&permuted, m);

        // Sequential ground truth from a private engine (itself pinned to
        // the cold oracles by the engine test suite and the test above).
        let mut sequential = Engine::new();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| sequential.analyze(&nest, q).expect("valid query"))
            .collect();
        let expected_perm: Vec<_> = queries_perm
            .iter()
            .map(|q| sequential.analyze(&permuted, q).expect("valid query"))
            .collect();

        // Hammer one shared front from several real threads, under forced
        // eviction pressure (tiny caps) and across permuted variants.
        let shared = SharedEngine::with_config(tiny_config(), 4);
        let workers = projtile_par::num_threads().clamp(2, 8);
        projtile_par::fan_out(workers, |w| {
            for round in 0..2 {
                let (target, qs, exp) = if (w + round) % 2 == 0 {
                    (&nest, &queries, &expected)
                } else {
                    (&permuted, &queries_perm, &expected_perm)
                };
                if round % 2 == 0 {
                    let got = shared.analyze_batch(target, qs);
                    for (g, e) in got.iter().zip(exp) {
                        assert_eq!(g.as_ref().expect("valid query"), e, "worker {w}");
                    }
                } else {
                    for (q, e) in qs.iter().zip(exp) {
                        let g = shared.analyze(target, q).expect("valid query");
                        assert_eq!(&g, e, "worker {w}");
                    }
                }
            }
        });
        // Both declaration orders share one interned entry.
        prop_assert_eq!(shared.stats().interned, 1);
        let stats = shared.stats();
        prop_assert_eq!(
            stats.queries,
            (workers * 2 * queries.len()) as u64,
            "stats: {:?}", stats
        );
    }

    /// Snapshot → JSON → restore is a warm start: every persisted query is
    /// answered from cache, bitwise-identically, by both the
    /// single-threaded engine and the sharded front.
    #[test]
    fn snapshot_restore_answers_bitwise_from_cache(
        seed in 0u64..1000,
        d in 2usize..5,
        n in 2usize..5,
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 128));
        let m = 1u64 << 6;
        let queries = all_queries(&nest, m);
        let mut engine = Engine::new();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| engine.analyze(&nest, q).expect("valid query"))
            .collect();
        // A probe slice too (exponent_at_bound state must persist).
        let probe = engine
            .exponent_at_bound(&nest, m, 0, 37)
            .expect("valid probe");

        let text = engine.snapshot_json();

        let mut restored = Engine::restore_json(&text).expect("snapshot restores");
        for (q, e) in queries.iter().zip(&expected) {
            let got = restored.analyze(&nest, q).expect("valid query");
            prop_assert_eq!(&got, e);
        }
        let stats = restored.stats();
        prop_assert_eq!(stats.misses, 0, "restored session must be warm: {:?}", stats);
        prop_assert_eq!(
            restored.exponent_at_bound(&nest, m, 0, 37).expect("probe"),
            probe
        );

        // The same document restores into a sharded front.
        let shared = SharedEngine::restore_json(&text).expect("snapshot restores");
        for (q, e) in queries.iter().zip(&expected) {
            let got = shared.analyze(&nest, q).expect("valid query");
            prop_assert_eq!(&got, e);
        }
        let stats = shared.stats();
        prop_assert_eq!(stats.misses, 0, "restored front must be warm: {:?}", stats);

        // And a sharded snapshot round-trips back into a plain engine.
        let merged = shared.snapshot_json();
        let mut back = Engine::restore_json(&merged).expect("merged snapshot restores");
        for (q, e) in queries.iter().zip(&expected) {
            prop_assert_eq!(&back.analyze(&nest, q).expect("valid query"), e);
        }
    }
}

#[test]
fn permuted_surface_requests_hit_the_cache() {
    // Satellite regression: the same surface requested with permuted axes
    // (and correspondingly permuted box) must be a cache *hit*, and the
    // answer must still be exactly what the free function returns for that
    // permuted request.
    let nest = builders::matmul(1 << 6, 1 << 6, 1 << 6);
    let m = 1u64 << 8;
    let mut engine = Engine::new();
    let sorted_query = Query::Surface {
        cache_size: m,
        axes: vec![0, 2],
        lo_bounds: vec![1, 2],
        hi_bounds: vec![m, m / 2],
    };
    let permuted_query = Query::Surface {
        cache_size: m,
        axes: vec![2, 0],
        lo_bounds: vec![2, 1],
        hi_bounds: vec![m / 2, m],
    };
    engine.analyze(&nest, &sorted_query).unwrap();
    assert_eq!(engine.stats().misses, 1);
    let permuted_result = engine.analyze(&nest, &permuted_query).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.hits, 1, "permuted request must hit: {stats:?}");
    assert_eq!(
        stats.misses, 1,
        "permuted request must not recompute: {stats:?}"
    );
    assert_matches_oracle(&nest, &permuted_query, &permuted_result);
    // The full-surface accessor hits the same entry and equals the free
    // function for the permuted order.
    let full = engine
        .exponent_surface(&nest, m, &[2, 0], &[2, 1], &[m / 2, m])
        .unwrap();
    let oracle = parametric::exponent_surface(&nest, m, &[2, 0], &[2, 1], &[m / 2, m]).unwrap();
    assert_eq!(full, oracle);
    assert_eq!(engine.stats().hits, 2);
}

#[test]
fn permuted_surface_twins_in_one_batch_compute_once() {
    // Two permuted-axes requests for the same surface in one batch share one
    // canonical cache key, so the batch computes the surface once and both
    // positions answer bitwise what the free function returns for each order.
    let nest = builders::matmul(1 << 6, 1 << 6, 1 << 6);
    let m = 1u64 << 8;
    let sorted_query = Query::Surface {
        cache_size: m,
        axes: vec![0, 2],
        lo_bounds: vec![1, 2],
        hi_bounds: vec![m, m / 2],
    };
    let permuted_query = Query::Surface {
        cache_size: m,
        axes: vec![2, 0],
        lo_bounds: vec![2, 1],
        hi_bounds: vec![m / 2, m],
    };
    // The repeated literal of the computing query counts as neither hit nor
    // miss.
    let queries = vec![
        sorted_query.clone(),
        permuted_query.clone(),
        sorted_query.clone(),
    ];

    let mut engine = Engine::new();
    let batch = engine.analyze_batch(&nest, &queries);
    let stats = engine.stats();
    assert_eq!(stats.queries, 3, "every occurrence is a query: {stats:?}");
    assert_eq!(stats.misses, 1, "canonical twins compute once: {stats:?}");
    assert_eq!(stats.hits, 1, "the twin occurrence is a hit: {stats:?}");
    for (q, r) in queries.iter().zip(&batch) {
        assert_matches_oracle(&nest, q, r.as_ref().expect("valid query"));
    }

    let shared = SharedEngine::with_config(EngineConfig::default(), 2);
    let shared_batch = shared.analyze_batch(&nest, &queries);
    let stats = shared.stats();
    assert_eq!(
        stats.queries, 3,
        "every shared occurrence is a query: {stats:?}"
    );
    assert_eq!(stats.misses, 1, "shared twins compute once: {stats:?}");
    assert_eq!(stats.hits, 1, "shared twin occurrence is a hit: {stats:?}");
    for ((q, r), seq) in queries.iter().zip(&shared_batch).zip(&batch) {
        let r = r.as_ref().expect("valid query");
        assert_matches_oracle(&nest, q, r);
        assert_eq!(Ok(r), seq.as_ref(), "shared == sequential bitwise");
    }
}

#[test]
fn batch_twins_answer_from_their_own_computation() {
    // A canonical twin is answered from the surface its batch computed. The
    // budget here holds one surface, so installing T evicts S before the
    // twin of S is answered: the twin must neither recompute S under the
    // write lock nor re-insert it over T.
    let nest = builders::matmul(64, 64, 64);
    let m = 1u64 << 9;
    let s = Query::Surface {
        cache_size: m,
        axes: vec![0, 2],
        lo_bounds: vec![1, 1],
        hi_bounds: vec![4, 3],
    };
    let twin = Query::Surface {
        cache_size: m,
        axes: vec![2, 0],
        lo_bounds: vec![1, 1],
        hi_bounds: vec![3, 4],
    };
    let t = Query::Surface {
        cache_size: m,
        axes: vec![0, 1],
        lo_bounds: vec![1, 1],
        hi_bounds: vec![4, 4],
    };
    let front = SharedEngine::with_config(
        EngineConfig {
            surfaces_capacity: 1000,
            ..EngineConfig::default()
        },
        1,
    );
    let queries = [s, twin, t.clone()];
    let answers = front.analyze_batch(&nest, &queries);
    for (q, r) in queries.iter().zip(&answers) {
        assert_matches_oracle(&nest, q, r.as_ref().expect("valid query"));
    }
    let stats = front.stats();
    assert_eq!((stats.misses, stats.hits), (2, 1), "{stats:?}");
    let surfaces = front.cache_metrics().surfaces;
    assert_eq!(
        surfaces.evictions, 1,
        "only S made room for T: {surfaces:?}"
    );

    let again = front.analyze(&nest, &t).expect("valid query");
    assert_eq!(front.stats().hits, 2, "T is still resident");
    assert_matches_oracle(&nest, &t, &again);
}

#[test]
fn shared_tightness_recomposes_under_the_read_lock() {
    // After the report is evicted but its components survive, the shared
    // front answers tightness as a read-path *hit* (recomposition is pure
    // arithmetic), still bitwise the free function's report.
    let (seed, m) = (0u64, 1u64 << 8);
    let nest = builders::random_projective(seed, 5, 4, (1, 512));
    let q = Query::Tightness { cache_size: m };
    let mut sizing = Engine::new();
    sizing.analyze(&nest, &q).unwrap();
    let budget = sizing.cache_metrics().results.cost;

    let shared = SharedEngine::with_config(
        EngineConfig {
            results_capacity: budget,
            ..EngineConfig::default()
        },
        1,
    );
    let first = shared.analyze(&nest, &q).unwrap();
    // Filler traffic evicts the (derived-last) report and nothing else.
    let filler = filler_nest();
    shared
        .analyze(&filler, &Query::OptimalTiling { cache_size: m })
        .unwrap();
    assert!(shared.cache_metrics().results.evictions > 0);
    let hits_before = shared.stats().hits;
    let again = shared.analyze(&nest, &q).unwrap();
    assert_eq!(first, again);
    assert_eq!(
        shared.stats().hits,
        hits_before + 1,
        "recomposition is served under the read lock"
    );
    assert_eq!(
        again,
        AnalysisResult::Tightness(tightness::check_tightness(&nest, m))
    );
}

#[test]
fn shared_engine_read_path_hits_do_not_lose_recency() {
    // Repeated concurrent hits must keep an entry alive under eviction
    // pressure: the peeked-at result survives while a never-re-read one is
    // evicted first.
    let nest_a = builders::matmul(1 << 6, 1 << 6, 1 << 6);
    let m = 1u64 << 8;
    let shared = SharedEngine::with_config(
        EngineConfig {
            results_capacity: 1 << 20,
            ..EngineConfig::default()
        },
        1,
    );
    let q = Query::Tightness { cache_size: m };
    shared.analyze(&nest_a, &q).unwrap();
    for _ in 0..8 {
        shared.analyze(&nest_a, &q).unwrap();
    }
    let stats = shared.stats();
    assert_eq!(stats.hits, 8, "repeats are read-path hits: {stats:?}");
    assert_eq!(stats.misses, 1, "stats: {stats:?}");
}

#[test]
fn evicted_tightness_recomposes_from_surviving_components() {
    // The results cache keeps the tightness report's components (bound,
    // enumeration, tiling, certificate) as separate entries; when the
    // report itself is evicted, re-answering composes from the survivors —
    // and the composed report is bitwise the free function's.
    let (seed, m) = (0u64, 1u64 << 8);
    let nest = builders::random_projective(seed, 5, 4, (1, 512));
    let q = Query::Tightness { cache_size: m };

    // Budget sized to exactly the five-entry tightness set of this nest.
    let mut sizing = Engine::new();
    sizing.analyze(&nest, &q).unwrap();
    let budget = sizing.cache_metrics().results.cost;

    let mut engine = Engine::with_config(EngineConfig {
        results_capacity: budget,
        ..EngineConfig::default()
    });
    let first = engine.analyze(&nest, &q).unwrap();
    assert_eq!(engine.cache_metrics().results.evictions, 0);
    // Re-read the components so the report (and its certificate) sink to
    // the least recently used end...
    for probe in [
        Query::OptimalTiling { cache_size: m },
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
    ] {
        engine.analyze(&nest, &probe).unwrap();
    }
    // ...then overflow the budget with unrelated traffic: the report is
    // evicted, the components survive.
    let filler = filler_nest();
    engine
        .analyze(&filler, &Query::OptimalTiling { cache_size: m })
        .unwrap();
    assert!(engine.cache_metrics().results.evictions > 0);

    let misses_before = engine.stats().misses;
    let again = engine.analyze(&nest, &q).unwrap();
    assert_eq!(first, again);
    assert_eq!(
        engine.stats().misses,
        misses_before + 1,
        "the evicted report must recompose (a miss), not answer stale"
    );
    assert_eq!(
        again,
        AnalysisResult::Tightness(tightness::check_tightness(&nest, m))
    );
}

#[test]
fn corrupt_snapshots_are_rejected_not_panicked() {
    let nest = builders::matmul(1 << 6, 1 << 6, 8);
    let mut engine = Engine::new();
    engine
        .analyze(&nest, &Query::Tightness { cache_size: 1 << 8 })
        .unwrap();
    let good = engine.snapshot_json();

    // Unknown version.
    let versioned = good.replacen("\"version\":1", "\"version\":999", 1);
    assert!(matches!(
        Engine::restore_json(&versioned),
        Err(EngineError::Snapshot(_))
    ));
    // Truncated document.
    assert!(matches!(
        Engine::restore_json(&good[..good.len() / 2]),
        Err(EngineError::Snapshot(_))
    ));
    // Out-of-range entry index.
    let skewed = good.replace("\"entry\":0", "\"entry\":9999");
    assert!(matches!(
        Engine::restore_json(&skewed),
        Err(EngineError::Snapshot(_))
    ));
    // Hostile nesting depth cannot overflow the parser stack.
    let bomb = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(matches!(
        Engine::restore_json(&bomb),
        Err(EngineError::Snapshot(_))
    ));
    // The pristine document still restores.
    assert!(Engine::restore_json(&good).is_ok());
}

#[test]
fn restore_respects_smaller_budgets() {
    // Restoring a rich session into tiny budgets evicts immediately instead
    // of overshooting the caps, and the session still answers correctly.
    let nest = builders::random_projective(3, 4, 4, (1, 128));
    let mut engine = Engine::new();
    for m in [4u64, 16, 64] {
        for query in all_queries(&nest, m) {
            engine.analyze(&nest, &query).unwrap();
        }
    }
    let text = engine.snapshot_json();
    let mut small =
        Engine::restore_json_with_config(&text, tiny_config()).expect("snapshot restores");
    let metrics = small.cache_metrics();
    for cache in [
        metrics.betas,
        metrics.results,
        metrics.slices,
        metrics.surfaces,
    ] {
        assert!(
            cache.cost <= cache.capacity || cache.entries == 1,
            "cap violated after restore: {cache:?}"
        );
    }
    for query in all_queries(&nest, 64) {
        let result = small.analyze(&nest, &query).expect("valid query");
        assert_matches_oracle(&nest, &query, &result);
    }
}

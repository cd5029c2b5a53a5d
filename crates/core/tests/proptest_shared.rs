//! Differential tests for the service layer (PR 5): bounded caches under
//! eviction pressure, the thread-safe `SharedEngine` front under concurrent
//! traffic, and snapshot/restore persistence. Every answer must stay
//! **bitwise-identical** to the cold free-function oracles and to a private
//! single-threaded `Engine`, no matter what the caches evicted, which
//! thread asked, or whether the session was round-tripped through JSON.

use projtile_core::engine::{
    outcome, AnalysisResult, Engine, EngineConfig, EngineError, Query, SharedEngine,
};
use projtile_core::{bounds, parametric, tightness, tiling_lp};
use projtile_loopnest::canon::permute_nest;
use projtile_loopnest::{builders, LoopNest};
use proptest::prelude::*;

/// Budgets tiny enough that nearly every insertion evicts something.
fn tiny_config() -> EngineConfig {
    EngineConfig {
        results_capacity: 700,
        slices_capacity: 900,
        surfaces_capacity: 2000,
    }
}

/// A 1-loop filler nest whose tiling result is the cheapest possible cache
/// entry — smaller than any tightness component, so filler traffic under a
/// budget sized to one tightness set evicts one component and nothing else.
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
        for cache in [metrics.results, metrics.slices, metrics.surfaces] {
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

        // Sequential ground truth from a private engine. It runs the same
        // pipeline as the front, so every expected answer is also checked
        // against the cold free functions.
        let mut sequential = Engine::new();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| sequential.analyze(&nest, q).expect("valid query"))
            .collect();
        let expected_perm: Vec<_> = queries_perm
            .iter()
            .map(|q| sequential.analyze(&permuted, q).expect("valid query"))
            .collect();
        for (q, e) in queries.iter().zip(&expected) {
            assert_matches_oracle(&nest, q, e);
        }
        for (q, e) in queries_perm.iter().zip(&expected_perm) {
            assert_matches_oracle(&permuted, q, e);
        }

        // Hammer one shared front from several real threads, under forced
        // eviction pressure (tiny caps) and across permuted variants.
        let shared = SharedEngine::with_config(tiny_config());
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
    /// single-threaded engine and the shared front.
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

        // The same document restores into a shared front.
        let shared = SharedEngine::restore_json(&text).expect("snapshot restores");
        for (q, e) in queries.iter().zip(&expected) {
            let got = shared.analyze(&nest, q).expect("valid query");
            prop_assert_eq!(&got, e);
        }
        let stats = shared.stats();
        prop_assert_eq!(stats.misses, 0, "restored front must be warm: {:?}", stats);

        // And the front's snapshot round-trips back into a plain engine.
        let merged = shared.snapshot_json();
        let mut back = Engine::restore_json(&merged).expect("merged snapshot restores");
        for (q, e) in queries.iter().zip(&expected) {
            prop_assert_eq!(&back.analyze(&nest, q).expect("valid query"), e);
        }
    }

    /// The shared front is one `Engine` behind a lock, with that engine's
    /// budgets: fed the same serialized stream of mixed batches (declared in
    /// two orders, with duplicate literals and permuted-axes surface twins)
    /// under tiny budgets, it answers, counts per kind, evicts per cache
    /// and snapshots byte for byte exactly as a private `Engine` does.
    #[test]
    fn shared_front_counts_evicts_and_snapshots_as_an_engine(
        seed in 0u64..1000,
        picks in proptest::collection::vec(any::<u64>(), 24),
    ) {
        let nests: Vec<(LoopNest, LoopNest)> = (0..3u64)
            .map(|i| {
                let (d, n) = (2 + (seed + i) as usize % 3, 2 + (seed / 3 + i) as usize % 3);
                let nest = builders::random_projective(seed + i, d, n, (1, 128));
                let permuted = permute_nest(
                    &nest,
                    &permutation(seed ^ i, d),
                    &permutation(seed.rotate_left(7) ^ i, n),
                );
                (nest, permuted)
            })
            .collect();
        let mut engine = Engine::with_config(tiny_config());
        let shared = SharedEngine::with_config(tiny_config());
        for pick in picks {
            let (nest, permuted) = &nests[(pick % 3) as usize];
            let target = if pick & 4 == 0 { nest } else { permuted };
            let m = [4u64, 16, 64][(pick >> 3) as usize % 3];
            let mut batch = all_queries(target, m);
            let shift = (pick >> 5) as usize % batch.len();
            batch.rotate_left(shift);
            batch.truncate(1 + (pick >> 8) as usize % 3);
            if pick & (1 << 12) != 0 {
                batch.push(batch[0].clone());
            }
            if let Some(Query::Surface { cache_size, axes, lo_bounds, hi_bounds }) =
                batch.iter().find(|q| matches!(q, Query::Surface { axes, .. } if axes.len() > 1))
            {
                let twin = Query::Surface {
                    cache_size: *cache_size,
                    axes: axes.iter().rev().copied().collect(),
                    lo_bounds: lo_bounds.iter().rev().copied().collect(),
                    hi_bounds: hi_bounds.iter().rev().copied().collect(),
                };
                batch.push(twin);
            }
            let answers = engine.analyze_batch(target, &batch);
            for (q, r) in batch.iter().zip(&answers) {
                assert_matches_oracle(target, q, r.as_ref().expect("valid query"));
            }
            prop_assert_eq!(shared.analyze_batch(target, &batch), answers);
        }
        let metrics = engine.cache_metrics();
        prop_assert!(metrics.results.evictions > 0, "tiny budgets must evict: {metrics:?}");
        prop_assert_eq!(shared.cache_metrics(), metrics);
        prop_assert_eq!(shared.stats(), engine.stats());
        prop_assert_eq!(shared.snapshot_json(), engine.snapshot_json());
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

    let shared = SharedEngine::new();
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
    // twin of S is answered: the twin must neither recompute S nor re-insert
    // it over T. Both fronts run the same pipeline and must agree.
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
    let config = EngineConfig {
        surfaces_capacity: 1000,
        ..EngineConfig::default()
    };
    let queries = [s, twin, t.clone()];

    let mut engine = Engine::with_config(config);
    let answers = engine.analyze_batch(&nest, &queries);
    for (q, r) in queries.iter().zip(&answers) {
        assert_matches_oracle(&nest, q, r.as_ref().expect("valid query"));
    }
    let stats = engine.stats();
    assert_eq!((stats.misses, stats.hits), (2, 1), "{stats:?}");
    let surfaces = engine.cache_metrics().surfaces;
    assert_eq!(
        surfaces.evictions, 1,
        "only S made room for T: {surfaces:?}"
    );
    let again = engine.analyze(&nest, &t).expect("valid query");
    assert_eq!(engine.stats().hits, 2, "T is still resident");
    assert_matches_oracle(&nest, &t, &again);

    let front = SharedEngine::with_config(config);
    let shared_answers = front.analyze_batch(&nest, &queries);
    assert_eq!(shared_answers, answers, "shared == private bitwise");
    assert_eq!(
        front.cache_metrics().surfaces.evictions,
        surfaces.evictions,
        "both fronts evict alike"
    );
    assert_eq!(front.analyze(&nest, &t).expect("valid query"), again);
    assert_eq!(front.stats(), engine.stats(), "both fronts count alike");
}

/// What a trace records per event that the lab's replay charges: kind, `M`,
/// outcome and installed costs.
fn charged_events(front: &SharedEngine) -> Vec<(u8, u64, u8, Vec<u64>)> {
    front
        .trace_document()
        .events
        .into_iter()
        .map(|e| (e.kind, e.m, e.outcome, e.costs))
        .collect()
}

#[test]
fn tightness_components_in_its_batch_are_computed_once_and_counted_alike() {
    // A batch's component misses are answered from its Tightness miss's
    // parts, and each installs the same entry at the same cost as when sent
    // alone. Sent one per batch, the Tightness comes after its components
    // and is a hit composed from them; in the batch it is a fourth miss.
    let nest = builders::random_projective(7, 6, 4, (1, 256));
    let m = 1u64 << 8;
    let queries = [
        Query::LowerBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::Tightness { cache_size: m },
    ];

    let mut batched = Engine::new();
    let answers: Vec<AnalysisResult> = batched
        .analyze_batch(&nest, &queries)
        .into_iter()
        .map(|r| r.expect("valid query"))
        .collect();
    for (q, r) in queries.iter().zip(&answers) {
        assert_matches_oracle(&nest, q, r);
    }
    let stats = batched.stats();
    assert_eq!((stats.misses, stats.hits), (4, 0), "{stats:?}");
    let mut single = Engine::new();
    for (q, r) in queries.iter().zip(&answers) {
        assert_eq!(&single.ask(&nest, q), r, "one per batch == batched bitwise");
    }
    let stats = single.stats();
    assert_eq!((stats.misses, stats.hits), (3, 1), "{stats:?}");
    assert_eq!(
        batched.cache_metrics().results,
        single.cache_metrics().results,
        "the same three entries at the same costs"
    );
    // The batched Tightness installs nothing (its components are in), and
    // the lone one peeks tiling, bound, enumeration in that order.
    assert_eq!(
        resident_result_kinds(&mut batched),
        ["bound", "tiling", "enumerated"]
    );
    assert_eq!(
        resident_result_kinds(&mut single),
        ["tiling", "bound", "enumerated"]
    );

    let mut shared = SharedEngine::new();
    shared.set_trace_capacity(64);
    let shared_answers: Vec<AnalysisResult> = shared
        .analyze_batch(&nest, &queries)
        .into_iter()
        .map(|r| r.expect("valid query"))
        .collect();
    assert_eq!(shared_answers, answers, "shared == private bitwise");
    let stats = shared.stats();
    assert_eq!((stats.misses, stats.hits), (4, 0), "{stats:?}");
    let mut one_per_batch = SharedEngine::new();
    one_per_batch.set_trace_capacity(64);
    for q in &queries {
        one_per_batch.analyze(&nest, q).expect("valid query");
    }
    let stats = one_per_batch.stats();
    assert_eq!((stats.misses, stats.hits), (3, 1), "{stats:?}");
    let events = charged_events(&shared);
    let alone = charged_events(&one_per_batch);
    assert_eq!(events.len(), 4);
    assert!(events.iter().all(|e| e.2 == outcome::MISS), "{events:?}");
    assert_eq!(events[..3], alone[..3], "components charge alike");
    // The Tightness miss prices its three components in install order.
    let component_costs: Vec<u64> = [1, 0, 2].iter().map(|&i| events[i].3[0]).collect();
    assert_eq!(events[3], (3, m, outcome::MISS, component_costs));
    assert_eq!(alone[3], (3, m, outcome::HIT, Vec::new()));
}

#[test]
fn separately_computed_components_make_tightness_a_hit() {
    // A Tightness answer is composed from its three components, whichever
    // queries computed them: after separate LowerBound, EnumeratedBound and
    // OptimalTiling queries at the same M, it is a hit that solves and
    // installs nothing, bitwise `check_tightness`.
    let nest = builders::random_projective(11, 6, 5, (1, 512));
    let m = 1u64 << 6;
    let tightness = Query::Tightness { cache_size: m };
    let components = [
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
    ];
    let oracle = AnalysisResult::Tightness(tightness::check_tightness(&nest, m));

    let mut engine = Engine::new();
    let mut shared = SharedEngine::new();
    shared.set_trace_capacity(16);
    for q in &components {
        engine.ask(&nest, q);
        shared.ask(&nest, q);
    }
    let (before, shared_before) = (engine.cache_metrics(), shared.cache_metrics());
    assert_eq!(engine.ask(&nest, &tightness), oracle);
    assert_eq!(shared.ask(&nest, &tightness), oracle);
    for stats in [engine.stats(), shared.stats()] {
        assert_eq!((stats.misses, stats.hits), (3, 1), "{stats:?}");
    }
    assert_eq!(engine.cache_metrics().results, before.results);
    assert_eq!(shared.cache_metrics().results, shared_before.results);
    let events = charged_events(&shared);
    assert_eq!(events.last(), Some(&(3, m, outcome::HIT, Vec::new())));
}

#[test]
fn a_resident_tightness_leaves_its_batchs_components_to_compute() {
    // A Tightness is resident exactly when its three components are, so it
    // is not pending and no component miss of its batch takes an answer
    // from it: a LowerBound at another M is solved itself, while the
    // same-M OptimalTiling hits beside the Tightness.
    let nest = builders::random_projective(3, 5, 4, (1, 256));
    let (m, other) = (1u64 << 8, 1u64 << 5);
    let queries = [
        Query::LowerBound { cache_size: other },
        Query::Tightness { cache_size: m },
        Query::OptimalTiling { cache_size: m },
    ];
    let mut engine = Engine::new();
    let shared = SharedEngine::new();
    engine.ask(&nest, &queries[1]);
    shared.analyze(&nest, &queries[1]).expect("valid query");

    let answers = engine.analyze_batch(&nest, &queries);
    for (q, r) in queries.iter().zip(&answers) {
        assert_matches_oracle(&nest, q, r.as_ref().expect("valid query"));
    }
    let stats = engine.stats();
    assert_eq!((stats.misses, stats.hits), (2, 2), "{stats:?}");
    assert_eq!(shared.analyze_batch(&nest, &queries), answers);
    assert_eq!(shared.stats(), engine.stats(), "both fronts count alike");
}

#[test]
fn batches_of_sixteen_or_more_misses_fan_out_exactly() {
    // `par_map_with` splits a batch across threads only from 16 pending
    // misses on. Here: the three component kinds at six cache sizes plus a
    // Tightness at two of them, 20 distinct misses, whose six same-M
    // components take their answers from the two Tightness computations.
    // Every answer must equal its oracle and the same query sent alone.
    let nest = builders::random_projective(5, 5, 4, (1, 1 << 12));
    let sizes = [4u64, 16, 64, 256, 1 << 10, 1 << 12];
    let mut queries: Vec<Query> = Vec::new();
    for &m in &sizes {
        queries.push(Query::LowerBound { cache_size: m });
        queries.push(Query::EnumeratedBound { cache_size: m });
        queries.push(Query::OptimalTiling { cache_size: m });
    }
    queries.push(Query::Tightness { cache_size: 16 });
    queries.push(Query::Tightness {
        cache_size: 1 << 10,
    });
    assert!(queries.len() >= 16);

    let mut engine = Engine::new();
    let answers: Vec<AnalysisResult> = engine
        .analyze_batch(&nest, &queries)
        .into_iter()
        .map(|r| r.expect("valid query"))
        .collect();
    let stats = engine.stats();
    assert_eq!((stats.misses, stats.hits), (20, 0), "{stats:?}");
    let front = SharedEngine::new();
    let shared_answers = front.analyze_batch(&nest, &queries);
    assert_eq!(front.stats(), engine.stats(), "both fronts count alike");

    let mut single = Engine::new();
    for ((q, r), shared) in queries.iter().zip(&answers).zip(&shared_answers) {
        assert_matches_oracle(&nest, q, r);
        assert_eq!(shared.as_ref(), Ok(r), "shared == private bitwise");
        assert_eq!(&single.ask(&nest, q), r, "batched == one per batch");
    }
}

/// The nest, cache size and tightness report of the evicted-tightness tests,
/// with a results budget sized to exactly the three components a tightness
/// query installs for that nest.
fn tightness_eviction_setup() -> (LoopNest, u64, AnalysisResult, EngineConfig) {
    let (seed, m) = (0u64, 1u64 << 8);
    let nest = builders::random_projective(seed, 5, 4, (1, 512));
    let oracle = AnalysisResult::Tightness(tightness::check_tightness(&nest, m));
    let mut sizing = Engine::new();
    sizing
        .analyze(&nest, &Query::Tightness { cache_size: m })
        .unwrap();
    let config = EngineConfig {
        results_capacity: sizing.cache_metrics().results.cost,
        ..EngineConfig::default()
    };
    (nest, m, oracle, config)
}

/// The two fronts, as the evicted-tightness tests drive them.
trait Front {
    fn ask(&mut self, nest: &LoopNest, query: &Query) -> AnalysisResult;
    fn results_evictions(&self) -> u64;
    fn snapshot_value(&mut self) -> serde::Value;
}

impl Front for Engine {
    fn ask(&mut self, nest: &LoopNest, query: &Query) -> AnalysisResult {
        self.analyze(nest, query).expect("valid query")
    }
    fn results_evictions(&self) -> u64 {
        self.cache_metrics().results.evictions
    }
    fn snapshot_value(&mut self) -> serde::Value {
        self.snapshot()
    }
}

impl Front for SharedEngine {
    fn ask(&mut self, nest: &LoopNest, query: &Query) -> AnalysisResult {
        self.analyze(nest, query).expect("valid query")
    }
    fn results_evictions(&self) -> u64 {
        self.cache_metrics().results.evictions
    }
    fn snapshot_value(&mut self) -> serde::Value {
        self.snapshot()
    }
}

/// The kinds of a front's resident results, least recently used first (the
/// order snapshots persist them in).
fn resident_result_kinds(front: &mut impl Front) -> Vec<String> {
    use serde::Value;
    let snapshot = front.snapshot_value();
    let Ok(Value::Array(results)) = snapshot.field("results") else {
        panic!("snapshot without a results list");
    };
    results
        .iter()
        .map(|r| match r.field("kind") {
            Ok(Value::String(kind)) => kind.clone(),
            other => panic!("result without a kind: {other:?}"),
        })
        .collect()
}

/// Drives one front through a tightness miss (which installs its three
/// components and no report), a repeat composed from them, and filler
/// traffic that evicts exactly one component, the least recently used
/// tiling.
fn evict_one_tightness_component(
    front: &mut impl Front,
    nest: &LoopNest,
    m: u64,
    oracle: &AnalysisResult,
) {
    let q = Query::Tightness { cache_size: m };
    assert_eq!(&front.ask(nest, &q), oracle);
    assert_eq!(
        front.results_evictions(),
        0,
        "the budget holds the three components"
    );
    assert_eq!(
        resident_result_kinds(front),
        ["tiling", "bound", "enumerated"],
        "a tightness miss installs its components and nothing else"
    );
    assert_eq!(&front.ask(nest, &q), oracle);
    front.ask(&filler_nest(), &Query::OptimalTiling { cache_size: m });
    assert_eq!(front.results_evictions(), 1);
    assert_eq!(
        resident_result_kinds(front),
        ["bound", "enumerated", "tiling"],
        "only the component tiling was evicted"
    );
}

#[test]
fn evicted_tightness_recomposes_from_surviving_components() {
    // With one component evicted, a Tightness is a miss: it recomputes all
    // three components, reinstalls the absent one (the cascade evicts the
    // other two and the filler, which are reinstalled in turn) and answers
    // bitwise the free function's report. Once all three are resident
    // again, the next Tightness is recomposed from them as a hit.
    let (nest, m, oracle, config) = tightness_eviction_setup();
    let q = Query::Tightness { cache_size: m };
    let mut engine = Engine::with_config(config);
    evict_one_tightness_component(&mut engine, &nest, m, &oracle);

    let before = engine.stats();
    assert_eq!(engine.ask(&nest, &q), oracle);
    let after = engine.stats();
    assert_eq!(
        (after.hits, after.misses),
        (before.hits, before.misses + 1),
        "a Tightness missing a component is a miss"
    );
    assert_eq!(
        resident_result_kinds(&mut engine),
        ["tiling", "bound", "enumerated"]
    );
    assert_eq!(engine.ask(&nest, &q), oracle);
    assert_eq!(engine.stats().hits, after.hits + 1, "recomposed as a hit");
}

#[test]
fn shared_tightness_recomposes_under_the_read_lock() {
    // The shared front composes a resident Tightness as a read-path hit, and
    // counts and evicts exactly as a private `Engine` driven through the
    // same traffic, including the miss after one component is evicted.
    let (nest, m, oracle, config) = tightness_eviction_setup();
    let q = Query::Tightness { cache_size: m };
    let mut shared = SharedEngine::with_config(config);
    evict_one_tightness_component(&mut shared, &nest, m, &oracle);
    let stats = shared.stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (1, 2),
        "the repeat was composed under the read lock: {stats:?}"
    );
    assert_eq!(shared.analyze(&nest, &q).unwrap(), oracle);
    assert_eq!(shared.stats().misses, 3, "a missing component is a miss");

    let mut engine = Engine::with_config(config);
    evict_one_tightness_component(&mut engine, &nest, m, &oracle);
    assert_eq!(engine.analyze(&nest, &q).unwrap(), oracle);
    assert_eq!(shared.stats(), engine.stats(), "both fronts count alike");
    assert_eq!(
        shared.cache_metrics().results,
        engine.cache_metrics().results,
        "both fronts evict alike"
    );
}

#[test]
fn shared_engine_read_path_hits_do_not_lose_recency() {
    // Repeated concurrent hits must keep an entry alive under eviction
    // pressure: the peeked-at result survives while a never-re-read one is
    // evicted first.
    let nest_a = builders::matmul(1 << 6, 1 << 6, 1 << 6);
    let m = 1u64 << 8;
    let shared = SharedEngine::with_config(EngineConfig {
        results_capacity: 1 << 20,
        ..EngineConfig::default()
    });
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
    for cache in [metrics.results, metrics.slices, metrics.surfaces] {
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

#[test]
fn snapshots_with_legacy_betas_restore_warm() {
    // Earlier builds cached β vectors and persisted them under `betas`.
    // Restore ignores whatever that list holds, so such a document still
    // restores warm into both fronts.
    let nest = builders::random_projective(5, 4, 3, (1, 128));
    let m = 1u64 << 6;
    let queries = all_queries(&nest, m);
    let mut engine = Engine::new();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| engine.analyze(&nest, q).expect("valid query"))
        .collect();
    let fresh = engine.snapshot_json();
    let canonical = projtile_loopnest::canonicalize(&nest);
    let beta_entry = format!(
        r#""betas":[{{"entry":0,"m":{m},"value":{}}}]"#,
        serde::json::to_string(&bounds::betas(canonical.nest(), m))
    );
    assert!(
        fresh.contains(r#""betas":[]"#),
        "the writer emits an empty list"
    );
    let legacy = fresh.replacen(r#""betas":[]"#, &beta_entry, 1);
    assert_ne!(legacy, fresh);

    let mut restored = Engine::restore_json(&legacy).expect("legacy format restores");
    let shared = SharedEngine::restore_json(&legacy).expect("legacy format restores");
    for (q, e) in queries.iter().zip(&expected) {
        assert_eq!(&restored.analyze(&nest, q).expect("valid query"), e);
        assert_eq!(&shared.analyze(&nest, q).expect("valid query"), e);
    }
    assert_eq!(restored.stats().misses, 0, "{:?}", restored.stats());
    assert_eq!(shared.stats().misses, 0, "{:?}", shared.stats());
}

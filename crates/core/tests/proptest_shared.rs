//! Differential tests for the service layer: bounded caches under eviction
//! pressure, one `Engine` shared by concurrent threads, and
//! snapshot/restore persistence. Every answer must stay
//! **bitwise-identical** to the cold free-function oracles and to a private
//! single-threaded `Engine`, no matter what the caches evicted, which
//! thread asked, or whether the session was round-tripped through JSON.

use projtile_core::engine::{
    outcome, AnalysisResult, Engine, EngineConfig, EngineError, Query, SurfaceSummary,
    TilingSummary,
};
use projtile_core::{bounds, parametric, tightness, tiling_lp};
use projtile_loopnest::canon::permute_nest;
use projtile_loopnest::{builders, LoopNest};
use proptest::prelude::*;
use serde::json;

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

/// The whole answer to `query`, built from the cold free functions (the
/// oracles [`assert_matches_oracle`] compares against).
fn oracle_answer(nest: &LoopNest, query: &Query) -> AnalysisResult {
    match query {
        Query::LowerBound { cache_size } => {
            AnalysisResult::LowerBound(bounds::arbitrary_bound_exponent(nest, *cache_size))
        }
        Query::EnumeratedBound { cache_size } => {
            AnalysisResult::EnumeratedBound(bounds::enumerated_exponent_cold(nest, *cache_size))
        }
        Query::OptimalTiling { cache_size } => {
            let sol = tiling_lp::solve_tiling_lp(nest, *cache_size);
            AnalysisResult::OptimalTiling(TilingSummary {
                tile_dims: tiling_lp::tile_dims_from_lambda(nest, *cache_size, &sol.lambda),
                lambda: sol.lambda,
                value: sol.value,
            })
        }
        Query::Tightness { cache_size } => {
            AnalysisResult::Tightness(tightness::check_tightness(nest, *cache_size))
        }
        Query::Slice {
            cache_size,
            axis,
            lo_bound,
            hi_bound,
        } => AnalysisResult::Slice(
            parametric::exponent_vs_beta_cold(nest, *cache_size, *axis, *lo_bound, *hi_bound)
                .expect("oracle sweep solves"),
        ),
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } => {
            let surface =
                parametric::exponent_surface(nest, *cache_size, axes, lo_bounds, hi_bounds)
                    .expect("oracle surface solves");
            AnalysisResult::Surface(SurfaceSummary {
                axes: axes.clone(),
                num_regions: surface.num_regions(),
                pieces: surface.pieces().into_iter().cloned().collect(),
                rendered: surface.render_pieces(),
            })
        }
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
        let engine = Engine::with_config(tiny_config());
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

    /// Concurrent traffic on one `Engine` — mixed single queries and
    /// batches, mixed declaration orders, tiny caps — answers bitwise what a
    /// private sequential engine answers, from every thread.
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
        // pipeline as the shared one, so every expected answer is also
        // checked against the cold free functions.
        let sequential = Engine::new();
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

        // Hammer one shared engine from several real threads, under forced
        // eviction pressure (tiny caps) and across permuted variants.
        let shared = Engine::with_config(tiny_config());
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

    /// Four threads probing one engine's `exponent_at_bound` race on the
    /// probe slice's sweep and install (each walks the bounds of
    /// `proptest_engine.rs::exponent_at_bound_matches_cold_oracle` from its
    /// own start, so narrow and wide sweeps interleave); every answer is
    /// still bitwise the cold oracle's.
    #[test]
    fn concurrent_exponent_at_bound_matches_cold_oracle(
        seed in 0u64..1000,
        d in 2usize..6,
        n in 2usize..5,
        axis_pick in any::<u64>(),
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 512));
        let m = 1u64 << 6;
        let axis = (axis_pick % d as u64) as usize;
        let bounds = [1u64, 2, 3, 5, 16, 64, 100, 1000];
        let cold: Vec<_> = bounds
            .iter()
            .map(|&b| parametric::exponent_at_bound_cold(&nest, m, axis, b))
            .collect();
        let engine = Engine::new();
        projtile_par::fan_out(4, |w| {
            for i in 0..bounds.len() {
                let k = (i + 3 * w) % bounds.len();
                let got = engine
                    .exponent_at_bound(&nest, m, axis, bounds[k])
                    .expect("valid probe");
                assert_eq!(got, cold[k], "worker {w}, axis {axis}, bound {}", bounds[k]);
            }
        });
        let stats = engine.stats();
        prop_assert_eq!(stats.queries, 4 * bounds.len() as u64);
        prop_assert_eq!(stats.hits + stats.misses, stats.queries, "{:?}", stats);
    }

    /// Snapshot → JSON → restore is a warm start: every persisted query is
    /// answered from cache, bitwise-identically, by every session restored
    /// from the document.
    #[test]
    fn snapshot_restore_answers_bitwise_from_cache(
        seed in 0u64..1000,
        d in 2usize..5,
        n in 2usize..5,
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 128));
        let m = 1u64 << 6;
        let queries = all_queries(&nest, m);
        let engine = Engine::new();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| engine.analyze(&nest, q).expect("valid query"))
            .collect();
        // A probe slice too (exponent_at_bound state must persist).
        let probe = engine
            .exponent_at_bound(&nest, m, 0, 37)
            .expect("valid probe");

        let text = engine.snapshot_json();

        let restored = Engine::restore_json(&text).expect("snapshot restores");
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

        // The same document restores a second session just as warm.
        let shared = Engine::restore_json(&text).expect("snapshot restores");
        for (q, e) in queries.iter().zip(&expected) {
            let got = shared.analyze(&nest, q).expect("valid query");
            prop_assert_eq!(&got, e);
        }
        let stats = shared.stats();
        prop_assert_eq!(stats.misses, 0, "second restore must be warm: {:?}", stats);

        // And that session's snapshot round-trips into a third one.
        let merged = shared.snapshot_json();
        let back = Engine::restore_json(&merged).expect("merged snapshot restores");
        for (q, e) in queries.iter().zip(&expected) {
            prop_assert_eq!(&back.analyze(&nest, q).expect("valid query"), e);
        }
    }

    /// Four callers share one engine under tiny caps, so answers are
    /// rendered, shared, evicted and recomputed while others read them:
    /// every `answer_batch` answer's JSON text is the printed tree of the
    /// cold oracle's answer, for every query kind.
    #[test]
    fn concurrent_answer_texts_are_the_cold_oracles_printed_trees(
        seed in 0u64..1000,
        d in 2usize..5,
        n in 2usize..5,
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 128));
        let batches: Vec<Vec<Query>> = [4u64, 16, 64]
            .iter()
            .map(|&m| all_queries(&nest, m))
            .collect();
        let expected: Vec<Vec<String>> = batches
            .iter()
            .map(|qs| {
                qs.iter()
                    .map(|q| json::to_string(&oracle_answer(&nest, q)))
                    .collect()
            })
            .collect();
        let engine = Engine::with_config(tiny_config());
        projtile_par::fan_out(4, |w| {
            for round in 0..3 {
                let b = (w + round) % batches.len();
                let answers = engine.answer_batch(&nest, &batches[b]);
                for ((q, a), text) in batches[b].iter().zip(&answers).zip(&expected[b]) {
                    let answer = a.as_ref().expect("valid query");
                    assert_eq!(answer.json(), text.as_str(), "worker {w}, {q:?}");
                }
            }
        });
        let metrics = engine.cache_metrics();
        prop_assert!(metrics.results.evictions > 0, "tiny caps evict: {:?}", metrics);
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
    let engine = Engine::new();
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

    let engine = Engine::new();
    let batch = engine.analyze_batch(&nest, &queries);
    let stats = engine.stats();
    assert_eq!(stats.queries, 3, "every occurrence is a query: {stats:?}");
    assert_eq!(stats.misses, 1, "canonical twins compute once: {stats:?}");
    assert_eq!(stats.hits, 1, "the twin occurrence is a hit: {stats:?}");
    for (q, r) in queries.iter().zip(&batch) {
        assert_matches_oracle(&nest, q, r.as_ref().expect("valid query"));
    }

    let second = Engine::new();
    let second_batch = second.analyze_batch(&nest, &queries);
    let stats = second.stats();
    assert_eq!(
        stats.queries, 3,
        "every second-session occurrence is a query: {stats:?}"
    );
    assert_eq!(
        stats.misses, 1,
        "second-session twins compute once: {stats:?}"
    );
    assert_eq!(
        stats.hits, 1,
        "second-session twin occurrence is a hit: {stats:?}"
    );
    for ((q, r), first) in queries.iter().zip(&second_batch).zip(&batch) {
        let r = r.as_ref().expect("valid query");
        assert_matches_oracle(&nest, q, r);
        assert_eq!(Ok(r), first.as_ref(), "second == first session bitwise");
    }
}

#[test]
fn batch_twins_answer_from_their_own_computation() {
    // A canonical twin is answered from the surface its batch computed. The
    // budget here holds one surface, so installing T evicts S before the
    // twin of S is answered: the twin must neither recompute S nor re-insert
    // it over T. A second session fed the same batch must agree.
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

    let engine = Engine::with_config(config);
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

    let second = Engine::with_config(config);
    let second_answers = second.analyze_batch(&nest, &queries);
    assert_eq!(second_answers, answers, "second == first session bitwise");
    assert_eq!(
        second.cache_metrics().surfaces.evictions,
        surfaces.evictions,
        "both sessions evict alike"
    );
    assert_eq!(second.analyze(&nest, &t).expect("valid query"), again);
    assert_eq!(second.stats(), engine.stats(), "both sessions count alike");
}

#[test]
fn exponent_surface_read_back_survives_concurrent_eviction() {
    // The surfaces budget holds one surface, and a second thread installs
    // filler surfaces nonstop, so a surface `exponent_surface` resolved can
    // be evicted before it is read back. Every call must still return the
    // free function's surface, bitwise, and never an internal error.
    let nest = builders::matmul(64, 64, 64);
    let m = 1u64 << 9;
    let requests = [
        (vec![0usize, 2], vec![1u64, 1], vec![4u64, 3]),
        (vec![2, 0], vec![1, 1], vec![3, 4]),
    ];
    let oracles: Vec<_> = requests
        .iter()
        .map(|(axes, lo, hi)| {
            parametric::exponent_surface(&nest, m, axes, lo, hi).expect("oracle surface solves")
        })
        .collect();
    let fillers: Vec<Query> = (2..6)
        .map(|h| Query::Surface {
            cache_size: m,
            axes: vec![0, 1],
            lo_bounds: vec![1, 1],
            hi_bounds: vec![h, 4],
        })
        .collect();
    let engine = Engine::with_config(EngineConfig {
        surfaces_capacity: 1000,
        ..EngineConfig::default()
    });
    let stop = std::sync::atomic::AtomicBool::new(false);
    // The reads start once the fillers have made one pass (and so evicted),
    // rather than whenever the scheduler first runs the filler thread: the
    // filler thread drops `filled` after its first pass, or as it unwinds.
    let (filled, first_pass) = std::sync::mpsc::channel::<()>();
    let answers = std::thread::scope(|scope| {
        let (engine, nest, fillers, stop) = (&engine, &nest, &fillers, &stop);
        scope.spawn(move || {
            let mut filled = Some(filled);
            while filled.is_some() || !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for filler in fillers {
                    engine.analyze(nest, filler).expect("valid filler");
                }
                drop(filled.take());
            }
        });
        let _ = first_pass.recv();
        let answers: Vec<_> = (0..40)
            .flat_map(|_| {
                requests
                    .iter()
                    .map(|(axes, lo, hi)| engine.exponent_surface(nest, m, axes, lo, hi))
                    .collect::<Vec<_>>()
            })
            .collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        answers
    });
    for (i, answer) in answers.iter().enumerate() {
        let oracle = &oracles[i % requests.len()];
        assert_eq!(answer.as_ref(), Ok(oracle), "call {i}");
    }
    let surfaces = engine.cache_metrics().surfaces;
    assert!(
        surfaces.evictions > 0,
        "the fillers must evict: {surfaces:?}"
    );
}

/// What a trace records per event that the lab's replay charges: kind, `M`,
/// outcome and installed costs.
fn charged_events(front: &Engine) -> Vec<(u8, u64, u8, Vec<u64>)> {
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

    let batched = Engine::new();
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
    let single = Engine::new();
    for (q, r) in queries.iter().zip(&answers) {
        assert_eq!(
            &ask(&single, &nest, q),
            r,
            "one per batch == batched bitwise"
        );
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
        resident_result_kinds(&batched),
        ["bound", "tiling", "enumerated"]
    );
    assert_eq!(
        resident_result_kinds(&single),
        ["tiling", "bound", "enumerated"]
    );

    let mut shared = Engine::new();
    shared.set_trace_capacity(64);
    let shared_answers: Vec<AnalysisResult> = shared
        .analyze_batch(&nest, &queries)
        .into_iter()
        .map(|r| r.expect("valid query"))
        .collect();
    assert_eq!(shared_answers, answers, "traced == untraced bitwise");
    let stats = shared.stats();
    assert_eq!((stats.misses, stats.hits), (4, 0), "{stats:?}");
    let mut one_per_batch = Engine::new();
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

    let engine = Engine::new();
    let mut shared = Engine::new();
    shared.set_trace_capacity(16);
    for q in &components {
        ask(&engine, &nest, q);
        ask(&shared, &nest, q);
    }
    let (before, shared_before) = (engine.cache_metrics(), shared.cache_metrics());
    assert_eq!(ask(&engine, &nest, &tightness), oracle);
    assert_eq!(ask(&shared, &nest, &tightness), oracle);
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
    let engine = Engine::new();
    let shared = Engine::new();
    ask(&engine, &nest, &queries[1]);
    shared.analyze(&nest, &queries[1]).expect("valid query");

    let answers = engine.analyze_batch(&nest, &queries);
    for (q, r) in queries.iter().zip(&answers) {
        assert_matches_oracle(&nest, q, r.as_ref().expect("valid query"));
    }
    let stats = engine.stats();
    assert_eq!((stats.misses, stats.hits), (2, 2), "{stats:?}");
    assert_eq!(shared.analyze_batch(&nest, &queries), answers);
    assert_eq!(shared.stats(), engine.stats(), "both sessions count alike");
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

    let engine = Engine::new();
    let answers: Vec<AnalysisResult> = engine
        .analyze_batch(&nest, &queries)
        .into_iter()
        .map(|r| r.expect("valid query"))
        .collect();
    let stats = engine.stats();
    assert_eq!((stats.misses, stats.hits), (20, 0), "{stats:?}");
    let second = Engine::new();
    let second_answers = second.analyze_batch(&nest, &queries);
    assert_eq!(second.stats(), engine.stats(), "both sessions count alike");

    let single = Engine::new();
    for ((q, r), again) in queries.iter().zip(&answers).zip(&second_answers) {
        assert_matches_oracle(&nest, q, r);
        assert_eq!(again.as_ref(), Ok(r), "second == first session bitwise");
        assert_eq!(&ask(&single, &nest, q), r, "batched == one per batch");
    }
}

/// The nest, cache size and tightness report of the evicted-tightness tests,
/// with a results budget sized to exactly the three components a tightness
/// query installs for that nest.
fn tightness_eviction_setup() -> (LoopNest, u64, AnalysisResult, EngineConfig) {
    let (seed, m) = (0u64, 1u64 << 8);
    let nest = builders::random_projective(seed, 5, 4, (1, 512));
    let oracle = AnalysisResult::Tightness(tightness::check_tightness(&nest, m));
    let sizing = Engine::new();
    sizing
        .analyze(&nest, &Query::Tightness { cache_size: m })
        .unwrap();
    let config = EngineConfig {
        results_capacity: sizing.cache_metrics().results.cost,
        ..EngineConfig::default()
    };
    (nest, m, oracle, config)
}

/// One query through `engine`, which must accept it.
fn ask(engine: &Engine, nest: &LoopNest, query: &Query) -> AnalysisResult {
    engine.analyze(nest, query).expect("valid query")
}

/// The kinds of an engine's resident results, least recently used first
/// (the order snapshots persist them in).
fn resident_result_kinds(engine: &Engine) -> Vec<String> {
    use serde::Value;
    let snapshot = json::parse(&engine.snapshot_json()).expect("a snapshot is JSON");
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

/// Drives one engine through a tightness miss (which installs its three
/// components and no report), a repeat composed from them, and filler
/// traffic that evicts exactly one component, the least recently used
/// tiling.
fn evict_one_tightness_component(
    engine: &Engine,
    nest: &LoopNest,
    m: u64,
    oracle: &AnalysisResult,
) {
    let q = Query::Tightness { cache_size: m };
    let evictions = || engine.cache_metrics().results.evictions;
    assert_eq!(&ask(engine, nest, &q), oracle);
    assert_eq!(evictions(), 0, "the budget holds the three components");
    assert_eq!(
        resident_result_kinds(engine),
        ["tiling", "bound", "enumerated"],
        "a tightness miss installs its components and nothing else"
    );
    assert_eq!(&ask(engine, nest, &q), oracle);
    ask(
        engine,
        &filler_nest(),
        &Query::OptimalTiling { cache_size: m },
    );
    assert_eq!(evictions(), 1);
    assert_eq!(
        resident_result_kinds(engine),
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
    let engine = Engine::with_config(config);
    evict_one_tightness_component(&engine, &nest, m, &oracle);

    let before = engine.stats();
    assert_eq!(ask(&engine, &nest, &q), oracle);
    let after = engine.stats();
    assert_eq!(
        (after.hits, after.misses),
        (before.hits, before.misses + 1),
        "a Tightness missing a component is a miss"
    );
    assert_eq!(
        resident_result_kinds(&engine),
        ["tiling", "bound", "enumerated"]
    );
    assert_eq!(ask(&engine, &nest, &q), oracle);
    assert_eq!(engine.stats().hits, after.hits + 1, "recomposed as a hit");
}

#[test]
fn shared_tightness_recomposes_under_the_read_lock() {
    // The engine composes a resident Tightness as a read-path hit, and a
    // second session driven through the same traffic counts and evicts
    // exactly alike, including the miss after one component is evicted.
    let (nest, m, oracle, config) = tightness_eviction_setup();
    let q = Query::Tightness { cache_size: m };
    let shared = Engine::with_config(config);
    evict_one_tightness_component(&shared, &nest, m, &oracle);
    let stats = shared.stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (1, 2),
        "the repeat was composed under the read lock: {stats:?}"
    );
    assert_eq!(shared.analyze(&nest, &q).unwrap(), oracle);
    assert_eq!(shared.stats().misses, 3, "a missing component is a miss");

    let engine = Engine::with_config(config);
    evict_one_tightness_component(&engine, &nest, m, &oracle);
    assert_eq!(engine.analyze(&nest, &q).unwrap(), oracle);
    assert_eq!(shared.stats(), engine.stats(), "both sessions count alike");
    assert_eq!(
        shared.cache_metrics().results,
        engine.cache_metrics().results,
        "both sessions evict alike"
    );
}

#[test]
fn shared_engine_read_path_hits_do_not_lose_recency() {
    // Repeated concurrent hits must keep an entry alive under eviction
    // pressure: the peeked-at result survives while a never-re-read one is
    // evicted first.
    let nest_a = builders::matmul(1 << 6, 1 << 6, 1 << 6);
    let m = 1u64 << 8;
    let shared = Engine::with_config(EngineConfig {
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
    let engine = Engine::new();
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
    let engine = Engine::new();
    for m in [4u64, 16, 64] {
        for query in all_queries(&nest, m) {
            engine.analyze(&nest, &query).unwrap();
        }
    }
    let text = engine.snapshot_json();
    let small = Engine::restore_json_with_config(&text, tiny_config()).expect("snapshot restores");
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
    // restores warm, every time.
    let nest = builders::random_projective(5, 4, 3, (1, 128));
    let m = 1u64 << 6;
    let queries = all_queries(&nest, m);
    let engine = Engine::new();
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

    let restored = Engine::restore_json(&legacy).expect("legacy format restores");
    let shared = Engine::restore_json(&legacy).expect("legacy format restores");
    for (q, e) in queries.iter().zip(&expected) {
        assert_eq!(&restored.analyze(&nest, q).expect("valid query"), e);
        assert_eq!(&shared.analyze(&nest, q).expect("valid query"), e);
    }
    assert_eq!(restored.stats().misses, 0, "{:?}", restored.stats());
    assert_eq!(shared.stats().misses, 0, "{:?}", shared.stats());
}

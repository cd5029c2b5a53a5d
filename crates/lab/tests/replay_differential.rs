//! The lab's keystone differential: replaying a recorded trace through the
//! live cache type at the live budgets must reproduce the live
//! `Engine` hit/miss accounting **event for event** — under eviction
//! pressure, across every generated traffic pattern, and through the
//! awkward cases (duplicate literals, permuted-axes surface twins, invalid
//! queries, failed computations). Replays at other budgets must reproduce
//! live fronts configured with those budgets. Also pins the refusal paths:
//! traces a cold replay cannot possibly reproduce (warm fronts, overflowed
//! recorders) must be rejected, not silently mis-replayed.

use projtile_core::engine::{
    outcome, Engine, EngineConfig, Query, TraceDocument, TraceEvent, TRACE_VERSION,
};
use projtile_lab::replay::{check_live, replay_document, Budgets, ReplayError};
use projtile_lab::{GeneratorConfig, LabReport, Pattern, Workload, SWEEP_SCALES};
use projtile_loopnest::builders;
use projtile_loopnest::canon::permute_nest;

/// Budgets tiny enough that nearly every insertion evicts something, so the
/// differential exercises the eviction order, not just residency.
fn tiny_config() -> EngineConfig {
    EngineConfig {
        results_capacity: 700,
        slices_capacity: 900,
        surfaces_capacity: 2000,
    }
}

/// A cold front with a recorder attached from the start.
fn traced_front(trace_capacity: usize) -> Engine {
    let mut front = Engine::with_config(tiny_config());
    front.set_trace_capacity(trace_capacity);
    front
}

/// Drives `workload` into a cold traced front and checks the recorded
/// trace replays exactly — as drained, and after a JSON round trip.
fn assert_replays_exactly(workload: &Workload, what: &str) {
    let front = traced_front(1 << 16);
    workload.drive_shared(&front);
    let doc = front.trace_document();
    let stats = front.stats();
    assert_eq!(doc.hits, stats.hits, "{what}: trace window covers all hits");
    assert_eq!(doc.misses, stats.misses, "{what}: and all misses");

    let report = match check_live(&doc) {
        Ok(report) => report,
        Err(e) => panic!("{what}: {e}"),
    };
    assert!(report.matches_live);
    assert_eq!(report.sim_hits, stats.hits, "{what}: replayed hits");
    assert_eq!(report.sim_misses, stats.misses, "{what}: replayed misses");
    assert_eq!(report.mismatch_count, 0, "{what}: no event diverged");

    let parsed = TraceDocument::from_json(&doc.to_json()).expect("trace JSON round-trips");
    assert_eq!(parsed, doc, "{what}: serialization is lossless");
    check_live(&parsed).unwrap_or_else(|e| panic!("{what} (after round trip): {e}"));
}

#[test]
fn generated_workloads_replay_exactly() {
    for pattern in [Pattern::Zipf, Pattern::Hotspot, Pattern::Mixed] {
        for seed in [1, 5, 42] {
            let config = GeneratorConfig {
                seed,
                pattern,
                batches: 40,
                batch_size: 6,
            };
            let workload = Workload::generate(&config);
            assert_replays_exactly(
                &workload,
                &format!("pattern {} seed {seed}", pattern.name()),
            );
        }
    }
    // Longer mixed runs whose batches answer a surface twin after the
    // install pass evicted the surface both occurrences share.
    for seed in [1, 3, 15, 22] {
        let config = GeneratorConfig {
            seed,
            pattern: Pattern::Mixed,
            batches: 60,
            batch_size: 6,
        };
        let workload = Workload::generate(&config);
        assert_replays_exactly(&workload, &format!("long mixed seed {seed}"));
    }
}

/// Handcrafted batches hitting every subtle path at once: duplicate
/// literals of a pending miss, a permuted-axes surface twin answered as a
/// hit in the same batch it was computed, an invalid query rejected before
/// any cache, and tightness queries composed from component artifacts —
/// including components computed by separate queries.
#[test]
fn handcrafted_awkward_batches_replay_exactly() {
    let m = 1 << 9;
    let nest = builders::matmul(64, 64, 64);
    let surface = Query::Surface {
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
    let front = traced_front(1 << 16);
    // Batch 1: a miss, its duplicate literal, and its canonical twin.
    let answers = front.analyze_batch(&nest, &[surface.clone(), surface.clone(), twin.clone()]);
    assert!(answers.iter().all(Result::is_ok));
    // Batch 2: the twin again — now a plain hit; plus an invalid query
    // (cache budget below the minimum), rejected before any cache.
    let answers = front.analyze_batch(&nest, &[twin, Query::LowerBound { cache_size: 1 }]);
    assert!(answers[0].is_ok() && answers[1].is_err());
    // Batch 3: tightness computes and installs its three components...
    front
        .analyze_batch(&nest, &[Query::Tightness { cache_size: m }])
        .pop()
        .expect("one answer")
        .expect("tightness computes");
    // ...then its components hit, and tightness itself hits, composed
    // from them.
    let answers = front.analyze_batch(
        &nest,
        &[
            Query::LowerBound { cache_size: m },
            Query::OptimalTiling { cache_size: m },
            Query::Tightness { cache_size: m },
        ],
    );
    assert!(answers.iter().all(Result::is_ok));

    let doc = front.trace_document();
    let stats = front.stats();
    let report = check_live(&doc).unwrap_or_else(|e| panic!("awkward batches: {e}"));
    assert_eq!(report.sim_hits, stats.hits);
    assert_eq!(report.sim_misses, stats.misses);
    assert!(report.sim_duplicates > 0, "duplicate literal was recorded");
    assert_eq!(doc.queries, stats.queries, "invalid queries still counted");
    assert!(
        doc.events.len() < stats.queries as usize,
        "invalid queries never become events"
    );

    // At budgets that hold a tightness set, components computed one query
    // at a time make the tightness query after them a hit that computes
    // nothing: its probe peeks all three.
    let mut roomy = Engine::new();
    roomy.set_trace_capacity(1 << 16);
    for q in [
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
        Query::Tightness { cache_size: m },
    ] {
        roomy.analyze(&nest, &q).expect("valid query");
    }
    let stats = roomy.stats();
    assert_eq!((stats.hits, stats.misses), (1, 3), "{stats:?}");
    let report = check_live(&roomy.trace_document())
        .unwrap_or_else(|e| panic!("components then tightness: {e}"));
    assert_eq!((report.sim_hits, report.sim_misses), (1, 3));
}

/// A tightness miss can stamp some components before it finds one absent,
/// and that stamp decides the next eviction. Here the tiling is resident
/// when the tightness query misses on its bound, so the probe's peek keeps
/// the tiling warmer than the filler entry inserted after it, and the
/// install evicts the filler. A replay that peeked in another order would
/// evict the tiling and miss the last two queries; one that charged the
/// three recorded costs to the wrong entries would end with other cache
/// stats than the live front.
#[test]
fn tightness_probes_stamp_components_in_the_live_order() {
    let m = 1 << 8;
    let nest = builders::random_projective(0, 5, 4, (1, 512));
    let filler = projtile_loopnest::LoopNest::builder()
        .index("i", 2)
        .array("A", ["i"])
        .build()
        .expect("trivial filler nest is valid");
    let tiling = Query::OptimalTiling { cache_size: m };
    let tightness = Query::Tightness { cache_size: m };
    let cost_of = |nest: &projtile_loopnest::LoopNest, q: &Query| {
        let front = Engine::new();
        front.analyze(nest, q).expect("valid query");
        front.cache_metrics().results.cost
    };
    // Room for the three components and the filler, less one unit.
    let config = EngineConfig {
        results_capacity: cost_of(&nest, &tightness) + cost_of(&filler, &tiling) - 1,
        ..EngineConfig::default()
    };
    let mut front = Engine::with_config(config);
    front.set_trace_capacity(64);
    for (nest, q) in [
        (&nest, &tiling),
        (&filler, &tiling),
        (&nest, &tightness),
        (&nest, &tiling),
        (&nest, &tightness),
    ] {
        front.analyze(nest, q).expect("valid query");
    }
    let stats = front.stats();
    assert_eq!((stats.hits, stats.misses), (2, 3), "{stats:?}");
    assert_eq!(front.cache_metrics().results.evictions, 1);
    let report = check_live(&front.trace_document()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!((report.sim_hits, report.sim_misses), (2, 3));
    assert_eq!(
        report.results,
        front.cache_metrics().results,
        "same entries, costs and evictions"
    );
}

/// Slices are keyed by nest, not by declaration order: a permuted
/// re-declaration hits a slice the original computed before its own
/// orientation was ever interned, and such a batch of hits interns nothing.
#[test]
fn slice_hits_on_a_new_declaration_order_replay_exactly() {
    let m = 1 << 9;
    let nest = builders::matmul(64, 64, 16);
    let permuted = permute_nest(&nest, &[2, 0, 1], &[1, 2, 0]);
    let slice = |nest: &projtile_loopnest::LoopNest| Query::Slice {
        cache_size: m,
        axis: nest.index_position("k").expect("matmul has a k loop"),
        lo_bound: 1,
        hi_bound: 64,
    };
    let front = traced_front(1 << 16);
    front.analyze_batch(&nest, &[slice(&nest)]);
    front.analyze_batch(&permuted, &[slice(&permuted)]);
    assert_eq!(front.stats().hits, 1, "the permuted slice hits");
    front.analyze_batch(
        &permuted,
        &[Query::LowerBound { cache_size: m }, slice(&permuted)],
    );
    let stats = front.stats();
    assert_eq!((stats.hits, stats.misses), (2, 2), "{stats:?}");
    let report = check_live(&front.trace_document()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!((report.sim_hits, report.sim_misses), (2, 2));
}

/// Failed computations can't be provoked through the public API (validation
/// catches everything expressible), so their replay semantics are pinned
/// against a synthetic document: a failure is a miss that installs nothing
/// (its batch still interns the orientation).
#[test]
fn failed_computations_replay_as_non_installing_misses() {
    let fam = 0xFEED_u64;
    let ev = |ordinal: u64, batch: u64, kind: u8, oc: u8, costs: Vec<u64>| TraceEvent {
        ordinal,
        batch,
        sig: 7,
        orient: 21,
        kind,
        m: 1 << 10,
        lhash: 1000 + ordinal,
        fam,
        outcome: oc,
        costs,
    };
    let doc = TraceDocument {
        version: TRACE_VERSION,
        config: EngineConfig::default(),
        queries: 5,
        hits: 1,
        misses: 4,
        dropped: 0,
        warm_entries: 0,
        events: vec![
            // A single-query failure: miss, interned, nothing installed —
            // so the next batch still misses.
            ev(0, 0, 0, outcome::FAILED, vec![]),
            // The real computation: a miss that installs.
            ev(1, 1, 0, outcome::MISS, vec![200]),
            // Now resident: a hit.
            ev(2, 2, 0, outcome::HIT, vec![]),
            // A batch-member failure on another kind: miss, no install...
            ev(3, 3, 1, outcome::FAILED, vec![]),
            // ...so the retry misses again rather than hitting.
            ev(4, 4, 1, outcome::MISS, vec![150]),
        ],
    };
    let report = check_live(&doc).expect("synthetic failure trace replays exactly");
    assert_eq!((report.sim_hits, report.sim_misses), (1, 4));
}

#[test]
fn eviction_pressure_stays_exact() {
    // Two seeds of sustained mixed traffic against the tiny budgets: the
    // differential only stays exact if the replayed eviction order matches
    // the live `BoundedLru` decision for every install.
    for seed in [9, 77] {
        let workload = Workload::generate(&GeneratorConfig {
            seed,
            pattern: Pattern::Mixed,
            batches: 120,
            batch_size: 5,
        });
        let front = traced_front(1 << 16);
        workload.drive_shared(&front);
        let doc = front.trace_document();
        let report = check_live(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            report.evictions() > 0,
            "seed {seed}: tiny budgets must evict for this test to mean anything"
        );
    }
}

#[test]
fn warm_front_traces_are_refused() {
    let workload = Workload::generate(&GeneratorConfig {
        seed: 3,
        pattern: Pattern::Zipf,
        batches: 10,
        batch_size: 4,
    });
    let mut front = traced_front(1 << 16);
    workload.drive_shared(&front);
    // Re-attaching the recorder now observes a warm front.
    front.set_trace_capacity(1 << 16);
    workload.drive_shared(&front);
    let doc = front.trace_document();
    assert!(doc.warm_entries > 0);
    match check_live(&doc) {
        Err(ReplayError::WarmTrace(n)) => assert_eq!(n, doc.warm_entries),
        other => panic!("expected a warm-trace refusal, got {other:?}"),
    }
}

#[test]
fn overflowed_recorders_are_refused() {
    let workload = Workload::generate(&GeneratorConfig {
        seed: 4,
        pattern: Pattern::Zipf,
        batches: 20,
        batch_size: 4,
    });
    let front = traced_front(4);
    workload.drive_shared(&front);
    let doc = front.trace_document();
    assert!(doc.dropped > 0);
    match check_live(&doc) {
        Err(ReplayError::DroppedEvents(n)) => assert_eq!(n, doc.dropped),
        other => panic!("expected a dropped-events refusal, got {other:?}"),
    }
}

/// A replay at scaled budgets must reproduce a live front configured with
/// those budgets: the same hits and misses, every event classified, every
/// install priced from the recording's cost book. A larger budget never
/// loses hits.
#[test]
fn counterfactual_policies_are_consistent() {
    let workload = Workload::generate(&GeneratorConfig {
        seed: 42,
        pattern: Pattern::Mixed,
        batches: 60,
        batch_size: 6,
    });
    let front = traced_front(1 << 16);
    workload.drive_shared(&front);
    let doc = front.trace_document();
    let budgets = Budgets::from_document(&doc);
    let full = check_live(&doc).unwrap_or_else(|e| panic!("recorded budgets: {e}"));
    assert!(full.matches_live, "recorded budget reproduces live");

    let mut sweep_hits = Vec::new();
    for (num, den) in SWEEP_SCALES {
        let scaled = budgets.scaled(num, den);
        let report = replay_document(&doc, scaled);
        let what = format!("scale {num}/{den}");
        assert_eq!(
            report.sim_hits + report.sim_misses + report.sim_duplicates,
            doc.events.len() as u64,
            "{what}: every event classified"
        );
        assert_eq!(report.unpriced_installs, 0, "{what}: cost book is complete");

        let live = Engine::with_config(EngineConfig {
            results_capacity: scaled.results,
            slices_capacity: scaled.slices,
            surfaces_capacity: scaled.surfaces,
        });
        workload.drive_shared(&live);
        let stats = live.stats();
        assert_eq!(
            (report.sim_hits, report.sim_misses),
            (stats.hits, stats.misses),
            "{what}: replay reproduces a live front at these budgets"
        );
        sweep_hits.push(((num, den), report.sim_hits));
    }
    let hits_at = |scale: (u64, u64)| {
        sweep_hits
            .iter()
            .find(|(s, _)| *s == scale)
            .map(|&(_, hits)| hits)
            .expect("scale is in SWEEP_SCALES")
    };
    assert!(
        hits_at((1, 4)) <= hits_at((1, 1)),
        "smaller budget, fewer hits: {sweep_hits:?}"
    );
    assert!(
        hits_at((1, 1)) <= hits_at((4, 1)),
        "larger budget, more hits: {sweep_hits:?}"
    );
    assert_eq!(hits_at((1, 1)), full.sim_hits, "1/1 is the recorded budget");

    // The study over this trace names a budget.
    let study = LabReport::build(&doc);
    assert_eq!(study.sweep.len(), SWEEP_SCALES.len());
    let rendered = projtile_lab::render_report(&study);
    assert!(rendered.contains("budget sweep"));
    assert!(rendered.contains("recommend"));
}

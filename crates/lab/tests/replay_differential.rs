//! The lab's keystone differential: replaying a recorded trace through the
//! live cache type at the live budgets must reproduce the live
//! `SharedEngine` hit/miss accounting **event for event** — under eviction
//! pressure, across every generated traffic pattern, and through the
//! awkward cases (duplicate literals, permuted-axes surface twins, invalid
//! queries, failed computations). Replays at other budgets must reproduce
//! live fronts configured with those budgets. Also pins the refusal paths:
//! traces a cold replay cannot possibly reproduce (warm fronts, overflowed
//! recorders) must be rejected, not silently mis-replayed.

use projtile_core::engine::{
    outcome, EngineConfig, Query, SharedEngine, TraceDocument, TraceEvent, TRACE_VERSION,
};
use projtile_lab::replay::{check_live, replay_document, Budgets, ReplayError};
use projtile_lab::{GeneratorConfig, LabReport, Pattern, Workload, SWEEP_SCALES};
use projtile_loopnest::builders;

/// Budgets tiny enough that nearly every insertion evicts something, so the
/// differential exercises the eviction order, not just residency.
fn tiny_config() -> EngineConfig {
    EngineConfig {
        results_capacity: 700,
        betas_capacity: 200,
        slices_capacity: 900,
        surfaces_capacity: 2000,
    }
}

/// A cold 4-shard front with a recorder attached from the start.
fn traced_front(trace_capacity: usize) -> SharedEngine {
    let mut front = SharedEngine::with_config(tiny_config(), 4);
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
/// any cache, and a tightness query recomposed from component artifacts.
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
    // Batch 3: tightness computes all five artifacts...
    front
        .analyze_batch(&nest, &[Query::Tightness { cache_size: m }])
        .pop()
        .expect("one answer")
        .expect("tightness computes");
    // ...then its components hit, and tightness itself hits via its report.
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
}

/// Failed computations can't be provoked through the public API (validation
/// catches everything expressible), so their replay semantics are pinned
/// against a synthetic document: a failure is a miss that installs nothing,
/// and a single-query failure doesn't even intern the orientation.
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
        num_shards: 1,
        shard_config: EngineConfig::default(),
        queries: 5,
        hits: 1,
        misses: 4,
        dropped: 0,
        warm_entries: 0,
        events: vec![
            // A single-query failure: miss, no install, no intern — so the
            // next batch still starts from a never-seen orientation.
            ev(0, 0, 0, outcome::FAILED_NO_INTERN, vec![]),
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
    let shards = doc.num_shards as u64;
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

        // The front divides its budgets across shards, so whole-front
        // budgets of `shards` times the scaled per-shard ones reproduce them.
        let live = SharedEngine::with_config(
            EngineConfig {
                results_capacity: scaled.results * shards,
                slices_capacity: scaled.slices * shards,
                surfaces_capacity: scaled.surfaces * shards,
                ..tiny_config()
            },
            shards as usize,
        );
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

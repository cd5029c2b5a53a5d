//! Hostile-snapshot regression tests: every payload-validation site added
//! to `Engine::restore` must reject a corrupted document with
//! [`EngineError::Snapshot`] instead of admitting a value that panics the
//! first time a worker consumes it. Each test takes a *genuine* snapshot of
//! a warmed engine, applies one surgical mutation, and asserts restore
//! errors (the process never aborts — these run in-process, so a panic
//! fails the test loudly). Hostile payloads under the legacy result kinds
//! restore must skip unparsed are the one exception: those documents
//! restore, and must answer as if the entries were absent.

use projtile_core::engine::{AnalysisResult, Engine, EngineError, Query};
use projtile_core::tightness::check_tightness;
use projtile_loopnest::builders;
use serde::{json, Serialize, Value};

const M: u64 = 1 << 8;

/// The queries a warmed engine has answered (its probe slice aside).
fn warming_queries() -> Vec<Query> {
    vec![
        Query::Tightness { cache_size: M },
        Query::Slice {
            cache_size: M,
            axis: 2,
            lo_bound: 1,
            hi_bound: 64,
        },
        Query::Surface {
            cache_size: M,
            axes: vec![2],
            lo_bounds: vec![1],
            hi_bounds: vec![64],
        },
    ]
}

/// A warmed engine whose snapshot contains every artifact class: all three
/// result kinds (a tightness query installs them), a span slice, a probe
/// slice, and a surface.
fn warmed_engine() -> Engine {
    let nest = builders::matmul(64, 64, 64);
    let engine = Engine::new();
    for q in warming_queries() {
        engine.analyze(&nest, &q).expect("query warms");
    }
    engine
        .exponent_at_bound(&nest, M, 2, 32)
        .expect("probe slice warms");
    engine
}

/// The warmed engine's snapshot, parsed into a tree to be tampered with.
fn warmed_snapshot() -> Value {
    json::parse(&warmed_engine().snapshot_json()).expect("a snapshot is JSON")
}

fn obj_mut<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
    match v {
        Value::Object(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field `{name}`")),
        other => panic!("expected an object, found {}", other.kind()),
    }
}

fn arr_mut(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, found {}", other.kind()),
    }
}

/// The first element of the snapshot's `list` whose `kind` field equals
/// `kind` (slices and results are keyed lists of tagged objects).
fn find_kind<'a>(list: &'a mut [Value], kind: &str) -> &'a mut Value {
    list.iter_mut()
        .find(|v| matches!(v.field("kind"), Ok(Value::String(k)) if k.as_str() == kind))
        .unwrap_or_else(|| panic!("no `{kind}` artifact in snapshot"))
}

/// Applies `mutate` to a fresh genuine snapshot and asserts restore rejects
/// the result with a `Snapshot` error mentioning `expect_msg`.
fn assert_rejected(mutate: impl FnOnce(&mut Value), expect_msg: &str) {
    let mut snapshot = warmed_snapshot();
    mutate(&mut snapshot);
    match Engine::restore(&snapshot) {
        Err(EngineError::Snapshot(msg)) => assert!(
            msg.contains(expect_msg),
            "expected error mentioning {expect_msg:?}, got {msg:?}"
        ),
        Err(other) => panic!("expected a Snapshot error, got {other}"),
        Ok(_) => panic!("hostile snapshot restored (wanted error about {expect_msg:?})"),
    }
}

/// Prefix-truncation fuzz over the real snapshot corpus: a torn snapshot
/// file is some byte prefix of a valid document, and the restore path must
/// reject every such prefix with an error — never a panic, never a
/// partially-restored engine presented as whole.
#[test]
fn truncated_snapshot_prefixes_never_restore_partially() {
    let text = warmed_engine().snapshot_json();
    assert!(
        Engine::restore_json(&text).is_ok(),
        "full document restores"
    );
    // Step through prefixes densely near token boundaries but coarsely in
    // long runs (the document is tens of KiB; every boundary is still hit
    // across the corpus of stride offsets).
    let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
    for (step, &end) in boundaries.iter().enumerate() {
        if end > 256 && step % 7 != 0 {
            continue;
        }
        let prefix = &text[..end];
        let restored = Engine::restore_json(prefix);
        assert!(
            restored.is_err(),
            "proper prefix of {end} bytes must not restore"
        );
    }
}

#[test]
fn genuine_snapshot_restores() {
    let snapshot = warmed_snapshot();
    Engine::restore(&snapshot).expect("unmutated snapshot restores");
}

#[test]
fn rejects_undersized_cache_size() {
    assert_rejected(
        |s| *obj_mut(&mut arr_mut(obj_mut(s, "results"))[0], "m") = Value::Int(1),
        "must be at least 2 words",
    );
}

#[test]
fn rejects_truncated_s_hat() {
    assert_rejected(
        |s| {
            let bound = find_kind(arr_mut(obj_mut(s, "results")), "bound");
            arr_mut(obj_mut(obj_mut(bound, "value"), "s_hat")).pop();
        },
        "lower-bound certificate vectors",
    );
}

#[test]
fn rejects_out_of_range_witness_subset() {
    assert_rejected(
        |s| {
            let bound = find_kind(arr_mut(obj_mut(s, "results")), "bound");
            // Bit 40 names a loop a 3-deep nest does not have; the genuine
            // consumer would index β[40] and abort the worker.
            *obj_mut(obj_mut(bound, "value"), "witness_subset") = Value::Int(1 << 40);
        },
        "witness subset references loops",
    );
}

#[test]
fn rejects_out_of_range_enumerated_subset() {
    assert_rejected(
        |s| {
            let en = find_kind(arr_mut(obj_mut(s, "results")), "enumerated");
            *obj_mut(obj_mut(en, "value"), "best_subset") = Value::Int(1 << 40);
        },
        "enumerated-bound subsets",
    );
}

#[test]
fn rejects_truncated_tiling_lambda() {
    assert_rejected(
        |s| {
            let t = find_kind(arr_mut(obj_mut(s, "results")), "tiling");
            arr_mut(obj_mut(obj_mut(t, "value"), "lambda")).pop();
        },
        "tiling summary dimensions",
    );
}

/// A result entry of the given legacy kind, keyed like the snapshot's
/// first result.
fn legacy_result(first: &Value, kind: &str, value: Value) -> Value {
    let mut entry = first.clone();
    *obj_mut(&mut entry, "kind") = Value::String(kind.to_string());
    *obj_mut(&mut entry, "value") = value;
    entry
}

/// Documents written before tightness reports were composed hold
/// `tightness` and `certificate` result entries beside the components,
/// report first and certificate bit last. Both fronts restore such a
/// document warm, skip those entries unparsed (here a report with an
/// out-of-range witness and a false `tight`, and a bit that is not a bool),
/// and answer every persisted query bitwise and as a hit, never from the
/// legacy payload.
#[test]
fn legacy_tightness_and_certificate_entries_restore_warm() {
    let nest = builders::matmul(64, 64, 64);
    let queries = {
        let mut q = warming_queries();
        q.push(Query::LowerBound { cache_size: M });
        q.push(Query::EnumeratedBound { cache_size: M });
        q.push(Query::OptimalTiling { cache_size: M });
        q
    };
    let expected = Engine::new().analyze_batch(&nest, &queries);
    let oracle = check_tightness(&nest, M);
    assert!(oracle.tight);
    assert_eq!(expected[0], Ok(AnalysisResult::Tightness(oracle.clone())));

    let mut snapshot = warmed_snapshot();
    let results = arr_mut(obj_mut(&mut snapshot, "results"));
    let mut report = oracle.serialize();
    *obj_mut(&mut report, "witness_subset") = Value::Int(1 << 40);
    *obj_mut(&mut report, "tight") = Value::Bool(false);
    let tightness = legacy_result(&results[0], "tightness", report);
    let certificate = legacy_result(&results[0], "certificate", Value::String("yes".into()));
    results.insert(0, tightness);
    results.push(certificate);

    let engine = Engine::restore(&snapshot).expect("legacy snapshot restores");
    assert_eq!(engine.analyze_batch(&nest, &queries), expected);
    let again = Engine::restore(&snapshot).expect("legacy snapshot restores");
    assert_eq!(again.analyze_batch(&nest, &queries), expected);
    for stats in [engine.stats(), again.stats()] {
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert_eq!(stats.hits, queries.len() as u64, "{stats:?}");
    }
    assert_eq!(
        engine.cache_metrics().results.entries,
        3,
        "legacy entries skipped"
    );
}

#[test]
fn rejects_unsorted_slice_breakpoints() {
    assert_rejected(
        |s| {
            let span = find_kind(arr_mut(obj_mut(s, "slices")), "span");
            let bps = arr_mut(obj_mut(obj_mut(span, "value"), "breakpoints"));
            assert!(bps.len() >= 2, "span slice has multiple breakpoints");
            bps.reverse();
        },
        "breakpoints are not sorted",
    );
}

#[test]
fn rejects_zero_span_lo_bound() {
    assert_rejected(
        |s| {
            let span = find_kind(arr_mut(obj_mut(s, "slices")), "span");
            *obj_mut(span, "lo") = Value::Int(0);
        },
        "slice bound range is invalid",
    );
}

#[test]
fn rejects_zero_probe_bound() {
    assert_rejected(
        |s| {
            let probe = find_kind(arr_mut(obj_mut(s, "slices")), "probe");
            *obj_mut(probe, "hi") = Value::Int(0);
        },
        "probe bound must be at least 1",
    );
}

#[test]
fn rejects_undercovered_probe() {
    assert_rejected(
        |s| {
            // Claim coverage far past what the value function spans: the
            // engine would treat any bound up to 2^60 as covered and panic
            // inside `value_at`.
            let probe = find_kind(arr_mut(obj_mut(s, "slices")), "probe");
            *obj_mut(probe, "hi") = Value::Int(1 << 60);
        },
        "does not cover its declared bound range",
    );
}

#[test]
fn rejects_truncated_surface_gradient() {
    assert_rejected(
        |s| {
            let surf = &mut arr_mut(obj_mut(s, "surfaces"))[0];
            let regions = arr_mut(obj_mut(
                obj_mut(obj_mut(surf, "surface"), "surface"),
                "regions",
            ));
            arr_mut(obj_mut(obj_mut(&mut regions[0], "piece"), "gradient")).pop();
        },
        "gradient",
    );
}

#[test]
fn rejects_mismatched_surface_axis_names() {
    assert_rejected(
        |s| {
            let surf = &mut arr_mut(obj_mut(s, "surfaces"))[0];
            arr_mut(obj_mut(obj_mut(surf, "surface"), "axis_names")).pop();
        },
        "axis names",
    );
}

//! Hostile-trace regression tests: `TraceDocument::from_json` parses files
//! written by `projtile-lab drain`, so — exactly like the snapshot restore
//! path (`snapshot_hostile.rs`) — every validation site must reject
//! truncated, torn, corrupted or version-skewed input with a typed
//! [`TraceError`] instead of panicking or admitting a document that lies to
//! the replay. Plus a property: the flat-vector event serialization
//! round-trips losslessly for arbitrary well-formed documents.

use projtile_core::engine::{
    outcome, EngineConfig, TraceDocument, TraceError, TraceEvent, TRACE_VERSION,
};
use proptest::prelude::*;
use serde::{json, Value};

/// A genuine document exercising every field: several batches, all outcome
/// codes, empty and three-entry cost vectors.
fn genuine_document() -> TraceDocument {
    let ev = |ordinal: u64, kind: u8, oc: u8, costs: Vec<u64>| TraceEvent {
        ordinal,
        batch: ordinal / 2,
        sig: 0x1111 * (ordinal + 1),
        orient: 0x2222 * (ordinal + 1),
        kind,
        m: 1 << (8 + ordinal % 4),
        lhash: 0x3333 * (ordinal + 1),
        fam: 0x4444 * (ordinal + 1),
        outcome: oc,
        costs,
    };
    TraceDocument {
        version: TRACE_VERSION,
        config: EngineConfig {
            results_capacity: 175,
            slices_capacity: 225,
            surfaces_capacity: 500,
        },
        queries: 9,
        hits: 2,
        misses: 5,
        dropped: 0,
        warm_entries: 0,
        events: vec![
            ev(0, 0, outcome::MISS, vec![144]),
            ev(1, 3, outcome::MISS, vec![500, 144, 160]),
            ev(2, 4, outcome::HIT, vec![]),
            ev(3, 4, outcome::DUPLICATE, vec![]),
            ev(4, 1, outcome::FAILED, vec![]),
            ev(5, 5, outcome::FAILED, vec![]),
        ],
    }
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

/// Applies `mutate` to a genuine serialized document and asserts the parser
/// rejects the result with a `Malformed` error mentioning `expect_msg`.
fn assert_rejected(mutate: impl FnOnce(&mut Value), expect_msg: &str) {
    let mut value = genuine_document().to_value();
    mutate(&mut value);
    match TraceDocument::from_json(&json::to_string(&value)) {
        Err(TraceError::Malformed(msg)) => assert!(
            msg.contains(expect_msg),
            "expected error mentioning {expect_msg:?}, got {msg:?}"
        ),
        Err(other) => panic!("expected a Malformed error, got {other}"),
        Ok(_) => panic!("hostile trace parsed (wanted error about {expect_msg:?})"),
    }
}

#[test]
fn genuine_document_round_trips() {
    let doc = genuine_document();
    let parsed = TraceDocument::from_json(&doc.to_json()).expect("genuine trace parses");
    assert_eq!(parsed, doc);
}

/// A torn drain (disk full, killed mid-write) leaves a byte prefix of a
/// valid document; every proper prefix must fail with an error, never a
/// panic, never a silently shorter trace.
#[test]
fn truncated_trace_prefixes_never_parse() {
    let text = genuine_document().to_json();
    for end in 0..text.len() {
        if !text.is_char_boundary(end) {
            continue;
        }
        assert!(
            TraceDocument::from_json(&text[..end]).is_err(),
            "proper prefix of {end} bytes must not parse"
        );
    }
}

#[test]
fn binary_garbage_is_rejected_not_panicked() {
    // A deterministic splatter of non-JSON bytes and JSON-ish near misses.
    let mut state = 0xDEADBEEFu64;
    let mut garbage = String::new();
    for _ in 0..4096 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        garbage.push(char::from((state >> 33) as u8 % 94 + 32));
    }
    for text in [
        garbage.as_str(),
        "",
        "null",
        "[]",
        "{}",
        "{\"version\":1}",
        "{\"version\":\"1\"}",
    ] {
        assert!(TraceDocument::from_json(text).is_err());
    }
}

#[test]
fn version_skew_is_a_typed_error() {
    let mut value = genuine_document().to_value();
    *obj_mut(&mut value, "version") = Value::Int(99);
    match TraceDocument::from_json(&json::to_string(&value)) {
        Err(TraceError::Version(found)) => assert_eq!(found, 99),
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn rejects_torn_event_header() {
    assert_rejected(
        |v| {
            let flat = arr_mut(obj_mut(v, "events"));
            flat.truncate(3);
        },
        "torn event header",
    );
    // The second event (a tightness miss) carries 3 costs at offsets
    // 21..24: cutting inside them tears the cost vector specifically.
    assert_rejected(
        |v| {
            let flat = arr_mut(obj_mut(v, "events"));
            flat.truncate(23);
        },
        "torn cost vector",
    );
}

#[test]
fn rejects_negative_event_fields() {
    assert_rejected(
        |v| arr_mut(obj_mut(v, "events"))[2] = Value::Int(-1),
        "must be unsigned",
    );
}

#[test]
fn rejects_type_confused_event_fields() {
    assert_rejected(
        |v| arr_mut(obj_mut(v, "events"))[0] = Value::String("0".to_string()),
        "found a string",
    );
}

#[test]
fn rejects_out_of_range_kind_and_outcome() {
    // Field 4 of the first event is its kind; field 8 its outcome.
    assert_rejected(
        |v| arr_mut(obj_mut(v, "events"))[4] = Value::Int(6),
        "kind 6 out of range",
    );
    // 4 was the retired single-query failure outcome.
    assert_rejected(
        |v| arr_mut(obj_mut(v, "events"))[8] = Value::Int(4),
        "outcome 4 out of range",
    );
}

#[test]
fn rejects_implausible_cost_count() {
    // Field 9 of the first event claims its cost count: an absurd claim
    // must be rejected outright, not chased through the flat vector.
    assert_rejected(
        |v| arr_mut(obj_mut(v, "events"))[9] = Value::Int(1 << 40),
        "implausible cost count",
    );
}

#[test]
fn rejects_mistyped_top_level_fields() {
    assert_rejected(
        |v| *obj_mut(&mut *v, "hits") = Value::Bool(true),
        "must be an unsigned integer",
    );
    assert_rejected(
        |v| *obj_mut(&mut *v, "events") = Value::Int(0),
        "expected an array of event integers",
    );
    assert_rejected(
        |v| *obj_mut(obj_mut(&mut *v, "config"), "results_capacity") = Value::Null,
        "must be an unsigned integer",
    );
}

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (
        any::<u64>(),
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        0u8..6,
        0u8..4,
        proptest::collection::vec(any::<u64>(), 0..=8),
    )
        .prop_map(
            |(ordinal, batch, (sig, orient, m, lhash), kind, oc, costs)| TraceEvent {
                ordinal,
                batch,
                sig,
                orient,
                kind,
                m,
                lhash,
                fam: sig ^ m,
                outcome: oc,
                costs,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat-vector event packing is lossless for arbitrary well-formed
    /// documents — every header field, every cost vector length 0..=8,
    /// every outcome code.
    #[test]
    fn flat_format_round_trips(
        events in proptest::collection::vec(event_strategy(), 0..40),
        counters in proptest::collection::vec(any::<u64>(), 5),
        caps in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let doc = TraceDocument {
            version: TRACE_VERSION,
            config: EngineConfig {
                results_capacity: caps[0],
                slices_capacity: caps[1],
                surfaces_capacity: caps[2],
            },
            queries: counters[0],
            hits: counters[1],
            misses: counters[2],
            dropped: counters[3],
            warm_entries: counters[4],
            events,
        };
        let parsed = TraceDocument::from_json(&doc.to_json());
        prop_assert_eq!(parsed.as_ref(), Ok(&doc));
    }
}

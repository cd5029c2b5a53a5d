//! Wire-format pins for the JSON writer and the streaming and hand-written
//! decoders. `write_json` is each type's only encoder, so literals pin its
//! bytes: a nest, every query kind, one answer of every kind and the
//! snapshot of an engine holding every artifact kind, each captured from
//! the tree-printing encoders the writer replaced, must be written byte for
//! byte and must decode back. Written text must also be canonical (its
//! parsed tree prints the same bytes); reading a value straight from the
//! text (`json::from_str`, `read_json`) must give the tree decode's value;
//! and the hand-written `Deserialize` of `EnumeratedBound` must accept and
//! reject what the derive did, with its error text.

use projtile_arith::Rational;
use projtile_core::bounds::{self, EnumeratedBound};
use projtile_core::engine::{AnalysisResult, Engine, Query};
use projtile_loopnest::{builders, IndexSet, LoopNest};
use proptest::prelude::*;
use serde::{json, Deserialize, Serialize};

/// `EnumeratedBound` with both impls derived, as before its `Deserialize`
/// was written by hand: the oracle for the document and the error texts.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct DerivedBound {
    exponent: Rational,
    best_subset: IndexSet,
    per_subset: Vec<(IndexSet, Rational)>,
}

impl From<&EnumeratedBound> for DerivedBound {
    fn from(b: &EnumeratedBound) -> DerivedBound {
        DerivedBound {
            exponent: b.exponent.clone(),
            best_subset: b.best_subset,
            per_subset: b.per_subset.clone(),
        }
    }
}

/// `x`'s written text is canonical: its parsed tree prints the same bytes.
fn assert_same_bytes<T: Serialize>(x: &T, what: &str) {
    let text = json::to_string(x);
    let tree = json::parse(&text).unwrap_or_else(|e| panic!("{what}: {e} in {text}"));
    assert_eq!(json::to_string(&tree), text, "{what}: not canonical");
}

/// Every query kind on `nest` at cache size `m`.
fn all_queries(nest: &LoopNest, m: u64) -> Vec<Query> {
    let last = nest.num_loops() - 1;
    vec![
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
        Query::Tightness { cache_size: m },
        Query::Slice {
            cache_size: m,
            axis: last,
            lo_bound: 1,
            hi_bound: m,
        },
        Query::Surface {
            cache_size: m,
            axes: vec![0, last],
            lo_bounds: vec![1, 1],
            hi_bounds: vec![m, m],
        },
    ]
}

/// A depth-8 nest's enumeration: 256 `(Q, k_Q)` pairs.
fn d8_bound() -> EnumeratedBound {
    bounds::enumerated_exponent(&builders::random_projective(3, 8, 4, (1, 256)), 64)
}

/// `builders::matmul(8, 8, 2)`.
const NEST: &str = r#"{"indices":[{"name":"i","bound":8},{"name":"j","bound":8},{"name":"k","bound":2}],"arrays":[{"name":"C","support":5},{"name":"A","support":3},{"name":"B","support":6}]}"#;

/// The queries of [`golden_queries`], in order.
const QUERIES: [&str; 6] = [
    r#"{"LowerBound":{"cache_size":16}}"#,
    r#"{"EnumeratedBound":{"cache_size":16}}"#,
    r#"{"OptimalTiling":{"cache_size":16}}"#,
    r#"{"Tightness":{"cache_size":16}}"#,
    r#"{"Slice":{"cache_size":16,"axis":2,"lo_bound":1,"hi_bound":8}}"#,
    r#"{"Surface":{"cache_size":16,"axes":[0,2],"lo_bounds":[1,1],"hi_bounds":[8,8]}}"#,
];

/// A cold engine's answers to [`golden_queries`] on [`NEST`], in order.
const ANSWERS: [&str; 6] = [
    r#"{"LowerBound":{"exponent":"5/4","witness_subset":4,"s_hat":["0","1","0"],"zeta":["0","0","1"],"tile_size_bound":32.0,"words":64.0}}"#,
    r#"{"EnumeratedBound":{"exponent":"5/4","best_subset":4,"per_subset":[[0,"3/2"],[1,"7/4"],[2,"7/4"],[3,"7/4"],[4,"5/4"],[5,"7/4"],[6,"5/4"],[7,"7/4"]]}}"#,
    r#"{"OptimalTiling":{"lambda":["3/4","1/4","1/4"],"value":"5/4","tile_dims":[8,2,2]}}"#,
    r#"{"Tightness":{"tiling_exponent":"5/4","bound_exponent":"5/4","enumerated_exponent":"5/4","witness_subset":4,"tight":true}}"#,
    r#"{"Slice":{"breakpoints":[["0","1"],["1/2","3/2"],["3/4","3/2"]]}}"#,
    r#"{"Surface":{"axes":[0,2],"num_regions":5,"pieces":[{"gradient":["0","0"],"constant":"3/2"},{"gradient":["0","1"],"constant":"1"},{"gradient":["1","0"],"constant":"1"},{"gradient":["1","1"],"constant":"3/4"}],"rendered":["3/2","1 + βk","1 + βi","3/4 + βi + βk"]}}"#,
];

/// The snapshot of an engine that answered [`golden_queries`] on [`NEST`]
/// and one `exponent_at_bound` probe.
const SNAPSHOT: &str = concat!(
    r#"{"version":1,"entries":[{"#,
    r#""canonical":{"indices":[{"name":"i","bound":8},{"name":"j","bound":8},{"name":"k","bound":2}],"arrays":[{"name":"A","support":3},{"name":"B","support":6},{"name":"C","support":5}]},"orientations":[{"loops":[0,1,2],"arrays":[2,0,1]}]}]"#,
    r#","betas":[]"#,
    r#","results":[{"entry":0,"orientation":0,"m":16,"kind":"tiling","value":{"lambda":["3/4","1/4","1/4"],"value":"5/4","tile_dims":[8,2,2]}},"#,
    r#"{"entry":0,"orientation":0,"m":16,"kind":"bound","value":{"exponent":"5/4","witness_subset":4,"s_hat":["0","1","0"],"zeta":["0","0","1"],"tile_size_bound":32.0,"words":64.0}},"#,
    r#"{"entry":0,"orientation":0,"m":16,"kind":"enumerated","value":{"exponent":"5/4","best_subset":4,"per_subset":[[0,"3/2"],[1,"7/4"],[2,"7/4"],[3,"7/4"],[4,"5/4"],[5,"7/4"],[6,"5/4"],[7,"7/4"]]}}]"#,
    r#","slices":[{"entry":0,"m":16,"axis":2,"kind":"span","lo":1,"hi":8,"value":{"breakpoints":[["0","1"],["1/2","3/2"],["3/4","3/2"]]}},"#,
    r#"{"entry":0,"m":16,"axis":1,"kind":"probe","hi":16,"value":{"breakpoints":[["0","1"],["1/4","5/4"],["1","5/4"]]}}]"#,
    r#","surfaces":[{"entry":0,"orientation":0,"m":16,"lo":[1,1],"hi":[8,8],"surface":{"axes":[0,2],"axis_names":["βi","βk"],"nominal":["3/4","1/4"],"surface":{"objective":"Maximize","domain":{"lo":["0","0"],"hi":["3/4","3/4"]},"regions":["#,
    r#"{"piece":{"gradient":["0","0"],"constant":"3/2"},"halfspaces":[{"normal":["-1","0"],"offset":"-1/2"},{"normal":["0","-1"],"offset":"-1/2"}],"witness":["3/4","3/4"]},"#,
    r#"{"piece":{"gradient":["0","1"],"constant":"1"},"halfspaces":[{"normal":["-1","0"],"offset":"-1/4"},{"normal":["0","1"],"offset":"1/4"}],"witness":["3/4","0"]},"#,
    r#"{"piece":{"gradient":["0","1"],"constant":"1"},"halfspaces":[{"normal":["-1","1"],"offset":"0"},{"normal":["0","-1"],"offset":"-1/4"},{"normal":["0","1"],"offset":"1/2"}],"witness":["1/2","1/3"]},"#,
    r#"{"piece":{"gradient":["1","0"],"constant":"1"},"halfspaces":[{"normal":["0","-1"],"offset":"-1/4"},{"normal":["1","-1"],"offset":"0"},{"normal":["1","1"],"offset":"1"}],"witness":["0","3/4"]},"#,
    r#"{"piece":{"gradient":["1","1"],"constant":"3/4"},"halfspaces":[{"normal":["0","1"],"offset":"1/4"},{"normal":["1","0"],"offset":"1/4"},{"normal":["1","1"],"offset":"1"}],"witness":["0","0"]}]}}}]}"#,
);

/// The queries the goldens answer, at `M = 16` on [`NEST`].
fn golden_queries() -> Vec<Query> {
    let m = 16;
    vec![
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
        Query::Tightness { cache_size: m },
        Query::Slice {
            cache_size: m,
            axis: 2,
            lo_bound: 1,
            hi_bound: 8,
        },
        Query::Surface {
            cache_size: m,
            axes: vec![0, 2],
            lo_bounds: vec![1, 1],
            hi_bounds: vec![8, 8],
        },
    ]
}

#[test]
fn a_nest_and_every_query_kind_write_their_golden_bytes() {
    let nest = builders::matmul(8, 8, 2);
    assert_eq!(json::to_string(&nest), NEST);
    assert_eq!(json::from_str::<LoopNest>(NEST), Ok(nest));
    for (query, golden) in golden_queries().iter().zip(QUERIES) {
        assert_eq!(json::to_string(query), golden);
        assert_eq!(json::from_str::<Query>(golden).as_ref(), Ok(query));
    }
}

#[test]
fn every_answer_kind_writes_its_golden_bytes() {
    let nest = builders::matmul(8, 8, 2);
    let engine = Engine::new();
    for (query, golden) in golden_queries().iter().zip(ANSWERS) {
        let answer = engine.analyze(&nest, query).expect("valid query");
        assert_eq!(json::to_string(&answer), golden, "{query:?}");
        assert_eq!(json::from_str::<AnalysisResult>(golden), Ok(answer));
    }
}

#[test]
fn a_snapshot_of_every_artifact_kind_writes_its_golden_bytes() {
    // Bound, enumerated and tiling results, a span slice and a surface from
    // the queries, and a probe slice from `exponent_at_bound`.
    let nest = builders::matmul(8, 8, 2);
    let engine = Engine::new();
    for query in golden_queries() {
        engine.analyze(&nest, &query).expect("valid query");
    }
    let probe = engine.exponent_at_bound(&nest, 16, 1, 4);
    assert_eq!(probe, Ok(Rational::from_frac(5.into(), 4.into())));
    assert_eq!(engine.snapshot_json(), SNAPSHOT);
    let restored = Engine::restore_json(SNAPSHOT).expect("the golden snapshot restores");
    assert_eq!(restored.snapshot_json(), SNAPSHOT);
}

/// Decodes `doc` with the hand-written impl and with the derive; both must
/// agree on the value or on the error text.
fn decode_like_the_derive(doc: &str) -> Result<EnumeratedBound, String> {
    let ours = json::from_str::<EnumeratedBound>(doc);
    let derived = json::from_str::<DerivedBound>(doc);
    match (&ours, &derived) {
        (Ok(a), Ok(b)) => assert_eq!(&DerivedBound::from(a), b, "{doc}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{doc}"),
        _ => panic!("{doc}: hand-written {ours:?} vs derived {derived:?}"),
    }
    ours.map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every answer kind, the nest, its queries and the snapshot built from
    /// them are written as canonical text, and the snapshot restores to an
    /// engine that writes it again.
    #[test]
    fn direct_writes_print_the_tree_bytes(
        seed in 0u64..1000,
        d in 2usize..8,
        n in 2usize..5,
        m_log in 2u32..9,
    ) {
        let nest = builders::random_projective(seed, d, n, (1, 256));
        let m = 1u64 << m_log;
        assert_same_bytes(&nest, "nest");
        let engine = Engine::new();
        for query in all_queries(&nest, m) {
            assert_same_bytes(&query, "query");
            let answer = engine.analyze(&nest, &query).expect("valid query");
            assert_same_bytes(&answer, "answer");
            if let AnalysisResult::EnumeratedBound(b) = &answer {
                assert_same_bytes(b, "enumeration");
                prop_assert_eq!(b.serialize(), DerivedBound::from(b).serialize());
                prop_assert_eq!(&json::from_str::<EnumeratedBound>(&json::to_string(b)).unwrap(), b);
            }
        }
        engine.exponent_at_bound(&nest, m, 0, 2).expect("probe slice");
        // Snapshot payloads: the three result kinds, span and probe slices
        // and the surface, plus the surface object itself.
        let surface = engine
            .exponent_surface(&nest, m, &[0, d - 1], &[1, 1], &[m, m])
            .expect("surface");
        assert_same_bytes(&surface, "surface");
        let snapshot = engine.snapshot_json();
        assert_same_bytes(&json::parse(&snapshot).expect("a snapshot is JSON"), "snapshot");
        let restored = Engine::restore_json(&snapshot).expect("snapshot restores");
        prop_assert_eq!(restored.snapshot_json(), snapshot);
    }
}

#[test]
fn enumerated_bound_builds_the_derived_tree() {
    let b = d8_bound();
    assert_eq!(b.per_subset.len(), 256);
    assert_eq!(b.serialize(), DerivedBound::from(&b).serialize());
    assert_eq!(
        json::to_string(&b),
        json::to_string(&DerivedBound::from(&b))
    );
    assert_eq!(decode_like_the_derive(&json::to_string(&b)), Ok(b));
}

#[test]
fn hostile_enumerations_fail_with_the_derived_error_text() {
    let cases = [
        // Missing fields.
        r#"{"best_subset":1,"per_subset":[]}"#,
        r#"{"exponent":"1/2","per_subset":[]}"#,
        r#"{"exponent":"1/2","best_subset":1}"#,
        // Wrong types.
        r#"[]"#,
        r#"{"exponent":true,"best_subset":1,"per_subset":[]}"#,
        r#"{"exponent":"1/2","best_subset":"1","per_subset":[]}"#,
        r#"{"exponent":"1/2","best_subset":-1,"per_subset":[]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":{}}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[5]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[["0","1/2"]]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0,null]]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0,"1/2"],[1,[]]]}"#,
        // Pairs of the wrong length.
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0,"1/2",7]]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0]]}"#,
        // Bad rational text, first and after a memoized repeat of a
        // valid one.
        r#"{"exponent":"1/0","best_subset":1,"per_subset":[]}"#,
        r#"{"exponent":"x","best_subset":1,"per_subset":[]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0,"1/0"]]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0,"x"]]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0,"1/2"],[1,"1/2"],[2,"1/0"]]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0,"1/2"],[1,"1/2"],[2,"x"]]}"#,
        r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0,"1/2"],[1,"2/4"],[2,"1/2 "]]}"#,
    ];
    for doc in cases {
        assert!(
            decode_like_the_derive(doc).is_err(),
            "{doc} must not decode"
        );
    }
}

#[test]
fn memoized_and_integer_rationals_decode_like_the_derive() {
    // An integer `k` is accepted, as `Rational::deserialize` accepts it, and
    // a repeated text decodes to equal values; a non-canonical spelling of a
    // memoized value is parsed on its own.
    let doc = r#"{"exponent":"1/2","best_subset":1,"per_subset":[[0,3],[1,"1/2"],[2,"1/2"],[3,"2/4"],[4,"3"]]}"#;
    let b = decode_like_the_derive(doc).expect("decodes");
    let half = Rational::from_frac(1.into(), 2.into());
    let three = Rational::from_integer(3.into());
    let ks: Vec<Rational> = b.per_subset.iter().map(|(_, k)| k.clone()).collect();
    assert_eq!(ks, [three.clone(), half.clone(), half.clone(), half, three]);
}

#[test]
fn every_prefix_of_a_depth_eight_answer_fails_like_the_derive() {
    let b = d8_bound();
    for doc in [
        json::to_string(&b),
        json::to_string(&AnalysisResult::EnumeratedBound(b.clone())),
    ] {
        for end in 0..doc.len() {
            let prefix = &doc[..end];
            let ours = json::from_str::<AnalysisResult>(prefix)
                .map(|_| ())
                .and(json::from_str::<EnumeratedBound>(prefix).map(|_| ()));
            let derived = json::from_str::<DerivedBound>(prefix).map(|_| ());
            let (Err(ours), Err(derived)) = (ours, derived) else {
                panic!("a proper prefix decoded: {prefix:?}");
            };
            assert_eq!(ours.to_string(), derived.to_string(), "{prefix:?}");
        }
    }
}

#[test]
fn distinct_values_keep_the_memo_linear() {
    // Every `k_Q` distinct: the decoder's memo still gives the derive's
    // values, and the writer its bytes.
    let per_subset: Vec<(IndexSet, Rational)> = (0..4096u64)
        .map(|m| {
            let k = Rational::from_frac((m as i64 + 1).into(), 7919.into());
            (IndexSet::from_bits(m), k)
        })
        .collect();
    let b = EnumeratedBound {
        exponent: per_subset[0].1.clone(),
        best_subset: per_subset[0].0,
        per_subset,
    };
    let text = json::to_string(&b);
    assert_eq!(text, json::to_string(&DerivedBound::from(&b)));
    assert_eq!(decode_like_the_derive(&text), Ok(b));
}

/// `json::from_str` gives the tree decode's value, and the stream alone
/// (`read_json` and the end of the input) reads `doc` to that value.
fn streams_like_the_tree<T: Deserialize + PartialEq + std::fmt::Debug>(doc: &str) -> T {
    let tree = T::deserialize(&json::parse(doc).expect("valid JSON")).expect("the tree decodes");
    assert_eq!(json::from_str::<T>(doc).as_ref(), Ok(&tree), "{doc}");
    let mut r = json::Reader::new(doc);
    let streamed = T::read_json(&mut r).and_then(|t| r.end().map(|()| t));
    assert_eq!(streamed.as_ref(), Ok(&tree), "the stream alone on {doc}");
    tree
}

#[test]
fn every_answer_kind_streams_to_the_tree_value() {
    for (seed, d) in [(5u64, 3usize), (11, 6), (17, 8)] {
        let nest = builders::random_projective(seed, d, 4, (1, 256));
        assert_eq!(
            streams_like_the_tree::<LoopNest>(&json::to_string(&nest)),
            nest
        );
        let engine = Engine::new();
        for query in all_queries(&nest, 64) {
            assert_eq!(
                streams_like_the_tree::<Query>(&json::to_string(&query)),
                query
            );
            let answer = engine.analyze(&nest, &query).expect("valid query");
            let text = json::to_string(&answer);
            assert_eq!(streams_like_the_tree::<AnalysisResult>(&text), answer);
        }
        // The queries as the server reads them, in one array.
        let queries = all_queries(&nest, 64);
        assert_eq!(
            streams_like_the_tree::<Vec<Query>>(&json::to_string(&queries)),
            queries
        );
    }
}

#[test]
fn escaped_integer_and_reordered_enumerations_stream_like_the_derive() {
    let doc = r#"{"per_subset":[[0,"1\/2"],[1,3],[2,"1/2"],[3,"1\/2"],[4,"-3/4"]],"extra":{"k":["1/2"]},"best_subset":1,"exponent":"1\/2","best_subset":"x"}"#;
    let b = streams_like_the_tree::<EnumeratedBound>(doc);
    assert_eq!(decode_like_the_derive(doc), Ok(b.clone()));
    let half = Rational::from_frac(1.into(), 2.into());
    let ks: Vec<Rational> = b.per_subset.iter().map(|(_, k)| k.clone()).collect();
    assert_eq!(
        ks,
        [
            half.clone(),
            Rational::from_integer(3.into()),
            half.clone(),
            half.clone(),
            Rational::from_frac((-3).into(), 4.into()),
        ]
    );
    assert_eq!(b.exponent, half);
    assert_eq!(b.best_subset, IndexSet::from_bits(1));
    // The same answer inside the result envelope, spaced out.
    let wrapped = format!("{{ \"EnumeratedBound\" :\n{doc} }}");
    assert_eq!(
        streams_like_the_tree::<AnalysisResult>(&wrapped),
        AnalysisResult::EnumeratedBound(b)
    );
    // A depth-8 answer with its fields reordered.
    let b = d8_bound();
    let doc = format!(
        r#"{{"best_subset":{},"per_subset":{},"exponent":{}}}"#,
        json::to_string(&b.best_subset),
        json::to_string(&b.per_subset),
        json::to_string(&b.exponent)
    );
    assert_eq!(streams_like_the_tree::<EnumeratedBound>(&doc), b);
}

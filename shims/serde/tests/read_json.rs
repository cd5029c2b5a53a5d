//! Soundness of the streaming decode. `json::from_str` reads a value
//! through `Deserialize::read_json` and answers any refusal through the
//! tree path, `T::deserialize(&json::parse(doc)?)`. So for every document
//! here `from_str` must return the tree path's value or its error text, and
//! wherever the stream itself accepts a document it must give the tree's
//! value. The documents cover every derive shape with reordered, repeated
//! and unknown keys, escapes, whitespace between every token, nesting at
//! and past `MAX_DEPTH`, wrong types, and every prefix.

use std::fmt::Debug;

use serde::{json, Deserialize, Serialize, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u32,
    label: String,
    weight: f64,
    tags: Vec<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct NoFields {}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(i64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u8, Option<bool>);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Circle(f64),
    Segment(i32, i32, String),
    Rect { w: u64, h: u64 },
    Nothing {},
    Nested(Box<Shape>),
    Grouped(Vec<(Named, Unit)>),
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum OnlyUnits {
    First,
    Second,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Outer {
    shape: Shape,
    pairs: Vec<Pair>,
    maybe: Option<Newtype>,
    nested: Vec<Vec<u8>>,
    triple: (u8, String, bool),
    units: Vec<OnlyUnits>,
    anything: Value,
}

/// The tree path: what `from_str` answers whenever the stream refuses.
fn tree<T: Deserialize>(doc: &str) -> Result<T, serde::Error> {
    T::deserialize(&json::parse(doc)?)
}

/// The stream alone, with no fallback.
fn stream<T: Deserialize>(doc: &str) -> Result<T, serde::Error> {
    let mut r = json::Reader::new(doc);
    let t = T::read_json(&mut r)?;
    r.end()?;
    Ok(t)
}

/// `from_str` gives the tree path's value or error text, and the stream,
/// where it accepts `doc`, gives the tree's value.
fn agrees<T: Deserialize + PartialEq + Debug>(doc: &str) -> Result<T, String> {
    let tree = tree::<T>(doc).map_err(|e| e.to_string());
    let got = json::from_str::<T>(doc).map_err(|e| e.to_string());
    assert_eq!(got, tree, "from_str differs from the tree path on {doc:?}");
    if let Ok(streamed) = stream::<T>(doc) {
        assert_eq!(
            Ok(&streamed),
            tree.as_ref(),
            "the stream accepted {doc:?} with another value"
        );
    }
    got
}

/// [`agrees`], and the stream itself reads `doc`.
fn streams<T: Deserialize + PartialEq + Debug>(doc: &str) -> T {
    agrees::<T>(doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
    stream::<T>(doc).unwrap_or_else(|e| panic!("the stream refused {doc:?}: {e}"))
}

/// `doc` (compact JSON) with whitespace between every two tokens and
/// around the whole.
fn spaced(doc: &str) -> String {
    const WS: [&str; 5] = [" ", "\n", "\t", "\r\n", "  "];
    let mut out = String::from(" \t");
    let (mut in_string, mut escaped, mut k) = (false, false, 0);
    for c in doc.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '}' | '[' | ']' | ',' | ':' => {
                out.push_str(WS[k % WS.len()]);
                out.push(c);
                out.push_str(WS[(k + 2) % WS.len()]);
                k += 1;
            }
            _ => out.push(c),
        }
    }
    out.push_str("\n ");
    out
}

fn named(id: u32) -> Named {
    Named {
        id,
        label: format!("n\"{id}\\é"),
        weight: 0.5 + id as f64,
        tags: vec!["a".into(), "\u{1}\n".into()],
    }
}

fn outer() -> Outer {
    Outer {
        shape: Shape::Grouped(vec![(named(1), Unit), (named(2), Unit)]),
        pairs: vec![Pair(0, None), Pair(255, Some(true))],
        maybe: Some(Newtype(-7)),
        nested: vec![vec![], vec![1, 2, 3]],
        triple: (9, "t".into(), false),
        units: vec![OnlyUnits::Second, OnlyUnits::First],
        anything: Value::Object(vec![
            (
                "k".into(),
                Value::Array(vec![Value::Null, Value::Float(2.5)]),
            ),
            ("k".into(), Value::Int(-1)),
        ]),
    }
}

/// One canonical document per shape, each with its value.
fn check_canonical<T: Serialize + Deserialize + PartialEq + Debug>(x: &T) {
    let doc = json::to_string(x);
    assert_eq!(&streams::<T>(&doc), x);
    assert_eq!(&streams::<T>(&spaced(&doc)), x, "spaced {doc}");
}

#[test]
fn every_shape_streams_its_canonical_and_spaced_documents() {
    check_canonical(&named(3));
    check_canonical(&NoFields {});
    check_canonical(&Newtype(i64::MIN));
    check_canonical(&Pair(7, Some(false)));
    check_canonical(&Unit);
    for shape in [
        Shape::Empty,
        Shape::Circle(-1.25),
        Shape::Segment(-1, 2, "s".into()),
        Shape::Rect { w: 3, h: u64::MAX },
        Shape::Nothing {},
        Shape::Nested(Box::new(Shape::Nested(Box::new(Shape::Empty)))),
        Shape::Grouped(vec![]),
    ] {
        check_canonical(&shape);
    }
    check_canonical(&OnlyUnits::First);
    check_canonical(&outer());
    check_canonical(&vec![(1u8, "x".to_string()), (2, String::new())]);
    check_canonical(&Some(Box::new(4u16)));
    check_canonical(&Option::<u8>::None);
}

#[test]
fn keys_stream_in_any_order_first_repeat_wins_unknown_dropped() {
    let want = Named {
        id: 1,
        label: "a".into(),
        weight: 2.0,
        tags: vec![],
    };
    for doc in [
        r#"{"tags":[],"weight":2.0,"label":"a","id":1}"#,
        // Repeats: the first occurrence wins, and a later one is only
        // checked as JSON (here it would not even have the right type).
        r#"{"id":1,"label":"a","id":2,"weight":2,"tags":[],"label":7,"tags":{"x":[]}}"#,
        // Unknown keys, with containers as values, anywhere.
        r#"{"zzz":{"a":[1,{"b":null}],"c":"A"},"id":1,"label":"a","more":[[],{}],"weight":2.0,"tags":[],"x":-0.5e3}"#,
        // Escaped keys match their unescaped names.
        r#"{"\u0069d":1,"l\u0061bel":"a","weight":2.0,"t\u0061gs":[]}"#,
    ] {
        assert_eq!(streams::<Named>(doc), want, "{doc}");
        assert_eq!(streams::<Named>(&spaced(doc)), want, "spaced {doc}");
    }
    // Escaped values decode to their text.
    let doc = r#"{"id":1,"label":"q\"b\\s\/n\né😀","weight":1e2,"tags":["\t"]}"#;
    let v = streams::<Named>(doc);
    assert_eq!(v.label, "q\"b\\s/n\né😀");
    assert_eq!(v.weight, 100.0);
    assert_eq!(v.tags, ["\t"]);
    // Struct variants and the enum envelope take the same rules.
    assert_eq!(
        streams::<Shape>(r#"{"Rect":{"h":2,"junk":[{}],"w":1,"h":9}}"#),
        Shape::Rect { w: 1, h: 2 }
    );
    assert_eq!(
        streams::<Shape>(r#"{"Nothing":{"x":1}}"#),
        Shape::Nothing {}
    );
    assert_eq!(streams::<Shape>(r#""Empty""#), Shape::Empty);
    assert_eq!(streams::<Shape>(r#"{"Circle":3}"#), Shape::Circle(3.0));
}

#[test]
fn wrong_types_and_shapes_answer_with_the_tree_errors() {
    let named_docs = [
        r#"{"id":"1","label":"a","weight":2.0,"tags":[]}"#,
        r#"{"id":1,"label":"a","weight":2.0}"#,
        r#"{"id":-1,"label":"a","weight":2.0,"tags":[]}"#,
        r#"{"id":1,"label":null,"weight":2.0,"tags":[]}"#,
        r#"{"id":1,"label":"a","weight":"x","tags":[]}"#,
        r#"{"id":1,"label":"a","weight":2.0,"tags":"t"}"#,
        r#"{"id":1,"label":"a","weight":2.0,"tags":[1]}"#,
        r#"[1,"a",2.0,[]]"#,
        r#"null"#,
        r#"{"id":1.5,"label":"a","weight":2.0,"tags":[]}"#,
    ];
    for doc in named_docs {
        assert!(agrees::<Named>(doc).is_err(), "{doc}");
    }
    for doc in ["[1]", "[1,null,3]", "[300,null]", "[1,1]", "{}", "1"] {
        assert!(agrees::<Pair>(doc).is_err(), "{doc}");
    }
    for doc in [
        r#""Circle""#,
        r#""Nope""#,
        r#"{"Empty":null}"#,
        r#"{"Nope":1}"#,
        r#"{"Circle":1,"Circle":2}"#,
        r#"{"Circle":1,"Empty":null}"#,
        r#"{}"#,
        r#"{"Segment":[1,2]}"#,
        r#"{"Segment":[1,2,"s",4]}"#,
        r#"{"Rect":{"w":1}}"#,
        r#"{"Rect":[1,2]}"#,
        r#"{"Nested":"Nope"}"#,
        r#"7"#,
        r#"[]"#,
    ] {
        assert!(agrees::<Shape>(doc).is_err(), "{doc}");
    }
    for doc in [r#"{"First":null}"#, r#""Third""#, "0"] {
        assert!(agrees::<OnlyUnits>(doc).is_err(), "{doc}");
    }
    for doc in ["0", "[]", r#"{"x":1}"#] {
        assert!(agrees::<Unit>(doc).is_err(), "{doc}");
    }
    assert!(agrees::<(u8, u8, u8)>("[1,2]").is_err());
    assert!(agrees::<Vec<u8>>("{}").is_err());
    assert!(agrees::<String>("5").is_err());
    // Where the tree accepts another shape than the canonical one, the
    // answer is still the tree's: a struct without fields reads from
    // anything, a struct variant without fields from any payload.
    assert_eq!(agrees::<NoFields>("5"), Ok(NoFields {}));
    assert_eq!(agrees::<NoFields>("[1]"), Ok(NoFields {}));
    assert_eq!(agrees::<Shape>(r#"{"Nothing":5}"#), Ok(Shape::Nothing {}));
    assert_eq!(agrees::<f64>("3"), Ok(3.0));
    assert_eq!(agrees::<f64>(r#""-inf""#), Ok(f64::NEG_INFINITY));
    assert_eq!(agrees::<Option<u8>>("null"), Ok(None));
}

#[test]
fn grammar_errors_are_the_tree_errors() {
    for doc in [
        "",
        " ",
        "{",
        r#"{"id":1,}"#,
        r#"{"id" 1}"#,
        r#"{"id":1 "label":"a"}"#,
        r#"{"id":01,"label":"a","weight":2.0,"tags":[]}"#,
        r#"{"id":1,"label":"a","weight":2.0,"tags":[]} x"#,
        r#"{"id":1,"label":"a","weight":2.0,"tags":[]}{}"#,
        r#"{"id":1,"label":"a","weight":2.0,"tags":[,]}"#,
        r#"{"id":1,"label":"a\q","weight":2.0,"tags":[]}"#,
        "{\"id\":1,\"label\":\"a\nb\",\"weight\":2.0,\"tags\":[]}",
        "{\"id\":1,\"label\":\"a\",\"weight\":2.0,\"tags\":[],\"k\u{1f}\":1}",
        r#"{"id":1,"label":"a","weight":2.0,"tags":[],"x":nul}"#,
        r#"{"id":1,"label":"a","weight":2.0,"tags":[],"x":"\ud800"}"#,
    ] {
        let err = agrees::<Named>(doc).expect_err(doc);
        assert!(err.contains("at byte"), "{doc:?}: {err}");
    }
}

/// `{"Nested":…}` `levels` times around `{"Circle":1.5}`: the number sits
/// at depth `levels + 1`.
fn nested_shape(levels: usize) -> String {
    format!(
        "{}{{\"Circle\":1.5}}{}",
        "{\"Nested\":".repeat(levels),
        "}".repeat(levels)
    )
}

#[test]
fn nesting_is_capped_at_max_depth_for_typed_reads_too() {
    let mut accepted = 0;
    let mut refused = 0;
    for levels in json::MAX_DEPTH - 4..json::MAX_DEPTH + 4 {
        let doc = nested_shape(levels);
        match agrees::<Shape>(&doc) {
            Ok(_) => {
                accepted += 1;
                assert!(levels < json::MAX_DEPTH, "{levels} levels parsed");
                streams::<Shape>(&doc);
            }
            Err(e) => {
                refused += 1;
                assert!(e.contains("nesting deeper"), "{levels}: {e}");
                assert!(
                    stream::<Shape>(&doc).is_err(),
                    "{levels}: the stream read it"
                );
            }
        }
    }
    assert!(accepted > 0 && refused > 0, "{accepted} / {refused}");
    // Arrays of arrays, read as `Value` and as nested `Vec`s.
    let at_cap = format!(
        "{}1{}",
        "[".repeat(json::MAX_DEPTH),
        "]".repeat(json::MAX_DEPTH)
    );
    let past_cap = format!("[{at_cap}]");
    streams::<Value>(&at_cap);
    assert!(agrees::<Value>(&past_cap).is_err());
    assert!(stream::<Value>(&past_cap).is_err());
    assert!(agrees::<Vec<Value>>(&past_cap).is_err());
    assert!(stream::<Vec<Value>>(&past_cap).is_err());
    let deep = "[".repeat(100_000);
    assert!(agrees::<Value>(&deep).is_err());
    assert!(agrees::<Vec<Vec<Vec<u8>>>>(&deep).is_err());
}

#[test]
fn every_prefix_answers_with_the_tree_result() {
    let docs = [
        json::to_string(&outer()),
        spaced(r#"{"id":1,"label":"aé","weight":2.0,"tags":["x"],"u":[{}]}"#),
        json::to_string(&Shape::Segment(1, -2, "é\"".into())),
    ];
    for doc in &docs {
        for (end, _) in doc.char_indices() {
            let prefix = &doc[..end];
            let _ = agrees::<Outer>(prefix);
            let _ = agrees::<Named>(prefix);
            let _ = agrees::<Shape>(prefix);
            let _ = agrees::<Value>(prefix);
        }
    }
}

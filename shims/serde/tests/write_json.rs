//! `Serialize::write_json` is each type's only encoder: `json::to_string`
//! writes through it and `serialize` parses what it writes. So literals pin
//! its bytes for every derive shape, and for every derive shape and every
//! primitive and container impl the written text must be canonical (its
//! parsed tree prints the same bytes, through `Value`'s encoder and
//! through the reference printer below) and must decode back.

use serde::{json, Deserialize, Serialize, Value};

/// The tree printer as it was before `write_json`: one `format!` per
/// number and one `push` per string char.
fn reference(v: &Value) -> String {
    fn write(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f}"));
                    if f.fract() == 0.0 && !format!("{f}").contains(['e', 'E', '.']) {
                        out.push_str(".0");
                    }
                } else if f.is_nan() {
                    out.push_str("\"NaN\"");
                } else if *f > 0.0 {
                    out.push_str("\"inf\"");
                } else {
                    out.push_str("\"-inf\"");
                }
            }
            Value::String(s) => string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(item, out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(k, out);
                    out.push(':');
                    write(v, out);
                }
                out.push('}');
            }
        }
    }
    fn string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    let mut out = String::new();
    write(v, &mut out);
    out
}

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

/// `x`'s written text is canonical (its tree, printed by `Value`'s encoder
/// and by the reference printer, gives the same bytes) and decodes back to
/// `x`.
fn check<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(x: &T) {
    let direct = json::to_string(x);
    assert_eq!(direct, json::to_string(&x.serialize()), "{x:?}");
    assert_eq!(direct, reference(&x.serialize()), "{x:?}");
    let back: T = json::from_str(&direct).unwrap_or_else(|e| panic!("{direct}: {e}"));
    assert_eq!(&back, x);
}

fn named(id: u32, label: &str) -> Named {
    Named {
        id,
        label: label.to_string(),
        weight: id as f64 / 3.0,
        tags: vec![label.to_string(), String::new()],
    }
}

#[test]
fn every_derive_shape_writes_its_tree_bytes() {
    check(&named(7, "seven"));
    check(&NoFields {});
    check(&Newtype(-42));
    check(&Pair(3, Some(true)));
    check(&Pair(0, None));
    check(&Unit);
    for shape in [
        Shape::Empty,
        Shape::Circle(1.5),
        Shape::Segment(-1, i32::MAX, "a\"b".to_string()),
        Shape::Rect { w: 0, h: u64::MAX },
        Shape::Nothing {},
        Shape::Nested(Box::new(Shape::Rect { w: 1, h: 2 })),
        Shape::Grouped(vec![(named(1, "x"), Unit), (named(2, "y"), Unit)]),
        Shape::Grouped(Vec::new()),
    ] {
        check(&shape);
    }
    assert_eq!(
        json::to_string(&named(7, "seven")),
        r#"{"id":7,"label":"seven","weight":2.3333333333333335,"tags":["seven",""]}"#
    );
    assert_eq!(json::to_string(&Newtype(-42)), "-42");
    assert_eq!(json::to_string(&Pair(3, Some(true))), "[3,true]");
    assert_eq!(json::to_string(&Pair(0, None)), "[0,null]");
    assert_eq!(json::to_string(&Unit), "null");
    assert_eq!(json::to_string(&Shape::Circle(1.5)), r#"{"Circle":1.5}"#);
    assert_eq!(
        json::to_string(&Shape::Nested(Box::new(Shape::Rect { w: 1, h: 2 }))),
        r#"{"Nested":{"Rect":{"w":1,"h":2}}}"#
    );
    assert_eq!(
        json::to_string(&Shape::Grouped(vec![
            (named(1, "x"), Unit),
            (named(2, "y"), Unit)
        ])),
        concat!(
            r#"{"Grouped":[[{"id":1,"label":"x","weight":0.3333333333333333,"tags":["x",""]},null],"#,
            r#"[{"id":2,"label":"y","weight":0.6666666666666666,"tags":["y",""]},null]]}"#
        )
    );
    assert_eq!(
        json::to_string(&Shape::Grouped(Vec::new())),
        r#"{"Grouped":[]}"#
    );
    assert_eq!(json::to_string(&Shape::Empty), r#""Empty""#);
    assert_eq!(
        json::to_string(&Shape::Rect { w: 1, h: 2 }),
        r#"{"Rect":{"w":1,"h":2}}"#
    );
    assert_eq!(
        json::to_string(&Shape::Segment(1, 2, "s".into())),
        r#"{"Segment":[1,2,"s"]}"#
    );
    assert_eq!(json::to_string(&Shape::Nothing {}), r#"{"Nothing":{}}"#);
    assert_eq!(json::to_string(&NoFields {}), "{}");
}

#[test]
fn primitives_and_containers_write_their_tree_bytes() {
    check(&Some(5u16));
    check(&Option::<u16>::None);
    check(&(1u8, "two".to_string()));
    check(&(1u8, -2i64, vec![3u32]));
    check(&vec![vec![1i128, i128::MIN, i128::MAX], Vec::new()]);
    check(&vec![u64::MAX, 0, 10, 9, 100]);
    check(&vec![i64::MIN, -1, 0]);
    check(&Box::new(true));
    check(&vec![false, true]);
    assert_eq!(json::to_string("str"), reference(&"str".serialize()));
    assert_eq!(json::to_string(&&7u8), reference(&7u8.serialize()));
}

#[test]
fn floats_write_their_tree_bytes() {
    for f in [
        0.0f64,
        -0.0,
        1.0,
        -2.5,
        1.0 / 3.0,
        1e300,
        1e-300,
        f64::MIN_POSITIVE,
        f64::MAX,
        262144.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert_eq!(
            json::to_string(&f),
            json::to_string(&Value::Float(f)),
            "{f}"
        );
        assert_eq!(json::to_string(&f), reference(&Value::Float(f)), "{f}");
    }
    assert_eq!(json::to_string(&1.0f64), "1.0");
    assert_eq!(json::to_string(&f64::NAN), r#""NaN""#);
    assert_eq!(json::to_string(&f64::NEG_INFINITY), r#""-inf""#);
}

#[test]
fn strings_that_need_escapes_write_their_tree_bytes() {
    for s in [
        "",
        "plain",
        "quote \" and backslash \\",
        "\n\r\t\u{08}\u{0C}",
        "\u{00}\u{01}\u{1f}\u{7f}",
        "é日😀 mixed \"with\" escapes\n",
        "\\",
        "\"",
    ] {
        let owned = s.to_string();
        assert_eq!(
            json::to_string(&owned),
            json::to_string(&Value::String(owned.clone()))
        );
        assert_eq!(
            json::to_string(&owned),
            reference(&Value::String(owned.clone()))
        );
        assert_eq!(json::to_string(s), json::to_string(&owned));
        assert_eq!(json::from_str::<String>(&json::to_string(s)).unwrap(), s);
    }
    assert_eq!(json::to_string("a\u{01}b"), r#""a\u0001b""#);
}

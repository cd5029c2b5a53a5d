//! In-workspace `serde` shim: a small, real serialization framework.
//!
//! The build environment has no access to crates.io, so this crate stands in
//! for `serde` (+ `serde_json`). Until PR 4 the shim's derives expanded to
//! nothing; the engine's wire-ready results need actual serialization, so the
//! shim now provides:
//!
//! * a JSON-shaped tree model ([`Value`]) with an exact printer and parser
//!   ([`json`]);
//! * [`Serialize`], whose one encoder [`Serialize::write_json`] writes a
//!   value's JSON straight into a buffer ([`Serialize::serialize`] parses
//!   that text into a tree for the callers that want one), and
//!   [`Deserialize`], which decodes a [`Value`] tree or, through
//!   [`Deserialize::read_json`], reads a value from a [`json::Reader`] over
//!   the text without building its tree; both are implemented for the
//!   primitive and container types the workspace uses;
//! * working derive macros (re-exported from the `serde_derive` shim crate)
//!   for structs and externally-tagged enums.
//!
//! # Relation to real serde
//!
//! The derive attribute surface (`#[derive(Serialize, Deserialize)]`) and the
//! JSON wire format (field names as keys, externally tagged enums, newtype
//! transparency) match real serde's defaults, so documents produced here are
//! what `serde_json` would produce for the same types. The *trait shape* is
//! simplified: instead of serde's visitor architecture, `Serialize` writes
//! JSON text and `Deserialize` consumes a [`Value`] tree or the text's
//! tokens. Swapping in the real crates would keep every `#[derive(...)]`
//! line unchanged; only direct callers of [`json`] / manual trait impls
//! (the `Rational` and engine wire code) would need the mechanical rewrite
//! to `serde_json` idioms.
//!
//! # Exactness
//!
//! `f64` values are printed with Rust's shortest-round-trip formatting and
//! re-parsed bit-exactly (non-finite values are encoded as tagged strings,
//! which plain JSON cannot represent); integers are carried as `i128`; exact
//! rationals serialize as `"p/q"` strings on the `projtile-arith` side. A
//! write → parse → deserialize round trip is therefore lossless for every
//! type in the workspace, which the engine's wire tests pin.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A JSON number without fractional or exponent part, within `i128`.
    Int(i128),
    /// Any other JSON number.
    Float(f64),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object; insertion order is preserved when printing.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object value.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::custom(format!("missing field `{name}`"))),
            other => Err(Error::custom(format!(
                "expected an object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// Interprets the value as an array of exactly `len` elements (used by
    /// derived impls for tuple structs and tuple enum variants).
    pub fn array_of(&self, len: usize, what: &str) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) if items.len() == len => Ok(items),
            Value::Array(items) => Err(Error::custom(format!(
                "expected {len} elements for {what}, found {}",
                items.len()
            ))),
            other => Err(Error::custom(format!(
                "expected an array for {what}, found {}",
                other.kind()
            ))),
        }
    }

    /// A short human-readable name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Int(_) | Value::Float(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

/// A (de)serialization error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error from a message.
    pub fn custom(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Conversion into JSON text, and through it into the document tree.
pub trait Serialize {
    /// Appends `self` as compact JSON to `out`. This is the type's one
    /// encoder: [`json::to_string`] and [`Serialize::serialize`] both go
    /// through it.
    fn write_json(&self, out: &mut String);

    /// `self` as a [`Value`] tree: the text [`Serialize::write_json`]
    /// writes, parsed back.
    fn serialize(&self) -> Value {
        let text = json::to_string(self);
        let tree = json::parse(&text);
        debug_assert!(tree.is_ok(), "write_json wrote invalid JSON: {text}");
        tree.unwrap_or(Value::Null)
    }
}

/// Conversion from the document tree, or straight from JSON text.
pub trait Deserialize: Sized {
    /// Deserializes a value of `Self` from `v`.
    fn deserialize(v: &Value) -> Result<Self, Error>;

    /// Reads one `Self` from `r`'s next value, without building its tree.
    /// Whatever it accepts must be what [`Deserialize::deserialize`] gives
    /// for that value's tree; it may refuse more, since [`json::from_str`]
    /// answers any refusal through the tree (see there). The provided
    /// method reads the value as a [`Value`] (which allocates nothing for a
    /// number or a literal) and calls `deserialize`; the derives, the
    /// container impls, `String`, `Value` and `Rational` read the tokens
    /// themselves.
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        Self::deserialize(&r.value()?)
    }
}

// ---------------------------------------------------------------------------
// Implementations for primitives and containers
// ---------------------------------------------------------------------------

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                use std::fmt::Write;
                // Writing into a `String` cannot fail.
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        Error::custom(format!(
                            "{i} out of range for {}", stringify!($t)
                        ))
                    }),
                    other => Err(Error::custom(format!(
                        "expected an integer, found {}", other.kind()
                    ))),
                }
            }
        }
    )*};
}

int_impls!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!(
                "expected a boolean, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        json::write_float(*self, out);
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            // Non-finite floats are encoded as tagged strings (see `json`).
            Value::String(s) => match s.as_str() {
                "NaN" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                other => Err(Error::custom(format!("expected a number, found {other:?}"))),
            },
            other => Err(Error::custom(format!(
                "expected a number, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::custom(format!(
                "expected a string, found {}",
                other.kind()
            ))),
        }
    }
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        r.string().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        json::write_seq(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        json::write_seq(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            other => Err(Error::custom(format!(
                "expected an array, found {}",
                other.kind()
            ))),
        }
    }
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        r.array(|r| {
            items.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(t) => t.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        if r.peek()? == b'n' {
            // `null`, or a grammar error.
            r.skip().map(|()| None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items = v.array_of(2, "a pair")?;
        Ok((A::deserialize(&items[0])?, B::deserialize(&items[1])?))
    }
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        let (mut a, mut b) = (None, None);
        r.tuple(2, |r, k| {
            if k == 0 {
                a = Some(A::read_json(r)?);
            } else {
                b = Some(B::read_json(r)?);
            }
            Ok(())
        })?;
        a.zip(b)
            .ok_or_else(|| Error::custom("expected 2 elements for a pair"))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(',');
        self.2.write_json(out);
        out.push(']');
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items = v.array_of(3, "a triple")?;
        Ok((
            A::deserialize(&items[0])?,
            B::deserialize(&items[1])?,
            C::deserialize(&items[2])?,
        ))
    }
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        let (mut a, mut b, mut c) = (None, None, None);
        r.tuple(3, |r, k| {
            match k {
                0 => a = Some(A::read_json(r)?),
                1 => b = Some(B::read_json(r)?),
                _ => c = Some(C::read_json(r)?),
            }
            Ok(())
        })?;
        a.zip(b)
            .zip(c)
            .map(|((a, b), c)| (a, b, c))
            .ok_or_else(|| Error::custom("expected 3 elements for a triple"))
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Box::new)
    }
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        T::read_json(r).map(Box::new)
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Int(i) => i.write_json(out),
            Value::Float(f) => json::write_float(*f, out),
            Value::String(s) => json::write_str(s, out),
            Value::Array(items) => json::write_seq(items, out),
            Value::Object(entries) => {
                json::write_object(entries.iter().map(|(k, v)| (k.as_str(), v)), out)
            }
        }
    }
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        r.value()
    }
}

/// JSON printing and parsing for [`Value`] trees (the `serde_json` corner of
/// the shim).
pub mod json {
    use super::{Deserialize, Error, Serialize, Value};
    use std::borrow::Cow;
    use std::fmt::Write;

    /// Maximum container nesting depth the parser accepts, in the tree and
    /// in typed reads alike. The parser recurses once per nesting level, so
    /// an unbounded depth would let a hostile or corrupt document (e.g. a
    /// tampered engine snapshot of `[[[[…`) overflow the stack; beyond this
    /// cap it returns a parse error instead. 128 levels is far deeper than
    /// any document this workspace produces.
    pub const MAX_DEPTH: usize = 128;

    /// Serializes `t` as compact JSON, through [`Serialize::write_json`].
    pub fn to_string<T: Serialize + ?Sized>(t: &T) -> String {
        let mut out = String::new();
        t.write_json(&mut out);
        out
    }

    /// Deserializes a `T` from a [`Value`] tree.
    pub fn from_value<T: Deserialize>(v: &Value) -> Result<T, Error> {
        T::deserialize(v)
    }

    /// Deserializes a `T` from JSON text, streaming: [`Deserialize::read_json`]
    /// reads it without a [`Value`] tree, and the input must end after it.
    /// On any error the text goes through the tree path,
    /// `T::deserialize(&parse(s)?)`, and its result is returned, so every
    /// acceptance and every error text is the tree's; the stream only has
    /// to be sound (whatever it accepts decodes to the tree's value).
    pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
        let mut r = Reader::new(s);
        match T::read_json(&mut r).and_then(|t| r.end().map(|()| t)) {
            Ok(t) => Ok(t),
            Err(_) => T::deserialize(&parse(s)?),
        }
    }

    /// Parses JSON text into a [`Value`] tree.
    pub fn parse(s: &str) -> Result<Value, Error> {
        let mut r = Reader::new(s);
        let value = r.value()?;
        r.end()?;
        Ok(value)
    }

    /// Appends `items` as a JSON array.
    pub(crate) fn write_seq<T: Serialize>(items: &[T], out: &mut String) {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }

    /// Appends the JSON object of `entries`, in order, each value in its
    /// own encoding.
    pub fn write_object<'a, V: Serialize + ?Sized + 'a>(
        entries: impl IntoIterator<Item = (&'a str, &'a V)>,
        out: &mut String,
    ) {
        out.push('{');
        for (i, (key, value)) in entries.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(key, out);
            out.push(':');
            value.write_json(out);
        }
        out.push('}');
    }

    /// Appends a [`Value::Float`]: Rust's shortest-round-trip decimal
    /// (parsing it recovers the exact bit pattern), with `.0` after an
    /// integral one; non-finite values as the tagged strings `"NaN"`,
    /// `"inf"` and `"-inf"`.
    pub(crate) fn write_float(f: f64, out: &mut String) {
        if f.is_finite() {
            let start = out.len();
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{f}");
            let printed = out.get(start..).unwrap_or_default();
            if f.fract() == 0.0 && !printed.contains(['e', 'E', '.']) {
                out.push_str(".0");
            }
        } else if f.is_nan() {
            out.push_str("\"NaN\"");
        } else if f > 0.0 {
            out.push_str("\"inf\"");
        } else {
            out.push_str("\"-inf\"");
        }
    }

    /// Appends `s` as a quoted JSON string: one `push_str` per run between
    /// escapes, so an escape-free string is copied whole.
    pub fn write_str(s: &str, out: &mut String) {
        out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0C => "\\f",
                0x00..=0x1F => "",
                _ => continue,
            };
            // `b` is ASCII, so `i` is a char boundary.
            out.push_str(s.get(run..i).unwrap_or_default());
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            run = i + 1;
        }
        out.push_str(s.get(run..).unwrap_or_default());
        out.push('"');
    }

    /// A cursor over JSON text: the one grammar behind [`parse`] (whose
    /// tree parser is [`Reader::value`]) and behind every
    /// [`Deserialize::read_json`], which reads typed values token by token.
    /// Every value read checks its nesting depth against [`MAX_DEPTH`]
    /// (typed reads count their containers too), and every error names a
    /// byte position. After an error the reader is spent.
    #[derive(Debug)]
    pub struct Reader<'a> {
        text: &'a str,
        pos: usize,
        /// Nesting depth of the value read next.
        depth: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader at the start of `text`.
        pub fn new(text: &'a str) -> Reader<'a> {
            Reader {
                text,
                pos: 0,
                depth: 0,
            }
        }

        /// Skips whitespace and returns the first byte of the next value,
        /// unread; an error past [`MAX_DEPTH`] or at the end of the input.
        pub fn peek(&mut self) -> Result<u8, Error> {
            if self.depth > MAX_DEPTH {
                return Err(Error::custom(format!(
                    "JSON nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                )));
            }
            self.skip_ws();
            self.text.as_bytes().get(self.pos).copied().ok_or_else(|| {
                Error::custom(format!("unexpected end of JSON input at byte {}", self.pos))
            })
        }

        /// Succeeds when only whitespace is left.
        pub fn end(&mut self) -> Result<(), Error> {
            self.skip_ws();
            if self.pos == self.text.len() {
                Ok(())
            } else {
                Err(Error::custom(format!(
                    "trailing characters after JSON value at byte {}",
                    self.pos
                )))
            }
        }

        /// Reads the next value as a tree.
        pub fn value(&mut self) -> Result<Value, Error> {
            match self.peek()? {
                b'n' => self.literal("null").map(|()| Value::Null),
                b't' => self.literal("true").map(|()| Value::Bool(true)),
                b'f' => self.literal("false").map(|()| Value::Bool(false)),
                b'"' => self.string().map(|s| Value::String(s.into_owned())),
                b'[' => {
                    let mut items = Vec::new();
                    self.array(|r| {
                        items.push(r.value()?);
                        Ok(())
                    })?;
                    Ok(Value::Array(items))
                }
                b'{' => {
                    let mut entries = Vec::new();
                    self.object(|r, key| {
                        entries.push((key.into_owned(), r.value()?));
                        Ok(())
                    })?;
                    Ok(Value::Object(entries))
                }
                _ => self.number(),
            }
        }

        /// Reads past the next value, checking it as [`Reader::value`]
        /// does, without building it.
        pub fn skip(&mut self) -> Result<(), Error> {
            match self.peek()? {
                b'"' => self.string().map(drop),
                b'[' => self.array(Reader::skip),
                b'{' => self.object(|r, _| r.skip()),
                // A literal or a number allocates nothing.
                _ => self.value().map(drop),
            }
        }

        /// Reads the next value, which must be a string: borrowed from the
        /// text when it has no escapes.
        pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
            self.peek()?;
            self.parse_string()
        }

        /// Reads the next value, which must be an array, handing each
        /// element to `each` (which must read exactly one value).
        pub fn array(
            &mut self,
            mut each: impl FnMut(&mut Self) -> Result<(), Error>,
        ) -> Result<(), Error> {
            self.open(b'[', "an array")?;
            if self.close(b']') {
                return Ok(());
            }
            loop {
                each(self)?;
                self.skip_ws();
                match self.text.as_bytes().get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(());
                    }
                    _ => {
                        return Err(Error::custom(format!(
                            "expected `,` or `]` at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }

        /// Reads the next value, which must be an array of exactly `len`
        /// elements, handing each to `each` with its index.
        pub fn tuple(
            &mut self,
            len: usize,
            mut each: impl FnMut(&mut Self, usize) -> Result<(), Error>,
        ) -> Result<(), Error> {
            let start = self.pos;
            let mut k = 0;
            self.array(|r| {
                if k == len {
                    return Err(Error::custom(format!(
                        "more than {len} elements at byte {}",
                        r.pos
                    )));
                }
                each(r, k)?;
                k += 1;
                Ok(())
            })?;
            if k == len {
                Ok(())
            } else {
                Err(Error::custom(format!(
                    "{k} elements where {len} were expected, in the array after byte {start}"
                )))
            }
        }

        /// Reads the next value, which must be an object, handing each key
        /// (unescaped, in document order, repeats included) to `each`,
        /// which must read exactly one value: the key's.
        pub fn object(
            &mut self,
            mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
        ) -> Result<(), Error> {
            self.open(b'{', "an object")?;
            if self.close(b'}') {
                return Ok(());
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.literal(":")?;
                each(self, key)?;
                self.skip_ws();
                match self.text.as_bytes().get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(());
                    }
                    _ => {
                        return Err(Error::custom(format!(
                            "expected `,` or `}}` at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }

        /// Consumes the opening `bracket` of the next value and descends.
        fn open(&mut self, bracket: u8, what: &str) -> Result<(), Error> {
            if self.peek()? != bracket {
                return Err(Error::custom(format!(
                    "expected {what} at byte {}",
                    self.pos
                )));
            }
            self.pos += 1;
            self.depth += 1;
            Ok(())
        }

        /// After [`Reader::open`]: consumes an immediate `bracket` (an
        /// empty container) and ascends.
        fn close(&mut self, bracket: u8) -> bool {
            self.skip_ws();
            let empty = self.text.as_bytes().get(self.pos) == Some(&bracket);
            if empty {
                self.pos += 1;
                self.depth -= 1;
            }
            empty
        }

        fn skip_ws(&mut self) {
            let bytes = self.text.as_bytes();
            while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn literal(&mut self, lit: &str) -> Result<(), Error> {
            let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
            if rest.starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(())
            } else {
                Err(Error::custom(format!(
                    "expected `{lit}` at byte {}",
                    self.pos
                )))
            }
        }

        /// Reads a string token at the cursor. An escape-free string is a
        /// slice of the text; RFC 8259 §7 requires U+0000–U+001F escaped,
        /// so a raw one is an error.
        fn parse_string(&mut self) -> Result<Cow<'a, str>, Error> {
            let bytes = self.text.as_bytes();
            if bytes.get(self.pos) != Some(&b'"') {
                return Err(Error::custom(format!(
                    "expected a string at byte {}",
                    self.pos
                )));
            }
            let start = self.pos;
            self.pos += 1;
            let mut unescaped: Option<String> = None;
            loop {
                // The run up to the next `"`, `\` or control byte: all ASCII,
                // so the run ends on a char boundary of the text.
                let rest = bytes.get(self.pos..).unwrap_or_default();
                let len = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(rest.len());
                let run = self.text.get(self.pos..self.pos + len).unwrap_or_default();
                self.pos += len;
                match bytes.get(self.pos) {
                    None => {
                        return Err(Error::custom(format!(
                            "unterminated string starting at byte {start}"
                        )))
                    }
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(match unescaped {
                            None => Cow::Borrowed(run),
                            Some(mut out) => {
                                out.push_str(run);
                                Cow::Owned(out)
                            }
                        });
                    }
                    Some(b'\\') => {
                        let out = unescaped.get_or_insert_with(String::new);
                        out.push_str(run);
                        self.escape(out)?;
                    }
                    Some(&control) => {
                        return Err(Error::custom(format!(
                            "unescaped control character U+{control:04X} in string at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }

        /// Appends the escape sequence at the cursor (a `\`) to `out`.
        fn escape(&mut self, out: &mut String) -> Result<(), Error> {
            let bytes = self.text.as_bytes();
            self.pos += 1;
            match bytes.get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{08}'),
                Some(b'f') => out.push('\u{0C}'),
                Some(b'u') => {
                    let hi = self.hex4(self.pos + 1)?;
                    self.pos += 4;
                    // Combine surrogate pairs; lone surrogates error.
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        if bytes.get(self.pos + 1) == Some(&b'\\')
                            && bytes.get(self.pos + 2) == Some(&b'u')
                        {
                            let lo = self.hex4(self.pos + 3)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error::custom(format!(
                                    "high surrogate not followed by a low surrogate at byte {}",
                                    self.pos + 1
                                )));
                            }
                            self.pos += 6;
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            return Err(Error::custom(format!(
                                "lone surrogate in string at byte {}",
                                self.pos - 5
                            )));
                        }
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).ok_or_else(|| {
                        Error::custom(format!("invalid \\u escape at byte {}", self.pos - 5))
                    })?);
                }
                _ => {
                    return Err(Error::custom(format!(
                        "invalid escape sequence at byte {}",
                        self.pos - 1
                    )))
                }
            }
            self.pos += 1;
            Ok(())
        }

        fn hex4(&self, pos: usize) -> Result<u32, Error> {
            let digits = self
                .text
                .as_bytes()
                .get(pos..pos + 4)
                .ok_or_else(|| Error::custom(format!("truncated \\u escape at byte {pos}")))?;
            std::str::from_utf8(digits)
                .ok()
                .and_then(|s| u32::from_str_radix(s, 16).ok())
                .ok_or_else(|| Error::custom(format!("invalid \\u escape at byte {pos}")))
        }

        /// Reads a number by the RFC 8259 §6 grammar
        /// (`-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`): an
        /// integer within `i128` is a [`Value::Int`], anything else a finite
        /// [`Value::Float`]. A literal out of `f64` range is an error, not
        /// an infinity.
        fn number(&mut self) -> Result<Value, Error> {
            let bytes = self.text.as_bytes();
            let start = self.pos;
            let digits = |pos: &mut usize| {
                let from = *pos;
                while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                    *pos += 1;
                }
                *pos - from
            };
            let mut pos = self.pos;
            if bytes.get(pos) == Some(&b'-') {
                pos += 1;
            }
            let int_start = pos;
            let int_digits = digits(&mut pos);
            if int_digits == 0 {
                return Err(Error::custom(format!("expected a number at byte {start}")));
            }
            if int_digits > 1 && bytes.get(int_start) == Some(&b'0') {
                return Err(Error::custom(format!(
                    "leading zero in number at byte {start}"
                )));
            }
            let mut integral = true;
            if bytes.get(pos) == Some(&b'.') {
                pos += 1;
                integral = false;
                if digits(&mut pos) == 0 {
                    return Err(Error::custom(format!(
                        "expected a digit after the decimal point at byte {pos}"
                    )));
                }
            }
            if matches!(bytes.get(pos), Some(b'e' | b'E')) {
                pos += 1;
                integral = false;
                if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                    pos += 1;
                }
                if digits(&mut pos) == 0 {
                    return Err(Error::custom(format!(
                        "expected a digit in the exponent at byte {pos}"
                    )));
                }
            }
            self.pos = pos;
            // The grammar above admits only ASCII.
            let text = self.text.get(start..pos).unwrap_or_default();
            if integral {
                if let Ok(i) = text.parse::<i128>() {
                    return Ok(Value::Int(i));
                }
            }
            match text.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(Value::Float(f)),
                _ => Err(Error::custom(format!(
                    "number literal `{text}` at byte {start} is out of range"
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(json::to_string(&42u64), "42");
        assert_eq!(json::from_str::<u64>("42").unwrap(), 42);
        assert_eq!(json::to_string(&true), "true");
        assert!(!json::from_str::<bool>("false").unwrap());
        assert_eq!(json::to_string(&"a\"b\\c\n".to_string()), r#""a\"b\\c\n""#);
        assert_eq!(
            json::from_str::<String>(r#""a\"b\\c\n""#).unwrap(),
            "a\"b\\c\n"
        );
        assert_eq!(json::to_string(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(json::from_str::<Vec<u32>>("[1, 2, 3]").unwrap(), [1, 2, 3]);
        assert_eq!(json::to_string(&Option::<u8>::None), "null");
        assert_eq!(json::from_str::<Option<u8>>("7").unwrap(), Some(7));
        assert_eq!(json::to_string(&(1u8, "x".to_string())), r#"[1,"x"]"#);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for f in [
            0.0f64,
            -0.0,
            1.5,
            1.0 / 3.0,
            6.02214076e23,
            f64::MIN_POSITIVE,
            f64::MAX,
            262144.0,
        ] {
            let text = json::to_string(&f);
            let back: f64 = json::from_str(&text).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {text}");
        }
        // Non-finite values use the tagged-string encoding.
        assert_eq!(json::to_string(&f64::INFINITY), "\"inf\"");
        assert!(json::from_str::<f64>("\"NaN\"").unwrap().is_nan());
        assert_eq!(
            json::from_str::<f64>("\"-inf\"").unwrap(),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn nested_values_parse() {
        let v = json::parse(r#"{"a": [1, 2.5, null], "b": {"c": "d"}}"#).unwrap();
        assert_eq!(v.field("a").unwrap().array_of(3, "a").unwrap().len(), 3);
        assert_eq!(
            v.field("b").unwrap().field("c").unwrap(),
            &Value::String("d".into())
        );
        assert!(v.field("missing").is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            json::from_str::<String>(r#""\u00e9\ud83d\ude00""#).unwrap(),
            "é😀"
        );
        let printed = json::to_string(&"control\u{01}".to_string());
        assert_eq!(printed, r#""control\u0001""#);
        assert_eq!(json::from_str::<String>(&printed).unwrap(), "control\u{01}");
    }

    #[test]
    fn malformed_documents_error() {
        assert!(json::parse("").is_err());
        assert!(json::parse("[1, 2").is_err());
        assert!(json::parse("{\"a\" 1}").is_err());
        assert!(json::parse("12 34").is_err());
        assert!(json::parse("\"lone \\ud800\"").is_err());
        // A high surrogate followed by a non-low-surrogate escape must be a
        // parse error, not a panic (regression: u32 underflow).
        assert!(json::parse("\"\\ud800\\u0041\"").is_err());
        assert!(json::parse("\"\\ud800\\ud800\"").is_err());
        assert!(json::from_str::<u8>("300").is_err());
        assert!(json::from_str::<bool>("\"yes\"").is_err());
        // Numbers follow RFC 8259 §6, and a literal out of `f64` range is
        // an error rather than an infinity (which would print back as the
        // string `"inf"`). Each error names a byte position.
        for (doc, at) in [
            ("+1", 0),
            ("01", 0),
            ("-01", 0),
            ("00", 0),
            ("1.", 2),
            (".5", 0),
            ("-", 0),
            ("-.5", 0),
            ("1e", 2),
            ("1e+", 3),
            ("1.e5", 2),
            ("1.5e400", 0),
            ("-1e309", 0),
            ("[1, 01]", 4),
            ("{\"k\": +1}", 6),
        ] {
            let err = json::parse(doc).expect_err(doc).to_string();
            assert!(err.contains(&format!("at byte {at}")), "{doc}: {err}");
        }
        let big = format!("1{}", "0".repeat(400));
        assert!(json::parse(&big).is_err());
        // RFC 8259 §7: a raw U+0000–U+001F inside a string (keys included)
        // is an error naming the character and its byte; printing escapes
        // every one of them.
        for (doc, code, at) in [
            ("\"a\nb\"", "U+000A", 2),
            ("\"tab\there\"", "U+0009", 4),
            ("[\"\u{0}\"]", "U+0000", 2),
            ("{\"k\u{1f}\":1}", "U+001F", 3),
        ] {
            let err = json::parse(doc).expect_err(doc).to_string();
            assert!(
                err.contains(code) && err.contains(&format!("at byte {at}")),
                "{doc:?}: {err}"
            );
        }
        for c in '\u{0}'..='\u{1f}' {
            let printed = json::to_string(&c.to_string());
            assert!(
                printed.starts_with("\"\\"),
                "{c:?} printed raw: {printed:?}"
            );
            assert_eq!(json::from_str::<String>(&printed).unwrap(), c.to_string());
        }
        // What the grammar admits still parses.
        assert_eq!(json::parse("-0").unwrap(), Value::Int(0));
        assert_eq!(json::parse("0").unwrap(), Value::Int(0));
        assert_eq!(json::parse("-12").unwrap(), Value::Int(-12));
        assert_eq!(json::parse("0.5").unwrap(), Value::Float(0.5));
        assert_eq!(json::parse("-2.75e-3").unwrap(), Value::Float(-2.75e-3));
        assert_eq!(json::parse("1E+2").unwrap(), Value::Float(100.0));
        assert_eq!(json::parse("1e-400").unwrap(), Value::Float(0.0));
        assert_eq!(
            json::parse("123456789012345678901234567890").unwrap(),
            Value::Int(123456789012345678901234567890)
        );
        assert_eq!(
            json::parse("-999999999999999999").unwrap(),
            Value::Int(-999_999_999_999_999_999)
        );
        assert_eq!(
            json::parse("-170141183460469231731687303715884105728").unwrap(),
            Value::Int(i128::MIN)
        );
    }

    #[test]
    fn nesting_depth_is_capped() {
        // Regression: a hostile/corrupt document with pathological nesting
        // must produce a parse error, not a stack overflow. The recursion
        // budget is consumed per container level for arrays and objects
        // alike, including mixed nesting.
        let deep_array = format!("{}1{}", "[".repeat(4096), "]".repeat(4096));
        assert!(json::parse(&deep_array).is_err());
        let deep_object = format!("{}1{}", "{\"k\":".repeat(4096), "}".repeat(4096));
        assert!(json::parse(&deep_object).is_err());
        let mixed = format!("{}1{}", "[{\"k\":".repeat(2048), "}]".repeat(2048));
        assert!(json::parse(&mixed).is_err());
        // Exactly at the cap still parses; one past it does not.
        let at_cap = format!(
            "{}1{}",
            "[".repeat(json::MAX_DEPTH),
            "]".repeat(json::MAX_DEPTH)
        );
        let parsed = json::parse(&at_cap).expect("nesting at the cap parses");
        assert_ne!(parsed, Value::Null);
        let past_cap = format!(
            "{}1{}",
            "[".repeat(json::MAX_DEPTH + 1),
            "]".repeat(json::MAX_DEPTH + 1)
        );
        assert!(json::parse(&past_cap).is_err());
        // Deep but in-bounds real documents still round trip.
        let mut v = Value::Int(7);
        for _ in 0..100 {
            v = Value::Array(vec![v]);
        }
        let text = json::to_string(&v);
        assert_eq!(json::parse(&text).unwrap(), v);
    }

    #[test]
    fn strings_with_multi_byte_runs_parse() {
        for text in ["é", "aé😀b", "日本語", "😀😀", "x\u{7ff}\u{800}\u{ffff}y"] {
            let printed = json::to_string(&text.to_string());
            assert_eq!(json::from_str::<String>(&printed).unwrap(), text);
        }
        // Escapes directly before, between and after multi-byte characters.
        assert_eq!(
            json::from_str::<String>(r#""é\"日\\😀\n""#).unwrap(),
            "é\"日\\😀\n"
        );
        assert_eq!(json::from_str::<String>(r#""éé😀😀""#).unwrap(), "éé😀😀");
        assert_eq!(
            json::parse(r#"{"clé": ["ü", "\tß"]}"#).unwrap(),
            Value::Object(vec![(
                "clé".to_string(),
                Value::Array(vec![Value::String("ü".into()), Value::String("\tß".into())])
            )])
        );
    }

    #[test]
    fn unterminated_string_after_multi_byte_text_errors() {
        let err = json::parse("\"日本😀").unwrap_err();
        assert_eq!(
            err.to_string(),
            "serde: unterminated string starting at byte 0"
        );
        let err = json::parse("[1, \"é\\\"ü").unwrap_err();
        assert_eq!(
            err.to_string(),
            "serde: unterminated string starting at byte 4"
        );
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Regression: each character used to re-validate the rest of the
        // document, which made one 256 KiB string take seconds.
        let text = format!("{}{}", "aé😀".repeat(22_000), "b\\\"".repeat(22_000));
        let printed = json::to_string(&text);
        assert!(printed.len() >= 256 * 1024, "{} bytes", printed.len());
        let started = std::time::Instant::now();
        let back: String = json::from_str(&printed).unwrap();
        let took = started.elapsed();
        assert_eq!(back, text);
        assert!(
            took < std::time::Duration::from_secs(1),
            "a 256 KiB string took {took:?}"
        );
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        // A 301-digit integer (Rust prints huge floats without an exponent)
        // exceeds i128 and is carried as f64, exactly as printed.
        let text = json::to_string(&1e300f64);
        let v: f64 = json::from_str(&text).unwrap();
        assert_eq!(v, 1e300);
    }
}

//! Derive macros for the in-workspace `serde` shim.
//!
//! Unlike the pre-PR-4 shim (whose derives expanded to nothing), these macros
//! generate **working** `serde::Serialize` / `serde::Deserialize` impls, so
//! derived types round-trip through `serde::json`. The derived `Serialize`
//! implements only `write_json`, which appends the item's JSON straight into
//! a buffer (the trait's provided `serialize` parses that text when a caller
//! wants a `Value` tree). The derived `Deserialize` implements `deserialize`
//! over the shim's `Value` tree and `read_json`, which reads the value
//! `deserialize` would give straight from a `json::Reader` (named fields in
//! any order, the first of a repeated key, unknown keys read and dropped).
//! The build container has no crates.io access, hence no
//! `syn`/`quote`; the input item is parsed directly from its token stream and
//! the impl is emitted as source text. Supported shapes — everything this
//! workspace derives on:
//!
//! * structs with named fields (serialized as a JSON object keyed by field
//!   name);
//! * tuple structs (one field: the inner value, i.e. newtype transparency;
//!   several: a JSON array);
//! * unit structs (JSON `null`);
//! * enums, externally tagged like real serde: unit variants serialize as
//!   `"Variant"`, newtype/tuple variants as `{"Variant": payload}`, struct
//!   variants as `{"Variant": {..fields..}}`.
//!
//! Generic items are rejected with a compile error (nothing in the workspace
//! derives serde on a generic type). Field and variant attributes are skipped
//! verbatim, so doc comments are fine; `#[serde(...)]` customization is not
//! implemented.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (the shim's direct JSON writer).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derives `serde::Deserialize` (the shim's tree-model flavor).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, serialize: bool) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => return compile_error(&msg),
    };
    let src = if serialize {
        gen_serialize(&item)
    } else {
        gen_deserialize(&item)
    };
    src.parse().expect("generated impl parses")
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({:?});", msg)
        .parse()
        .expect("error literal parses")
}

// ---------------------------------------------------------------------------
// Input model & parser
// ---------------------------------------------------------------------------

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Skips leading attributes (`#[...]`) and a visibility modifier (`pub`,
/// optionally followed by a restriction group) starting at `i`.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => match tokens.get(i + 1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => i += 2,
                _ => return i,
            },
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Splits a token sequence on top-level commas, tracking `<...>` nesting so
/// commas inside generic argument lists (e.g. `Vec<(A, B)>`, `HashMap<K, V>`)
/// do not split. Delimited groups are atomic tokens, so their contents never
/// interfere.
fn split_top_level_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut angle_depth = 0i32;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    out.push(std::mem::take(&mut current));
                    continue;
                }
                _ => {}
            }
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

fn parse_named_fields(group_tokens: &[TokenTree]) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for seg in split_top_level_commas(group_tokens) {
        let i = skip_attrs_and_vis(&seg, 0);
        match seg.get(i) {
            Some(TokenTree::Ident(id)) => names.push(id.to_string()),
            Some(other) => return Err(format!("unexpected token in field list: `{other}`")),
            None => return Err("empty field in field list".into()),
        }
    }
    Ok(names)
}

fn parse_fields_group(g: &proc_macro::Group) -> Result<Fields, String> {
    let tokens: Vec<TokenTree> = g.stream().into_iter().collect();
    match g.delimiter() {
        Delimiter::Brace => Ok(Fields::Named(parse_named_fields(&tokens)?)),
        Delimiter::Parenthesis => Ok(Fields::Tuple(split_top_level_commas(&tokens).len())),
        _ => Err("unexpected delimiter in item body".into()),
    }
}

fn parse_variants(group_tokens: &[TokenTree]) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for seg in split_top_level_commas(group_tokens) {
        let i = skip_attrs_and_vis(&seg, 0);
        let name = match seg.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => return Err(format!("unexpected token in enum body: `{other}`")),
            None => return Err("empty variant in enum body".into()),
        };
        let fields = match seg.get(i + 1) {
            Some(TokenTree::Group(g)) => parse_fields_group(g)?,
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err(format!(
                    "variant `{name}`: explicit discriminants are not supported"
                ))
            }
            Some(other) => return Err(format!("variant `{name}`: unexpected token `{other}`")),
            None => Fields::Unit,
        };
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => "struct",
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => "enum",
        _ => return Err("serde derives support only structs and enums".into()),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err(format!("expected a name after `{kind}`")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "`{name}`: the serde shim derives do not support generic types"
            ));
        }
    }
    if kind == "enum" {
        let Some(TokenTree::Group(g)) = tokens.get(i) else {
            return Err(format!("enum `{name}`: expected a brace-delimited body"));
        };
        let body: Vec<TokenTree> = g.stream().into_iter().collect();
        return Ok(Item::Enum {
            name,
            variants: parse_variants(&body)?,
        });
    }
    // Struct: brace group (named), paren group (tuple, then `;`), or `;`.
    let fields = match tokens.get(i) {
        Some(TokenTree::Group(g)) => parse_fields_group(g)?,
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
        // `struct S where ...` is not used in this workspace.
        _ => return Err(format!("struct `{name}`: unsupported body shape")),
    };
    Ok(Item::Struct { name, fields })
}

// ---------------------------------------------------------------------------
// Code generation (emitted as source text, parsed back into a TokenStream)
// ---------------------------------------------------------------------------

/// A Rust string literal whose value is `text`.
fn lit(text: &str) -> String {
    format!("{text:?}")
}

/// Statements appending the JSON object `{"f":…,…}` of the named fields,
/// each field's value reached through `access(f)`, after `prefix`.
fn write_named(prefix: &str, fields: &[String], access: impl Fn(&str) -> String) -> String {
    let mut s = String::new();
    let mut pending = format!("{prefix}{{");
    for (k, f) in fields.iter().enumerate() {
        if k > 0 {
            pending.push(',');
        }
        pending.push_str(&format!("\"{f}\":"));
        s.push_str(&format!(
            "__out.push_str({});\n::serde::Serialize::write_json({}, __out);\n",
            lit(&pending),
            access(f)
        ));
        pending.clear();
    }
    pending.push('}');
    s.push_str(&format!("__out.push_str({});\n", lit(&pending)));
    s
}

/// Statements appending the JSON array `[…]` of `items`, after `prefix`
/// and before `suffix`.
fn write_array(prefix: &str, items: &[String], suffix: &str) -> String {
    let mut s = format!("__out.push_str({});\n", lit(&format!("{prefix}[")));
    for (k, item) in items.iter().enumerate() {
        if k > 0 {
            s.push_str("__out.push(',');\n");
        }
        s.push_str(&format!("::serde::Serialize::write_json({item}, __out);\n"));
    }
    s.push_str(&format!(
        "__out.push_str({});\n",
        lit(&format!("]{suffix}"))
    ));
    s
}

/// The body of the derived `write_json`, generated from the parsed
/// fields.
fn gen_write_json(item: &Item) -> String {
    match item {
        Item::Struct { fields, .. } => match fields {
            Fields::Named(names) => write_named("", names, |f| format!("&self.{f}")),
            Fields::Tuple(1) => "::serde::Serialize::write_json(&self.0, __out);".to_string(),
            Fields::Tuple(n) => {
                let items: Vec<String> = (0..*n).map(|k| format!("&self.{k}")).collect();
                write_array("", &items, "")
            }
            Fields::Unit => "__out.push_str(\"null\");".to_string(),
        },
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let tag = format!("{{\"{vname}\":");
                match &v.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => __out.push_str({}),\n",
                        lit(&format!("\"{vname}\""))
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(__f0) => {{\n__out.push_str({});\n\
                         ::serde::Serialize::write_json(__f0, __out);\n__out.push('}}');\n}}\n",
                        lit(&tag)
                    )),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => {{\n{}}}\n",
                            binds.join(", "),
                            write_array(&tag, &binds, "}")
                        ));
                    }
                    Fields::Named(fnames) => arms.push_str(&format!(
                        "{name}::{vname} {{ {} }} => {{\n{}__out.push('}}');\n}}\n",
                        fnames.join(", "),
                        write_named(&tag, fnames, |f| f.to_string())
                    )),
                }
            }
            format!("match self {{\n{arms}}}")
        }
    }
}

/// The derived `Serialize`: its one method, `write_json`.
fn gen_serialize(item: &Item) -> String {
    let (Item::Struct { name, .. } | Item::Enum { name, .. }) = item;
    format!(
        "#[automatically_derived]\n#[allow(clippy::all)]\nimpl ::serde::Serialize for {name} {{\n\
         fn write_json(&self, __out: &mut ::std::string::String) {{\n{}\n}}\n}}\n",
        gen_write_json(item)
    )
}

/// A block reading an object's named `fields` from `__r` into
/// `ctor { f: …, … }` (a struct or a struct variant): keys in any order,
/// the first of a repeated key wins (as with `Value::field`), and unknown
/// keys are read and dropped.
fn read_named(ctor: &str, fields: &[String]) -> String {
    let mut s = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for f in fields {
        s.push_str(&format!("let mut __f_{f} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "{f:?} if __f_{f}.is_none() => __f_{f} = ::std::option::Option::Some(::serde::Deserialize::read_json(__r)?),\n"
        ));
        inits.push(format!(
            "{f}: __f_{f}.ok_or_else(|| ::serde::Error::custom({}))?",
            lit(&format!("missing field `{f}`"))
        ));
    }
    s.push_str(&format!(
        "__r.object(|__r, __key| {{\nmatch &*__key {{\n{arms}_ => __r.skip()?,\n}}\n\
         ::std::result::Result::Ok(())\n}})?;\n{ctor} {{ {} }}",
        inits.join(", ")
    ));
    format!("{{\n{s}\n}}")
}

/// A block reading an array of exactly `n` elements from `__r` into
/// `ctor(…)` (a tuple struct or a tuple variant).
fn read_tuple(ctor: &str, what: &str, n: usize) -> String {
    let mut s = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for k in 0..n {
        s.push_str(&format!("let mut __f{k} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "{k} => __f{k} = ::std::option::Option::Some(::serde::Deserialize::read_json(__r)?),\n"
        ));
        inits.push(format!(
            "__f{k}.ok_or_else(|| ::serde::Error::custom({}))?",
            lit(&format!("expected {n} elements for {what}"))
        ));
    }
    s.push_str(&format!(
        "__r.tuple({n}, |__r, __k| {{\nmatch __k {{\n{arms}_ => {{}}\n}}\n\
         ::std::result::Result::Ok(())\n}})?;\n{ctor}({})",
        inits.join(", ")
    ));
    format!("{{\n{s}\n}}")
}

/// The body of the derived `read_json`: the value `deserialize` gives for
/// the same document, read token by token from the same parsed fields. A
/// unit struct keeps the provided method, which reads `null` as one token.
fn gen_read_json(item: &Item) -> Option<String> {
    let ok = |e: String| format!("::std::result::Result::Ok({e})");
    match item {
        Item::Struct { name, fields } => match fields {
            Fields::Named(names) => Some(ok(read_named(name, names))),
            Fields::Tuple(1) => Some(ok(format!("{name}(::serde::Deserialize::read_json(__r)?)"))),
            Fields::Tuple(n) => Some(ok(read_tuple(name, name, *n))),
            Fields::Unit => None,
        },
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut payload_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let ctor = format!("{name}::{vname}");
                match &v.fields {
                    Fields::Unit => unit_arms.push_str(&format!(
                        "{vname:?} => ::std::result::Result::Ok({ctor}),\n"
                    )),
                    Fields::Tuple(1) => payload_arms.push_str(&format!(
                        "{vname:?} => {ctor}(::serde::Deserialize::read_json(__r)?),\n"
                    )),
                    Fields::Tuple(n) => payload_arms
                        .push_str(&format!("{vname:?} => {},\n", read_tuple(&ctor, vname, *n))),
                    Fields::Named(fnames) => payload_arms
                        .push_str(&format!("{vname:?} => {},\n", read_named(&ctor, fnames))),
                }
            }
            let not_enum = format!(
                "::serde::Error::custom({})",
                lit(&format!("expected a {name} enum value"))
            );
            // `{"Variant": payload}`: exactly one entry.
            let tagged = if payload_arms.is_empty() {
                format!("::std::result::Result::Err({not_enum})")
            } else {
                format!(
                    "let mut __out = ::std::option::Option::None;\n\
                     __r.object(|__r, __tag| {{\n\
                     if __out.is_some() {{\nreturn ::std::result::Result::Err({not_enum});\n}}\n\
                     __out = ::std::option::Option::Some(match &*__tag {{\n{payload_arms}\
                     __other => return ::std::result::Result::Err(::serde::Error::custom(format!(\"unknown variant `{{__other}}` of {name}\"))),\n}});\n\
                     ::std::result::Result::Ok(())\n}})?;\n\
                     __out.ok_or_else(|| {not_enum})"
                )
            };
            Some(format!(
                "match __r.peek()? {{\n\
                 b'\"' => match &*__r.string()? {{\n{unit_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(format!(\"unknown unit variant `{{__other}}` of {name}\"))),\n}},\n\
                 _ => {{\n{tagged}\n}}\n}}"
            ))
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let read_json = gen_read_json(item).map_or(String::new(), |body| {
        format!(
            "fn read_json(__r: &mut ::serde::json::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n"
        )
    });
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(names) => {
                    let inits: Vec<String> = names
                        .iter()
                        .map(|f| {
                            format!("{f}: ::serde::Deserialize::deserialize(__v.field({f:?})?)?")
                        })
                        .collect();
                    format!(
                        "::std::result::Result::Ok({name} {{ {} }})",
                        inits.join(", ")
                    )
                }
                Fields::Tuple(1) => format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__v)?))"
                ),
                Fields::Tuple(n) => {
                    let inits: Vec<String> = (0..*n)
                        .map(|k| format!("::serde::Deserialize::deserialize(&__items[{k}])?"))
                        .collect();
                    format!(
                        "let __items = __v.array_of({n}, {name:?})?;\n\
                         ::std::result::Result::Ok({name}({}))",
                        inits.join(", ")
                    )
                }
                Fields::Unit => format!(
                    "match __v {{\n\
                     ::serde::Value::Null => ::std::result::Result::Ok({name}),\n\
                     _ => ::std::result::Result::Err(::serde::Error::custom(format!(\"expected null for unit struct {name}\"))),\n\
                     }}"
                ),
            };
            format!(
                "#[automatically_derived]\n#[allow(clippy::all)]\nimpl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n{read_json}}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut payload_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    Fields::Unit => unit_arms.push_str(&format!(
                        "{vname:?} => ::std::result::Result::Ok({name}::{vname}),\n"
                    )),
                    Fields::Tuple(1) => payload_arms.push_str(&format!(
                        "{vname:?} => ::std::result::Result::Ok({name}::{vname}(::serde::Deserialize::deserialize(__payload)?)),\n"
                    )),
                    Fields::Tuple(n) => {
                        let inits: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Deserialize::deserialize(&__items[{k}])?"))
                            .collect();
                        payload_arms.push_str(&format!(
                            "{vname:?} => {{\nlet __items = __payload.array_of({n}, {vname:?})?;\n\
                             ::std::result::Result::Ok({name}::{vname}({}))\n}},\n",
                            inits.join(", ")
                        ));
                    }
                    Fields::Named(fnames) => {
                        let inits: Vec<String> = fnames
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::deserialize(__payload.field({f:?})?)?"
                                )
                            })
                            .collect();
                        payload_arms.push_str(&format!(
                            "{vname:?} => ::std::result::Result::Ok({name}::{vname} {{ {} }}),\n",
                            inits.join(", ")
                        ));
                    }
                }
            }
            format!(
                "#[automatically_derived]\n#[allow(clippy::all)]\nimpl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 match __v {{\n\
                 ::serde::Value::String(__s) => match __s.as_str() {{\n{unit_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(format!(\"unknown unit variant `{{__other}}` of {name}\"))),\n}},\n\
                 ::serde::Value::Object(__entries) if __entries.len() == 1 => {{\n\
                 let (__tag, __payload) = &__entries[0];\n\
                 match __tag.as_str() {{\n{payload_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(format!(\"unknown variant `{{__other}}` of {name}\"))),\n}}\n}},\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(format!(\"expected a {name} enum value\"))),\n\
                 }}\n}}\n{read_json}}}\n"
            )
        }
    }
}

//! **L008 transitive no-panic** — nothing reachable from the no-panic
//! surface may panic, anywhere in the workspace.
//!
//! L002 catches a panic token *written inside* the surface directories; this
//! rule walks the interprocedural call graph so that a helper in
//! `projtile_arith` or `projtile_lp` that panics three calls away from
//! `Engine::analyze` is a finding too. Sinks are:
//!
//! * panicking tokens (`.unwrap()`, `panic!`, `assert!`, …) in any
//!   in-workspace callee **outside** the surface directories (inside them,
//!   L002 already owns the token);
//! * bare slice/array indexing (`xs[i]`) and non-literal `/` / `%` — but
//!   only in functions *defined inside* the surface directories. The exact
//!   kernels (`lp`, `arith`, `loopnest`) index and divide by nature and pin
//!   their invariants with differential oracles; the surface must not.
//!
//! Every finding prints the full call chain from the surface entry to the
//! sink, so the fix (pushing a typed `Result` through the chain, or an
//! `allow` naming the invariant on any chain link) is mechanical. An
//! `// lint: allow(L008) <reason>` cuts the graph where it stands: on the
//! sink line it removes the sink, on a call line it removes the edge, and on
//! any `fn`'s own line it removes that node — every chain through that
//! function is cut, so one directive can excuse a function whose body is a
//! cluster of invariant-pinning asserts.

use std::collections::HashSet;

use crate::findings::Finding;
use crate::graph::CallSite;
use crate::lexer::Tok;
use crate::workspace::{Source, Workspace};

use super::{panics, Config, RuleCtx};

/// Rust keywords that may directly precede `[` (array literal) or a binary
/// operator position without being a value expression.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// One panic-capable token in a function body.
pub(super) struct Sink {
    pub line: u32,
    pub display: String,
}

/// Collects the sink tokens of node `id`'s body. `strict` adds the
/// indexing/division sinks (surface-defined fns only); `in_surface`
/// suppresses plain panic tokens (owned by L002 there). Token-level
/// `allow(L008)` cuts a sink unless `ignore_allows`.
fn sinks_of(
    src: &Source,
    body: (usize, usize),
    strict: bool,
    in_surface: bool,
    ignore_allows: bool,
) -> Vec<Sink> {
    let p = &src.parsed;
    let tokens = &p.tokens;
    let mut out = Vec::new();
    for i in body.0 + 1..body.1 {
        let line = tokens[i].line;
        let allowed = !ignore_allows && p.allow_line("L008", line).is_some();
        if !in_surface {
            if let Some(display) = panics::panic_token(p, i) {
                if !allowed {
                    out.push(Sink { line, display });
                }
                continue;
            }
        }
        if !strict {
            continue;
        }
        match tokens[i].tok {
            Tok::Punct('[') => {
                // Postfix indexing: `xs[i]` — prev is a value-ending token.
                // A keyword before `[` (`for kind in [...]`, `return [...]`)
                // starts an array literal instead.
                let indexing = match tokens.get(i.wrapping_sub(1)).map(|t| &t.tok) {
                    Some(Tok::Ident(s)) => !is_keyword(s),
                    Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
                    _ => false,
                };
                // `xs[..]` (RangeFull) cannot panic on slices.
                let full_range = matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('.')))
                    && matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('.')))
                    && matches!(tokens.get(i + 3).map(|t| &t.tok), Some(Tok::Punct(']')));
                if indexing && !full_range && !allowed {
                    out.push(Sink {
                        line,
                        display: "[index]".to_string(),
                    });
                }
            }
            Tok::Punct(op @ ('/' | '%')) => {
                let binary = match tokens.get(i.wrapping_sub(1)).map(|t| &t.tok) {
                    Some(Tok::Ident(s)) => !is_keyword(s),
                    Some(Tok::Num) | Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
                    _ => false,
                };
                let literal_rhs = matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Num));
                if binary && !literal_rhs && !allowed {
                    out.push(Sink {
                        line,
                        display: format!("{op}(non-literal)"),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Runs L008.
pub fn run(ws: &Workspace, cfg: &Config, ctx: &RuleCtx) -> Vec<Finding> {
    let g = &ctx.graph;
    let in_surface = |id: usize| {
        cfg.panic_scope
            .iter()
            .any(|d| ws.sources[g.nodes[id].src].under(d))
    };

    // Surface entries; an allow(L008) on the fn's own line removes it.
    let mut starts_all: Vec<usize> = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    for id in 0..g.nodes.len() {
        if !in_surface(id) {
            continue;
        }
        starts_all.push(id);
        let src = &ws.sources[g.nodes[id].src];
        if src.parsed.allow_line("L008", g.nodes[id].line).is_none() {
            starts.push(id);
        }
    }

    // Per-node sinks, with and without allow cuts.
    let n = g.nodes.len();
    let mut sinks: Vec<Vec<Sink>> = Vec::with_capacity(n);
    let mut direct = vec![false; n];
    let mut direct_raw = vec![false; n];
    for id in 0..n {
        let src = &ws.sources[g.nodes[id].src];
        let strict = in_surface(id);
        let s = sinks_of(src, g.nodes[id].body, strict, strict, false);
        direct[id] = !s.is_empty();
        direct_raw[id] = !sinks_of(src, g.nodes[id].body, strict, strict, true).is_empty();
        sinks.push(s);
    }

    // An allow on a call line cuts the edge; an allow on the callee fn's own
    // line cuts the node (every chain through it).
    let edge_ok = |caller: usize, e: &CallSite| -> bool {
        ws.sources[g.nodes[caller].src]
            .parsed
            .allow_line("L008", e.line)
            .is_none()
            && ws.sources[g.nodes[e.callee].src]
                .parsed
                .allow_line("L008", g.nodes[e.callee].line)
                .is_none()
    };
    let every_edge = |_: usize, _: &CallSite| true;

    // Findings: filtered BFS from the live entries.
    let parents = g.bfs_parents(&starts, &edge_ok);
    let mut findings = Vec::new();
    let mut seen: HashSet<(usize, u32, String)> = HashSet::new();
    for id in 0..n {
        if parents[id].is_none() || sinks[id].is_empty() {
            continue;
        }
        let chain = g.chain_to(&parents, id);
        let chain_text = g.chain_display(&chain);
        let chain_field = g.chain_field(ws, &chain);
        let path = ws.sources[g.nodes[id].src].path.clone();
        for s in &sinks[id] {
            if !seen.insert((id, s.line, s.display.clone())) {
                continue;
            }
            let fn_name = &g.nodes[id].name;
            findings.push(
                Finding::new(
                    "L008",
                    &path,
                    s.line,
                    format!("{fn_name}::{}", s.display),
                    format!(
                        "`{}` in `{fn_name}` is reachable from the no-panic surface \
                         via `{chain_text}`; push a typed Result through the chain, \
                         guard the operation, or add `// lint: allow(L008) <reason>` \
                         on a chain link",
                        s.display
                    ),
                )
                .with_chain(chain_field.clone()),
            );
        }
    }

    // Allow-consumption: a directive is live if, on the *uncut* graph, it
    // sits on a reachable sink, a reachable sink-ward edge, or a sinkful
    // entry — so L010 only flags allows that no longer suppress anything.
    let parents_raw = g.bfs_parents(&starts_all, &every_edge);
    let reach_raw = g.reach_flags(&direct_raw, &every_edge);
    for id in 0..n {
        let src = &ws.sources[g.nodes[id].src];
        if parents_raw[id].is_none() {
            continue;
        }
        // A fn-line allow is live when the uncut graph still reaches a sink
        // in or below this node (cutting the node suppresses something).
        if reach_raw[id] {
            if let Some(dl) = src.parsed.allow_line("L008", g.nodes[id].line) {
                ctx.mark_allow_used(&src.path, dl);
            }
        }
        let strict = in_surface(id);
        for s in sinks_of(src, g.nodes[id].body, strict, strict, true) {
            if let Some(dl) = src.parsed.allow_line("L008", s.line) {
                ctx.mark_allow_used(&src.path, dl);
            }
        }
        for e in &g.edges[id] {
            if reach_raw[e.callee] || direct_raw[e.callee] {
                if let Some(dl) = src.parsed.allow_line("L008", e.line) {
                    ctx.mark_allow_used(&src.path, dl);
                }
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::ParsedFile;
    use crate::rules::RuleCtx;
    use std::path::PathBuf;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace {
            root: PathBuf::from("/nonexistent"),
            sources: files
                .iter()
                .map(|(p, s)| Source {
                    path: p.to_string(),
                    parsed: ParsedFile::parse(s),
                })
                .collect(),
            ci_script: None,
            env_registry: None,
        };
        let cfg = Config::repo();
        let ctx = RuleCtx::new(&ws, &cfg);
        run(&ws, &cfg, &ctx)
    }

    #[test]
    fn transitive_panic_is_found_with_its_chain() {
        let findings = run_on(&[
            (
                "crates/core/src/engine/mod.rs",
                "pub fn entry(n: u64) -> u64 { projtile_kern::mid(n) }\n",
            ),
            (
                "crates/kern/src/lib.rs",
                "pub fn mid(n: u64) -> u64 { deep(n) }\n\
                 fn deep(n: u64) -> u64 { assert!(n > 0); n }\n",
            ),
        ]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].detail, "deep::assert!");
        assert_eq!(findings[0].chain.len(), 3);
        assert!(findings[0].chain[0].contains("entry"));
        assert!(findings[0].chain[2].contains("deep"));
    }

    #[test]
    fn an_allow_on_any_chain_link_suppresses() {
        // Call-line allow cuts the edge out of the surface.
        let on_call = run_on(&[
            (
                "crates/core/src/engine/mod.rs",
                "pub fn entry(n: u64) -> u64 {\n    \
                 // lint: allow(L008) callers validated n already\n    \
                 projtile_kern::mid(n)\n}\n",
            ),
            (
                "crates/kern/src/lib.rs",
                "pub fn mid(n: u64) -> u64 { deep(n) }\n\
                 fn deep(n: u64) -> u64 { assert!(n > 0); n }\n",
            ),
        ]);
        assert!(on_call.is_empty());
        // Fn-line allow on an intermediate link cuts the node.
        let on_node = run_on(&[
            (
                "crates/core/src/engine/mod.rs",
                "pub fn entry(n: u64) -> u64 { projtile_kern::mid(n) }\n",
            ),
            (
                "crates/kern/src/lib.rs",
                "// lint: allow(L008) the asserts below pin a checked invariant\n\
                 pub fn mid(n: u64) -> u64 { deep(n) }\n\
                 fn deep(n: u64) -> u64 { assert!(n > 0); n }\n",
            ),
        ]);
        assert!(on_node.is_empty());
    }

    #[test]
    fn mutual_recursion_does_not_hang_and_still_reaches() {
        let findings = run_on(&[
            (
                "crates/core/src/engine/mod.rs",
                "pub fn entry(n: u64) -> u64 { projtile_kern::ping(n) }\n",
            ),
            (
                "crates/kern/src/lib.rs",
                "pub fn ping(n: u64) -> u64 { if n == 0 { boom() } else { pong(n - 1) } }\n\
                 pub fn pong(n: u64) -> u64 { ping(n) }\n\
                 fn boom() -> u64 { panic!(\"fixture\") }\n",
            ),
        ]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].detail, "boom::panic!");
    }

    #[test]
    fn keyword_before_bracket_is_an_array_literal_not_indexing() {
        let findings = run_on(&[(
            "crates/core/src/engine/mod.rs",
            "pub fn f() -> u64 {\n    let mut t = 0;\n    \
             for k in [1u64, 2, 3] { t += k; }\n    t\n}\n",
        )]);
        assert!(findings.is_empty());
    }

    #[test]
    fn full_range_slicing_is_not_a_sink_but_indexing_is() {
        let findings = run_on(&[(
            "crates/core/src/engine/mod.rs",
            "pub fn whole(xs: &[u64]) -> &[u64] { &xs[..] }\n\
             pub fn head(xs: &[u64]) -> u64 { xs[0] }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].detail, "head::[index]");
    }
}

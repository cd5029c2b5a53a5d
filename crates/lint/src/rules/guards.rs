//! Guard liveness inside one function body, shared by L003 (no expensive
//! compute under a write guard) and L009 (no nested lock or blocking I/O
//! under any guard).
//!
//! A guard is acquired by a literal `.read()` / `.write()` / `.lock()` with
//! no arguments, or by a call to a workspace helper whose return type names
//! a guard. It stays live
//!
//! * to the end of its block when bound by `let`;
//! * to the end of its statement when it is a temporary — including a
//!   guard immediately consumed by further chaining
//!   (`caches.read().config()`), whose `let` binds the chained result, not
//!   the guard, and a guard borrowed as a call argument
//!   (`let m = metrics(&caches.read());`), whose `let` binds the call's
//!   result. A guard passed by value (`let g = Some(caches.read());`) may
//!   move into that result, so it counts as bound. Poison handling
//!   (`.unwrap()`, `.expect(..)`,
//!   `.unwrap_or_else(..)`) is not chaining: it passes the guard through
//!   to the `let`;
//! * until `drop(g)`, which ends a named guard early.

use std::collections::HashMap;

use crate::graph::{CallGraph, GuardKind};
use crate::lexer::{Tok, Token};
use crate::workspace::{Source, Workspace};

/// A guard live during a body walk.
pub struct LiveGuard {
    name: Option<String>,
    depth: usize,
    statement_only: bool,
    /// Shared or exclusive.
    pub kind: GuardKind,
}

/// Workspace fns whose return type names a guard: calling one acquires a
/// lock at the call site.
pub fn guard_helpers(g: &CallGraph) -> HashMap<&str, GuardKind> {
    g.nodes
        .iter()
        .filter_map(|nd| nd.guard_ret.map(|k| (nd.name.as_str(), k)))
        .collect()
}

/// If token `i` is a lock acquisition, returns the guard kind.
pub fn acquisition(
    src: &Source,
    i: usize,
    guard_helpers: &HashMap<&str, GuardKind>,
) -> Option<GuardKind> {
    let tokens = &src.parsed.tokens;
    let Tok::Ident(name) = &tokens[i].tok else {
        return None;
    };
    let called = matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
    if !called {
        return None;
    }
    let dotted = matches!(
        tokens.get(i.wrapping_sub(1)).map(|t| &t.tok),
        Some(Tok::Punct('.'))
    );
    let empty_args = matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(')')));
    if dotted && empty_args {
        match name.as_str() {
            "read" => return Some(GuardKind::Read),
            "write" | "lock" => return Some(GuardKind::Write),
            _ => {}
        }
    }
    if let Some(&kind) = guard_helpers.get(name.as_str()) {
        let is_def = matches!(
            tokens.get(i.wrapping_sub(1)).map(|t| &t.tok),
            Some(Tok::Ident(kw)) if kw == "fn"
        );
        if !is_def {
            return Some(kind);
        }
    }
    None
}

/// Methods that hand a lock result's guard straight through (poison
/// handling), so `let g = m.lock().unwrap();` still binds the guard.
const PASS_THROUGH: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// Index of the `)` matching the `(` at token `open`, if it closes before
/// `end`.
fn close_paren(tokens: &[Token], open: usize, end: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().take(end).skip(open) {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the acquisition call at token `i` is immediately chained
/// (`….read().config()`), making its guard a statement temporary. A
/// [`PASS_THROUGH`] call right after the acquisition is not chaining: it
/// yields the guard itself.
fn chained(tokens: &[Token], i: usize, end: usize) -> bool {
    let tok = |k: usize| tokens.get(k).map(|t| &t.tok);
    let mut close = close_paren(tokens, i + 1, end);
    while let Some(k) = close {
        if !matches!(tok(k + 1), Some(Tok::Punct('.'))) {
            return false;
        }
        let passes = matches!(tok(k + 2), Some(Tok::Ident(m)) if PASS_THROUGH.contains(&m.as_str()))
            && matches!(tok(k + 3), Some(Tok::Punct('(')));
        if !passes {
            return true;
        }
        close = close_paren(tokens, k + 3, end);
    }
    false
}

/// Whether the acquisition at token `i` is borrowed: `&` (or `&mut`)
/// before its receiver path (`&self.caches.read()`). A call given that
/// reference cannot keep the guard past the statement.
fn borrowed(tokens: &[Token], i: usize) -> bool {
    let tok = |k: usize| tokens.get(k).map(|t| &t.tok);
    let mut k = i;
    while k > 0 && matches!(tok(k - 1), Some(Tok::Ident(_) | Tok::Punct('.' | ':'))) {
        k -= 1;
    }
    k > 0 && matches!(tok(k - 1), Some(Tok::Punct('&')))
}

/// Walks node `id`'s body token by token (nested fn bodies are skipped;
/// they are nodes of their own), calling `visit(i, acquired, live)` with
/// the guards live *before* token `i` and, if token `i` acquires a guard,
/// its kind.
pub fn walk<F>(
    ws: &Workspace,
    g: &CallGraph,
    id: usize,
    guard_helpers: &HashMap<&str, GuardKind>,
    mut visit: F,
) where
    F: FnMut(usize, Option<GuardKind>, &[LiveGuard]),
{
    let src = &ws.sources[g.nodes[id].src];
    let tokens = &src.parsed.tokens;
    let (bs, be) = g.nodes[id].body;
    let children: Vec<(usize, usize)> = g.nodes_of_src[&g.nodes[id].src]
        .iter()
        .map(|&c| g.nodes[c].body)
        .filter(|&(cs, ce)| bs < cs && ce < be)
        .collect();

    let mut depth = 0usize;
    let mut brackets = 0usize;
    let mut parens = 0usize;
    let mut guards: Vec<LiveGuard> = Vec::new();
    // The binding name of the statement's `let`, if any, and the parens
    // open at the `let`: an acquisition inside more is in a call's
    // argument list.
    let mut pending_let: Option<(String, usize)> = None;
    let mut i = bs + 1;
    while i < be {
        if let Some(&(_, ce)) = children.iter().find(|&&(cs, _)| cs == i) {
            i = ce + 1;
            continue;
        }
        let acquired = acquisition(src, i, guard_helpers);
        visit(i, acquired, &guards);
        match &tokens[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|gd| gd.depth <= depth);
            }
            Tok::Punct('[') => brackets += 1,
            Tok::Punct(']') => brackets = brackets.saturating_sub(1),
            Tok::Punct('(') => parens += 1,
            Tok::Punct(')') => parens = parens.saturating_sub(1),
            Tok::Punct(';') if brackets == 0 => {
                pending_let = None;
                guards.retain(|gd| !(gd.statement_only && gd.depth == depth));
            }
            Tok::Ident(name) if name == "let" => {
                let mut j = i + 1;
                if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "mut") {
                    j += 1;
                }
                if let Some(Tok::Ident(b)) = tokens.get(j).map(|t| &t.tok) {
                    pending_let = Some((b.clone(), parens));
                }
            }
            Tok::Ident(name) if name == "drop" => {
                if let (Some(Tok::Punct('(')), Some(Tok::Ident(arg))) = (
                    tokens.get(i + 1).map(|t| &t.tok),
                    tokens.get(i + 2).map(|t| &t.tok),
                ) {
                    guards.retain(|gd| gd.name.as_deref() != Some(arg.as_str()));
                }
            }
            _ => {}
        }
        if let Some(kind) = acquired {
            let bound = match &pending_let {
                Some((name, open))
                    if !(chained(tokens, i, be) || (parens > *open && borrowed(tokens, i))) =>
                {
                    Some(name.clone())
                }
                _ => None,
            };
            let temporary = bound.is_none();
            guards.push(LiveGuard {
                name: bound,
                depth,
                statement_only: temporary,
                kind,
            });
        }
        i += 1;
    }
}

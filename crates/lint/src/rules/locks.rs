//! **L003 lock discipline** — never compute under a write lock.
//!
//! The [`Engine`]'s scaling contract is that misses compute *outside* its
//! one lock (solves can take milliseconds; a write guard held across one
//! serializes every reader of the engine). The convention survives only as
//! long as nothing called while an exclusive guard (`.write()`, `.lock()`,
//! or a helper returning one) is live can reach an expensive function.
//! Guard liveness is the walk shared with L009 (see [`super::guards`]).
//!
//! A finding is a call, under a live exclusive guard, to any function from
//! which the call graph reaches a configured expensive function (the
//! LP/enumeration entry points and `compute_detached`) at any depth — zero
//! included, so a direct call is a one-link chain. Every finding carries
//! its chain. Escape hatch: `// lint: allow(L003) <reason>` on the call
//! line.
//!
//! [`Engine`]: ../../projtile_core/engine/struct.Engine.html

use std::collections::HashMap;

use crate::findings::Finding;
use crate::graph::{CallSite, GuardKind};
use crate::lexer::Tok;
use crate::workspace::Workspace;

use super::{guards, Config, RuleCtx};

/// Runs L003.
pub fn run(ws: &Workspace, cfg: &Config, ctx: &RuleCtx) -> Vec<Finding> {
    let g = &ctx.graph;
    let guard_helpers = guards::guard_helpers(g);
    let direct: Vec<bool> = g
        .nodes
        .iter()
        .map(|nd| cfg.expensive_fns.contains(&nd.name))
        .collect();
    let every_edge = |_: usize, _: &CallSite| true;
    let reaches = g.reach_flags(&direct, &every_edge);

    let mut findings = Vec::new();
    for id in g.nodes_under(ws, &cfg.lock_scope) {
        let src = &ws.sources[g.nodes[id].src];
        let p = &src.parsed;
        let scope = &g.nodes[id].name;
        let mut edges_at: HashMap<usize, Vec<CallSite>> = HashMap::new();
        for e in &g.edges[id] {
            edges_at.entry(e.token).or_default().push(*e);
        }
        guards::walk(ws, g, id, &guard_helpers, |i, acquired, live| {
            if acquired.is_some() || !live.iter().any(|gd| gd.kind == GuardKind::Write) {
                return;
            }
            let Tok::Ident(name) = &p.tokens[i].tok else {
                return;
            };
            let Some(e) = edges_at
                .get(&i)
                .into_iter()
                .flatten()
                .find(|e| reaches[e.callee])
            else {
                return;
            };
            // A direct call to an expensive fn is a one-link chain.
            let chain = g.chain_to_flagged(e.callee, &direct, &every_edge);
            let sink = chain.last().map_or(name, |&(v, _)| &g.nodes[v].name);
            let line = p.tokens[i].line;
            let finding = Finding::new(
                "L003",
                &src.path,
                line,
                format!("{scope}::{name}->reaches-{sink}"),
                format!(
                    "`{name}` is called in `{scope}` while an exclusive lock guard is \
                     live and reaches `{sink}` via `{}`; compute before taking the \
                     lock (see the Engine's compute-outside-the-lock contract)",
                    g.chain_display(&chain)
                ),
            )
            .with_chain(g.chain_field(ws, &chain));
            match p.allow_line("L003", line) {
                Some(dl) => ctx.mark_allow_used(&src.path, dl),
                None => findings.push(finding),
            }
        });
    }
    findings
}

//! **L009 lock reachability** — while a lock guard (the engine's one lock,
//! a service mutex) is live, nothing reachable may take another lock or
//! perform blocking I/O.
//!
//! L003 keeps *expensive compute* out of lock scopes; this rule keeps the
//! two deadlock/latency shapes out that a reviewer cannot see locally:
//!
//! * **nested acquisition** — a callee (any depth away) that takes another
//!   `.read()` / `.write()` / `.lock()` while the caller's guard is live;
//!   the read→write upgrade shape (`.write()` while a read guard is live)
//!   is flagged explicitly, since it self-deadlocks on the one lock;
//! * **blocking I/O under a guard** — socket sends/receives, `fsync`s, and
//!   snapshot-store writes stall every user of the lock for the duration
//!   of the syscall; the [`Engine`]'s snapshot is built under its read
//!   lock, and the service publishes the text outside it.
//!
//! Guard liveness is the walk shared with L003 (see [`super::guards`]).
//! `// lint: allow(L009) <reason>` cuts the graph where it stands (sink
//! token, call edge, or acquisition line); on a `fn`'s own line it cuts the
//! node, excusing every chain through that function at once.
//!
//! [`Engine`]: ../../projtile_core/engine/struct.Engine.html

use std::collections::HashMap;

use crate::findings::Finding;
use crate::graph::{CallGraph, CallSite, GuardKind};
use crate::lexer::Tok;
use crate::workspace::{Source, Workspace};

use super::guards::{self, acquisition};
use super::{Config, RuleCtx};

/// Path-call roots that are always blocking I/O (`fs::write(…)`,
/// `File::create(…)`, `TcpStream::connect(…)`).
const IO_PATH_ROOTS: [&str; 5] = ["fs", "File", "OpenOptions", "TcpStream", "TcpListener"];

/// Whether token `i` is a blocking-I/O call: a configured method name after
/// `.`, or a path call rooted at `fs::` / `File::` / …
fn blocking_io(src: &Source, i: usize, cfg: &Config) -> bool {
    let tokens = &src.parsed.tokens;
    let Tok::Ident(name) = &tokens[i].tok else {
        return false;
    };
    if !matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
        return false;
    }
    let prev = tokens.get(i.wrapping_sub(1)).map(|t| &t.tok);
    if matches!(prev, Some(Tok::Punct('.'))) && cfg.blocking_io_methods.iter().any(|m| m == name) {
        return true;
    }
    if matches!(prev, Some(Tok::Punct(':')))
        && matches!(
            tokens.get(i.wrapping_sub(2)).map(|t| &t.tok),
            Some(Tok::Punct(':'))
        )
    {
        if let Some(Tok::Ident(root)) = tokens.get(i.wrapping_sub(3)).map(|t| &t.tok) {
            return IO_PATH_ROOTS.contains(&root.as_str());
        }
    }
    false
}

/// Scans node `id`'s body for direct sinks. Returns `(acquires, does_io)`;
/// token-level `allow(L009)` cuts a sink unless `ignore_allows`.
fn direct_sinks(
    ws: &Workspace,
    g: &CallGraph,
    id: usize,
    cfg: &Config,
    guard_helpers: &HashMap<&str, GuardKind>,
    ignore_allows: bool,
) -> (bool, bool) {
    let src = &ws.sources[g.nodes[id].src];
    let (bs, be) = g.nodes[id].body;
    let mut acquires = false;
    let mut does_io = false;
    for i in bs + 1..be {
        let cut = !ignore_allows
            && src
                .parsed
                .allow_line("L009", src.parsed.tokens[i].line)
                .is_some();
        if cut {
            continue;
        }
        // Helper calls are acquisitions *at the call site* for the walk, but
        // as a direct flag the helper's own `.write()` body already counts;
        // counting the call here too double-reports nothing and misses less.
        if acquisition(src, i, guard_helpers).is_some() {
            acquires = true;
        } else if blocking_io(src, i, cfg) {
            does_io = true;
        }
        if acquires && does_io {
            break;
        }
    }
    (acquires, does_io)
}

/// Runs L009.
pub fn run(ws: &Workspace, cfg: &Config, ctx: &RuleCtx) -> Vec<Finding> {
    let g = &ctx.graph;
    let n = g.nodes.len();
    let guard_helpers = guards::guard_helpers(g);

    // Direct and transitive sink summaries, allow-cut and raw.
    let mut acq = vec![false; n];
    let mut io = vec![false; n];
    let mut acq_raw = vec![false; n];
    let mut io_raw = vec![false; n];
    for id in 0..n {
        let (a, i) = direct_sinks(ws, g, id, cfg, &guard_helpers, false);
        acq[id] = a;
        io[id] = i;
        let (a, i) = direct_sinks(ws, g, id, cfg, &guard_helpers, true);
        acq_raw[id] = a;
        io_raw[id] = i;
    }
    // An allow on a call line cuts the edge; an allow on the callee fn's own
    // line cuts the node (every chain through it).
    let edge_ok = |caller: usize, e: &CallSite| -> bool {
        ws.sources[g.nodes[caller].src]
            .parsed
            .allow_line("L009", e.line)
            .is_none()
            && ws.sources[g.nodes[e.callee].src]
                .parsed
                .allow_line("L009", g.nodes[e.callee].line)
                .is_none()
    };
    let every_edge = |_: usize, _: &CallSite| true;
    let reach_acq = g.reach_flags(&acq, &edge_ok);
    let reach_io = g.reach_flags(&io, &edge_ok);
    let reach_acq_raw = g.reach_flags(&acq_raw, &every_edge);
    let reach_io_raw = g.reach_flags(&io_raw, &every_edge);

    let mut findings = Vec::new();
    // Callees invoked while a guard was live (for allow-consumption marking
    // of cuts deeper in their subgraphs).
    let mut under_guard_callees: Vec<usize> = Vec::new();

    for id in g.nodes_under(ws, &cfg.lock_scope).collect::<Vec<_>>() {
        let src = &ws.sources[g.nodes[id].src];
        let p = &src.parsed;
        let fn_name = &g.nodes[id].name;
        // An allow on this fn's own line excuses every finding in its body.
        let fn_allow = p.allow_line("L009", g.nodes[id].line);
        // Edges grouped by call token, for the under-guard callee check.
        let mut edges_at: HashMap<usize, Vec<CallSite>> = HashMap::new();
        for e in &g.edges[id] {
            edges_at.entry(e.token).or_default().push(*e);
        }
        // Suppression: a call-line allow, then the fn-line allow.
        let suppressed = |line: u32| -> bool {
            match p.allow_line("L009", line).or(fn_allow) {
                Some(dl) => {
                    ctx.mark_allow_used(&src.path, dl);
                    true
                }
                None => false,
            }
        };

        guards::walk(ws, g, id, &guard_helpers, |i, acquired, live| {
            if live.is_empty() {
                return;
            }
            let line = p.tokens[i].line;
            if let Some(kind) = acquired {
                let upgrade =
                    kind == GuardKind::Write && live.iter().any(|gd| gd.kind == GuardKind::Read);
                let (what, text) = if upgrade {
                    (
                        "read-write-upgrade",
                        "a `.write()` acquisition while a read guard is live \
                         self-deadlocks on the same lock",
                    )
                } else {
                    (
                        "nested-lock",
                        "a second lock acquisition while a guard is live risks \
                         deadlock; drop the first guard (or scope it) first",
                    )
                };
                if !suppressed(line) {
                    findings.push(Finding::new(
                        "L009",
                        &src.path,
                        line,
                        format!("{fn_name}::{what}"),
                        format!("in `{fn_name}`: {text}"),
                    ));
                }
                return;
            }
            if blocking_io(src, i, cfg) {
                if !suppressed(line) {
                    findings.push(Finding::new(
                        "L009",
                        &src.path,
                        line,
                        format!("{fn_name}::blocking-io"),
                        format!(
                            "blocking I/O in `{fn_name}` while a lock guard is \
                             live stalls every user of the lock; hoist the \
                             I/O out of the lock scope"
                        ),
                    ));
                }
                return;
            }
            for e in edges_at.get(&i).into_iter().flatten() {
                under_guard_callees.push(e.callee);
                // A fn-line allow on the callee cuts the node.
                let callee_src = &ws.sources[g.nodes[e.callee].src];
                if let Some(dl) = callee_src.parsed.allow_line("L009", g.nodes[e.callee].line) {
                    if reach_acq_raw[e.callee] || reach_io_raw[e.callee] {
                        ctx.mark_allow_used(&callee_src.path, dl);
                    }
                    continue;
                }
                let hits_lock = reach_acq[e.callee];
                if !hits_lock && !reach_io[e.callee] {
                    continue;
                }
                if suppressed(line) {
                    continue;
                }
                let (what, direct) = if hits_lock {
                    ("lock", &acq)
                } else {
                    ("io", &io)
                };
                let chain = g.chain_to_flagged(e.callee, direct, &edge_ok);
                findings.push(
                    Finding::new(
                        "L009",
                        &src.path,
                        line,
                        format!("{fn_name}::{}->reaches-{what}", g.nodes[e.callee].name),
                        format!(
                            "`{}` is called in `{fn_name}` while a lock guard \
                             is live and reaches {} via `{}`; hoist \
                             the call out of the lock scope or cut the chain \
                             with `// lint: allow(L009) <reason>`",
                            g.nodes[e.callee].name,
                            if hits_lock {
                                "another lock acquisition"
                            } else {
                                "blocking I/O"
                            },
                            g.chain_display(&chain)
                        ),
                    )
                    .with_chain(g.chain_field(ws, &chain)),
                );
                break; // one finding per call site
            }
        });
    }

    // Allow-consumption for cuts deeper in under-guard subgraphs: any
    // directive that removes a raw-reachable sink token or edge is live.
    let reachable = g.bfs_parents(&under_guard_callees, &every_edge);
    for id in 0..n {
        if reachable[id].is_none() {
            continue;
        }
        let src = &ws.sources[g.nodes[id].src];
        // A fn-line allow is live while the uncut graph still reaches a sink
        // in or below this node.
        if reach_acq_raw[id] || reach_io_raw[id] {
            if let Some(dl) = src.parsed.allow_line("L009", g.nodes[id].line) {
                ctx.mark_allow_used(&src.path, dl);
            }
        }
        let (bs, be) = g.nodes[id].body;
        for i in bs + 1..be {
            if acquisition(src, i, &guard_helpers).is_some() || blocking_io(src, i, cfg) {
                if let Some(dl) = src.parsed.allow_line("L009", src.parsed.tokens[i].line) {
                    ctx.mark_allow_used(&src.path, dl);
                }
            }
        }
        for e in &g.edges[id] {
            if reach_acq_raw[e.callee] || reach_io_raw[e.callee] {
                if let Some(dl) = src.parsed.allow_line("L009", e.line) {
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

    const LOCK: &str = "std::sync::RwLock<u32>";

    #[test]
    fn transitive_acquisition_under_a_guard_is_flagged_with_chain() {
        let src = format!(
            "fn helper(l: &{LOCK}) -> u32 {{ *l.write() }}\n\
             pub fn entry(l: &{LOCK}) -> u32 {{\n    \
             let g = l.read();\n    let v = helper(l);\n    drop(g);\n    v\n}}\n"
        );
        let findings = run_on(&[("crates/core/src/engine/mod.rs", &src)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].detail, "entry::helper->reaches-lock");
        assert!(findings[0].chain[0].contains("helper"));
    }

    #[test]
    fn read_write_upgrade_is_flagged_explicitly() {
        let src = format!(
            "pub fn entry(l: &{LOCK}) -> u32 {{\n    \
             let g = l.read();\n    let w = l.write();\n    drop(w);\n    drop(g);\n    0\n}}\n"
        );
        let findings = run_on(&[("crates/core/src/engine/mod.rs", &src)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].detail, "entry::read-write-upgrade");
    }

    #[test]
    fn chained_guard_is_a_temporary_even_under_let() {
        // `l.read().checked_add(1)` binds the chained result, not the guard;
        // the guard dies at the semicolon, so the write does not upgrade.
        let src = format!(
            "pub fn entry(l: &{LOCK}) -> u32 {{\n    \
             let n = l.read().checked_add(1).unwrap_or(0);\n    \
             let w = l.write();\n    drop(w);\n    n\n}}\n"
        );
        let findings = run_on(&[("crates/core/src/engine/mod.rs", &src)]);
        assert!(findings.is_empty(), "{:?}", findings[0].detail);
    }

    #[test]
    fn dropping_the_guard_ends_its_scope() {
        let src = format!(
            "fn helper(l: &{LOCK}) -> u32 {{ *l.write() }}\n\
             pub fn entry(l: &{LOCK}) -> u32 {{\n    \
             let g = l.read();\n    drop(g);\n    helper(l)\n}}\n"
        );
        let findings = run_on(&[("crates/core/src/engine/mod.rs", &src)]);
        assert!(findings.is_empty());
    }

    #[test]
    fn blocking_io_under_a_guard_is_flagged() {
        let src = format!(
            "pub fn entry(l: &{LOCK}) -> u32 {{\n    \
             let g = l.write();\n    let _ = std::fs::write(\"p\", \"x\");\n    *g\n}}\n"
        );
        let findings = run_on(&[("crates/core/src/engine/mod.rs", &src)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].detail, "entry::blocking-io");
    }
}

//! Whole-workspace symbol table and call graph.
//!
//! Built on the token-level parser (no `syn`, no type inference), the graph
//! deliberately **over-approximates** dispatch so that reachability-based
//! rules (L003 lock discipline, L008 transitive no-panic, L009 lock
//! reachability) err toward reporting:
//!
//! * free-function calls resolve through the file's module path and its
//!   flattened `use` declarations (groups, renames, and globs included);
//! * `Type::method(...)` resolves to every inherent/trait method of that
//!   name on that type name, anywhere in the workspace;
//! * `.method(...)` receiver calls resolve to **every** workspace method of
//!   that name (trait-object and generic dispatch cannot be narrowed without
//!   types, so all candidates get edges) — with two precision refinements:
//!   `self.method(...)` inside an `impl` block whose type has that inherent
//!   method resolves to exactly it, and names that shadow ubiquitous std
//!   container/iterator methods ([`STD_SHADOWED_METHODS`]: `len`, `iter`,
//!   `get`, …) never dispatch by name alone — on those, `vec.len()` edging
//!   to every workspace `len` drowns real findings in noise, so they
//!   require a typed receiver (`Type::m` or a narrowed `self.m`);
//! * a bare identifier naming a resolvable workspace fn (a fn-pointer or
//!   closure-captured reference, e.g. `par_map_with(xs, compute_detached)`)
//!   gets an edge, since the callee may run it.
//!
//! Code inside `#[cfg(test)]` regions and files under any `tests/` directory
//! contributes **no nodes and no edges**: panics there are the point.
//!
//! Cycles (mutual recursion) are handled by Tarjan SCC condensation:
//! [`CallGraph::reach_flags`] computes "this fn can reach a flagged fn"
//! summaries in one pass over the condensed DAG, and
//! [`CallGraph::bfs_parents`] recovers shortest call chains for findings.

use std::collections::HashMap;

use crate::lexer::Tok;
use crate::workspace::{Source, Workspace};

/// Method names that shadow ubiquitous `std` container/iterator/string APIs.
/// An untyped `.m(...)` call on one of these is almost always the std method
/// (`Vec::len`, `HashMap::insert`, …), so name-only dispatch would wire every
/// `vec.len()` in the workspace to every type that happens to define `len`.
/// These names only resolve through a typed receiver: `Type::m(...)` or
/// `self.m(...)` inside the defining impl.
pub const STD_SHADOWED_METHODS: [&str; 24] = [
    "len",
    "is_empty",
    "get",
    "get_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "contains",
    "contains_key",
    "insert",
    "remove",
    "push",
    "pop",
    "clear",
    "clone",
    "next",
    "extend",
    "keys",
    "values",
    "entry",
    "drain",
    "retain",
    "last",
    "first",
];

/// What kind of lock guard a helper returns (from its return-type idents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// Shared (`RwLockReadGuard`).
    Read,
    /// Exclusive (`RwLockWriteGuard`, `MutexGuard`).
    Write,
}

/// One function in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into `Workspace::sources` of the defining file.
    pub src: usize,
    /// Bare function name.
    pub name: String,
    /// Qualified display name, e.g. `projtile_core::engine::Engine::analyze`.
    pub qual: String,
    /// Self type if this is a method in an `impl` block.
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range in the file's token stream (`{` and `}` indices).
    pub body: (usize, usize),
    /// `Some` if the return type names a lock guard — the L003/L009 signal
    /// that calling this helper acquires a lock at the call site.
    pub guard_ret: Option<GuardKind>,
}

/// One call edge out of a function.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// Callee node id.
    pub callee: usize,
    /// 1-based line of the call token in the caller's file.
    pub line: u32,
    /// Token index of the callee name in the caller's file.
    pub token: usize,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All in-graph functions.
    pub nodes: Vec<FnNode>,
    /// Out-edges per node (indexed by node id).
    pub edges: Vec<Vec<CallSite>>,
    /// Method candidates by bare name (nodes with a self type).
    pub methods_by_name: HashMap<String, Vec<usize>>,
    /// Node ids per source index (same order as `Workspace::sources`).
    pub nodes_of_src: HashMap<usize, Vec<usize>>,
}

/// Per-file resolution context captured during construction.
struct FileCtx {
    /// Crate ident this file belongs to (`projtile_core`, `serde`, …).
    krate: String,
    /// File-level module path (from the path under `src/`).
    module: Vec<String>,
}

/// Directories whose sources never enter the graph (the linter itself is a
/// dev-tool, not linked into the service or kernels).
fn excluded(path: &str, exclude: &[String]) -> bool {
    exclude.iter().any(|d| {
        path.starts_with(d.as_str()) && matches!(path.as_bytes().get(d.len()), None | Some(b'/'))
    })
}

/// Whether `path` is an in-graph library/binary source.
fn in_graph_scope(path: &str) -> bool {
    (path.starts_with("src/")
        || path.starts_with("shims/")
        || (path.starts_with("crates/") && path.contains("/src/")))
        && !path.split('/').any(|seg| seg == "tests")
}

/// Derives (crate ident, file-level module path) from a workspace-relative
/// path: `crates/core/src/engine/shared.rs` → (`projtile_core`,
/// `[engine, shared]`); `mod.rs`/`lib.rs`/`main.rs` name their directory.
fn file_ctx(path: &str) -> Option<FileCtx> {
    let (krate, rest) = if let Some(rest) = path.strip_prefix("src/") {
        ("projtile".to_string(), rest)
    } else if let Some(rest) = path.strip_prefix("shims/") {
        let (shim, tail) = rest.split_once('/')?;
        let tail = tail.strip_prefix("src/").unwrap_or(tail);
        (shim.replace('-', "_"), tail)
    } else if let Some(rest) = path.strip_prefix("crates/") {
        let (dir, tail) = rest.split_once('/')?;
        let tail = tail.strip_prefix("src/")?;
        if let Some(bin) = tail.strip_prefix("bin/") {
            // Binary crates are standalone roots; give each a unique ident
            // so `crate::` inside them never aliases the library.
            let stem = bin.strip_suffix(".rs").unwrap_or(bin);
            return Some(FileCtx {
                krate: format!("bin_{}", stem.replace('-', "_")),
                module: Vec::new(),
            });
        }
        (format!("projtile_{}", dir.replace('-', "_")), tail)
    } else {
        return None;
    };
    let mut module: Vec<String> = rest
        .trim_end_matches(".rs")
        .split('/')
        .map(str::to_string)
        .collect();
    match module.last().map(String::as_str) {
        Some("lib") | Some("main") | Some("mod") => {
            module.pop();
        }
        _ => {}
    }
    Some(FileCtx { krate, module })
}

impl CallGraph {
    /// Builds the graph over every in-scope source of `ws`, excluding files
    /// under any of `exclude` (workspace-relative directory prefixes).
    pub fn build(ws: &Workspace, exclude: &[String]) -> CallGraph {
        let mut nodes: Vec<FnNode> = Vec::new();
        let mut nodes_of_src: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut ctxs: HashMap<usize, FileCtx> = HashMap::new();

        // Pass 1: nodes and resolution maps.
        let mut free: HashMap<(String, String, String), usize> = HashMap::new();
        let mut crate_free: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut methods: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut file_fns: HashMap<(usize, String), Vec<usize>> = HashMap::new();
        let mut crate_idents: HashMap<String, ()> = HashMap::new();

        for (si, src) in ws.sources.iter().enumerate() {
            if !in_graph_scope(&src.path) || excluded(&src.path, exclude) {
                continue;
            }
            let Some(ctx) = file_ctx(&src.path) else {
                continue;
            };
            crate_idents.insert(ctx.krate.clone(), ());
            for f in &src.parsed.fns {
                let Some(body) = f.body else { continue };
                if src.parsed.in_test_code(body.0) {
                    continue;
                }
                let mut mods = ctx.module.clone();
                mods.extend(f.module.iter().cloned());
                let mut qual = ctx.krate.clone();
                for m in &mods {
                    qual.push_str("::");
                    qual.push_str(m);
                }
                if let Some(t) = &f.self_type {
                    qual.push_str("::");
                    qual.push_str(t);
                }
                qual.push_str("::");
                qual.push_str(&f.name);
                let guard_ret = guard_kind_of(&f.ret_idents);
                let id = nodes.len();
                nodes.push(FnNode {
                    src: si,
                    name: f.name.clone(),
                    qual,
                    self_type: f.self_type.clone(),
                    line: f.line,
                    body,
                    guard_ret,
                });
                nodes_of_src.entry(si).or_default().push(id);
                file_fns.entry((si, f.name.clone())).or_default().push(id);
                crate_free
                    .entry((ctx.krate.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
                if let Some(t) = &f.self_type {
                    methods
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    methods_by_name.entry(f.name.clone()).or_default().push(id);
                } else {
                    let key = (ctx.krate.clone(), mods.join("::"), f.name.clone());
                    free.insert(key, id);
                }
            }
            ctxs.insert(si, ctx);
        }

        // Pass 2: edges.
        let resolver = Resolver {
            free,
            crate_free,
            methods,
            crate_idents,
        };
        let mut edges: Vec<Vec<CallSite>> = vec![Vec::new(); nodes.len()];
        for id in 0..nodes.len() {
            let si = nodes[id].src;
            let src = &ws.sources[si];
            let ctx = &ctxs[&si];
            // Child fn bodies nested inside this body get their own nodes;
            // skip their token ranges so calls attribute to the inner fn.
            let (bs, be) = nodes[id].body;
            let children: Vec<(usize, usize)> = nodes_of_src[&si]
                .iter()
                .map(|&c| nodes[c].body)
                .filter(|&(cs, ce)| bs < cs && ce < be)
                .collect();
            let mut out = Vec::new();
            collect_edges(
                src,
                si,
                ctx,
                nodes[id].self_type.as_deref(),
                (bs, be),
                &children,
                &resolver,
                &methods_by_name,
                &file_fns,
                &mut out,
            );
            edges[id] = out;
        }

        CallGraph {
            nodes,
            edges,
            methods_by_name,
            nodes_of_src,
        }
    }

    /// All nodes defined in files under any of `dirs`.
    pub fn nodes_under<'a>(
        &'a self,
        ws: &'a Workspace,
        dirs: &'a [String],
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.nodes.len())
            .filter(move |&id| dirs.iter().any(|d| ws.sources[self.nodes[id].src].under(d)))
    }

    /// Tarjan SCC condensation over the edge subset accepted by `edge_ok`.
    /// Components come out in reverse topological order (callees first).
    pub fn condensation(&self, edge_ok: &dyn Fn(usize, &CallSite) -> bool) -> Condensation {
        let n = self.nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut comp_of = vec![usize::MAX; n];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        let mut next = 0usize;

        // Iterative Tarjan (explicit frame stack: node + edge cursor).
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
                if *ei == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let mut descended = false;
                while *ei < self.edges[v].len() {
                    let e = self.edges[v][*ei];
                    *ei += 1;
                    if !edge_ok(v, &e) {
                        continue;
                    }
                    let w = e.callee;
                    if index[w] == usize::MAX {
                        frames.push((w, 0));
                        descended = true;
                        break;
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
                if descended {
                    continue;
                }
                // v is finished.
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp_of[w] = comps.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
        Condensation { comp_of, comps }
    }

    /// Computes per-node reachability flags: `out[v]` is true iff `v` can
    /// reach (through edges accepted by `edge_ok`, including zero steps) a
    /// node with `direct[w]` set. Cycle-safe via SCC condensation.
    pub fn reach_flags(
        &self,
        direct: &[bool],
        edge_ok: &dyn Fn(usize, &CallSite) -> bool,
    ) -> Vec<bool> {
        let cond = self.condensation(edge_ok);
        let mut comp_flag = vec![false; cond.comps.len()];
        // Components arrive callees-first, so one pass suffices.
        for (ci, comp) in cond.comps.iter().enumerate() {
            let mut flag = comp.iter().any(|&v| direct[v]);
            if !flag {
                'scan: for &v in comp {
                    for e in &self.edges[v] {
                        if edge_ok(v, e) && comp_flag[cond.comp_of[e.callee]] {
                            flag = true;
                            break 'scan;
                        }
                    }
                }
            }
            comp_flag[ci] = flag;
        }
        (0..self.nodes.len())
            .map(|v| comp_flag[cond.comp_of[v]])
            .collect()
    }

    /// Multi-source BFS. `parents[v]` is `Some((caller, line))` once reached
    /// (`(v, 0)` for the starts themselves); `None` if unreachable.
    pub fn bfs_parents(
        &self,
        starts: &[usize],
        edge_ok: &dyn Fn(usize, &CallSite) -> bool,
    ) -> Vec<Option<(usize, u32)>> {
        let mut parents: Vec<Option<(usize, u32)>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for &s in starts {
            if parents[s].is_none() {
                parents[s] = Some((s, 0));
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            for e in &self.edges[v] {
                if parents[e.callee].is_none() && edge_ok(v, e) {
                    parents[e.callee] = Some((v, e.line));
                    queue.push_back(e.callee);
                }
            }
        }
        parents
    }

    /// Reconstructs the call chain from a BFS start down to `node`:
    /// `[(start, 0), …, (node, line-of-the-call-into-node)]`.
    pub fn chain_to(&self, parents: &[Option<(usize, u32)>], node: usize) -> Vec<(usize, u32)> {
        let mut chain = vec![];
        let mut v = node;
        while let Some((p, line)) = parents[v] {
            chain.push((v, line));
            if p == v {
                break;
            }
            v = p;
        }
        chain.reverse();
        chain
    }

    /// Shortest chain from `from` to the nearest node with `flagged[v]`
    /// set, over the edges accepted by `edge_ok` (just `from` if none is
    /// reachable).
    pub fn chain_to_flagged(
        &self,
        from: usize,
        flagged: &[bool],
        edge_ok: &dyn Fn(usize, &CallSite) -> bool,
    ) -> Vec<(usize, u32)> {
        let parents = self.bfs_parents(&[from], edge_ok);
        (0..self.nodes.len())
            .filter(|&v| parents[v].is_some() && flagged[v])
            .map(|v| self.chain_to(&parents, v))
            .min_by_key(Vec::len)
            .unwrap_or_else(|| vec![(from, 0)])
    }

    /// Renders a chain as `a -> b -> c` using qualified names.
    pub fn chain_display(&self, chain: &[(usize, u32)]) -> String {
        chain
            .iter()
            .map(|&(v, _)| self.nodes[v].qual.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// A chain as finding `chain` entries: `qualified::name @ path:line`.
    pub fn chain_field(&self, ws: &Workspace, chain: &[(usize, u32)]) -> Vec<String> {
        chain
            .iter()
            .map(|&(v, _)| {
                let node = &self.nodes[v];
                format!(
                    "{} @ {}:{}",
                    node.qual, ws.sources[node.src].path, node.line
                )
            })
            .collect()
    }
}

/// SCC condensation result.
pub struct Condensation {
    /// Component id per node.
    pub comp_of: Vec<usize>,
    /// Members per component, in reverse topological order (callees first).
    pub comps: Vec<Vec<usize>>,
}

/// Guard kind implied by a return type's identifiers, if any.
fn guard_kind_of(ret_idents: &[String]) -> Option<GuardKind> {
    let mut kind = None;
    for id in ret_idents {
        if id.contains("Guard") {
            if id.contains("Read") {
                kind.get_or_insert(GuardKind::Read);
            } else {
                return Some(GuardKind::Write);
            }
        }
    }
    kind
}

/// Name-resolution maps shared across pass 2.
struct Resolver {
    free: HashMap<(String, String, String), usize>,
    crate_free: HashMap<(String, String), Vec<usize>>,
    methods: HashMap<(String, String), Vec<usize>>,
    crate_idents: HashMap<String, ()>,
}

impl Resolver {
    /// Resolves a `::`-separated path ending in a call, to candidate nodes.
    fn resolve_path(&self, segs: &[String], ctx: &FileCtx, src: &Source) -> Vec<usize> {
        let n = segs.len();
        if n == 0 {
            return Vec::new();
        }
        let name = &segs[n - 1];
        // `Type::method` / `…::Type::method` — type names are capitalized.
        if n >= 2 {
            let prev = &segs[n - 2];
            if prev.chars().next().is_some_and(char::is_uppercase) {
                if let Some(ids) = self.methods.get(&(prev.clone(), name.clone())) {
                    return ids.clone();
                }
                return Vec::new();
            }
        }
        // Expand a leading `use` alias once: `json::parse` where
        // `use serde::json;` maps json → serde::json.
        if n >= 2 {
            let s0 = &segs[0];
            if !matches!(s0.as_str(), "crate" | "self" | "super")
                && !self.crate_idents.contains_key(s0)
            {
                if let Some(u) = src.parsed.uses.iter().find(|u| &u.alias == s0) {
                    let mut expanded = u.path.clone();
                    expanded.extend(segs[1..].iter().cloned());
                    return self.resolve_absolute(&expanded, ctx);
                }
            }
        }
        self.resolve_absolute(segs, ctx)
    }

    /// Resolves a path whose leading segment is `crate`/`self`/`super`, a
    /// known crate ident, or a module relative to the current file.
    fn resolve_absolute(&self, segs: &[String], ctx: &FileCtx) -> Vec<usize> {
        let n = segs.len();
        let name = segs[n - 1].clone();
        // Re-check for a type segment after alias expansion.
        if n >= 2 && segs[n - 2].chars().next().is_some_and(char::is_uppercase) {
            return self
                .methods
                .get(&(segs[n - 2].clone(), name))
                .cloned()
                .unwrap_or_default();
        }
        let (krate, mods): (String, Vec<String>) = match segs[0].as_str() {
            "crate" => (ctx.krate.clone(), segs[1..n - 1].to_vec()),
            "self" => {
                let mut m = ctx.module.clone();
                m.extend(segs[1..n - 1].iter().cloned());
                (ctx.krate.clone(), m)
            }
            "super" => {
                let mut m = ctx.module.clone();
                let mut rest = 0usize;
                while rest < n - 1 && segs[rest] == "super" {
                    m.pop();
                    rest += 1;
                }
                m.extend(segs[rest..n - 1].iter().cloned());
                (ctx.krate.clone(), m)
            }
            s0 if self.crate_idents.contains_key(s0) => (s0.to_string(), segs[1..n - 1].to_vec()),
            _ => {
                // Relative: try as a submodule of the current module, then
                // as a crate-root module.
                let mut m = ctx.module.clone();
                m.extend(segs[..n - 1].iter().cloned());
                if let Some(&id) = self
                    .free
                    .get(&(ctx.krate.clone(), m.join("::"), name.clone()))
                {
                    return vec![id];
                }
                (ctx.krate.clone(), segs[..n - 1].to_vec())
            }
        };
        if let Some(&id) = self
            .free
            .get(&(krate.clone(), mods.join("::"), name.clone()))
        {
            return vec![id];
        }
        // Crate matched but the exact module didn't (re-exports, inline
        // modules): fall back to every free fn of that name in the crate.
        self.crate_free
            .get(&(krate, name))
            .cloned()
            .unwrap_or_default()
    }
}

/// Keywords and binders after which an identifier is a definition or
/// binding, never a function reference.
fn binder_before(tok: Option<&Tok>) -> bool {
    matches!(
        tok,
        Some(Tok::Ident(s)) if matches!(
            s.as_str(),
            "fn" | "mod" | "struct" | "enum" | "trait" | "type" | "use" | "let" | "for"
                | "impl" | "as" | "pub" | "crate" | "mut" | "ref" | "dyn" | "where" | "loop"
        )
    )
}

/// Walks one fn body, emitting call edges into `out`.
#[allow(clippy::too_many_arguments)]
fn collect_edges(
    src: &Source,
    si: usize,
    ctx: &FileCtx,
    self_ty: Option<&str>,
    body: (usize, usize),
    children: &[(usize, usize)],
    resolver: &Resolver,
    methods_by_name: &HashMap<String, Vec<usize>>,
    file_fns: &HashMap<(usize, String), Vec<usize>>,
    out: &mut Vec<CallSite>,
) {
    let tokens = &src.parsed.tokens;
    let (bs, be) = body;
    let mut i = bs + 1;
    while i < be {
        // Skip nested child fn bodies entirely.
        if let Some(&(_, ce)) = children.iter().find(|&&(cs, _)| cs == i) {
            i = ce + 1;
            continue;
        }
        let Tok::Ident(name) = &tokens[i].tok else {
            i += 1;
            continue;
        };
        let line = tokens[i].line;
        let next = tokens.get(i + 1).map(|t| &t.tok);
        let prev = if i > 0 {
            Some(&tokens[i - 1].tok)
        } else {
            None
        };
        let push_all = |ids: &[usize], out: &mut Vec<CallSite>| {
            for &callee in ids {
                out.push(CallSite {
                    callee,
                    line,
                    token: i,
                });
            }
        };
        if matches!(next, Some(Tok::Punct('('))) {
            match prev {
                Some(Tok::Punct('.')) => {
                    // Receiver method call. `self.m(...)` inside an impl
                    // whose type defines `m` resolves exactly; otherwise all
                    // workspace methods of this name are candidates
                    // (conservative dispatch) — except std-shadowed names,
                    // which never dispatch by name alone.
                    let on_self = matches!(
                        tokens.get(i.wrapping_sub(2)).map(|t| &t.tok),
                        Some(Tok::Ident(s)) if s == "self"
                    );
                    let narrowed = if on_self {
                        self_ty.and_then(|t| resolver.methods.get(&(t.to_string(), name.clone())))
                    } else {
                        None
                    };
                    if let Some(ids) = narrowed {
                        push_all(ids, out);
                    } else if !STD_SHADOWED_METHODS.contains(&name.as_str()) {
                        if let Some(ids) = methods_by_name.get(name) {
                            push_all(ids, out);
                        }
                    }
                }
                Some(Tok::Punct('!')) => {} // macro name, not a call
                Some(Tok::Punct(':'))
                    if matches!(
                        tokens.get(i.wrapping_sub(2)).map(|t| &t.tok),
                        Some(Tok::Punct(':'))
                    ) =>
                {
                    // Qualified path call: walk back to collect segments.
                    let mut segs = vec![name.clone()];
                    let mut k = i;
                    while k >= 3
                        && matches!(tokens[k - 1].tok, Tok::Punct(':'))
                        && matches!(tokens[k - 2].tok, Tok::Punct(':'))
                    {
                        if let Tok::Ident(s) = &tokens[k - 3].tok {
                            segs.insert(0, s.clone());
                            k -= 3;
                        } else {
                            break;
                        }
                    }
                    push_all(&resolver.resolve_path(&segs, ctx, src), out);
                }
                _ => {
                    // Unqualified call: same file first, then `use` aliases,
                    // then glob imports.
                    if let Some(ids) = file_fns.get(&(si, name.clone())) {
                        push_all(ids, out);
                    } else if let Some(u) = src.parsed.uses.iter().find(|u| &u.alias == name) {
                        push_all(&resolver.resolve_absolute(&u.path, ctx), out);
                    } else {
                        for u in src.parsed.uses.iter().filter(|u| u.alias == "*") {
                            let mut p = u.path.clone();
                            p.push(name.clone());
                            push_all(&resolver.resolve_absolute(&p, ctx), out);
                        }
                    }
                }
            }
        } else if name.chars().next().is_some_and(char::is_lowercase)
            && !matches!(next, Some(Tok::Punct(':')) | Some(Tok::Punct('!')))
            && !matches!(prev, Some(Tok::Punct('.')) | Some(Tok::Punct(':')))
            && !binder_before(prev)
        {
            // Bare identifier: a fn reference if it resolves exactly
            // (same file or a non-glob `use`) — fn pointers / closures.
            if let Some(ids) = file_fns.get(&(si, name.clone())) {
                push_all(ids, out);
            } else if let Some(u) = src.parsed.uses.iter().find(|u| &u.alias == name) {
                push_all(&resolver.resolve_absolute(&u.path, ctx), out);
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::ParsedFile;
    use std::path::PathBuf;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
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
        }
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).unwrap()
    }

    fn callees(g: &CallGraph, id: usize) -> Vec<String> {
        let mut v: Vec<String> = g.edges[id]
            .iter()
            .map(|e| g.nodes[e.callee].qual.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn file_ctx_derives_crate_and_module() {
        let c = file_ctx("crates/core/src/engine/shared.rs").unwrap();
        assert_eq!(c.krate, "projtile_core");
        assert_eq!(c.module, ["engine", "shared"]);
        let c = file_ctx("crates/core/src/engine/mod.rs").unwrap();
        assert_eq!(c.module, ["engine"]);
        let c = file_ctx("crates/lp/src/lib.rs").unwrap();
        assert_eq!(c.krate, "projtile_lp");
        assert!(c.module.is_empty());
        let c = file_ctx("shims/parking_lot/src/lib.rs").unwrap();
        assert_eq!(c.krate, "parking_lot");
        let c = file_ctx("crates/service/src/bin/projtile-serve.rs").unwrap();
        assert_eq!(c.krate, "bin_projtile_serve");
        let c = file_ctx("src/lib.rs").unwrap();
        assert_eq!(c.krate, "projtile");
    }

    #[test]
    fn cross_crate_paths_and_use_aliases_resolve() {
        let ws = ws_of(&[
            (
                "crates/lp/src/lib.rs",
                "pub fn solve() { helper(); }\npub fn helper() {}\n",
            ),
            (
                "crates/core/src/lib.rs",
                "use projtile_lp::solve as lp_solve;\n\
                 pub fn direct() { projtile_lp::solve(); }\n\
                 pub fn aliased() { lp_solve(); }\n",
            ),
        ]);
        let g = CallGraph::build(&ws, &[]);
        assert_eq!(callees(&g, node(&g, "direct")), ["projtile_lp::solve"]);
        assert_eq!(callees(&g, node(&g, "aliased")), ["projtile_lp::solve"]);
        assert_eq!(callees(&g, node(&g, "solve")), ["projtile_lp::helper"]);
    }

    #[test]
    fn method_calls_resolve_conservatively_across_types() {
        let ws = ws_of(&[
            (
                "crates/a/src/lib.rs",
                "pub struct X;\nimpl X { pub fn go(&self) {} }\n\
                 pub struct Y;\nimpl Y { pub fn go(&self) {} }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn caller(v: &dyn std::any::Any) { v.go(); }\n\
                 pub fn typed() { projtile_a::X::go(); }\n",
            ),
        ]);
        let g = CallGraph::build(&ws, &[]);
        // `.go()` cannot be narrowed: both X::go and Y::go get edges.
        assert_eq!(
            callees(&g, node(&g, "caller")),
            ["projtile_a::X::go", "projtile_a::Y::go"]
        );
        // `X::go()` narrows to the one type.
        assert_eq!(callees(&g, node(&g, "typed")), ["projtile_a::X::go"]);
    }

    #[test]
    fn cfg_test_code_contributes_no_nodes_or_edges() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { super::prod(); }\n}\n",
        )]);
        let g = CallGraph::build(&ws, &[]);
        assert_eq!(g.nodes.len(), 1);
        assert!(g.edges[0].is_empty());
    }

    #[test]
    fn mutual_recursion_condenses_and_reaches() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }\n\
             pub fn odd(n: u64) -> bool { if n == 0 { false } else { even(n - 1) } }\n\
             pub fn sink() { panic!(\"boom\"); }\n\
             pub fn entry(n: u64) { if even(n) { sink(); } }\n",
        )]);
        let g = CallGraph::build(&ws, &[]);
        let every_edge = |_: usize, _: &CallSite| true;
        let cond = g.condensation(&every_edge);
        // even/odd share a component.
        assert_eq!(
            cond.comp_of[node(&g, "even")],
            cond.comp_of[node(&g, "odd")]
        );
        let mut direct = vec![false; g.nodes.len()];
        direct[node(&g, "sink")] = true;
        let reach = g.reach_flags(&direct, &every_edge);
        assert!(reach[node(&g, "entry")]);
        assert!(reach[node(&g, "sink")]);
        assert!(!reach[node(&g, "even")]);
        let parents = g.bfs_parents(&[node(&g, "entry")], &every_edge);
        let chain = g.chain_to(&parents, node(&g, "sink"));
        assert_eq!(
            g.chain_display(&chain),
            "projtile_a::entry -> projtile_a::sink"
        );
    }

    #[test]
    fn bare_fn_reference_gets_an_edge() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub fn work(x: u64) -> u64 { x }\n\
             pub fn driver(xs: &[u64]) { run_with(xs, work); }\n\
             fn run_with(xs: &[u64], f: fn(u64) -> u64) { for &x in xs { f(x); } }\n",
        )]);
        let g = CallGraph::build(&ws, &[]);
        let c = callees(&g, node(&g, "driver"));
        assert!(c.contains(&"projtile_a::work".to_string()));
        assert!(c.contains(&"projtile_a::run_with".to_string()));
    }

    #[test]
    fn guard_returning_helper_is_detected() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "impl Pool {\n\
               fn wshard(&self, i: usize) -> RwLockWriteGuard<'_, E> { self.s[i].write() }\n\
               fn rshard(&self, i: usize) -> RwLockReadGuard<'_, E> { self.s[i].read() }\n\
               fn plain(&self) -> usize { 0 }\n\
             }\n",
        )]);
        let g = CallGraph::build(&ws, &[]);
        assert_eq!(
            g.nodes[node(&g, "wshard")].guard_ret,
            Some(GuardKind::Write)
        );
        assert_eq!(g.nodes[node(&g, "rshard")].guard_ret, Some(GuardKind::Read));
        assert_eq!(g.nodes[node(&g, "plain")].guard_ret, None);
    }

    #[test]
    fn glob_imports_resolve_free_fns() {
        let ws = ws_of(&[
            ("crates/a/src/util.rs", "pub fn tidy() {}\n"),
            (
                "crates/a/src/lib.rs",
                "use crate::util::*;\npub mod util;\npub fn caller() { tidy(); }\n",
            ),
        ]);
        let g = CallGraph::build(&ws, &[]);
        assert_eq!(callees(&g, node(&g, "caller")), ["projtile_a::util::tidy"]);
    }

    #[test]
    fn std_shadowed_method_names_do_not_dispatch_untyped() {
        let ws = ws_of(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Q;\nimpl Q { pub fn len(&self) -> usize { 0 } }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn untyped(v: &std::vec::Vec<u8>) -> usize { v.len() }\n\
                 pub fn typed(q: &projtile_a::Q) -> usize { projtile_a::Q::len(q) }\n",
            ),
        ]);
        let g = CallGraph::build(&ws, &[]);
        // `.len()` on an unknown receiver is almost always the std method,
        // even though `Q::len` shadows the name: no edge.
        assert!(callees(&g, node(&g, "untyped")).is_empty());
        // An explicit typed path still resolves.
        assert_eq!(callees(&g, node(&g, "typed")), ["projtile_a::Q::len"]);
    }

    #[test]
    fn self_receiver_narrows_shadowed_methods_to_the_inherent_impl() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub struct Q;\nimpl Q {\n    pub fn len(&self) -> usize { 1 }\n    \
             pub fn total(&self) -> usize { self.len() + 1 }\n}\n\
             pub struct R;\nimpl R { pub fn len(&self) -> usize { 2 } }\n",
        )]);
        let g = CallGraph::build(&ws, &[]);
        // `self.len()` inside `impl Q` dispatches to `Q::len` only — not to
        // `R::len`, and not to std.
        assert_eq!(callees(&g, node(&g, "total")), ["projtile_a::Q::len"]);
    }
}

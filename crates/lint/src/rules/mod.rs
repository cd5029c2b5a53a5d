//! The rule catalog and its configuration.
//!
//! Each rule is a pure function from the loaded [`Workspace`] (plus the
//! [`Config`] and the shared [`RuleCtx`] — the whole-workspace call graph
//! and the allow-consumption ledger) to findings. Rule ids are stable and
//! never reused; the full catalog with rationale and examples lives in
//! `docs/lints.md`.

use std::cell::RefCell;
use std::collections::HashSet;

use crate::findings::Finding;
use crate::graph::CallGraph;
use crate::workspace::Workspace;

mod allowdebt;
mod envreg;
mod guards;
mod hygiene;
mod lockreach;
mod locks;
mod oracle;
mod panics;
mod reach;
mod smoke;

/// Every rule id the catalog ships (L005 is retired and never reused).
pub const KNOWN_RULES: [&str; 9] = [
    "L001", "L002", "L003", "L004", "L006", "L007", "L008", "L009", "L010",
];

/// What the rules check and where. The defaults ([`Config::repo`]) encode
/// this workspace's conventions; tests substitute fixture paths.
#[derive(Debug, Clone)]
pub struct Config {
    /// L002/L008: directories whose non-test code must not panic — L002
    /// forbids panic tokens written *inside* them, L008 forbids call chains
    /// *out of* them that reach a panic anywhere in the workspace (and,
    /// within these directories only, bare indexing and non-literal `/`/`%`).
    pub panic_scope: Vec<String>,
    /// L003/L009: directories in which lock discipline is enforced.
    pub lock_scope: Vec<String>,
    /// L003: functions too expensive to reach, at any call depth, while a
    /// `.write()` guard is live (matched by bare function name).
    pub expensive_fns: Vec<String>,
    /// L001: directory prefixes under which `src/` definitions are scanned
    /// for `_cold` oracle pairs and `tests/` files count as joint coverage.
    pub oracle_scope: Vec<String>,
    /// L004: directory prefixes whose crate roots must also carry a
    /// `missing_docs` warning attribute (the `forbid(unsafe_code)`
    /// requirement applies to every crate root unconditionally).
    pub docs_scope: Vec<String>,
    /// L006: workspace-relative path of the env-var registry document.
    pub env_registry_path: String,
    /// L006: directory prefixes excluded from the env scan (the lint crate
    /// itself names `PROJTILE_*` patterns in its sources).
    pub env_scan_exclude: Vec<String>,
    /// L007: directories whose string literals define bench workload names.
    pub bench_src_dirs: Vec<String>,
    /// L008/L009: directories excluded from the call graph (the linter is a
    /// dev-tool — never linked into the service or the kernels).
    pub graph_exclude: Vec<String>,
    /// L009: method names whose receiver call counts as blocking I/O
    /// (socket/file writes, fsyncs); `fs::`/`File::`/`OpenOptions::`/
    /// `TcpStream::`/`TcpListener::` path calls count unconditionally.
    pub blocking_io_methods: Vec<String>,
}

impl Config {
    /// The projtile workspace's conventions (see `docs/lints.md`).
    pub fn repo() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        Config {
            panic_scope: s(&["crates/service/src", "crates/core/src/engine"]),
            lock_scope: s(&["crates/service/src", "crates/core/src/engine"]),
            expensive_fns: s(&[
                "compute_detached",
                "exponent_surface",
                "exponent_surface_cold",
                "exponent_vs_beta",
                "exponent_vs_beta_cold",
                "exponent_vs_beta_with",
                "enumerated_exponent",
                "enumerated_exponent_cold",
                "check_tightness",
                "check_tightness_surface",
                "arbitrary_bound_exponent",
                "solve_hbl",
                "parametric_rhs",
                "parametric_rhs_with",
                "parametric_rhs_box",
                "parametric_rhs_box_cold",
            ]),
            oracle_scope: s(&["crates"]),
            docs_scope: s(&["crates", "src"]),
            env_registry_path: "docs/operations.md".to_string(),
            env_scan_exclude: s(&["crates/lint"]),
            bench_src_dirs: s(&["crates/bench/src"]),
            graph_exclude: s(&["crates/lint"]),
            blocking_io_methods: s(&[
                "write_all",
                "write_fmt",
                "flush",
                "sync_all",
                "sync_data",
                "read_exact",
                "read_to_end",
                "read_to_string",
                "send",
                "send_to",
                "recv",
                "recv_from",
                "accept",
                "connect",
            ]),
        }
    }
}

/// State shared by the rules of one run: the interprocedural call graph and
/// the ledger of `// lint: allow` directives that actually suppressed (or
/// would suppress) a live finding — L010 flags the rest as stale.
pub struct RuleCtx {
    /// The whole-workspace call graph.
    pub graph: CallGraph,
    /// `(path, directive line)` of every consumed allow directive.
    used_allows: RefCell<HashSet<(String, u32)>>,
}

impl RuleCtx {
    /// Builds the shared context (graph construction happens here, once).
    pub fn new(ws: &Workspace, cfg: &Config) -> RuleCtx {
        RuleCtx {
            graph: CallGraph::build(ws, &cfg.graph_exclude),
            used_allows: RefCell::new(HashSet::new()),
        }
    }

    /// Records that the directive at `(path, line)` suppressed something.
    pub fn mark_allow_used(&self, path: &str, line: u32) {
        self.used_allows
            .borrow_mut()
            .insert((path.to_string(), line));
    }

    /// Whether the directive at `(path, line)` was consumed by any rule.
    pub fn allow_used(&self, path: &str, line: u32) -> bool {
        self.used_allows
            .borrow()
            .contains(&(path.to_string(), line))
    }
}

/// Runs every rule over the workspace, returning findings sorted by
/// `(path, line, rule)`.
pub fn run_all(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let ctx = RuleCtx::new(ws, cfg);
    let mut findings = Vec::new();
    findings.extend(oracle::run(ws, cfg, &ctx));
    findings.extend(panics::run(ws, cfg, &ctx));
    findings.extend(locks::run(ws, cfg, &ctx));
    findings.extend(hygiene::run(ws, cfg));
    findings.extend(envreg::run(ws, cfg, &ctx));
    findings.extend(smoke::run(ws, cfg));
    findings.extend(reach::run(ws, cfg, &ctx));
    findings.extend(lockreach::run(ws, cfg, &ctx));
    // L010 must run last: it audits the allow-consumption ledger.
    findings.extend(allowdebt::run(ws, cfg, &ctx));
    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.detail).cmp(&(&b.path, b.line, &b.rule, &b.detail))
    });
    findings
}

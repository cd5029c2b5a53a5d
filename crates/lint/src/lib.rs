//! `projtile-lint` — workspace static analysis that machine-checks the
//! repo's correctness conventions.
//!
//! The reproduction's soundness story (the paper's Theorems 2/3 served
//! bitwise-exactly at scale) rests on conventions no compiler enforces:
//! every warm path keeps a `_cold` differential oracle and is tested against
//! it; the service request path never unwinds except through `catch_unwind`;
//! the [`Engine`] never computes under its write lock; every crate
//! forbids `unsafe`; every `PROJTILE_*` knob is in the runbook; the CI
//! smoke-greps track real workload names. This crate turns those review-time
//! conventions into a CI gate.
//!
//! # Architecture
//!
//! * [`lexer`] — a real (if lossy) Rust lexer: raw/byte strings with hash
//!   fences, nested block comments, lifetimes vs. char literals. Rules see
//!   tokens, so `panic!` inside a string or comment can never be a finding.
//! * [`parser`] — item-level structure in the no-`syn` style of
//!   `shims/serde_derive`: brace scopes, attributes, `fn` bodies,
//!   `#[cfg(test)]` regions, and `// lint: allow(RULE) reason` directives.
//! * [`graph`] — the whole-workspace interprocedural call graph: a symbol
//!   table of free fns and inherent methods (test code contributes no
//!   nodes), module-path- and `use`-aware resolution, conservative
//!   over-approximation for untyped method dispatch, and SCC-condensed
//!   reachability so recursion in the kernels cannot hang a rule.
//! * [`rules`] — the catalog: token-level rules (L001 oracle-coverage,
//!   L002 no-panic surface, L004 crate hygiene, L006 env-var registry,
//!   L007 smoke-grep rot) and graph-backed rules (L003 lock discipline,
//!   L008 transitive no-panic, L009 lock reachability, L010 allow-debt)
//!   over a declarative [`rules::Config`].
//! * [`findings`] — stable finding identities, call chains, the checked-in
//!   baseline format, and machine-readable JSON output.
//! * [`workspace`] — file discovery (skipping `target/` and test fixtures).
//!
//! The `projtile-lint` binary runs the catalog over the workspace, exits
//! nonzero on any finding not suppressed by the baseline, and is wired into
//! `scripts/ci.sh` as a gating stage. The full rule catalog with rationale
//! and examples is documented in `docs/lints.md` (also served by
//! `projtile-lint --explain RULE`).
//!
//! [`Engine`]: ../projtile_core/engine/struct.Engine.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod findings;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod workspace;

use std::path::Path;

pub use findings::{Baseline, Finding};
pub use rules::Config;
pub use workspace::Workspace;

/// Loads the workspace at `root` and runs the whole rule catalog under
/// `config`, returning findings sorted by `(path, line, rule)`.
pub fn run_lint(root: &Path, config: &Config) -> Result<Vec<Finding>, String> {
    let ws = Workspace::load(root, &config.env_registry_path)?;
    Ok(rules::run_all(&ws, config))
}

//! Trace-driven cache lab for the projtile analysis service.
//!
//! The service's memo caches (`projtile_cachesim::BoundedLru` inside the
//! `Engine`) hold the paper's LP artifacts — Theorem-2
//! bounds, `2^d` subset enumerations, §7 exponent surfaces — under exact
//! LRU within a cost budget. Whether those budgets are *right* for real
//! traffic is an empirical question. This crate answers it with the classic
//! systems workflow:
//!
//! 1. **Record** ([`projtile_core::engine::TraceRecorder`], wired by
//!    `projtile-serve --trace-capacity`): the live engine appends one
//!    compact hashed event per query — nest and declaration-order keys,
//!    cache-canonical identity, install costs, and how the engine resolved
//!    it.
//! 2. **Replay** ([`replay`]): the drained
//!    [`projtile_core::engine::TraceDocument`] is pushed through the live
//!    cache type itself, one `BoundedLru` per family, making the live calls
//!    in the live order. Replaying a cold-start trace at the
//!    recorded budgets therefore reproduces the live hit/miss accounting
//!    **event for event** ([`replay::check_live`], the keystone
//!    differential pinned by this crate's tests and the repository's CI
//!    smoke stage); replaying at other budgets predicts what an engine with
//!    those budgets would have done.
//! 3. **Generate** ([`generate`]): a deterministic seeded workload generator
//!    (zipf / hotspot / mixed patterns over the paper's nest corpus) drives
//!    either an in-process engine or a live server through the service
//!    client, so cache experiments and service benchmarks never depend on
//!    production traffic being available.
//! 4. **Report** ([`report`]): a budget-sweep table with a concrete budget
//!    recommendation.
//!
//! The `projtile-lab` binary packages the workflow as `drive` / `drain` /
//! `replay` / `generate` subcommands; see `docs/tracing.md` for the
//! end-to-end operational recipe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod replay;
pub mod report;

pub use generate::{DriveStats, GeneratorConfig, Pattern, Workload};
pub use replay::{check_live, replay_document, Budgets, EventClass, ReplayError, ReplayReport};
pub use report::{budget_sweep, render_report, LabReport, SWEEP_SCALES};

//! A hardened TCP front end for the projtile analysis engine.
//!
//! The service answers the existing [`Query`]/[`AnalysisResult`] JSON over
//! a minimal HTTP/1.1 listener ([`std::net::TcpListener`]), with the
//! robustness properties a long-running exact-LP service needs — each one
//! deliberately fault-injectable ([`FaultPlan`]) and covered by the
//! integration suite:
//!
//! * **Read deadlines** — a client must deliver its whole request within
//!   [`ServerConfig::read_deadline`]; byte-dribbling clients are
//!   disconnected with `408`, and a client that stops reading its answers
//!   is disconnected once a write makes no progress for as long.
//! * **Persistent connections** — a connection carries request after
//!   request (HTTP/1.1 keep-alive) until the client closes it or asks to,
//!   a reply other than a `200` closes it, it idles between requests for
//!   the read deadline, or the server drains. [`Client`] keeps its
//!   connection between calls, so a caller pays connect, accept and the
//!   handoff to a connection thread once, not per request.
//! * **I/O apart from compute** — `accept` blocks, and each connection is
//!   read, routed and answered on a connection thread of its own (reused
//!   from a cache of idle ones), so silent or slow clients hold threads,
//!   never compute. `POST /analyze` parses, computes and serializes under
//!   one of [`ServerConfig::workers`] compute permits
//!   ([`admission::Permits`]). No thread polls: idle threads, the
//!   snapshot loop and drain all wait on condvars, and kept connections
//!   block in `recv` until a request, a close or a drain's shutdown.
//! * **Backpressure** — shedding happens at accept and is keyed on open
//!   connections: past `workers + queue_capacity` of them, a new one takes
//!   the place of the longest-idle kept connection, or is answered
//!   `503 + Retry-After` instead of queued when none is idle. An
//!   `/analyze` not admitted to compute within
//!   [`ServerConfig::queue_deadline`] of its start (accept, or a kept
//!   connection's first request byte) is shed the same way rather than
//!   computed late.
//! * **Panic isolation** — compute runs under
//!   [`std::panic::catch_unwind`]; a panicking request answers `500` and
//!   the engine stays consistent (computation happens outside the
//!   engine's lock, so an unwound request cannot poison shared state).
//! * **Exactness** — every served answer goes through
//!   [`Engine::answer_batch`] (which dedups canonically-equal
//!   queries within a request), so responses are bitwise-identical to the
//!   cold free-function oracles no matter how requests are dropped,
//!   retried, or replayed after a crash. A resident answer's JSON text is
//!   rendered once and copied into every response that carries it
//!   ([`projtile_core::engine::Answer::json`]).
//! * **Crash-safe persistence** — a background loop publishes snapshots
//!   through [`projtile_core::engine::SnapshotStore`] (atomic
//!   `snap.tmp` → fsync → rename, bounded retention), and startup restore
//!   walks back to the newest *valid* generation.
//! * **Observability** — `GET /metrics` surfaces cache metrics, the
//!   permit-wait depth, shed/panic/timeout counters, and latency
//!   histograms with p50/p99 and exact sums: per query kind, per request
//!   stage (pickup, read, admit, parse, engine, serialize, write) and per
//!   request from its start to the last byte written. The stage sums add
//!   up to the request sum ([`metrics`]).

//! # Wire protocol
//!
//! HTTP/1.1 with persistent connections (RFC 9112 §9.3); bodies are JSON.
//! A `200` to a request that did not send `Connection: close` answers
//! `connection: keep-alive` and the connection waits for the next request;
//! every other reply answers `connection: close` and closes. A connection
//! that ends before the first byte of a request — a bare connect and close,
//! or a kept connection the client drops — is no request: it is neither
//! answered nor counted.
//!
//! | Route | Body | Answer |
//! |---|---|---|
//! | `POST /analyze` | `{"nest": <LoopNest>, "queries": [<Query>…]}` | `{"results": [{"ok": <AnalysisResult>} \| {"err": "…"}…]}` |
//! | `GET /healthz` | — | `{"status":"ok"}` |
//! | `GET /metrics` | — | metrics JSON (see [`metrics`]) |
//! | `POST /admin/drain` | — | `{"draining":true}`, then graceful drain |
//!
//! Error taxonomy: `400` malformed JSON / invalid nest, `404` unknown
//! route, `405` wrong method, `408` read deadline exceeded, `413` body too
//! large, `500` worker panic, `503` shed (with `Retry-After`). Per-query
//! engine errors ride inside a `200` body as `{"err": …}` entries so one
//! bad query does not void its batch-mates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The no-panic request surface (lint rule L002), also enforced by clippy so
// plain `cargo clippy` flags a new unwrap before the lint stage runs. Test
// code (the `#[cfg(test)]` modules below) may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod client;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod server;

pub use client::{Client, ClientError, ClientTimings, RetryConfig};
pub use fault::FaultPlan;
pub use metrics::Metrics;
pub use server::{Server, ServerConfig, ServerHandle};

// Re-exported for doc links and downstream convenience: the wire types the
// service speaks are exactly the engine's, and `/metrics` documents parse
// into the workspace serde `Value` tree.
pub use projtile_core::engine::{AnalysisResult, Engine, Query};
pub use serde::Value;

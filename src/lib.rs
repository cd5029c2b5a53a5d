//! `projtile` — communication-optimal tilings for projective nested loops
//! with arbitrary bounds.
//!
//! This is the facade crate of the workspace reproducing Dinh & Demmel,
//! *"Communication-Optimal Tilings for Projective Nested Loops with Arbitrary
//! Bounds"* (SPAA 2020). It re-exports the sub-crates under stable paths so
//! applications only need a single dependency:
//!
//! * [`arith`] — exact big-integer / rational arithmetic;
//! * [`lp`] — the exact rational simplex solver, duality, and parametric LP;
//! * [`loopnest`] — the projective loop-nest IR and the paper's kernels;
//! * [`cachesim`] — LRU / ideal / set-associative word-granularity caches;
//! * [`core`] — lower bounds (Theorem 2), optimal tilings (LP 5.1), tightness
//!   (Theorem 3), closed forms (§6), parametric analysis (§7), and the
//!   [`core::engine`] session API (canonical nest interning, cross-query
//!   artifact reuse, batched typed queries) for repeated-query traffic;
//! * [`exec`] — schedules, trace generation, and measured communication;
//! * [`par`] — small data-parallel helpers on `std::thread::scope`;
//! * [`service`] — the hardened TCP front end (deadlines, backpressure,
//!   panic isolation, crash-safe snapshot lifecycle, fault injection) and
//!   its retrying client;
//! * [`lab`] — the trace-driven cache lab: record live query traces,
//!   replay them through the live memo cache at a sweep of budgets (exact
//!   at the recorded ones), and generate deterministic service load.
//!
//! # Quick start
//!
//! ```
//! use projtile::loopnest::builders;
//! use projtile::core::ProblemInstance;
//!
//! // A 512 x 512 x 4 matrix multiplication analysed against a 1024-word cache.
//! let nest = builders::matmul(512, 512, 4);
//! let instance = ProblemInstance::new(nest, 1024);
//!
//! // Theorem 2: the communication lower bound in words.
//! let words = instance.communication_lower_bound();
//! assert!(words >= 512.0 * 512.0); // at least the size of the big matrix
//!
//! // LP (5.1): an optimal rectangular tile that attains it.
//! let tiling = instance.optimal_tiling();
//! assert_eq!(tiling.tile_dims().len(), 3);
//!
//! // Theorem 3: tightness, checked exactly. The instance is backed by an
//! // engine session, so this reuses the artifacts of the calls above.
//! assert!(instance.check_tightness().tight);
//! ```
//!
//! For repeated-query traffic (a compiler pass, a JIT, a service), hold a
//! [`core::engine::Engine`] directly and feed it typed
//! [`core::engine::Query`] values — one at a time or as a batch. An
//! `Engine` is `Send + Sync`: share it by reference across threads.
//!
//! ```
//! use projtile::core::engine::{AnalysisResult, Engine, Query};
//! use projtile::loopnest::builders;
//!
//! let engine = Engine::new();
//! let nest = builders::matmul(512, 512, 4);
//! let answers = engine.analyze_batch(
//!     &nest,
//!     &[
//!         Query::LowerBound { cache_size: 1024 },
//!         Query::Tightness { cache_size: 1024 },
//!     ],
//! );
//! assert!(matches!(
//!     answers[0],
//!     Ok(AnalysisResult::LowerBound(_))
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use projtile_arith as arith;
pub use projtile_cachesim as cachesim;
pub use projtile_core as core;
pub use projtile_exec as exec;
pub use projtile_lab as lab;
pub use projtile_loopnest as loopnest;
pub use projtile_lp as lp;
pub use projtile_par as par;
pub use projtile_service as service;

/// The version of the workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}

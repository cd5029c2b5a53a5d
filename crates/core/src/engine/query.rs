//! Typed queries and wire-ready results for the [`crate::engine::Engine`].

use projtile_arith::Rational;
use projtile_lp::mplp::AffinePiece;
use projtile_lp::parametric::ValueFunction;
use projtile_lp::LpError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::bounds::{EnumeratedBound, LowerBound};
use crate::tightness::TightnessReport;

/// One analysis request against a loop nest. Every variant names the fast
/// memory size it is answered for; positions (`axis`, `axes`) refer to the
/// queried nest's own loop order.
///
/// Queries are plain serializable data, so a service front-end can accept
/// them off the wire and feed them to [`crate::engine::Engine::analyze_batch`]
/// unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Query {
    /// The strongest Theorem-2 exponent and communication lower bound, with
    /// its `(Q*, ŝ, ζ)` certificate (§4). Answered like
    /// [`crate::bounds::arbitrary_bound_exponent`].
    LowerBound {
        /// Fast-memory size `M` in words.
        cache_size: u64,
    },
    /// The paper's explicit `2^d` subset enumeration (§4). Answered like
    /// [`crate::bounds::enumerated_exponent`].
    EnumeratedBound {
        /// Fast-memory size `M` in words.
        cache_size: u64,
    },
    /// The optimal rectangular tiling from LP (5.1) (§5), as log-space
    /// exponents plus concrete integer tile edge lengths. Answered like
    /// [`crate::tiling_lp::optimal_tiling`].
    OptimalTiling {
        /// Fast-memory size `M` in words.
        cache_size: u64,
    },
    /// The executable Theorem-3 check (§5). Answered like
    /// [`crate::tightness::check_tightness`].
    Tightness {
        /// Fast-memory size `M` in words.
        cache_size: u64,
    },
    /// The multiparametric §7 exponent surface over a box of loop bounds.
    /// Answered like [`crate::parametric::exponent_surface`]; the full
    /// surface object is additionally memoized inside the engine (retrieve it
    /// via [`crate::engine::Engine::exponent_surface`]).
    Surface {
        /// Fast-memory size `M` in words.
        cache_size: u64,
        /// Swept loop positions (in the queried nest's order).
        axes: Vec<usize>,
        /// Per-axis lower loop bounds (≥ 1).
        lo_bounds: Vec<u64>,
        /// Per-axis upper loop bounds (≥ the matching lower bound).
        hi_bounds: Vec<u64>,
    },
    /// The one-dimensional §7 value function along one loop axis, all other
    /// bounds held at the queried nest's values. Answered like
    /// [`crate::parametric::exponent_vs_beta`].
    Slice {
        /// Fast-memory size `M` in words.
        cache_size: u64,
        /// Swept loop position (in the queried nest's order).
        axis: usize,
        /// Lower loop bound of the sweep (≥ 1).
        lo_bound: u64,
        /// Upper loop bound of the sweep (≥ `lo_bound`).
        hi_bound: u64,
    },
}

impl Query {
    /// The fast-memory size this query is answered for.
    pub fn cache_size(&self) -> u64 {
        match self {
            Query::LowerBound { cache_size }
            | Query::EnumeratedBound { cache_size }
            | Query::OptimalTiling { cache_size }
            | Query::Tightness { cache_size }
            | Query::Surface { cache_size, .. }
            | Query::Slice { cache_size, .. } => *cache_size,
        }
    }
}

/// Number of [`Query`] kinds (the length of [`QUERY_KIND_NAMES`]).
pub const QUERY_KIND_COUNT: usize = 6;

/// Stable wire names of the [`Query`] kinds, indexed by
/// [`query_kind_index`]. The service `/metrics` endpoint and the trace
/// documents of the cache lab both key per-kind counters by these
/// positions, so the order is part of the wire contract.
pub const QUERY_KIND_NAMES: [&str; QUERY_KIND_COUNT] = [
    "lower_bound",
    "enumerated_bound",
    "optimal_tiling",
    "tightness",
    "surface",
    "slice",
];

/// The stable position of `query`'s kind in [`QUERY_KIND_NAMES`].
pub fn query_kind_index(query: &Query) -> usize {
    match query {
        Query::LowerBound { .. } => 0,
        Query::EnumeratedBound { .. } => 1,
        Query::OptimalTiling { .. } => 2,
        Query::Tightness { .. } => 3,
        Query::Surface { .. } => 4,
        Query::Slice { .. } => 5,
    }
}

/// Hit/miss counters for one [`Query`] kind, as reported per kind by
/// [`crate::engine::Engine::cache_metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindCounters {
    /// Queries of this kind answered from a memoized result.
    pub hits: u64,
    /// Queries of this kind that had to compute.
    pub misses: u64,
}

/// The optimal tiling of LP (5.1) in wire-ready form: the log-space solution
/// plus the concrete integer tile. Carries exactly the data
/// [`crate::tiling_lp::optimal_tiling`] derives, minus the embedded nest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilingSummary {
    /// Optimal block exponents `λ_1..λ_d` (`b_i = M^{λ_i}`).
    pub lambda: Vec<Rational>,
    /// Optimal value `Σ λ_i` — the log (base `M`) of the tile cardinality.
    pub value: Rational,
    /// Concrete tile edge lengths `⌊M^{λ_i}⌋`, clamped to `[1, L_i]`.
    pub tile_dims: Vec<u64>,
}

/// A wire-ready digest of an [`crate::parametric::ExponentSurface`]: the
/// critical-region count and the distinct closed-form pieces, exact and
/// rendered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurfaceSummary {
    /// The swept loop positions (in the queried nest's order).
    pub axes: Vec<usize>,
    /// Number of critical regions of the decomposition.
    pub num_regions: usize,
    /// The distinct affine pieces `f(β) = c·β + k`, exact rationals.
    pub pieces: Vec<AffinePiece>,
    /// The pieces rendered over `β{name}` labels, e.g. `"1 + βk"`.
    pub rendered: Vec<String>,
}

/// A typed, serde-serializable answer to one [`Query`]. The variant always
/// matches the query variant; all payloads are bitwise-identical to what the
/// corresponding free function computes on the same nest (pinned by the
/// engine's differential tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnalysisResult {
    /// Answer to [`Query::LowerBound`].
    LowerBound(LowerBound),
    /// Answer to [`Query::EnumeratedBound`].
    EnumeratedBound(EnumeratedBound),
    /// Answer to [`Query::OptimalTiling`].
    OptimalTiling(TilingSummary),
    /// Answer to [`Query::Tightness`].
    Tightness(TightnessReport),
    /// Answer to [`Query::Surface`].
    Surface(SurfaceSummary),
    /// Answer to [`Query::Slice`].
    Slice(ValueFunction),
}

/// One [`AnalysisResult`] behind a shared handle, with its JSON text
/// rendered at most once, as returned by
/// [`crate::engine::Engine::answer_batch`]. A resident `LowerBound`,
/// `EnumeratedBound` or `OptimalTiling` answer is the cache entry itself, so
/// every hit on it shares one value and one rendered text; cloning an
/// `Answer` copies a pointer. Equality and `Debug` are by value.
#[derive(Clone)]
pub struct Answer(Arc<Rendered>);

struct Rendered {
    result: AnalysisResult,
    json: OnceLock<String>,
}

impl Answer {
    pub(crate) fn new(result: AnalysisResult) -> Answer {
        Answer(Arc::new(Rendered {
            result,
            json: OnceLock::new(),
        }))
    }

    /// The typed answer.
    pub fn result(&self) -> &AnalysisResult {
        &self.0.result
    }

    /// The typed answer by value: moved out when no other handle shares it,
    /// cloned otherwise.
    pub fn into_result(self) -> AnalysisResult {
        match Arc::try_unwrap(self.0) {
            Ok(rendered) => rendered.result,
            Err(shared) => shared.result.clone(),
        }
    }

    /// The answer as compact JSON, byte for byte what
    /// [`Serialize::write_json`] writes for [`Answer::result`]. The first
    /// call renders it and every later call, on any handle to this answer,
    /// returns the same text; concurrent first calls render it once.
    pub fn json(&self) -> &str {
        self.0.json.get_or_init(|| {
            let mut out = String::new();
            self.0.result.write_json(&mut out);
            out
        })
    }
}

impl Serialize for Answer {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.json());
    }
}

impl fmt::Debug for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.result().fmt(f)
    }
}

impl PartialEq for Answer {
    fn eq(&self, other: &Answer) -> bool {
        self.result() == other.result()
    }
}

/// Why the engine rejected or failed a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query is malformed for the nest it was asked about (bad axis,
    /// empty bound range, cache size below 2, nest too deep to enumerate).
    /// The free functions assert the same conditions; the engine reports them
    /// as errors so a service front-end can reject bad requests gracefully.
    InvalidQuery(String),
    /// The underlying LP solver failed (does not happen for well-formed
    /// projective programs; surfaced rather than unwrapped).
    Lp(LpError),
    /// A session snapshot could not be restored (version mismatch, corrupt
    /// or truncated document, out-of-range indices).
    Snapshot(String),
    /// An engine-internal invariant did not hold (a memoized artifact
    /// vanished between being ensured and being read, or a detached batch
    /// result did not match its query's variant). Never expected in normal
    /// operation; reported as a typed error instead of unwinding so the
    /// service's no-panic surface survives even an engine bug.
    Internal(&'static str),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            EngineError::Lp(e) => write!(f, "lp error: {e}"),
            EngineError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            EngineError::Internal(msg) => write!(f, "internal engine invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LpError> for EngineError {
    fn from(e: LpError) -> EngineError {
        EngineError::Lp(e)
    }
}

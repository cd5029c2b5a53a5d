//! The analysis session: a long-lived, thread-safe [`Engine`] answering
//! typed [`Query`]s over interned loop nests with cross-query artifact
//! reuse, bounded memoization, and session persistence. One reader-writer
//! lock covers its interned nests and memo caches: hits read under the
//! shared lock, and misses compute outside it.
//!
//! # Why a session API
//!
//! The paper's analyses share expensive intermediates: the Theorem-2 bound,
//! the `2^d` enumeration, the tiling LP, the Theorem-3 check and the §7
//! value functions all revolve around the same `β` vectors, the same HBL
//! constraint matrix, and the same warm simplex bases. The stateless free
//! functions (`communication_lower_bound`, `check_tightness`,
//! `exponent_surface`, …) rebuild all of it per call — fine for one-shot use,
//! wasteful for the repeated-query traffic of a compiler pass or an analysis
//! service that probes many variants of the same nest. The `Engine` makes
//! that workload pay amortized cost:
//!
//! * **Interning.** Nests are interned by their permutation-invariant
//!   [`projtile_loopnest::NestSignature`], so a caller that re-declares the
//!   same program with loops or arrays in a different order hits the same
//!   cache entry.
//! * **Artifact reuse.** Per interned nest the engine keeps memoized §7
//!   slices (shared across permuted variants — a value function carries no
//!   positional data), memoized surfaces keyed by `(sorted axes, box)` (a
//!   permuted-axes request is a hit answered by an exact coordinate remap),
//!   and every `LowerBound`, `EnumeratedBound` and `OptimalTiling` result
//!   it has computed. A `Tightness` answer is never stored: it is composed
//!   from those three results at the same `M` plus an O(nnz) certificate
//!   check, so it hits exactly when all three are resident, whichever
//!   queries computed them. A `Tightness` miss computes all three and
//!   installs the ones not resident. Within one batch, a pending
//!   `Tightness`'s components are computed once: same-`M` component misses
//!   take their answers from it.
//! * **One pipeline.** [`Engine::answer_batch`] resolves queries in phases
//!   (probe, classify, compute, answer twins, intern and install, assemble
//!   — see `engine/resolve.rs`) into shared [`Answer`] handles;
//!   [`Engine::analyze_batch`] takes their typed values, and
//!   [`Engine::analyze`] is a batch of one.
//! * **Bounded memoization.** Every memo map is a cost-aware
//!   [`projtile_cachesim::BoundedLru`] with caps set by [`EngineConfig`]
//!   (approximate heap bytes), so a long-lived service session cannot grow
//!   without bound; least recently used artifacts are evicted first and
//!   transparently recomputed on the next query.
//! * **Persistence.** [`Engine::snapshot_json`] writes the result caches as
//!   JSON text through the workspace serde layer and
//!   [`Engine::restore_json`] warm-starts a new session from it, so a
//!   service restart does not start cold.
//! * **Exactness.** Engine answers are **bitwise-identical** to the retained
//!   free functions, which double as the cold differential oracles in the
//!   test suite — under cache hits, eviction pressure, concurrent callers
//!   and snapshot/restore alike. Everything the engine shares across
//!   queries is either path-independent by construction (canonical lex-min
//!   LP optima, unique optimal values, unique value functions) or cached per
//!   declaration order (vertex certificates, `λ` vectors).
//!
//! # Concurrency model
//!
//! `Engine` is `Send + Sync`; share it by reference. Every method but
//! [`Engine::set_trace_capacity`] takes `&self`.
//!
//! * **Hits read under the shared lock.** A cache hit takes only the read
//!   lock: the memoized answer is read through
//!   [`projtile_cachesim::BoundedLru::peek`], which records recency in
//!   per-entry atomic stamps rather than re-threading the LRU list, so
//!   concurrent hits proceed in parallel (the stamps are folded into the
//!   eviction order by the next exclusive operation). A resident
//!   `LowerBound`, `EnumeratedBound` or `OptimalTiling` is stored as the
//!   [`Answer`] its miss returned, so a hit clones an `Arc` under the lock
//!   and copies no value.
//! * **Render outside the lock.** An answer's JSON text
//!   ([`Answer::json`]) is rendered by the first caller that asks for it,
//!   after the lock is released, and kept with the answer: every later hit
//!   on a resident answer shares the same text, and concurrent first
//!   callers render it once.
//! * **Compute outside the lock.** A miss computes with the stateless
//!   free-function paths using a solver context checked out of the engine's
//!   [`projtile_lp::ContextPool`] — one context per worker, so concurrent
//!   callers never serialize on one warm tableau — and only then takes the
//!   write lock, briefly, to intern and install. A batch with nothing to
//!   compute takes no write lock at all. Two threads racing on the same
//!   query compute the same bitwise value; the loser's install is an
//!   idempotent overwrite.
//! * **Snapshots read.** [`Engine::snapshot_json`] writes its text under
//!   the read lock, so hits proceed beside it; installs wait for it.
//!
//! ```
//! use projtile_core::engine::{AnalysisResult, Engine, Query};
//! use projtile_loopnest::builders;
//!
//! let engine = Engine::new();
//! let nest = builders::matmul(512, 512, 8);
//! // First query computes; the repeat is a pure cache lookup.
//! let q = Query::Tightness { cache_size: 1 << 10 };
//! let first = engine.analyze(&nest, &q).unwrap();
//! let again = engine.analyze(&nest, &q).unwrap();
//! assert_eq!(first, again);
//! assert_eq!(engine.stats().hits, 1);
//! match first {
//!     AnalysisResult::Tightness(report) => assert!(report.tight),
//!     other => panic!("unexpected result {other:?}"),
//! }
//! // The session can be persisted and warm-restored.
//! let snapshot = engine.snapshot_json();
//! let restored = Engine::restore_json(&snapshot).unwrap();
//! assert_eq!(restored.analyze(&nest, &q).unwrap(), again);
//! assert_eq!(restored.stats().hits, 1);
//! ```

mod cache;
mod query;
mod resolve;
mod snapshot;
mod store;
mod trace;

pub use query::{
    query_kind_index, AnalysisResult, Answer, EngineError, KindCounters, Query, SurfaceSummary,
    TilingSummary, QUERY_KIND_COUNT, QUERY_KIND_NAMES,
};
pub use snapshot::SNAPSHOT_VERSION;
pub use store::{SnapshotStore, SNAPSHOT_TMP};
pub use trace::{outcome, TraceDocument, TraceError, TraceEvent, TraceRecorder, TRACE_VERSION};

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use projtile_arith::{log, Rational};
// The memo cache type is re-exported so trace replays run the same cache
// code as the live engine.
pub use projtile_cachesim::{BoundedLru, BoundedLruStats};
use projtile_loopnest::{canonicalize, CanonicalNest, LoopNest, NestSignature};
use projtile_lp::ContextPool;

use crate::bounds::{EnumeratedBound, LowerBound};
use crate::parametric::{exponent_vs_beta_with, ExponentSurface};
use crate::tightness::TightnessReport;
use cache::{
    cost, NestEntry, Orientation, PointSlice, ResultKey, SliceEntry, SliceKey, SliceKind,
    StoredSurface, SurfaceKey,
};
use resolve::{canonical_query_form, validate_query, Batch, Resolved};

/// Another name for [`Engine`], kept only for the service benchmark
/// (`svcbench/`, outside the workspace), which still names `SharedEngine`.
pub type SharedEngine = Engine;

/// Retention budgets (approximate heap bytes) for the engine's memo caches.
/// Each cap governs one artifact class across **all** interned nests; least
/// recently used entries are evicted first when a cap is exceeded, and the
/// most recently inserted entry is always retained. Eviction never changes
/// an answer — evicted artifacts are recomputed by the same deterministic
/// routine on the next query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Budget for typed results (bounds, enumerations, tilings). A
    /// `Tightness` query hits only while its three components fit together.
    pub results_capacity: u64,
    /// Budget for §7 value-function slices (explicit sweeps and the growing
    /// probe slices behind [`Engine::exponent_at_bound`]).
    pub slices_capacity: u64,
    /// Budget for memoized exponent surfaces (by far the largest artifacts).
    pub surfaces_capacity: u64,
}

impl Default for EngineConfig {
    /// Service-friendly defaults: tens of megabytes per artifact class,
    /// orders of magnitude above any single analysis.
    fn default() -> EngineConfig {
        EngineConfig {
            results_capacity: 32 << 20,
            slices_capacity: 32 << 20,
            surfaces_capacity: 64 << 20,
        }
    }
}

/// Per-cache occupancy and eviction counters, from [`Engine::cache_metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetrics {
    /// The typed-result cache.
    pub results: BoundedLruStats,
    /// The slice cache.
    pub slices: BoundedLruStats,
    /// The surface cache.
    pub surfaces: BoundedLruStats,
    /// Hit/miss counters per query kind, indexed like [`QUERY_KIND_NAMES`]
    /// (`exponent_at_bound` probes count under the `slice` kind, whose
    /// memo they share).
    pub kinds: [KindCounters; QUERY_KIND_COUNT],
}

/// Counters describing how an [`Engine`] resolved its queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Total queries answered (including batch members).
    pub queries: u64,
    /// Queries answered from a memoized result (pure lookups).
    pub hits: u64,
    /// Queries that had to compute (and then memoized) their result.
    pub misses: u64,
    /// Distinct canonical signatures interned.
    pub interned: u64,
}

/// A long-lived analysis session, safe to share across threads. See the
/// [module docs](self) for the reuse and concurrency model; see [`Query`]
/// for the request vocabulary.
///
/// ```
/// use projtile_core::engine::{AnalysisResult, Engine, Query};
/// use projtile_loopnest::builders;
///
/// let engine = Engine::new();
/// let nest = builders::matmul(512, 512, 8);
/// let query = Query::Tightness { cache_size: 1 << 10 };
/// // Concurrent callers share one session; repeats are read-lock hits.
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         scope.spawn(|| engine.analyze(&nest, &query).unwrap());
///     }
/// });
/// assert_eq!(engine.stats().interned, 1);
/// match engine.analyze(&nest, &query).unwrap() {
///     AnalysisResult::Tightness(report) => assert!(report.tight),
///     other => panic!("unexpected result {other:?}"),
/// }
/// ```
pub struct Engine {
    /// The one lock: interned nests, memo caches and their budgets.
    caches: RwLock<Caches>,
    pool: ContextPool,
    queries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    kind_hits: [AtomicU64; QUERY_KIND_COUNT],
    kind_misses: [AtomicU64; QUERY_KIND_COUNT],
    recorder: TraceRecorder,
    /// Counters at the moment the recorder was attached, so the drained
    /// document reports stats covering exactly the recorded window.
    trace_base: EngineStats,
    /// Cache entries resident when the recorder was attached (non-zero for
    /// a snapshot-restored engine; differential replays refuse warm traces).
    trace_warm_entries: u64,
}

// Callers share one engine by reference across threads.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<Engine>();
};

/// What the engine's lock covers: the interned nests and the three memo
/// caches with their budgets.
pub(crate) struct Caches {
    config: EngineConfig,
    entries: Vec<NestEntry>,
    index: HashMap<NestSignature, usize>,
    results: BoundedLru<ResultKey, Answer>,
    slices: BoundedLru<SliceKey, SliceEntry>,
    surfaces: BoundedLru<SurfaceKey, StoredSurface>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::with_config(EngineConfig::default())
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("stats", &self.stats())
            .field("config", &self.config())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an empty session with the default cache budgets.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Creates an empty session with explicit cache budgets.
    pub fn with_config(config: EngineConfig) -> Engine {
        Engine::over(Caches::new(config))
    }

    /// A session serving `caches`.
    fn over(caches: Caches) -> Engine {
        Engine {
            caches: RwLock::new(caches),
            pool: ContextPool::new(),
            queries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            kind_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            kind_misses: std::array::from_fn(|_| AtomicU64::new(0)),
            recorder: TraceRecorder::disabled(),
            trace_base: EngineStats::default(),
            trace_warm_entries: 0,
        }
    }

    /// The session's cache budgets.
    pub fn config(&self) -> EngineConfig {
        self.caches.read().config
    }

    /// Counters for this session's lifetime.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            interned: self.caches.read().entries.len() as u64,
        }
    }

    /// Occupancy, cost, and eviction counters of the three memo caches,
    /// plus hit/miss counters per query kind.
    pub fn cache_metrics(&self) -> CacheMetrics {
        let mut metrics = Caches::occupancy(&self.caches.read());
        for ((acc, hits), misses) in metrics
            .kinds
            .iter_mut()
            .zip(&self.kind_hits)
            .zip(&self.kind_misses)
        {
            acc.hits = hits.load(Ordering::Relaxed);
            acc.misses = misses.load(Ordering::Relaxed);
        }
        metrics
    }

    /// Answers one typed query about `nest` — a batch of one through
    /// [`Engine::analyze_batch`]. Results are bitwise-identical to the
    /// corresponding free function (see the module docs).
    pub fn analyze(&self, nest: &LoopNest, query: &Query) -> Result<AnalysisResult, EngineError> {
        self.analyze_batch(nest, std::slice::from_ref(query))
            .pop()
            .unwrap_or(Err(EngineError::Internal("a batch of one answers once")))
    }

    /// Answers a batch of queries about `nest` with typed values, in input
    /// order: [`Engine::answer_batch`] with each [`Answer`] taken by value
    /// ([`Answer::into_result`], a clone of a resident result).
    pub fn analyze_batch(
        &self,
        nest: &LoopNest,
        queries: &[Query],
    ) -> Vec<Result<AnalysisResult, EngineError>> {
        self.answer_batch(nest, queries)
            .into_iter()
            .map(|answer| answer.map(Answer::into_result))
            .collect()
    }

    /// Answers a batch of queries about `nest`, in input order. Resident
    /// answers are read under the read lock, each a shared handle to the
    /// cached value and its rendered JSON text ([`Answer::json`]); the
    /// remaining distinct queries fan out through `projtile_par` with one
    /// pooled warm solver context per worker chunk (a component of a
    /// pending `Tightness` is taken from it instead) before one write-lock
    /// install pass, which a batch of hits skips entirely. Every compute
    /// path is path-independent, so the fan-out cannot change any answer.
    pub fn answer_batch(
        &self,
        nest: &LoopNest,
        queries: &[Query],
    ) -> Vec<Result<Answer, EngineError>> {
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let canon = canonicalize(nest);
        let tracing = self.recorder.enabled();
        let mut batch = {
            let caches = self.caches.read();
            Batch::probe(&caches, nest, &canon, queries)
        };
        // The guard is let-bound so the lint's lock checks see `install`
        // run under it.
        let installed = batch
            .compute(&self.pool, nest, &canon, tracing)
            .map(|computed| {
                let mut caches = self.caches.write();
                computed.install(&mut caches, &canon)
            });
        let Resolved {
            answers,
            outcomes,
            costs,
        } = batch.finish(installed);
        let (mut hits, mut misses) = (0, 0);
        for (q, o) in queries.iter().zip(&outcomes) {
            match o.counts_as_hit() {
                Some(true) => {
                    hits += 1;
                    bump(&self.kind_hits, query_kind_index(q));
                }
                Some(false) => {
                    misses += 1;
                    bump(&self.kind_misses, query_kind_index(q));
                }
                None => {}
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        if tracing {
            self.record(&canon, queries, &outcomes, costs);
        }
        answers
    }

    /// The optimal exponent at one specific bound value along `axis` — the
    /// memoized form of [`crate::parametric::exponent_at_bound`]. The first
    /// query per `(cache size, axis)` sweeps a 1-D slice of the §7 value
    /// function once; every later bound on that axis (a JIT probing candidate
    /// specializations, say) is read off the slice under the read lock,
    /// without touching the solver. A bound past the covered range sweeps a
    /// wider slice outside the lock and installs it under the write lock.
    /// Answers are bitwise-identical to the cold oracle
    /// [`crate::parametric::exponent_at_bound_cold`]. Probes count under the
    /// `slice` kind, whose memo they share, and are not traced.
    pub fn exponent_at_bound(
        &self,
        nest: &LoopNest,
        cache_size: u64,
        axis: usize,
        bound: u64,
    ) -> Result<Rational, EngineError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if cache_size < 2 {
            return Err(EngineError::InvalidQuery(
                "cache size must be at least 2 words".into(),
            ));
        }
        if axis >= nest.num_loops() {
            return Err(EngineError::InvalidQuery(format!(
                "axis {axis} out of range for a {}-loop nest",
                nest.num_loops()
            )));
        }
        if bound == 0 {
            return Err(EngineError::InvalidQuery("bound must be positive".into()));
        }
        let kind = query_kind_index(&Query::Slice {
            cache_size,
            axis,
            lo_bound: bound,
            hi_bound: bound,
        });
        let canon = canonicalize(nest);
        // `axis` is in range, and the loop permutation has a slot per axis.
        let (Some(&canon_axis), Some(index)) =
            (canon.loop_permutation().get(axis), nest.indices().get(axis))
        else {
            return Err(EngineError::Internal("probe axis outside the nest"));
        };
        let beta = log::beta(bound as u128, cache_size as u128);
        let (answer, prev) = {
            let caches = self.caches.read();
            match caches.probe_slice(&canon, cache_size, canon_axis) {
                Some(ps) if ps.hi_bound >= bound => (Some(ps.vf.value_at(&beta)), ps.hi_bound),
                Some(ps) => (None, ps.hi_bound),
                None => (None, 1),
            }
        };
        if let Some(value) = answer {
            self.hits.fetch_add(1, Ordering::Relaxed);
            bump(&self.kind_hits, kind);
            return Ok(value);
        }
        // Widen past the request (and past the nest's own bound) so a scan
        // of nearby candidate bounds is answered by one sweep. Near the top
        // of the u64 range the power-of-two rounding would overflow; sweep
        // to the exact bound instead.
        let hi = bound.max(index.bound).max(prev).max(cache_size);
        let hi = hi.checked_next_power_of_two().unwrap_or(hi);
        let vf = {
            let mut ctx = self.pool.checkout();
            exponent_vs_beta_with(canon.nest(), cache_size, canon_axis, 1, hi, &mut ctx)?
        };
        let value = vf.value_at(&beta);
        {
            let mut caches = self.caches.write();
            let (e, _) = caches.intern_with(&canon);
            caches.install_probe_slice(e, cache_size, canon_axis, PointSlice { hi_bound: hi, vf });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        bump(&self.kind_misses, kind);
        Ok(value)
    }

    /// The full memoized [`ExponentSurface`] for a [`Query::Surface`]-shaped
    /// request, for callers that need region geometry or slices beyond the
    /// wire-ready [`SurfaceSummary`]. The query is resolved like any other;
    /// the stored sorted-order surface it leaves resident is then remapped
    /// to the caller's axis order, exactly as
    /// [`crate::parametric::exponent_surface`] remaps.
    pub fn exponent_surface(
        &self,
        nest: &LoopNest,
        cache_size: u64,
        axes: &[usize],
        lo_bounds: &[u64],
        hi_bounds: &[u64],
    ) -> Result<ExponentSurface, EngineError> {
        let query = Query::Surface {
            cache_size,
            axes: axes.to_vec(),
            lo_bounds: lo_bounds.to_vec(),
            hi_bounds: hi_bounds.to_vec(),
        };
        // A valid request is resolved in its sorted-axes form: that keys the
        // same memo entry and counts alike, and its hit clones the stored
        // summary instead of remapping it, so the one remap is the one
        // below. An invalid request is resolved as given, for its error.
        let resolvable = match validate_query(nest, &query) {
            Ok(()) => canonical_query_form(&query),
            Err(_) => query,
        };
        self.analyze(nest, &resolvable)?;
        // A hit leaves the surface resident and a miss installs it, but a
        // concurrent install may evict it before this read: the free
        // function then recomputes it, bitwise what the memo held.
        let resident = {
            let caches = self.caches.read();
            caches.resident_surface(&canonicalize(nest), cache_size, axes, lo_bounds, hi_bounds)
        };
        match resident {
            Some(surface) => Ok(surface),
            None => Ok(crate::parametric::exponent_surface(
                nest, cache_size, axes, lo_bounds, hi_bounds,
            )?),
        }
    }
}

/// Best-effort per-kind counter bump: an out-of-range kind drops the count
/// rather than panicking a query that already has its answer.
fn bump(counters: &[AtomicU64], kind: usize) {
    if let Some(c) = counters.get(kind) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

impl Caches {
    fn new(config: EngineConfig) -> Caches {
        Caches {
            config,
            entries: Vec::new(),
            index: HashMap::new(),
            results: BoundedLru::new(config.results_capacity),
            slices: BoundedLru::new(config.slices_capacity),
            surfaces: BoundedLru::new(config.surfaces_capacity),
        }
    }

    /// Occupancy of the three caches (per-kind counters left at zero).
    fn occupancy(&self) -> CacheMetrics {
        CacheMetrics {
            results: self.results.stats(),
            slices: self.slices.stats(),
            surfaces: self.surfaces.stats(),
            kinds: [KindCounters::default(); QUERY_KIND_COUNT],
        }
    }

    // -----------------------------------------------------------------------
    // Interning
    // -----------------------------------------------------------------------

    /// Interns the nest `canon` was computed from: its canonical entry and
    /// the orientation (declaration order) it was declared in.
    fn intern_with(&mut self, canon: &CanonicalNest) -> (usize, usize) {
        let sig = canon.signature();
        let e = match self.index.get(&sig) {
            Some(&e) => e,
            None => {
                self.entries.push(NestEntry {
                    canonical: canon.nest().clone(),
                    orientations: Vec::new(),
                });
                let e = self.entries.len() - 1;
                self.index.insert(sig, e);
                e
            }
        };
        let o = self.orientation_index(e, canon);
        (e, o)
    }

    /// The interned entry `e`. Every `e` in circulation was minted by
    /// [`Caches::intern_with`] against these caches, and `entries` is
    /// append-only, so the index cannot go out of range.
    fn entry(&self, e: usize) -> &NestEntry {
        // lint: allow(L008) e is an interned id minted by intern_with; entries is append-only
        &self.entries[e]
    }

    /// Maps orientation-local axis `axis` to the canonical axis it names.
    /// `(e, o)` are interned ids (entries and orientations are
    /// append-only), and `axis` was validated against the nest's loop count
    /// before any cache path runs.
    fn canon_axis(&self, e: usize, o: usize, axis: usize) -> usize {
        // lint: allow(L008) interned ids into append-only lists; loop_perm has one slot per validated axis
        self.entries[e].orientations[o].loop_perm[axis]
    }

    /// Finds or creates the orientation of entry `e` matching `canon`'s
    /// permutations.
    fn orientation_index(&mut self, e: usize, canon: &CanonicalNest) -> usize {
        let loop_perm = canon.loop_permutation();
        let array_perm = canon.array_permutation();
        // lint: allow(L008) e was just minted (or found) by intern_with against these caches
        let entry = &mut self.entries[e];
        if let Some(i) = entry
            .orientations
            .iter()
            .position(|o| o.loop_perm == loop_perm && o.array_perm == array_perm)
        {
            return i;
        }
        entry.orientations.push(Orientation {
            loop_perm: loop_perm.to_vec(),
            array_perm: array_perm.to_vec(),
        });
        entry.orientations.len() - 1
    }

    /// Entry/orientation lookup **without interning**, for the read path:
    /// `None` if the nest has never been seen, an orientation of `None` if
    /// it has but never in this declaration order.
    fn find_indices(&self, canon: &CanonicalNest) -> Option<(usize, Option<usize>)> {
        let e = *self.index.get(&canon.signature())?;
        let loop_perm = canon.loop_permutation();
        let array_perm = canon.array_permutation();
        let o = self
            .entries
            .get(e)?
            .orientations
            .iter()
            .position(|o| o.loop_perm == loop_perm && o.array_perm == array_perm);
        Some((e, o))
    }

    // -----------------------------------------------------------------------
    // Cache keys, probe slices and surface read-back
    // -----------------------------------------------------------------------

    /// The canonical (sorted-axes) surface cache key for a request, plus the
    /// remap presenting the stored surface in the caller's axis order
    /// (`None` when the request is already sorted).
    fn surface_key(
        &self,
        e: usize,
        o: usize,
        m: u64,
        axes: &[usize],
        lo_bounds: &[u64],
        hi_bounds: &[u64],
    ) -> (SurfaceKey, Option<Vec<usize>>) {
        let (axes, lo_bounds, hi_bounds, order) =
            crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
        (
            SurfaceKey {
                entry: e,
                orientation: o,
                m,
                axes,
                lo_bounds,
                hi_bounds,
            },
            order,
        )
    }

    /// The resident surface for a request, in the caller's axis order
    /// (a peek).
    fn resident_surface(
        &self,
        canon: &CanonicalNest,
        m: u64,
        axes: &[usize],
        lo_bounds: &[u64],
        hi_bounds: &[u64],
    ) -> Option<ExponentSurface> {
        let (e, o) = self.find_indices(canon)?;
        let (key, order) = self.surface_key(e, o?, m, axes, lo_bounds, hi_bounds);
        let stored = self.surfaces.peek(&key)?;
        Some(match order {
            None => stored.surface.clone(),
            Some(order) => stored.surface.with_axis_order(&order),
        })
    }

    /// The resident probe slice behind `exponent_at_bound` for `canon`'s
    /// entry at `m` along canonical axis `canon_axis` (a peek).
    fn probe_slice(&self, canon: &CanonicalNest, m: u64, canon_axis: usize) -> Option<&PointSlice> {
        let key = SliceKey {
            entry: *self.index.get(&canon.signature())?,
            m,
            canon_axis,
            kind: SliceKind::Probe,
        };
        match self.slices.peek(&key)? {
            SliceEntry::Probe(ps) => Some(ps),
            SliceEntry::Span(_) => None,
        }
    }

    /// Installs a freshly swept probe slice of entry `e`, unless a
    /// concurrent probe installed one at least as wide meanwhile.
    fn install_probe_slice(&mut self, e: usize, m: u64, canon_axis: usize, slice: PointSlice) {
        let key = SliceKey {
            entry: e,
            m,
            canon_axis,
            kind: SliceKind::Probe,
        };
        if let Some(SliceEntry::Probe(ps)) = self.slices.peek(&key) {
            if ps.hi_bound >= slice.hi_bound {
                return;
            }
        }
        let entry = SliceEntry::Probe(slice);
        let c = cost::slice_entry(&entry);
        self.slices.insert(key, entry, c);
    }
}

/// Validity of a lower bound's Theorem-3 certificate `(Q*, ŝ)`: `ŝ ≥ 0`
/// satisfies every HBL row outside `Q*`, and the Theorem-2 formula
/// `k_{Q*}(ŝ)` reproduces the claimed exponent. This is the check
/// [`crate::tightness::check_tightness`] performs inline, evaluated on the
/// supports directly: the formula reads `β_j = log_M L_j` only for
/// `j ∈ Q*`, the only `β` it uses. A bound that does not fit the nest is
/// invalid, not a panic.
pub(crate) fn certificate_valid(nest: &LoopNest, m: u64, bound: &LowerBound) -> bool {
    let s_hat = &bound.s_hat;
    if s_hat.len() != nest.num_arrays() || s_hat.iter().any(Rational::is_negative) {
        return false;
    }
    // HBL row `j` at `ŝ`: the weight of the arrays whose support holds `j`.
    let row = |j: usize| {
        let arrays = nest.arrays().iter().zip(s_hat);
        arrays
            .filter(|(a, _)| a.support.contains(j))
            .fold(Rational::zero(), |acc, (_, w)| &acc + w)
    };
    let one = Rational::one();
    let q = bound.witness_subset;
    if (0..nest.num_loops()).any(|i| !q.contains(i) && row(i) < one) {
        return false;
    }
    let mut k = s_hat.iter().fold(Rational::zero(), |acc, w| &acc + w);
    for j in q.iter() {
        let Some(index) = nest.indices().get(j) else {
            return false;
        };
        let r = row(j);
        if r <= one {
            k.add_mul_assign(&log::beta(index.bound as u128, m as u128), &(&one - &r));
        }
    }
    k == bound.exponent
}

/// The Theorem-3 report composed from its three component artifacts plus
/// the certificate check — field-for-field what
/// [`crate::tightness::check_tightness`] computes on the same nest. Every
/// `Tightness` answer, hit or miss, is built here; the report is never
/// stored.
pub(crate) fn compose_tightness_report(
    nest: &LoopNest,
    m: u64,
    tiling: &TilingSummary,
    bound: &LowerBound,
    enumerated: &EnumeratedBound,
) -> TightnessReport {
    TightnessReport {
        tiling_exponent: tiling.value.clone(),
        bound_exponent: bound.exponent.clone(),
        enumerated_exponent: enumerated.exponent.clone(),
        witness_subset: bound.witness_subset,
        tight: tiling.value == bound.exponent && certificate_valid(nest, m, bound),
    }
}

/// Builds the wire-ready digest of a surface.
pub(crate) fn summarize_surface(s: &ExponentSurface, axes: &[usize]) -> SurfaceSummary {
    SurfaceSummary {
        axes: axes.to_vec(),
        num_regions: s.num_regions(),
        pieces: s.pieces().into_iter().cloned().collect(),
        rendered: s.render_pieces(),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use projtile_loopnest::builders;

    use super::*;
    use crate::bounds::{arbitrary_bound_exponent, exponent_from_s_hat};
    use crate::hbl::hbl_lp;

    #[test]
    fn all_hit_batches_take_no_write_lock_and_no_solver_context() {
        let nest = builders::matmul(64, 64, 8);
        let m = 1 << 8;
        let queries = vec![
            Query::Tightness { cache_size: m },
            Query::LowerBound { cache_size: m },
            Query::Tightness { cache_size: m },
        ];
        let warm = Engine::new();
        let expected = warm.analyze_batch(&nest, &queries);
        let restored = Engine::restore_json(&warm.snapshot_json()).expect("snapshot restores");

        // Another holder of the read guard must not stall a batch that
        // computes nothing: it takes no write lock.
        let (tx, rx) = mpsc::channel();
        let answers = std::thread::scope(|scope| {
            let reader = restored.caches.read();
            let (restored, nest, queries) = (&restored, &nest, &queries);
            scope.spawn(move || tx.send(restored.analyze_batch(nest, queries)));
            let answers = rx.recv_timeout(Duration::from_secs(5));
            drop(reader);
            answers
        });
        let answers = answers.expect("an all-hit batch completes beside a reader");
        assert_eq!(answers, expected);
        assert_eq!(restored.stats().misses, 0, "{:?}", restored.stats());
        assert_eq!(restored.pool.idle(), 0, "no solver context was checked out");
    }

    #[test]
    fn snapshots_complete_beside_a_reader() {
        // A snapshot only reads the caches, so another holder of the read
        // guard must not stall it.
        let nest = builders::matmul(64, 64, 8);
        let engine = Engine::new();
        engine
            .analyze(&nest, &Query::Tightness { cache_size: 1 << 8 })
            .expect("valid query");
        engine
            .exponent_at_bound(&nest, 1 << 8, 2, 37)
            .expect("valid probe");
        let expected = engine.snapshot_json();
        let (tx, rx) = mpsc::channel();
        let snapshot = std::thread::scope(|scope| {
            let reader = engine.caches.read();
            let engine = &engine;
            scope.spawn(move || tx.send(engine.snapshot_json()));
            let snapshot = rx.recv_timeout(Duration::from_secs(5));
            drop(reader);
            snapshot
        });
        let snapshot = snapshot.expect("a snapshot completes beside a reader");
        assert_eq!(snapshot, expected);
    }

    /// The certificate check `check_tightness` performs inline, verbatim.
    fn inline_check(nest: &LoopNest, m: u64, bound: &LowerBound) -> bool {
        let formula_value = exponent_from_s_hat(nest, m, bound.witness_subset, &bound.s_hat);
        let row_deleted = hbl_lp(nest, bound.witness_subset);
        formula_value == bound.exponent && row_deleted.is_feasible(&bound.s_hat)
    }

    #[test]
    fn certificate_check_equals_the_inline_check_of_check_tightness() {
        let seventh: Rational = "1/7".parse().unwrap();
        let half: Rational = "1/2".parse().unwrap();
        let one = Rational::one();
        let (mut valid, mut invalid) = (0, 0);
        for seed in 0..30u64 {
            for (d, n) in [(3, 3), (5, 4), (7, 5), (9, 6)] {
                let nest = builders::random_projective(seed, d, n, (1, 1 << 12));
                for m in [4u64, 64, 1 << 10] {
                    let bound = arbitrary_bound_exponent(&nest, m);
                    assert!(
                        certificate_valid(&nest, m, &bound),
                        "seed {seed} d {d} M {m}"
                    );
                    // Each ŝ entry lowered by 1 or raised by 1/7, and the
                    // exponent raised by 1/7. Two more keep `Σŝ` (so, for
                    // an empty `Q*`, the formula) and break only a row or
                    // the sign: `ŝ` rotated by one, and half a unit moved
                    // from each entry to the next.
                    let mut corrupted = Vec::new();
                    for a in 0..n {
                        for delta in [-&one, seventh.clone()] {
                            let mut b = bound.clone();
                            b.s_hat[a] = &b.s_hat[a] + &delta;
                            corrupted.push(b);
                        }
                        let mut b = bound.clone();
                        b.s_hat[a] = &b.s_hat[a] - &half;
                        b.s_hat[(a + 1) % n] = &b.s_hat[(a + 1) % n] + &half;
                        corrupted.push(b);
                        // Raised by 1 with the exponent re-derived from the
                        // formula: a consistent certificate of a weaker
                        // bound, with rows of `Q*` past 1.
                        let mut b = bound.clone();
                        b.s_hat[a] = &b.s_hat[a] + &one;
                        b.exponent = exponent_from_s_hat(&nest, m, b.witness_subset, &b.s_hat);
                        corrupted.push(b);
                    }
                    let mut b = bound.clone();
                    b.s_hat.rotate_left(1);
                    corrupted.push(b);
                    let mut b = bound.clone();
                    b.exponent = &b.exponent + &seventh;
                    corrupted.push(b);
                    for b in std::iter::once(&bound).chain(&corrupted) {
                        let ok = certificate_valid(&nest, m, b);
                        assert_eq!(ok, inline_check(&nest, m, b), "seed {seed} d {d} M {m}");
                        if ok {
                            valid += 1;
                        } else {
                            invalid += 1;
                        }
                    }
                }
            }
        }
        // 360 genuine bounds; the corrupted ones land on both sides.
        assert!(
            valid > 360 && invalid > 360,
            "{valid} valid, {invalid} invalid"
        );
    }

    #[test]
    fn composed_reports_equal_check_tightness() {
        for seed in 0..6u64 {
            let nest = builders::random_projective(seed, 5, 4, (1, 1 << 10));
            for m in [4u64, 64, 1 << 10] {
                let sol = crate::tiling_lp::solve_tiling_lp(&nest, m);
                let tiling = TilingSummary {
                    tile_dims: crate::tiling_lp::tile_dims_from_lambda(&nest, m, &sol.lambda),
                    lambda: sol.lambda,
                    value: sol.value,
                };
                let report = compose_tightness_report(
                    &nest,
                    m,
                    &tiling,
                    &arbitrary_bound_exponent(&nest, m),
                    &crate::bounds::enumerated_exponent(&nest, m),
                );
                assert_eq!(report, crate::tightness::check_tightness(&nest, m));
            }
        }
    }

    /// The one answer a batch of one returns.
    fn answer(engine: &Engine, nest: &LoopNest, query: &Query) -> Answer {
        let mut answers = engine.answer_batch(nest, std::slice::from_ref(query));
        assert_eq!(answers.len(), 1);
        answers.pop().expect("one answer").expect("valid query")
    }

    #[test]
    fn hits_on_a_resident_enumeration_share_one_rendered_text() {
        let nest = builders::random_projective(42, 6, 4, (1, 256));
        let query = Query::EnumeratedBound { cache_size: 64 };
        let engine = Engine::new();
        let miss = answer(&engine, &nest, &query);
        let (first, second) = (
            answer(&engine, &nest, &query),
            answer(&engine, &nest, &query),
        );
        assert_eq!(engine.stats().hits, 2, "{:?}", engine.stats());
        assert_eq!(
            first.json().as_ptr(),
            second.json().as_ptr(),
            "one allocation"
        );
        assert_eq!(
            miss.json().as_ptr(),
            first.json().as_ptr(),
            "the miss installed its own handle"
        );
        assert_eq!(first.json(), serde::json::to_string(first.result()));
        assert_eq!(serde::json::to_string(&first), first.json());
        assert_eq!(
            first.result(),
            &AnalysisResult::EnumeratedBound(crate::bounds::enumerated_exponent(&nest, 64))
        );
    }

    #[test]
    fn rendered_text_is_the_same_after_eviction_and_restore() {
        let nest = builders::random_projective(42, 6, 4, (1, 256));
        let query = Query::EnumeratedBound { cache_size: 64 };
        let other = Query::EnumeratedBound { cache_size: 128 };
        let text = answer(&Engine::new(), &nest, &query).json().to_string();
        // A budget that holds one enumeration: each install evicts the other.
        let sizing = Engine::new();
        answer(&sizing, &nest, &query);
        let engine = Engine::with_config(EngineConfig {
            results_capacity: sizing.cache_metrics().results.cost,
            ..EngineConfig::default()
        });
        assert_eq!(answer(&engine, &nest, &query).json(), text);
        answer(&engine, &nest, &other);
        assert_eq!(engine.cache_metrics().results.evictions, 1);
        assert_eq!(answer(&engine, &nest, &query).json(), text, "recomputed");
        assert_eq!(engine.stats().misses, 3, "{:?}", engine.stats());
        let restored = Engine::restore_json(&engine.snapshot_json()).expect("snapshot restores");
        assert_eq!(answer(&restored, &nest, &query).json(), text, "restored");
        assert_eq!(restored.stats().hits, 1, "{:?}", restored.stats());
    }

    #[test]
    fn tightness_components_render_like_their_own_misses() {
        let nest = builders::random_projective(7, 6, 4, (1, 256));
        let m = 64;
        let via_tightness = Engine::new();
        answer(&via_tightness, &nest, &Query::Tightness { cache_size: m });
        for query in [
            Query::LowerBound { cache_size: m },
            Query::EnumeratedBound { cache_size: m },
            Query::OptimalTiling { cache_size: m },
        ] {
            let hit = answer(&via_tightness, &nest, &query);
            let own = answer(&Engine::new(), &nest, &query);
            assert_eq!(hit.json(), own.json(), "{query:?}");
        }
        assert_eq!(via_tightness.stats().hits, 3, "{:?}", via_tightness.stats());
    }

    #[test]
    fn bounds_that_do_not_fit_the_nest_are_invalid_not_panics() {
        let nest = builders::matmul(64, 64, 8);
        let m = 1 << 8;
        let bound = arbitrary_bound_exponent(&nest, m);
        let mut short = bound.clone();
        short.s_hat.pop();
        let mut outside = bound.clone();
        outside.witness_subset.insert(40);
        for b in [short, outside] {
            assert!(!certificate_valid(&nest, m, &b));
        }
    }
}

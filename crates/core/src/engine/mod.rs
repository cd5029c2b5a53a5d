//! The unified analysis session: a long-lived [`Engine`] answering typed
//! [`Query`]s over interned loop nests with cross-query artifact reuse,
//! bounded memoization, and session persistence — plus the thread-safe
//! sharded [`SharedEngine`] front for concurrent serving.
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
//! * **Artifact reuse.** Per interned nest the engine keeps the `β` vectors
//!   per cache size, a warm [`crate::hbl::HblFamily`] (its matrix is
//!   cache-size-independent), memoized §7 slices (shared across permuted
//!   variants — a value function carries no positional data), memoized
//!   surfaces keyed by `(sorted axes, box)` (a permuted-axes request is a
//!   hit answered by an exact coordinate remap), and every typed result it
//!   has computed. A `Tightness` query warms `LowerBound`,
//!   `EnumeratedBound` and `OptimalTiling` for free, and vice versa.
//! * **Bounded memoization.** Every memo map is a cost-aware
//!   [`projtile_cachesim::BoundedLru`] with caps set by [`EngineConfig`]
//!   (approximate heap bytes), so a long-lived service session cannot grow
//!   without bound; least recently used artifacts are evicted first and
//!   transparently recomputed on the next query.
//! * **Persistence.** [`Engine::snapshot`] serializes the result caches
//!   through the workspace serde layer and [`Engine::restore`] warm-starts a
//!   new session from them, so a service restart does not start cold.
//! * **Exactness.** Engine answers are **bitwise-identical** to the retained
//!   free functions, which double as the cold differential oracles in the
//!   test suite — under cache hits, eviction pressure, concurrent access
//!   through [`SharedEngine`], and snapshot/restore alike. Everything the
//!   engine shares across queries is either path-independent by
//!   construction (canonical lex-min LP optima, unique optimal values,
//!   unique value functions) or cached per declaration order (vertex
//!   certificates, `λ` vectors).
//!
//! ```
//! use projtile_core::engine::{AnalysisResult, Engine, Query};
//! use projtile_loopnest::builders;
//!
//! let mut engine = Engine::new();
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
//! let mut restored = Engine::restore_json(&snapshot).unwrap();
//! assert_eq!(restored.analyze(&nest, &q).unwrap(), again);
//! assert_eq!(restored.stats().hits, 1);
//! ```

mod cache;
mod query;
mod shared;
mod snapshot;
mod store;
mod trace;

pub use query::{
    query_kind_index, AnalysisResult, EngineError, KindCounters, Query, SurfaceSummary,
    TilingSummary, QUERY_KIND_COUNT, QUERY_KIND_NAMES,
};
pub use shared::SharedEngine;
pub use snapshot::SNAPSHOT_VERSION;
pub use store::{SnapshotStore, SNAPSHOT_TMP};
pub use trace::{outcome, TraceDocument, TraceError, TraceEvent, TraceRecorder, TRACE_VERSION};

use std::collections::HashMap;
use std::fmt;

use projtile_arith::{log, Rational};
// The memo cache type is re-exported so trace replays run the same cache
// code as the live front.
pub use projtile_cachesim::{BoundedLru, BoundedLruStats};
use projtile_loopnest::{canonicalize, CanonicalNest, LoopNest, NestSignature};
use projtile_lp::parametric::ValueFunction;
use projtile_lp::ContextPool;
use projtile_par::par_map_with;

use crate::bounds::{
    arbitrary_bound_exponent, exponent_from_s_hat_with_betas, select_best, EnumeratedBound,
    LowerBound,
};
use crate::hbl::{hbl_lp, HblFamily};
use crate::parametric::{exponent_vs_beta_with, ExponentSurface};
use crate::tightness::TightnessReport;
use crate::tiling_lp::{solve_tiling_lp, tile_dims_from_lambda};
use cache::{
    cost, BetaKey, CachedResult, NestEntry, Orientation, PointSlice, ResultKey, ResultKind,
    SliceEntry, SliceKey, SliceKind, StoredSurface, SurfaceKey,
};

/// Retention budgets (approximate heap bytes) for the engine's memo caches.
/// Each cap governs one artifact class across **all** interned nests; least
/// recently used entries are evicted first when a cap is exceeded, and the
/// most recently inserted entry is always retained. Eviction never changes
/// an answer — evicted artifacts are recomputed by the same deterministic
/// routine on the next query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Budget for typed results (bounds, enumerations, tilings, tightness
    /// reports, certificates).
    pub results_capacity: u64,
    /// Budget for `β` vectors.
    pub betas_capacity: u64,
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
            betas_capacity: 4 << 20,
            slices_capacity: 32 << 20,
            surfaces_capacity: 64 << 20,
        }
    }
}

/// Per-cache occupancy and eviction counters, from [`Engine::cache_metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetrics {
    /// The `β`-vector cache.
    pub betas: BoundedLruStats,
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

/// A long-lived analysis session. See the [module docs](self) for the reuse
/// model; see [`Query`] for the request vocabulary and [`SharedEngine`] for
/// the thread-safe front.
pub struct Engine {
    config: EngineConfig,
    entries: Vec<NestEntry>,
    index: HashMap<NestSignature, usize>,
    betas: BoundedLru<BetaKey, Vec<Rational>>,
    results: BoundedLru<ResultKey, CachedResult>,
    slices: BoundedLru<SliceKey, SliceEntry>,
    surfaces: BoundedLru<SurfaceKey, StoredSurface>,
    pool: ContextPool,
    stats: EngineStats,
    kinds: [KindCounters; QUERY_KIND_COUNT],
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::with_config(EngineConfig::default())
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("interned_nests", &self.entries.len())
            .field("stats", &self.stats)
            .field("config", &self.config)
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
        Engine {
            config,
            entries: Vec::new(),
            index: HashMap::new(),
            betas: BoundedLru::new(config.betas_capacity),
            results: BoundedLru::new(config.results_capacity),
            slices: BoundedLru::new(config.slices_capacity),
            surfaces: BoundedLru::new(config.surfaces_capacity),
            pool: ContextPool::new(),
            stats: EngineStats::default(),
            kinds: [KindCounters::default(); QUERY_KIND_COUNT],
        }
    }

    /// The session's cache budgets.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Interns `nest` (no analysis yet) and returns its canonical signature.
    /// Permuted re-declarations of the same program return the same
    /// signature and share one cache entry.
    pub fn intern(&mut self, nest: &LoopNest) -> NestSignature {
        let canon = canonicalize(nest);
        let sig = canon.signature();
        let _ = self.intern_with(nest, canon);
        sig
    }

    /// Number of distinct canonical signatures interned so far.
    pub fn num_interned(&self) -> usize {
        self.entries.len()
    }

    /// Counters for this session's lifetime.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Occupancy, cost, and eviction counters of the four memo caches,
    /// plus hit/miss counters per query kind.
    pub fn cache_metrics(&self) -> CacheMetrics {
        CacheMetrics {
            betas: self.betas.stats(),
            results: self.results.stats(),
            slices: self.slices.stats(),
            surfaces: self.surfaces.stats(),
            kinds: self.kinds,
        }
    }

    /// Records one resolved query in the per-kind counters (mirrors the
    /// aggregate `stats.hits`/`stats.misses` accounting).
    fn count_kind(&mut self, kind: usize, hit: bool) {
        // Counters are best-effort; an out-of-range kind drops the count
        // rather than panicking a query that already has its answer.
        let Some(k) = self.kinds.get_mut(kind) else {
            return;
        };
        if hit {
            k.hits += 1;
        } else {
            k.misses += 1;
        }
    }

    /// Answers one typed query about `nest`, reusing every applicable cached
    /// artifact and memoizing what it computes. Results are bitwise-identical
    /// to the corresponding free function (see the module docs).
    pub fn analyze(
        &mut self,
        nest: &LoopNest,
        query: &Query,
    ) -> Result<AnalysisResult, EngineError> {
        self.stats.queries += 1;
        validate_query(nest, query)?;
        let (e, o) = self.intern_indices(nest);
        let hit = self.is_cached(e, o, query);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.count_kind(query_kind_index(query), hit);
        self.answer(e, o, query)
    }

    /// Answers a batch of queries about `nest`, in input order.
    ///
    /// Already-memoized queries are answered by lookup; the remaining
    /// distinct queries are fanned out through `projtile_par` with one pooled
    /// warm solver context per worker chunk, then installed into the cache.
    /// Results are identical to issuing the queries one-by-one through
    /// [`Engine::analyze`] (pinned by tests): every parallel compute path is
    /// path-independent, so the fan-out cannot change any answer.
    pub fn analyze_batch(
        &mut self,
        nest: &LoopNest,
        queries: &[Query],
    ) -> Vec<Result<AnalysisResult, EngineError>> {
        self.stats.queries += queries.len() as u64;
        let validity: Vec<Option<EngineError>> = queries
            .iter()
            .map(|q| validate_query(nest, q).err())
            .collect();
        if validity.iter().all(|v| v.is_some()) {
            // Nothing valid to intern or compute; every slot is an error
            // (`flatten` preserves the length because all are `Some`).
            return validity.into_iter().flatten().map(Err).collect();
        }
        let (e, o) = self.intern_indices(nest);

        // The distinct valid queries that are not yet memoized, deduplicated
        // by cache-canonical form (permuted-axes twins compute once).
        let mut pending: Vec<Query> = Vec::new();
        let mut pending_forms: std::collections::HashSet<Query> = std::collections::HashSet::new();
        for (q, v) in queries.iter().zip(&validity) {
            if v.is_none()
                && !self.is_cached(e, o, q)
                && pending_forms.insert(canonical_query_form(q))
            {
                pending.push(q.clone());
            }
        }
        for (q, v) in queries.iter().zip(&validity) {
            if v.is_none() && !pending.contains(q) {
                self.stats.hits += 1;
                self.count_kind(query_kind_index(q), true);
            }
        }
        self.stats.misses += pending.len() as u64;
        for q in &pending {
            self.count_kind(query_kind_index(q), false);
        }

        // Fan the pending queries out; per-worker pooled contexts warm-start
        // along each chunk. Only shared borrows of the engine are used here.
        let computed: Vec<(Query, Result<Detached, EngineError>)> = {
            let orientation_nest = &self.orientation(e, o).nest;
            let canonical = &self.entry(e).canonical;
            let loop_perm = &self.orientation(e, o).loop_perm;
            let pool = &self.pool;
            par_map_with(
                &pending,
                || pool.checkout(),
                |ctx, _, q| {
                    (
                        q.clone(),
                        compute_detached(orientation_nest, canonical, loop_perm, q, ctx),
                    )
                },
            )
        };

        // Install the computed results, then assemble answers positionally
        // (pre-existing hits by lookup, fresh results straight from install).
        let mut errors: HashMap<Query, EngineError> = HashMap::new();
        let mut installed: HashMap<Query, AnalysisResult> = HashMap::new();
        for (q, res) in computed {
            match res.and_then(|detached| self.install(e, o, &q, detached)) {
                Ok(result) => {
                    installed.insert(q, result);
                }
                Err(err) => {
                    errors.insert(q, err);
                }
            }
        }
        queries
            .iter()
            .zip(validity)
            .map(|(q, v)| {
                if let Some(err) = v {
                    return Err(err);
                }
                if let Some(err) = errors.get(q) {
                    return Err(err.clone());
                }
                if let Some(result) = installed.get(q) {
                    return Ok(result.clone());
                }
                self.answer(e, o, q)
            })
            .collect()
    }

    /// The optimal exponent at one specific bound value along `axis` — the
    /// memoized form of [`crate::parametric::exponent_at_bound`]. The first
    /// query per `(cache size, axis)` sweeps a 1-D slice of the §7 value
    /// function once; every later bound on that axis (a JIT probing candidate
    /// specializations, say) is read off the slice without touching the
    /// solver. Answers are bitwise-identical to the cold oracle
    /// [`crate::parametric::exponent_at_bound_cold`].
    pub fn exponent_at_bound(
        &mut self,
        nest: &LoopNest,
        cache_size: u64,
        axis: usize,
        bound: u64,
    ) -> Result<Rational, EngineError> {
        self.stats.queries += 1;
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
        let (e, o) = self.intern_indices(nest);
        let (value, was_hit) = self.exponent_at_bound_memo(e, o, cache_size, axis, bound)?;
        if was_hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        // Probe reads share the slice memo, so they count under `slice`.
        self.count_kind(
            query_kind_index(&Query::Slice {
                cache_size,
                axis,
                lo_bound: bound,
                hi_bound: bound,
            }),
            was_hit,
        );
        Ok(value)
    }

    /// The full memoized [`ExponentSurface`] for a [`Query::Surface`]-shaped
    /// request, for callers that need region geometry or slices beyond the
    /// wire-ready [`SurfaceSummary`].
    pub fn exponent_surface(
        &mut self,
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
        self.stats.queries += 1;
        validate_query(nest, &query)?;
        let (e, o) = self.intern_indices(nest);
        let hit = self.is_cached(e, o, &query);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.count_kind(query_kind_index(&query), hit);
        self.surface_in_axis_order(e, o, cache_size, axes, lo_bounds, hi_bounds)
    }

    // -----------------------------------------------------------------------
    // Interning
    // -----------------------------------------------------------------------

    fn intern_indices(&mut self, nest: &LoopNest) -> (usize, usize) {
        let canon = canonicalize(nest);
        self.intern_with(nest, canon)
    }

    pub(crate) fn intern_with(&mut self, nest: &LoopNest, canon: CanonicalNest) -> (usize, usize) {
        let sig = canon.signature();
        let e = match self.index.get(&sig) {
            Some(&e) => e,
            None => {
                self.entries.push(NestEntry {
                    canonical: canon.nest().clone(),
                    orientations: Vec::new(),
                });
                self.stats.interned += 1;
                let e = self.entries.len() - 1;
                self.index.insert(sig, e);
                e
            }
        };
        let o = self.orientation_index(e, nest, &canon);
        (e, o)
    }

    /// The interned entry `e`. Every `e` in circulation was minted by
    /// [`Engine::intern_with`] against this engine, and `entries` is
    /// append-only, so the index cannot go out of range.
    fn entry(&self, e: usize) -> &NestEntry {
        // lint: allow(L008) e is an interned id minted by intern_with; entries is append-only
        &self.entries[e]
    }

    /// The interned orientation `(e, o)` (same invariant as [`Engine::entry`];
    /// `o` is minted by `orientation_index` and orientations are append-only).
    fn orientation(&self, e: usize, o: usize) -> &Orientation {
        // lint: allow(L008) (e, o) are interned ids; entries and orientations are append-only
        &self.entries[e].orientations[o]
    }

    /// Mutable variant of [`Engine::orientation`].
    fn orientation_mut(&mut self, e: usize, o: usize) -> &mut Orientation {
        // lint: allow(L008) (e, o) are interned ids; entries and orientations are append-only
        &mut self.entries[e].orientations[o]
    }

    /// Maps orientation-local axis `axis` to the canonical axis it names.
    /// `axis` has been validated against the nest's loop count by
    /// [`validate_query`] before any memo path runs.
    fn canon_axis(&self, e: usize, o: usize, axis: usize) -> usize {
        // lint: allow(L008) loop_perm has one slot per loop and axis was validated by validate_query
        self.orientation(e, o).loop_perm[axis]
    }

    /// Finds or creates the orientation of entry `e` matching `canon`'s
    /// permutations.
    fn orientation_index(&mut self, e: usize, nest: &LoopNest, canon: &CanonicalNest) -> usize {
        let loop_perm = canon.loop_permutation();
        let array_perm = canon.array_permutation();
        // lint: allow(L008) e was just minted (or found) by intern_with against this engine
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
            nest: nest.clone(),
            hbl_family: None,
        });
        entry.orientations.len() - 1
    }

    /// Entry/orientation lookup **without interning**, for the shared
    /// read path: `None` if the nest (or this orientation of it) has never
    /// been seen.
    pub(crate) fn find_indices(&self, canon: &CanonicalNest) -> Option<(usize, usize)> {
        let e = *self.index.get(&canon.signature())?;
        let loop_perm = canon.loop_permutation();
        let array_perm = canon.array_permutation();
        let o = self
            .entries
            .get(e)?
            .orientations
            .iter()
            .position(|o| o.loop_perm == loop_perm && o.array_perm == array_perm)?;
        Some((e, o))
    }

    // -----------------------------------------------------------------------
    // Memoized artifact paths
    // -----------------------------------------------------------------------

    /// The `β` vector for cache size `m` in canonical loop order, computed
    /// once per `(nest, m)` and recomputed transparently after eviction
    /// (`log_M L` is a pure function of the bounds).
    fn betas_canonical(&mut self, e: usize, m: u64) -> Vec<Rational> {
        let key = BetaKey { entry: e, m };
        if let Some(v) = self.betas.get(&key) {
            return v.clone();
        }
        let v = crate::bounds::betas(&self.entry(e).canonical, m);
        self.betas.insert(key, v.clone(), cost::betas(&v));
        v
    }

    /// The `β` vector in orientation `o`'s loop order, permuted from the
    /// shared canonical vector.
    fn betas_oriented(&mut self, e: usize, o: usize, m: u64) -> Vec<Rational> {
        let canon = self.betas_canonical(e, m);
        let perm = &self.orientation(e, o).loop_perm;
        // lint: allow(L008) loop_perm is a permutation of 0..d and canon has length d
        perm.iter().map(|&c| canon[c].clone()).collect()
    }

    /// `true` iff `query` is already memoized (a repeat query is a pure
    /// lookup). Residency checks do not touch recency.
    fn is_cached(&self, e: usize, o: usize, query: &Query) -> bool {
        match query {
            Query::LowerBound { cache_size } => self.results.contains(&ResultKey {
                entry: e,
                orientation: o,
                m: *cache_size,
                kind: ResultKind::Bound,
            }),
            Query::EnumeratedBound { cache_size } => self.results.contains(&ResultKey {
                entry: e,
                orientation: o,
                m: *cache_size,
                kind: ResultKind::Enumerated,
            }),
            Query::OptimalTiling { cache_size } => self.results.contains(&ResultKey {
                entry: e,
                orientation: o,
                m: *cache_size,
                kind: ResultKind::Tiling,
            }),
            Query::Tightness { cache_size } => self.results.contains(&ResultKey {
                entry: e,
                orientation: o,
                m: *cache_size,
                kind: ResultKind::Tightness,
            }),
            Query::Surface {
                cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            } => {
                let (key, _) = self.surface_key(e, o, *cache_size, axes, lo_bounds, hi_bounds);
                self.surfaces.contains(&key)
            }
            Query::Slice {
                cache_size,
                axis,
                lo_bound,
                hi_bound,
            } => self.slices.contains(&SliceKey {
                entry: e,
                m: *cache_size,
                canon_axis: self.canon_axis(e, o, *axis),
                kind: SliceKind::Span {
                    lo_bound: *lo_bound,
                    hi_bound: *hi_bound,
                },
            }),
        }
    }

    /// Pure cached lookup for the shared read path: `Some(result)` iff the
    /// query is fully answerable without solver work or re-threading any
    /// recency list. Reads go through [`BoundedLru::peek`], which records
    /// recency in atomic stamps, so concurrent readers of a
    /// [`SharedEngine`] shard never take its write lock for a hit. A
    /// tightness query whose report was evicted but whose component
    /// artifacts survive (the shape the derived-last policy produces) is
    /// recomposed here — pure arithmetic, bitwise what the memoizing path
    /// composes — so the shared front keeps the O(1) rewarm property.
    pub(crate) fn peek_cached(&self, e: usize, o: usize, query: &Query) -> Option<AnalysisResult> {
        let result_key = |kind: ResultKind, m: u64| ResultKey {
            entry: e,
            orientation: o,
            m,
            kind,
        };
        match query {
            Query::LowerBound { cache_size } => {
                match self
                    .results
                    .peek(&result_key(ResultKind::Bound, *cache_size))?
                {
                    CachedResult::Bound(lb) => Some(AnalysisResult::LowerBound(lb.clone())),
                    _ => None,
                }
            }
            Query::EnumeratedBound { cache_size } => {
                match self
                    .results
                    .peek(&result_key(ResultKind::Enumerated, *cache_size))?
                {
                    CachedResult::Enumerated(en) => {
                        Some(AnalysisResult::EnumeratedBound(en.clone()))
                    }
                    _ => None,
                }
            }
            Query::OptimalTiling { cache_size } => {
                match self
                    .results
                    .peek(&result_key(ResultKind::Tiling, *cache_size))?
                {
                    CachedResult::Tiling(t) => Some(AnalysisResult::OptimalTiling(t.clone())),
                    _ => None,
                }
            }
            Query::Tightness { cache_size } => {
                if let Some(CachedResult::Tightness(t)) = self
                    .results
                    .peek(&result_key(ResultKind::Tightness, *cache_size))
                {
                    return Some(AnalysisResult::Tightness(t.clone()));
                }
                // Report evicted: recompose from resident components.
                let CachedResult::Tiling(tiling) = self
                    .results
                    .peek(&result_key(ResultKind::Tiling, *cache_size))?
                else {
                    return None;
                };
                let CachedResult::Bound(bound) = self
                    .results
                    .peek(&result_key(ResultKind::Bound, *cache_size))?
                else {
                    return None;
                };
                let CachedResult::Enumerated(enumerated) = self
                    .results
                    .peek(&result_key(ResultKind::Enumerated, *cache_size))?
                else {
                    return None;
                };
                let CachedResult::Certificate(certificate_ok) = self
                    .results
                    .peek(&result_key(ResultKind::Certificate, *cache_size))?
                else {
                    return None;
                };
                Some(AnalysisResult::Tightness(compose_tightness_report(
                    tiling,
                    bound,
                    enumerated,
                    *certificate_ok,
                )))
            }
            Query::Surface {
                cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            } => {
                let (key, order) = self.surface_key(e, o, *cache_size, axes, lo_bounds, hi_bounds);
                let stored = self.surfaces.peek(&key)?;
                Some(AnalysisResult::Surface(
                    stored.summary_in(axes, order.as_deref()),
                ))
            }
            Query::Slice {
                cache_size,
                axis,
                lo_bound,
                hi_bound,
            } => {
                let key = SliceKey {
                    entry: e,
                    m: *cache_size,
                    canon_axis: self.canon_axis(e, o, *axis),
                    kind: SliceKind::Span {
                        lo_bound: *lo_bound,
                        hi_bound: *hi_bound,
                    },
                };
                match self.slices.peek(&key)? {
                    SliceEntry::Span(vf) => Some(AnalysisResult::Slice(vf.clone())),
                    SliceEntry::Probe(_) => None,
                }
            }
        }
    }

    /// Answers `query`, computing and memoizing on miss.
    pub(crate) fn answer(
        &mut self,
        e: usize,
        o: usize,
        query: &Query,
    ) -> Result<AnalysisResult, EngineError> {
        match query {
            Query::LowerBound { cache_size } => Ok(AnalysisResult::LowerBound(self.lower_bound(
                e,
                o,
                *cache_size,
            ))),
            Query::EnumeratedBound { cache_size } => Ok(AnalysisResult::EnumeratedBound(
                self.enumerated(e, o, *cache_size),
            )),
            Query::OptimalTiling { cache_size } => Ok(AnalysisResult::OptimalTiling(self.tiling(
                e,
                o,
                *cache_size,
            ))),
            Query::Tightness { cache_size } => {
                Ok(AnalysisResult::Tightness(self.tightness(e, o, *cache_size)))
            }
            Query::Surface {
                cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            } => self
                .surface_summary(e, o, *cache_size, axes, lo_bounds, hi_bounds)
                .map(AnalysisResult::Surface),
            Query::Slice {
                cache_size,
                axis,
                lo_bound,
                hi_bound,
            } => self
                .slice(e, o, *cache_size, *axis, *lo_bound, *hi_bound)
                .map(AnalysisResult::Slice),
        }
    }

    fn lower_bound(&mut self, e: usize, o: usize, m: u64) -> LowerBound {
        let key = ResultKey {
            entry: e,
            orientation: o,
            m,
            kind: ResultKind::Bound,
        };
        if let Some(CachedResult::Bound(lb)) = self.results.get(&key) {
            return lb.clone();
        }
        // Cold oracle path: the engine's answer *is* the free function's.
        let lb = arbitrary_bound_exponent(&self.orientation(e, o).nest, m);
        let entry = CachedResult::Bound(lb.clone());
        let c = cost::result(&entry);
        self.results.insert(key, entry, c);
        lb
    }

    fn enumerated(&mut self, e: usize, o: usize, m: u64) -> EnumeratedBound {
        let key = ResultKey {
            entry: e,
            orientation: o,
            m,
            kind: ResultKind::Enumerated,
        };
        if let Some(CachedResult::Enumerated(en)) = self.results.get(&key) {
            return en.clone();
        }
        // Warm path through the orientation's persistent HblFamily: the
        // family's matrix is cache-size-independent, so re-enumerations at
        // other cache sizes (and tightness checks) re-enter the retained
        // basis instead of rebuilding it. Results are bitwise-identical to
        // `bounds::enumerated_exponent` (and its cold oracle): each subset's
        // solution is the canonical lex-min optimum — a property of the
        // program, not of the pivot path — and the selection rule is shared.
        let beta = self.betas_oriented(e, o, m);
        let orientation = self.orientation_mut(e, o);
        let d = orientation.nest.num_loops();
        let nest = orientation.nest.clone();
        let family = orientation
            .hbl_family
            .get_or_insert_with(|| HblFamily::new(&nest));
        let gray = (0..1u64 << d).map(|i| i ^ (i >> 1));
        let mut per_subset: Vec<(projtile_loopnest::IndexSet, Rational)> = gray
            .map(|mask| {
                let q = projtile_loopnest::IndexSet::from_bits(mask);
                let sol = family.solve(q);
                (q, exponent_from_s_hat_with_betas(&nest, &beta, q, &sol.s))
            })
            .collect();
        per_subset.sort_unstable_by_key(|(q, _)| q.bits());
        let en = select_best(per_subset);
        let entry = CachedResult::Enumerated(en.clone());
        let c = cost::result(&entry);
        self.results.insert(key, entry, c);
        en
    }

    fn tiling(&mut self, e: usize, o: usize, m: u64) -> TilingSummary {
        let key = ResultKey {
            entry: e,
            orientation: o,
            m,
            kind: ResultKind::Tiling,
        };
        if let Some(CachedResult::Tiling(t)) = self.results.get(&key) {
            return t.clone();
        }
        let nest = &self.orientation(e, o).nest;
        let sol = solve_tiling_lp(nest, m);
        let tile_dims = tile_dims_from_lambda(nest, m, &sol.lambda);
        let summary = TilingSummary {
            lambda: sol.lambda,
            value: sol.value,
            tile_dims,
        };
        let entry = CachedResult::Tiling(summary.clone());
        let c = cost::result(&entry);
        self.results.insert(key, entry, c);
        summary
    }

    /// Validity of the Theorem-3 certificate of the cached lower bound — a
    /// pure function of `(nest, bound)` memoized as a component of the
    /// tightness report, so a report evicted under cache pressure can be
    /// recomposed from surviving components without re-solving the
    /// row-deleted HBL LP.
    fn certificate(&mut self, e: usize, o: usize, m: u64, bound: &LowerBound) -> bool {
        let key = ResultKey {
            entry: e,
            orientation: o,
            m,
            kind: ResultKind::Certificate,
        };
        if let Some(&CachedResult::Certificate(ok)) = self.results.get(&key) {
            return ok;
        }
        let beta = self.betas_oriented(e, o, m);
        let ok = certificate_valid(&self.orientation(e, o).nest, &beta, bound);
        self.results.insert(
            key,
            CachedResult::Certificate(ok),
            cost::result(&CachedResult::Certificate(ok)),
        );
        ok
    }

    fn tightness(&mut self, e: usize, o: usize, m: u64) -> TightnessReport {
        let key = ResultKey {
            entry: e,
            orientation: o,
            m,
            kind: ResultKind::Tightness,
        };
        if let Some(CachedResult::Tightness(t)) = self.results.get(&key) {
            return t.clone();
        }
        // Composed from the shared artifacts — each the exact value the
        // corresponding free function computes — so the report is
        // field-for-field what `tightness::check_tightness` returns, while a
        // preceding LowerBound/EnumeratedBound/OptimalTiling query (or this
        // one) warms the others.
        let tiling = self.tiling(e, o, m);
        let bound = self.lower_bound(e, o, m);
        let enumerated = self.enumerated(e, o, m);
        let certificate_ok = self.certificate(e, o, m, &bound);
        let report = compose_tightness_report(&tiling, &bound, &enumerated, certificate_ok);
        let entry = CachedResult::Tightness(report.clone());
        let c = cost::result(&entry);
        self.results.insert(key, entry, c);
        // Derived-last recency policy: re-touch the component artifacts the
        // report was composed from (bound, enumeration, tiling,
        // certificate), so under LRU pressure the *derived* report is
        // evicted before its inputs. A report is the cheapest artifact to
        // rebuild — recomposition from surviving components takes no LP
        // solve at all — so evicting it first keeps the rewarm path O(1)
        // in solver work.
        self.touch_tightness_components(e, o, m);
        report
    }

    /// Marks the four component artifacts of a tightness report as more
    /// recently used than the report itself (see the derived-last policy in
    /// [`Engine::tightness`]).
    fn touch_tightness_components(&mut self, e: usize, o: usize, m: u64) {
        for kind in [
            ResultKind::Tiling,
            ResultKind::Bound,
            ResultKind::Enumerated,
            ResultKind::Certificate,
        ] {
            self.results.get(&ResultKey {
                entry: e,
                orientation: o,
                m,
                kind,
            });
        }
    }

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

    /// Ensures the sorted-order surface for `key` is resident, computing it
    /// on miss (the stored entry is touched either way). The newest
    /// insertion is never evicted, so the entry is readable afterwards.
    fn ensure_surface(&mut self, e: usize, o: usize, key: &SurfaceKey) -> Result<(), EngineError> {
        if self.surfaces.get(key).is_some() {
            return Ok(());
        }
        let s = crate::parametric::exponent_surface(
            &self.orientation(e, o).nest,
            key.m,
            &key.axes,
            &key.lo_bounds,
            &key.hi_bounds,
        )?;
        let summary = summarize_surface(&s, &key.axes);
        let stored = StoredSurface {
            surface: s,
            summary,
        };
        let c = cost::surface(&stored);
        self.surfaces.insert(key.clone(), stored, c);
        Ok(())
    }

    /// Returns the memoized surface in the caller's axis order, computing
    /// (in sorted-axes order) on miss. A permuted-axes repeat of a cached
    /// surface is a hit: the stored sorted-order surface is remapped exactly
    /// as [`crate::parametric::exponent_surface`] itself remaps, so the
    /// answer stays bitwise-identical to the free function. (Not named
    /// `surface`: the call graph dispatches untyped `.surface()` calls by
    /// name, and `ExponentSurface::surface` is a field accessor.)
    fn surface_in_axis_order(
        &mut self,
        e: usize,
        o: usize,
        m: u64,
        axes: &[usize],
        lo_bounds: &[u64],
        hi_bounds: &[u64],
    ) -> Result<ExponentSurface, EngineError> {
        let (key, order) = self.surface_key(e, o, m, axes, lo_bounds, hi_bounds);
        self.ensure_surface(e, o, &key)?;
        let stored = self
            .surfaces
            .peek(&key)
            .ok_or(EngineError::Internal("surface memo missing after ensure"))?;
        Ok(match order {
            None => stored.surface.clone(),
            Some(order) => stored.surface.with_axis_order(&order),
        })
    }

    /// The wire-ready summary only — the [`Engine::answer`] path. Avoids
    /// cloning the stored surface (the engine's largest artifacts) when the
    /// request is already in canonical axis order.
    fn surface_summary(
        &mut self,
        e: usize,
        o: usize,
        m: u64,
        axes: &[usize],
        lo_bounds: &[u64],
        hi_bounds: &[u64],
    ) -> Result<SurfaceSummary, EngineError> {
        let (key, order) = self.surface_key(e, o, m, axes, lo_bounds, hi_bounds);
        self.ensure_surface(e, o, &key)?;
        let stored = self
            .surfaces
            .peek(&key)
            .ok_or(EngineError::Internal("surface memo missing after ensure"))?;
        Ok(stored.summary_in(axes, order.as_deref()))
    }

    fn slice(
        &mut self,
        e: usize,
        o: usize,
        m: u64,
        axis: usize,
        lo_bound: u64,
        hi_bound: u64,
    ) -> Result<ValueFunction, EngineError> {
        let key = SliceKey {
            entry: e,
            m,
            canon_axis: self.canon_axis(e, o, axis),
            kind: SliceKind::Span { lo_bound, hi_bound },
        };
        if let Some(SliceEntry::Span(vf)) = self.slices.get(&key) {
            return Ok(vf.clone());
        }
        // Computed on the canonical nest (same program, same unique value
        // function — a 1-D value function carries no positional data), so
        // every permuted variant of the nest shares this entry. The sweep
        // probes through a pooled context, warm across queries.
        let vf = {
            let mut ctx = self.pool.checkout();
            exponent_vs_beta_with(
                &self.entry(e).canonical,
                m,
                key.canon_axis,
                lo_bound,
                hi_bound,
                &mut ctx,
            )?
        };
        let entry = SliceEntry::Span(vf.clone());
        let c = cost::slice_entry(&entry);
        self.slices.insert(key, entry, c);
        Ok(vf)
    }

    /// The memoized `exponent_at_bound` path: reads the exponent off a
    /// per-axis probe slice of the §7 value function, sweeping (and
    /// widening) that slice only when a queried bound exceeds the covered
    /// range — or when eviction dropped it, in which case the re-sweep
    /// produces the identical value function again.
    fn exponent_at_bound_memo(
        &mut self,
        e: usize,
        o: usize,
        m: u64,
        axis: usize,
        bound: u64,
    ) -> Result<(Rational, bool), EngineError> {
        let canon_axis = self.canon_axis(e, o, axis);
        let key = SliceKey {
            entry: e,
            m,
            canon_axis,
            kind: SliceKind::Probe,
        };
        let (covered, prev) = match self.slices.get(&key) {
            Some(SliceEntry::Probe(ps)) => (ps.hi_bound >= bound, ps.hi_bound),
            _ => (false, 1),
        };
        if !covered {
            // Widen past the request (and past the nest's own bound) so a
            // scan of nearby candidate bounds is answered by one sweep. Near
            // the top of the u64 range the power-of-two rounding would
            // overflow; sweep to the exact bound instead.
            // lint: allow(L008) canon_axis comes from Orientation::loop_perm, a permutation of the nest's axes
            let nest_bound = self.entry(e).canonical.bounds()[canon_axis];
            let hi = bound.max(nest_bound).max(prev).max(m);
            let hi = hi.checked_next_power_of_two().unwrap_or(hi);
            let vf = {
                let mut ctx = self.pool.checkout();
                exponent_vs_beta_with(&self.entry(e).canonical, m, canon_axis, 1, hi, &mut ctx)?
            };
            let entry = SliceEntry::Probe(PointSlice { hi_bound: hi, vf });
            let c = cost::slice_entry(&entry);
            // The newest insertion is never evicted, so the read below is
            // served even under a zero-cap configuration.
            self.slices.insert(key, entry, c);
        }
        let Some(SliceEntry::Probe(ps)) = self.slices.peek(&key) else {
            return Err(EngineError::Internal("probe slice missing after sweep"));
        };
        let beta = log::beta(bound as u128, m as u128);
        Ok((ps.vf.value_at(&beta), covered))
    }

    /// Installs a detached batch result into the memo caches, mirroring the
    /// sequential memoizing paths, and returns the caller-facing result
    /// (identical to what a post-install [`Engine::answer`] would return,
    /// without re-reading — or, for surfaces, re-remapping — the caches).
    pub(crate) fn install(
        &mut self,
        e: usize,
        o: usize,
        query: &Query,
        detached: Detached,
    ) -> Result<AnalysisResult, EngineError> {
        let result_key = |kind: ResultKind, m: u64| ResultKey {
            entry: e,
            orientation: o,
            m,
            kind,
        };
        Ok(match (query, detached.result) {
            (Query::LowerBound { cache_size }, AnalysisResult::LowerBound(lb)) => {
                let entry = CachedResult::Bound(lb.clone());
                let c = cost::result(&entry);
                self.results
                    .insert(result_key(ResultKind::Bound, *cache_size), entry, c);
                AnalysisResult::LowerBound(lb)
            }
            (Query::EnumeratedBound { cache_size }, AnalysisResult::EnumeratedBound(en)) => {
                let entry = CachedResult::Enumerated(en.clone());
                let c = cost::result(&entry);
                self.results
                    .insert(result_key(ResultKind::Enumerated, *cache_size), entry, c);
                AnalysisResult::EnumeratedBound(en)
            }
            (Query::OptimalTiling { cache_size }, AnalysisResult::OptimalTiling(t)) => {
                let entry = CachedResult::Tiling(t.clone());
                let c = cost::result(&entry);
                self.results
                    .insert(result_key(ResultKind::Tiling, *cache_size), entry, c);
                AnalysisResult::OptimalTiling(t)
            }
            (Query::Tightness { cache_size }, AnalysisResult::Tightness(t)) => {
                // Install the component artifacts first (only where absent —
                // like the sequential path's get_or_insert), then the report
                // last so it is the most recently used of the set.
                if let Some((bound, enumerated, tiling, certificate_ok)) = detached.tightness_parts
                {
                    for (kind, entry) in [
                        (ResultKind::Tiling, CachedResult::Tiling(tiling)),
                        (ResultKind::Bound, CachedResult::Bound(bound)),
                        (ResultKind::Enumerated, CachedResult::Enumerated(enumerated)),
                        (
                            ResultKind::Certificate,
                            CachedResult::Certificate(certificate_ok),
                        ),
                    ] {
                        let key = result_key(kind, *cache_size);
                        if !self.results.contains(&key) {
                            let c = cost::result(&entry);
                            self.results.insert(key, entry, c);
                        }
                    }
                }
                let entry = CachedResult::Tightness(t.clone());
                let c = cost::result(&entry);
                self.results
                    .insert(result_key(ResultKind::Tightness, *cache_size), entry, c);
                // Same derived-last recency policy as the sequential path:
                // the report's component inputs outlive the bulky report.
                self.touch_tightness_components(e, o, *cache_size);
                AnalysisResult::Tightness(t)
            }
            (
                Query::Surface {
                    cache_size,
                    axes,
                    lo_bounds,
                    hi_bounds,
                },
                AnalysisResult::Surface(summary),
            ) => {
                let (key, _) = self.surface_key(e, o, *cache_size, axes, lo_bounds, hi_bounds);
                let stored = detached
                    .surface
                    .ok_or(EngineError::Internal("surface result lacks its surface"))?;
                if !self.surfaces.contains(&key) {
                    let c = cost::surface(&stored);
                    self.surfaces.insert(key, stored, c);
                }
                AnalysisResult::Surface(summary)
            }
            (
                Query::Slice {
                    cache_size,
                    axis,
                    lo_bound,
                    hi_bound,
                },
                AnalysisResult::Slice(vf),
            ) => {
                let key = SliceKey {
                    entry: e,
                    m: *cache_size,
                    canon_axis: self.canon_axis(e, o, *axis),
                    kind: SliceKind::Span {
                        lo_bound: *lo_bound,
                        hi_bound: *hi_bound,
                    },
                };
                if !self.slices.contains(&key) {
                    let entry = SliceEntry::Span(vf.clone());
                    let c = cost::slice_entry(&entry);
                    self.slices.insert(key, entry, c);
                }
                AnalysisResult::Slice(vf)
            }
            _ => {
                return Err(EngineError::Internal(
                    "detached result variant does not match its query",
                ))
            }
        })
    }
}

/// A result computed off-engine during a batch fan-out, plus the extra
/// artifacts the memoizing path would have cached as side effects: the full
/// sorted-order surface for a surface query, and the component artifacts of
/// a tightness check (so a batched `Tightness` warms `LowerBound`,
/// `EnumeratedBound`, `OptimalTiling` and the certificate exactly like the
/// sequential path).
pub(crate) struct Detached {
    result: AnalysisResult,
    surface: Option<StoredSurface>,
    tightness_parts: Option<(LowerBound, EnumeratedBound, TilingSummary, bool)>,
}

impl Detached {
    /// Answers a canonical twin of the computed query — the same surface
    /// requested with permuted axes — from the computed sorted-order
    /// surface, by the same exact remap [`compute_detached`] applies. Reads
    /// no cache and solves nothing.
    pub(crate) fn twin_answer(&self, twin: &Query) -> Result<AnalysisResult, EngineError> {
        match (twin, &self.surface) {
            (
                Query::Surface {
                    axes,
                    lo_bounds,
                    hi_bounds,
                    ..
                },
                Some(stored),
            ) => {
                let (_, _, _, order) =
                    crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
                Ok(AnalysisResult::Surface(
                    stored.summary_in(axes, order.as_deref()),
                ))
            }
            _ => Err(EngineError::Internal(
                "only a computed surface answers a canonical twin",
            )),
        }
    }
}

/// Cost estimates of the cache entries installing `detached` would write,
/// in install order — five for a tightness result (tiling, bound,
/// enumerated, certificate, then the report last), one otherwise. Recorded
/// into trace events so the lab's replay charges simulated caches exactly
/// what the live install charged the real ones.
pub(crate) fn detached_costs(detached: &Detached) -> Vec<u64> {
    if let Some((bound, enumerated, tiling, _certificate_ok)) = &detached.tightness_parts {
        return vec![
            cost::tiling(tiling),
            cost::bound(bound),
            cost::enumerated(enumerated),
            cost::certificate(),
            cost::tightness(),
        ];
    }
    if let Some(stored) = &detached.surface {
        return vec![cost::surface(stored)];
    }
    match &detached.result {
        AnalysisResult::LowerBound(lb) => vec![cost::bound(lb)],
        AnalysisResult::EnumeratedBound(en) => vec![cost::enumerated(en)],
        AnalysisResult::OptimalTiling(t) => vec![cost::tiling(t)],
        AnalysisResult::Slice(vf) => vec![cost::value_function(vf)],
        // Tightness and Surface results always carry their parts/surface
        // and are handled above; an inconsistent Detached records nothing.
        AnalysisResult::Tightness(_) | AnalysisResult::Surface(_) => Vec::new(),
    }
}

/// Computes one query with no access to the engine's caches — the batch
/// fan-out worker (also the miss path of [`SharedEngine`], which computes
/// outside its shard locks). Every path here is bitwise-identical to the
/// corresponding memoizing path in [`Engine::answer`] (both bottom out in
/// path-independent solves), so batch answers equal sequential answers.
pub(crate) fn compute_detached(
    orientation_nest: &LoopNest,
    canonical: &LoopNest,
    loop_perm: &[usize],
    query: &Query,
    ctx: &mut projtile_lp::SolverContext,
) -> Result<Detached, EngineError> {
    let result = match query {
        Query::LowerBound { cache_size } => AnalysisResult::LowerBound(
            crate::bounds::arbitrary_bound_exponent(orientation_nest, *cache_size),
        ),
        Query::EnumeratedBound { cache_size } => AnalysisResult::EnumeratedBound(
            crate::bounds::enumerated_exponent(orientation_nest, *cache_size),
        ),
        Query::OptimalTiling { cache_size } => {
            let sol = crate::tiling_lp::solve_tiling_lp(orientation_nest, *cache_size);
            let tile_dims =
                crate::tiling_lp::tile_dims_from_lambda(orientation_nest, *cache_size, &sol.lambda);
            AnalysisResult::OptimalTiling(TilingSummary {
                lambda: sol.lambda,
                value: sol.value,
                tile_dims,
            })
        }
        Query::Tightness { cache_size } => {
            // Computed from its explicit components (exactly the fields
            // `check_tightness` derives) so the fan-out can hand them back
            // for installation — a batched Tightness warms LowerBound,
            // EnumeratedBound and OptimalTiling just like the sequential
            // path does.
            let m = *cache_size;
            let bound = crate::bounds::arbitrary_bound_exponent(orientation_nest, m);
            let enumerated = crate::bounds::enumerated_exponent(orientation_nest, m);
            let sol = crate::tiling_lp::solve_tiling_lp(orientation_nest, m);
            let tile_dims =
                crate::tiling_lp::tile_dims_from_lambda(orientation_nest, m, &sol.lambda);
            let tiling = TilingSummary {
                lambda: sol.lambda,
                value: sol.value,
                tile_dims,
            };
            let beta = crate::bounds::betas(orientation_nest, m);
            let certificate_ok = certificate_valid(orientation_nest, &beta, &bound);
            let report = compose_tightness_report(&tiling, &bound, &enumerated, certificate_ok);
            return Ok(Detached {
                result: AnalysisResult::Tightness(report),
                surface: None,
                tightness_parts: Some((bound, enumerated, tiling, certificate_ok)),
            });
        }
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } => {
            // Compute in sorted-axes order (the storage order of the surface
            // memo) and derive the caller-order summary by the same exact
            // remap the free function applies.
            let (s_axes, s_lo, s_hi, order) =
                crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
            let s = crate::parametric::exponent_surface(
                orientation_nest,
                *cache_size,
                &s_axes,
                &s_lo,
                &s_hi,
            )?;
            let stored = StoredSurface {
                summary: summarize_surface(&s, &s_axes),
                surface: s,
            };
            return Ok(Detached {
                result: AnalysisResult::Surface(stored.summary_in(axes, order.as_deref())),
                surface: Some(stored),
                tightness_parts: None,
            });
        }
        Query::Slice {
            cache_size,
            axis,
            lo_bound,
            hi_bound,
        } => AnalysisResult::Slice(crate::parametric::exponent_vs_beta_with(
            canonical,
            *cache_size,
            // lint: allow(L008) axis was range-checked against num_loops by validate_query
            loop_perm[*axis],
            *lo_bound,
            *hi_bound,
            ctx,
        )?),
    };
    Ok(Detached {
        result,
        surface: None,
        tightness_parts: None,
    })
}

/// The cache-canonical form of a query: `Surface` axes sorted ascending
/// with their bound ranges permuted alongside — the form the surface memo
/// keys by. Every other variant is its own canonical form. Batch dedupe
/// compares these, so two permuted-axes requests for the same surface in
/// one batch compute it once (the second is answered by the exact remap).
pub(crate) fn canonical_query_form(query: &Query) -> Query {
    match query {
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } => {
            let (axes, lo_bounds, hi_bounds, _) =
                crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
            Query::Surface {
                cache_size: *cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            }
        }
        other => other.clone(),
    }
}

/// Validity of a lower bound's Theorem-3 certificate: the `ŝ` formula value
/// matches the claimed exponent and `ŝ` is feasible for the row-deleted HBL
/// LP. A pure function of `(nest, betas, bound)` — exactly the check
/// [`crate::tightness::check_tightness`] performs inline.
pub(crate) fn certificate_valid(nest: &LoopNest, beta: &[Rational], bound: &LowerBound) -> bool {
    let formula_value =
        exponent_from_s_hat_with_betas(nest, beta, bound.witness_subset, &bound.s_hat);
    let row_deleted = hbl_lp(nest, bound.witness_subset);
    formula_value == bound.exponent && row_deleted.is_feasible(&bound.s_hat)
}

/// Builds the Theorem-3 report from its component artifacts —
/// field-for-field what [`crate::tightness::check_tightness`] computes on the
/// same nest (shared by the memoizing path and the batch fan-out, so both
/// install identical state).
pub(crate) fn compose_tightness_report(
    tiling: &TilingSummary,
    bound: &LowerBound,
    enumerated: &EnumeratedBound,
    certificate_ok: bool,
) -> TightnessReport {
    TightnessReport {
        tiling_exponent: tiling.value.clone(),
        bound_exponent: bound.exponent.clone(),
        enumerated_exponent: enumerated.exponent.clone(),
        witness_subset: bound.witness_subset,
        tight: tiling.value == bound.exponent && certificate_ok,
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

/// Mirrors the assertions of the free functions as recoverable errors.
pub(crate) fn validate_query(nest: &LoopNest, query: &Query) -> Result<(), EngineError> {
    let d = nest.num_loops();
    if query.cache_size() < 2 {
        return Err(EngineError::InvalidQuery(
            "cache size must be at least 2 words".into(),
        ));
    }
    match query {
        Query::EnumeratedBound { .. } | Query::Tightness { .. } => {
            if d > 30 {
                return Err(EngineError::InvalidQuery(format!(
                    "subset enumeration over {d} > 30 indices refused"
                )));
            }
        }
        Query::Surface {
            axes,
            lo_bounds,
            hi_bounds,
            ..
        } => {
            if axes.is_empty() {
                return Err(EngineError::InvalidQuery(
                    "at least one swept axis required".into(),
                ));
            }
            if axes.len() != lo_bounds.len() || axes.len() != hi_bounds.len() {
                return Err(EngineError::InvalidQuery(
                    "one bound range per swept axis required".into(),
                ));
            }
            let mut seen: Vec<usize> = Vec::with_capacity(axes.len());
            for (&a, (&lo, &hi)) in axes.iter().zip(lo_bounds.iter().zip(hi_bounds.iter())) {
                if a >= d {
                    return Err(EngineError::InvalidQuery(format!(
                        "axis {a} out of range for a {d}-loop nest"
                    )));
                }
                if seen.contains(&a) {
                    return Err(EngineError::InvalidQuery(format!(
                        "axis {a} swept twice in the same surface"
                    )));
                }
                seen.push(a);
                if lo < 1 || hi < lo {
                    return Err(EngineError::InvalidQuery(format!(
                        "invalid bound range on axis {a}"
                    )));
                }
            }
        }
        Query::Slice {
            axis,
            lo_bound,
            hi_bound,
            ..
        } => {
            if *axis >= d {
                return Err(EngineError::InvalidQuery(format!(
                    "axis {axis} out of range for a {d}-loop nest"
                )));
            }
            if *lo_bound < 1 || hi_bound < lo_bound {
                return Err(EngineError::InvalidQuery("invalid bound range".into()));
            }
        }
        Query::LowerBound { .. } | Query::OptimalTiling { .. } => {}
    }
    Ok(())
}

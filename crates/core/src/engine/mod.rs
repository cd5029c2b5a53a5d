//! The unified analysis session: a long-lived [`Engine`] answering typed
//! [`Query`]s over interned loop nests with cross-query artifact reuse,
//! bounded memoization, and session persistence — plus the thread-safe
//! [`SharedEngine`] front for concurrent serving: one `Engine` behind a
//! reader-writer lock, whose hits read under the shared lock and whose
//! misses compute outside it.
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
//! * **One pipeline.** [`Engine::analyze_batch`] and
//!   [`SharedEngine::analyze_batch`] resolve queries through the same
//!   phases (probe, classify, compute, answer twins, intern and install,
//!   assemble — see `engine/resolve.rs`), and each front's `analyze` is a
//!   batch of one. The shared front holds one `Engine` and its budgets are
//!   that engine's, so a serialized stream of batches counts, evicts and
//!   snapshots identically through either front.
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
mod resolve;
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
use projtile_lp::ContextPool;

use crate::bounds::{EnumeratedBound, LowerBound};
use crate::parametric::{exponent_vs_beta_with, ExponentSurface};
use crate::tightness::TightnessReport;
use cache::{
    cost, CachedResult, NestEntry, Orientation, PointSlice, ResultKey, SliceEntry, SliceKey,
    SliceKind, StoredSurface, SurfaceKey,
};
use resolve::{canonical_query_form, validate_query, Batch};

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

/// A long-lived analysis session. See the [module docs](self) for the reuse
/// model; see [`Query`] for the request vocabulary and [`SharedEngine`] for
/// the thread-safe front.
pub struct Engine {
    config: EngineConfig,
    entries: Vec<NestEntry>,
    index: HashMap<NestSignature, usize>,
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
        let _ = self.intern_with(&canon);
        canon.signature()
    }

    /// Number of distinct canonical signatures interned so far.
    pub fn num_interned(&self) -> usize {
        self.entries.len()
    }

    /// Counters for this session's lifetime.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Occupancy, cost, and eviction counters of the three memo caches,
    /// plus hit/miss counters per query kind.
    pub fn cache_metrics(&self) -> CacheMetrics {
        CacheMetrics {
            results: self.results.stats(),
            slices: self.slices.stats(),
            surfaces: self.surfaces.stats(),
            kinds: self.kinds,
        }
    }

    /// Records one resolved query in the aggregate and per-kind counters.
    fn count(&mut self, kind: usize, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        // Counters are best-effort; an out-of-range kind drops the count
        // rather than panicking a query that already has its answer.
        if let Some(k) = self.kinds.get_mut(kind) {
            if hit {
                k.hits += 1;
            } else {
                k.misses += 1;
            }
        }
    }

    /// Answers one typed query about `nest` — a batch of one through
    /// [`Engine::analyze_batch`]. Results are bitwise-identical to the
    /// corresponding free function (see the module docs).
    pub fn analyze(
        &mut self,
        nest: &LoopNest,
        query: &Query,
    ) -> Result<AnalysisResult, EngineError> {
        self.analyze_batch(nest, std::slice::from_ref(query))
            .pop()
            .unwrap_or(Err(EngineError::Internal("a batch of one answers once")))
    }

    /// Answers a batch of queries about `nest`, in input order, through the
    /// pipeline [`SharedEngine::analyze_batch`] runs too: resident answers
    /// are read from the caches, the remaining distinct queries fan out
    /// through `projtile_par` with one pooled warm solver context per worker
    /// chunk (a component of a pending `Tightness` is taken from it instead),
    /// and the results are installed. Every compute path is
    /// path-independent, so the fan-out cannot change any answer.
    pub fn analyze_batch(
        &mut self,
        nest: &LoopNest,
        queries: &[Query],
    ) -> Vec<Result<AnalysisResult, EngineError>> {
        self.stats.queries += queries.len() as u64;
        let canon = canonicalize(nest);
        let mut batch = Batch::probe(self, nest, &canon, queries);
        let installed = batch
            .compute(&self.pool, nest, &canon, false)
            .map(|computed| computed.install(self, &canon));
        let resolved = batch.finish(installed);
        for (q, outcome) in queries.iter().zip(&resolved.outcomes) {
            if let Some(hit) = outcome.counts_as_hit() {
                self.count(query_kind_index(q), hit);
            }
        }
        resolved.answers
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
        // Probe reads share the slice memo, so they count under `slice`.
        self.count(
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
    /// wire-ready [`SurfaceSummary`]. The query is resolved like any other;
    /// the stored sorted-order surface it leaves resident is then remapped
    /// to the caller's axis order, exactly as
    /// [`crate::parametric::exponent_surface`] remaps.
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
        // A valid request is resolved in its sorted-axes form: that keys the
        // same memo entry and counts alike, and its hit clones the stored
        // summary instead of remapping it, so the one remap is the one
        // below. An invalid request is resolved as given, for its error.
        let resolvable = match validate_query(nest, &query) {
            Ok(()) => canonical_query_form(&query),
            Err(_) => query,
        };
        self.analyze(nest, &resolvable)?;
        // A hit leaves the surface resident, and a miss installed it as the
        // newest insertion, which is never evicted.
        let Some((e, Some(o))) = self.find_indices(&canonicalize(nest)) else {
            return Err(EngineError::Internal(
                "surface nest not interned after resolve",
            ));
        };
        let (key, order) = self.surface_key(e, o, cache_size, axes, lo_bounds, hi_bounds);
        let stored = self
            .surfaces
            .peek(&key)
            .ok_or(EngineError::Internal("surface memo missing after resolve"))?;
        Ok(match order {
            None => stored.surface.clone(),
            Some(order) => stored.surface.with_axis_order(&order),
        })
    }

    // -----------------------------------------------------------------------
    // Interning
    // -----------------------------------------------------------------------

    fn intern_indices(&mut self, nest: &LoopNest) -> (usize, usize) {
        self.intern_with(&canonicalize(nest))
    }

    /// Interns the nest `canon` was computed from: its canonical entry and
    /// the orientation (declaration order) it was declared in.
    pub(crate) fn intern_with(&mut self, canon: &CanonicalNest) -> (usize, usize) {
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
        let o = self.orientation_index(e, canon);
        (e, o)
    }

    /// The interned entry `e`. Every `e` in circulation was minted by
    /// [`Engine::intern_with`] against this engine, and `entries` is
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
        });
        entry.orientations.len() - 1
    }

    /// Entry/orientation lookup **without interning**, for the read path:
    /// `None` if the nest has never been seen, an orientation of `None` if
    /// it has but never in this declaration order.
    pub(crate) fn find_indices(&self, canon: &CanonicalNest) -> Option<(usize, Option<usize>)> {
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
    // Cache keys and the probe-slice memo
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
    use projtile_loopnest::builders;

    use super::*;
    use crate::bounds::{arbitrary_bound_exponent, exponent_from_s_hat};
    use crate::hbl::hbl_lp;

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

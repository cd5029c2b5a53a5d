//! The thread-safe service front: a [`SharedEngine`] holding one [`Engine`]
//! behind a reader-writer lock.
//!
//! # Concurrency model
//!
//! * **Hits read under the shared lock.** A cache hit takes only the
//!   `parking_lot` *read* lock: the memoized answer is read through
//!   [`projtile_cachesim::BoundedLru::peek`], which records recency in
//!   per-entry atomic stamps rather than re-threading the LRU list, so
//!   concurrent hits proceed in parallel and never queue behind each other
//!   (the stamps are folded into the eviction order by the next exclusive
//!   operation).
//! * **Compute outside the lock.** A miss computes with the stateless
//!   free-function paths using a solver context checked out of the front's
//!   shared [`projtile_lp::ContextPool`] — one context per worker, so
//!   concurrent `analyze_batch` calls from many threads never serialize on
//!   one warm tableau — and only then takes the write lock, briefly, to
//!   intern and install. A batch with nothing to compute takes no write
//!   lock at all. Two threads racing on the same query compute the same
//!   bitwise value; the loser's install is an idempotent overwrite.
//!
//! The front resolves queries through the same pipeline as [`Engine`]
//! (`engine/resolve.rs`) against the same single set of caches, so answers
//! are bitwise-identical to a single-threaded session and to the cold free
//! functions under any interleaving and any eviction pressure — pinned by
//! the multi-threaded differential proptests — and a serialized stream of
//! batches counts, evicts and snapshots exactly as an [`Engine`] with the
//! same budgets does.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use projtile_loopnest::{canonicalize, CanonicalNest, LoopNest};
use projtile_lp::ContextPool;
use serde::{json, Value};

use super::resolve::{canonical_query_form, Batch, Outcome, Resolved};
use super::trace::{outcome, TraceDocument, TraceEvent, TraceRecorder, TRACE_VERSION};
use super::{
    query_kind_index, AnalysisResult, CacheMetrics, Engine, EngineConfig, EngineError, EngineStats,
    Query, QUERY_KIND_COUNT,
};

/// A thread-safe analysis service front. Create once, share by reference
/// (`&SharedEngine` is `Send + Sync`) across worker threads.
///
/// ```
/// use projtile_core::engine::{AnalysisResult, Query, SharedEngine};
/// use projtile_loopnest::builders;
///
/// let shared = SharedEngine::new();
/// let nest = builders::matmul(512, 512, 8);
/// let query = Query::Tightness { cache_size: 1 << 10 };
/// // Concurrent callers share one session; repeats are read-lock hits.
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         scope.spawn(|| shared.analyze(&nest, &query).unwrap());
///     }
/// });
/// assert_eq!(shared.stats().interned, 1);
/// match shared.analyze(&nest, &query).unwrap() {
///     AnalysisResult::Tightness(report) => assert!(report.tight),
///     other => panic!("unexpected result {other:?}"),
/// }
/// ```
pub struct SharedEngine {
    engine: RwLock<Engine>,
    pool: ContextPool,
    queries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    kind_hits: [AtomicU64; QUERY_KIND_COUNT],
    kind_misses: [AtomicU64; QUERY_KIND_COUNT],
    recorder: TraceRecorder,
    /// Front-wide counters at the moment the recorder was attached, so the
    /// drained document reports stats covering exactly the recorded window.
    trace_base: EngineStats,
    /// Cache entries resident when the recorder was attached (non-zero for
    /// a snapshot-restored front; differential replays refuse warm traces).
    trace_warm_entries: u64,
}

impl Default for SharedEngine {
    fn default() -> SharedEngine {
        SharedEngine::new()
    }
}

impl std::fmt::Debug for SharedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEngine")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl SharedEngine {
    /// Creates a front with default cache budgets.
    pub fn new() -> SharedEngine {
        SharedEngine::with_config(EngineConfig::default())
    }

    /// Creates a front with explicit cache budgets: `config` is the whole
    /// front's retention, exactly as for [`Engine::with_config`].
    pub fn with_config(config: EngineConfig) -> SharedEngine {
        SharedEngine::over(Engine::with_config(config))
    }

    /// A front serving `engine`'s caches.
    fn over(engine: Engine) -> SharedEngine {
        SharedEngine {
            engine: RwLock::new(engine),
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

    /// Counters for this front's lifetime.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            interned: self.engine.read().num_interned() as u64,
        }
    }

    /// Cache occupancy and eviction counters plus per-query-kind hit/miss
    /// counters. The front resolves queries itself (peek + install) and
    /// never runs its engine's own query path, so the per-kind counters are
    /// the front's atomics alone.
    pub fn cache_metrics(&self) -> CacheMetrics {
        let mut metrics = Engine::cache_metrics(&self.engine.read());
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

    // -----------------------------------------------------------------------
    // Trace recording (the cache lab's input)
    // -----------------------------------------------------------------------

    /// Attaches a bounded lock-free trace recorder retaining up to
    /// `capacity` events (0 disables recording and removes all overhead
    /// from the query path). Takes `&mut self`, so recording is wired
    /// before the front is shared — the service does this at boot, driven
    /// by `--trace-capacity` / `PROJTILE_TRACE_CAPACITY`.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.recorder = TraceRecorder::with_capacity(capacity);
        self.trace_base = self.stats();
        let m = self.cache_metrics();
        self.trace_warm_entries =
            (m.results.entries + m.slices.entries + m.surfaces.entries) as u64;
    }

    /// `true` iff a non-zero-capacity recorder is attached.
    pub fn trace_enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Drains the recorded trace (without resetting it) as a
    /// [`TraceDocument`]: the recorded events plus the front's budgets and
    /// the hit/miss counters covering the recorded window — everything the
    /// lab's differential replay needs to reproduce the live accounting.
    pub fn trace_document(&self) -> TraceDocument {
        let stats = self.stats();
        TraceDocument {
            version: TRACE_VERSION,
            config: self.engine.read().config(),
            queries: stats.queries.saturating_sub(self.trace_base.queries),
            hits: stats.hits.saturating_sub(self.trace_base.hits),
            misses: stats.misses.saturating_sub(self.trace_base.misses),
            dropped: self.recorder.dropped(),
            warm_entries: self.trace_warm_entries,
            events: self.recorder.events(),
        }
    }

    /// Answers one typed query about `nest` — a batch of one through
    /// [`SharedEngine::analyze_batch`]. Answers are bitwise-identical to
    /// [`Engine::analyze`] on a private session.
    pub fn analyze(&self, nest: &LoopNest, query: &Query) -> Result<AnalysisResult, EngineError> {
        self.analyze_batch(nest, std::slice::from_ref(query))
            .pop()
            .unwrap_or(Err(EngineError::Internal("a batch of one answers once")))
    }

    /// Answers a batch of queries about `nest`, in input order, through the
    /// pipeline [`Engine::analyze_batch`] runs too. Hits are read under the
    /// read lock; the remaining distinct queries fan out through
    /// `projtile_par` with per-worker pooled solver contexts before one
    /// write-lock install pass, which a batch of hits skips entirely.
    pub fn analyze_batch(
        &self,
        nest: &LoopNest,
        queries: &[Query],
    ) -> Vec<Result<AnalysisResult, EngineError>> {
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let canon = canonicalize(nest);
        let tracing = self.recorder.enabled();
        let mut batch = {
            let engine = self.engine.read();
            Batch::probe(&engine, nest, &canon, queries)
        };
        // The guard is let-bound so the lint's lock checks see `install`
        // run under it.
        let installed = batch
            .compute(&self.pool, nest, &canon, tracing)
            .map(|computed| {
                let mut engine = self.engine.write();
                computed.install(&mut engine, &canon)
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

    /// Records one batch as a contiguous event group, in input order: one
    /// event per valid query, carrying its outcome and, for a miss, the
    /// costs of what it installed.
    fn record(
        &self,
        canon: &CanonicalNest,
        queries: &[Query],
        outcomes: &[Outcome],
        costs: Vec<Vec<u64>>,
    ) {
        let sig_hash = hash_u64(&canon.signature());
        let orient = orientation_hash(sig_hash, canon);
        let batch = self.recorder.next_batch();
        let events = queries
            .iter()
            .zip(outcomes)
            .zip(costs)
            .filter_map(|((q, o), costs)| {
                let oc = match o {
                    Outcome::Invalid => return None,
                    Outcome::Hit => outcome::HIT,
                    Outcome::Miss => outcome::MISS,
                    Outcome::Duplicate => outcome::DUPLICATE,
                    Outcome::Failed => outcome::FAILED,
                };
                Some(TraceEvent {
                    ordinal: 0,
                    batch,
                    sig: sig_hash,
                    orient,
                    kind: query_kind_index(q) as u8,
                    m: q.cache_size(),
                    lhash: hash_u64(q),
                    fam: family_hash(sig_hash, orient, canon, q),
                    outcome: oc,
                    costs,
                })
            })
            .collect();
        self.recorder.record(events);
    }

    /// Serializes the front's caches as a snapshot document, exactly
    /// [`Engine::snapshot`] of the engine it holds, so snapshots move freely
    /// between the two fronts. Holds the write lock for the whole
    /// serialization to a [`Value`] tree (printing it as text, as
    /// [`SharedEngine::snapshot_json`] does, happens after the lock is
    /// released).
    pub fn snapshot(&self) -> Value {
        Engine::snapshot(&mut self.engine.write())
    }

    /// [`SharedEngine::snapshot`] printed as compact JSON.
    pub fn snapshot_json(&self) -> String {
        json::to_string(&self.snapshot())
    }

    /// Restores a front from a snapshot (produced by either
    /// [`Engine::snapshot`] or [`SharedEngine::snapshot`]) with default
    /// budgets.
    pub fn restore(value: &Value) -> Result<SharedEngine, EngineError> {
        Engine::restore(value).map(SharedEngine::over)
    }

    /// [`SharedEngine::restore`] with explicit budgets, exactly as for
    /// [`Engine::restore_with_config`].
    pub fn restore_with_config(
        value: &Value,
        config: EngineConfig,
    ) -> Result<SharedEngine, EngineError> {
        Engine::restore_with_config(value, config).map(SharedEngine::over)
    }

    /// Restores a front from snapshot JSON text with default budgets.
    pub fn restore_json(text: &str) -> Result<SharedEngine, EngineError> {
        Engine::restore_json(text).map(SharedEngine::over)
    }
}

/// Best-effort per-kind counter bump: an out-of-range kind drops the count
/// rather than panicking a query that already has its answer.
fn bump(counters: &[AtomicU64], kind: usize) {
    if let Some(c) = counters.get(kind) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// `DefaultHasher` digest of any hashable value — the trace's identity
/// primitive.
fn hash_u64<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Hash of one declaration order of a canonical nest: the identity the
/// orientation-keyed caches (typed results, surfaces) miss across until a
/// write-lock pass has interned this orientation.
fn orientation_hash(sig_hash: u64, canon: &CanonicalNest) -> u64 {
    hash_u64(&(
        sig_hash,
        canon.loop_permutation(),
        canon.array_permutation(),
    ))
}

/// Hash of the cache-canonical identity of a valid query — which memoized
/// entry (within its kind's cache) answers it:
///
/// * typed results are keyed per `(orientation, M)`;
/// * slices are keyed per `(signature, M, canonical axis, span)` — shared
///   across orientations, like the live slice cache;
/// * surfaces are keyed per `(orientation, M, sorted axes, box)`, so
///   permuted-axes twins share a family (the live canonicalized key).
///
/// Two valid queries of one batch (same orientation) agree on
/// `(kind, family)` exactly when their [`canonical_query_form`]s are
/// equal, which is what the pipeline's classification compares.
fn family_hash(sig_hash: u64, orient_hash: u64, canon: &CanonicalNest, query: &Query) -> u64 {
    match query {
        Query::LowerBound { cache_size }
        | Query::EnumeratedBound { cache_size }
        | Query::OptimalTiling { cache_size }
        | Query::Tightness { cache_size } => hash_u64(&(orient_hash, *cache_size)),
        Query::Slice {
            cache_size,
            axis,
            lo_bound,
            hi_bound,
        } => hash_u64(&(
            sig_hash,
            *cache_size,
            canon.loop_permutation().get(*axis).copied(),
            *lo_bound,
            *hi_bound,
        )),
        Query::Surface { .. } => match canonical_query_form(query) {
            Query::Surface {
                cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            } => hash_u64(&(orient_hash, cache_size, axes, lo_bounds, hi_bounds)),
            // The canonical form of a surface query is a surface query.
            _ => orient_hash,
        },
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use projtile_loopnest::builders;

    use super::*;

    #[test]
    fn all_hit_batches_take_no_write_lock_and_no_solver_context() {
        let nest = builders::matmul(64, 64, 8);
        let m = 1 << 8;
        let queries = vec![
            Query::Tightness { cache_size: m },
            Query::LowerBound { cache_size: m },
            Query::Tightness { cache_size: m },
        ];
        let mut warm = Engine::new();
        let expected = warm.analyze_batch(&nest, &queries);
        let front = SharedEngine::restore(&warm.snapshot()).expect("snapshot restores");

        // Another holder of the read guard must not stall a batch that
        // computes nothing: it takes no write lock.
        let (tx, rx) = mpsc::channel();
        let answers = std::thread::scope(|scope| {
            let reader = front.engine.read();
            let (front, nest, queries) = (&front, &nest, &queries);
            scope.spawn(move || tx.send(front.analyze_batch(nest, queries)));
            let answers = rx.recv_timeout(Duration::from_secs(5));
            drop(reader);
            answers
        });
        let answers = answers.expect("an all-hit batch completes beside a reader");
        assert_eq!(answers, expected);
        assert_eq!(front.stats().misses, 0, "{:?}", front.stats());
        assert_eq!(front.pool.idle(), 0, "no solver context was checked out");
    }
}

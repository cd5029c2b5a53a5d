//! The thread-safe service front: a [`SharedEngine`] sharding session state
//! by canonical nest signature.
//!
//! # Concurrency model
//!
//! * **Sharding.** Each interned nest lives in exactly one shard (chosen by
//!   hashing its permutation-invariant [`NestSignature`]), and each shard is
//!   an independent [`Engine`] behind a `parking_lot` reader-writer lock.
//!   Traffic on distinct nests contends only when the nests hash to the same
//!   shard.
//! * **Lock-free read path for hits.** A cache hit takes only the shard's
//!   *shared* read lock: the memoized answer is read through
//!   [`projtile_cachesim::BoundedLru::peek`], which records recency in
//!   per-entry atomic stamps rather than re-threading the LRU list, so
//!   concurrent hits on one shard proceed in parallel and never queue behind
//!   a writer (the stamps are folded into the eviction order by the next
//!   exclusive operation).
//! * **Compute outside the locks.** A miss computes with the stateless
//!   free-function paths (identical bitwise to the memoizing paths) using a
//!   solver context checked out of the front's shared
//!   [`projtile_lp::ContextPool`] — one context per worker, so concurrent
//!   `analyze_batch` calls from many threads never serialize on one warm
//!   tableau — and only then takes the shard's write lock, briefly, to
//!   intern and install. Two threads racing on the same query compute the
//!   same bitwise value; the loser's install is an idempotent overwrite.
//!
//! Answers are bitwise-identical to a single-threaded [`Engine`] and to the
//! cold free functions, under any interleaving and any eviction pressure —
//! pinned by the multi-threaded differential proptests.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use projtile_loopnest::{canonicalize, CanonicalNest, LoopNest, NestSignature};
use projtile_lp::ContextPool;
use projtile_par::par_map_with;
use serde::{json, Value};

use super::snapshot::SNAPSHOT_VERSION;
use super::trace::{outcome, TraceDocument, TraceEvent, TraceRecorder, TRACE_VERSION};
use super::{
    compute_detached, query_kind_index, validate_query, AnalysisResult, CacheMetrics, Engine,
    EngineConfig, EngineError, EngineStats, Query, QUERY_KIND_COUNT,
};

/// A thread-safe, sharded analysis service front. Create once, share by
/// reference (`&SharedEngine` is `Send + Sync`) across worker threads.
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
    shards: Vec<RwLock<Engine>>,
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
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Default shard count: enough to keep `PROJTILE_THREADS` workers off each
/// other's locks, capped so idle shards stay cheap.
fn default_shards() -> usize {
    projtile_par::num_threads().clamp(1, 16).next_power_of_two()
}

impl SharedEngine {
    /// Creates a front with default cache budgets and shard count.
    pub fn new() -> SharedEngine {
        SharedEngine::with_config(EngineConfig::default(), default_shards())
    }

    /// Creates a front with explicit cache budgets and shard count. The
    /// budgets are **divided evenly across shards** (rounding up, so a
    /// small budget is never silently zeroed; the front may retain up to
    /// `shards - 1` cost units more than requested per cache). `config`
    /// therefore describes the whole front's retention, not one shard's.
    pub fn with_config(config: EngineConfig, num_shards: usize) -> SharedEngine {
        let n = num_shards.max(1) as u64;
        let per_shard = EngineConfig {
            results_capacity: config.results_capacity.div_ceil(n),
            betas_capacity: config.betas_capacity.div_ceil(n),
            slices_capacity: config.slices_capacity.div_ceil(n),
            surfaces_capacity: config.surfaces_capacity.div_ceil(n),
        };
        let n = n as usize;
        SharedEngine {
            shards: (0..n)
                .map(|_| RwLock::new(Engine::with_config(per_shard)))
                .collect(),
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

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Counters for this front's lifetime, aggregated across shards.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            interned: self
                .shards
                .iter()
                .map(|s| s.read().num_interned() as u64)
                .sum(),
        }
    }

    /// Cache occupancy and eviction counters, summed across shards, plus
    /// per-query-kind hit/miss counters. The front resolves queries itself
    /// (peek + install), so its shard engines' own kind counters stay zero
    /// and the per-kind totals come from the front's atomics.
    pub fn cache_metrics(&self) -> CacheMetrics {
        let mut total = CacheMetrics::default();
        for shard in &self.shards {
            // Engine::cache_metrics only reads its own caches; the edge into
            // SharedEngine::stats is a same-name dispatch over-approximation.
            // lint: allow(L009) Engine::cache_metrics reads shard-local caches only
            let m = shard.read().cache_metrics();
            for (acc, part) in [
                (&mut total.betas, m.betas),
                (&mut total.results, m.results),
                (&mut total.slices, m.slices),
                (&mut total.surfaces, m.surfaces),
            ] {
                acc.entries += part.entries;
                acc.cost += part.cost;
                acc.capacity += part.capacity;
                acc.evictions += part.evictions;
            }
            for (acc, part) in total.kinds.iter_mut().zip(m.kinds) {
                acc.hits += part.hits;
                acc.misses += part.misses;
            }
        }
        for ((acc, hits), misses) in total
            .kinds
            .iter_mut()
            .zip(&self.kind_hits)
            .zip(&self.kind_misses)
        {
            acc.hits += hits.load(Ordering::Relaxed);
            acc.misses += misses.load(Ordering::Relaxed);
        }
        total
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
        self.trace_warm_entries = (m.betas.entries + m.results.entries)
            .saturating_add(m.slices.entries + m.surfaces.entries)
            as u64;
    }

    /// `true` iff a non-zero-capacity recorder is attached.
    pub fn trace_enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Drains the recorded trace (without resetting it) as a
    /// [`TraceDocument`]: the recorded events plus the front geometry
    /// (shard count, per-shard budgets) and the hit/miss counters covering
    /// the recorded window — everything the lab's differential replay
    /// needs to reproduce the live accounting.
    pub fn trace_document(&self) -> TraceDocument {
        let stats = self.stats();
        let shard_config = self
            .shards
            .first()
            .map(|s| s.read().config())
            .unwrap_or_default();
        TraceDocument {
            version: TRACE_VERSION,
            num_shards: self.shards.len() as u32,
            shard_config,
            queries: stats.queries.saturating_sub(self.trace_base.queries),
            hits: stats.hits.saturating_sub(self.trace_base.hits),
            misses: stats.misses.saturating_sub(self.trace_base.misses),
            dropped: self.recorder.dropped(),
            warm_entries: self.trace_warm_entries,
            events: self.recorder.events(),
        }
    }

    fn shard_of(&self, sig: &NestSignature) -> usize {
        self.shard_index(hash_u64(sig))
    }

    /// Routes a signature hash to its home shard's index. `shards` is
    /// non-empty for every constructed front, and `checked_rem` keeps the
    /// arithmetic total even if it were not.
    fn shard_index(&self, hash: u64) -> usize {
        hash.checked_rem(self.shards.len() as u64).unwrap_or(0) as usize
    }

    /// The shard lock routed to by `hash`.
    fn shard(&self, hash: u64) -> &RwLock<Engine> {
        // lint: allow(L008) shard_index is always < shards.len() (checked_rem) and shards is non-empty by construction
        &self.shards[self.shard_index(hash)]
    }

    /// Answers one typed query about `nest`. Hits are served under the
    /// shard's read lock; misses compute outside any lock and install under
    /// a brief write lock. Answers are bitwise-identical to
    /// [`Engine::analyze`] on a private session.
    pub fn analyze(&self, nest: &LoopNest, query: &Query) -> Result<AnalysisResult, EngineError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        validate_query(nest, query)?;
        let canon = canonicalize(nest);
        let sig_hash = hash_u64(&canon.signature());
        let shard = self.shard(sig_hash);
        let kind = query_kind_index(query);
        // Build the hashed trace identity before `canon` is consumed by
        // interning; with recording disabled this is skipped entirely.
        let traced = self.recorder.enabled().then(|| {
            let orient = orientation_hash(sig_hash, &canon);
            (
                orient,
                hash_u64(query),
                family_hash(sig_hash, orient, &canon, query),
            )
        });
        {
            let engine = shard.read();
            if let Some((e, o)) = engine.find_indices(&canon) {
                if let Some(result) = engine.peek_cached(e, o, query) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    bump(&self.kind_hits, kind);
                    if let Some(id) = traced {
                        self.record_single(sig_hash, id, query, outcome::HIT, Vec::new());
                    }
                    return Ok(result);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        bump(&self.kind_misses, kind);
        // Compute with no lock held: the detached path is bitwise-identical
        // to the memoizing path (both bottom out in path-independent
        // solves), so racing threads install interchangeable values.
        let detached = {
            let mut ctx = self.pool.checkout();
            compute_detached(
                nest,
                canon.nest(),
                canon.loop_permutation(),
                query,
                &mut ctx,
            )
        };
        let detached = match detached {
            Ok(d) => d,
            Err(err) => {
                // Counted as a miss but nothing interned or installed: the
                // replay must not intern the orientation either.
                if let Some(id) = traced {
                    self.record_single(sig_hash, id, query, outcome::FAILED_NO_INTERN, Vec::new());
                }
                return Err(err);
            }
        };
        let costs = if traced.is_some() {
            super::detached_costs(&detached)
        } else {
            Vec::new()
        };
        let result = {
            let mut engine = shard.write();
            let (e, o) = engine.intern_with(nest, canon);
            // `install` hands back the caller-facing result directly, so the
            // write lock is held only for the cache insertions — no
            // re-lookup, no surface re-remap under the lock.
            engine.install(e, o, query, detached)
        };
        if let Some(id) = traced {
            match &result {
                Ok(_) => self.record_single(sig_hash, id, query, outcome::MISS, costs),
                Err(_) => self.record_single(sig_hash, id, query, outcome::FAILED, Vec::new()),
            }
        }
        result
    }

    /// Records the lone event of a single-query call (its own batch).
    fn record_single(
        &self,
        sig_hash: u64,
        (orient, lhash, fam): (u64, u64, u64),
        query: &Query,
        outcome: u8,
        costs: Vec<u64>,
    ) {
        let batch = self.recorder.next_batch();
        self.recorder.record(vec![TraceEvent {
            ordinal: 0,
            batch,
            sig: sig_hash,
            orient,
            kind: query_kind_index(query) as u8,
            m: query.cache_size(),
            lhash,
            fam,
            outcome,
            costs,
        }]);
    }

    /// Answers a batch of queries about `nest`, in input order — the
    /// concurrent counterpart of [`Engine::analyze_batch`]. Hits are read
    /// under the shard's read lock; the remaining distinct queries fan out
    /// through `projtile_par` with per-worker pooled solver contexts before
    /// one write-lock installation pass.
    pub fn analyze_batch(
        &self,
        nest: &LoopNest,
        queries: &[Query],
    ) -> Vec<Result<AnalysisResult, EngineError>> {
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let validity: Vec<Option<EngineError>> = queries
            .iter()
            .map(|q| validate_query(nest, q).err())
            .collect();
        if validity.iter().all(|v| v.is_some()) {
            // All invalid (`flatten` preserves the length: all are `Some`).
            return validity.into_iter().flatten().map(Err).collect();
        }
        let canon = canonicalize(nest);
        let sig_hash = hash_u64(&canon.signature());
        let shard = self.shard(sig_hash);
        let tracing = self.recorder.enabled();
        // Hashed trace identities per valid query, built while `canon` is
        // still available (interning consumes it below).
        let orient_hash = tracing.then(|| orientation_hash(sig_hash, &canon));
        let identities: Vec<Option<(u64, u64)>> = match orient_hash {
            Some(orient) => queries
                .iter()
                .zip(&validity)
                .map(|(q, v)| {
                    v.is_none()
                        .then(|| (hash_u64(q), family_hash(sig_hash, orient, &canon, q)))
                })
                .collect(),
            None => Vec::new(),
        };

        // Serve what is already memoized from the read path.
        let mut cached: HashMap<Query, AnalysisResult> = HashMap::new();
        {
            let engine = shard.read();
            if let Some((e, o)) = engine.find_indices(&canon) {
                for (q, v) in queries.iter().zip(&validity) {
                    if v.is_none() && !cached.contains_key(q) {
                        if let Some(result) = engine.peek_cached(e, o, q) {
                            cached.insert(q.clone(), result);
                        }
                    }
                }
            }
        }
        // Distinct uncached queries, deduplicated by cache-canonical form:
        // permuted-axes twins compute once. A twin occurrence counts as a
        // hit; a repeated literal of a pending query counts as neither hit
        // nor miss — exactly [`Engine::analyze_batch`]'s accounting.
        let mut pending: Vec<Query> = Vec::new();
        let mut pending_forms: HashMap<Query, usize> = HashMap::new();
        for (q, v) in queries.iter().zip(&validity) {
            if v.is_none() && !cached.contains_key(q) {
                pending_forms
                    .entry(super::canonical_query_form(q))
                    .or_insert_with(|| {
                        pending.push(q.clone());
                        pending.len() - 1
                    });
            }
        }
        let mut hit_count = 0u64;
        for (q, v) in queries.iter().zip(&validity) {
            if v.is_none() && !pending.contains(q) {
                hit_count += 1;
                bump(&self.kind_hits, query_kind_index(q));
            }
        }
        self.hits.fetch_add(hit_count, Ordering::Relaxed);
        self.misses
            .fetch_add(pending.len() as u64, Ordering::Relaxed);
        for q in &pending {
            bump(&self.kind_misses, query_kind_index(q));
        }

        // Fan out with no lock held; one pooled context per worker chunk.
        let computed: Vec<(Query, Result<super::Detached, EngineError>)> = {
            let orientation_nest = nest;
            let canonical = canon.nest();
            let loop_perm = canon.loop_permutation();
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

        // Canonical twins are answered from the surface their own batch just
        // computed, still outside the lock: a twin reads no cache entry, so
        // it cannot resurrect (or recompute) a surface the install pass
        // below evicts.
        let mut twins: HashMap<&Query, Result<AnalysisResult, EngineError>> = HashMap::new();
        for (q, v) in queries.iter().zip(&validity) {
            if v.is_some() || cached.contains_key(q) || pending.contains(q) {
                continue;
            }
            let Some((_, rep)) = pending_forms
                .get(&super::canonical_query_form(q))
                .and_then(|&at| computed.get(at))
            else {
                continue;
            };
            twins.entry(q).or_insert_with(|| match rep {
                Ok(detached) => detached.twin_answer(q),
                Err(err) => Err(err.clone()),
            });
        }

        let mut errors: HashMap<Query, EngineError> = HashMap::new();
        let mut installed: HashMap<Query, AnalysisResult> = HashMap::new();
        let mut install_costs: HashMap<Query, Vec<u64>> = HashMap::new();
        let mut engine = shard.write();
        let (e, o) = engine.intern_with(nest, canon);
        for (q, res) in computed {
            match res {
                Ok(detached) => {
                    if tracing {
                        install_costs.insert(q.clone(), super::detached_costs(&detached));
                    }
                    match engine.install(e, o, &q, detached) {
                        Ok(result) => {
                            installed.insert(q, result);
                        }
                        Err(err) => {
                            errors.insert(q, err);
                        }
                    }
                }
                Err(err) => {
                    errors.insert(q, err);
                }
            }
        }
        drop(engine);
        let results: Vec<Result<AnalysisResult, EngineError>> = queries
            .iter()
            .zip(&validity)
            .map(|(q, v)| {
                if let Some(err) = v {
                    return Err(err.clone());
                }
                if let Some(err) = errors.get(q) {
                    return Err(err.clone());
                }
                if let Some(result) = cached.get(q).or_else(|| installed.get(q)) {
                    return Ok(result.clone());
                }
                twins
                    .get(q)
                    .cloned()
                    .unwrap_or(Err(EngineError::Internal("batch query left unanswered")))
            })
            .collect();
        if let Some(orient) = orient_hash {
            // One contiguous event group per batch, in input order; the
            // outcome classification mirrors the accounting above exactly
            // (hit / first-pending miss / duplicate literal / failed).
            let batch = self.recorder.next_batch();
            let mut seen_pending: HashSet<&Query> = HashSet::new();
            let mut events = Vec::new();
            for ((q, id), installed_ok) in queries.iter().zip(&identities).zip(&results) {
                let Some((lhash, fam)) = id else { continue };
                let (oc, costs) = if cached.contains_key(q) {
                    (outcome::HIT, Vec::new())
                } else if pending.contains(q) {
                    if seen_pending.insert(q) {
                        if installed_ok.is_err() {
                            (outcome::FAILED, Vec::new())
                        } else {
                            (
                                outcome::MISS,
                                install_costs.get(q).cloned().unwrap_or_default(),
                            )
                        }
                    } else {
                        (outcome::DUPLICATE, Vec::new())
                    }
                } else {
                    // A canonical twin: counted as a hit, answered from its
                    // batch's computation.
                    (outcome::HIT, Vec::new())
                };
                events.push(TraceEvent {
                    ordinal: 0,
                    batch,
                    sig: sig_hash,
                    orient,
                    kind: query_kind_index(q) as u8,
                    m: q.cache_size(),
                    lhash: *lhash,
                    fam: *fam,
                    outcome: oc,
                    costs,
                });
            }
            self.recorder.record(events);
        }
        results
    }

    /// Serializes the whole front — every shard's result caches — as one
    /// snapshot document in the same format as [`Engine::snapshot`], so
    /// snapshots move freely between sharded and single-threaded sessions
    /// (and between fronts with different shard counts). Takes each shard's
    /// write lock briefly, one at a time.
    pub fn snapshot(&self) -> Value {
        let mut entries = Vec::new();
        let mut betas = Vec::new();
        let mut results = Vec::new();
        let mut slices = Vec::new();
        let mut surfaces = Vec::new();
        for shard in &self.shards {
            let mut engine = shard.write();
            let (e, b, r, sl, su) = engine.snapshot_parts(entries.len());
            entries.extend(e);
            betas.extend(b);
            results.extend(r);
            slices.extend(sl);
            surfaces.extend(su);
        }
        Value::Object(vec![
            ("version".to_string(), Value::Int(SNAPSHOT_VERSION as i128)),
            ("entries".to_string(), Value::Array(entries)),
            ("betas".to_string(), Value::Array(betas)),
            ("results".to_string(), Value::Array(results)),
            ("slices".to_string(), Value::Array(slices)),
            ("surfaces".to_string(), Value::Array(surfaces)),
        ])
    }

    /// [`SharedEngine::snapshot`] printed as compact JSON.
    pub fn snapshot_json(&self) -> String {
        json::to_string(&self.snapshot())
    }

    /// Restores a front from a snapshot (produced by either
    /// [`Engine::snapshot`] or [`SharedEngine::snapshot`]) with default
    /// budgets and shard count. Entries are routed to their home shards by
    /// signature, so the shard count need not match the snapshotting front.
    pub fn restore(value: &Value) -> Result<SharedEngine, EngineError> {
        SharedEngine::restore_with_config(value, EngineConfig::default(), default_shards())
    }

    /// [`SharedEngine::restore`] with explicit budgets and shard count.
    pub fn restore_with_config(
        value: &Value,
        config: EngineConfig,
        num_shards: usize,
    ) -> Result<SharedEngine, EngineError> {
        let front = SharedEngine::with_config(config, num_shards);
        // One routing pass assigns every entry to its home shard; each
        // per-shard restore then deserializes only its own entries and
        // artifacts (foreign records are skipped by index before their
        // payloads are parsed).
        let routing: Vec<usize> = super::snapshot::entry_signatures(value)?
            .iter()
            .map(|sig| front.shard_of(sig))
            .collect();
        for (i, shard) in front.shards.iter().enumerate() {
            let per_shard_config = shard.read().config();
            let restored = Engine::restore_filtered(value, per_shard_config, &|idx| {
                routing.get(idx) == Some(&i)
            })?;
            *shard.write() = restored;
        }
        Ok(front)
    }

    /// Restores a front from snapshot JSON text with default budgets.
    pub fn restore_json(text: &str) -> Result<SharedEngine, EngineError> {
        let value =
            json::parse(text).map_err(|e| EngineError::Snapshot(format!("snapshot JSON: {e}")))?;
        SharedEngine::restore(&value)
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
/// primitive (also how [`SharedEngine::shard_of`] routes, so a recorded
/// `sig % num_shards` names the live shard).
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
/// `(kind, family)` exactly when their [`super::canonical_query_form`]s
/// are equal, which is what the live batch dedupe compares.
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
        Query::Surface { .. } => match super::canonical_query_form(query) {
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

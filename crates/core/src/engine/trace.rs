//! Query-trace recording for the cache lab.
//!
//! A [`TraceRecorder`] is a lock-free bounded event log inside
//! [`super::Engine`]: every query an `analyze`/`analyze_batch` call answers
//! appends one [`TraceEvent`] carrying exactly the identity the memo caches
//! key by (hashed, not the payloads), the per-entry cost estimates a miss
//! installed, and how the live engine resolved it. The log is drained as a
//! [`TraceDocument`] — a compact flat-vector serialization through the
//! workspace serde layer — which `projtile_lab` replays through the live
//! cache type at any budgets. Replaying a document at the recorded budgets
//! reproduces the live engine's hit/miss counts event-for-event (the
//! keystone differential of the lab's tests and the ci.sh smoke stage).
//! [`super::Engine::exponent_at_bound`] probes are counted but not
//! recorded, so a trace whose window includes them does not replay to the
//! live counts.
//!
//! # Recording overhead
//!
//! The recorder is append-only and wait-free on the query path: a batch
//! reserves a contiguous slot range with one `fetch_add` and writes each
//! event into its own `OnceLock` slot, so recording never takes a lock and
//! never blocks a concurrent drain. With capacity 0 (the default) the
//! recorder is disabled and the query path skips event construction
//! entirely. Once the buffer is full, further events are counted in
//! [`TraceDocument::dropped`] rather than recorded — a truncated trace is
//! still exactly replayable up to the point it stopped.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use projtile_loopnest::CanonicalNest;
use serde::{json, Value};

use super::resolve::{canonical_query_form, Outcome};
use super::{query_kind_index, Engine, EngineConfig, Query};

/// Version stamp of the serialized trace document format.
pub const TRACE_VERSION: u32 = 4;

/// Integer header fields per serialized event (`costs` values follow).
const EVENT_HEADER: usize = 10;

/// Upper bound on per-event cost counts accepted by the parser (a
/// tightness miss prices three artifacts; nothing prices more). Rejects
/// hostile documents instead of over-reading the flat vector.
const MAX_COSTS: usize = 8;

/// How the live [`super::Engine`] resolved one recorded query.
/// Stored as the `outcome` byte of a [`TraceEvent`].
pub mod outcome {
    /// Served from a memoized artifact under the engine's read lock.
    pub const HIT: u8 = 0;
    /// Computed, then installed under the engine's write lock. The event
    /// carries the per-entry cost estimates of everything it may install.
    pub const MISS: u8 = 1;
    /// A duplicate literal occurrence of a pending query within one batch:
    /// the engine counts it neither as a hit nor as a miss.
    pub const DUPLICATE: u8 = 2;
    /// A miss whose computation failed: counted as a miss, but nothing was
    /// installed (the batch still interned the nest's orientation, like
    /// every batch with something to compute).
    pub const FAILED: u8 = 3;
}

/// One recorded query against the engine. Identity is hashed — the
/// trace carries exactly what the memo caches key by, never nest or result
/// payloads — so documents stay compact and replay needs no solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global append position (assigned by the recorder; events with equal
    /// `batch` are contiguous and in intra-batch input order).
    pub ordinal: u64,
    /// Which `analyze`/`analyze_batch` call produced this event (one id per
    /// call). Replay regroups events by this id: a batch probes all its
    /// queries before installing any of them.
    pub batch: u64,
    /// Hash of the nest's canonical [`projtile_loopnest::NestSignature`]:
    /// the identity the slice cache keys by.
    pub sig: u64,
    /// Hash of `(sig, loop permutation, array permutation)` — the nest's
    /// declaration order. Orientation-keyed caches miss until a batch of
    /// this orientation has interned it.
    pub orient: u64,
    /// [`super::query_kind_index`] of the query.
    pub kind: u8,
    /// The queried fast-memory size `M`.
    pub m: u64,
    /// Hash of the literal query, for intra-batch duplicate accounting.
    pub lhash: u64,
    /// Hash of the query's cache-canonical identity: which memoized entry
    /// (per kind) answers it. Permuted-axes surface twins share a family.
    pub fam: u64,
    /// An [`outcome`] constant.
    pub outcome: u8,
    /// Cost estimates of the entries a miss may install, in install order
    /// (three for a tightness miss — tiling, bound, enumerated, each
    /// installed only where absent — one otherwise; empty unless `outcome`
    /// is [`outcome::MISS`]).
    pub costs: Vec<u64>,
}

/// A lock-free bounded append-only event log (see the module docs above).
#[derive(Debug)]
pub struct TraceRecorder {
    slots: Vec<OnceLock<TraceEvent>>,
    cursor: AtomicU64,
    batches: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRecorder {
    /// A disabled recorder (capacity 0): recording is a no-op and callers
    /// should skip event construction ([`TraceRecorder::enabled`]).
    pub fn disabled() -> TraceRecorder {
        TraceRecorder::with_capacity(0)
    }

    /// A recorder retaining up to `capacity` events; later events are
    /// dropped (and counted) once full.
    pub fn with_capacity(capacity: usize) -> TraceRecorder {
        TraceRecorder {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            cursor: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// `false` for a capacity-0 recorder: skip building events entirely.
    pub fn enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Reserves the next batch id (one per `analyze`/`analyze_batch` call).
    pub fn next_batch(&self) -> u64 {
        self.batches.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends one call's events contiguously (one `fetch_add` reserves the
    /// whole range). Events past capacity are dropped and counted; each
    /// recorded event's `ordinal` is overwritten with its global slot.
    pub fn record(&self, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let start = self
            .cursor
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        for (i, mut ev) in events.into_iter().enumerate() {
            let slot = start + i as u64;
            if let Some(cell) = self.slots.get(slot as usize) {
                ev.ordinal = slot;
                // Each slot is reserved by exactly one reservation, so the
                // set cannot race; ignore the (impossible) second set.
                let _ = cell.set(ev);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The fully-written prefix of the log, in append order. Stops at the
    /// first slot a concurrent writer has reserved but not yet filled, so a
    /// drain racing live traffic still returns a consistent prefix.
    pub fn events(&self) -> Vec<TraceEvent> {
        let end = (self.cursor.load(Ordering::Acquire) as usize).min(self.slots.len());
        let mut out = Vec::with_capacity(end);
        for slot in self.slots.iter().take(end) {
            match slot.get() {
                Some(ev) => out.push(ev.clone()),
                None => break,
            }
        }
        out
    }
}

impl Engine {
    /// Attaches a bounded lock-free trace recorder retaining up to
    /// `capacity` events (0 disables recording and removes all overhead
    /// from the query path). Takes `&mut self`, so recording is wired
    /// before the engine is shared — the service does this at boot, driven
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
    /// [`TraceDocument`]: the recorded events plus the engine's budgets and
    /// the hit/miss counters covering the recorded window — everything the
    /// lab's differential replay needs to reproduce the live accounting.
    pub fn trace_document(&self) -> TraceDocument {
        let stats = self.stats();
        TraceDocument {
            version: TRACE_VERSION,
            config: self.config(),
            queries: stats.queries.saturating_sub(self.trace_base.queries),
            hits: stats.hits.saturating_sub(self.trace_base.hits),
            misses: stats.misses.saturating_sub(self.trace_base.misses),
            dropped: self.recorder.dropped(),
            warm_entries: self.trace_warm_entries,
            events: self.recorder.events(),
        }
    }

    /// Records one batch as a contiguous event group, in input order: one
    /// event per valid query, carrying its outcome and, for a miss, the
    /// costs of what it installed.
    pub(super) fn record(
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

/// A drained trace: everything the lab needs to replay the recorded
/// traffic through the live cache type at the live budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDocument {
    /// Format version ([`TRACE_VERSION`]).
    pub version: u32,
    /// The cache budgets of the recording engine.
    pub config: EngineConfig,
    /// Queries answered since the recorder was attached (includes invalid
    /// queries, which are rejected before reaching any cache and are never
    /// recorded as events).
    pub queries: u64,
    /// Cache hits since the recorder was attached.
    pub hits: u64,
    /// Cache misses since the recorder was attached.
    pub misses: u64,
    /// Events dropped after the recorder filled.
    pub dropped: u64,
    /// Cache entries already resident when the recorder was attached. A
    /// replay can only reproduce live counts exactly from a cold start, so
    /// differential checks refuse documents with a warm prefix.
    pub warm_entries: u64,
    /// The recorded events, in append order.
    pub events: Vec<TraceEvent>,
}

impl TraceDocument {
    /// Serializes through the workspace serde layer. Events are packed as
    /// one flat integer vector (`EVENT_HEADER` fields then the costs, per
    /// event) rather than an array of objects, keeping large traces
    /// compact on the wire.
    pub fn to_value(&self) -> Value {
        let mut flat: Vec<Value> = Vec::with_capacity(self.events.len() * (EVENT_HEADER + 1));
        for ev in &self.events {
            flat.push(Value::Int(ev.ordinal as i128));
            flat.push(Value::Int(ev.batch as i128));
            flat.push(Value::Int(ev.sig as i128));
            flat.push(Value::Int(ev.orient as i128));
            flat.push(Value::Int(ev.kind as i128));
            flat.push(Value::Int(ev.m as i128));
            flat.push(Value::Int(ev.lhash as i128));
            flat.push(Value::Int(ev.fam as i128));
            flat.push(Value::Int(ev.outcome as i128));
            flat.push(Value::Int(ev.costs.len() as i128));
            for &c in &ev.costs {
                flat.push(Value::Int(c as i128));
            }
        }
        Value::Object(vec![
            ("version".to_string(), Value::Int(self.version as i128)),
            (
                "config".to_string(),
                Value::Object(vec![
                    (
                        "results_capacity".to_string(),
                        Value::Int(self.config.results_capacity as i128),
                    ),
                    (
                        "slices_capacity".to_string(),
                        Value::Int(self.config.slices_capacity as i128),
                    ),
                    (
                        "surfaces_capacity".to_string(),
                        Value::Int(self.config.surfaces_capacity as i128),
                    ),
                ]),
            ),
            ("queries".to_string(), Value::Int(self.queries as i128)),
            ("hits".to_string(), Value::Int(self.hits as i128)),
            ("misses".to_string(), Value::Int(self.misses as i128)),
            ("dropped".to_string(), Value::Int(self.dropped as i128)),
            (
                "warm_entries".to_string(),
                Value::Int(self.warm_entries as i128),
            ),
            ("events".to_string(), Value::Array(flat)),
        ])
    }

    /// [`TraceDocument::to_value`] printed as compact JSON.
    pub fn to_json(&self) -> String {
        json::to_string(&self.to_value())
    }

    /// Parses a serialized trace. Rejects version skew, truncated or torn
    /// flat vectors, out-of-range integers and type confusion with typed
    /// [`TraceError`]s; never panics on hostile input.
    pub fn from_value(value: &Value) -> Result<TraceDocument, TraceError> {
        let version = read_u64(value, "version")?;
        if version != TRACE_VERSION as u64 {
            return Err(TraceError::Version(version));
        }
        let config = value
            .field("config")
            .map_err(|e| TraceError::Malformed(e.to_string()))?;
        let config = EngineConfig {
            results_capacity: read_u64(config, "results_capacity")?,
            slices_capacity: read_u64(config, "slices_capacity")?,
            surfaces_capacity: read_u64(config, "surfaces_capacity")?,
        };
        let flat = match value
            .field("events")
            .map_err(|e| TraceError::Malformed(e.to_string()))?
        {
            Value::Array(items) => items,
            other => {
                return Err(TraceError::Malformed(format!(
                    "expected an array of event integers, found {}",
                    other.kind()
                )))
            }
        };
        let mut events = Vec::new();
        let mut at = 0usize;
        while at < flat.len() {
            if flat.len() - at < EVENT_HEADER {
                return Err(TraceError::Malformed(format!(
                    "torn event header at offset {at}: {} of {EVENT_HEADER} fields",
                    flat.len() - at
                )));
            }
            let ordinal = uint_at(flat, at, "ordinal")?;
            let batch = uint_at(flat, at + 1, "batch")?;
            let sig = uint_at(flat, at + 2, "sig")?;
            let orient = uint_at(flat, at + 3, "orient")?;
            let kind = uint_at(flat, at + 4, "kind")?;
            let m = uint_at(flat, at + 5, "m")?;
            let lhash = uint_at(flat, at + 6, "lhash")?;
            let fam = uint_at(flat, at + 7, "fam")?;
            let oc = uint_at(flat, at + 8, "outcome")?;
            let ncosts = uint_at(flat, at + 9, "ncosts")?;
            if kind >= super::QUERY_KIND_COUNT as u64 {
                return Err(TraceError::Malformed(format!(
                    "event kind {kind} out of range at offset {at}"
                )));
            }
            if oc > outcome::FAILED as u64 {
                return Err(TraceError::Malformed(format!(
                    "event outcome {oc} out of range at offset {at}"
                )));
            }
            if ncosts > MAX_COSTS as u64 {
                return Err(TraceError::Malformed(format!(
                    "implausible cost count {ncosts} at offset {at}"
                )));
            }
            let ncosts = ncosts as usize;
            at += EVENT_HEADER;
            if flat.len() - at < ncosts {
                return Err(TraceError::Malformed(format!(
                    "torn cost vector at offset {at}: {} of {ncosts} values",
                    flat.len() - at
                )));
            }
            let mut costs = Vec::with_capacity(ncosts);
            for i in 0..ncosts {
                costs.push(uint_at(flat, at + i, "cost")?);
            }
            at += ncosts;
            events.push(TraceEvent {
                ordinal,
                batch,
                sig,
                orient,
                kind: kind as u8,
                m,
                lhash,
                fam,
                outcome: oc as u8,
                costs,
            });
        }
        Ok(TraceDocument {
            version: TRACE_VERSION,
            config,
            queries: read_u64(value, "queries")?,
            hits: read_u64(value, "hits")?,
            misses: read_u64(value, "misses")?,
            dropped: read_u64(value, "dropped")?,
            warm_entries: read_u64(value, "warm_entries")?,
            events,
        })
    }

    /// Parses a trace from JSON text ([`TraceDocument::from_value`]).
    pub fn from_json(text: &str) -> Result<TraceDocument, TraceError> {
        let value =
            json::parse(text).map_err(|e| TraceError::Malformed(format!("trace JSON: {e}")))?;
        TraceDocument::from_value(&value)
    }
}

fn read_u64(value: &Value, name: &str) -> Result<u64, TraceError> {
    let field = value
        .field(name)
        .map_err(|e| TraceError::Malformed(e.to_string()))?;
    as_u64(field).map_err(|got| {
        TraceError::Malformed(format!("field `{name}` must be an unsigned integer, {got}"))
    })
}

fn uint_at(flat: &[Value], at: usize, what: &str) -> Result<u64, TraceError> {
    let v = flat.get(at).ok_or_else(|| {
        TraceError::Malformed(format!("event vector ends before {what} at offset {at}"))
    })?;
    as_u64(v).map_err(|got| {
        TraceError::Malformed(format!(
            "event {what} at offset {at} must be unsigned, {got}"
        ))
    })
}

/// `Ok(n)` for an in-range non-negative integer, `Err(description)` of
/// what was found otherwise.
fn as_u64(v: &Value) -> Result<u64, String> {
    match v {
        Value::Int(i) => u64::try_from(*i).map_err(|_| format!("found out-of-range {i}")),
        other => Err(format!("found {}", other.kind())),
    }
}

/// Why a serialized trace was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The document declares an unsupported format version.
    Version(u64),
    /// The document is structurally invalid: missing or mistyped fields, a
    /// torn or truncated event vector, or out-of-range values.
    Malformed(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Version(found) => write!(
                f,
                "unsupported trace version {found} (expected {TRACE_VERSION})"
            ),
            TraceError::Malformed(msg) => write!(f, "malformed trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ordinal: u64, costs: Vec<u64>) -> TraceEvent {
        TraceEvent {
            ordinal,
            batch: ordinal / 2,
            sig: 11 * ordinal + 3,
            orient: 13 * ordinal + 5,
            kind: (ordinal % 6) as u8,
            m: 1 << 10,
            lhash: 17 * ordinal + 7,
            fam: 19 * ordinal + 9,
            outcome: if costs.is_empty() {
                outcome::HIT
            } else {
                outcome::MISS
            },
            costs,
        }
    }

    #[test]
    fn recorder_is_bounded_and_counts_drops() {
        let rec = TraceRecorder::with_capacity(3);
        assert!(rec.enabled());
        rec.record(vec![event(0, vec![]), event(0, vec![100])]);
        rec.record(vec![event(0, vec![]), event(0, vec![])]);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.dropped(), 1);
        // Ordinals are rewritten to global slots.
        assert_eq!(
            events.iter().map(|e| e.ordinal).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = TraceRecorder::disabled();
        assert!(!rec.enabled());
        rec.record(vec![event(0, vec![])]);
        assert!(rec.events().is_empty());
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = TraceDocument {
            version: TRACE_VERSION,
            config: EngineConfig {
                results_capacity: 175,
                slices_capacity: 225,
                surfaces_capacity: 500,
            },
            queries: 7,
            hits: 3,
            misses: 3,
            dropped: 0,
            warm_entries: 0,
            events: vec![
                event(0, vec![]),
                event(1, vec![456]),
                event(2, vec![1, 2, 3]),
            ],
        };
        let parsed = TraceDocument::from_json(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn version_skew_is_a_typed_error() {
        let mut doc = TraceDocument {
            version: TRACE_VERSION,
            config: EngineConfig::default(),
            queries: 0,
            hits: 0,
            misses: 0,
            dropped: 0,
            warm_entries: 0,
            events: vec![],
        };
        doc.version = TRACE_VERSION + 1;
        match TraceDocument::from_json(&doc.to_json()) {
            Err(TraceError::Version(v)) => assert_eq!(v, (TRACE_VERSION + 1) as u64),
            other => panic!("expected a version error, got {other:?}"),
        }
    }
}

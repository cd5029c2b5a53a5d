//! Query-trace recording for the cache lab.
//!
//! A [`TraceRecorder`] is a lock-free bounded event log inside
//! [`super::SharedEngine`]: every query the front answers appends one
//! [`TraceEvent`] carrying exactly the identity the memo caches key by
//! (hashed, not the payloads), the per-entry cost estimates a miss
//! installed, and how the live front resolved it. The log is drained as a
//! [`TraceDocument`] — a compact flat-vector serialization through the
//! workspace serde layer — which `projtile_lab` replays through the live
//! cache type at any budgets. Replaying a document at the recorded budgets
//! reproduces the live front's hit/miss counts event-for-event (the
//! keystone differential of the lab's tests and the ci.sh smoke stage).
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

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use serde::{json, Value};

use super::EngineConfig;

/// Version stamp of the serialized trace document format.
pub const TRACE_VERSION: u32 = 1;

/// Integer header fields per serialized event (`costs` values follow).
const EVENT_HEADER: usize = 10;

/// Upper bound on per-event cost counts accepted by the parser (a
/// tightness miss installs five artifacts; nothing installs more). Rejects
/// hostile documents instead of over-reading the flat vector.
const MAX_COSTS: usize = 8;

/// How the live [`super::SharedEngine`] resolved one recorded query.
/// Stored as the `outcome` byte of a [`TraceEvent`].
pub mod outcome {
    /// Served from a memoized artifact under the shard's read lock.
    pub const HIT: u8 = 0;
    /// Computed, then installed under the shard's write lock. The event
    /// carries the per-entry cost estimates of everything installed.
    pub const MISS: u8 = 1;
    /// A duplicate literal occurrence of a pending query within one batch:
    /// the front counts it neither as a hit nor as a miss.
    pub const DUPLICATE: u8 = 2;
    /// A miss whose computation failed: counted as a miss, but nothing was
    /// installed (the batch still interned the nest's orientation).
    pub const FAILED: u8 = 3;
    /// A miss whose computation failed in a single `analyze` call: counted
    /// as a miss, nothing installed, and the orientation was *not*
    /// interned (the error returned before the write lock).
    pub const FAILED_NO_INTERN: u8 = 4;
}

/// One recorded query against the shared front. Identity is hashed — the
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
    /// Hash of the nest's canonical [`projtile_loopnest::NestSignature`]
    /// (pre-modulo: the live shard is `sig % num_shards`).
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
    /// Cost estimates of the entries a miss installed, in install order
    /// (five for a tightness miss — tiling, bound, enumerated, certificate,
    /// then the report — one otherwise; empty unless `outcome` is
    /// [`outcome::MISS`]).
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

/// A drained trace: everything the lab needs to replay the recorded
/// traffic through per-shard caches at the live geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDocument {
    /// Format version ([`TRACE_VERSION`]).
    pub version: u32,
    /// Shard count of the recording front (`sig % num_shards` routes).
    pub num_shards: u32,
    /// The **per-shard** cache budgets of the recording front (already
    /// divided across shards, unlike the front-wide `EngineConfig` a
    /// caller passes to `SharedEngine::with_config`).
    pub shard_config: EngineConfig,
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
                "num_shards".to_string(),
                Value::Int(self.num_shards as i128),
            ),
            (
                "shard_config".to_string(),
                Value::Object(vec![
                    (
                        "results_capacity".to_string(),
                        Value::Int(self.shard_config.results_capacity as i128),
                    ),
                    (
                        "betas_capacity".to_string(),
                        Value::Int(self.shard_config.betas_capacity as i128),
                    ),
                    (
                        "slices_capacity".to_string(),
                        Value::Int(self.shard_config.slices_capacity as i128),
                    ),
                    (
                        "surfaces_capacity".to_string(),
                        Value::Int(self.shard_config.surfaces_capacity as i128),
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
        let num_shards = read_u64(value, "num_shards")?;
        if num_shards == 0 || num_shards > u32::MAX as u64 {
            return Err(TraceError::Malformed(format!(
                "shard count {num_shards} out of range"
            )));
        }
        let config = value
            .field("shard_config")
            .map_err(|e| TraceError::Malformed(e.to_string()))?;
        let shard_config = EngineConfig {
            results_capacity: read_u64(config, "results_capacity")?,
            betas_capacity: read_u64(config, "betas_capacity")?,
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
            if oc > outcome::FAILED_NO_INTERN as u64 {
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
            num_shards: num_shards as u32,
            shard_config,
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
            num_shards: 4,
            shard_config: EngineConfig {
                results_capacity: 175,
                betas_capacity: 50,
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
                event(2, vec![1, 2, 3, 4, 5]),
            ],
        };
        let parsed = TraceDocument::from_json(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn version_skew_is_a_typed_error() {
        let mut doc = TraceDocument {
            version: TRACE_VERSION,
            num_shards: 1,
            shard_config: EngineConfig::default(),
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

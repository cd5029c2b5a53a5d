//! Service observability: lock-free counters, a queue-depth gauge,
//! per-stage and per-query-kind latency histograms, rendered as the
//! `/metrics` JSON body.
//!
//! Histograms use power-of-two microsecond buckets (`bucket k` holds
//! samples in `[2^k, 2^{k+1})` µs), which spans 1 µs to ~35 minutes in 31
//! buckets; p50/p99 are reported as the upper edge of the quantile's
//! bucket. Every histogram also keeps the exact running sum of its samples
//! (`sum_micros`), so means and cross-histogram reconciliations do not
//! depend on bucket edges.
//!
//! A request's life is cut into the [`STAGES`], each timed from the
//! previous stage's end: a request that skips a stage (only `/analyze`
//! waits for admission, parses a body and runs the engine) folds that
//! time into its next recorded stage. So for every answered request the
//! stage durations add up exactly to its `request_latency`, which runs
//! from the request's start (accept, or the first byte of a kept
//! connection's later request) to the last response byte written.
//!
//! A request computing several query kinds through one
//! [`Engine::answer_batch`](projtile_core::engine::Engine::answer_batch)
//! call records its compute latency under *each* kind present, so a kind's
//! histogram reads "latency of requests involving this kind".

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use projtile_core::engine::{QUERY_KIND_COUNT, QUERY_KIND_NAMES};
use serde::Value;

/// Number of histogram buckets (powers of two of microseconds).
pub const HISTOGRAM_BUCKETS: usize = 31;

/// The stages of one request, in order; each is timed from the end of
/// the previous one (the first from the request's start: accept, or the
/// first byte of a kept connection's later request):
///
/// * `pickup` — handoff to a connection thread (an idle one, or a spawn);
///   zero for a kept connection's later requests, which need no handoff;
/// * `read` — the request head and body off the socket;
/// * `admit` — the wait for a compute permit (`/analyze` only);
/// * `parse` — the JSON body into a nest and queries (`/analyze` only);
/// * `engine` — `Engine::answer_batch` (`/analyze` only): a hit clones a
///   handle to the resident answer;
/// * `serialize` — the response body: each answer's JSON text, rendered
///   by the first request that writes a resident answer and copied by
///   every later one;
/// * `write` — the response onto the socket.
pub const STAGES: [&str; 7] = [
    "pickup",
    "read",
    "admit",
    "parse",
    "engine",
    "serialize",
    "write",
];

/// A fixed-bucket latency histogram with an exact running sum, safe for
/// concurrent recording.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().max(1) as u64;
        let bucket = (63 - micros.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        if let Some(b) = self.buckets.get(bucket) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_nanos
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Exact sum of every recorded sample.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed))
    }

    /// The upper bucket edge (µs) at quantile `q` in `[0, 1]`, or `None`
    /// with no samples.
    pub fn quantile_micros(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(1u64 << (k + 1));
            }
        }
        None
    }

    fn render(&self) -> Value {
        let mut fields = vec![("count", Value::Int(self.count() as i128))];
        let p50 = self
            .quantile_micros(0.50)
            .map_or(Value::Null, |v| Value::Int(v as i128));
        let p99 = self
            .quantile_micros(0.99)
            .map_or(Value::Null, |v| Value::Int(v as i128));
        fields.push(("p50_micros", p50));
        fields.push(("p99_micros", p99));
        fields.push(("sum_micros", Value::Int(self.sum().as_micros() as i128)));
        obj(fields)
    }
}

/// All service counters and histograms. Shared by reference between the
/// accept loop, connection threads, snapshot loop, and the `/metrics` route.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted (shed ones included). A kept connection carries
    /// many requests, so this does not track `completed`.
    pub accepted: AtomicU64,
    /// Requests answered (any status but a shed `503`), counted just before
    /// the response is written.
    pub completed: AtomicU64,
    /// Connections shed at accept because `workers + queue_capacity`
    /// connections were already open and none of them was a kept one idle
    /// between requests.
    pub shed_queue_full: AtomicU64,
    /// `/analyze` requests shed because no compute permit came free within
    /// the queue deadline of their start.
    pub shed_expired: AtomicU64,
    /// Worker panics caught and answered with `500`.
    pub panics: AtomicU64,
    /// Requests disconnected for exceeding the read deadline.
    pub read_timeouts: AtomicU64,
    /// Requests rejected as malformed (HTTP or JSON).
    pub parse_errors: AtomicU64,
    /// Snapshot generations published.
    pub snapshots_published: AtomicU64,
    /// Snapshot publications that failed (I/O or injected tear).
    pub snapshot_failures: AtomicU64,
    /// Gauge: `/analyze` requests currently waiting for a compute permit.
    pub queue_depth: AtomicU64,
    /// Gauge: kept connections currently idle between requests (the ones
    /// a newcomer at the open-connection limit may displace).
    pub idle_connections: AtomicU64,
    /// Per-query-kind compute latency, indexed like [`QUERY_KIND_NAMES`].
    pub per_kind: [Histogram; QUERY_KIND_COUNT],
    /// Per-stage latency of answered requests, indexed like [`STAGES`].
    pub stages: [Histogram; STAGES.len()],
    /// Whole-request latency of answered requests, from their start (accept,
    /// or a kept connection's first request byte) to the last response byte
    /// written; the [`Metrics::stages`] sums add up to its sum.
    pub request_latency: Histogram,
}

impl Metrics {
    /// Records a compute latency sample under each kind index present.
    pub fn record_kinds(&self, kinds: &[usize], latency: Duration) {
        for &k in kinds {
            if let Some(h) = self.per_kind.get(k) {
                h.record(latency);
            }
        }
    }

    /// Renders the metrics document served by `GET /metrics`;
    /// `cache_metrics` is the engine's own cache-occupancy report, spliced
    /// in under `"engine"`.
    pub fn render(&self, engine: Value) -> Value {
        let load = |c: &AtomicU64| Value::Int(c.load(Ordering::Relaxed) as i128);
        let kinds = QUERY_KIND_NAMES
            .iter()
            .zip(&self.per_kind)
            .map(|(name, h)| (name.to_string(), h.render()))
            .collect();
        let stages = STAGES
            .iter()
            .zip(&self.stages)
            .map(|(name, h)| (name.to_string(), h.render()))
            .collect();
        obj(vec![
            ("accepted", load(&self.accepted)),
            ("completed", load(&self.completed)),
            ("shed_queue_full", load(&self.shed_queue_full)),
            ("shed_expired", load(&self.shed_expired)),
            ("panics", load(&self.panics)),
            ("read_timeouts", load(&self.read_timeouts)),
            ("parse_errors", load(&self.parse_errors)),
            ("snapshots_published", load(&self.snapshots_published)),
            ("snapshot_failures", load(&self.snapshot_failures)),
            ("queue_depth", load(&self.queue_depth)),
            ("idle_connections", load(&self.idle_connections)),
            ("request_latency", self.request_latency.render()),
            ("stages", Value::Object(stages)),
            ("per_query_kind", Value::Object(kinds)),
            ("engine", engine),
        ])
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for micros in [10u64, 100, 1000, 10_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 4);
        let p50 = h.quantile_micros(0.5).unwrap();
        assert!(
            (100..=256).contains(&p50),
            "p50 near the second sample: {p50}"
        );
        let p99 = h.quantile_micros(0.99).unwrap();
        assert!(p99 >= 10_000, "p99 at or past the largest sample: {p99}");
        assert_eq!(h.sum(), Duration::from_micros(11_110), "exact running sum");
    }

    #[test]
    fn render_includes_every_counter_and_kind() {
        let m = Metrics::default();
        m.accepted.fetch_add(3, Ordering::Relaxed);
        m.record_kinds(&[0, 3], Duration::from_millis(2));
        let doc = serde::json::to_string(&m.render(Value::Null));
        for field in [
            "accepted",
            "shed_queue_full",
            "panics",
            "queue_depth",
            "idle_connections",
            "per_query_kind",
            "tightness",
            "p99_micros",
            "sum_micros",
            "stages",
            "pickup",
            "write",
        ] {
            assert!(doc.contains(field), "metrics JSON lacks {field}: {doc}");
        }
    }
}

//! The server proper: accept loop, bounded admission, worker pool, panic
//! isolation, snapshot lifecycle, and graceful drain.
//!
//! Threading layout: [`Server::start`] spawns one supervisor thread which
//! runs [`projtile_par::fan_out`] over `workers + 2` roles — role 0 is the
//! accept loop, role 1 the snapshot loop, and the rest are request workers
//! pulling from the shared [`BoundedQueue`]. A drain (triggered by
//! [`ServerHandle::begin_drain`] or `POST /admin/drain`) stops the accept
//! loop, closes the queue (workers finish what is queued, then exit),
//! publishes a final snapshot once the last in-flight request completes,
//! and lets `fan_out` join everything.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use projtile_core::engine::{
    query_kind_index, BoundedLruStats, Query, SharedEngine, SnapshotStore,
};
use projtile_loopnest::LoopNest;
use serde::{json, Deserialize, Serialize, Value};

use crate::fault::FaultPlan;
use crate::http::{read_request, write_response, ReadError, Request};
use crate::metrics::{Metrics, QUERY_KINDS};
use crate::queue::BoundedQueue;

/// Server tuning knobs. [`Default`] is suitable for tests and local runs:
/// an ephemeral loopback port, one worker per available thread, and no
/// snapshot persistence.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Request workers (0 means [`projtile_par::num_threads`]).
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed with `503`.
    pub queue_capacity: usize,
    /// Wall-clock deadline for reading one full request (dribble-proof).
    pub read_deadline: Duration,
    /// Maximum time a connection may sit queued before it is shed on
    /// dequeue instead of computed late.
    pub queue_deadline: Duration,
    /// Interval between background snapshot publications (`None` disables
    /// the periodic loop; a final drain snapshot still happens when
    /// `snapshot_dir` is set).
    pub snapshot_interval: Option<Duration>,
    /// Snapshot directory (`None` disables persistence entirely).
    pub snapshot_dir: Option<PathBuf>,
    /// Snapshot generations retained by GC.
    pub snapshot_keep: usize,
    /// Value of the `Retry-After` header on `503` responses, in seconds.
    pub retry_after_secs: u64,
    /// Capacity (in events) of the engine's query-trace recorder, drained
    /// via `GET /trace` for the cache lab; 0 disables recording.
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            read_deadline: Duration::from_secs(2),
            queue_deadline: Duration::from_secs(5),
            snapshot_interval: None,
            snapshot_dir: None,
            snapshot_keep: 3,
            retry_after_secs: 1,
            trace_capacity: 0,
        }
    }
}

/// One admitted connection, stamped so stale queue entries can be shed.
struct Job {
    stream: TcpStream,
    enqueued: Instant,
}

/// State shared by the accept loop, workers, snapshot loop, and handle.
struct Shared {
    engine: SharedEngine,
    queue: BoundedQueue<Job>,
    metrics: Metrics,
    fault: FaultPlan,
    store: Option<SnapshotStore>,
    draining: AtomicBool,
    in_flight: AtomicU64,
    config: ServerConfig,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Binds, restores the newest valid snapshot generation (when
    /// persistence is configured), and starts the accept/worker/snapshot
    /// threads. Returns once the listener is live.
    pub fn start(config: ServerConfig, fault: FaultPlan) -> std::io::Result<ServerHandle> {
        let store = match &config.snapshot_dir {
            Some(dir) => Some(SnapshotStore::open(dir, config.snapshot_keep)?),
            None => None,
        };
        let mut engine = match &store {
            Some(store) => store
                .restore_latest(SharedEngine::restore_json)?
                .map(|(_, engine)| engine)
                .unwrap_or_default(),
            None => SharedEngine::new(),
        };
        if config.trace_capacity > 0 {
            // Attached before the engine is shared: the recorder itself is
            // lock-free, but installing it needs `&mut`.
            engine.set_trace_capacity(config.trace_capacity);
        }

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let workers = if config.workers == 0 {
            projtile_par::num_threads()
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            engine,
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: Metrics::default(),
            fault,
            store,
            draining: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            config,
        });

        let shared_for_threads = Arc::clone(&shared);
        let join = std::thread::spawn(move || {
            let shared = shared_for_threads;
            projtile_par::fan_out(workers + 2, |role| match role {
                0 => accept_loop(&shared, &listener),
                1 => snapshot_loop(&shared),
                _ => worker_loop(&shared),
            });
        });

        Ok(ServerHandle {
            addr,
            shared,
            join: Some(join),
        })
    }
}

/// A running server: its bound address, drain control, and introspection
/// for tests. Dropping the handle without [`ServerHandle::join`] leaves the
/// server running detached.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service metrics, shared live with the worker threads.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The engine behind the service (for oracle comparisons in tests).
    pub fn engine(&self) -> &SharedEngine {
        &self.shared.engine
    }

    /// Starts a graceful drain: stop accepting, finish queued and in-flight
    /// requests, publish a final snapshot, exit all threads. Idempotent;
    /// returns immediately (use [`ServerHandle::join`] to wait).
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Drains (if not already draining) and blocks until every server
    /// thread has exited.
    pub fn join(mut self) {
        self.begin_drain();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Blocks until the server exits on its own (a `POST /admin/drain`),
    /// without initiating a drain — what the `projtile-serve` binary does.
    pub fn wait(mut self) {
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Role 0: accept connections and admit them to the bounded queue,
/// shedding with `503 + Retry-After` when it is full. Exits on drain and
/// closes the queue behind itself (no further pushes can happen).
fn accept_loop(shared: &Shared, listener: &TcpListener) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Accepted sockets must not inherit the listener's
                // non-blocking mode (platform-dependent); reads are paced
                // by per-recv timeouts instead.
                let _ = stream.set_nonblocking(false);
                shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                let job = Job {
                    stream,
                    enqueued: Instant::now(),
                };
                if let Err(mut job) = shared.queue.try_push(job) {
                    shared
                        .metrics
                        .shed_queue_full
                        .fetch_add(1, Ordering::Relaxed);
                    respond_overloaded(&mut job.stream, shared);
                }
                shared
                    .metrics
                    .queue_depth
                    .store(shared.queue.len() as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    shared.queue.close();
}

/// Role 1: periodic snapshot publication, plus the final drain snapshot
/// once the queue has emptied and the last in-flight request finished.
fn snapshot_loop(shared: &Shared) {
    let mut last = Instant::now();
    loop {
        if shared.draining.load(Ordering::SeqCst)
            && shared.queue.is_closed()
            && shared.queue.is_empty()
            && shared.in_flight.load(Ordering::SeqCst) == 0
        {
            // Final snapshot: always a real publication (the tear fault
            // models a crash mid-write, not a failed graceful drain).
            if let Some(store) = &shared.store {
                publish(shared, store, false);
            }
            return;
        }
        if let (Some(store), Some(interval)) = (&shared.store, shared.config.snapshot_interval) {
            if last.elapsed() >= interval {
                last = Instant::now();
                publish(shared, store, shared.fault.tear_this_snapshot());
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One snapshot publication; `torn` simulates a crash between staging and
/// rename (the staging file is written truncated and never renamed).
fn publish(shared: &Shared, store: &SnapshotStore, torn: bool) {
    let text = shared.engine.snapshot_json();
    // A torn publication counts as a failure: the staging file was written
    // truncated and never renamed, exactly as if the process died mid-write.
    let succeeded = !torn && store.publish(&text).is_ok();
    if torn {
        let _ = store.torn_publish(&text, text.len() / 2);
    }
    let counter = if succeeded {
        &shared.metrics.snapshots_published
    } else {
        &shared.metrics.snapshot_failures
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Roles 2 and up: pull admitted connections and serve them. Exits when
/// the queue is closed and drained.
fn worker_loop(shared: &Shared) {
    loop {
        match shared.queue.pop(Duration::from_millis(100)) {
            Some(job) => {
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
                shared
                    .metrics
                    .queue_depth
                    .store(shared.queue.len() as u64, Ordering::Relaxed);
                handle(shared, job);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            None => {
                if shared.queue.is_closed() {
                    return;
                }
            }
        }
    }
}

/// Serves one admitted connection end to end, mapping every failure mode
/// to its status code (see the crate docs for the taxonomy).
fn handle(shared: &Shared, mut job: Job) {
    let started = Instant::now();
    if job.enqueued.elapsed() > shared.config.queue_deadline {
        shared.metrics.shed_expired.fetch_add(1, Ordering::Relaxed);
        respond_overloaded(&mut job.stream, shared);
        return;
    }
    let request = match read_request(&mut job.stream, shared.config.read_deadline) {
        Ok(request) => request,
        Err(ReadError::Deadline) => {
            shared.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
            respond_error(
                &mut job.stream,
                408,
                "Request Timeout",
                "read deadline exceeded",
            );
            return;
        }
        Err(ReadError::TooLarge) => {
            respond_error(
                &mut job.stream,
                413,
                "Payload Too Large",
                "request exceeds size cap",
            );
            return;
        }
        Err(ReadError::Malformed(msg)) => {
            shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            respond_error(&mut job.stream, 400, "Bad Request", &msg);
            return;
        }
        Err(ReadError::Io(_)) => return,
    };
    route(shared, &mut job.stream, &request);
    shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
    shared.metrics.request_latency.record(started.elapsed());
}

fn route(shared: &Shared, stream: &mut TcpStream, request: &Request) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/analyze") => analyze(shared, stream, &request.body),
        ("GET", "/healthz") => {
            let _ = write_response(stream, 200, "OK", &[], r#"{"status":"ok"}"#);
        }
        ("GET", "/metrics") => {
            let body = json::to_string(&shared.metrics.render(engine_value(shared)));
            let _ = write_response(stream, 200, "OK", &[], &body);
        }
        ("GET", "/trace") => {
            // Drains the recorded query trace (without resetting it); an
            // empty document with zero events when recording is disabled.
            let body = shared.engine.trace_document().to_json();
            let _ = write_response(stream, 200, "OK", &[], &body);
        }
        ("POST", "/admin/drain") => {
            let _ = write_response(stream, 200, "OK", &[], r#"{"draining":true}"#);
            shared.draining.store(true, Ordering::SeqCst);
        }
        (_, "/analyze" | "/healthz" | "/metrics" | "/trace" | "/admin/drain") => {
            respond_error(stream, 405, "Method Not Allowed", "wrong method for route");
        }
        _ => respond_error(stream, 404, "Not Found", "unknown route"),
    }
}

/// `POST /analyze`: parse, validate, compute under `catch_unwind`, answer.
fn analyze(shared: &Shared, stream: &mut TcpStream, body: &[u8]) {
    let parsed = std::str::from_utf8(body)
        .map_err(|_| serde::Error::custom("body is not UTF-8"))
        .and_then(json::parse)
        .and_then(|v| {
            let nest = LoopNest::deserialize(v.field("nest")?)?;
            let queries = Vec::<Query>::deserialize(v.field("queries")?)?;
            Ok((nest, queries))
        });
    let (nest, queries) = match parsed {
        Ok(pair) => pair,
        Err(e) => {
            shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, "Bad Request", &e.to_string());
            return;
        }
    };

    let compute_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        shared.fault.before_compute();
        shared.engine.analyze_batch(&nest, &queries)
    }));
    let results = match outcome {
        Ok(results) => results,
        Err(_) => {
            shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
            respond_error(
                stream,
                500,
                "Internal Server Error",
                "worker panicked during analysis; engine state is unaffected",
            );
            return;
        }
    };
    shared
        .metrics
        .record_kinds(&kind_indices(&queries), compute_start.elapsed());

    let entries: Vec<Value> = results
        .iter()
        .map(|r| {
            let (tag, payload) = match r {
                Ok(result) => ("ok", result.serialize()),
                Err(e) => ("err", Value::String(e.to_string())),
            };
            Value::Object(vec![(tag.to_string(), payload)])
        })
        .collect();
    let body = json::to_string(&Value::Object(vec![(
        "results".to_string(),
        Value::Array(entries),
    )]));
    let _ = write_response(stream, 200, "OK", &[], &body);
}

/// Maps each query to its [`QUERY_KINDS`] histogram index, deduplicated.
/// Indices come from the engine's stable kind order, which `QUERY_KINDS`
/// mirrors name-for-name.
fn kind_indices(queries: &[Query]) -> Vec<usize> {
    let mut kinds: Vec<usize> = queries.iter().map(query_kind_index).collect();
    kinds.sort_unstable();
    kinds.dedup();
    debug_assert!(kinds.iter().all(|&k| k < QUERY_KINDS.len()));
    kinds
}

/// The `"engine"` section of `/metrics`: cache occupancy per artifact
/// class plus the front's hit/miss counters. Built by hand because the
/// engine's metrics structs are plain data, not wire types.
fn engine_value(shared: &Shared) -> Value {
    let caches = shared.engine.cache_metrics();
    let stats = shared.engine.stats();
    let cache = |s: BoundedLruStats| {
        Value::Object(vec![
            ("entries".to_string(), Value::Int(s.entries as i128)),
            ("cost".to_string(), Value::Int(s.cost as i128)),
            ("capacity".to_string(), Value::Int(s.capacity as i128)),
            ("evictions".to_string(), Value::Int(s.evictions as i128)),
        ])
    };
    let per_kind: Vec<(String, Value)> = QUERY_KINDS
        .iter()
        .zip(caches.kinds.iter())
        .map(|(name, k)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("hits".to_string(), Value::Int(k.hits as i128)),
                    ("misses".to_string(), Value::Int(k.misses as i128)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        // Sessions no longer cache β vectors; the all-zero object keeps the
        // layout for readers that sum evictions over every cache.
        ("betas".to_string(), cache(BoundedLruStats::default())),
        ("results".to_string(), cache(caches.results)),
        ("slices".to_string(), cache(caches.slices)),
        ("surfaces".to_string(), cache(caches.surfaces)),
        ("queries".to_string(), Value::Int(stats.queries as i128)),
        ("hits".to_string(), Value::Int(stats.hits as i128)),
        ("misses".to_string(), Value::Int(stats.misses as i128)),
        ("interned".to_string(), Value::Int(stats.interned as i128)),
        ("per_kind".to_string(), Value::Object(per_kind)),
    ])
}

fn respond_overloaded(stream: &mut TcpStream, shared: &Shared) {
    let retry_after = shared.config.retry_after_secs.to_string();
    let _ = write_response(
        stream,
        503,
        "Service Unavailable",
        &[("retry-after", retry_after.as_str())],
        r#"{"error":"server overloaded, retry later"}"#,
    );
}

fn respond_error(stream: &mut TcpStream, status: u16, reason: &str, detail: &str) {
    let body = json::to_string(&Value::Object(vec![(
        "error".to_string(),
        Value::String(detail.to_string()),
    )]));
    let _ = write_response(stream, status, reason, &[], &body);
}

//! The server proper: blocking accept, per-connection I/O threads, compute
//! admission, panic isolation, snapshot lifecycle, and graceful drain.
//!
//! Threading layout: [`Server::start`] spawns one supervisor thread that
//! runs the accept loop and, inside a [`std::thread::scope`], the snapshot
//! loop and every connection thread, so joining the supervisor joins them
//! all.
//!
//! * The accept loop blocks in `accept`. It hands each connection to an
//!   idle connection thread, or spawns one when none is idle. A connection
//!   that would leave more than `workers + queue_capacity` open is shed
//!   with `503` on the spot.
//! * A connection thread reads, routes and answers its connection, then
//!   waits for the next handoff; one idle for longer than the read
//!   deadline exits. Reads never hold compute, so silent clients cost
//!   threads, not workers.
//! * `POST /analyze` parses, computes and serializes under one of
//!   `workers` compute permits. A request not admitted within the queue
//!   deadline of its accept answers `503` instead of computing late.
//! * The snapshot loop sleeps on a condvar until its next publication or a
//!   drain.
//!
//! A drain ([`ServerHandle::begin_drain`] or `POST /admin/drain`) flags the
//! shared state, wakes the idle threads and the snapshot loop through their
//! condvars and the blocking accept through a connection to itself, lets
//! every open connection finish, and publishes a final snapshot once the
//! last one has closed.

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

use projtile_core::engine::{
    query_kind_index, BoundedLruStats, Query, SharedEngine, SnapshotStore, QUERY_KIND_NAMES,
};
use projtile_loopnest::LoopNest;
use serde::{json, Deserialize, Serialize, Value};

use crate::admission::Permits;
use crate::fault::FaultPlan;
use crate::http::{read_request, write_response, ReadError, Request};
use crate::metrics::{Metrics, STAGES};

/// Server tuning knobs. [`Default`] is suitable for tests and local runs:
/// an ephemeral loopback port, one compute permit per available thread,
/// and no snapshot persistence.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Compute permits: how many `/analyze` requests parse, compute and
    /// serialize at once (0 means [`projtile_par::num_threads`]). Reading
    /// and writing sockets never holds a permit.
    pub workers: usize,
    /// Open connections allowed beyond `workers`; a connection accepted
    /// while `workers + queue_capacity` are open is shed with `503`.
    pub queue_capacity: usize,
    /// Wall-clock deadline for reading one full request (dribble-proof).
    /// A connection thread idle for this long exits.
    pub read_deadline: Duration,
    /// Longest an `/analyze` request may take from accept to compute
    /// admission; past it the request is shed with `503` instead of
    /// computed late.
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

/// The stages of a request, in [`STAGES`] order.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Pickup,
    Read,
    Admit,
    Parse,
    Engine,
    Serialize,
    Write,
}

/// Monotonic stage stamps of one request: each stage holds the time from
/// the previous stamp (the first, from accept) to its own.
struct Timeline {
    accepted: Instant,
    last: Instant,
    stages: [Option<Duration>; STAGES.len()],
}

impl Timeline {
    fn new(accepted: Instant) -> Timeline {
        Timeline {
            accepted,
            last: accepted,
            stages: [None; STAGES.len()],
        }
    }

    /// Ends `stage` now and returns its duration.
    fn mark(&mut self, stage: Stage) -> Duration {
        let now = Instant::now();
        let took = now - self.last;
        if let Some(slot) = self.stages.get_mut(stage as usize) {
            *slot = Some(took);
        }
        self.last = now;
        took
    }

    /// Records every stamped stage, then the whole request from accept to
    /// the last stamp; the stage durations add up to the latter exactly.
    fn record(&self, metrics: &Metrics) {
        for (histogram, took) in metrics.stages.iter().zip(&self.stages) {
            if let Some(took) = took {
                histogram.record(*took);
            }
        }
        metrics.request_latency.record(self.last - self.accepted);
    }
}

/// One accepted connection, stamped at accept.
struct Conn {
    stream: TcpStream,
    timeline: Timeline,
}

/// A response waiting to be written.
struct Reply {
    status: u16,
    reason: &'static str,
    body: String,
    /// A `503` shed: carries `Retry-After`, and is neither `completed` nor
    /// timed.
    shed: bool,
}

impl Reply {
    fn ok(body: String) -> Reply {
        Reply {
            status: 200,
            reason: "OK",
            body,
            shed: false,
        }
    }

    fn error(status: u16, reason: &'static str, detail: &str) -> Reply {
        let body = json::to_string(&Value::Object(vec![(
            "error".to_string(),
            Value::String(detail.to_string()),
        )]));
        Reply {
            status,
            reason,
            body,
            shed: false,
        }
    }

    fn overloaded() -> Reply {
        Reply {
            status: 503,
            reason: "Service Unavailable",
            body: r#"{"error":"server overloaded, retry later"}"#.to_string(),
            shed: true,
        }
    }
}

/// Connection bookkeeping, guarded by [`Shared::state`].
#[derive(Default)]
struct State {
    draining: bool,
    /// Accepted connections not yet closed, handed off ones included.
    open: usize,
    /// The wake-up condvars of the connection threads waiting for a
    /// handoff, most recently idle last: the accept loop wakes that one,
    /// whose caches are warmest, and the thread idle longest times out.
    idle: Vec<Arc<Condvar>>,
    /// Accepted connections not yet picked up by a connection thread.
    handoff: VecDeque<Conn>,
}

/// State shared by the accept loop, connection threads, snapshot loop, and
/// handle.
struct Shared {
    engine: SharedEngine,
    metrics: Metrics,
    fault: FaultPlan,
    store: Option<SnapshotStore>,
    config: ServerConfig,
    /// `workers + queue_capacity`: the most connections open at once.
    max_open: usize,
    /// Where the drain's wake-up connection goes: the listener's address,
    /// with an unspecified IP replaced by loopback.
    wake: SocketAddr,
    permits: Permits,
    state: Mutex<State>,
    /// Signalled on drain and when the last open connection of a drain
    /// closes.
    changed: Condvar,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Flags the drain and wakes everything that waits for it. Idempotent.
    fn begin_drain(&self) {
        let mut state = self.lock_state();
        let first = !state.draining;
        state.draining = true;
        for idle in state.idle.drain(..) {
            idle.notify_one();
        }
        drop(state);
        if first {
            self.changed.notify_all();
            // The accept loop is blocked in `accept`; a connection wakes it.
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }

    /// Waits, as an idle connection thread woken through `wake`, for the
    /// next handed-off connection. `None` once the server drains or the
    /// thread has been idle for the read deadline with nothing queued.
    fn next_connection(&self, wake: &Arc<Condvar>) -> Option<Conn> {
        let idle_until = Instant::now().checked_add(self.config.read_deadline);
        let mut state = self.lock_state();
        let mut listed = false;
        let conn = loop {
            if let Some(conn) = state.handoff.pop_front() {
                break Some(conn);
            }
            let now = Instant::now();
            if state.draining || idle_until.is_some_and(|t| now >= t) {
                break None;
            }
            if !listed {
                state.idle.push(Arc::clone(wake));
            }
            state = match idle_until {
                Some(t) => {
                    wake.wait_timeout(state, t - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                None => wake.wait(state).unwrap_or_else(|e| e.into_inner()),
            };
            // The accept loop and the drain take a thread off the list as
            // they wake it.
            listed = state.idle.iter().any(|w| Arc::ptr_eq(w, wake));
        };
        if listed {
            state.idle.retain(|w| !Arc::ptr_eq(w, wake));
        }
        conn
    }

    /// Books a closed connection, waking the snapshot loop when it was the
    /// last one of a drain.
    fn close_connection(&self) {
        let mut state = self.lock_state();
        state.open = state.open.saturating_sub(1);
        let drained = state.draining && state.open == 0;
        drop(state);
        if drained {
            self.changed.notify_all();
        }
    }
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Binds, restores the newest valid snapshot generation (when
    /// persistence is configured), and starts the accept and snapshot
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
        let addr = listener.local_addr()?;

        let workers = if config.workers == 0 {
            projtile_par::num_threads()
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            engine,
            metrics: Metrics::default(),
            fault,
            store,
            max_open: workers.saturating_add(config.queue_capacity),
            wake: wake_address(addr),
            permits: Permits::new(workers),
            config,
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
        });

        let supervisor = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("projtile-accept".to_string())
            .spawn(move || supervise(&supervisor, listener))?;

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

    /// The service metrics, shared live with the connection threads.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The engine behind the service (for oracle comparisons in tests).
    pub fn engine(&self) -> &SharedEngine {
        &self.shared.engine
    }

    /// Starts a graceful drain: stop accepting, finish every open
    /// connection, publish a final snapshot, exit all threads. Idempotent;
    /// returns immediately (use [`ServerHandle::join`] to wait).
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Drains (if not already draining) and blocks until every server
    /// thread has exited.
    // lint: allow(L009) the call graph dispatches every `.join()`/`.wait()` here by name (`Path::join`, `Condvar::wait`); a handle is joined by its owner, never under a lock guard
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

/// The listener's address with an unspecified IP (`0.0.0.0`, `[::]`)
/// replaced by the loopback address of its family.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// The supervisor thread: the accept loop, with the snapshot loop and the
/// connection threads scoped under it. Returns once all have exited.
fn supervise(shared: &Shared, listener: TcpListener) {
    std::thread::scope(|scope| {
        let snapshots = std::thread::Builder::new()
            .name("projtile-snapshot".to_string())
            .spawn_scoped(scope, || snapshot_loop(shared));
        accept_loop(shared, listener, scope);
        // Serves what a failed spawn left queued; returns at once otherwise.
        connection_thread(shared);
        if snapshots.is_err() {
            // Without its own thread the loop still publishes the final
            // drain snapshot.
            snapshot_loop(shared);
        }
    });
}

/// Accepts until the drain, handing each connection to a connection thread
/// and shedding with `503 + Retry-After` at the open-connection limit.
/// Closes the listener on return.
fn accept_loop<'scope>(
    shared: &'scope Shared,
    listener: TcpListener,
    scope: &'scope Scope<'scope, '_>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                let state = shared.lock_state();
                if state.draining {
                    return;
                }
                if !matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::ConnectionReset
                ) {
                    // Typically descriptor exhaustion: back off, but wake
                    // for a drain at once.
                    drop(
                        shared
                            .changed
                            .wait_timeout(state, Duration::from_millis(10))
                            .unwrap_or_else(|e| e.into_inner()),
                    );
                }
                continue;
            }
        };
        let conn = Conn {
            stream,
            timeline: Timeline::new(Instant::now()),
        };
        let mut state = shared.lock_state();
        if state.draining {
            return;
        }
        shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        if state.open >= shared.max_open {
            drop(state);
            shared
                .metrics
                .shed_queue_full
                .fetch_add(1, Ordering::Relaxed);
            let mut stream = conn.stream;
            let _ = write_reply(shared, &mut stream, &Reply::overloaded());
            continue;
        }
        state.open += 1;
        state.handoff.push_back(conn);
        let idle = state.idle.pop();
        drop(state);
        if let Some(idle) = idle {
            idle.notify_one();
        } else {
            // A failed spawn leaves the connection queued for the next
            // thread to free up (or for the supervisor, after the drain).
            let _ = std::thread::Builder::new().spawn_scoped(scope, || connection_thread(shared));
        }
    }
}

/// A connection thread: serves handed-off connections until it has been
/// idle for the read deadline or the server drains.
fn connection_thread(shared: &Shared) {
    let wake = Arc::new(Condvar::new());
    while let Some(conn) = shared.next_connection(&wake) {
        serve(shared, conn);
    }
}

/// Snapshot publication: periodic when configured, and a final one once a
/// drain has closed the last open connection.
fn snapshot_loop(shared: &Shared) {
    let periodic = shared.store.as_ref().zip(shared.config.snapshot_interval);
    let mut next = periodic.and_then(|(_, every)| Instant::now().checked_add(every));
    let mut state = shared.lock_state();
    while !(state.draining && state.open == 0) {
        let now = Instant::now();
        match (periodic, next) {
            (Some((store, every)), Some(at)) if now >= at => {
                drop(state);
                publish(shared, store, shared.fault.tear_this_snapshot());
                next = Instant::now().checked_add(every);
                state = shared.lock_state();
            }
            (_, Some(at)) => {
                state = shared
                    .changed
                    .wait_timeout(state, at - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            (_, None) => {
                state = shared
                    .changed
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }
    drop(state);
    // Final snapshot: always a real publication (the tear fault models a
    // crash mid-write, not a failed graceful drain).
    if let Some(store) = &shared.store {
        publish(shared, store, false);
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

/// Serves one connection end to end, then closes it. Every answered
/// request but a shed counts as `completed` just before its response is
/// written (so a client that has read the response sees it counted) and
/// has its stages recorded once the write is done.
fn serve(shared: &Shared, conn: Conn) {
    let Conn {
        mut stream,
        mut timeline,
    } = conn;
    timeline.mark(Stage::Pickup);
    if let Some(reply) = respond(shared, &mut stream, &mut timeline) {
        if !reply.shed {
            shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
        }
        let _ = write_reply(shared, &mut stream, &reply);
        timeline.mark(Stage::Write);
        if !reply.shed {
            timeline.record(&shared.metrics);
        }
    }
    drop(stream);
    shared.close_connection();
}

/// Reads and routes one request, mapping every failure mode to its status
/// code (see the crate docs for the taxonomy). `None` when the connection
/// failed before any response was possible.
fn respond(shared: &Shared, stream: &mut TcpStream, timeline: &mut Timeline) -> Option<Reply> {
    let read = read_request(stream, shared.config.read_deadline);
    timeline.mark(Stage::Read);
    let reply = match read {
        Ok(request) => route(shared, &request, timeline),
        Err(ReadError::Deadline) => {
            shared.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
            Reply::error(408, "Request Timeout", "read deadline exceeded")
        }
        Err(ReadError::TooLarge) => {
            Reply::error(413, "Payload Too Large", "request exceeds size cap")
        }
        Err(ReadError::Malformed(msg)) => {
            shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            Reply::error(400, "Bad Request", &msg)
        }
        Err(ReadError::Io(_)) => return None,
    };
    timeline.mark(Stage::Serialize);
    Some(reply)
}

fn write_reply(shared: &Shared, stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    let retry_after = shared.config.retry_after_secs.to_string();
    let headers: &[(&str, &str)] = if reply.shed {
        &[("retry-after", retry_after.as_str())]
    } else {
        &[]
    };
    write_response(stream, reply.status, reply.reason, headers, &reply.body)
}

fn route(shared: &Shared, request: &Request, timeline: &mut Timeline) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/analyze") => analyze(shared, &request.body, timeline),
        ("GET", "/healthz") => Reply::ok(r#"{"status":"ok"}"#.to_string()),
        // Rendered before this request counts itself as completed.
        ("GET", "/metrics") => Reply::ok(json::to_string(
            &shared.metrics.render(engine_value(shared)),
        )),
        // Drains the recorded query trace (without resetting it); an empty
        // document with zero events when recording is disabled.
        ("GET", "/trace") => Reply::ok(shared.engine.trace_document().to_json()),
        ("POST", "/admin/drain") => {
            shared.begin_drain();
            Reply::ok(r#"{"draining":true}"#.to_string())
        }
        (_, "/analyze" | "/healthz" | "/metrics" | "/trace" | "/admin/drain") => {
            Reply::error(405, "Method Not Allowed", "wrong method for route")
        }
        _ => Reply::error(404, "Not Found", "unknown route"),
    }
}

/// `POST /analyze`: admit, parse, validate, compute under `catch_unwind`,
/// serialize. The compute permit is held from admission to the return.
fn analyze(shared: &Shared, body: &[u8], timeline: &mut Timeline) -> Reply {
    let deadline = timeline.accepted.checked_add(shared.config.queue_deadline);
    let Some(_permit) = shared
        .permits
        .acquire(deadline, &shared.metrics.queue_depth)
    else {
        shared.metrics.shed_expired.fetch_add(1, Ordering::Relaxed);
        return Reply::overloaded();
    };
    timeline.mark(Stage::Admit);

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
            return Reply::error(400, "Bad Request", &e.to_string());
        }
    };
    timeline.mark(Stage::Parse);

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        shared.fault.before_compute();
        shared.engine.analyze_batch(&nest, &queries)
    }));
    let results = match outcome {
        Ok(results) => results,
        Err(_) => {
            shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
            return Reply::error(
                500,
                "Internal Server Error",
                "worker panicked during analysis; engine state is unaffected",
            );
        }
    };
    let computed = timeline.mark(Stage::Engine);
    shared
        .metrics
        .record_kinds(&kind_indices(&queries), computed);

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
    Reply::ok(json::to_string(&Value::Object(vec![(
        "results".to_string(),
        Value::Array(entries),
    )])))
}

/// Maps each query to its per-kind histogram index (its position in
/// [`QUERY_KIND_NAMES`]), deduplicated.
fn kind_indices(queries: &[Query]) -> Vec<usize> {
    let mut kinds: Vec<usize> = queries.iter().map(query_kind_index).collect();
    kinds.sort_unstable();
    kinds.dedup();
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
    let per_kind: Vec<(String, Value)> = QUERY_KIND_NAMES
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order_matches_the_metrics_names() {
        let order = [
            (Stage::Pickup, "pickup"),
            (Stage::Read, "read"),
            (Stage::Admit, "admit"),
            (Stage::Parse, "parse"),
            (Stage::Engine, "engine"),
            (Stage::Serialize, "serialize"),
            (Stage::Write, "write"),
        ];
        assert_eq!(order.len(), STAGES.len());
        for (stage, name) in order {
            assert_eq!(STAGES[stage as usize], name);
        }
    }

    #[test]
    fn wake_address_replaces_unspecified_ips_with_loopback() {
        let cases = [
            ("0.0.0.0:7070", "127.0.0.1:7070"),
            ("[::]:7070", "[::1]:7070"),
            ("10.1.2.3:7070", "10.1.2.3:7070"),
            ("127.0.0.1:7070", "127.0.0.1:7070"),
        ];
        for (bound, wake) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_address(bound), wake.parse().unwrap());
        }
    }
}

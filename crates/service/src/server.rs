//! The server proper: blocking accept, per-connection I/O threads,
//! persistent connections, compute admission, panic isolation, snapshot
//! lifecycle, and graceful drain.
//!
//! Threading layout: [`Server::start`] spawns one supervisor thread that
//! runs the accept loop and, inside a [`std::thread::scope`], the snapshot
//! loop and every connection thread, so joining the supervisor joins them
//! all.
//!
//! * The accept loop blocks in `accept`. It hands each connection to an
//!   idle connection thread, or spawns one when none is idle. A connection
//!   that would leave more than `workers + queue_capacity` open takes the
//!   place of the longest-idle kept connection, which is shut down; with no
//!   kept connection idle, it is shed with `503` on the spot.
//! * A connection thread reads, routes and answers requests on its
//!   connection until the client closes it or asks to, a reply closes it,
//!   it sits idle for the read deadline between requests, or the server
//!   drains; then it waits for the next handoff, and one idle for longer
//!   than the read deadline exits. Reads never hold compute, so silent
//!   clients cost threads, not workers.
//! * `POST /analyze` parses, computes and serializes under one of
//!   `workers` compute permits. A request not admitted within the queue
//!   deadline of its start answers `503` instead of computing late.
//! * The snapshot loop sleeps on a condvar until its next publication or a
//!   drain.
//!
//! A drain ([`ServerHandle::begin_drain`] or `POST /admin/drain`) flags the
//! shared state, shuts down the idle kept connections, wakes the idle
//! threads and the snapshot loop through their condvars and the blocking
//! accept through a connection to itself, lets every request in progress
//! finish (its reply closes its connection), and publishes a final snapshot
//! once the last connection has closed.
//!
//! # Kept connections
//!
//! * **What keeps a connection.** Only a `200` to a fully read request
//!   that did not ask to close, outside a drain. Every other reply — `4xx`,
//!   `5xx`, a shed `503`, anything during a drain — says `connection:
//!   close`, and the connection ends with it.
//! * **Idle ends silently.** A kept connection that the client closes, or
//!   that sits idle for the read deadline, before the first byte of its next
//!   request gets no response and bumps no counter. So does a fresh one
//!   closed before its first byte (a TCP health probe).
//! * **Timed from the first byte.** A kept connection's next request starts
//!   its timeline at its first byte: its read deadline and its queue
//!   deadline count from there, and it records `pickup` as zero, since no
//!   handoff happened. Stage counts still equal answered requests, and the
//!   stage sums still equal `request_latency`.
//! * **Idle connections never crowd out newcomers.** Each open connection
//!   holds a thread, so shedding stays keyed on open connections; but the
//!   kept connections waiting for a request are listed, longest idle first,
//!   and a newcomer at the limit takes the place of the first of them. A
//!   connection taken off that list — by the accept loop or by a drain — is
//!   shut down and never processes a request it reads afterwards, so a
//!   client that resends it on a fresh connection is counted once.

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

use projtile_core::engine::{
    query_kind_index, BoundedLruStats, Engine, Query, SnapshotStore, QUERY_KIND_NAMES,
};
use projtile_loopnest::LoopNest;
use serde::{json, Deserialize, Serialize, Value};

use crate::admission::Permits;
use crate::fault::FaultPlan;
use crate::http::{write_response, ReadError, Reader, Request};
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
    /// while `workers + queue_capacity` are open takes the place of the
    /// longest-idle kept connection, or is shed with `503` when none is
    /// idle.
    pub queue_capacity: usize,
    /// Wall-clock deadline for reading one full request (dribble-proof),
    /// from pickup for a connection's first request and from the first
    /// byte for a kept connection's later ones. Also the idle limit: a kept
    /// connection silent this long between requests closes, and a
    /// connection thread idle this long exits. And the write limit: a
    /// response write that makes no progress this long (a client that stops
    /// reading) ends its connection.
    pub read_deadline: Duration,
    /// Longest an `/analyze` request may take from its start (accept, or a
    /// kept connection's first request byte) to compute admission; past it
    /// the request is shed with `503` instead of computed late.
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
/// the previous stamp (the first, from the request's start) to its own.
struct Timeline {
    /// Accept, or the first byte of a kept connection's later request.
    start: Instant,
    last: Instant,
    stages: [Option<Duration>; STAGES.len()],
}

impl Timeline {
    /// The timeline of a connection's first request, started at accept.
    fn new(accepted: Instant) -> Timeline {
        Timeline {
            start: accepted,
            last: accepted,
            stages: [None; STAGES.len()],
        }
    }

    /// The timeline of a kept connection's later request, started at its
    /// first byte; nothing was handed off, so its `pickup` is zero.
    fn kept(first_byte: Instant) -> Timeline {
        let mut timeline = Timeline::new(first_byte);
        if let Some(pickup) = timeline.stages.get_mut(Stage::Pickup as usize) {
            *pickup = Some(Duration::ZERO);
        }
        timeline
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

    /// Records every stamped stage, then the whole request from its start
    /// to the last stamp; the stage durations add up to the latter exactly.
    fn record(&self, metrics: &Metrics) {
        for (histogram, took) in metrics.stages.iter().zip(&self.stages) {
            if let Some(took) = took {
                histogram.record(*took);
            }
        }
        metrics.request_latency.record(self.last - self.start);
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
    /// Accepted connections not yet closed or taken off [`State::kept`],
    /// handed off ones included.
    open: usize,
    /// Kept connections waiting for their next request, longest idle
    /// first. The accept loop and the drain take connections off it to shut
    /// them down; a connection thread takes its own off when its wait ends.
    kept: VecDeque<Arc<TcpStream>>,
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
    engine: Engine,
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

    /// Flags the drain, closes the idle kept connections and wakes
    /// everything that waits for it. Idempotent.
    fn begin_drain(&self) {
        let mut state = self.lock_state();
        let first = !state.draining;
        state.draining = true;
        for idle in state.idle.drain(..) {
            idle.notify_one();
        }
        let kept: Vec<Arc<TcpStream>> = state.kept.drain(..).collect();
        state.open = state.open.saturating_sub(kept.len());
        self.metrics.idle_connections.store(0, Ordering::Relaxed);
        drop(state);
        for conn in &kept {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if first {
            self.changed.notify_all();
            // The accept loop is blocked in `accept`; a connection wakes it.
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }

    /// Waits, listed in [`State::kept`], for the first byte of the next
    /// request on a kept connection, for at most the read deadline.
    fn await_request(&self, stream: &Arc<TcpStream>, reader: &mut Reader) -> Awaited {
        if reader.await_message(stream, Duration::ZERO) {
            // Pipelined: the request is already at hand.
            return Awaited::Request(Instant::now());
        }
        let mut state = self.lock_state();
        if state.draining {
            return Awaited::Ended;
        }
        state.kept.push_back(Arc::clone(stream));
        self.metrics
            .idle_connections
            .store(state.kept.len() as u64, Ordering::Relaxed);
        drop(state);
        let arrived = reader.await_message(stream, self.config.read_deadline);
        let first_byte = Instant::now();
        let mut state = self.lock_state();
        let listed = state.kept.iter().position(|c| Arc::ptr_eq(c, stream));
        let Some(at) = listed else {
            return Awaited::Taken;
        };
        state.kept.remove(at);
        self.metrics
            .idle_connections
            .store(state.kept.len() as u64, Ordering::Relaxed);
        drop(state);
        if arrived {
            Awaited::Request(first_byte)
        } else {
            Awaited::Ended
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

/// How a kept connection's wait for its next request ended.
enum Awaited {
    /// A request began, at this instant (its first byte).
    Request(Instant),
    /// The client closed the connection, it idled out, or the server is
    /// draining: the connection closes, and still counts as open until it
    /// does.
    Ended,
    /// The accept loop or a drain took the connection off the idle list
    /// (and no longer counts it as open) and shut it down.
    Taken,
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
                .restore_latest(Engine::restore_json)?
                .map(|(_, engine)| engine)
                .unwrap_or_default(),
            None => Engine::new(),
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
    pub fn engine(&self) -> &Engine {
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

/// Accepts until the drain, handing each connection to a connection thread.
/// At the open-connection limit a newcomer takes the place of the
/// longest-idle kept connection, which is shut down, or is shed with
/// `503 + Retry-After` when no kept connection is idle. Closes the listener
/// on return.
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
        // At the limit, the newcomer inherits the open slot of the
        // longest-idle kept connection.
        let evicted = if state.open < shared.max_open {
            state.open += 1;
            None
        } else if let Some(evicted) = state.kept.pop_front() {
            shared
                .metrics
                .idle_connections
                .store(state.kept.len() as u64, Ordering::Relaxed);
            Some(evicted)
        } else {
            drop(state);
            shared
                .metrics
                .shed_queue_full
                .fetch_add(1, Ordering::Relaxed);
            let _ = write_reply(shared, &conn.stream, &Reply::overloaded(), false);
            continue;
        };
        state.handoff.push_back(conn);
        let idle = state.idle.pop();
        drop(state);
        if let Some(evicted) = evicted {
            let _ = evicted.shutdown(Shutdown::Both);
        }
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

/// Serves one connection end to end: its requests in turn, for as long as
/// each reply keeps it, then closes it. Every answered request but a shed
/// counts as `completed` just before its response is written (so a client
/// that has read the response sees it counted) and has its stages recorded
/// once the write is done.
fn serve(shared: &Shared, conn: Conn) {
    let Conn {
        stream,
        mut timeline,
    } = conn;
    timeline.mark(Stage::Pickup);
    // Responses go out in one write; see `Client` for why Nagle must not
    // hold back the tail of one on a connection that stays open.
    let _ = stream.set_nodelay(true);
    // A client that pipelines requests and never reads the answers would
    // otherwise hold this thread and its open slot in `write` forever: a
    // write that makes no progress for the read deadline ends the
    // connection.
    let _ = stream.set_write_timeout(Some(
        shared.config.read_deadline.max(Duration::from_millis(1)),
    ));
    let stream = Arc::new(stream);
    let mut reader = Reader::default();
    let still_open = loop {
        let Some((reply, close)) = respond(shared, &stream, &mut reader, &mut timeline) else {
            break true;
        };
        let keep = !close && reply.status == 200 && !shared.lock_state().draining;
        if !reply.shed {
            shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
        }
        let written = write_reply(shared, &stream, &reply, keep).is_ok();
        timeline.mark(Stage::Write);
        if !reply.shed {
            timeline.record(&shared.metrics);
        }
        if !(keep && written) {
            break true;
        }
        match shared.await_request(&stream, &mut reader) {
            Awaited::Request(first_byte) => timeline = Timeline::kept(first_byte),
            Awaited::Ended => break true,
            Awaited::Taken => break false,
        }
    };
    drop(stream);
    if still_open {
        shared.close_connection();
    }
}

/// Reads and routes one request, mapping every failure mode to its status
/// code (see the crate docs for the taxonomy). Returns the reply and
/// whether the request asked to close the connection; `None` when the
/// connection ended or failed before any response was possible.
fn respond(
    shared: &Shared,
    stream: &TcpStream,
    reader: &mut Reader,
    timeline: &mut Timeline,
) -> Option<(Reply, bool)> {
    // The read deadline runs from pickup, or from a kept request's first
    // byte: the timeline's last stamp either way.
    let read = reader.read_request(stream, timeline.last, shared.config.read_deadline);
    timeline.mark(Stage::Read);
    let (reply, close) = match read {
        Ok(request) => (route(shared, &request, timeline), request.close),
        Err(ReadError::Deadline) => {
            shared.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
            let reply = Reply::error(408, "Request Timeout", "read deadline exceeded");
            (reply, true)
        }
        Err(ReadError::TooLarge) => {
            let reply = Reply::error(413, "Payload Too Large", "request exceeds size cap");
            (reply, true)
        }
        Err(ReadError::Malformed(msg)) => {
            shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            (Reply::error(400, "Bad Request", &msg), true)
        }
        Err(ReadError::Closed | ReadError::Io(_)) => return None,
    };
    timeline.mark(Stage::Serialize);
    Some((reply, close))
}

fn write_reply(
    shared: &Shared,
    stream: &TcpStream,
    reply: &Reply,
    keep: bool,
) -> std::io::Result<()> {
    let retry_after = shared.config.retry_after_secs.to_string();
    let headers: &[(&str, &str)] = if reply.shed {
        &[("retry-after", retry_after.as_str())]
    } else {
        &[]
    };
    write_response(
        stream,
        reply.status,
        reply.reason,
        headers,
        &reply.body,
        keep,
    )
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
    let deadline = timeline.start.checked_add(shared.config.queue_deadline);
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
/// class plus the engine's hit/miss counters. Built by hand because the
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

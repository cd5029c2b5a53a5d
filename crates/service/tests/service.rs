//! End-to-end tests for the hardened service: exactness against cold
//! oracles, the full error taxonomy, shedding under overload, panic
//! isolation, silent clients, persistent connections, the crash-safe
//! snapshot lifecycle (with injected faults), graceful drain, and the
//! `/metrics` reconciliations. Every server binds port 0 in-process.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use projtile_core::engine::{AnalysisResult, Engine, Query, SnapshotStore};
use projtile_loopnest::builders;
use projtile_service::http::{read_response, ReadError, Reader, Response};
use projtile_service::{Client, FaultPlan, Server, ServerConfig, ServerHandle};
use serde::{json, Deserialize, Serialize, Value};

fn start(mutate: impl FnOnce(&mut ServerConfig), fault: FaultPlan) -> ServerHandle {
    let mut config = ServerConfig::default();
    mutate(&mut config);
    Server::start(config, fault).expect("server starts")
}

/// Sends raw bytes and reads the one response (error-path tests).
fn raw(handle: &ServerHandle, bytes: &[u8]) -> Response {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(bytes).expect("send");
    read_response(&mut stream, Duration::from_secs(10)).expect("response")
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A mixed batch covering every query kind; `axis` must be a valid loop
/// position of the queried nest.
fn all_kinds_on(m: u64, axis: usize) -> Vec<Query> {
    vec![
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
        Query::Tightness { cache_size: m },
        Query::Surface {
            cache_size: m,
            axes: vec![axis],
            lo_bounds: vec![1],
            hi_bounds: vec![64],
        },
        Query::Slice {
            cache_size: m,
            axis,
            lo_bound: 1,
            hi_bound: 64,
        },
    ]
}

fn metric(doc: &Value, name: &str) -> i128 {
    match doc.field(name) {
        Ok(Value::Int(n)) => *n,
        other => panic!("metric {name}: {other:?}"),
    }
}

#[test]
fn served_answers_are_bitwise_equal_to_cold_oracles() {
    let handle = start(|_| {}, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let m = 1u64 << 8;

    for (nest, axis) in [
        (builders::matmul(64, 64, 64), 2),
        (builders::nbody(32, 64), 1),
    ] {
        let queries = all_kinds_on(m, axis);
        // Twice: the second pass is served from the memo caches and must
        // not drift from the first (cold) pass.
        for pass in 0..2 {
            let served = client.analyze(&nest, &queries).expect("analyze");
            assert_eq!(served.len(), queries.len());
            let oracle = Engine::new();
            for (i, (query, answer)) in queries.iter().zip(&served).enumerate() {
                let answer = answer.as_ref().unwrap_or_else(|e| {
                    panic!("pass {pass}, query {i} answered with an error: {e}")
                });
                let expected = oracle.analyze(&nest, query).expect("oracle");
                assert_eq!(
                    json::to_string(&answer.serialize()),
                    json::to_string(&expected.serialize()),
                    "pass {pass}, query {i} diverges from the cold oracle"
                );
            }
        }
    }
    // The second pass was pure cache hits.
    assert!(
        handle.engine().stats().hits > 0,
        "second pass hit the cache"
    );
    handle.join();
}

#[test]
fn per_query_errors_ride_inside_a_200_batch() {
    let handle = start(|_| {}, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(16, 16, 16);
    let queries = vec![
        Query::Tightness { cache_size: 64 },
        Query::Tightness { cache_size: 1 }, // below the model's minimum M
        Query::Slice {
            cache_size: 64,
            axis: 99, // no such loop
            lo_bound: 1,
            hi_bound: 4,
        },
    ];
    let served = client.analyze(&nest, &queries).expect("batch answers 200");
    assert!(
        served[0].is_ok(),
        "valid query unaffected by bad batch-mates"
    );
    let err1 = served[1].as_ref().expect_err("M=1 is invalid");
    assert!(err1.contains("invalid query"), "taxonomy message: {err1}");
    assert!(served[2].is_err(), "bad axis is a per-query error");
    handle.join();
}

#[test]
fn error_taxonomy_maps_to_status_codes() {
    let handle = start(
        |c| c.read_deadline = Duration::from_millis(300),
        FaultPlan::default(),
    );

    // 400: body is not JSON.
    let r = raw(&handle, &post("/analyze", "{not json"));
    assert_eq!(r.status, 400);

    // 400: JSON but an invalid nest (loop `j` appears in no array's
    // support) — the validated deserializer rejects it before any compute.
    let bad_nest = r#"{"nest":{"indices":[{"name":"i","bound":4},{"name":"j","bound":4}],"arrays":[{"name":"A","support":1}]},"queries":[{"Tightness":{"cache_size":64}}]}"#;
    let r = raw(&handle, &post("/analyze", bad_nest));
    assert_eq!(r.status, 400, "invalid nest rejected: {:?}", r.body);

    // 404 and 405.
    assert_eq!(raw(&handle, &post("/nope", "{}")).status, 404);
    assert_eq!(
        raw(
            &handle,
            b"GET /analyze HTTP/1.1\r\ncontent-length: 0\r\n\r\n"
        )
        .status,
        405
    );

    // 413: oversized declared body.
    let r = raw(
        &handle,
        b"POST /analyze HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
    );
    assert_eq!(r.status, 413);

    // 408: a byte-dribbling client is cut off by the wall-clock deadline
    // even though each individual byte arrives "promptly".
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let doc = post("/analyze", r#"{"nest":null,"queries":[]}"#);
    for &byte in doc.iter() {
        if stream.write_all(&[byte]).is_err() {
            break; // server already disconnected us mid-dribble
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Dropping the dribbler without a response is also acceptable.
    if let Ok(r) = read_response(&mut stream, Duration::from_secs(5)) {
        assert_eq!(r.status, 408, "dribbler answered {}", r.status);
    }

    let client = Client::new(handle.addr().to_string());
    let m = client.metrics().expect("metrics");
    assert!(metric(&m, "parse_errors") >= 2, "two 400s counted");
    assert!(metric(&m, "read_timeouts") >= 1, "dribbler counted");
    handle.join();
}

#[test]
fn overload_sheds_with_503_instead_of_queueing_unboundedly() {
    let handle = start(
        |c| {
            c.workers = 1;
            c.queue_capacity = 1;
        },
        FaultPlan::new(150, 0, 0), // every compute takes ≥150ms
    );
    let addr = handle.addr();
    let nest = builders::matmul(16, 16, 16);
    let body = json::to_string(&Value::Object(vec![
        ("nest".to_string(), nest.serialize()),
        (
            "queries".to_string(),
            Value::Array(vec![Query::Tightness { cache_size: 64 }.serialize()]),
        ),
    ]));
    let doc = post("/analyze", &body);

    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let doc = doc.clone();
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.write_all(&doc).expect("send");
                    read_response(&mut stream, Duration::from_secs(30))
                        .expect("every admitted or shed connection gets an answer")
                        .status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 503).count();
    assert_eq!(ok + shed, 8, "only 200 or 503, got {statuses:?}");
    assert!(ok >= 1, "someone got served: {statuses:?}");
    assert!(
        shed >= 1,
        "a 1-deep queue with slow compute sheds: {statuses:?}"
    );

    let client = Client::new(addr.to_string());
    let m = client.metrics().expect("metrics");
    assert!(metric(&m, "shed_queue_full") >= shed as i128);
    handle.join();
}

#[test]
fn stale_queued_requests_are_shed_on_dequeue() {
    let handle = start(|c| c.queue_deadline = Duration::ZERO, FaultPlan::default());
    let r = raw(&handle, &post("/analyze", "{}"));
    assert_eq!(r.status, 503, "zero queue deadline sheds everything");
    assert!(
        r.header("retry-after").is_some(),
        "shed answers carry Retry-After"
    );
    handle.join();
}

#[test]
fn worker_panics_answer_500_and_leave_the_engine_consistent() {
    let handle = start(|c| c.workers = 1, FaultPlan::new(0, 2, 0));
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(32, 32, 32);
    let queries = vec![Query::Tightness { cache_size: 256 }];

    let oracle = Engine::new();
    let expected = json::to_string(
        &oracle
            .analyze(&nest, &queries[0])
            .expect("oracle")
            .serialize(),
    );

    let mut five_hundreds = 0;
    let mut successes = 0;
    for _ in 0..6 {
        match client.analyze(&nest, &queries) {
            Ok(results) => {
                successes += 1;
                let answer = results[0].as_ref().expect("valid query");
                assert_eq!(
                    json::to_string(&answer.serialize()),
                    expected,
                    "answers after a panic are still bitwise-exact"
                );
            }
            Err(projtile_service::ClientError::Status(500, _)) => five_hundreds += 1,
            Err(other) => panic!("unexpected client error: {other}"),
        }
    }
    assert_eq!(five_hundreds, 3, "every second request panics");
    assert_eq!(successes, 3);
    let m = client.metrics().expect("metrics");
    assert_eq!(metric(&m, "panics"), 3);
    handle.join();
}

/// A scratch directory cleaned on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("projtile-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn snapshot_lifecycle_survives_torn_writes_and_restores_on_restart() {
    let tmp = TempDir::new("lifecycle");
    let config = |c: &mut ServerConfig| {
        c.snapshot_dir = Some(tmp.0.clone());
        c.snapshot_interval = Some(Duration::from_millis(40));
        c.snapshot_keep = 2;
    };
    let nest = builders::matmul(64, 64, 64);
    let queries = all_kinds_on(1 << 8, 2);

    // First life: warm the caches while every second periodic snapshot is
    // torn mid-write; drain (which publishes a clean final generation).
    {
        let handle = start(config, FaultPlan::new(0, 0, 2));
        let client = Client::new(handle.addr().to_string());
        let served = client.analyze(&nest, &queries).expect("warm");
        assert!(served.iter().all(Result::is_ok));
        std::thread::sleep(Duration::from_millis(200));
        let m = client.metrics().expect("metrics");
        assert!(metric(&m, "snapshots_published") >= 1, "periodic loop ran");
        assert!(metric(&m, "snapshot_failures") >= 1, "tear fault fired");
        handle.join();
    }

    // The store on disk: at most `keep` generations, and the newest valid
    // one restores even though torn staging data may be lying around.
    let store = SnapshotStore::open(&tmp.0, 2).expect("open");
    let generations = store.generations().expect("list");
    assert!(
        (1..=2).contains(&generations.len()),
        "GC bounds retention: {generations:?}"
    );
    let restored = store
        .restore_latest(Engine::restore_json)
        .expect("walk")
        .expect("at least the drain snapshot is valid");
    assert!(restored.0 >= 1);

    // Second life: restart from the same directory; the warmed artifacts
    // must serve bitwise-identical answers as cache *hits*.
    let handle = start(config, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let served = client.analyze(&nest, &queries).expect("restored analyze");
    let oracle = Engine::new();
    for (i, (query, answer)) in queries.iter().zip(&served).enumerate() {
        let answer = answer.as_ref().expect("restored answers are whole");
        let expected = oracle.analyze(&nest, query).expect("oracle");
        assert_eq!(
            json::to_string(&answer.serialize()),
            json::to_string(&expected.serialize()),
            "restored query {i} diverges from the cold oracle"
        );
    }
    let stats = handle.engine().stats();
    assert!(
        stats.hits >= queries.len() as u64 - 1,
        "restored cache serves hits, got {stats:?}"
    );
    handle.join();
}

#[test]
fn drain_finishes_in_flight_work_then_closes_the_port() {
    let tmp = TempDir::new("drain");
    let handle = start(
        |c| {
            c.workers = 1;
            c.snapshot_dir = Some(tmp.0.clone());
        },
        FaultPlan::new(150, 0, 0),
    );
    let addr = handle.addr();

    // One slow request in flight...
    let worker = std::thread::spawn(move || {
        let client = Client::new(addr.to_string());
        client.analyze(
            &builders::matmul(16, 16, 16),
            &[Query::Tightness { cache_size: 64 }],
        )
    });
    std::thread::sleep(Duration::from_millis(50));

    // ...when an HTTP drain lands. The in-flight request still completes.
    let client = Client::new(addr.to_string());
    client.drain().expect("drain acknowledged");
    let served = worker.join().unwrap().expect("in-flight request finished");
    assert!(served[0].is_ok());

    handle.wait();
    assert!(
        TcpStream::connect(addr).is_err(),
        "port is closed after drain"
    );
    let store = SnapshotStore::open(&tmp.0, 3).expect("open");
    assert!(
        !store.generations().expect("list").is_empty(),
        "drain published a final snapshot"
    );
}

#[test]
fn client_retries_through_shedding_until_served() {
    let handle = start(
        |c| {
            c.workers = 1;
            c.queue_capacity = 1;
            c.retry_after_secs = 0;
        },
        FaultPlan::new(100, 0, 0),
    );
    let addr = handle.addr().to_string();
    let nest = builders::matmul(16, 16, 16);

    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let addr = addr.clone();
                let nest = &nest;
                scope.spawn(move || {
                    let client = Client::with_retry(
                        addr,
                        projtile_service::RetryConfig {
                            max_attempts: 12,
                            base_backoff: Duration::from_millis(40),
                            jitter_seed: 1 + i as u64,
                            ..Default::default()
                        },
                    );
                    client.analyze(nest, &[Query::Tightness { cache_size: 64 }])
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, outcome) in outcomes.iter().enumerate() {
        let served = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("client {i} not served through retries: {e}"));
        assert!(served[0].is_ok());
    }
    handle.join();
}

/// `/trace` serves the recorded query trace when the server boots with a
/// trace capacity (and an empty document otherwise), and `/metrics` breaks
/// the engine's hit/miss counters down per query kind.
#[test]
fn trace_endpoint_serves_a_replayable_document() {
    use projtile_core::engine::TraceDocument;

    // Without a trace capacity: the endpoint answers, with zero events.
    let handle = start(|_| {}, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let doc =
        TraceDocument::from_value(&client.trace().expect("trace")).expect("empty trace parses");
    assert!(doc.events.is_empty());
    handle.join();

    // With one: recorded events cover exactly the served queries, and the
    // document's counters reconcile with `/metrics` per-kind counters.
    let handle = start(|c| c.trace_capacity = 1 << 14, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(64, 64, 64);
    let queries = all_kinds_on(1 << 8, 2);
    for _ in 0..2 {
        let served = client.analyze(&nest, &queries).expect("analyze");
        assert!(served.iter().all(Result::is_ok));
    }
    let doc = TraceDocument::from_value(&client.trace().expect("trace")).expect("trace parses");
    assert_eq!(doc.events.len(), 2 * queries.len());
    assert_eq!(
        doc.queries,
        doc.hits + doc.misses,
        "no invalid queries sent"
    );
    assert!(doc.hits >= queries.len() as u64, "second round hits");

    let m = client.metrics().expect("metrics");
    let per_kind = m
        .field("engine")
        .and_then(|e| e.field("per_kind"))
        .expect("per-kind counters exported");
    let mut hits = 0i128;
    let mut misses = 0i128;
    for name in projtile_core::engine::QUERY_KIND_NAMES {
        let counters = per_kind.field(name).expect("every kind exported");
        hits += metric(counters, "hits");
        misses += metric(counters, "misses");
    }
    assert_eq!(hits as u64, doc.hits);
    assert_eq!(misses as u64, doc.misses);
    handle.join();
}

/// Reads and writes happen on connection threads, not on the compute
/// workers: silent clients holding several connections per worker must not
/// delay anyone else's request.
#[test]
fn silent_connections_do_not_delay_other_requests() {
    let workers = 2;
    let handle = start(|c| c.workers = workers, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(32, 32, 32);
    let queries = [Query::Tightness { cache_size: 256 }];
    client.analyze(&nest, &queries).expect("warm-up");

    // Connected, and never a byte sent: each holds its read for the whole
    // read deadline. The server accepts them before the requests below,
    // in connect order.
    let silent: Vec<TcpStream> = (0..4 * workers)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
        .collect();

    let started = Instant::now();
    client.healthz().expect("healthz");
    let healthz = started.elapsed();
    let started = Instant::now();
    let served = client.analyze(&nest, &queries).expect("warm analyze");
    let analyze = started.elapsed();
    assert!(served[0].is_ok());
    assert!(
        healthz < Duration::from_millis(50),
        "/healthz took {healthz:?} beside {} silent connections",
        silent.len()
    );
    assert!(
        analyze < Duration::from_millis(50),
        "warm /analyze took {analyze:?} beside {} silent connections",
        silent.len()
    );
    drop(silent);
    handle.join();
}

/// `completed` ticks before a response's last byte is written, so a
/// `/metrics` sent right after a reply was read always counts that reply,
/// even while a CPU hog competes with the server's threads.
#[test]
fn completed_counts_every_reply_the_client_has_read() {
    let handle = start(|_| {}, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(16, 16, 16);
    let queries = [Query::LowerBound { cache_size: 64 }];
    client.analyze(&nest, &queries).expect("warm-up");

    // The rounds run on their own thread so that a failure there cannot
    // leave the spinner running (and the scope waiting on it) forever.
    let stop = AtomicBool::new(false);
    let rounds = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut x = 0u64;
            while !stop.load(Ordering::Relaxed) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        });
        let rounds = scope.spawn(|| {
            // The first GET renders before it counts itself.
            let base = metric(&client.metrics().expect("metrics"), "completed");
            let mut lagging = Vec::new();
            for round in 0..2000i128 {
                client.analyze(&nest, &queries).expect("analyze");
                let completed = metric(&client.metrics().expect("metrics"), "completed");
                if completed != base + 2 * round + 2 {
                    lagging.push((round, completed - base - 2 * round - 2));
                }
            }
            lagging
        });
        let rounds = rounds.join();
        stop.store(true, Ordering::Relaxed);
        rounds
    });
    let lagging = rounds.unwrap_or_else(|e| std::panic::resume_unwind(e));
    assert!(
        lagging.is_empty(),
        "(round, completed - expected) for replies the client had read: {lagging:?}"
    );
    handle.join();
}

/// A drain wakes the blocking accept (through loopback when bound to the
/// unspecified address), the idle connection threads and the snapshot loop
/// at once, whether it comes over HTTP or from the handle.
#[test]
fn drain_wakes_every_thread_when_bound_to_the_unspecified_address() {
    for via_http in [true, false] {
        let tmp = TempDir::new(if via_http { "wake-http" } else { "wake-join" });
        let handle = start(
            |c| {
                c.addr = "0.0.0.0:0".to_string();
                c.snapshot_dir = Some(tmp.0.clone());
                // Far beyond the 1 s budget below: only a wake-up can end
                // these waits in time.
                c.snapshot_interval = Some(Duration::from_secs(3600));
                c.read_deadline = Duration::from_secs(30);
            },
            FaultPlan::default(),
        );
        let local = SocketAddr::from(([127, 0, 0, 1], handle.addr().port()));
        let client = Client::new(local.to_string());
        // Leaves idle connection threads behind.
        client.healthz().expect("healthz");
        client.healthz().expect("healthz");

        let started = Instant::now();
        if via_http {
            client.drain().expect("drain acknowledged");
            handle.wait();
        } else {
            handle.join();
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "drain (via_http = {via_http}) took {took:?}"
        );
        assert!(TcpStream::connect(local).is_err(), "port is closed");
        let store = SnapshotStore::open(&tmp.0, 3).expect("open");
        assert_eq!(
            store.generations().expect("list").len(),
            1,
            "exactly the final drain snapshot"
        );
    }
}

/// Every answered request records each stage it went through and its whole
/// latency from accept; the stage sums add up to the latency sum.
#[test]
fn stage_histograms_add_up_to_request_latency() {
    use projtile_service::metrics::STAGES;

    let handle = start(|_| {}, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(32, 32, 32);
    let mut answered = 0u64;
    for m in [64u64, 128, 64, 128] {
        let served = client
            .analyze(&nest, &[Query::Tightness { cache_size: m }])
            .expect("analyze");
        assert!(served[0].is_ok());
        answered += 1;
    }
    client.healthz().expect("healthz");
    assert_eq!(raw(&handle, &post("/nope", "{}")).status, 404);
    assert_eq!(raw(&handle, &post("/analyze", "{not json")).status, 400);
    answered += 3;

    // A request's stages are recorded just after its last byte is written,
    // so wait for the last one to land.
    let metrics = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.request_latency.count() < answered && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let doc = client.metrics().expect("metrics");
    let latency = doc.field("request_latency").expect("request_latency");
    assert_eq!(metric(latency, "count") as u64, answered);
    let stages = doc.field("stages").expect("stages");
    let mut stage_sum = 0i128;
    for name in STAGES {
        let stage = stages.field(name).expect("every stage exported");
        let count = metric(stage, "count") as u64;
        let expected = match name {
            // Only the four analyze requests that reached their body.
            "parse" | "engine" => 4,
            // Every `/analyze`, the malformed one included.
            "admit" => 5,
            _ => answered,
        };
        assert_eq!(count, expected, "stage {name} count");
        stage_sum += metric(stage, "sum_micros");
    }
    let total = metric(latency, "sum_micros");
    let tolerance = (STAGES.len() as u64 * answered) as i128;
    assert!(
        (total - stage_sum).abs() <= tolerance,
        "stages sum to {stage_sum} µs, requests to {total} µs"
    );
    // The exact sums agree to the nanosecond, once the GET above has been
    // recorded too.
    while metrics.request_latency.count() < answered + 1 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let exact: Duration = metrics.stages.iter().map(|h| h.sum()).sum();
    assert_eq!(exact, metrics.request_latency.sum());
    handle.join();
}

/// Waits until the server lists `n` kept connections as idle between
/// requests (each is listed just after its reply is written).
fn await_idle(handle: &ServerHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.metrics().idle_connections.load(Ordering::Relaxed) != n {
        assert!(Instant::now() < deadline, "never {n} idle kept connections");
        std::thread::yield_now();
    }
}

/// A connection that closes before its first byte (a TCP health probe) is
/// not a request: no `400`, no count. A request cut off mid-head or
/// mid-body still answers `400`, and one stalled mid-head `408`.
#[test]
fn a_connection_closed_before_its_first_byte_is_not_a_request() {
    // One open connection at most: a connection is admitted only once the
    // one before it has been served and closed, so a `200` to the probe
    // below proves the server is done with the bare connection before it.
    let handle = start(
        |c| {
            c.workers = 1;
            c.queue_capacity = 0;
            c.read_deadline = Duration::from_millis(300);
        },
        FaultPlan::default(),
    );
    let metrics_after_the_last_close = || loop {
        let r = raw(
            &handle,
            b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        if r.status == 200 {
            let text = String::from_utf8(r.body).expect("UTF-8");
            break json::parse(&text).expect("metrics JSON");
        }
        assert_eq!(r.status, 503, "only a shed delays the probe");
        std::thread::yield_now();
    };
    let before = metrics_after_the_last_close();
    for _ in 0..5 {
        drop(TcpStream::connect(handle.addr()).expect("connect"));
        let after = metrics_after_the_last_close();
        assert_eq!(
            metric(&after, "parse_errors"),
            metric(&before, "parse_errors")
        );
    }
    let after = metrics_after_the_last_close();
    // The five probes before this one, and no bare connection.
    assert_eq!(
        metric(&after, "completed") - metric(&before, "completed"),
        6
    );
    let latency = |doc: &Value| metric(doc.field("request_latency").expect("latency"), "count");
    assert_eq!(latency(&after) - latency(&before), 6);
    assert_eq!(metric(&after, "read_timeouts"), 0);
    handle.join();

    // Cut off mid-head and mid-body: the client half-closes, and reads.
    // (A server of its own: at one open connection, a cut-off connection
    // could be shed while the last probe above is still closing.)
    let handle = start(
        |c| c.read_deadline = Duration::from_millis(300),
        FaultPlan::default(),
    );
    for partial in [
        &b"GET /healthz HTTP/1.1\r\nhost: x"[..],
        &b"POST /analyze HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"nest\""[..],
    ] {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.write_all(partial).expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let r = read_response(&mut stream, Duration::from_secs(10)).expect("response");
        assert_eq!(r.status, 400, "cut off after {partial:?}");
        assert!(r.closes());
    }
    // Stalled mid-head, connection left open: the read deadline answers.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("send");
    let r = read_response(&mut stream, Duration::from_secs(10)).expect("response");
    assert_eq!(r.status, 408);
    let m = handle.metrics();
    assert_eq!(m.parse_errors.load(Ordering::Relaxed), 2);
    assert_eq!(m.read_timeouts.load(Ordering::Relaxed), 1);
    handle.join();
}

/// One `Client`'s sequential calls travel on one connection.
#[test]
fn one_client_sends_its_calls_on_one_connection() {
    let handle = start(|_| {}, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(16, 16, 16);
    for _ in 0..5 {
        let served = client
            .analyze(&nest, &[Query::LowerBound { cache_size: 64 }])
            .expect("analyze");
        assert!(served[0].is_ok());
    }
    client.healthz().expect("healthz");
    assert_eq!(handle.metrics().accepted.load(Ordering::Relaxed), 1);
    let timings = client.timings();
    assert_eq!(timings.analyses, 5);
    assert!(timings.connect > Duration::ZERO && timings.connect < timings.exchange);
    handle.join();
}

/// A kept connection that idles past the read deadline closes silently;
/// the client's next call reconnects, and nothing is counted twice or as
/// an error.
#[test]
fn a_kept_connection_idles_out_silently() {
    let handle = start(
        |c| c.read_deadline = Duration::from_millis(200),
        FaultPlan::default(),
    );
    let client = Client::new(handle.addr().to_string());
    let nest = builders::nbody(32, 64);
    let queries = all_kinds_on(1 << 8, 1);
    let oracle = Engine::new();
    let expected: Vec<String> = queries
        .iter()
        .map(|q| json::to_string(&oracle.analyze(&nest, q).expect("oracle").serialize()))
        .collect();
    for call in 0..2 {
        if call > 0 {
            std::thread::sleep(Duration::from_millis(400));
        }
        let served = client.analyze(&nest, &queries).expect("analyze");
        for (i, answer) in served.iter().enumerate() {
            let answer = answer.as_ref().expect("valid query");
            assert_eq!(
                json::to_string(&answer.serialize()),
                expected[i],
                "call {call}, query {i}"
            );
        }
    }
    let m = client.metrics().expect("metrics");
    for counter in [
        "read_timeouts",
        "parse_errors",
        "shed_queue_full",
        "shed_expired",
    ] {
        assert_eq!(metric(&m, counter), 0, "{counter}");
    }
    assert_eq!(metric(&m, "accepted"), 2, "the second call reconnected");
    assert_eq!(
        handle.engine().stats().queries,
        2 * queries.len() as u64,
        "each call computed once"
    );
    handle.join();
}

/// A kept connection's next request is timed from its first byte, so idle
/// time before it does not count against its queue deadline.
#[test]
fn the_queue_deadline_counts_from_a_kept_requests_first_byte() {
    let handle = start(
        |c| c.queue_deadline = Duration::from_millis(300),
        FaultPlan::default(),
    );
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(16, 16, 16);
    let queries = [Query::Tightness { cache_size: 64 }];
    client.analyze(&nest, &queries).expect("first call");
    std::thread::sleep(Duration::from_millis(500));
    let served = client
        .analyze(&nest, &queries)
        .expect("second call: 200, not 503");
    assert!(served[0].is_ok());
    let m = handle.metrics();
    assert_eq!(m.accepted.load(Ordering::Relaxed), 1, "one kept connection");
    assert_eq!(m.shed_expired.load(Ordering::Relaxed), 0);
    handle.join();
}

/// At the open-connection limit a newcomer displaces the longest-idle kept
/// connection instead of being shed, and the displaced client reconnects.
#[test]
fn idle_kept_connections_make_room_for_newcomers() {
    let handle = start(
        |c| {
            c.workers = 1;
            c.queue_capacity = 1;
            c.read_deadline = Duration::from_secs(30);
        },
        FaultPlan::default(),
    );
    let addr = handle.addr().to_string();
    let nest = builders::matmul(16, 16, 16);
    let queries = [Query::LowerBound { cache_size: 64 }];
    let clients: Vec<Client> = (0..3).map(|_| Client::new(addr.clone())).collect();
    let mut calls = 0u64;
    for (i, client) in clients.iter().enumerate() {
        client.analyze(&nest, &queries).expect("served");
        calls += 1;
        await_idle(&handle, (i + 1).min(2) as u64);
    }
    let shed = |h: &ServerHandle| h.metrics().shed_queue_full.load(Ordering::Relaxed);
    assert_eq!(shed(&handle), 0, "the third client displaced the first");
    for client in &clients[..2] {
        let served = client.analyze(&nest, &queries).expect("served again");
        assert!(served[0].is_ok());
        calls += 1;
        await_idle(&handle, 2);
    }
    assert_eq!(shed(&handle), 0);
    assert_eq!(handle.metrics().accepted.load(Ordering::Relaxed), 5);
    assert_eq!(
        handle.engine().stats().queries,
        calls,
        "each call counted once"
    );
    handle.join();
}

/// Requests that arrive together are answered in order on one connection.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = start(|_| {}, FaultPlan::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        )
        .expect("send");
    let mut reader = Reader::default();
    let limit = Duration::from_secs(10);
    for keep in [true, false] {
        let r = reader
            .read_response(&stream, Instant::now(), limit)
            .expect("response");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, br#"{"status":"ok"}"#);
        assert_eq!(r.closes(), !keep);
    }
    assert!(matches!(
        reader.read_response(&stream, Instant::now(), limit),
        Err(ReadError::Closed)
    ));
    handle.join();
}

/// A client that pipelines requests and never reads the answers stalls its
/// connection's writes; a write that makes no progress for the read
/// deadline ends the connection, freeing its thread and its open slot.
#[test]
fn a_client_that_never_reads_its_answers_is_cut_off() {
    let handle = start(
        |c| {
            c.workers = 1;
            c.queue_capacity = 0;
            c.read_deadline = Duration::from_millis(300);
        },
        FaultPlan::default(),
    );
    // Megabytes of `/metrics` answers: more than the socket buffers hold,
    // so the server's writes stall with requests still unread (27-byte
    // requests meet a 4 KiB read boundary only every 4096 requests, so the
    // connection is never idle, and so never displaceable, on the way).
    let mut hog = TcpStream::connect(handle.addr()).expect("connect");
    hog.write_all(&b"GET /metrics HTTP/1.1\r\n\r\n".repeat(10_000))
        .expect("send");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = raw(
            &handle,
            b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        if r.status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the stalled connection still holds the only open slot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let served = handle.metrics().completed.load(Ordering::Relaxed);
    assert!(
        (2..10_000).contains(&served),
        "the hog was cut off mid-pipeline: {served} answered"
    );
    drop(hog);
    handle.join();
}

#[test]
fn analyze_bodies_are_the_printed_result_tree_byte_for_byte() {
    // The server writes its envelope straight into the body; the bytes must
    // be those of printing `{"results":[{"ok": r.serialize()} | {"err": …}]}`,
    // on the computing pass and on the hit pass alike.
    let handle = start(|_| {}, FaultPlan::default());
    let nest = builders::random_projective(11, 8, 4, (1, 256));
    let mut queries = all_kinds_on(64, 3);
    queries.push(Query::Slice {
        cache_size: 64,
        axis: 99, // no such loop
        lo_bound: 1,
        hi_bound: 4,
    });
    let body = analyze_body(&nest, &queries);
    let entries = Engine::new()
        .analyze_batch(&nest, &queries)
        .iter()
        .map(|r| {
            let (tag, payload) = match r {
                Ok(result) => ("ok", result.serialize()),
                Err(e) => ("err", Value::String(e.to_string())),
            };
            Value::Object(vec![(tag.to_string(), payload)])
        })
        .collect();
    let expected = json::to_string(&Value::Object(vec![(
        "results".to_string(),
        Value::Array(entries),
    )]));
    assert!(
        expected.contains(r#"{"err":"#),
        "the batch carries an error"
    );
    for pass in 0..2 {
        let r = raw(&handle, &post("/analyze", &body));
        assert_eq!(r.status, 200, "pass {pass}");
        assert!(
            r.body == expected.as_bytes(),
            "pass {pass}: the served body differs from the printed tree"
        );
    }
    assert!(handle.engine().stats().hits > 0, "the second pass hit");
    handle.join();
}

#[test]
fn hits_serve_the_bytes_their_miss_served() {
    // The first request computes every answer and renders it; the resident
    // ones keep that text, and every later hit, from any connection, copies
    // it. A repeated literal shares its first position's answer.
    let handle = start(|_| {}, FaultPlan::default());
    let nest = builders::random_projective(23, 8, 4, (1, 256));
    let mut queries = all_kinds_on(64, 5);
    queries.push(Query::EnumeratedBound { cache_size: 64 });
    let body = analyze_body(&nest, &queries);
    let first = raw(&handle, &post("/analyze", &body));
    assert_eq!(first.status, 200);
    let misses = handle.engine().stats().misses;
    assert!(misses > 0, "the first request computed");
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let hit = raw(&handle, &post("/analyze", &body));
                assert_eq!(hit.status, 200);
                assert!(hit.body == first.body, "a hit differs from its miss");
            });
        }
    });
    assert_eq!(handle.engine().stats().misses, misses, "later requests hit");
    handle.join();
}

#[test]
fn numbers_outside_the_json_grammar_are_parse_errors() {
    // RFC 8259 §6: no `+`, no leading zero, digits on both sides of the
    // point; a literal out of `f64` range is an error, not an infinity.
    let handle = start(|_| {}, FaultPlan::default());
    let nest = json::to_string(&builders::matmul(16, 16, 16));
    let body =
        |m: &str| format!(r#"{{"nest":{nest},"queries":[{{"Tightness":{{"cache_size":{m}}}}}]}}"#);
    let before = handle.metrics().parse_errors.load(Ordering::Relaxed);
    let bad = ["+64", "064", "-064", "64.", ".5", "1.5e400"];
    for m in bad {
        let r = raw(&handle, &post("/analyze", &body(m)));
        assert_eq!(r.status, 400, "cache_size {m}");
        let text = String::from_utf8_lossy(&r.body);
        assert!(text.contains("at byte"), "cache_size {m}: {text}");
    }
    let counted = handle.metrics().parse_errors.load(Ordering::Relaxed) - before;
    assert_eq!(counted, bad.len() as u64, "each bad body is a parse error");
    assert_eq!(raw(&handle, &post("/analyze", &body("64"))).status, 200);
    handle.join();
}

/// The `/analyze` body for `nest` and `queries`, printed from its tree.
fn analyze_body(nest: &projtile_loopnest::LoopNest, queries: &[Query]) -> String {
    json::to_string(&Value::Object(vec![
        ("nest".to_string(), nest.serialize()),
        (
            "queries".to_string(),
            Value::Array(queries.iter().map(Serialize::serialize).collect()),
        ),
    ]))
}

#[test]
fn request_parse_errors_keep_their_texts_and_repeated_keys_read_the_first() {
    let handle = start(|_| {}, FaultPlan::default());
    let nest = json::to_string(&builders::matmul(16, 16, 16));
    let invalid_nest = r#"{"indices":[{"name":"i","bound":4},{"name":"j","bound":4}],"arrays":[{"name":"A","support":1}]}"#;
    let cases = [
        (
            r#"{"queries":[]}"#.to_string(),
            r#"{"error":"serde: missing field `nest`"}"#,
        ),
        (
            format!(r#"{{"nest":{nest},"queries":5}}"#),
            r#"{"error":"serde: expected an array, found a number"}"#,
        ),
        (
            format!(r#"{{"nest":{invalid_nest},"queries":[]}}"#),
            r#"{"error":"serde: invalid loop nest: loop index `j` appears in no array's support (drop it before analysis)"}"#,
        ),
    ];
    for (body, text) in &cases {
        let r = raw(&handle, &post("/analyze", body));
        assert_eq!(r.status, 400, "{body}");
        assert_eq!(String::from_utf8_lossy(&r.body), *text, "{body}");
    }
    // The first `nest` is the one analyzed; a later one, even an invalid
    // one, is only read as JSON.
    let query = r#"[{"LowerBound":{"cache_size":64}}]"#;
    let first = raw(
        &handle,
        &post(
            "/analyze",
            &format!(r#"{{"nest":{nest},"queries":{query},"nest":{invalid_nest}}}"#),
        ),
    );
    let alone = raw(
        &handle,
        &post(
            "/analyze",
            &format!(r#"{{"nest":{nest},"queries":{query}}}"#),
        ),
    );
    assert_eq!(first.status, 200);
    assert_eq!(first.body, alone.body);
    handle.join();
}

#[test]
fn a_raw_control_character_in_a_name_is_a_parse_error() {
    // RFC 8259 §7: U+0000–U+001F must be escaped inside a string.
    let handle = start(|_| {}, FaultPlan::default());
    let nest = |name: &str| {
        format!(
            r#"{{"nest":{{"indices":[{{"name":"{name}","bound":8}}],"arrays":[{{"name":"A","support":1}}]}},"queries":[{{"LowerBound":{{"cache_size":64}}}}]}}"#
        )
    };
    let before = handle.metrics().parse_errors.load(Ordering::Relaxed);
    let r = raw(&handle, &post("/analyze", &nest("i\nj")));
    assert_eq!(r.status, 400);
    let text = String::from_utf8_lossy(&r.body);
    assert!(
        text.contains("U+000A") && text.contains("at byte"),
        "{text}"
    );
    let counted = handle.metrics().parse_errors.load(Ordering::Relaxed) - before;
    assert_eq!(counted, 1);
    // Escaped, the same name is a valid loop name.
    assert_eq!(raw(&handle, &post("/analyze", &nest("i\\nj"))).status, 200);
    handle.join();
}

#[test]
fn the_client_stream_decodes_what_the_tree_decodes() {
    let handle = start(|_| {}, FaultPlan::default());
    let nest = builders::random_projective(11, 8, 4, (1, 256));
    let mut queries = all_kinds_on(64, 3);
    queries.push(Query::Slice {
        cache_size: 64,
        axis: 99, // no such loop
        lo_bound: 1,
        hi_bound: 4,
    });
    let client = Client::new(handle.addr().to_string());
    let streamed = client.analyze(&nest, &queries).expect("served");
    let r = raw(&handle, &post("/analyze", &analyze_body(&nest, &queries)));
    assert_eq!(r.status, 200);
    let doc = json::parse(std::str::from_utf8(&r.body).expect("UTF-8")).expect("JSON");
    let Ok(Value::Array(entries)) = doc.field("results") else {
        panic!("no results array");
    };
    let tree: Vec<Result<AnalysisResult, String>> = entries
        .iter()
        .map(|entry| match (entry.field("ok"), entry.field("err")) {
            (Ok(ok), _) => Ok(AnalysisResult::deserialize(ok).expect("an answer")),
            (_, Ok(Value::String(msg))) => Err(msg.clone()),
            other => panic!("entry {other:?}"),
        })
        .collect();
    assert_eq!(tree.len(), queries.len());
    assert!(
        tree.last().is_some_and(Result::is_err),
        "the batch carries an error"
    );
    assert_eq!(streamed, tree);
    handle.join();
}

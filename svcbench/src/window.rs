//! Server set-up, the closed-loop timed window, and `/metrics` snapshots.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use projtile_core::engine::{AnalysisResult, Query};
use projtile_loopnest::LoopNest;
use projtile_service::{Client, FaultPlan, Server, ServerConfig, ServerHandle, Value};

use crate::inputs::{self, Kind, NestKey, Stream};

/// A booted server with the inputs of one run.
pub struct Booted {
    pub server: ServerHandle,
    pub streams: Vec<Stream>,
    pub warmup: Vec<(LoopNest, Vec<Query>)>,
}

/// Boots a default-configured server, generates the inputs and sends the
/// workload's warm-up: everything `setup_s` times.
pub fn boot(kind: Kind, seed: u64) -> Result<Booted, String> {
    let server = Server::start(ServerConfig::default(), FaultPlan::default())
        .map_err(|e| format!("server start: {e}"))?;
    let streams = inputs::streams(kind, seed);
    let warmup = inputs::warmup(kind, seed);
    let client = Client::new(server.addr().to_string());
    for (nest, queries) in &warmup {
        let answers = client
            .analyze(nest, queries)
            .map_err(|e| format!("warm-up: {e}"))?;
        if answers.len() != queries.len() || answers.iter().any(Result::is_err) {
            return Err("warm-up answered with errors".to_string());
        }
    }
    Ok(Booted {
        server,
        streams,
        warmup,
    })
}

/// Sets up at least `min_reps` times, and again until `min_secs` went into
/// set-up or `max_reps` were made, keeping the last server and stopping
/// the others. Returns it with each set-up's duration in seconds.
pub fn setup(
    kind: Kind,
    seed: u64,
    (min_reps, min_secs, max_reps): (usize, f64, usize),
) -> Result<(Booted, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept: Option<Booted> = None;
    while times.len() < min_reps.max(1)
        || (times.iter().sum::<f64>() < min_secs && times.len() < max_reps)
    {
        let start = Instant::now();
        let booted = boot(kind, seed)?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(booted) {
            previous.server.join();
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// One completed `Client::analyze` call, timed relative to the window start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub seq: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Everything one client observed in the window.
pub struct ClientLog {
    pub stream: Stream,
    pub samples: Vec<Sample>,
    /// Requests that failed: transport error, non-200, exhausted retries,
    /// or a reply with the wrong number of answers.
    pub failures: u64,
    /// The first answer served for each distinct `(nest, query)`.
    pub served: HashMap<(NestKey, Query), Result<AnalysisResult, String>>,
    /// Repeats whose answer differed from the first one served.
    pub repeat_mismatches: u64,
    pub queries_sent: u64,
    pub valid_sent: u64,
    /// In-batch repeats of a valid literal: the engine counts such a repeat
    /// of a miss neither as a hit nor as a miss.
    pub repeated_literals: u64,
}

impl ClientLog {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failures
    }
}

/// Runs the closed loop: every client sends its next request as soon as
/// the previous one is answered, until `seconds` have passed. Returns the
/// logs and the window's wall-clock length (start to last reply).
pub fn run(addr: &str, streams: Vec<Stream>, seconds: f64) -> (Vec<ClientLog>, f64) {
    let length = Duration::from_secs_f64(seconds);
    let origin = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| scope.spawn(move || drive(&Client::new(addr), stream, origin, length)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (logs, origin.elapsed().as_secs_f64())
}

fn drive(client: &Client, mut stream: Stream, origin: Instant, length: Duration) -> ClientLog {
    let mut samples = Vec::new();
    let mut failures = 0;
    let mut served: HashMap<(NestKey, Query), Result<AnalysisResult, String>> = HashMap::new();
    let mut repeat_mismatches = 0;
    let (mut queries_sent, mut valid_sent, mut repeated_literals) = (0, 0, 0);
    let mut seq = 0usize;
    while origin.elapsed() < length {
        stream.ensure(seq);
        let request = stream.get(seq);
        let nest = &stream.nests[request.nest];
        let key = stream.key(request);
        let start = Instant::now();
        let outcome = client.analyze(nest, &request.queries);
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(origin).as_nanos() as u64;
        let valid: Vec<&Query> = request
            .queries
            .iter()
            .filter(|q| q.cache_size() >= 2)
            .collect();
        let distinct: HashSet<&Query> = valid.iter().copied().collect();
        queries_sent += request.queries.len() as u64;
        valid_sent += valid.len() as u64;
        repeated_literals += (valid.len() - distinct.len()) as u64;
        match outcome {
            Ok(answers) if answers.len() == request.queries.len() => {
                samples.push(Sample {
                    seq,
                    start_ns,
                    dur_ns,
                });
                for (query, answer) in request.queries.iter().zip(answers) {
                    match served.get(&(key, query.clone())) {
                        Some(first) if *first != answer => repeat_mismatches += 1,
                        Some(_) => {}
                        None => {
                            served.insert((key, query.clone()), answer);
                        }
                    }
                }
            }
            Ok(_) => failures += 1,
            Err(e) => {
                eprintln!("svcbench: request failed: {e}");
                failures += 1;
            }
        }
        seq += 1;
    }
    ClientLog {
        stream,
        samples,
        failures,
        served,
        repeat_mismatches,
        queries_sent,
        valid_sent,
        repeated_literals,
    }
}

/// The `/metrics` counters the benchmark reconciles.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub completed: i128,
    pub shed: i128,
    pub panics: i128,
    pub read_timeouts: i128,
    pub parse_errors: i128,
    pub queries: i128,
    pub hits: i128,
    pub misses: i128,
    pub evictions: i128,
}

impl Counters {
    /// Fetches `/metrics` (one `GET` the server counts as completed).
    pub fn fetch(client: &Client) -> Result<Counters, String> {
        let doc = client.metrics().map_err(|e| format!("/metrics: {e}"))?;
        let int = |path: &[&str]| -> Result<i128, String> {
            let mut v: &Value = &doc;
            for name in path {
                v = v
                    .field(name)
                    .map_err(|e| format!("/metrics {path:?}: {e}"))?;
            }
            match v {
                Value::Int(i) => Ok(*i),
                other => Err(format!("/metrics {path:?}: not an integer: {other:?}")),
            }
        };
        let mut evictions = 0;
        for cache in ["betas", "results", "slices", "surfaces"] {
            evictions += int(&["engine", cache, "evictions"])?;
        }
        Ok(Counters {
            completed: int(&["completed"])?,
            shed: int(&["shed_queue_full"])? + int(&["shed_expired"])?,
            panics: int(&["panics"])?,
            read_timeouts: int(&["read_timeouts"])?,
            parse_errors: int(&["parse_errors"])?,
            queries: int(&["engine", "queries"])?,
            hits: int(&["engine", "hits"])?,
            misses: int(&["engine", "misses"])?,
            evictions,
        })
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            completed: self.completed - before.completed,
            shed: self.shed - before.shed,
            panics: self.panics - before.panics,
            read_timeouts: self.read_timeouts - before.read_timeouts,
            parse_errors: self.parse_errors - before.parse_errors,
            queries: self.queries - before.queries,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }
}

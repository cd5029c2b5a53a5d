//! The traced run's per-layer measurements, taken from outside the
//! program: the benchmark times its own calls into each layer's public
//! functions and records one span per call, in memory.
//!
//! * Request replay — the traced window's requests, in the order they were
//!   sent, re-run stage by stage in process: the client's request encode,
//!   the server's request parse, canonicalization, `analyze_batch` on an
//!   in-process front brought to the server's state (and once more as a
//!   pure cache probe), the server's response serialize and the client's
//!   decode.
//! * Kernel reference — the LP entry points on seeded `cold_solves` nests
//!   of each depth and on `lab_mixed`'s surface and slice queries.
//! * Transport probes — `GET /healthz` and a bare connect against the live
//!   server.

use std::hint::black_box;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use projtile_core::engine::{AnalysisResult, Query, SharedEngine};
use projtile_core::{bounds, parametric, tightness, tiling_lp};
use projtile_loopnest::{canonicalize, LoopNest};
use projtile_service::Client;
use serde::{json, Deserialize, Serialize, Value};

use crate::inputs::{self, COLD_DEPTHS, COLD_M};
use crate::window::ClientLog;

/// One timed call. Spans of one request share its id (`c<client>-<seq>`);
/// a stage span names the request span as its parent. `clock` says which
/// origin `start_us` counts from: the timed window, or the replay pass.
pub struct Span {
    pub id: String,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub clock: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

impl Span {
    pub fn to_json(&self) -> String {
        let parent = self
            .parent
            .map_or(Value::Null, |p| Value::String(p.to_string()));
        json::to_string(&Value::Object(vec![
            ("id".to_string(), Value::String(self.id.clone())),
            ("span".to_string(), Value::String(self.name.to_string())),
            ("parent".to_string(), parent),
            ("clock".to_string(), Value::String(self.clock.to_string())),
            ("start_us".to_string(), Value::Float(self.start_us)),
            ("dur_us".to_string(), Value::Float(self.dur_us)),
        ]))
    }
}

/// In-memory span recorder, relative to one origin.
pub struct Recorder {
    origin: Instant,
    clock: &'static str,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(clock: &'static str) -> Recorder {
        Recorder {
            origin: Instant::now(),
            clock,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, records it as span `name` of request `id`, and returns
    /// its value with its duration in µs.
    pub fn time<T>(
        &mut self,
        id: &str,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let value = black_box(f());
        let dur_us = start.elapsed().as_nanos() as f64 / 1e3;
        self.spans.push(Span {
            id: id.to_string(),
            name,
            parent,
            clock: self.clock,
            start_us: start.duration_since(self.origin).as_nanos() as f64 / 1e3,
            dur_us,
        });
        (value, dur_us)
    }
}

/// The window's request spans, one per completed `Client::analyze`.
pub fn request_spans(logs: &[ClientLog]) -> Vec<Span> {
    let mut spans: Vec<Span> = logs
        .iter()
        .enumerate()
        .flat_map(|(client, log)| {
            log.samples.iter().map(move |s| Span {
                id: format!("c{client}-{}", s.seq),
                name: "client.analyze",
                parent: None,
                clock: "window",
                start_us: s.start_ns as f64 / 1e3,
                dur_us: s.dur_ns as f64 / 1e3,
            })
        })
        .collect();
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    spans
}

/// Per-stage durations (µs) of the replayed requests.
#[derive(Default)]
pub struct Stages {
    pub encode: Vec<f64>,
    pub parse: Vec<f64>,
    pub canon: Vec<f64>,
    pub engine: Vec<f64>,
    pub probe: Vec<f64>,
    pub serialize: Vec<f64>,
    pub decode: Vec<f64>,
    pub response_bytes: Vec<f64>,
}

/// Replays the window's requests in send order for up to `budget`,
/// starting from a front in the state the server had after its warm-up.
pub fn replay(
    logs: &[ClientLog],
    warmup: &[(LoopNest, Vec<Query>)],
    budget: Duration,
    rec: &mut Recorder,
) -> Stages {
    let front = SharedEngine::new();
    for (nest, queries) in warmup {
        black_box(front.analyze_batch(nest, queries));
    }
    let mut order: Vec<(u64, usize, usize)> = logs
        .iter()
        .enumerate()
        .flat_map(|(client, log)| log.samples.iter().map(move |s| (s.start_ns, client, s.seq)))
        .collect();
    order.sort_unstable();
    let mut stages = Stages::default();
    let started = Instant::now();
    let parent = Some("client.analyze");
    for (_, client, seq) in order {
        if started.elapsed() >= budget {
            break;
        }
        let stream = &logs[client].stream;
        let request = stream.get(seq);
        let nest = &stream.nests[request.nest];
        let queries = &request.queries;
        let id = format!("c{client}-{seq}");

        let (body, t) = rec.time(&id, "client.request_encode", parent, || {
            request_body(nest, queries)
        });
        stages.encode.push(t);
        let (parsed, t) = rec.time(&id, "service.request_parse", parent, || {
            parse_request(&body)
        });
        stages.parse.push(t);
        let (nest, queries) = parsed.expect("a request the benchmark encoded parses back");
        let (_, t) = rec.time(&id, "loopnest.canon", parent, || canonicalize(&nest));
        stages.canon.push(t);
        let (results, t) = rec.time(&id, "engine.stage", parent, || {
            front.analyze_batch(&nest, &queries)
        });
        stages.engine.push(t);
        let (_, t) = rec.time(&id, "engine.probe", parent, || {
            front.analyze_batch(&nest, &queries)
        });
        stages.probe.push(t);
        let (response, t) = rec.time(&id, "service.response_serialize", parent, || {
            response_body(&results)
        });
        stages.serialize.push(t);
        stages.response_bytes.push(response.len() as f64);
        let (decoded, t) = rec.time(&id, "client.decode", parent, || decode_response(&response));
        stages.decode.push(t);
        assert_eq!(
            decoded.map(|d| d.len()),
            Some(queries.len()),
            "a response the benchmark serialized decodes back"
        );
    }
    stages
}

/// The body `Client::analyze` sends.
fn request_body(nest: &LoopNest, queries: &[Query]) -> String {
    json::to_string(&Value::Object(vec![
        ("nest".to_string(), nest.serialize()),
        (
            "queries".to_string(),
            Value::Array(queries.iter().map(Serialize::serialize).collect()),
        ),
    ]))
}

/// What the server's `POST /analyze` does with a body before the engine.
fn parse_request(body: &str) -> Option<(LoopNest, Vec<Query>)> {
    let v = json::parse(body).ok()?;
    let nest = LoopNest::deserialize(v.field("nest").ok()?).ok()?;
    let queries = Vec::<Query>::deserialize(v.field("queries").ok()?).ok()?;
    Some((nest, queries))
}

/// The body the server answers with.
fn response_body<E: std::fmt::Display>(results: &[Result<AnalysisResult, E>]) -> String {
    let entries = results
        .iter()
        .map(|r| {
            let (tag, payload) = match r {
                Ok(result) => ("ok", result.serialize()),
                Err(e) => ("err", Value::String(e.to_string())),
            };
            Value::Object(vec![(tag.to_string(), payload)])
        })
        .collect();
    json::to_string(&Value::Object(vec![(
        "results".to_string(),
        Value::Array(entries),
    )]))
}

/// What `Client::analyze` does with a response body.
fn decode_response(body: &str) -> Option<Vec<Result<AnalysisResult, String>>> {
    let doc = json::parse(body).ok()?;
    let Ok(Value::Array(entries)) = doc.field("results") else {
        return None;
    };
    entries
        .iter()
        .map(|entry| match (entry.field("ok"), entry.field("err")) {
            (Ok(ok), _) => AnalysisResult::deserialize(ok).ok().map(Ok),
            (_, Ok(Value::String(msg))) => Some(Err(msg.clone())),
            _ => None,
        })
        .collect()
}

/// LP-layer durations (µs) on the kernel reference inputs, indexed like
/// [`COLD_DEPTHS`] where per depth.
#[derive(Default)]
pub struct Kernel {
    pub lower_bound: [Vec<f64>; 3],
    pub tightness: [Vec<f64>; 3],
    pub tiling: [Vec<f64>; 3],
    pub miss_batch: [Vec<f64>; 3],
    pub surface: Vec<f64>,
    pub slice: Vec<f64>,
}

/// Nests per depth, and timed repetitions per call, of the kernel sample.
const REFERENCE_NESTS: usize = 4;
const REFERENCE_REPS: usize = 3;

/// Times the LP entry points on the seed's kernel reference inputs.
pub fn kernel(seed: u64, rec: &mut Recorder) -> Kernel {
    let mut k = Kernel::default();
    let batch = inputs::cold_queries();
    for (i, (d, nest)) in inputs::cold_reference(seed, REFERENCE_NESTS)
        .into_iter()
        .enumerate()
    {
        let id = format!("ref-d{}-{i}", COLD_DEPTHS[d]);
        for _ in 0..REFERENCE_REPS {
            let (_, t) = rec.time(&id, "lp.lower_bound", None, || {
                bounds::arbitrary_bound_exponent(&nest, COLD_M)
            });
            k.lower_bound[d].push(t);
            let (_, t) = rec.time(&id, "lp.tightness", None, || {
                tightness::check_tightness(&nest, COLD_M)
            });
            k.tightness[d].push(t);
            let (_, t) = rec.time(&id, "lp.tiling", None, || {
                tiling_lp::optimal_tiling(&nest, COLD_M)
            });
            k.tiling[d].push(t);
            let (_, t) = rec.time(&id, "engine.miss_batch", None, || {
                SharedEngine::new().analyze_batch(&nest, &batch)
            });
            k.miss_batch[d].push(t);
        }
    }
    for (i, (nest, query)) in inputs::lab_parametric_reference(seed)
        .into_iter()
        .enumerate()
    {
        let id = format!("ref-param-{i}");
        for _ in 0..REFERENCE_REPS {
            match &query {
                Query::Surface {
                    cache_size,
                    axes,
                    lo_bounds,
                    hi_bounds,
                } => {
                    let (_, t) = rec.time(&id, "lp.surface", None, || {
                        parametric::exponent_surface(&nest, *cache_size, axes, lo_bounds, hi_bounds)
                    });
                    k.surface.push(t);
                }
                Query::Slice {
                    cache_size,
                    axis,
                    lo_bound,
                    hi_bound,
                } => {
                    let (_, t) = rec.time(&id, "lp.slice", None, || {
                        parametric::exponent_vs_beta(
                            &nest,
                            *cache_size,
                            *axis,
                            *lo_bound,
                            *hi_bound,
                        )
                    });
                    k.slice.push(t);
                }
                _ => {}
            }
        }
    }
    k
}

/// Zero-work round trips against the live server: `GET /healthz` through
/// the production client, and a bare connect plus close. Returns both
/// duration lists (µs).
pub fn transport(addr: &str, n: usize, rec: &mut Recorder) -> (Vec<f64>, Vec<f64>) {
    let client = Client::new(addr);
    let mut healthz = Vec::with_capacity(n);
    let mut connect = Vec::with_capacity(n);
    for i in 0..n {
        let id = format!("probe-{i}");
        let (ok, t) = rec.time(&id, "service.healthz", None, || client.healthz().is_ok());
        assert!(ok, "GET /healthz answers 200");
        healthz.push(t);
        let (ok, t) = rec.time(&id, "service.connect", None, || {
            TcpStream::connect(addr).is_ok()
        });
        assert!(ok, "the server accepts connections");
        connect.push(t);
    }
    (healthz, connect)
}

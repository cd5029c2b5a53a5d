//! Wall-clock perf for the network service (`crates/service`), emitted
//! into the `BENCH_*.json` snapshots as the `service/` group.
//!
//! Unlike the closure workloads of [`crate::perf`], the service numbers
//! come from driving a real in-process server over loopback sockets. The
//! group has two parts, and each boots a server of its own:
//!
//! * `service/roundtrip/tightness_hit` — one warm request round-trip on a
//!   fresh connection (connect, POST `/analyze`, cache-hit compute,
//!   response) through the standard timing loop: each iteration is a new
//!   `Client`, whose first call opens its connection;
//! * `service/stage/<stage>` — where that loop's round trips went, as the
//!   mean time per request in each layer: `client_encode`, then the
//!   server's [`STAGES`] from its stage histograms' exact sums (accept to
//!   the last byte written), `connect` (inside `TcpStream::connect`),
//!   `delivery` (the client's exchange, closing the connection included,
//!   minus `connect` and the server's share: wake-ups, bytes on the wire
//!   and the close) and `client_decode`, from the clients'
//!   [`ClientTimings`]. The rows add up to the mean round trip;
//! * `service/roundtrip/tightness_hit_keepalive` — the same query on one
//!   reused `Client`, whose calls share one kept connection: no connect,
//!   and no handoff to a connection thread;
//! * `service/mixed_traffic/secs_per_request` — four client threads replay
//!   the cache lab's seeded zipf workload generator
//!   (`projtile_lab::Workload`) against a **fresh** server (clean caches,
//!   clean histogram) for the whole budget, so the snapshot tracks
//!   cold-to-warm service behaviour under reproducible generated load; the
//!   value is wall time over completed requests (inverse throughput),
//!   `iters` the request count;
//! * `service/mixed_traffic/{p50,p99}` — that server's own request-latency
//!   histogram after the run, as seconds (upper bucket edge; the
//!   histogram's buckets are powers of two of microseconds). Only the
//!   generated traffic reaches this server, so the quantiles describe it
//!   alone.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use projtile_core::engine::Query;
use projtile_lab::{GeneratorConfig, Pattern, Workload};
use projtile_loopnest::builders;
use projtile_service::metrics::{Metrics, STAGES};
use projtile_service::{Client, ClientTimings, FaultPlan, Server, ServerConfig};

use crate::perf::{time_workload, Measurement};

/// Measures the service group against in-process servers; `budget` is
/// the per-measurement time budget (the mixed-traffic run uses it once).
pub fn service_measurements(budget: Duration) -> Vec<Measurement> {
    let handle =
        Server::start(ServerConfig::default(), FaultPlan::default()).expect("bench server starts");
    let addr = handle.addr().to_string();
    let nest = builders::matmul(1 << 9, 1 << 9, 1 << 5);
    let queries = [Query::Tightness {
        cache_size: 1 << 10,
    }];

    // Warm the query so the loops time the service's steady state (a
    // read-path cache hit), not a first-touch LP solve.
    let served = Client::new(addr.clone())
        .analyze(&nest, &queries)
        .expect("warm-up served");
    assert!(served.iter().all(Result::is_ok), "warm-up query is valid");

    let mut out = Vec::new();

    // One fresh connection per round trip: a new client per iteration,
    // whose drop closes the connection. The close belongs to the round
    // trip, so it counts as part of the exchange.
    let server_before = stage_totals(handle.metrics());
    let fresh = Cell::new(ClientTimings::default());
    let (secs, iters) = time_workload(
        &|| {
            let client = Client::new(addr.clone());
            std::hint::black_box(client.analyze(&nest, &queries).expect("served"));
            let timings = client.timings();
            let closing = Instant::now();
            drop(client);
            let exchange = timings.exchange + closing.elapsed();
            fresh.set(sum(
                fresh.get(),
                ClientTimings {
                    exchange,
                    ..timings
                },
            ));
        },
        budget,
        5,
    );
    out.push(row("service/roundtrip/tightness_hit", secs, iters));
    out.extend(stage_measurements(
        handle.metrics(),
        server_before,
        fresh.get(),
    ));

    // The same round trip on one kept connection.
    let client = Client::new(addr);
    let (secs, iters) = time_workload(
        &|| {
            std::hint::black_box(client.analyze(&nest, &queries).expect("served"));
        },
        budget,
        5,
    );
    out.push(row(
        "service/roundtrip/tightness_hit_keepalive",
        secs,
        iters,
    ));
    handle.join();
    out.extend(generated_traffic_measurements(budget));
    out
}

/// A timed row, echoed to stderr as it lands.
fn row(name: &str, secs: f64, iters: u64) -> Measurement {
    eprintln!("  {:<42} {:>12.3} µs/iter", name, secs * 1e6);
    Measurement {
        name: name.to_string(),
        secs_per_iter: secs,
        iters,
    }
}

/// Two clients' [`ClientTimings`] added up.
fn sum(a: ClientTimings, b: ClientTimings) -> ClientTimings {
    ClientTimings {
        analyses: a.analyses + b.analyses,
        encode: a.encode + b.encode,
        exchange: a.exchange + b.exchange,
        connect: a.connect + b.connect,
        decode: a.decode + b.decode,
    }
}

/// Answered-request count, per-stage latency sums and the whole-request
/// latency sum of a server at one instant.
struct StageTotals {
    requests: u64,
    stage_sums: Vec<Duration>,
    latency_sum: Duration,
}

fn stage_totals(metrics: &Metrics) -> StageTotals {
    StageTotals {
        requests: metrics.request_latency.count(),
        stage_sums: metrics.stages.iter().map(|h| h.sum()).collect(),
        latency_sum: metrics.request_latency.sum(),
    }
}

/// The `service/stage/*` rows: the mean time per request in each layer of
/// the round trips timed by `client` (summed over the loop's clients)
/// since `server_before`, all of them `/analyze` calls answered by this
/// server alone.
fn stage_measurements(
    metrics: &Metrics,
    server_before: StageTotals,
    client: ClientTimings,
) -> Vec<Measurement> {
    // A request's stages land just after its last byte is written: wait
    // for the last one before reading the sums.
    let settle = Instant::now();
    while metrics.request_latency.count() < server_before.requests + client.analyses
        && settle.elapsed() < Duration::from_secs(1)
    {
        std::thread::yield_now();
    }
    let server = stage_totals(metrics);
    let requests = server.requests - server_before.requests;
    let served = server.latency_sum - server_before.latency_sum;

    let mut layers = vec![("client_encode".to_string(), client.encode)];
    for (stage, (sum_before, sum_after)) in STAGES
        .iter()
        .zip(server_before.stage_sums.iter().zip(&server.stage_sums))
    {
        layers.push((stage.to_string(), *sum_after - *sum_before));
    }
    layers.push(("connect".to_string(), client.connect));
    layers.push((
        "delivery".to_string(),
        client.exchange.saturating_sub(client.connect + served),
    ));
    layers.push(("client_decode".to_string(), client.decode));
    layers
        .into_iter()
        .map(|(layer, total)| {
            let mean = total.as_secs_f64() / requests.max(1) as f64;
            let name = format!("service/stage/{layer}");
            eprintln!("  {:<42} {:>12.3} µs/iter", name, mean * 1e6);
            Measurement {
                name,
                secs_per_iter: mean,
                iters: requests,
            }
        })
        .collect()
}

/// Generated mixed traffic against a fresh server: four client threads
/// each replay deterministic seeded zipf workloads from the lab generator
/// (distinct per-thread, per-round seeds), so the request stream — and the
/// cold-to-warm hit-rate trajectory it induces — is identical run to run.
/// One HTTP `POST /analyze` per workload batch is the counted request.
fn generated_traffic_measurements(budget: Duration) -> Vec<Measurement> {
    let handle =
        Server::start(ServerConfig::default(), FaultPlan::default()).expect("bench server starts");
    let addr = handle.addr().to_string();

    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let counts = projtile_par::fan_out(4, |worker| {
        let client = Client::new(addr.clone());
        let mut requests = 0u64;
        let mut round = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let config = GeneratorConfig {
                seed: 0xC0FFEE + worker as u64 + round * 101,
                pattern: Pattern::Zipf,
                batches: 8,
                batch_size: 4,
            };
            let stats = Workload::generate(&config)
                .drive_client(&client)
                .expect("generated load served");
            requests += stats.batches;
            round += 1;
            if worker == 0 && started.elapsed() >= budget {
                stop.store(true, Ordering::Relaxed);
            }
        }
        requests
    });
    let wall = started.elapsed().as_secs_f64();
    let total: u64 = counts.iter().sum();
    eprintln!(
        "  {:<42} {:>12.3} µs/iter ({} requests)",
        "service/mixed_traffic/secs_per_request",
        wall / total.max(1) as f64 * 1e6,
        total
    );
    let mut out = vec![Measurement {
        name: "service/mixed_traffic/secs_per_request".to_string(),
        secs_per_iter: wall / total.max(1) as f64,
        iters: total,
    }];

    let latency = &handle.metrics().request_latency;
    for (tag, q) in [("p50", 0.50), ("p99", 0.99)] {
        let micros = latency.quantile_micros(q).unwrap_or(0);
        eprintln!(
            "  {:<42} {:>12.3} µs/iter",
            format!("service/mixed_traffic/{tag}"),
            micros as f64
        );
        out.push(Measurement {
            name: format!("service/mixed_traffic/{tag}"),
            secs_per_iter: micros as f64 * 1e-6,
            iters: latency.count(),
        });
    }

    handle.join();
    out
}

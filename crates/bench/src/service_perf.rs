//! Wall-clock perf for the network service (`crates/service`), emitted
//! into the `BENCH_*.json` snapshots as the `service/` group.
//!
//! Unlike the closure workloads of [`crate::perf`], the service numbers
//! come from driving a real in-process server over loopback sockets. The
//! group has two parts, and each boots a server of its own:
//!
//! * `service/roundtrip/tightness_hit` — one warm request round-trip
//!   (connect, POST `/analyze`, cache-hit compute, response) through the
//!   standard timing loop;
//! * `service/stage/<stage>` — where that loop's round trips went, as the
//!   mean time per request in each layer: `client_encode`, then the
//!   server's [`STAGES`] from its stage histograms' exact sums (accept to
//!   the last byte written), `transport` (the client's connect-to-last-byte
//!   exchange minus the server's share: handshake, wake-ups, bytes on the
//!   wire) and `client_decode`, from the client's [`ClientTimings`]. The
//!   rows add up to the mean round trip;
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
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(1 << 9, 1 << 9, 1 << 5);
    let queries = [Query::Tightness {
        cache_size: 1 << 10,
    }];

    // Warm the query so the loop times the service's steady state (a
    // read-path cache hit), not a first-touch LP solve.
    let served = client.analyze(&nest, &queries).expect("warm-up served");
    assert!(served.iter().all(Result::is_ok), "warm-up query is valid");

    let mut out = Vec::new();

    // Single-connection round-trip on the standard timing loop.
    let before = (stage_totals(handle.metrics()), client.timings());
    let (secs, iters) = time_workload(
        &|| {
            std::hint::black_box(client.analyze(&nest, &queries).expect("served"));
        },
        budget,
        5,
    );
    eprintln!(
        "  {:<42} {:>12.3} µs/iter",
        "service/roundtrip/tightness_hit",
        secs * 1e6
    );
    out.push(Measurement {
        name: "service/roundtrip/tightness_hit".to_string(),
        secs_per_iter: secs,
        iters,
    });

    out.extend(stage_measurements(handle.metrics(), &client, before));
    handle.join();
    out.extend(generated_traffic_measurements(budget));
    out
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
/// the round trips `client` made since `before`, all of them `/analyze`
/// calls answered by this server alone.
fn stage_measurements(
    metrics: &Metrics,
    client: &Client,
    (server_before, client_before): (StageTotals, ClientTimings),
) -> Vec<Measurement> {
    // A request's stages land just after its last byte is written: wait
    // for the last one before reading the sums.
    let calls = client.timings().analyses - client_before.analyses;
    let settle = Instant::now();
    while metrics.request_latency.count() < server_before.requests + calls
        && settle.elapsed() < Duration::from_secs(1)
    {
        std::thread::yield_now();
    }
    let server = stage_totals(metrics);
    let client_after = client.timings();
    let requests = server.requests - server_before.requests;
    let exchange = client_after.exchange - client_before.exchange;
    let served = server.latency_sum - server_before.latency_sum;

    let mut layers = vec![(
        "client_encode".to_string(),
        client_after.encode - client_before.encode,
    )];
    for (stage, (sum_before, sum_after)) in STAGES
        .iter()
        .zip(server_before.stage_sums.iter().zip(&server.stage_sums))
    {
        layers.push((stage.to_string(), *sum_after - *sum_before));
    }
    layers.push(("transport".to_string(), exchange.saturating_sub(served)));
    layers.push((
        "client_decode".to_string(),
        client_after.decode - client_before.decode,
    ));
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

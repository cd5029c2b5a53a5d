//! Wall-clock perf for the network service (`crates/service`), emitted
//! into the `BENCH_*.json` snapshots as the `service/` group.
//!
//! Unlike the closure workloads of [`crate::perf`], the service numbers
//! come from driving a real in-process server over loopback sockets:
//!
//! * `service/roundtrip/tightness_hit` — one warm request round-trip
//!   (connect, POST `/analyze`, cache-hit compute, response) through the
//!   standard timing loop;
//! * `service/mixed_4threads/secs_per_request` — four concurrent client
//!   threads issue a mixed query stream (tightness, tiling, lower-bound,
//!   slice over three kernels) for the whole budget; the value is wall
//!   time over total completed requests (inverse throughput), `iters` the
//!   request count;
//! * `service/mixed_4threads/{p50,p99}` — the server's own request-latency
//!   histogram after that run, as seconds (upper bucket edge; the
//!   histogram's buckets are powers of two of microseconds);
//! * `service/mixed_traffic/{secs_per_request,p50,p99}` — the same
//!   accounting against a **fresh** server (clean caches, clean histogram)
//!   under four threads of the cache lab's seeded zipf workload
//!   generator (`projtile_lab::Workload`), so the snapshot also tracks
//!   cold-to-warm service behaviour under reproducible generated load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use projtile_core::engine::Query;
use projtile_lab::{GeneratorConfig, Pattern, Workload};
use projtile_loopnest::{builders, LoopNest};
use projtile_service::{Client, FaultPlan, Server, ServerConfig};

use crate::perf::{time_workload, Measurement};

/// The mixed-traffic corpus: `(nest, queries)` pairs cycled by every
/// client thread.
fn corpus() -> Vec<(LoopNest, Vec<Query>)> {
    let m = 1u64 << 10;
    vec![
        (
            builders::matmul(1 << 9, 1 << 9, 1 << 5),
            vec![
                Query::Tightness { cache_size: m },
                Query::OptimalTiling { cache_size: m },
            ],
        ),
        (
            builders::nbody(1 << 6, 1 << 9),
            vec![
                Query::LowerBound { cache_size: m },
                Query::Slice {
                    cache_size: m,
                    axis: 0,
                    lo_bound: 1,
                    hi_bound: 1 << 8,
                },
            ],
        ),
        (
            builders::random_projective(7, 4, 4, (1, 256)),
            vec![Query::Tightness { cache_size: m }],
        ),
    ]
}

/// Measures the service group against an in-process server; `budget` is
/// the per-measurement time budget (the mixed-traffic run uses it once).
pub fn service_measurements(budget: Duration) -> Vec<Measurement> {
    let handle =
        Server::start(ServerConfig::default(), FaultPlan::default()).expect("bench server starts");
    let addr = handle.addr().to_string();
    let corpus = corpus();

    // Warm every corpus entry so the measured traffic is the service's
    // steady state (read-path cache hits), not first-touch LP solves.
    let warm = Client::new(addr.clone());
    for (nest, queries) in &corpus {
        let served = warm.analyze(nest, queries).expect("warm-up served");
        assert!(
            served.iter().all(Result::is_ok),
            "warm-up queries are valid"
        );
    }

    let mut out = Vec::new();

    // Single-connection round-trip on the standard timing loop.
    let (nest, queries) = (&corpus[0].0, &corpus[0].1[..1]);
    let client = Client::new(addr.clone());
    let (secs, iters) = time_workload(
        &|| {
            std::hint::black_box(client.analyze(nest, queries).expect("served"));
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

    // Mixed traffic: 4 client threads for the whole budget.
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let counts = projtile_par::fan_out(4, |worker| {
        let client = Client::new(addr.clone());
        let mut served = 0u64;
        let mut step = worker; // decorrelate the per-thread cycles
        while !stop.load(Ordering::Relaxed) {
            let (nest, queries) = &corpus[step % corpus.len()];
            let answers = client.analyze(nest, queries).expect("served");
            std::hint::black_box(&answers);
            served += 1;
            step += 1;
            if worker == 0 && started.elapsed() >= budget {
                stop.store(true, Ordering::Relaxed);
            }
        }
        served
    });
    let wall = started.elapsed().as_secs_f64();
    let total: u64 = counts.iter().sum();
    eprintln!(
        "  {:<42} {:>12.3} µs/iter ({} requests)",
        "service/mixed_4threads/secs_per_request",
        wall / total as f64 * 1e6,
        total
    );
    out.push(Measurement {
        name: "service/mixed_4threads/secs_per_request".to_string(),
        secs_per_iter: wall / total.max(1) as f64,
        iters: total,
    });

    // Tail latency from the server's own histogram (upper bucket edges).
    let latency = &handle.metrics().request_latency;
    for (tag, q) in [("p50", 0.50), ("p99", 0.99)] {
        let micros = latency.quantile_micros(q).unwrap_or(0);
        eprintln!(
            "  {:<42} {:>12.3} µs/iter",
            format!("service/mixed_4threads/{tag}"),
            micros as f64
        );
        out.push(Measurement {
            name: format!("service/mixed_4threads/{tag}"),
            secs_per_iter: micros as f64 * 1e-6,
            iters: latency.count(),
        });
    }

    handle.join();
    out.extend(generated_traffic_measurements(budget));
    out
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

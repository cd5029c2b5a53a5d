//! Running the analyses as a long-lived, hardened network service.
//!
//! Run with `cargo run --example analysis_service`.
//!
//! Earlier revisions of this example drove an `Engine` in-process; since
//! the service crate exists, the example exercises the real thing: it
//! boots the hardened TCP server (`projtile::service`) on an ephemeral
//! loopback port, fans out concurrent *network* clients against it, reads
//! the `/metrics` document, drains gracefully (which publishes a final
//! crash-safe snapshot generation), and restarts from the snapshot store to
//! show the warm-cache restore — the full lifecycle an operator sees,
//! compressed into one process. See `docs/operations.md` for the runbook
//! version of everything demonstrated here.

use projtile::core::engine::{AnalysisResult, Query};
use projtile::loopnest::builders;
use projtile::par::fan_out;
use projtile::service::{Client, FaultPlan, Server, ServerConfig};
use std::time::Duration;

fn main() {
    let cache_words = 1u64 << 10;
    let snapshot_dir = std::env::temp_dir().join(format!(
        "projtile-analysis-service-example-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let config = ServerConfig {
        snapshot_dir: Some(snapshot_dir.clone()),
        snapshot_interval: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };

    // First life: boot, serve a mixed client population, drain.
    let handle = Server::start(config.clone(), FaultPlan::default()).expect("server starts");
    let addr = handle.addr().to_string();
    println!("== serving on {addr} ==");

    // Four network clients; each asks about its own kernel first, then
    // probes everyone else's — so later requests are cache hits regardless
    // of which worker thread serves them.
    let kernels = [
        ("matmul", builders::matmul(1 << 9, 1 << 9, 1 << 5)),
        ("nbody", builders::nbody(1 << 6, 1 << 9)),
        (
            "conv1x1",
            builders::pointwise_conv(2, 1, 1 << 6, 1 << 5, 1 << 5),
        ),
        ("random", builders::random_projective(7, 4, 4, (1, 256))),
    ];
    let queries = [
        Query::OptimalTiling {
            cache_size: cache_words,
        },
        Query::Tightness {
            cache_size: cache_words,
        },
    ];
    let lines = fan_out(kernels.len(), |client| {
        // Each thread is an independent client with its own retry stream
        // (distinct jitter seeds decorrelate simultaneous backoffs).
        let http = Client::new(addr.clone());
        let mut line = String::new();
        for step in 0..kernels.len() {
            let (name, nest) = &kernels[(client + step) % kernels.len()];
            let answers = http.analyze(nest, &queries).expect("served");
            let (Ok(AnalysisResult::OptimalTiling(tiling)), Ok(AnalysisResult::Tightness(t))) =
                (answers[0].clone(), answers[1].clone())
            else {
                unreachable!("valid queries answer with their own variants")
            };
            if step == 0 {
                line = format!(
                    "client {client}: {name:8} tile {:?}  exponent {}  tight: {}",
                    tiling.tile_dims, t.tiling_exponent, t.tight
                );
            }
        }
        line
    });
    for line in lines {
        println!("  {line}");
    }

    // Observability: the same numbers an operator scrapes from /metrics.
    let metrics = Client::new(addr.clone()).metrics().expect("metrics");
    let field = |name: &str| match metrics.field(name) {
        Ok(projtile::service::Value::Int(n)) => *n,
        _ => 0,
    };
    println!("\n== /metrics ==");
    println!(
        "  accepted {}  completed {}  shed {}  panics {}",
        field("accepted"),
        field("completed"),
        field("shed_queue_full"),
        field("panics"),
    );

    // Graceful drain: in-flight work finishes, a final snapshot generation
    // is published, the port closes.
    Client::new(addr).drain().expect("drain acknowledged");
    handle.wait();
    println!("\n== drained; snapshot store ==");
    let mut generations: Vec<_> = std::fs::read_dir(&snapshot_dir)
        .expect("store exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    generations.sort();
    for name in &generations {
        println!("  {name}");
    }

    // Second life: restart from the same store. The restored caches serve
    // the whole corpus as hits — a warm restart over the wire.
    let handle = Server::start(config, FaultPlan::default()).expect("server restarts");
    let http = Client::new(handle.addr().to_string());
    for (_, nest) in &kernels {
        let again = http
            .analyze(
                nest,
                &[Query::Tightness {
                    cache_size: cache_words,
                }],
            )
            .expect("restored server answers");
        assert!(again[0].is_ok(), "restored answers are whole");
    }
    let stats = handle.engine().stats();
    println!("\n== warm restart ==");
    println!(
        "  restored server: {} queries, {} hits, {} misses",
        stats.queries, stats.hits, stats.misses
    );
    assert_eq!(stats.misses, 0, "restored front must be warm");
    handle.join();
    let _ = std::fs::remove_dir_all(&snapshot_dir);
}

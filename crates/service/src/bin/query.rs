//! `projtile-query` — CLI client for the analysis service.
//!
//! ```text
//! projtile-query [--seed N] ADDR health      # 200 check
//! projtile-query [--seed N] ADDR metrics     # print /metrics JSON
//! projtile-query [--seed N] ADDR trace       # print /trace JSON
//! projtile-query [--seed N] ADDR drain       # graceful shutdown
//! projtile-query [--seed N] ADDR analyze FILE|-  # {"nest":…,"queries":[…]}
//! projtile-query [--seed N] ADDR verify      # served == local oracle check
//! ```
//!
//! All commands retry transient failures (connect refused, `503`, read
//! deadline) with exponential backoff and jitter; see
//! `projtile_service::RetryConfig` for the policy. `--seed N` pins the
//! jitter stream so a drill's backoff schedule replays exactly. `verify`
//! asks the server a mixed batch about the paper's matmul nest and
//! insists each answer is bitwise-identical to a cold local engine — the
//! same oracle the integration suite uses, runnable against a live
//! deployment. The subset enumeration is checked against the retained
//! one-cold-solve-per-subset oracle, not the engine's own lattice walk.

use std::io::Read;

use projtile_core::bounds;
use projtile_core::engine::{AnalysisResult, Engine, Query};
use projtile_loopnest::{builders, LoopNest};
use projtile_service::{Client, RetryConfig};
use serde::{json, Deserialize, Serialize};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut retry = RetryConfig::default();
    if args.first().map(String::as_str) == Some("--seed") {
        let Some(value) = args.get(1) else {
            die("flag `--seed` needs a value");
        };
        match value.parse::<u64>() {
            Ok(seed) => retry.jitter_seed = seed.max(1),
            Err(_) => die(&format!("flag `--seed`: bad value `{value}`")),
        }
        args.drain(..2);
    }
    let (addr, command, rest) = match args.as_slice() {
        [addr, command, rest @ ..] => (addr.as_str(), command.as_str(), rest),
        _ => die(USAGE),
    };
    let client = Client::with_retry(addr, retry);
    let outcome = match (command, rest) {
        ("health", []) => client.healthz().map(|()| println!("ok")),
        ("metrics", []) => client
            .metrics()
            .map(|doc| println!("{}", json::to_string(&doc))),
        ("trace", []) => client
            .trace()
            .map(|doc| println!("{}", json::to_string(&doc))),
        ("drain", []) => client.drain().map(|()| println!("draining")),
        ("analyze", [file]) => match read_request_file(file) {
            Ok((nest, queries)) => client
                .analyze(&nest, &queries)
                .map(|results| print_results(&results)),
            Err(msg) => die(&msg),
        },
        ("verify", []) => match verify(&client) {
            Ok(checked) => {
                println!("verified: {checked} served answers match the local oracle");
                Ok(())
            }
            Err(msg) => die(&msg),
        },
        _ => die(USAGE),
    };
    if let Err(e) = outcome {
        eprintln!("projtile-query: {e}");
        std::process::exit(1);
    }
}

const USAGE: &str =
    "usage: projtile-query [--seed N] ADDR health|metrics|trace|drain|verify|analyze FILE";

/// Reads and validates an analyze request document (path or `-` = stdin).
fn read_request_file(path: &str) -> Result<(LoopNest, Vec<Query>), String> {
    let text = if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("stdin: {e}"))?;
        text
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let nest = doc
        .field("nest")
        .and_then(LoopNest::deserialize)
        .map_err(|e| format!("{path}: nest: {e}"))?;
    let queries = doc
        .field("queries")
        .and_then(Vec::<Query>::deserialize)
        .map_err(|e| format!("{path}: queries: {e}"))?;
    Ok((nest, queries))
}

fn print_results(results: &[Result<AnalysisResult, String>]) {
    let mut out = String::from("{\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (tag, payload): (&str, &dyn Serialize) = match r {
            Ok(result) => ("ok", result),
            Err(msg) => ("err", msg),
        };
        json::write_object([(tag, payload)], &mut out);
    }
    out.push_str("]}");
    println!("{out}");
}

/// Asks the server a mixed batch and checks every answer bitwise against a
/// cold local engine, and the `EnumeratedBound` answer against
/// [`bounds::enumerated_exponent_cold`]. Returns the number of answers
/// checked.
fn verify(client: &Client) -> Result<usize, String> {
    let nest = builders::matmul(64, 64, 64);
    let m = 1u64 << 8;
    let queries = vec![
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
        Query::Tightness { cache_size: m },
        Query::Slice {
            cache_size: m,
            axis: 2,
            lo_bound: 1,
            hi_bound: 64,
        },
    ];
    let served = client
        .analyze(&nest, &queries)
        .map_err(|e| format!("analyze: {e}"))?;
    if served.len() != queries.len() {
        return Err(format!(
            "expected {} answers, got {}",
            queries.len(),
            served.len()
        ));
    }
    let oracle = Engine::new();
    for (i, (query, answer)) in queries.iter().zip(&served).enumerate() {
        let answer = answer
            .as_ref()
            .map_err(|msg| format!("query {i} answered with an error: {msg}"))?;
        let expected = match query {
            Query::EnumeratedBound { cache_size } => AnalysisResult::EnumeratedBound(
                // lint: allow(L008) the fixed 3-loop nest at M = 256 meets the oracle's asserts
                bounds::enumerated_exponent_cold(&nest, *cache_size),
            ),
            _ => oracle
                .analyze(&nest, query)
                .map_err(|e| format!("local oracle failed on query {i}: {e}"))?,
        };
        let served_json = json::to_string(answer);
        let expected_json = json::to_string(&expected);
        if served_json != expected_json {
            return Err(format!(
                "query {i} diverges from the local oracle:\n  served:   {served_json}\n  expected: {expected_json}"
            ));
        }
    }
    Ok(served.len())
}

fn die(msg: &str) -> ! {
    eprintln!("projtile-query: {msg}");
    std::process::exit(2);
}

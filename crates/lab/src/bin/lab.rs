//! `projtile-lab` — the trace-driven cache lab CLI.
//!
//! ```text
//! projtile-lab drive ADDR [--seed N] [--pattern zipf|hotspot|mixed]
//!                         [--batches N] [--batch-size N]
//! projtile-lab drain ADDR [--out FILE]
//! projtile-lab replay FILE [--check-live]
//! projtile-lab generate [--seed N] [--pattern P] [--batches N]
//!                       [--batch-size N] [--trace-capacity N]
//! ```
//!
//! `drive` pushes a deterministic generated workload at a live server
//! through the retrying client; `drain` fetches the server's recorded trace
//! (`GET /trace`) to a file; `replay` runs the budget sweep over a drained
//! trace, and with `--check-live` first insists the replay at the recorded
//! budgets reproduces the live hit/miss accounting event for event (exit 1
//! on divergence). `generate` is the self-contained demo: it records,
//! drains, differentials and reports entirely in process against small
//! budgets, no server needed.

use std::process::ExitCode;

use projtile_core::engine::{Engine, EngineConfig, TraceDocument};
use projtile_lab::{check_live, GeneratorConfig, LabReport, Pattern, Workload};
use projtile_service::{Client, RetryConfig};

const USAGE: &str = "usage: projtile-lab drive ADDR [--seed N] [--pattern zipf|hotspot|mixed] [--batches N] [--batch-size N]
       projtile-lab drain ADDR [--out FILE]
       projtile-lab replay FILE [--check-live]
       projtile-lab generate [--seed N] [--pattern P] [--batches N] [--batch-size N] [--trace-capacity N]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("projtile-lab: {message}");
    ExitCode::FAILURE
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects an unsigned integer, got {value:?}"))
}

/// Folds `--seed/--pattern/--batches/--batch-size` flags into a generator
/// config; unrecognized flags are returned as an error.
fn generator_flags(args: &[String], config: &mut GeneratorConfig) -> Result<Vec<String>, String> {
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--seed" => config.seed = parse_u64(flag, &value(flag)?)?,
            "--pattern" => {
                let name = value(flag)?;
                config.pattern = Pattern::parse(&name)
                    .ok_or_else(|| format!("unknown pattern {name:?} (zipf|hotspot|mixed)"))?;
            }
            "--batches" => config.batches = parse_u64(flag, &value(flag)?)? as usize,
            "--batch-size" => config.batch_size = parse_u64(flag, &value(flag)?)?.max(1) as usize,
            _ => rest.push(flag.clone()),
        }
    }
    Ok(rest)
}

fn drive(addr: &str, args: &[String]) -> Result<ExitCode, String> {
    let mut config = GeneratorConfig::default();
    let rest = generator_flags(args, &mut config)?;
    if !rest.is_empty() {
        return Err(format!("unknown flag {:?}", rest[0]));
    }
    let workload = Workload::generate(&config);
    let retry = RetryConfig {
        jitter_seed: config.seed.max(1),
        ..RetryConfig::default()
    };
    let client = Client::with_retry(addr, retry);
    let stats = workload
        .drive_client(&client)
        .map_err(|e| format!("driving {addr}: {e}"))?;
    println!(
        "drove {} batches / {} queries (pattern {}, seed {}): {} answered, {} errors",
        stats.batches,
        stats.queries,
        config.pattern.name(),
        config.seed,
        stats.answered,
        stats.errors
    );
    Ok(ExitCode::SUCCESS)
}

fn drain(addr: &str, args: &[String]) -> Result<ExitCode, String> {
    let out = match args {
        [] => None,
        [flag, path] if flag == "--out" => Some(path.clone()),
        _ => return Err(format!("unknown flags {args:?}")),
    };
    let client = Client::new(addr);
    let doc = client
        .trace()
        .map_err(|e| format!("draining {addr}: {e}"))?;
    let text = serde::json::to_string(&doc);
    match out {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            let parsed = TraceDocument::from_json(&text)
                .map_err(|e| format!("drained trace is not replayable: {e}"))?;
            println!(
                "drained {} events ({} dropped) to {path}",
                parsed.events.len(),
                parsed.dropped
            );
        }
        None => println!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn replay(path: &str, args: &[String]) -> Result<ExitCode, String> {
    let live_check = match args {
        [] => false,
        [flag] if flag == "--check-live" => true,
        _ => return Err(format!("unknown flags {args:?}")),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = TraceDocument::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    if live_check {
        let report = check_live(&doc).map_err(|e| format!("live differential: {e}"))?;
        println!(
            "live differential: OK ({} events, {} hits / {} misses reproduced exactly)",
            report.events, report.sim_hits, report.sim_misses
        );
    }
    let study = LabReport::build(&doc);
    print!("{}", projtile_lab::render_report(&study));
    Ok(ExitCode::SUCCESS)
}

fn generate(args: &[String]) -> Result<ExitCode, String> {
    let mut config = GeneratorConfig::default();
    let mut trace_capacity: usize = 1 << 16;
    let rest = generator_flags(args, &mut config)?;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace-capacity" => {
                let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
                trace_capacity = parse_u64(flag, value)?.max(1) as usize;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // Small budgets on purpose: the sweep is only interesting when the
    // caches actually have to evict.
    let budgets = EngineConfig {
        results_capacity: 4096,
        slices_capacity: 8192,
        surfaces_capacity: 16384,
    };
    let mut shared = Engine::with_config(budgets);
    shared.set_trace_capacity(trace_capacity);
    let workload = Workload::generate(&config);
    let stats = workload.drive_shared(&shared);
    println!(
        "generated {} batches / {} queries (pattern {}, seed {}): {} answered, {} errors",
        stats.batches,
        stats.queries,
        config.pattern.name(),
        config.seed,
        stats.answered,
        stats.errors
    );
    let doc = shared.trace_document();
    let report = check_live(&doc).map_err(|e| format!("live differential: {e}"))?;
    println!(
        "live differential: OK ({} events, {} hits / {} misses reproduced exactly)\n",
        report.events, report.sim_hits, report.sim_misses
    );
    let study = LabReport::build(&doc);
    print!("{}", projtile_lab::render_report(&study));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => match (cmd.as_str(), rest.split_first()) {
            ("drive", Some((addr, flags))) => drive(addr, flags),
            ("drain", Some((addr, flags))) => drain(addr, flags),
            ("replay", Some((path, flags))) => replay(path, flags),
            ("generate", _) => generate(rest),
            _ => return usage(),
        },
        None => return usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => fail(message),
    }
}

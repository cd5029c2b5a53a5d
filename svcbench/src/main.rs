//! Client-observed benchmark of the projtile analysis service.
//!
//! ```text
//! svcbench --workload lab_mixed|cold_solves|large_answers --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run boots an in-process `projtile_service::Server` (default
//! `ServerConfig`) and drives it closed-loop from two client threads, one
//! production `Client` each, for `S` seconds. After the window it checks
//! every distinct served answer bitwise against a cold local `Engine` and
//! reconciles the `/metrics` deltas with what was sent; any mismatch is a
//! failure and makes the run exit 1.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics,
//! each the median over the window's equal time segments ([`SEGMENTS`]).
//! With `--trace 1` the run is split into an untraced and a traced half
//! window; the per-layer metrics come from the traced half (see
//! [`layers`]), and the spans go to `svcbench/out/spans-<workload>-<seed>.jsonl`.

mod check;
mod inputs;
mod layers;
mod window;

use std::io::Write;
use std::time::Duration;

use projtile_service::Client;

use inputs::{Kind, COLD_DEPTHS};
use layers::Recorder;
use window::{Booted, ClientLog, Counters};

/// Set-ups per untraced run, `setup_s` being their median: at least
/// `SETUP_REPS.0`, and more until `SETUP_REPS.1` seconds went into
/// set-up or `SETUP_REPS.2` were made.
const SETUP_REPS: (usize, f64, usize) = (5, 1.0, 41);

/// `GET /healthz` and bare-connect probes per traced run.
const PROBES: usize = 100;

/// Share of `--seconds` the traced run spends replaying requests.
const REPLAY_SHARE: f64 = 0.1;

/// Equal time segments of the untraced window. The host's CPU speed drifts
/// by up to ~30% over tens of seconds, so each end-to-end figure is the
/// median over segments of that segment's value, not one pooled value.
const SEGMENTS: usize = 10;

const USAGE: &str = "usage: svcbench --workload lab_mixed|cold_solves|large_answers \
                     --seed N --seconds S --trace 0|1";

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = || format!("flag `{flag}`: bad value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        kind: Kind::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?,
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("svcbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("svcbench: {msg}");
            std::process::exit(1);
        }
    };
    for problem in &report.problems {
        eprintln!("svcbench: FAILED: {problem}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!(
            "{:<32} {value:>16.3} {unit}",
            format!("{}/{name}", args.workload)
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = report.problems.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

/// One measured window with its checks.
struct Measured {
    logs: Vec<ClientLog>,
    window_s: f64,
    delta: Counters,
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Transport probe durations (µs), when the run asked for them.
    healthz_us: Vec<f64>,
    connect_us: Vec<f64>,
}

/// Runs the window on a booted server, then the transport probes (when
/// `probes` is given) while it is still up, stops it, and checks the
/// answers and the accounting.
fn measure(
    booted: Booted,
    seconds: f64,
    probes: Option<&mut Recorder>,
) -> Result<Measured, String> {
    let addr = booted.server.addr().to_string();
    let client = Client::new(addr.clone());
    let before = Counters::fetch(&client)?;
    let (logs, window_s) = window::run(&addr, booted.streams, seconds);
    let after = Counters::fetch(&client)?;
    let (healthz_us, connect_us) = match probes {
        Some(rec) => layers::transport(&addr, PROBES, rec),
        None => (Vec::new(), Vec::new()),
    };
    booted.server.join();
    let delta = after.since(&before);
    let mut problems = check::accounting(&logs, &delta);
    let (checked, mismatches) = check::oracle(&logs);
    eprintln!(
        "svcbench: oracle checked {checked} distinct answers, {} mismatches",
        mismatches.len()
    );
    problems.extend(mismatches);
    let attempted: u64 = logs.iter().map(ClientLog::attempted).sum();
    let failed = logs.iter().map(|l| l.failures).sum::<u64>() + problems.len() as u64;
    let latencies_us = sorted(
        logs.iter()
            .flat_map(|l| l.samples.iter().map(|s| s.dur_ns as f64 / 1e3))
            .collect(),
    );
    Ok(Measured {
        logs,
        window_s,
        delta,
        latencies_us,
        attempted,
        failed,
        problems,
        healthz_us,
        connect_us,
    })
}

fn untraced(args: &Args) -> Result<Report, String> {
    let (booted, setups) = window::setup(args.kind, args.seed, SETUP_REPS)?;
    let m = measure(booted, args.seconds, None)?;
    eprintln!(
        "svcbench: {} samples in {:.3} s ({} failed of {} attempted)",
        m.latencies_us.len(),
        m.window_s,
        m.failed,
        m.attempted
    );
    // Segment by completion time; a reply that lands after the last
    // boundary counts in the last segment.
    let length = m.window_s / SEGMENTS as f64;
    let mut segments = vec![Vec::new(); SEGMENTS];
    for s in m.logs.iter().flat_map(|l| &l.samples) {
        let end = (s.start_ns + s.dur_ns) as f64 / 1e9;
        segments[((end / length) as usize).min(SEGMENTS - 1)].push(s.dur_ns as f64 / 1e3);
    }
    let segments: Vec<Vec<f64>> = segments.into_iter().map(sorted).collect();
    let median_over = |f: &dyn Fn(&[f64]) -> f64| {
        quantile(&sorted(segments.iter().map(|s| f(s)).collect()), 0.50)
    };
    Ok(Report {
        attempted: m.attempted,
        failed: m.failed,
        problems: m.problems,
        metrics: named(vec![
            ("latency_p50_us", median_over(&|s| quantile(s, 0.50)), "us"),
            ("latency_p90_us", median_over(&|s| quantile(s, 0.90)), "us"),
            (
                "throughput_rps",
                median_over(&|s| s.len() as f64 / length),
                "1/s",
            ),
            ("setup_s", quantile(&sorted(setups), 0.50), "s"),
        ]),
    })
}

fn traced(args: &Args) -> Result<Report, String> {
    let half = args.seconds / 2.0;
    let (booted, _) = window::setup(args.kind, args.seed, (1, 0.0, 1))?;
    let untraced = measure(booted, half, None)?;

    let (booted, _) = window::setup(args.kind, args.seed, (1, 0.0, 1))?;
    let warmup = booted.warmup.clone();
    let mut rec = Recorder::new("replay");
    let m = measure(booted, half, Some(&mut rec))?;
    let stages = layers::replay(
        &m.logs,
        &warmup,
        Duration::from_secs_f64(args.seconds * REPLAY_SHARE),
        &mut rec,
    );
    let kernel = layers::kernel(args.seed, &mut rec);

    let mut spans = layers::request_spans(&m.logs);
    spans.append(&mut rec.spans);
    write_spans(args, &spans)?;

    let p50 = |v: &[f64]| quantile(&sorted(v.to_vec()), 0.50);
    let analyze = quantile(&m.latencies_us, 0.50);
    let attributed = p50(&stages.encode)
        + p50(&stages.parse)
        + p50(&stages.engine)
        + p50(&stages.serialize)
        + p50(&stages.decode)
        + p50(&m.connect_us);
    let valid: u64 = m.logs.iter().map(|l| l.valid_sent).sum();
    let attempted = untraced.attempted + m.attempted;
    let failed = untraced.failed + m.failed;
    let mut metrics = named(vec![
        ("client.analyze_us", analyze, "us"),
        ("client.samples", m.latencies_us.len() as f64, "count"),
        (
            "client.latency_p99_us",
            quantile(&m.latencies_us, 0.99),
            "us",
        ),
        (
            "tracing.overhead_us",
            analyze - quantile(&untraced.latencies_us, 0.50),
            "us",
        ),
        (
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        ("service.healthz_rtt_us", p50(&m.healthz_us), "us"),
        ("service.connect_us", p50(&m.connect_us), "us"),
        ("client.request_encode_us", p50(&stages.encode), "us"),
        ("service.request_parse_us", p50(&stages.parse), "us"),
        (
            "service.response_serialize_us",
            p50(&stages.serialize),
            "us",
        ),
        (
            "service.response_bytes",
            mean(&stages.response_bytes),
            "bytes",
        ),
        ("client.decode_us", p50(&stages.decode), "us"),
        ("service.unattributed_us", analyze - attributed, "us"),
        ("service.shed", m.delta.shed as f64, "count"),
        (
            "service.read_timeouts",
            m.delta.read_timeouts as f64,
            "count",
        ),
        ("service.panics", m.delta.panics as f64, "count"),
        (
            "engine.hit_rate",
            m.delta.hits as f64 / valid.max(1) as f64,
            "ratio",
        ),
        ("engine.misses", m.delta.misses as f64, "count"),
        ("engine.evictions", m.delta.evictions as f64, "count"),
        ("engine.stage_us", p50(&stages.engine), "us"),
        ("engine.probe_us", p50(&stages.probe), "us"),
        ("loopnest.canon_us", p50(&stages.canon), "us"),
    ]);
    for (base, samples) in [
        ("engine.miss_batch_us", &kernel.miss_batch),
        ("lp.lower_bound_us", &kernel.lower_bound),
        ("lp.tightness_us", &kernel.tightness),
        ("lp.tiling_us", &kernel.tiling),
    ] {
        for (depth, v) in COLD_DEPTHS.iter().zip(samples) {
            metrics.push((format!("{base}.d{depth}"), p50(v), "us"));
        }
    }
    metrics.push(("lp.surface_us".to_string(), p50(&kernel.surface), "us"));
    metrics.push(("lp.slice_us".to_string(), p50(&kernel.slice), "us"));

    let mut problems = untraced.problems;
    problems.extend(m.problems);
    Ok(Report {
        attempted,
        failed,
        problems,
        metrics,
    })
}

fn write_spans(args: &Args, spans: &[layers::Span]) -> Result<(), String> {
    let dir = std::path::Path::new("svcbench").join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(&dir).map_err(io)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    for span in spans {
        writeln!(out, "{}", span.to_json()).map_err(io)?;
    }
    out.flush().map_err(io)?;
    eprintln!(
        "svcbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}

fn named(metrics: Vec<(&str, f64, &'static str)>) -> Vec<(String, f64, &'static str)> {
    metrics
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), value, unit))
        .collect()
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of sorted samples (0 when there are none).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

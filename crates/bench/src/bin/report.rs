//! Regenerates every experiment table from DESIGN.md / EXPERIMENTS.md, and
//! emits machine-readable perf snapshots.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p projtile-bench --bin report            # all experiments
//! cargo run --release -p projtile-bench --bin report -- e2 e8   # a subset
//!
//! # Perf snapshot mode: time every workload of `projtile_bench::perf` and the
//! # in-process service group, and write a BENCH_*.json document (protocol:
//! # docs/benchmarking.md).
//! cargo run --release -p projtile-bench --bin report -- --bench \
//!     --label after --out BENCH_9.json [--baseline BENCH_8.json] \
//!     [--budget-ms 500]
//! ```
//!
//! A bad argument, an unreadable or malformed baseline and an unwritable
//! `--out` each print one message and exit 2, before any snapshot is
//! written.

use std::time::Duration;

use projtile_bench::perf::{self, Measurement};
use projtile_bench::{all_experiments, service_perf};

const USAGE: &str = "usage: report [e1 .. e9]
       report --bench [--label L] [--out FILE] [--baseline FILE] [--budget-ms N]";

/// A parsed `report --bench` command line.
#[derive(Debug, PartialEq)]
struct BenchArgs {
    label: String,
    out: Option<String>,
    baseline: Option<String>,
    budget_ms: u64,
}

fn parse_bench_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs {
        label: "snapshot".to_string(),
        out: None,
        baseline: None,
        budget_ms: 500,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--bench" => {}
            "--label" => parsed.label = value()?,
            "--out" => parsed.out = Some(value()?),
            "--baseline" => parsed.baseline = Some(value()?),
            "--budget-ms" => {
                let text = value()?;
                parsed.budget_ms = text
                    .parse()
                    .map_err(|_| format!("--budget-ms expects whole milliseconds, got {text:?}"))?;
            }
            other => return Err(format!("unknown --bench option {other:?}")),
        }
    }
    Ok(parsed)
}

fn load_baseline(path: &str) -> Result<Vec<Measurement>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    perf::parse_baseline(&text).map_err(|e| format!("baseline {path} is not a snapshot: {e}"))
}

/// Runs `report --bench`; an error is the one message to print before
/// exiting 2.
fn run_bench_mode(args: &[String]) -> Result<(), String> {
    let args = parse_bench_args(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let baseline = args.baseline.as_deref().map(load_baseline).transpose()?;

    let workloads = perf::default_workloads();
    let budget = Duration::from_millis(args.budget_ms);
    eprintln!(
        "timing {} workloads ({} ms budget each)...",
        workloads.len(),
        args.budget_ms
    );
    let mut measurements = perf::measure_all(&workloads, budget, 5);
    eprintln!("timing the service group (in-process server over loopback)...");
    measurements.extend(service_perf::service_measurements(budget));
    let doc = perf::snapshot_json(&args.label, &measurements, baseline.as_deref());
    match args.out {
        Some(path) => {
            std::fs::write(&path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{doc}"),
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--bench") {
        if let Err(message) = run_bench_mode(&args) {
            eprintln!("report: {message}");
            std::process::exit(2);
        }
        return;
    }

    let args: Vec<String> = args.iter().map(|a| a.to_lowercase()).collect();
    let tables = all_experiments();

    let selected: Vec<_> = if args.is_empty() {
        tables
    } else {
        tables
            .into_iter()
            .filter(|t| args.iter().any(|a| a == &t.id.to_lowercase()))
            .collect()
    };

    if selected.is_empty() {
        eprintln!("no experiment matched; valid ids are e1..e9");
        std::process::exit(1);
    }

    println!("projtile experiment report");
    println!("reproducing: Dinh & Demmel, SPAA 2020 (arXiv:2003.00119), Sections 3-7");
    println!();
    for table in selected {
        println!("{}", table.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<BenchArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_bench_args(&args)
    }

    #[test]
    fn bench_arguments_parse_or_name_the_bad_one() {
        let line = "--bench --label l --out o --baseline b --budget-ms 25";
        let expected = BenchArgs {
            label: "l".to_string(),
            out: Some("o".to_string()),
            baseline: Some("b".to_string()),
            budget_ms: 25,
        };
        assert_eq!(parse(line), Ok(expected));
        let defaults = parse("--bench").expect("no flags parse");
        assert_eq!(defaults.budget_ms, 500);
        for flag in ["--label", "--out", "--baseline", "--budget-ms"] {
            let missing = parse(&format!("--bench {flag}"));
            assert_eq!(missing, Err(format!("{flag} needs a value")));
        }
        for bad in ["abc", "-1", "2.5"] {
            let err = parse(&format!("--bench --budget-ms {bad}")).unwrap_err();
            assert!(err.starts_with("--budget-ms expects"), "{err}");
        }
        let unknown = parse("--bench --nope").unwrap_err();
        assert_eq!(unknown, "unknown --bench option \"--nope\"");
    }

    #[test]
    fn committed_snapshots_load_and_truncated_or_missing_ones_fail() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let load = |path: &std::path::Path| load_baseline(path.to_str().expect("utf-8 path"));
        for entry in std::fs::read_dir(&root).expect("repository root lists") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                assert!(!load(&path).expect(name).is_empty(), "{name} has rows");
            }
        }

        let text = std::fs::read_to_string(root.join("BENCH_8.json")).expect("BENCH_8 reads");
        let truncated = text.trim_end().strip_suffix('}').expect("ends in `}`");
        let path = std::env::temp_dir().join(format!("report-truncated-{}", std::process::id()));
        std::fs::write(&path, truncated).expect("temp file writes");
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).expect("temp file removes");
        assert!(err.contains("is not a snapshot"), "{err}");
        let err = load(&path).unwrap_err();
        assert!(err.starts_with("cannot read baseline"), "{err}");
    }
}

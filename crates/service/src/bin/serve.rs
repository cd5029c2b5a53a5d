//! `projtile-serve` — run the hardened analysis service.
//!
//! ```text
//! projtile-serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
//!                [--read-deadline-ms N] [--queue-deadline-ms N]
//!                [--snapshot-dir DIR] [--snapshot-interval-ms N]
//!                [--snapshot-keep K] [--retry-after-secs N]
//!                [--trace-capacity N]
//! ```
//!
//! Faults are injected via the `PROJTILE_FAULTS` environment variable
//! (see `projtile_service::FaultPlan`). Query-trace recording for the
//! cache lab is enabled with `--trace-capacity N` or the
//! `PROJTILE_TRACE_CAPACITY` environment variable (the flag wins when
//! both are set); the trace is drained via `GET /trace`. The bound
//! address is printed on stdout as `listening on ADDR` once the listener
//! is live; the process exits after a graceful drain
//! (`POST /admin/drain`).

use std::path::PathBuf;
use std::time::Duration;

use projtile_service::{FaultPlan, Server, ServerConfig};

fn main() {
    let mut config = ServerConfig::default();
    if let Ok(value) = std::env::var("PROJTILE_TRACE_CAPACITY") {
        config.trace_capacity = parse("PROJTILE_TRACE_CAPACITY", &value);
    }
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            eprintln!("{}", USAGE);
            return;
        }
        let Some(value) = args.next() else {
            die(&format!("flag `{flag}` needs a value"));
        };
        match flag.as_str() {
            "--addr" => config.addr = value,
            "--workers" => config.workers = parse(&flag, &value),
            "--queue-capacity" => config.queue_capacity = parse(&flag, &value),
            "--read-deadline-ms" => {
                config.read_deadline = Duration::from_millis(parse(&flag, &value));
            }
            "--queue-deadline-ms" => {
                config.queue_deadline = Duration::from_millis(parse(&flag, &value));
            }
            "--snapshot-dir" => config.snapshot_dir = Some(PathBuf::from(value)),
            "--snapshot-interval-ms" => {
                config.snapshot_interval = Some(Duration::from_millis(parse(&flag, &value)));
            }
            "--snapshot-keep" => config.snapshot_keep = parse(&flag, &value),
            "--retry-after-secs" => config.retry_after_secs = parse(&flag, &value),
            "--trace-capacity" => config.trace_capacity = parse(&flag, &value),
            other => die(&format!("unknown flag `{other}`\n{USAGE}")),
        }
    }

    let fault = FaultPlan::from_env();
    match Server::start(config, fault) {
        Ok(handle) => {
            // `println!` + explicit flush so wrappers polling stdout see the
            // address immediately.
            println!("listening on {}", handle.addr());
            use std::io::Write;
            let _ = std::io::stdout().flush();
            handle.wait();
            println!("drained; exiting");
        }
        Err(e) => die(&format!("failed to start: {e}")),
    }
}

const USAGE: &str = "usage: projtile-serve [--addr HOST:PORT] [--workers N] \
[--queue-capacity N] [--read-deadline-ms N] [--queue-deadline-ms N] \
[--snapshot-dir DIR] [--snapshot-interval-ms N] [--snapshot-keep K] \
[--retry-after-secs N] [--trace-capacity N]";

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("flag `{flag}`: bad value `{value}`")))
}

fn die(msg: &str) -> ! {
    eprintln!("projtile-serve: {msg}");
    std::process::exit(2);
}

#!/usr/bin/env bash
# CI gate for the projtile workspace: build, test, lint, format.
#
# Usage: scripts/ci.sh [--no-bench-smoke] [--no-service-smoke]
#
# Mirrors the tier-1 verify command (`cargo build --release && cargo test -q`)
# and adds clippy (warnings are errors) and rustfmt checks over all targets,
# plus a bench smoke run (`report --bench` on a tiny budget) that executes
# every snapshot workload — including the warm-started LP sweeps (the
# subset-lattice walk, the §7 β-sweeps) and their cold differential twins —
# so solver regressions that only manifest on the warm path fail CI even
# when unit tests pass. The service
# benchmark (svcbench, outside the workspace) is built and smoke-run on every
# workload.

set -euo pipefail
cd "$(dirname "$0")/.."

bench_smoke=1
service_smoke=1
for arg in "$@"; do
    case "$arg" in
        --no-bench-smoke) bench_smoke=0 ;;
        --no-service-smoke) service_smoke=0 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q -p projtile-lint (the linter's own suite gates first)"
cargo test -q -p projtile-lint

echo "==> projtile-lint (workspace conventions; gating, see docs/lints.md)"
lint_json="${LINT_ARTIFACT:-target/lint-findings.json}"
mkdir -p "$(dirname "$lint_json")"
lint_start="$(date +%s)"
cargo run --release -q -p projtile-lint -- --json --baseline lint-baseline.txt \
    >"$lint_json" \
    || { echo "lint findings (artifact: $lint_json):" >&2; cat "$lint_json" >&2; exit 1; }
lint_secs=$(( $(date +%s) - lint_start ))
echo "    lint artifact: $lint_json (${lint_secs}s)"
if [ "$lint_secs" -gt 30 ]; then
    echo "projtile-lint took ${lint_secs}s (budget: 30s); the interprocedural \
pass must stay interactive" >&2
    exit 1
fi

echo "==> cargo test -q"
cargo test -q

# The shims are not default members, so the root `cargo test` skips their
# suites, the serde shim's every-prefix truncation fuzz among them.
echo "==> cargo test -q -p serde -p proptest -p parking_lot (shim suites)"
cargo test -q -p serde -p proptest -p parking_lot

# The subset-lattice walk runs on one thread; this pass covers what does fan
# out: engine batches (a batch splits across threads only from 16 distinct
# misses on, which proptest_shared.rs::batches_of_sixteen_or_more_misses_fan_out_exactly
# sends), the shared-front stress and the cold oracles' par_map.
echo "==> cargo test -q (PROJTILE_THREADS=4: batch fan-out, shared-front stress, cold oracles)"
PROJTILE_THREADS=4 cargo test -q

echo "==> cargo build --examples (engine-session example programs)"
cargo build --examples

echo "==> cargo test --doc (runnable documentation examples)"
cargo test -q --doc

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

if [ "$bench_smoke" = 1 ]; then
    echo "==> bench smoke (report --bench, tiny budget)"
    smoke_out="$(mktemp)"
    cargo run --release -q -p projtile-bench --bin report -- \
        --bench --budget-ms 25 --label ci-smoke --out "$smoke_out"
    # A well-formed snapshot must mention the warm-started sweep workloads.
    grep -q "subset_enumeration_cold" "$smoke_out"
    grep -q "parametric/exponent_vs_beta" "$smoke_out"
    grep -q "parametric/exponent_surface" "$smoke_out"
    grep -q "engine/cold" "$smoke_out"
    grep -q "engine/cache_hit" "$smoke_out"
    grep -q "engine/concurrent" "$smoke_out"
    grep -q "engine/evicted_rewarm" "$smoke_out"
    grep -q "engine/snapshot_restore" "$smoke_out"
    grep -q "service/roundtrip/tightness_hit" "$smoke_out"
    grep -q "service/roundtrip/tightness_hit_keepalive" "$smoke_out"
    # The fresh-connection round trip split by layer: client, the server's
    # stages, connect and delivery.
    grep -q "service/stage/client_encode" "$smoke_out"
    grep -q "service/stage/pickup" "$smoke_out"
    grep -q "service/stage/read" "$smoke_out"
    grep -q "service/stage/admit" "$smoke_out"
    grep -q "service/stage/parse" "$smoke_out"
    grep -q "service/stage/engine" "$smoke_out"
    grep -q "service/stage/serialize" "$smoke_out"
    grep -q "service/stage/write" "$smoke_out"
    grep -q "service/stage/connect" "$smoke_out"
    grep -q "service/stage/delivery" "$smoke_out"
    grep -q "service/stage/client_decode" "$smoke_out"
    grep -q "service/mixed_traffic/secs_per_request" "$smoke_out"
    grep -q "service/mixed_traffic/p99" "$smoke_out"
    rm -f "$smoke_out"
fi

if [ "$service_smoke" = 1 ]; then
    echo "==> service smoke (boot projtile-serve, verify bitwise, fault drill, drain)"
    snap_dir="$(mktemp -d)"
    serve_log="$(mktemp)"

    # Stage 1: clean server. Boot with a snapshot store AND a trace recorder
    # (PROJTILE_TRACE_CAPACITY), check health, run the bitwise oracle check
    # (`verify` compares every served answer against a cold local Engine),
    # then the cache-lab drill: drive seeded generated load over HTTP,
    # drain the recorded trace via GET /trace, and replay it through the
    # live cache type at the recorded budgets, which must reproduce the live
    # hit/miss accounting event for event (`--check-live` exits nonzero
    # otherwise). Finally
    # drain — which must publish a final snapshot generation.
    PROJTILE_TRACE_CAPACITY=65536 \
        cargo run --release -q -p projtile-service --bin projtile-serve -- \
        --addr 127.0.0.1:0 --snapshot-dir "$snap_dir" \
        --snapshot-interval-ms 200 >"$serve_log" 2>&1 &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$serve_log")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "server never reported an address" >&2; exit 1; }
    query() { cargo run --release -q -p projtile-service --bin projtile-query -- --seed 42 "$@"; }
    lab() { cargo run --release -q -p projtile-lab --bin projtile-lab -- "$@"; }
    query "$addr" health
    query "$addr" verify
    trace_file="$(mktemp)"
    lab drive "$addr" --seed 42 --pattern mixed --batches 24
    lab drain "$addr" --out "$trace_file"
    lab replay "$trace_file" --check-live
    rm -f "$trace_file"
    query "$addr" drain
    wait "$serve_pid"
    ls "$snap_dir"/snap-*.json >/dev/null \
        || { echo "drain published no snapshot generation" >&2; exit 1; }

    # Stage 2: fault drill. Restart from the same store with injected panics
    # and torn snapshots; the client's retries must still get bitwise-exact
    # answers, and the store must stay restorable (verified by stage 3).
    PROJTILE_FAULTS=panic_every=3,torn_snapshot_every=2 \
        cargo run --release -q -p projtile-service --bin projtile-serve -- \
        --addr 127.0.0.1:0 --snapshot-dir "$snap_dir" \
        --snapshot-interval-ms 100 >"$serve_log" 2>&1 &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$serve_log")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "fault server never reported an address" >&2; exit 1; }
    # panic_every=3 counts analyze requests, and `verify` is exactly one, so
    # the cadence is deterministic: 1 ok, 2 ok, 3 panics (500), 4 ok again —
    # proving the panic is isolated and the engine stays exact afterwards.
    query "$addr" verify
    query "$addr" verify
    if query "$addr" verify; then
        echo "third analyze request should have answered 500" >&2
        exit 1
    fi
    query "$addr" verify
    query "$addr" drain
    wait "$serve_pid"

    # Stage 3: recovery. A third server restores from whatever the fault run
    # left behind (torn tmp files must be skipped) and still verifies.
    cargo run --release -q -p projtile-service --bin projtile-serve -- \
        --addr 127.0.0.1:0 --snapshot-dir "$snap_dir" >"$serve_log" 2>&1 &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$serve_log")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "recovery server never reported an address" >&2; exit 1; }
    query "$addr" verify
    query "$addr" drain
    wait "$serve_pid"
    rm -rf "$snap_dir" "$serve_log"
fi

# svcbench is a package of its own outside the workspace, so an API change
# in core, service or lab can break it while everything above still passes.
# Build it and smoke-run every workload: svcbench exits nonzero on any
# oracle mismatch or /metrics reconciliation failure.
echo "==> svcbench build + smoke (every workload, 2 s each)"
cargo build --release --offline --manifest-path svcbench/Cargo.toml
for workload in lab_mixed cold_solves large_answers; do
    svcbench_out="$(mktemp)"
    cargo run --release -q --offline --manifest-path svcbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 >"$svcbench_out" \
        || { echo "svcbench $workload failed:" >&2; cat "$svcbench_out" >&2; exit 1; }
    tail -n 1 "$svcbench_out"
    rm -f "$svcbench_out"
done

echo "==> cargo clippy --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "ci.sh: all checks passed"

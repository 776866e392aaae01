#!/usr/bin/env bash
# Full verification gate, safe to run offline (the workspace has zero
# external dependencies):
#
#   1. tier-1:  cargo build --release && cargo test -q
#   2. style:   cargo fmt --all -- --check
#   3. lints:   cargo clippy --workspace --all-targets -- -D warnings
#               + RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
#               (no broken or private intra-doc links)
#   3b. paper:  `repro --quick --no-timing all` diffed against the
#               committed results/repro_quick.txt (the paper's attribute
#               and page counts, deterministic), and the frontier held to
#               a BinaryHeap reference walk in release
#               (frontier_pops_in_reference_order)
#   3c. examples: every examples/*.rs built and run in release; their
#               assert!s hold or the step fails on the non-zero exit
#   4. smoke:   disk_throughput --smoke (the parallel disk engine
#               against the single-query DiskDatabase loop, both on the
#               one shared buffer pool over a real file, answers
#               digest-checked; seconds-long)
#               + planner_crossover --smoke (every planner mode over the
#               d x n x kind grid, each answer against the naive oracle)
#   5. faults:  release-mode fault-injection stress (retry/panic paths
#               under optimised timing) + fault_overhead --smoke
#   6. pipeline: event-server pipelined cross-check in release (bit-
#               identity at workers 1/2/4, poll-vs-epoll byte
#               identity on Linux, and the inline path: cheap shapes
#               answered on the reactor bit-identically, expensive
#               shapes never inline, an inline answer never overtaking
#               an earlier handed-off slot) + the text-vs-binary wire
#               differential (one seeded script over every verb, run
#               all-text and all-binary, identical decoded responses) +
#               connection_scaling --smoke (256 concurrent connections
#               over both reactors)
#   6b. chaos:  network fault injection in release (fixed seeds):
#               retrying clients vs torn/stalled/reset I/O at 1/10/30%
#               fault rates on both reactors, plus shedding, idle
#               eviction and deadline-cancel coverage
#   6c. mvcc:   run-list crosscheck (the path every default server
#               runs: one AD walk over S runs × workers vs sequential AD
#               on one SortedColumns — answers bit-identical, heap_pops
#               equal to the one-run walk and to the attributes within
#               the answer's ε (Theorem 3.2), S·d locate probes) +
#               versioned-index oracle
#               crosscheck + mutable-serve suite in release (randomized
#               interleaved writes vs a rebuild-from-scratch oracle;
#               readers never block) + shard_scaling --smoke +
#               ingest_throughput --smoke
#   7. server:  loopback serve/client smoke once per reactor backend
#               (ephemeral port; text, binary+pipelined and retrying
#               batches over the wire; graceful shutdown), a
#               serve --mutable + ingest round trip, and release-mode
#               protocol fuzz
#   8. benchmark: the benchmark package's own unit tests (incl. its
#               manifest == BENCHMARK.json) and `benchmark -- run --seed 1
#               --smoke` — the served-query measurement system's four
#               workloads at 2 s each, every answer oracle-checked, exit
#               1 on a wrong one
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Never touch the network: every dependency is a workspace path crate.
export CARGO_NET_OFFLINE=true

echo "==> tier-1: cargo build --release"
cargo build --release --workspace

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> repro --quick --no-timing all vs results/repro_quick.txt"
./target/release/repro --quick --no-timing all | diff -u results/repro_quick.txt - \
  || { echo "repro output drifted from results/repro_quick.txt"; exit 1; }

echo "==> frontier pops in reference order (release)"
# The tournament tree's (slot, diff) pops, AdStats and sorted accesses
# against a BinaryHeap<(diff, cid)> walk: ties, +0.0 beside subnormals,
# +inf diffs, one-sided cursors, snapshots of 1/3/9 runs with tombstones.
cargo test --release -q -p knmatch-core --lib frontier_pops_in_reference_order

echo "==> examples (release, each must exit 0)"
cargo build --release --examples
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  "./target/release/examples/$name" >/dev/null \
    || { echo "example $name failed"; exit 1; }
done

echo "==> disk_throughput --smoke"
./target/release/disk_throughput --smoke --out /tmp/BENCH_disk_throughput_smoke.json >/dev/null

echo "==> planner_crossover --smoke (every planner mode vs the naive oracle)"
./target/release/planner_crossover --smoke --out /tmp/BENCH_planner_smoke.json >/dev/null

echo "==> fault injection stress (release)"
cargo test --release -q -p knmatch-storage --test fault_injection

echo "==> planner cross-check (release)"
# The randomized backend/planner-vs-oracle sweeps are an order of
# magnitude faster optimised, so run them in release like CI does.
cargo test --release -q -p knmatch-server --test planner_crosscheck

echo "==> event-server pipelined cross-check (release)"
# Pipelined ordering and the <10ms drain race are timing-sensitive;
# release mode is where they are tightest (the drain bound is ignored in
# debug, so this is the step that enforces it).
cargo test --release -q -p knmatch-server --test event_server

echo "==> text-vs-binary wire differential (release)"
# One seeded script over every verb, run all-text and all-binary on fresh
# servers (mutable and planned engines, every readiness backend), must
# decode to the same responses.
cargo test --release -q -p knmatch-server --test wire_differential

echo "==> chaos harness (release, fixed seeds, both reactors)"
# Retrying clients against fault-injected servers (torn frames, short
# writes, stalls, injected resets at 1/10/30%) must stay bit-identical
# to direct engine runs; the server must drain with zero leaked pooled
# buffers. Shedding, idle eviction and deadline cancellation ride along.
cargo test --release -q -p knmatch-server --test chaos

echo "==> run-list crosscheck (release)"
# The engine every default server runs: at S runs x W workers, answers
# bit-identical to sequential AD on one SortedColumns and the walk's
# AdStats held to the one-run walk's (equal heap_pops, S*d locate
# probes; S = 1 identical).
cargo test --release -q -p knmatch-core --test sharded_crosscheck

echo "==> versioned-index oracle crosscheck (release)"
# Randomized interleaved insert/delete/seal/maintain against a
# rebuild-from-scratch oracle; release mode covers far more steps.
cargo test --release -q -p knmatch-core --test versioned_crosscheck

echo "==> mutable serve suite (release, both reactors, both encodings)"
cargo test --release -q -p knmatch-server --test mutable_serve

echo "==> connection_scaling --smoke (256 connections)"
./target/release/connection_scaling --smoke --out /tmp/BENCH_connections_smoke.json >/dev/null

echo "==> fault_overhead --smoke"
./target/release/fault_overhead --smoke --out /tmp/BENCH_fault_overhead_smoke.json >/dev/null

echo "==> shard_scaling --smoke (S = 1, 2, 4 runs vs the one-run engine)"
./target/release/shard_scaling --smoke --out /tmp/BENCH_shard_scaling_smoke.json >/dev/null

echo "==> ingest_throughput --smoke"
./target/release/ingest_throughput --smoke --out /tmp/BENCH_ingest_smoke.json >/dev/null

SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
KNM=./target/release/knmatch
"$KNM" generate --kind uniform --out "$SMOKE_DIR/data.csv" \
  --cardinality 500 --dims 4 --seed 7 >/dev/null
"$KNM" generate --kind uniform --out "$SMOKE_DIR/queries.csv" \
  --cardinality 4 --dims 4 --seed 8 >/dev/null
"$KNM" build "$SMOKE_DIR/data.csv" "$SMOKE_DIR/data.knm" >/dev/null

# serve_bg <log> <serve args…>: starts `knmatch serve` on an ephemeral
# port in the background and sets SERVE_PID and ADDR once it listens.
serve_bg() {
  local log=$1
  shift
  "$KNM" serve "$@" --addr 127.0.0.1:0 --workers 2 >"$log" 2>&1 &
  SERVE_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$log")
    [ -n "$ADDR" ] && return 0
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$log"; echo "server died during startup"; exit 1; }
    sleep 0.1
  done
  cat "$log"; echo "server never reported its address"; exit 1
}

# drain <log>: SHUTDOWN over the wire, wait for the process, and require
# the post-drain summary line.
drain() {
  "$KNM" client "$ADDR" --shutdown >/dev/null
  wait "$SERVE_PID"
  SERVE_PID=""
  grep -q "shutdown complete" "$1" \
    || { cat "$1"; echo "server did not drain cleanly"; exit 1; }
}

# Both readiness backends where the host offers them: poll everywhere,
# edge-triggered epoll on Linux (elsewhere `--reactor epoll` refuses).
REACTORS="poll"
[ "$(uname)" = Linux ] && REACTORS="poll epoll"
for REACTOR in $REACTORS; do
  echo "==> server smoke (serve --reactor $REACTOR + text, binary pipelined and retrying clients)"
  serve_bg "$SMOKE_DIR/serve.log" "$SMOKE_DIR/data.knm" --executors 2 --reactor "$REACTOR"
  grep -q "reactor $REACTOR" "$SMOKE_DIR/serve.log" \
    || { cat "$SMOKE_DIR/serve.log"; echo "server did not report reactor $REACTOR"; exit 1; }
  "$KNM" client "$ADDR" --ping >/dev/null
  "$KNM" client "$ADDR" --queries "$SMOKE_DIR/queries.csv" -k 3 -n 2 --stats \
    | grep -q "4 ok / 0 failed" \
    || { echo "text batch did not return 4 ok / 0 failed"; exit 1; }
  "$KNM" client "$ADDR" --queries "$SMOKE_DIR/queries.csv" -k 3 -n 2 \
    --binary --pipeline 4 --stats \
    | grep -q "4 ok / 0 failed" \
    || { echo "pipelined binary batch did not return 4 ok / 0 failed"; exit 1; }
  # The resilient client path: bounded retries with backoff and a
  # per-response timeout (no faults here, so it succeeds first try).
  "$KNM" client "$ADDR" --queries "$SMOKE_DIR/queries.csv" -k 3 -n 2 \
    --retries 3 --backoff-ms 5 --timeout-ms 2000 \
    | grep -q "4 ok / 0 failed" \
    || { echo "retrying client batch did not return 4 ok / 0 failed"; exit 1; }
  drain "$SMOKE_DIR/serve.log"
done

echo "==> mutable serve + ingest smoke (serve --mutable over loopback)"
"$KNM" generate --kind uniform --out "$SMOKE_DIR/extra.csv" \
  --cardinality 20 --dims 4 --seed 9 >/dev/null
serve_bg "$SMOKE_DIR/mutable.log" "$SMOKE_DIR/data.csv" --mutable --merge-threshold 64
grep -q "mutable versioned" "$SMOKE_DIR/mutable.log" \
  || { cat "$SMOKE_DIR/mutable.log"; echo "mutable server did not describe its engine"; exit 1; }
"$KNM" ingest "$ADDR" --points "$SMOKE_DIR/extra.csv" --start-key 10000 --seal --stats \
  | grep -q "20 inserted / 0 failed" \
  || { echo "ingest did not report 20 inserted / 0 failed"; exit 1; }
"$KNM" client "$ADDR" --queries "$SMOKE_DIR/queries.csv" -k 3 -n 2 --stats \
  | grep -q "version: epoch" \
  || { echo "client --stats did not print the version counter group"; exit 1; }
drain "$SMOKE_DIR/mutable.log"

echo "==> protocol fuzz under both reactors (release)"
cargo test --release -q -p knmatch-server --test protocol_fuzz

echo "==> benchmark unit tests (manifest == BENCHMARK.json, stats, workloads)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark --smoke (four served workloads, every answer oracle-checked)"
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
  run --seed 1 --smoke --out "$SMOKE_DIR/bench.json" >/dev/null

echo "verify: OK"

#!/usr/bin/env bash
# The repo gate: build, tests, formatting, clippy deny-list, and the
# impliance-analysis invariant checker (fails on violations not covered by
# lint_baseline.json). Mirrors .github/workflows/ci.yml for local use.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

# The observability layer underpins every instrumented subsystem; run its
# suite explicitly (unit + integration, incl. the lock-order smoke test)
# so a failure is attributed before the big workspace matrix.
echo "==> impliance-obs test suite"
cargo test -q -p impliance-obs

echo "==> cargo fmt --check"
cargo fmt --check

# Deny-list, not blanket -D warnings: these are the lints whose firing is
# always a bug in this codebase; everything else stays advisory.
echo "==> cargo clippy (deny-list)"
cargo clippy --workspace --all-targets -q -- \
  -D clippy::dbg_macro \
  -D clippy::todo \
  -D clippy::unimplemented \
  -D clippy::await_holding_lock

# --verify-baseline doubles as the drift gate: it fails if a fresh scan
# disagrees with the committed lint_baseline.json in either direction
# (i.e. if --update-baseline would change the file). The golden JSON
# report is drift-gated byte-for-byte by the fixture_scan test above.
# Interprocedural analysis (L9-L12) must also stay cheap: budget the
# whole-workspace run at 10s wall clock so the gate never becomes the
# slow part of CI.
echo "==> impliance-analysis check (the twelve invariants, ratcheted + drift gate)"
analysis_start=$(date +%s)
cargo run -q -p impliance-analysis -- check --verify-baseline
analysis_elapsed=$(( $(date +%s) - analysis_start ))
if [ "$analysis_elapsed" -gt 10 ]; then
  echo "FAIL: impliance-analysis took ${analysis_elapsed}s (budget: 10s)" >&2
  exit 1
fi

# The chaos suite: seeded fault schedules (node kills, message drops,
# deadlines) against the resilient distributed executor. Runs in release
# so the proptest equivalence battery uses its full case count.
echo "==> chaos suite (fault-injected distributed execution)"
cargo test -q --release --test chaos_integration

# Smoke the executor bench: emits BENCH_exec.json + BENCH_chaos.json +
# BENCH_parallel.json + BENCH_columnar.json and fails unless (a) the
# batched scan→filter→limit pipeline moves strictly fewer network bytes
# than the pre-refactor monolithic distributed scan, (b) every seeded
# chaos trial (1 node killed at 0/5/20% drop) recovers the exact
# fault-free row set, (c) morsel-driven parallel execution returns rows
# identical to serial — with a ≥1.5x speedup at 4 workers when the host
# actually has ≥4 cores, or bounded overhead on smaller hosts — and
# (d) columnar execution returns rows identical to the row pipeline on
# every host, with >2x single-thread scan throughput and a >0.5
# segment-skip ratio on selective scans when the host has ≥4 cores
# (host_cores is recorded in the JSON so the gate is honest about the
# hardware it ran on).
echo "==> exec_bench smoke (BENCH_exec.json, BENCH_chaos.json, BENCH_parallel.json, BENCH_columnar.json)"
cargo run -q --release -p impliance-bench --bin exec_bench >/dev/null
for f in BENCH_exec.json BENCH_chaos.json BENCH_parallel.json BENCH_columnar.json; do
  if [ ! -s "$f" ]; then
    echo "FAIL: exec_bench did not emit $f" >&2
    exit 1
  fi
done

# Smoke the concurrent-ingest bench: emits BENCH_ingest.json and fails
# unless (a) readers at pinned snapshots never observe a torn annotation
# set while the background annotator is killed and restarted mid-drain,
# and the quiesced annotation sets equal the fault-free reference at
# every fault setting, (b) lazy version GC reclaims sustained overwrite
# exactly down to the live set — while a pinned snapshot provably holds
# the low-watermark back — and (c) concurrent readers stay both
# consistent and un-starved (the rate gate applies only on >=4-core
# hosts; host_cores is recorded in the JSON).
echo "==> ingest_bench smoke (BENCH_ingest.json)"
cargo run -q --release -p impliance-bench --bin ingest_bench >/dev/null
if [ ! -s BENCH_ingest.json ]; then
  echo "FAIL: ingest_bench did not emit BENCH_ingest.json" >&2
  exit 1
fi

# Smoke the multi-tenant workload bench: emits BENCH_workload.json and
# fails unless (a) at 1x offered load 100% of high-priority queries
# complete within their deadline, (b) at 2x offered load high-priority
# p99 latency stays within 2x of its 1x value while low-priority work is
# visibly shed/degraded (counted — offered equals completed + degraded +
# shed in every class, no silent drops), (c) no completion in any class
# runs past its deadline (the deadline path truncates to an honest
# partial instead), and (d) a real appliance under a starved tenant
# quota returns typed Overloaded rejections with retry-after hints while
# admitted queries stay exact. The traffic sections run in seeded
# virtual time, so the numbers are host-independent; host_cores is
# recorded in the JSON for honesty.
echo "==> workload_bench smoke (BENCH_workload.json)"
cargo run -q --release -p impliance-bench --bin workload_bench >/dev/null
if [ ! -s BENCH_workload.json ]; then
  echo "FAIL: workload_bench did not emit BENCH_workload.json" >&2
  exit 1
fi

# Smoke the hybrid-retrieval bench: emits BENCH_search.json and fails
# unless (a) every scored top-k result through the redesigned query API
# equals the brute-force full-scoring reference (ids and scores, tie
# order included), (b) at least half the measured queries terminate
# early (the bounded-heap / upper-bound machinery demonstrably does less
# work than scoring every match), (c) the index_epoch freshness
# watermark visibly lags the storage epoch after ingest and catches up
# (zero lag, zero backlog) after the incremental maintainer drains the
# change feed, and (d) rows arrive ordered (score desc, ties id asc).
echo "==> search_bench smoke (BENCH_search.json)"
cargo run -q --release -p impliance-bench --bin search_bench >/dev/null
if [ ! -s BENCH_search.json ]; then
  echo "FAIL: search_bench did not emit BENCH_search.json" >&2
  exit 1
fi

# impbench — the benchmark BENCHMARK.json declares — is a package of its
# own outside the workspace, so nothing above compiles it. Build and test
# it against the crates as they stand, then run a 1/50-scale pass of all
# four workloads with answers checked (non-zero exit on a wrong one), so
# a refactor cannot break the benchmark silently.
echo "==> impbench tests + smoke (all four workloads, answers checked)"
cargo test -q --offline --manifest-path impbench/Cargo.toml
cargo run --release --quiet --offline --manifest-path impbench/Cargo.toml -- \
  --workload all --seed 42 --smoke --out target/impbench-smoke >/dev/null

# Every PR must append its one-line summary to CHANGES.md: the file must
# have gained a line relative to the previous commit, or carry uncommitted
# additions for the PR in progress. (Skipped on a root commit.)
echo "==> CHANGES.md gained a line"
if git rev-parse --verify -q HEAD~1 >/dev/null; then
  if ! git diff --name-only HEAD~1..HEAD -- CHANGES.md | grep -q CHANGES.md \
    && ! git status --porcelain -- CHANGES.md | grep -q CHANGES.md; then
    echo "FAIL: CHANGES.md did not gain a line for this change" >&2
    exit 1
  fi
fi

echo "CI gate passed"

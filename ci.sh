#!/usr/bin/env bash
# The repo gate: build, tests, formatting, clippy deny-list, and the
# impliance-analysis invariant checker (fails on any finding). Mirrors
# .github/workflows/ci.yml for local use.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

# Deny-list, not blanket -D warnings: each denied lint is configured in
# one place — the root Cargo.toml's [workspace.lints.clippy] table, a
# lib.rs attribute, or a clippy.toml (DESIGN.md "Static analysis &
# invariants"). Everything else stays advisory.
echo "==> cargo clippy (deny-list)"
cargo clippy --workspace --all-targets -q

# The call-graph invariants clippy cannot check (L7, L9-L11) and the
# docs<->metrics drift check (L12): any finding fails. The golden JSON
# report is drift-gated byte-for-byte by the fixture_scan test above.
# Budget the whole-workspace run at 10s wall clock so the gate never
# becomes the slow part of CI.
echo "==> impliance-analysis check (call-graph invariants + metrics drift)"
analysis_start=$(date +%s)
cargo run -q -p impliance-analysis -- check
analysis_elapsed=$(( $(date +%s) - analysis_start ))
if [ "$analysis_elapsed" -gt 10 ]; then
  echo "FAIL: impliance-analysis took ${analysis_elapsed}s (budget: 10s)" >&2
  exit 1
fi

# The chaos suite (seeded node kills, message drops and deadlines against
# the resilient distributed executor) and the storage cursor's two guards
# (snapshot/as-of scans against a model, every executor mode against the
# serial reference). Release, so each proptest battery runs its full case
# count; debug builds cut them.
echo "==> chaos suite + snapshot/parallel equivalence (release, full cases)"
cargo test -q --release --test chaos_integration --test snapshot_equivalence \
  --test parallel_equivalence

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

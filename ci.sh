#!/usr/bin/env bash
# The repo gate: build, tests, formatting, the clippy deny-list, the
# release-only batteries and the benchmark's smoke pass. Mirrors
# .github/workflows/ci.yml for local use.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

# The experiments that assert their answers: C1 (the cost-based
# optimizer, which nothing else calls, against the simple planner; both
# must return the same rows), C3 (asynchronous indexing against a
# maintain after every ingest; only the latter leaves no backlog, and
# both return the same top-10 keyword ids), C5 (a data node killed under
# replication 1, 2 and 3; nothing lost with a second copy, and the scan
# after the kill sees every surviving document) and C9 (discovery beside
# high-priority queries through the appliance's doors; every query
# answered and the discovery backlog drained).
echo "==> figures c1 + c3 + c5 + c9 (answers checked)"
cargo run --release -q -p impliance-bench --bin figures -- c1 c3 c5 c9 >/dev/null

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

# Deny-list, not blanket -D warnings: each denied lint is configured in
# one place — the root Cargo.toml's [workspace.lints.clippy] table, a
# lib.rs attribute, or a clippy.toml (DESIGN.md "Invariants and where
# each is checked"). Everything else stays advisory.
echo "==> cargo clippy (deny-list)"
cargo clippy --workspace --all-targets -q

# The chaos suite (seeded node kills, message drops and deadlines against
# the resilient distributed executor), the storage cursor's two guards
# (snapshot/as-of scans against a model, every executor mode against the
# serial reference) and the hot-loop allocation pins, on the build the
# benchmark runs. Release, so each proptest battery runs its full case
# count; debug builds cut them.
echo "==> chaos suite + snapshot/parallel equivalence + allocation pins (release)"
cargo test -q --release --test chaos_integration --test snapshot_equivalence \
  --test parallel_equivalence --test allocations

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

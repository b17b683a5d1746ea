#!/usr/bin/env bash
# Reproduces the full CI pipeline locally, in the same order the workflow
# runs it: lint -> build -> tests -> docs -> offline/vendored invariant ->
# experiment smoke (with JSON artifacts under target/experiment-artifacts/).
#
# Usage: scripts/ci-local.sh [--quick]
#   --quick   lint + tests only: skip every release build, rustdoc and the
#             experiment smoke pass
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --all --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo test -q (tier-1)"
cargo test -q

if [[ "$QUICK" == "1" ]]; then
  step "ci-local --quick: lint + tests green"
  exit 0
fi

step "backend suites (differential property + emulator goldens + report determinism)"
cargo test -q -p mlexray-nn --test backend_differential --test golden_kernels
cargo test -q -p mlexray-core --test differential_replay

step "kernel-simd suites (native dispatch, then MLEXRAY_SIMD=scalar forced fallback)"
cargo test -q -p mlexray-nn --test golden_kernels --test batch_equivalence --test backend_differential --test alloc_steady_state
cargo test -q -p mlexray-core --test parallel_invoke
MLEXRAY_SIMD=scalar cargo test -q -p mlexray-nn --test golden_kernels --test batch_equivalence --test backend_differential --test alloc_steady_state
MLEXRAY_SIMD=scalar cargo test -q -p mlexray-core --test parallel_invoke

step "serve suite (loaded serving integration + sink backpressure stress + fig_serving smoke)"
cargo test -q -p mlexray-serve
cargo test -q -p mlexray-core --test sink_stress
MLEXRAY_QUICK=1 cargo test -q -p mlexray-bench --test experiments_smoke fig_serving

step "metrics suite (histogram properties + wire Metrics acceptance + fig_metrics smoke)"
cargo test -q -p mlexray-serve --test metrics_suite
MLEXRAY_QUICK=1 cargo test -q -p mlexray-bench --test experiments_smoke fig_metrics

step "cargo build --release"
cargo build --release

step "rpc suite (release: protocol robustness + 32-session loaded proof + fig_rpc smoke + loadgen + metrics scrape)"
cargo test --release -q -p mlexray-serve --test rpc_protocol --test rpc_loaded
MLEXRAY_QUICK=1 cargo test --release -q -p mlexray-bench --test experiments_smoke fig_rpc
MLEXRAY_QUICK=1 cargo run --release -q -p mlexray-bench --bin rpc_loadgen
MLEXRAY_QUICK=1 cargo run --release -q -p mlexray-bench --bin rpc_loadgen -- --metrics

step "trace suite (release: span pipeline units + trace_suite integration + fig_trace bars + loadgen wire-trace smoke)"
cargo test --release -q -p mlexray-core --lib trace
cargo test --release -q -p mlexray-serve --test trace_suite
MLEXRAY_QUICK=1 MLEXRAY_ENFORCE_SCALING=1 cargo test --release -q -p mlexray-bench --test experiments_smoke fig_trace
MLEXRAY_QUICK=1 cargo run --release -q -p mlexray-bench --bin rpc_loadgen -- --trace

step "exray-lint over the zoo and goldens (fails on any Deny finding)"
cargo run --release -q -p mlexray-models --bin exray-lint -- --zoo --goldens

step "cargo build --examples"
cargo build --examples

step "exray_bench builds, passes its own tests and its four workloads' oracle against these crates (release, offline)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
for w in wire_plain wire_monitored serve_batch replay_validate; do
  # The output oracle and the books of each workload, not its timings.
  line="$(bash benchmark/run.sh --workload "$w" --seed 7 --seconds 2 --trace 1 | tail -n 1)"
  echo "$w: ${line:0:160}"
  [[ "$line" == *'"correct":true'* && "$line" =~ \"failed\":0[,}] ]]
done

step "RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "cargo build --release --locked --offline (vendored-deps invariant)"
cargo build --release --locked --offline

step "MLEXRAY_QUICK=1 experiment smoke tests"
MLEXRAY_QUICK=1 cargo test -p mlexray-bench --test experiments_smoke -q

step "ci-local: all green (artifacts in target/experiment-artifacts/)"

#!/usr/bin/env bash
# The one list of CI commands. `.github/workflows/ci.yml` runs each leg as
# `scripts/ci-local.sh <leg>`; run it the same way to reproduce one leg, or:
#
# Usage: scripts/ci-local.sh [<leg> | --quick]
#   <leg>     one of the functions below (their names are the workflow's)
#   --quick   lint + clippy + tier-1 (`cargo test -q`): no release build,
#             rustdoc or experiment smoke pass
#   (none)    every leg, in the order listed at the bottom; between them the
#             legs run every test tier-1 runs, so tier-1 is not run again
#
# Experiment JSON (smoke) and trace_report's Chrome-trace export
# (trace-suite) land under target/experiment-artifacts/.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

lint() {
  cargo fmt --all --check
}

clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

# The release build is for the examples; test steps compile in debug.
unit() {
  cargo build --release
  cargo test --workspace --lib --bins -q
  cargo test --workspace --doc -q
  cargo build --examples
}

# --test '*' selects only integration test targets (plain --tests would rerun
# every unit test). The excluded crates' integration tests run in legs of
# their own: mlexray-bench in smoke, mlexray-nn in kernel-suites,
# backend-suites and kernel-simd, mlexray-serve in serve-suite.
integration() {
  cargo test --workspace --exclude mlexray-bench --exclude mlexray-nn \
    --exclude mlexray-serve --test '*' -q
}

# batch_equivalence pins invoke_batch == N sequential invokes bitwise in every
# flavor/bug combination, quantized_paths the quantization edge cases,
# transforms the conversion passes, lint_suite the static analyzer from both
# sides (clean graphs lint clean, every injected mutation is caught).
kernel-suites() {
  cargo test -p mlexray-nn --test batch_equivalence \
    --test quantized_paths --test transforms --test lint_suite -q
}

# The multi-spec acceptance surface: injected-defect localization on random
# graphs, every kernel dispatch arm (and EdgeNumerics knob) as bit patterns,
# a DifferentialReport byte-identical across worker counts and micro-batch
# settings, the rendered validation and differential reports of
# mini_mobilenet_v2 against the golden text recorded before the drift fold,
# the fold bitwise against the log-scanning loops it replaced, and the
# reference flavor (packed-panel Conv2d, shared depthwise) bitwise against the
# faithful emulator's per-cell gather loops on every zoo family.
backend-suites() {
  cargo test -p mlexray-nn --test backend_differential --test golden_kernels -q
  cargo test -p mlexray-core --test differential_replay --test golden_reports \
    --test drift_fold_oracle --test reference_oracle -q
}

# Run twice: under native runtime dispatch (AVX2+FMA where the host has it)
# and with MLEXRAY_SIMD=scalar forcing the scalar mirror engine and the
# baseline builds of the native float kernels. The SIMD goldens are recorded
# bitwise from the SIMD flavor, so the forced-scalar pass proves identical bits
# on any host, not just that a fallback exists; native_engines pins the AVX2
# build of every native float kernel against its baseline build in one process
# (explicit engines), and both against the interpreter's engine.
# alloc_steady_state holds — with a counting global allocator — a warmed
# invoke to a depth-independent allocation count and the one arena to the
# footprint of its largest batch; alloc_validation holds a differential run's
# peak to be independent of its frame count and a sharded replay-validate's to
# about one shard's logs. golden_reports must read the same text either way,
# and reference_oracle must hold either way: both builds of the reference
# kernels compute the faithful emulator's bits. The kernels::gemm unit tests
# hold the one tile driver, under both chain rules and both explicit engines,
# to a one-row, one-channel run of it per cell, and read the detected engine,
# which the forced-scalar pass reports as the mirror.
kernel-simd() {
  local nn=(-p mlexray-nn --test golden_kernels --test batch_equivalence
    --test backend_differential --test alloc_steady_state --test alloc_validation
    --test native_engines -q)
  local gemm=(-p mlexray-nn --lib kernels::gemm -q)
  local core=(-p mlexray-core --test golden_reports --test reference_oracle -q)
  cargo test "${nn[@]}"
  cargo test "${gemm[@]}"
  cargo test "${core[@]}"
  MLEXRAY_SIMD=scalar cargo test "${nn[@]}"
  MLEXRAY_SIMD=scalar cargo test "${gemm[@]}"
  MLEXRAY_SIMD=scalar cargo test "${core[@]}"
}

# Everything in mlexray-serve: its unit tests (the door reaps finished
# connection threads, the shed-code table) and the loaded, batcher,
# monitoring, metrics, rpc and trace suites (trace_suite holds the
# every-way-a-request-can-end table); sink_stress hammers the backpressure
# accounting the serving monitor leans on. The sink's unit tests and
# sink_stress run in release as well: the buffer's condvar protocol is
# timing-sensitive, and debug and release interleave differently.
serve-suite() {
  cargo test -p mlexray-serve -q
  cargo test -p mlexray-core --test sink_stress -q
  cargo test --release -p mlexray-core --lib sink -q
  cargo test --release -p mlexray-core --test sink_stress -q
}

# metrics_suite holds the histogram properties and the wire Metrics
# acceptance: a session scrapes while load runs (every exposition must
# parse) and the final scrape matches the drained books counter for counter.
metrics-suite() {
  cargo test -p mlexray-serve --test metrics_suite -q
}

# The artifact directory is cleared first (here and in trace-suite) so an
# upload only ever contains files this run's code produced.
smoke() {
  rm -rf target/experiment-artifacts
  MLEXRAY_QUICK=1 cargo test -p mlexray-bench --test experiments_smoke -q
}

# The RPC front door in release mode, every server on 127.0.0.1:0: protocol
# robustness and the 32-session loaded proof (wire bits and the byte saving
# of sealed re-infers; it ranks no latencies).
rpc-suite() {
  cargo build --release -p mlexray-serve
  cargo test --release -p mlexray-serve --test rpc_protocol --test rpc_loaded -q
}

# The span pipeline in release mode: the ring and collector unit tests
# (span-flood drop accounting, fixed footprint), trace_suite (profiler
# reconciliation, slow-batch attribution, wire trace context end to end,
# forced shed spans) and one trace_report run, whose balanced-books assert
# must hold and whose Chrome-trace export is the leg's artifact. The tracing
# tax is judged by benchmark/ (wire_monitored vs wire_plain), not here.
trace-suite() {
  cargo build --release -p mlexray-serve -p mlexray-bench
  cargo test --release -p mlexray-core --lib trace -q
  cargo test --release -p mlexray-serve --test trace_suite -q
  rm -rf target/experiment-artifacts
  MLEXRAY_QUICK=1 cargo run --release -q -p mlexray-bench --bin trace_report
}

# exray-lint sweeps every zoo family and golden graph, failing on any Deny
# finding; lint_zoo additionally holds the sweep to zero Warn findings.
lint-suite() {
  cargo run --release -q -p mlexray-models --bin exray-lint -- --zoo --goldens
  cargo test -p mlexray-models --test lint_zoo -q
}

# exray_bench is a package of its own that tier-1 never compiles, yet it
# reaches every crate through its `pub` items. Then each workload's bitwise
# output oracle and balanced books — not its timings, which would flake on a
# shared runner.
benchmark-build() {
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  cargo test --release --offline --manifest-path benchmark/Cargo.toml
  local w line
  for w in wire_plain wire_monitored serve_batch replay_validate; do
    line="$(bash benchmark/run.sh --workload "$w" --seed 7 --seconds 2 --trace 1 | tail -n 1)"
    echo "$w: ${line:0:160}"
    [[ "$line" == *'"correct":true'* && "$line" =~ \"failed\":0[,}] ]]
  done
}

docs() {
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

# The vendored-deps invariant: the workspace builds with no network route to
# crates.io, with the committed lockfile.
offline-build() {
  cargo build --release --locked --offline
}

# What --quick runs after lint and clippy; not a workflow leg.
tier-1() {
  cargo test -q
}

legs=(lint clippy unit integration kernel-suites backend-suites kernel-simd
  serve-suite metrics-suite rpc-suite trace-suite lint-suite benchmark-build
  docs offline-build smoke)

case "${1:-}" in
"") run=("${legs[@]}") ;;
--quick) run=(lint clippy tier-1) ;;
*)
  [[ " ${legs[*]} " == *" $1 "* ]] || {
    echo "unknown leg '$1' (one of: ${legs[*]})" >&2
    exit 2
  }
  run=("$1")
  ;;
esac
for leg in "${run[@]}"; do
  step "$leg"
  "$leg"
done
step "ci-local: green (${run[*]})"

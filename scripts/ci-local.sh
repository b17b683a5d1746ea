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

# `native_kernel!` (crates/nn/src/kernels/mod.rs) is the one way a kernel
# reaches AVX2 or AVX-512: a `#[target_feature]` anywhere else in crates/ is
# a second, hand-dispatched kernel, and fails the leg. The Simd GEMM's zmm
# tile is the one AVX-512 code, so an `_mm512_` intrinsic outside
# crates/nn/src/kernels/gemm.rs fails it too, as does an
# `is_x86_feature_detected!` there: gemm.rs probes the CPU once for every
# engine. Two queues block on a `Condvar`
# (serve's request queue, where requests wait for work, and the
# `ChannelSink`, where producers wait for the writer); a `Condvar` anywhere
# else in crates/*/src is a third hand-rolled blocking queue, and fails the
# leg too. An op's output geometry has one home, `OpKind::infer_output` in
# crates/nn/src/ops.rs, which the builder, the quantizer and the lint's
# shape pass all call; a `conv_out_size(` call in crates/nn/src outside
# ops.rs and kernels/ (the kernels' own window walks) is a second copy of
# that rule, and fails the leg. Every
# convolution reads its windows in place — the float ones through tap
# offsets into a zero-bordered copy of the input, the int8 one as runs of a
# copy bordered with the input zero point — so the kernels read a window
# one way on every engine; an `im2col(` call or an
# `Im2col` name in crates/nn/src outside the test modules (each file is read
# only up to its first column-0 `#[cfg(test)]`, where gemm.rs keeps the
# per-tap im2col oracle the windowed kernels are held to) is a second way
# back, and fails the leg. An interpreter hands a dead activation's buffer
# on to the next activation of its size; the preserving constructor
# (`Interpreter::preserving`) keeps every tensor in a buffer of its own, for
# the code that reads intermediates after an invoke: calibration
# (crates/nn/src/quantize.rs), backpropagation (crates/trainer/src),
# bisection's reference prefix (crates/core/src/validate/differential.rs) and
# appendix A's embedding (crates/bench/src/experiments/appendix_a.rs). A call
# of it anywhere else in crates/*/src (beside its own definition in
# interpreter.rs) is a serving or replay path sliding back to the unshared
# layout, and fails the leg. An interpreter plans its buffers once, for one
# frame, and fits them to each invoke's frames; a `MemoryPlan::for_graph(`
# or `for_kernels(` call in crates/*/src outside the planner
# (crates/nn/src/plan.rs), the interpreter (interpreter.rs) and the lint's
# plan check (analysis/plan_check.rs) — each file read, as for im2col, only
# up to its first column-0 `#[cfg(test)]` — is a second memory model (a plan
# per batch size, a whole graph planned to run one node), and fails the leg.
# The plan knows runtime tensors only: what a kernel keeps besides its
# output lives in the kernels' one `Scratch` (crates/nn/src/kernels/mod.rs),
# each buffer grown by the kernel that needs it through one fallible rule,
# `room`, so a buffer the allocator refuses is a typed refusal, never an
# abort. A `reserve(`, `reserve_exact(` or `with_capacity(` in
# crates/nn/src/kernels outside that rule (library part only, as for
# im2col) is a second growth policy, and fails the leg. The leg also runs
# scripts/rust-lines.sh, which
# writes the `rust_lines` object of every BENCH_PR*.json, and fails if it
# stops printing one.
lint() {
  cargo fmt --all --check
  local stray
  stray="$(grep -rnE '^\s*#\[target_feature' --include='*.rs' crates |
    grep -v '^crates/nn/src/kernels/mod.rs:' || true)"
  if [[ -n "$stray" ]]; then
    printf '#[target_feature] outside native_kernel!:\n%s\n' "$stray" >&2
    return 1
  fi
  stray="$(grep -rnE '_mm512_|is_x86_feature_detected' --include='*.rs' crates |
    grep -v '^crates/nn/src/kernels/gemm.rs:' || true)"
  if [[ -n "$stray" ]]; then
    printf 'AVX-512 intrinsic or CPU probe outside kernels/gemm.rs:\n%s\n' "$stray" >&2
    return 1
  fi
  stray="$(grep -rnw 'Condvar' --include='*.rs' crates/*/src |
    grep -vE '^crates/(serve/src/queue|core/src/sink)\.rs:' || true)"
  if [[ -n "$stray" ]]; then
    printf 'Condvar outside the serve queue and the ChannelSink:\n%s\n' "$stray" >&2
    return 1
  fi
  stray="$(grep -rnF 'conv_out_size(' --include='*.rs' crates/nn/src |
    grep -vE '^crates/nn/src/(ops\.rs|kernels/)' || true)"
  if [[ -n "$stray" ]]; then
    printf 'conv_out_size outside the op rule and the kernels:\n%s\n' "$stray" >&2
    return 1
  fi
  stray="$(find crates/nn/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    /im2col\(|Im2col/ { print FILENAME ":" FNR ": " $0 }')"
  if [[ -n "$stray" ]]; then
    printf 'an im2col outside the test modules of crates/nn/src:\n%s\n' "$stray" >&2
    return 1
  fi
  stray="$(grep -rnE 'Interpreter::preserving\(' --include='*.rs' crates/*/src |
    grep -vE '^crates/(nn/src/(quantize|interpreter)\.rs|trainer/src/|core/src/validate/differential\.rs|bench/src/experiments/appendix_a\.rs)' || true)"
  if [[ -n "$stray" ]]; then
    printf 'a preserving interpreter outside the readers of intermediates:\n%s\n' "$stray" >&2
    return 1
  fi
  stray="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    /MemoryPlan::for_graph\(|for_kernels\(/ { print FILENAME ":" FNR ": " $0 }' |
    grep -vE '^crates/nn/src/(plan|interpreter|analysis/plan_check)\.rs:' || true)"
  if [[ -n "$stray" ]]; then
    printf 'a memory plan outside the planner, the interpreter and the plan check:\n%s\n' "$stray" >&2
    return 1
  fi
  stray="$(find crates/nn/src/kernels -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { rule = 0 }
    /^#\[cfg\(test\)\]/ { nextfile }
    FILENAME ~ /kernels\/mod\.rs$/ && /^pub\(crate\) fn room</ { rule = 1 }
    rule { if (/^}/) rule = 0; next }
    /reserve\(|reserve_exact\(|with_capacity\(/ { print FILENAME ":" FNR ": " $0 }')"
  if [[ -n "$stray" ]]; then
    printf 'a kernel buffer grown outside the scratch rule:\n%s\n' "$stray" >&2
    return 1
  fi
  local lines
  lines="$(scripts/rust-lines.sh)"
  if ! grep -qE '^\{"[a-z_-]+": [0-9]+(, "[a-z_-]+": [0-9]+)*, "benchmark": [0-9]+\}$' <<<"$lines"; then
    printf 'scripts/rust-lines.sh printed no rust_lines object:\n%s\n' "$lines" >&2
    return 1
  fi
  echo "rust_lines $lines"
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
# settings with its divergent node bisected op-local (kernel-simd repeats
# that under MLEXRAY_SIMD=scalar), the rendered validation and differential
# reports of mini_mobilenet_v2 against the golden text recorded before the
# drift fold, the fold bitwise against the log-scanning loops it replaced,
# and replay_validate_sharded's lockstep drift fold bitwise against
# per_layer_drift and validate_shard over the full logs it no longer writes.
# The preprocessing oracle (the preprocess crate's unit tests) holds the
# whole-row area-average passes (column sums in u16 or u32 lanes, four-lane
# pixel sums, vector divides and the in-range rounding) and the vector-pass
# normalization bitwise to the per-pixel code they replaced, across sizes,
# methods, schemes, channel orders and rotations, and the in-range rounding
# to f32::round on every area-average quotient; golden_reports pins the
# rewritten path end to end, since its drift bits depend on every input bit.
backend-suites() {
  cargo test -p mlexray-preprocess --lib -q
  cargo test -p mlexray-nn --test backend_differential --test golden_kernels -q
  cargo test -p mlexray-core --test differential_replay --test golden_reports \
    --test drift_fold_oracle --test parallel_replay -q
}

# Run twice: under native runtime dispatch (AVX-512 or AVX2+FMA where the host
# has it) and with MLEXRAY_SIMD=scalar forcing the scalar mirror engine and the
# baseline builds of the native float kernels. The SIMD goldens are recorded
# bitwise from the SIMD flavor, so the forced-scalar pass proves identical bits
# on any host, not just that a fallback exists; native_engines pins the AVX2
# build of every native float kernel, and the Simd GEMM's AVX-512 build,
# against the baseline build in one process (explicit engines), and all of
# them against the interpreter's engine.
# alloc_steady_state holds — with a counting global allocator — a warmed
# invoke to a depth-independent allocation count, the one arena to the
# footprint of its largest batch, the default interpreter (dead activations
# hand their buffers on) to less than half the bytes of a preserving one at
# batch 8 (measured, and as each reports in InvokeStats::arena_bytes), and a
# graph whose buffers no machine holds to a refusal when the interpreter is
# built; refused_reshape (a size-capped global allocator) holds an
# interpreter whose re-fit to a larger batch was refused to a fresh
# interpreter's bits at one frame after it, and to running that batch once
# the cap is lifted; alloc_validation holds a differential run's
# peak (over backends or image pipelines) to be independent of its frame count
# and a sharded replay-validate's to about one shard's logs without layer
# outputs plus one chunk of captured outputs. golden_reports must read the same
# text either way; parallel_replay's fold oracle must hold either way too.
# The kernels::gemm unit tests
# hold the one tile driver, under its three chain rules and every explicit
# engine, to a one-row, one-channel run of it per cell (the narrow-panel rule
# to lanes8_dot per cell), and every float Conv2d's windows read in place
# — the narrow panels and the row-major tiles alike — to the per-tap im2col
# oracle in gemm's tests;
# hold the one quantized Conv2d
# and FC every flavor runs, in both builds, to the scalar loops they replaced
# (a property suite over windows, strides, zero points, per-channel weights,
# clamp bounds and both requantization precisions); and read the detected
# engine, which the forced-scalar pass reports as the mirror. The
# kernels::conv unit tests hold the reference Conv2d's panel chains and the
# depthwise cell walk — unrolled unclipped 3×3 cells, border cells, cells
# grouped along a row and every edge of those groups (ragged row ends, SAME
# stride-2 borders, stacked frames), 16- and 8-wide channel blocks and the
# single-channel tail — to the naive loops they replaced, and the int8 depthwise kernels, exact and with the injected i16
# accumulator, to the per-cell loop, under both requantization precisions, in
# both builds. The kernels::conv and kernels::fc unit tests also hold every
# edge-emulator sum chain (each accumulation order, split and fused) of the
# reference Conv2d, the shared depthwise and the reference FC — on drawn
# windows, channel counts, biases and special values, and on every zoo layer
# geometry — to the per-cell gather loops the emulator ran before, in both
# builds. native_engines also runs every device profile's emulator across
# both builds, pins the quantized Conv2d and FC of every flavor across both
# builds, and simd::execute_node_with to the interpreter under injected
# defects and emulated numerics. differential_replay runs here too: bisection re-executes
# the divergent node through execute_node_with on the process's engine, so
# its op-local verdicts must hold under the mirror as well. Last, a smoke run
# of the four timing probes in release — depthwise_probe (the depthwise
# nodes of mobilenet_v2@48, float and int8, every flavor), conv_probe (every
# op kind and the stem of mini_mobilenet_v2@24, the replay_validate model,
# reference and optimized, and @32, the wire_plain model, optimized),
# serve_probe (mobilenet_v2@48, the serve_batch model, Simd flavor, batch 4,
# the stem and the narrow-panel Conv2d nodes timed apart),
# fold_probe (normalized_rmse and TensorStats::of on frame-sized inputs) and
# preprocess_probe (the canonical image preprocessing, 60x60 -> 24x24 and
# 224x224 -> 96x96): they must finish; no timing is asserted.
kernel-simd() {
  local nn=(-p mlexray-nn --test golden_kernels --test batch_equivalence
    --test backend_differential --test alloc_steady_state --test alloc_validation
    --test refused_reshape --test native_engines -q)
  local gemm=(-p mlexray-nn --lib kernels::gemm -q)
  local conv=(-p mlexray-nn --lib kernels::conv -q)
  local fc=(-p mlexray-nn --lib kernels::fc -q)
  local core=(-p mlexray-core --test golden_reports --test differential_replay
    --test parallel_replay -q)
  cargo test "${nn[@]}"
  cargo test "${gemm[@]}"
  cargo test "${conv[@]}"
  cargo test "${fc[@]}"
  cargo test "${core[@]}"
  MLEXRAY_SIMD=scalar cargo test "${nn[@]}"
  MLEXRAY_SIMD=scalar cargo test "${gemm[@]}"
  MLEXRAY_SIMD=scalar cargo test "${conv[@]}"
  MLEXRAY_SIMD=scalar cargo test "${fc[@]}"
  MLEXRAY_SIMD=scalar cargo test "${core[@]}"
  cargo test --release -p mlexray-nn -p mlexray-tensor -p mlexray-preprocess \
    --test depthwise_probe --test conv_probe --test serve_probe --test fold_probe \
    --test preprocess_probe -- --ignored -q
}

# Everything in mlexray-serve: its unit tests (the door reaps finished
# connection threads, the shed-code table) and the loaded, batcher,
# monitoring, metrics, rpc and trace suites (trace_suite holds the
# every-way-a-request-can-end table); sink_stress hammers the backpressure
# accounting the serving monitor leans on. The sink's unit tests and
# sink_stress run in release as well: the buffer's condvar protocol is
# timing-sensitive, and debug and release interleave differently. The JSON
# writer's tests (serde_json's unit tests and json_format's byte pins for
# every JSONL record shape) run in release too: the monitored serving path
# writes its JSONL through that writer.
serve-suite() {
  cargo test -p mlexray-serve -q
  cargo test -p mlexray-core --test sink_stress -q
  cargo test --release -p mlexray-core --lib sink -q
  cargo test --release -p mlexray-core --test sink_stress -q
  cargo test --release -p serde_json -q
  cargo test --release -p mlexray-core --test json_format -q
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
# of sealed re-infers; it ranks no latencies), and the codec's unit tests —
# the byte pin against the per-element encoder and the one-write frame
# pins — in release, where the bulk tensor copies are vectorized.
rpc-suite() {
  cargo build --release -p mlexray-serve
  cargo test --release -p mlexray-serve --test rpc_protocol --test rpc_loaded -q
  cargo test --release -p mlexray-serve --lib rpc::wire -q
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

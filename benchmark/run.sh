#!/usr/bin/env bash
# exray_bench: build the benchmark from source (release, offline) and run it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run of one workload;
#                                                          the last stdout line is its result object
#   run.sh [--seed N] [--seconds S] [--rounds R]           the suite: all four workloads in R
#                                                          interleaved rounds of S seconds, then one
#                                                          traced pass each; writes out/result.json
#   run.sh --selfcheck [--seed N]                          the suite twice on the same build, then
#                                                          `compare`; fails unless every row is ok
#
# Run it from the repository root or from here; it reads and writes only
# under this directory and the cargo target directory.
set -euo pipefail

dir="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$dir/target}"
cargo build --release --offline --manifest-path "$dir/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/exray_bench"
out="$dir/out"

case " $* " in
*" --workload "*)
    exec "$bin" "$@" --out "$out"
    ;;
*" --selfcheck "*)
    args=()
    for a in "$@"; do [ "$a" = "--selfcheck" ] || args+=("$a"); done
    "$bin" suite --seconds 6 --rounds 7 ${args[@]+"${args[@]}"} --out "$out/selfcheck-a"
    "$bin" suite --seconds 6 --rounds 7 ${args[@]+"${args[@]}"} --out "$out/selfcheck-b"
    exec "$bin" compare "$out/selfcheck-a/result.json" "$out/selfcheck-b/result.json"
    ;;
*)
    exec "$bin" suite --seconds 6 --rounds 7 "$@" --out "$out"
    ;;
esac

#!/usr/bin/env bash
# Prints the `rust_lines` object of a `BENCH_PR*.json` provenance block: the
# lines of every `*.rs` file under each `crates/<crate>`, keyed by the
# crate's directory name in sorted order, then those under `benchmark/src`
# as "benchmark". One line of JSON on stdout; it only reads the tree.
#
# Usage: scripts/rust-lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of every `*.rs` file under "$1" (0 when there is none).
lines() {
  find "$1" -name '*.rs' -type f -print0 | sort -z | xargs -0 -r cat | wc -l
}

out=""
for dir in crates/*/; do
  name="$(basename "$dir")"
  out+="${out:+, }\"$name\": $(lines "$dir")"
done
out+="${out:+, }\"benchmark\": $(lines benchmark/src)"
printf '{%s}\n' "$out"

#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from anywhere; the
# driver runs it from the root of a checkout as `bash benchmark/run.sh`.
#
#   run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#   run.sh --repeat N --out DIR ...   N runs in N processes -> a result set
#   run.sh --compare DIR_A DIR_B      judge two result sets, exit 1 on FAIL
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR (the driver's `.bench_build`) is relative
# to the caller's directory, for cargo and for us alike.
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo reports on stderr, so stdout carries the benchmark's output only.
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml"
bin="$target/release/swcaffe-benchmark"

# --repeat N: one process per run, because peak memory is per process.
repeat=1
args=()
while (($#)); do
  if [[ "$1" == "--repeat" ]]; then
    repeat="${2:?--repeat needs a count}"
    shift 2
  else
    args+=("$1")
    shift
  fi
done

if ((repeat == 1)); then
  exec "$bin" "${args[@]}"
fi
for ((i = 1; i <= repeat; i++)); do
  "$bin" "${args[@]}" --tag "$i"
done

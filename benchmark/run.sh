#!/usr/bin/env bash
# The repository's one benchmark command.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of standard output is the
#       JSON object BENCHMARK.json's contract describes
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace] [--repeat <k>]
#       a full set: the five workloads, one process each, every metric by
#       name, and benchmark/out/results.json
#
# Builds offline from this directory's own manifest, then hands every
# argument to the binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Reuse the repository's build cache unless the caller chose a target
# directory (a relative one is relative to the caller's directory).
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
export DOMO_LOG="${DOMO_LOG:-error}"
# Cargo's progress goes to standard error; standard output is the
# benchmark's alone.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/domo-benchmark" "$@"

#!/usr/bin/env bash
# One command for the whole benchmark: builds `multigrain` and the harness
# from source, then hands every argument to the harness.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last stdout line
#   run.sh [--seed N] [--seconds S]                        every workload, tracing off, then the traced run
#   run.sh --check                                         self-check against BENCHMARK.json (< 30 s)
#   run.sh --sets K [--seed N] [--seconds S] --out F.json  K runs per workload (seeds N..N+K-1) into a result set
#   run.sh --compare A.json B.json                         apply each metric's bound to two result sets
#
# Build products go to $CARGO_TARGET_DIR, by default the repository's
# git-ignored target/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"

build_start=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    -p multigrain -p mgbench --bins >&2
build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))
printf 'build_s %d.%03d (informational; not part of setup_s)\n' $((build_ms / 1000)) $((build_ms % 1000)) >&2

exec "$target/release/mgbench" \
    --spec "$root/BENCHMARK.json" --bench-dir "$here" \
    --serve-bin "$target/release/multigrain" "$@"

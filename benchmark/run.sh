#!/usr/bin/env bash
# Builds the simulator's wall-clock benchmark and runs it.
#
#   benchmark/run.sh                  every workload: end-to-end metrics
#   benchmark/run.sh --trace          every workload: per-layer metrics,
#                                     self-time tables, Chrome traces
#   benchmark/run.sh --repeat 2       every workload twice, alternating
#                                     order: each metric's spread vs bound
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                     one workload; JSON result last on stdout
#   benchmark/run.sh --self-test      the package's tests, rustfmt, clippy
#
# Builds, work files and traces go under $CARGO_TARGET_DIR (default
# target/benchmark). Exits non-zero when a run fails or an output check
# does.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
manifest=benchmark/Cargo.toml

if [[ "${1:-}" == "--self-test" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    exec cargo test --offline --manifest-path "$manifest"
fi

cargo build --release --offline --quiet --manifest-path "$manifest"
exec "$CARGO_TARGET_DIR/release/dtu-benchmark" "$@"

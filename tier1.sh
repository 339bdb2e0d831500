#!/usr/bin/env sh
# Tier-1 gate: format, build, test, lint, docs. The CLI's contract
# (byte-identity across runs, --jobs, caches and monitors; SLO grades;
# flight dumps; the golden figures) runs inside `cargo test`, in
# crates/bench/tests/cli_*.rs.
# Runnable from any directory; it changes to its own location first.
set -eu
cd "$(dirname "$0")"
cargo fmt --all --check
cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
echo "tier1 OK"

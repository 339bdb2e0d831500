#!/usr/bin/env sh
# Tier-1 gate: format, build, test, lint, and a profiling smoke run.
# Runnable from any directory; it changes to its own location first.
set -eu
cd "$(dirname "$0")"
cargo fmt --all --check
cargo build --release
cargo build --release -p dtu-bench --bin topsexec
cargo test -q
cargo clippy --workspace -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The telemetry pipeline end to end: `topsexec profile` must emit a
# non-empty, valid-JSON Perfetto/Chrome trace.
# Clean the scratch dir on normal exit *and* on interrupt/termination —
# a bare EXIT trap leaks it when the shell is killed mid-run.
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT INT TERM
./target/release/topsexec profile resnet50 --trace-out "$trace_dir/trace.json" > /dev/null
python3 - "$trace_dir/trace.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace must be a non-empty JSON array"
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "trace must contain duration spans"
assert len({e["pid"] for e in spans}) >= 3, "trace must cover >= 3 layers"
PY

# The parallel experiment engine end to end: a cold sweep populates the
# compiled-session cache; the warm sweep, a new process, must load every
# point from the disk tier and report the same points. bert is in the
# grid because its Reshape-heavy graph is what the graph optimizer's
# identity elimination works on.
./target/release/topsexec sweep --models resnet50,bert --batches 1,2 --jobs 4 \
    --cache-dir "$trace_dir/cache" --format json > "$trace_dir/cold.json"
./target/release/topsexec sweep --models resnet50,bert --batches 1,2 --jobs 4 \
    --cache-dir "$trace_dir/cache" --format json > "$trace_dir/warm.json"
python3 - "$trace_dir/cold.json" "$trace_dir/warm.json" <<'PY'
import json, sys
cold, warm = (json.load(open(path)) for path in sys.argv[1:3])
points = warm["points"]
assert len(points) == 4, f"expected 4 grid points, got {len(points)}"
assert all(p["latency_ms"] > 0 for p in points), "latencies must be positive"
cache = warm["cache"]
assert (cache["disk_hits"], cache["misses"], cache["memory_hits"]) == (4, 0, 0), \
    f"warm sweep must load every point from disk, stats: {cache}"
def unlabelled(report):
    return [{k: v for k, v in p.items() if k != "cache"} for p in report["points"]]
assert unlabelled(warm) == unlabelled(cold), "disk-loaded points differ from compiled ones"
PY
# The fleet layer end to end: a 4-chip cluster run must emit valid,
# accounting-balanced JSON, compile and walk each session once
# fleet-wide (walks == misses) while its chip-epochs reuse the walked
# prices more than a 1-chip run at a quarter of the load does (jobs=1
# keeps the tallies schedule-independent), and be byte-identical across
# worker counts.
./target/release/topsexec fleet resnet50 --chips 4 --qps 4000 \
    --duration 2000 --seed 7 --jobs 1 --no-disk-cache \
    --format table > "$trace_dir/fleet.txt"
./target/release/topsexec fleet resnet50 --chips 1 --qps 1000 \
    --duration 2000 --seed 7 --jobs 1 --no-disk-cache \
    --format table > "$trace_dir/fleet_solo.txt"
python3 - "$trace_dir/fleet.txt" "$trace_dir/fleet_solo.txt" <<'PY'
import re, sys
def tallies(path):
    t = open(path).read()
    cache = re.search(r"cache: (\d+) memory \+ (\d+) disk hits, (\d+) misses", t)
    pricing = re.search(r"pricing: (\d+) walks for (\d+) lookups", t)
    assert cache and pricing, f"{path} lacks its cache or pricing line"
    return int(cache.group(3)), int(pricing.group(1)), int(pricing.group(2))
misses, walks, lookups = tallies(sys.argv[1])
solo_misses, solo_walks, solo_lookups = tallies(sys.argv[2])
assert misses == solo_misses, \
    f"4 identical chips must compile each session once: {misses} vs {solo_misses}"
assert walks == misses, f"each session is walked once: {walks} walks, {misses} misses"
assert lookups - walks > solo_lookups - solo_walks, \
    "fleet chips must reuse walked prices"
PY
./target/release/topsexec fleet resnet50 --chips 4 --qps 4000 \
    --duration 2000 --seed 7 --jobs 1 --no-disk-cache > "$trace_dir/fleet_j1.json"
./target/release/topsexec fleet resnet50 --chips 4 --qps 4000 \
    --duration 2000 --seed 7 --jobs 4 --no-disk-cache > "$trace_dir/fleet_j4.json"
cmp "$trace_dir/fleet_j1.json" "$trace_dir/fleet_j4.json"
python3 - "$trace_dir/fleet_j1.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["accounting_balanced"] is True, "fleet accounting leaked"
assert r["offered"] > 0 and r["completed"] > 0, "fleet served nothing"
PY

# The generative serving path end to end: the continuous batcher must
# emit valid, accounting-balanced JSON with real decode work, and the
# report must be byte-identical across --jobs and cache temperature.
./target/release/topsexec serve --generative --gen-model tiny --seed 7 \
    --jobs 1 --cache-dir "$trace_dir/gcache" > "$trace_dir/gen_j1.json" 2>/dev/null
./target/release/topsexec serve --generative --gen-model tiny --seed 7 \
    --jobs 4 --cache-dir "$trace_dir/gcache" > "$trace_dir/gen_j4.json" 2>/dev/null
cmp "$trace_dir/gen_j1.json" "$trace_dir/gen_j4.json"
python3 - "$trace_dir/gen_j1.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["offered"] == r["completed"] + r["shed"] + r["fault_dropped"], \
    "generative accounting leaked"
assert r["decode_tokens"] > 0 and r["prefill_tokens"] > 0, "no token work"
assert r["ttft"]["count"] == r["completed"], "TTFT sampled per completion"
PY
# The generative monitor must be strictly observational: attaching it
# may not change a byte of the report.
./target/release/topsexec serve --generative --gen-model tiny --seed 7 \
    --jobs 4 --monitor --cache-dir "$trace_dir/gcache" \
    > "$trace_dir/gen_mon.json" 2>/dev/null
cmp "$trace_dir/gen_j1.json" "$trace_dir/gen_mon.json"

echo "tier1 OK"

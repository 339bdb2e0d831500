//! The CLI's contract, checked by `cargo test`: reports byte-identical
//! across runs, `--jobs`, cache temperature and attached monitors; SLO
//! grades; the fleet's pricing tallies and chip-kill resilience; token
//! work under KV pressure; headless dashboards; and what the flight
//! dumps and traces contain. Every run uses the small debug-friendly
//! arguments (4 chips, 2-4 s horizons, the tiny transformer) of the
//! shell smokes these tests replace.

mod common;

use common::{scratch, topsexec, Json};
use std::path::Path;

/// Runs `topsexec args` in `dir` and parses its stdout as JSON.
fn json(dir: &Path, args: &[&str]) -> Json {
    Json::parse(&topsexec(dir, args).0)
}

/// The events of a Chrome/Perfetto trace file in `dir`.
fn trace_events(dir: &Path, file: &str) -> Vec<Json> {
    let text = std::fs::read_to_string(dir.join(file)).expect("trace file written");
    Json::parse(&text).arr().to_vec()
}

/// The `ph: "X"` duration spans among trace events.
fn spans(events: &[Json]) -> Vec<&Json> {
    events
        .iter()
        .filter(|e| e.get("ph").map(Json::str) == Some("X"))
        .collect()
}

/// `offered == completed + shed + fault_dropped` in a report.
fn balanced(r: &Json) -> bool {
    r["offered"].num() == r["completed"].num() + r["shed"].num() + r["fault_dropped"].num()
}

const FAULTS_CF: &[&str] = &[
    "faults",
    "resnet50",
    "--seed",
    "7",
    "--plan",
    "core-failure",
    "--no-disk-cache",
];
const FLEET: &[&str] = &[
    "fleet",
    "resnet50",
    "--chips",
    "4",
    "--qps",
    "4000",
    "--duration",
    "2000",
    "--seed",
    "7",
];
/// Routing epochs that start off whole seconds, and a chip killed in
/// the middle of one.
const EPOCH_300_KILL: &[&str] = &["--epoch", "300", "--kill-chip", "1", "--kill-at", "450"];
const GEN: &[&str] = &[
    "serve",
    "--generative",
    "--gen-model",
    "tiny",
    "--seed",
    "7",
];

/// Groups of runs whose stdout must be byte-identical, each group run
/// in order in a directory of its own (so a shared `--cache-dir` goes
/// from cold to warm). Each run is a list of argument slices.
const IDENTICAL: &[(&str, &[&[&[&str]]])] = &[
    ("faults reports across runs", &[&[FAULTS_CF], &[FAULTS_CF]]),
    (
        "slo reports across --jobs",
        &[
            &[
                SLO_CF,
                &["--flight-out", "blackbox.json", "--no-disk-cache"],
            ],
            &[SLO_CF, &["--jobs", "1", "--no-disk-cache"]],
            &[SLO_CF, &["--jobs", "4", "--no-disk-cache"]],
        ],
    ),
    (
        "fleet reports across --jobs",
        &[
            &[FLEET, &["--jobs", "1", "--no-disk-cache"]],
            &[FLEET, &["--jobs", "4", "--no-disk-cache"]],
        ],
    ),
    (
        "fleet monitor is observational across --jobs",
        &[
            &[FLEET, &["--jobs", "1", "--no-disk-cache"]],
            &[FLEET, &["--jobs", "1", "--monitor", "--no-disk-cache"]],
            &[FLEET, &["--jobs", "8", "--monitor", "--no-disk-cache"]],
        ],
    ),
    (
        "fleet monitor is observational with epochs off the second and a kill",
        &[
            &[FLEET, EPOCH_300_KILL, &["--jobs", "1", "--no-disk-cache"]],
            &[
                FLEET,
                EPOCH_300_KILL,
                &["--jobs", "1", "--monitor", "--no-disk-cache"],
            ],
            &[
                FLEET,
                EPOCH_300_KILL,
                &["--jobs", "4", "--monitor", "--no-disk-cache"],
            ],
        ],
    ),
    (
        "generative reports across runs",
        &[&[GEN, &["--no-disk-cache"]], &[GEN, &["--no-disk-cache"]]],
    ),
    (
        "generative monitor is observational, cold to warm",
        &[
            &[GEN, &["--cache-dir", "gocache"]],
            &[GEN, &["--monitor", "--cache-dir", "gocache"]],
        ],
    ),
    (
        "generative reports across cache temperature",
        &[
            &[GEN, &["--cache-dir", "gcache"]],
            &[GEN, &["--cache-dir", "gcache"]],
            &[GEN, &["--monitor", "--cache-dir", "gcache"]],
        ],
    ),
];
const SLO_CF: &[&str] = &["slo", "resnet50", "--seed", "7", "--plan", "core-failure"];

#[test]
fn reports_are_byte_identical_across_runs_jobs_caches_and_monitors() {
    for (i, (what, runs)) in IDENTICAL.iter().enumerate() {
        let dir = scratch(&format!("cli_contract_identical_{i}"));
        let outputs: Vec<(Vec<&str>, String)> = runs
            .iter()
            .map(|parts| {
                let args: Vec<&str> = parts.concat();
                let out = topsexec(&dir, &args).0;
                (args, out)
            })
            .collect();
        for (args, out) in &outputs[1..] {
            assert_eq!(
                out, &outputs[0].1,
                "{what}: {args:?} differs from {:?}",
                outputs[0].0
            );
        }
    }
}

#[test]
fn golden_figure_gate_passes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let args = [
        "sweep",
        "--check-golden",
        "tests/golden/figures.json",
        "--no-disk-cache",
    ];
    let out = topsexec(&root, &args).0;
    assert!(out.starts_with("golden figures OK"), "{out}");
}

#[test]
fn slo_grades_a_clean_run_quiet_and_a_core_failure_paging() {
    let dir = scratch("cli_contract_slo");
    let clean = json(&dir, &["slo", "resnet50", "--seed", "7", "--no-disk-cache"]);
    let p = &clean["points"][0];
    assert_eq!(p["burn_alerts"].num(), 0.0, "{p:?}");
    assert_eq!(p["fault_alerts"].num(), 0.0, "{p:?}");
    assert_eq!(p["grade"].str(), "within-budget", "{p:?}");

    let args = [
        SLO_CF,
        &["--flight-out", "blackbox.json", "--no-disk-cache"],
    ]
    .concat();
    let paging = json(&dir, &args);
    let p = &paging["points"][0];
    assert!(p["burn_alerts"].num() >= 1.0, "{p:?}");
    assert!(["paging", "outage"].contains(&p["grade"].str()), "{p:?}");
    let events = trace_events(&dir, "blackbox.json");
    assert!(!spans(&events).is_empty(), "empty flight dump");
}

/// (cache misses, pricing walks, pricing lookups) from a fleet table.
fn fleet_tallies(table: &str) -> (u64, u64, u64) {
    let numbers = |label: &str| -> Vec<u64> {
        let line = table.lines().find_map(|l| l.strip_prefix(label));
        line.unwrap_or_else(|| panic!("table lacks its `{label}` line:\n{table}"))
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().expect("a count"))
            .collect()
    };
    let (cache, pricing) = (numbers("cache: "), numbers("pricing: "));
    (cache[2], pricing[0], pricing[1])
}

#[test]
fn fleet_compiles_and_walks_each_session_once() {
    // --jobs 1 so no two chips race to price the same session: the
    // cache and pricing tallies are schedule-independent only when
    // serial. Each session is compiled and walked once fleet-wide, and
    // 4 chips reuse walked prices more than 1 chip at a quarter of the
    // load does.
    let dir = scratch("cli_contract_fleet_pricing");
    let run = |chips: &str, qps: &str| {
        let args = [
            "fleet",
            "resnet50",
            "--chips",
            chips,
            "--qps",
            qps,
            "--duration",
            "2000",
            "--seed",
            "7",
            "--jobs",
            "1",
            "--no-disk-cache",
            "--format",
            "table",
        ];
        fleet_tallies(&topsexec(&dir, &args).0)
    };
    let (misses, walks, lookups) = run("4", "4000");
    let (solo_misses, solo_walks, solo_lookups) = run("1", "1000");
    assert_eq!(
        misses, solo_misses,
        "4 identical chips compile each session once"
    );
    assert_eq!(walks, misses, "each session is walked once");
    assert!(
        lookups - walks > solo_lookups - solo_walks,
        "fleet chips must reuse walked prices"
    );
}

#[test]
fn fleet_report_balances_and_survives_a_chip_kill() {
    let dir = scratch("cli_contract_fleet");
    let r = json(&dir, &[FLEET, &["--jobs", "1", "--no-disk-cache"]].concat());
    assert_eq!(
        r["accounting_balanced"],
        Json::Bool(true),
        "fleet accounting leaked"
    );
    assert!(
        r["offered"].num() > 0.0 && r["completed"].num() > 0.0,
        "fleet served nothing"
    );

    let kill = [
        FLEET,
        &["--kill-chip", "1", "--kill-at", "900", "--no-disk-cache"],
    ]
    .concat();
    let r = json(&dir, &kill);
    assert_eq!(r["chips_lost"].num(), 1.0);
    assert_eq!(
        r["accounting_balanced"],
        Json::Bool(true),
        "chip loss leaked requests"
    );
    let (dead, survivors): (Vec<&Json>, Vec<&Json>) = r["chips"]
        .arr()
        .iter()
        .partition(|c| c["dead"] == Json::Bool(true));
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0]["chip"].num(), 1.0);
    assert!(survivors.iter().all(|c| c["completed"].num() > 0.0));
}

#[test]
fn fleet_chip_kill_pages_with_a_loadable_flight_dump() {
    // --qps below saturation so the survivors stay clean and the kill
    // charge is unambiguously the top attributed burn.
    let dir = scratch("cli_contract_fleet_kill");
    let args = [
        "fleet",
        "resnet50",
        "--chips",
        "4",
        "--qps",
        "2000",
        "--duration",
        "2000",
        "--seed",
        "7",
        "--kill-chip",
        "1",
        "--kill-at",
        "900",
        "--slo",
        "--flight-out",
        "fleet_blackbox.json",
        "--no-disk-cache",
    ];
    let (out, err) = topsexec(&dir, &args);
    assert!(err.contains("fault alert"), "{err}");
    let r = Json::parse(&out);
    assert_eq!(r["chips_dead"], Json::Arr(vec![Json::Num(1.0)]));
    assert!(r["dumps"].num() >= 1.0);
    assert_eq!(r["top_offenders"][0]["chip"].num(), 1.0);
    let events = trace_events(&dir, "fleet_blackbox.json");
    assert!(!spans(&events).is_empty(), "empty flight dump");
    assert!(
        events
            .iter()
            .any(|e| e.get("name").is_some_and(|n| n.str().contains("route e"))),
        "dump lacks routing context"
    );
}

#[test]
fn generative_runs_balance_with_real_token_work() {
    let dir = scratch("cli_contract_gen");
    let r = json(&dir, &[GEN, &["--no-disk-cache"]].concat());
    let disk = json(&dir, &[GEN, &["--cache-dir", "gcache"]].concat());
    assert_eq!(r, disk, "the disk tier changed the report");
    assert!(balanced(&r), "generative accounting leaked: {r:?}");
    assert!(r["completed"].num() > 0.0 && r["decode_tokens"].num() > 0.0);
    assert!(r["prefill_tokens"].num() > 0.0, "no token work");
    assert_eq!(
        r["ttft"]["count"], r["completed"],
        "TTFT sampled per completion"
    );
    let tpot = &r["tpot"];
    assert!(tpot["p99_ms"].num() >= tpot["p50_ms"].num() && tpot["p50_ms"].num() >= 0.0);

    // A sliver of L3 (52 pages) under 4x load with long answers: the
    // batcher must shed or preempt under pressure, and the accounting
    // must still balance (nothing vanishes mid-stream).
    let tight = [
        GEN,
        &[
            "--qps",
            "800",
            "--kv-budget",
            "0.0001",
            "--max-new",
            "128",
            "--no-disk-cache",
        ],
    ]
    .concat();
    let r = json(&dir, &tight);
    assert!(balanced(&r), "{r:?}");
    let pressure = r["preemptions"].num() + r["shed"].num() + r["kv"]["exhaustions"].num();
    assert!(pressure > 0.0, "constrained pool showed no pressure: {r:?}");
    assert!(
        r["completed"].num() > 0.0,
        "pressure must not starve completion"
    );
}

#[test]
fn kv_pressure_pages_ttft_with_the_victims_timeline() {
    // A 1 ms TTFT deadline on the starved pool: queueing and preemption
    // must page the burn-rate alert, and the frozen dump must name the
    // first preemption victim and carry its token timeline.
    let dir = scratch("cli_contract_gen_slo");
    let args = [
        GEN,
        &[
            "--qps",
            "800",
            "--kv-budget",
            "0.0001",
            "--max-new",
            "128",
            "--duration",
            "4000",
            "--ttft-deadline",
            "1",
            "--monitor",
            "--slo",
            "--flight-out",
            "gen_blackbox.json",
            "--no-disk-cache",
        ],
    ]
    .concat();
    let (out, err) = topsexec(&dir, &args);
    assert!(
        err.contains("alert") && err.contains("kv-exhaustion"),
        "{err}"
    );
    let r = Json::parse(&out);
    assert!(r["preemptions"].num() > 0.0, "{r:?}");
    let objectives = r["objectives"].arr();
    let ttft = objectives
        .iter()
        .find(|o| o["slo"].str().starts_with("ttft"))
        .expect("a ttft objective");
    assert!(
        ttft["pages"].num() >= 1.0 && ttft["violated"].num() > 0.0,
        "{ttft:?}"
    );
    let after = err
        .split_once("kv-exhaustion (req ")
        .expect("stderr names the preempted request")
        .1;
    let (victim, rest) = after.split_once(' ').expect("a request id");
    assert!(
        victim.parse::<u64>().is_ok() && rest.starts_with("preempted"),
        "{after}"
    );
    let events = trace_events(&dir, "gen_blackbox.json");
    let named = |ph: &str, prefix: &str| {
        events
            .iter()
            .any(|e| e.get("ph").map(Json::str) == Some(ph) && e["name"].str().starts_with(prefix))
    };
    assert!(!spans(&events).is_empty(), "empty flight dump");
    assert!(
        named("X", &format!("req {victim} prefill")),
        "no victim prefill span"
    );
    assert!(
        named("i", &format!("req {victim} tok ")),
        "no victim token markers"
    );
}

#[test]
fn dashboards_render_headless() {
    let dir = scratch("cli_contract_dashboards");
    let top = [
        "top",
        "--once",
        "--models",
        "resnet50",
        "--duration",
        "4000",
        "--no-disk-cache",
    ];
    let out = topsexec(&dir, &top).0;
    assert!(out.lines().any(|l| l.starts_with("tenant ")) || out.contains("resnet50"));

    let fleet_top = [
        &["fleet", "top", "--once"],
        &FLEET[1..],
        &["--no-disk-cache"],
    ]
    .concat();
    let out = topsexec(&dir, &fleet_top).0;
    assert!(out.lines().any(|l| l.starts_with("tenant ")), "{out}");
    assert!(out.lines().any(|l| l.starts_with("chip ")), "{out}");
    assert!(out.contains("resnet50"), "{out}");

    let gen_top = [
        "top",
        "--generative",
        "--gen-model",
        "tiny",
        "--seed",
        "7",
        "--duration",
        "4000",
        "--once",
        "--no-disk-cache",
    ];
    let out = topsexec(&dir, &gen_top).0;
    for needle in ["tenant=tiny", "ttft_p99", "tpot_p99"] {
        assert!(out.contains(needle), "{needle} missing:\n{out}");
    }
}

#[test]
fn profile_trace_covers_three_layers() {
    let dir = scratch("cli_contract_profile");
    topsexec(&dir, &["profile", "resnet50", "--trace-out", "trace.json"]);
    let events = trace_events(&dir, "trace.json");
    assert!(!events.is_empty(), "trace must be a non-empty JSON array");
    let spans = spans(&events);
    assert!(!spans.is_empty(), "trace must contain duration spans");
    let mut pids: Vec<u64> = spans.iter().map(|e| e["pid"].num() as u64).collect();
    pids.sort_unstable();
    pids.dedup();
    assert!(pids.len() >= 3, "trace must cover >= 3 layers: {pids:?}");
}

#[test]
fn warm_sweep_loads_every_point_from_disk() {
    // A cold sweep fills the disk tier; the warm one, a new process,
    // must load every point from it and report the same points. bert
    // is in the grid for its Reshape-heavy graph.
    let dir = scratch("cli_contract_sweep");
    let args = [
        "sweep",
        "--models",
        "resnet50,bert",
        "--batches",
        "1,2",
        "--jobs",
        "4",
        "--cache-dir",
        "cache",
        "--format",
        "json",
    ];
    let cold = json(&dir, &args);
    let warm = json(&dir, &args);
    let points = warm["points"].arr();
    assert_eq!(points.len(), 4);
    assert!(points.iter().all(|p| p["latency_ms"].num() > 0.0));
    let cache = &warm["cache"];
    let tally = [
        cache["disk_hits"].num(),
        cache["misses"].num(),
        cache["memory_hits"].num(),
    ];
    assert_eq!(
        tally,
        [4.0, 0.0, 0.0],
        "warm sweep must load every point from disk"
    );
    let unlabelled = |report: &Json| -> Vec<Json> {
        let strip = |p: &Json| match p {
            Json::Obj(m) => Json::Obj(m.iter().filter(|(k, _)| k != "cache").cloned().collect()),
            other => other.clone(),
        };
        report["points"].arr().iter().map(strip).collect()
    };
    assert_eq!(
        unlabelled(&warm),
        unlabelled(&cold),
        "disk-loaded points differ"
    );
}

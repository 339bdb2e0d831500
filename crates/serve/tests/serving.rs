//! Integration tests for the dtu-serve event engine: seeded
//! determinism, the closed-form M/D/1 cross-check, isolated tenants,
//! and the dynamic batching throughput win the paper's serving story
//! rests on.

use dtu_serve::{
    run_serving, AnalyticModel, ArrivalGen, ArrivalProcess, BatchPolicy, ScalePolicy, ServeConfig,
    ServeReport, SlaPolicy, TenantSpec,
};
use dtu_sim::ChipConfig;

/// A fully-loaded scenario: two models, bursty + Poisson tenants,
/// dynamic batching, shedding, and elastic scaling all enabled.
fn kitchen_sink(seed: u64) -> ServeConfig {
    ServeConfig {
        duration_ms: 1500.0,
        seed,
        record_requests: true,
        faults: Default::default(),
        retry: Default::default(),
        tenants: vec![
            TenantSpec {
                name: "vision".into(),
                model: 0,
                arrival: ArrivalProcess::Bursty {
                    base_qps: 300.0,
                    burst_qps: 2500.0,
                    mean_dwell_ms: 200.0,
                },
                batch: BatchPolicy::dynamic(8, 2.0),
                sla: SlaPolicy::new(60.0, 48),
                scale: ScalePolicy::elastic(6.0, 1.0, 3),
                cluster: Some(0),
                initial_groups: 1,
            },
            TenantSpec {
                name: "language".into(),
                model: 1,
                arrival: ArrivalProcess::Poisson { qps: 400.0 },
                batch: BatchPolicy::dynamic(4, 1.0),
                sla: SlaPolicy::new(80.0, 64),
                scale: ScalePolicy::none(),
                cluster: Some(1),
                initial_groups: 1,
            },
        ],
    }
}

fn kitchen_sink_models() -> (AnalyticModel, AnalyticModel) {
    (
        AnalyticModel::new("resnet-like", 0.8),
        AnalyticModel::new("bert-like", 1.6),
    )
}

/// Same seed, same config => bit-identical report AND trace.
#[test]
fn same_seed_runs_are_bit_identical() {
    let chip = ChipConfig::dtu20();
    let cfg = kitchen_sink(0xC0FFEE);

    let (mut m0, mut m1) = kitchen_sink_models();
    let a = run_serving(&cfg, &chip, &mut [&mut m0, &mut m1]).expect("run a");

    let (mut m0, mut m1) = kitchen_sink_models();
    let b = run_serving(&cfg, &chip, &mut [&mut m0, &mut m1]).expect("run b");

    assert!(a.report.offered > 0, "scenario must carry traffic");
    assert_eq!(a.report, b.report, "reports must be bit-identical");
    assert_eq!(
        a.trace.to_jsonl(),
        b.trace.to_jsonl(),
        "traces must be bit-identical"
    );
    assert_eq!(a.requests, b.requests);
}

/// Different seeds must not replay the same run (arrivals differ).
#[test]
fn different_seeds_diverge() {
    let chip = ChipConfig::dtu20();
    let (mut m0, mut m1) = kitchen_sink_models();
    let a = run_serving(&kitchen_sink(1), &chip, &mut [&mut m0, &mut m1]).expect("run a");
    let (mut m0, mut m1) = kitchen_sink_models();
    let b = run_serving(&kitchen_sink(2), &chip, &mut [&mut m0, &mut m1]).expect("run b");
    assert_ne!(a.trace.to_jsonl(), b.trace.to_jsonl());
}

/// With batching, shedding, and scaling all disabled, the event engine
/// must reproduce the closed-form M/D/1 sample path exactly: Poisson
/// arrivals from the same seeded stream pushed through the Lindley
/// recursion with deterministic service.
#[test]
fn no_batching_single_tenant_matches_closed_form() {
    let chip = ChipConfig::dtu20();
    let service_ms = 1.25;
    let cfg = ServeConfig {
        duration_ms: 5_000.0,
        seed: 0xD1_CE,
        record_requests: true,
        faults: Default::default(),
        retry: Default::default(),
        tenants: vec![TenantSpec::poisson("solo", 0, 500.0)],
    };
    let mut model = AnalyticModel::new("const", service_ms);
    let out = run_serving(&cfg, &chip, &mut [&mut model]).expect("run");

    // Reference: identical arrival stream (tenant 0 uses the raw run
    // seed), Lindley recursion `done = max(arrival, prev_done) + s`.
    let mut gen = ArrivalGen::new(ArrivalProcess::Poisson { qps: 500.0 }, cfg.seed);
    let mut reference = Vec::new();
    let mut t = gen.next_after(0.0);
    let mut prev_done = 0.0f64;
    while t <= cfg.duration_ms {
        let done = t.max(prev_done) + service_ms;
        reference.push((t, done));
        prev_done = done;
        t = gen.next_after(t);
    }

    assert_eq!(out.report.offered as usize, reference.len());
    assert_eq!(out.report.completed as usize, reference.len());
    assert_eq!(out.requests.len(), reference.len());
    for (req, (arr, done)) in out.requests.iter().zip(&reference) {
        assert!(
            (req.arrival_ms - arr).abs() < 1e-9 && (req.done_ms - done).abs() < 1e-9,
            "request {} diverged: engine ({}, {}) vs closed form ({}, {})",
            req.req,
            req.arrival_ms,
            req.done_ms,
            arr,
            done
        );
    }

    // And the aggregate latency stats agree with the sample path.
    let mut lat: Vec<f64> = reference.iter().map(|(a, d)| d - a).collect();
    let stats = dtu_serve::LatencyStats::from_latencies(&mut lat);
    assert!((out.report.latency.mean_ms - stats.mean_ms).abs() < 1e-9);
    assert!((out.report.latency.p99_ms - stats.p99_ms).abs() < 1e-9);
}

/// The acceptance-criteria load test: at equal tenant count, dynamic
/// batching sustains >= 2x the throughput of batch=1 under a load that
/// saturates the unbatched server, while keeping p99 under the SLA.
#[test]
fn dynamic_batching_doubles_sustained_throughput() {
    let chip = ChipConfig::dtu20();
    // AnalyticModel: batch 8 costs 3.1x batch 1 => 2.58x capacity.
    // Offered 2.2 req/ms vs batch-1 capacity 1 req/ms: the unbatched
    // server saturates; the batched one keeps up with headroom.
    let offered_qps = 2_200.0;
    let sla = SlaPolicy::new(80.0, 64);
    let run = |batch: BatchPolicy| {
        let cfg = ServeConfig {
            duration_ms: 2_000.0,
            seed: 0xBA7C4,
            record_requests: false,
            faults: Default::default(),
            retry: Default::default(),
            tenants: vec![TenantSpec {
                name: "hot".into(),
                model: 0,
                arrival: ArrivalProcess::Poisson { qps: offered_qps },
                batch,
                sla: sla.clone(),
                scale: ScalePolicy::none(),
                cluster: Some(0),
                initial_groups: 1,
            }],
        };
        let mut model = AnalyticModel::new("unit", 1.0);
        run_serving(&cfg, &chip, &mut [&mut model]).expect("run")
    };

    let unbatched = run(BatchPolicy::none());
    let batched = run(BatchPolicy::dynamic(8, 2.0));

    assert!(
        unbatched.report.shed > 0,
        "batch=1 must saturate and shed under this load: {}",
        unbatched.report
    );
    assert!(
        batched.report.throughput_qps >= 2.0 * unbatched.report.throughput_qps,
        "batching win {:.0} vs {:.0} qps is below 2x",
        batched.report.throughput_qps,
        unbatched.report.throughput_qps
    );
    assert!(
        batched.report.latency.p99_ms <= sla.deadline_ms,
        "batched p99 {:.2} ms breaches the {:.0} ms SLA",
        batched.report.latency.p99_ms,
        sla.deadline_ms
    );
    // The histogram must show real batch formation, not batch=1 spam.
    assert!(
        batched.report.mean_batch() > 1.5,
        "mean batch {:.2} too small",
        batched.report.mean_batch()
    );
}

/// Elastic scaling is observable end to end: the trace carries scale
/// events and the queue-depth series drains after scale-up.
#[test]
fn trace_records_scaling_and_queue_depths() {
    let chip = ChipConfig::dtu20();
    let cfg = kitchen_sink(0x5CA1E);
    let (mut m0, mut m1) = kitchen_sink_models();
    let out = run_serving(&cfg, &chip, &mut [&mut m0, &mut m1]).expect("run");
    let jsonl = out.trace.to_jsonl();
    assert!(jsonl.contains("\"kind\":\"dispatch\""));
    assert!(!out.trace.queue_depth_series(0).is_empty());
    // Every line parses as a flat JSON object with the shared fields.
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"t_ns\":") && line.contains("\"tenant\":"));
    }
}

/// `tenants` Poisson tenants of a 0.5 ms model, each claiming its own
/// processing group, without batching, shedding or scaling.
fn isolated(tenants: usize, qps: f64, duration_ms: f64, seed: u64) -> ServeReport {
    let cfg = ServeConfig {
        duration_ms,
        seed,
        tenants: (0..tenants)
            .map(|i| TenantSpec::poisson(format!("tenant{i}"), 0, qps))
            .collect(),
        ..ServeConfig::default()
    };
    let mut model = AnalyticModel::new("m", 0.5);
    let out = run_serving(&cfg, &ChipConfig::dtu20(), &mut [&mut model]);
    out.expect("run").report
}

/// Near saturation (utilisation 0.9) queueing stretches the tail far
/// past what light load shows.
#[test]
fn heavy_load_grows_the_tail() {
    let light = isolated(3, 50.0, 100.0, 0x5EED).latency;
    let heavy = isolated(3, 0.9 / 0.5 * 1e3, 500.0, 0x5EED).latency;
    assert!(heavy.p99_ms > light.p99_ms * 2.0, "{light:?} vs {heavy:?}");
    assert!(heavy.p99_ms > heavy.p50_ms);
}

/// Isolated groups keep tenants independent: six tenants serve far
/// more than one at the same per-tenant load.
#[test]
fn tenants_scale_throughput() {
    let one = isolated(1, 200.0, 300.0, 11).throughput_qps;
    let six = isolated(6, 200.0, 300.0, 11).throughput_qps;
    assert!(
        six > one * 4.0,
        "6 tenants ({six:.0} QPS) should serve far more than 1 ({one:.0} QPS)"
    );
}

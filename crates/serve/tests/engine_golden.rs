//! Golden digests of the single-shot engine's whole output.
//!
//! 64 fixed scenarios, drawn from a local seeded generator, vary what
//! the event loop orders: 1–4 tenants, Poisson and bursty arrivals,
//! max batch 1–16, batch timeouts from zero to 40 ms, autoscaling, the
//! fault presets at several severities plus a plan that takes every
//! group (a [`ServeError::Outage`]), both retry policies, and request
//! recording. Each run's report `Debug`, JSONL trace and requests (or
//! the error and the outage's log) fold into one FNV-1a digest per
//! scenario. A change to the engine's internals must leave every digest
//! as it is; a change that means to move simulated numbers re-pins them
//! (run with `-- --nocapture` to print the current table).

use dtu_compiler::Fnv1a;
use dtu_serve::faults::{FaultEvent, FaultKind, FaultPlan, PRESETS};
use dtu_serve::{
    run_serving, AnalyticModel, ArrivalProcess, BatchPolicy, RetryPolicy, ScalePolicy, ServeConfig,
    ServeError, SlaPolicy, TenantSpec,
};
use dtu_sim::ChipConfig;

/// SplitMix64: the scenarios' own generator, so they depend on nothing
/// outside this file.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next().is_multiple_of(2)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.int(0, from.len() - 1)]
    }
}

const SCENARIOS: usize = 64;
const TIMEOUTS_MS: [f64; 5] = [0.0, 0.5, 2.0, 20.0, 40.0];

/// Every processing group of the chip fails at `at_ms`: the first
/// tenant to dispatch after it loses its last group.
fn every_group_fails(chip: &ChipConfig, at_ms: f64) -> FaultPlan {
    let events = (0..chip.clusters)
        .flat_map(|cluster| (0..chip.groups_per_cluster).map(move |group| (cluster, group)))
        .map(|(cluster, group)| FaultEvent {
            at_ns: at_ms * 1e6,
            cluster,
            group,
            kind: FaultKind::CoreFailure,
        })
        .collect();
    FaultPlan {
        seed: 0,
        name: "every-group".into(),
        events,
    }
}

/// Scenario `i` of the table.
fn scenario(i: usize, chip: &ChipConfig) -> ServeConfig {
    let mut g = Gen(0x0060_1DE4 ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let duration_ms = g.range(600.0, 2_000.0);
    let seed = g.next();
    let tenants = g.int(1, 4);
    let initial_groups = if tenants <= 2 { g.int(1, 2) } else { 1 };
    let tenants = (0..tenants)
        .map(|t| {
            let arrival = if g.coin() {
                ArrivalProcess::Poisson {
                    qps: g.range(50.0, 1_500.0),
                }
            } else {
                ArrivalProcess::Bursty {
                    base_qps: g.range(20.0, 300.0),
                    burst_qps: g.range(800.0, 4_000.0),
                    mean_dwell_ms: g.range(20.0, 300.0),
                }
            };
            let scale = if g.coin() {
                ScalePolicy::elastic(g.range(1.0, 8.0), g.range(0.05, 0.5), 3)
            } else {
                ScalePolicy::none()
            };
            TenantSpec {
                name: format!("t{t}"),
                model: t % 2,
                arrival,
                batch: BatchPolicy::dynamic(g.int(1, 16), g.pick(&TIMEOUTS_MS)),
                sla: SlaPolicy::new(g.pick(&[2.0, 10.0, 50.0]), g.pick(&[8, 64, 512])),
                scale,
                cluster: None,
                initial_groups,
            }
        })
        .collect();
    let faults = if i % 16 == 15 {
        every_group_fails(chip, g.range(0.1, 0.9) * duration_ms)
    } else {
        // Half the draws take a transient preset, which is what the
        // retry path needs.
        let plan = if g.coin() {
            g.pick(&["ecc", "dma-timeout", "mixed"])
        } else {
            g.pick(PRESETS)
        };
        let severity = g.pick(&[0.2, 0.5, 0.8, 1.0]);
        FaultPlan::preset(
            plan,
            seed,
            severity,
            chip.clusters,
            chip.groups_per_cluster,
            duration_ms * 1e6,
        )
        .expect("known preset")
    };
    ServeConfig {
        duration_ms,
        seed,
        tenants,
        record_requests: g.coin(),
        faults,
        retry: if g.coin() {
            RetryPolicy::none()
        } else {
            RetryPolicy::default()
        },
    }
}

/// What the table's runs covered, so the digests pin the paths the
/// event loop orders and not only the quiet ones.
#[derive(Debug, Default)]
struct Coverage {
    outages: usize,
    retried: usize,
    fault_dropped: usize,
    shed: usize,
    scaled: usize,
    batched: usize,
}

/// Runs scenario `i` and digests everything it returned.
fn digest(i: usize, seen: &mut Coverage) -> u64 {
    let chip = ChipConfig::dtu20();
    let cfg = scenario(i, &chip);
    let mut fast = AnalyticModel::new("fast", 0.4);
    let mut slow = AnalyticModel::new("slow", 1.3);
    let mut h = Fnv1a::new();
    match run_serving(&cfg, &chip, &mut [&mut fast, &mut slow]) {
        Ok(out) => {
            let r = &out.report;
            seen.retried += usize::from(r.retries > 0);
            seen.fault_dropped += usize::from(r.fault_dropped > 0);
            seen.shed += usize::from(r.shed > 0);
            seen.scaled += usize::from(r.tenants.iter().any(|t| t.scale_ups > 0));
            seen.batched += usize::from(r.batch_histogram.keys().any(|&b| b > 1));
            h.write_str(&format!("{r:?}"));
            h.write_str(&out.trace.to_jsonl());
            h.write_str(&format!("{:?}", out.requests));
        }
        Err(err) => {
            h.write_str(&err.to_string());
            if let ServeError::Outage(o) = &err {
                seen.outages += 1;
                h.write_str(&o.trace.to_jsonl());
                h.write_str(&format!("{:?}", o.requests));
            }
        }
    }
    h.finish()
}

/// The digests at the commit before the event loop's slots replaced
/// its heap.
const PINNED: [u64; SCENARIOS] = [
    0xccc3a717f15743e1,
    0x337133b9d64b89a3,
    0x0537b125b2a93ddd,
    0x4d8492c15dbec279,
    0x55264c73a79583d2,
    0x7e89f5dd36e66ef8,
    0x6d9fc7ded080442c,
    0x85824f891fe01267,
    0x714682bc890f91eb,
    0x3d1bdb808f10cc4b,
    0xa844d6fe3ad99220,
    0x6af067afb4106dbd,
    0xe0a1d697752c94a9,
    0x2143b78728452189,
    0x042f2d5f0ca5ffc3,
    0x97fb2b77911c990c,
    0xf1818d6d0acbf7f9,
    0xf3773068fbf8e164,
    0x186b792678c5e2a2,
    0x7169548bd65a7c79,
    0x779ea4220b7d748b,
    0xc0803370494bda4f,
    0x4657d26b906b3c65,
    0x2d55ce355a3a93ac,
    0x3f9df1ea9f186028,
    0xcc51fd60c2b22e28,
    0xed7d44d5b4fef97e,
    0xb0aac7dbfcfde40e,
    0x6c15a9c73cf40174,
    0x436d381a836c9890,
    0x2518003f19ef4c9e,
    0x10d9611efedf2c11,
    0x0ee0c8a38de8e858,
    0x3ab5f929ec9029e3,
    0xc1ca841f64f09133,
    0x02219a4080e695ed,
    0x6751f68e34d2c4ba,
    0x214ff4e500a43cb0,
    0x1b30a6a78df4ad2f,
    0xf981cc02471b15d6,
    0x366f514bd247e91f,
    0x1888e03cf41a634e,
    0x21d4ee93f09c924b,
    0xac72f6917730e886,
    0xa291fb9c8dd76b9e,
    0xbe5b60dad6f9eef4,
    0x4262e75146d17323,
    0xf40a392b7f9ee108,
    0x50797296051c82e5,
    0xb4aee8472b883f80,
    0x979743abf6d3f5eb,
    0x8a58d4dca9e08334,
    0x59747575d4ba5376,
    0x320daeda5d2d2904,
    0x72250f251d8160d9,
    0x80a95d4aa57e67eb,
    0x04ee798ed819f138,
    0xa81a56c53e7f95e7,
    0x970cdc883a2ea875,
    0x81ab26f43f37e4aa,
    0x01c5eaef38fa5a68,
    0xbb20a3c8a9c21a3d,
    0xfada1db1a883b6df,
    0x0f6c1958c30702a6,
];

#[test]
fn every_scenario_matches_its_pinned_digest() {
    let mut seen = Coverage::default();
    let got: Vec<u64> = (0..SCENARIOS).map(|i| digest(i, &mut seen)).collect();
    for row in got.chunks(4) {
        let row: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
        println!("    {},", row.join(", "));
    }
    println!("{seen:?}");
    let drifted: Vec<usize> = (0..SCENARIOS).filter(|&i| got[i] != PINNED[i]).collect();
    assert!(drifted.is_empty(), "scenarios {drifted:?} drifted");
    assert!(seen.outages >= 2, "{seen:?}");
    for (what, n) in [
        ("retried", seen.retried),
        ("fault-dropped", seen.fault_dropped),
        ("shed", seen.shed),
        ("scaled", seen.scaled),
        ("batched", seen.batched),
    ] {
        assert!(n >= 3, "only {n} scenarios {what}: {seen:?}");
    }
}

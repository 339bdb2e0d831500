//! Golden digests of the fleet monitor's whole output.
//!
//! 40 fixed fleets, drawn from a local seeded generator, vary what the
//! monitor folds: 1–5 chips, one or two tenants, routing epochs on and
//! off whole seconds (250–1000 ms), deadlines from 0.05 to 50 ms (so
//! some fleets page and some stay quiet), max batch 1–16, a chip kill
//! in about a third of them (at an epoch start or mid-epoch), a rolling
//! deploy in about a quarter, 1–3 routing cells per replica, and one or
//! two workers. Each run folds into one FNV-1a digest: the report JSON,
//! every dashboard frame, every alert, the dump trigger count, the
//! compliance report, the top offenders, and each chip's resolving
//! exemplar and dead flag; then, after a closing snapshot of every
//! chip, every retained dump's reason, time and Chrome trace.
//!
//! A change to how the monitor folds its logs must leave every digest
//! as it is; a change that means to move monitor output re-pins them
//! (run with `-- --nocapture` to print the current table).

use dtu_compiler::Fnv1a;
use dtu_fleet::{
    run_fleet_monitored, ChipKill, FleetConfig, FleetMonitor, FleetTenant, FleetTopology, RollPlan,
};
use dtu_graph::{Graph, Op, TensorType};
use dtu_harness::{SessionCache, SweepModel};
use dtu_sim::ChipConfig;
use dtu_telemetry::AlertKind;

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

const SCENARIOS: usize = 40;
const EPOCHS_MS: [f64; 5] = [250.0, 300.0, 500.0, 700.0, 1000.0];
const DEADLINES_MS: [f64; 6] = [0.05, 0.1, 0.2, 0.5, 5.0, 50.0];

fn conv_graph(batch: usize, channels: usize) -> Graph {
    let mut g = Graph::new("toy");
    let x = g.input("x", TensorType::fixed(&[batch, channels, 24, 24]));
    let c = g.add_node(Op::conv2d(16, 3, 1, 1), vec![x]).unwrap();
    g.mark_output(c);
    g
}

/// Tenant `t`'s model: two graphs with distinct fingerprints.
fn model(t: usize) -> SweepModel<'static> {
    match t {
        0 => SweepModel::new("toy", |batch| conv_graph(batch, 16)),
        _ => SweepModel::new("wide", |batch| conv_graph(batch, 32)),
    }
}

/// One fleet of the table: its chips, tenants, run and worker count.
struct Scenario {
    chips: usize,
    tenants: Vec<FleetTenant<'static>>,
    cfg: FleetConfig,
    jobs: usize,
}

/// Scenario `i` of the table.
fn scenario(i: usize) -> Scenario {
    let mut g = Gen(0x0F1E_E7A0 ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let chips = g.int(1, 5);
    let epoch_ms = g.pick(&EPOCHS_MS);
    let duration_ms = g.range(1_500.0, 3_500.0);
    let tenants = (0..g.int(1, 2))
        .map(|t| {
            let mut tenant = FleetTenant::new(model(t), g.range(300.0, 1_500.0) * chips as f64);
            tenant.deadline_ms = g.pick(&DEADLINES_MS);
            tenant.max_batch = g.int(1, 16);
            tenant.batch_timeout_ms = g.pick(&[0.0, 0.5, 2.0]);
            tenant.queue_depth = g.pick(&[16, 64, 256]);
            tenant.initial_groups = g.int(1, 2);
            tenant.autoscale = g.coin();
            tenant.replicas = g.int(0, chips);
            tenant
        })
        .collect();
    let kill = (g.int(0, 2) == 0).then(|| ChipKill {
        chip: g.int(0, chips - 1),
        at_ms: if g.coin() {
            g.int(0, 3) as f64 * epoch_ms
        } else {
            g.range(0.0, duration_ms)
        },
    });
    let roll = (g.int(0, 3) == 0).then(|| RollPlan::new(g.range(0.0, duration_ms), g.int(1, 2)));
    Scenario {
        chips,
        tenants,
        cfg: FleetConfig {
            duration_ms,
            epoch_ms,
            seed: g.next(),
            cells_per_replica: g.int(1, 3),
            roll,
            kill,
        },
        jobs: 1 + i % 2,
    }
}

/// What the table's runs covered, so the digests pin the paths the
/// monitor folds and not only the quiet ones.
#[derive(Debug, Default)]
struct Coverage {
    alerted: usize,
    paged: usize,
    killed: usize,
    rolled: usize,
    dumped: usize,
    multi_tenant: usize,
}

/// Folds everything `fm` shows an operator into `h`.
fn digest_monitor(h: &mut Fnv1a, fm: &FleetMonitor, chips: usize) {
    for frame in fm.frames() {
        h.write_str(&format!("{frame:?}"));
    }
    for alert in fm.alerts() {
        h.write_str(&format!("{alert:?}"));
    }
    h.write_u64(fm.triggers());
    h.write_str(&fm.compliance_json());
    h.write_str(&format!("{:?}", fm.top_offenders(10)));
    for chip in 0..chips {
        h.write_str(&format!(
            "{chip} {:?} {}",
            fm.resolving_exemplar(chip),
            fm.chip_dead(chip)
        ));
    }
}

/// Runs scenario `i` and digests everything its monitor and report
/// show.
fn digest(i: usize, cache: &SessionCache, seen: &mut Coverage) -> u64 {
    let s = scenario(i);
    let topo = FleetTopology::homogeneous(1, s.chips, &ChipConfig::dtu20()).unwrap();
    let (report, mut fm) = run_fleet_monitored(&topo, &s.tenants, &s.cfg, cache, s.jobs).unwrap();
    seen.alerted += usize::from(!fm.alerts().is_empty());
    seen.paged += usize::from(
        fm.alerts()
            .iter()
            .any(|a| a.event.kind == AlertKind::BurnRate),
    );
    seen.killed += usize::from(report.chips_lost > 0);
    seen.rolled += usize::from(report.chips_rolled > 0);
    seen.multi_tenant += usize::from(s.tenants.len() > 1);
    let mut h = Fnv1a::new();
    h.write_str(&report.to_json());
    digest_monitor(&mut h, &fm, s.chips);
    for chip in 0..s.chips {
        fm.snapshot_chip(chip, &format!("snapshot chip{chip}"));
    }
    seen.dumped += usize::from(!fm.dumps().is_empty());
    h.write_u64(fm.triggers());
    for dump in fm.dumps() {
        h.write_str(&dump.reason);
        h.write_u64(dump.at_ns.to_bits());
        h.write_str(&dump.to_chrome_trace(true));
    }
    h.finish()
}

/// The digests at the commit before chip-epochs folded their windows
/// in their own jobs.
const PINNED: [u64; SCENARIOS] = [
    0x03a6d5fb4351e465,
    0x3115c4cf973217c2,
    0xc4ba7da77333e343,
    0x5405e9fd86812fff,
    0x862eca26d42d1f6f,
    0xd1390a68fc3a5a55,
    0xc6f6cc414a0e4b22,
    0x6e22ebb3e6e1b532,
    0xc893846f8055adb1,
    0xa0f294e51815cdb5,
    0x3c27fe153b0e7bbd,
    0x0a90155bffc50cfd,
    0x362264e3ca1fcc7c,
    0xf4a63a5e87e8190c,
    0x095c3d58e1205507,
    0xc12f5c43857eb6ab,
    0x70ea2f760e907f83,
    0xa68205e751cb9a40,
    0x2e916df266c3361b,
    0x3ebe7a33cfc3aa09,
    0xe266fd0e3571da29,
    0xc8f345e012db513b,
    0xda699b7fe6ea9efa,
    0x16764f24ab3e409d,
    0x0ffc7c751ff7a188,
    0xf76c1f8c2295be91,
    0x11cd515a4b4ff3e9,
    0xd55121857484c5c8,
    0x299241c088294dd2,
    0x9f0c2dfa3d0817ec,
    0x4858fc0b08efff3a,
    0x73cbc4dc2f7fc01c,
    0x8061466b38230028,
    0xbd0c8033c641fd32,
    0x653fdc8a83502319,
    0xd1161602eb6a41a2,
    0xc556a20e1e8cac8f,
    0xe4cadc2d7d1518a7,
    0x72c8b8f29679533b,
    0x4f430171ce418c6a,
];

#[test]
fn every_fleet_matches_its_pinned_digest() {
    let cache = SessionCache::memory_only();
    let mut seen = Coverage::default();
    let got: Vec<u64> = (0..SCENARIOS)
        .map(|i| digest(i, &cache, &mut seen))
        .collect();
    for row in got.chunks(4) {
        let row: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
        println!("    {},", row.join(", "));
    }
    println!("{seen:?}");
    let drifted: Vec<usize> = (0..SCENARIOS).filter(|&i| got[i] != PINNED[i]).collect();
    assert!(drifted.is_empty(), "scenarios {drifted:?} drifted");
    for (what, n) in [
        ("alerted", seen.alerted),
        ("paged", seen.paged),
        ("killed", seen.killed),
        ("rolled", seen.rolled),
        ("dumped", seen.dumped),
        ("had two tenants", seen.multi_tenant),
    ] {
        assert!(n >= 5, "only {n} fleets {what}: {seen:?}");
    }
    assert!(seen.paged < SCENARIOS, "every fleet paged: {seen:?}");
}

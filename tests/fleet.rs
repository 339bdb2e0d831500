//! Fleet-layer integration tests: routing determinism across worker
//! counts and cache temperature, the power-of-two-choices balance
//! bound, chip-loss accounting, compile and price sharing across
//! chips and epochs, rolling-deploy availability, and the fleet
//! monitor: observational, in step with the report, and with page
//! dumps that hold their exemplar.

use dtu_compiler::Fnv1a;
use dtu_fleet::{
    run_fleet, run_fleet_monitored, ChipKill, FleetChip, FleetConfig, FleetMonitor, FleetTenant,
    FleetTopology, RollPlan,
};
use dtu_graph::{Graph, Op, TensorType};
use dtu_harness::{SessionCache, SweepModel};
use dtu_sim::ChipConfig;
use dtu_telemetry::flight::MAX_DUMPS;
use dtu_telemetry::AlertKind;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn conv_graph(batch: usize, channels: usize) -> Graph {
    let mut g = Graph::new("toy");
    let x = g.input("x", TensorType::fixed(&[batch, channels, 24, 24]));
    let c = g.add_node(Op::conv2d(16, 3, 1, 1), vec![x]).unwrap();
    g.mark_output(c);
    g
}

fn toy_model() -> SweepModel<'static> {
    SweepModel::new("toy", |batch| conv_graph(batch, 16))
}

/// A second tenant whose graph differs from [`toy_model`]'s.
fn wide_model() -> SweepModel<'static> {
    SweepModel::new("wide", |batch| conv_graph(batch, 32))
}

fn tiny_cfg(seed: u64) -> FleetConfig {
    FleetConfig {
        duration_ms: 1000.0,
        epoch_ms: 500.0,
        seed,
        cells_per_replica: 2,
        roll: None,
        kill: None,
    }
}

proptest! {
    /// The fleet report's JSON is a pure function of (topology,
    /// tenants, config): byte-identical whether the per-chip epoch
    /// simulations ran on one worker or four, and whether the artifact
    /// cache was cold or pre-warmed by a previous identical run.
    #[test]
    fn fleet_json_is_byte_identical_across_jobs_and_cache_temperature(seed in 0u64..1000) {
        let topo = FleetTopology::homogeneous(1, 2, &ChipConfig::dtu20()).unwrap();
        let cfg = tiny_cfg(seed);

        let cold = SessionCache::memory_only();
        let tenants = vec![FleetTenant::new(toy_model(), 600.0)];
        let j1 = run_fleet(&topo, &tenants, &cfg, &cold, 1).unwrap().to_json();

        let tenants = vec![FleetTenant::new(toy_model(), 600.0)];
        let j4 = run_fleet(&topo, &tenants, &cfg, &cold, 4).unwrap().to_json();
        prop_assert_eq!(&j1, &j4, "jobs 1 vs 4 diverged");

        // `cold` is now warm: every artifact of the run is cached.
        let tenants = vec![FleetTenant::new(toy_model(), 600.0)];
        let warm = run_fleet(&topo, &tenants, &cfg, &cold, 4).unwrap();
        prop_assert_eq!(&j1, &warm.to_json(), "cold vs warm cache diverged");
        prop_assert_eq!(warm.cache.misses, 0, "a warm cache compiles nothing");
    }
}

/// Power-of-two-choices keeps per-chip offered load within a small
/// constant factor under uniform traffic — no chip starves, no chip
/// hot-spots.
#[test]
fn fleet_load_stays_balanced_under_uniform_traffic() {
    let topo = FleetTopology::homogeneous(2, 4, &ChipConfig::dtu20()).unwrap();
    let tenants = vec![FleetTenant::new(toy_model(), 4000.0)];
    let cache = SessionCache::memory_only();
    let cfg = FleetConfig {
        duration_ms: 4000.0,
        epoch_ms: 500.0,
        ..tiny_cfg(11)
    };
    let r = run_fleet(&topo, &tenants, &cfg, &cache, 2).unwrap();
    assert!(r.chips_detail.iter().all(|c| c.offered > 0));
    assert!(
        r.load_ratio <= 2.0,
        "p2c bound violated: load ratio {}",
        r.load_ratio
    );
    assert!(r.accounting_balances());
}

/// Killing a whole chip mid-run loses capacity, not requests: the
/// scheduler re-places replicas on survivors and
/// `offered == completed + shed + fault_dropped` holds fleet-wide,
/// per tenant, and per chip.
#[test]
fn chip_loss_preserves_the_accounting_invariant() {
    let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
    let mut tenant = FleetTenant::new(toy_model(), 2000.0);
    tenant.replicas = 2;
    let cache = SessionCache::memory_only();
    let cfg = FleetConfig {
        duration_ms: 3000.0,
        epoch_ms: 1000.0,
        kill: Some(ChipKill {
            chip: 0,
            at_ms: 1400.0,
        }),
        ..tiny_cfg(7)
    };
    let r = run_fleet(&topo, &[tenant], &cfg, &cache, 2).unwrap();
    assert_eq!(r.chips_lost, 1);
    assert!(r.chips_detail[0].dead);
    assert_eq!(
        r.chips_detail[0].groups_lost,
        ChipConfig::dtu20().total_groups() as u64
    );
    assert_eq!(r.replica_moves, 1, "the lost replica moved to a survivor");
    assert!(r.accounting_balances(), "accounting leaked after chip loss");
    assert!(r.completed > 0, "survivors kept serving");
}

/// The compile-sharing audit: one model on K identical chips compiles
/// and walks each (graph, batch, placement) session exactly once
/// fleet-wide — every other chip-epoch reuses the price from the run's
/// table. Run with one worker so no two chips race to price the same
/// session (the counters are schedule-dependent under concurrency).
#[test]
fn identical_chips_share_compiled_sessions_fleet_wide() {
    let chip = ChipConfig::dtu20();
    let cfg = tiny_cfg(3);

    // Baseline: the artifacts one chip alone compiles at this rate.
    let solo_cache = SessionCache::memory_only();
    let solo_topo = FleetTopology::homogeneous(1, 1, &chip).unwrap();
    let tenants = vec![FleetTenant::new(toy_model(), 500.0)];
    let solo = run_fleet(&solo_topo, &tenants, &cfg, &solo_cache, 1).unwrap();
    assert!(solo.cache.misses > 0, "the solo run compiles something");
    assert_eq!(
        solo.pricing.walks, solo.cache.misses,
        "one walk per compile"
    );

    // K chips at K x the load dispatch the same batch buckets, yet the
    // fleet compiles no more artifacts than the single chip did.
    let k = 4;
    let fleet_cache = SessionCache::memory_only();
    let fleet_topo = FleetTopology::homogeneous(1, k, &chip).unwrap();
    let tenants = vec![FleetTenant::new(toy_model(), 500.0 * k as f64)];
    let fleet = run_fleet(&fleet_topo, &tenants, &cfg, &fleet_cache, 1).unwrap();
    assert_eq!(
        fleet.cache.misses, solo.cache.misses,
        "K identical chips must compile each artifact exactly once"
    );
    assert_eq!(
        fleet.pricing.walks, fleet.cache.misses,
        "each session is walked once fleet-wide"
    );
    let reused = |r: &dtu_fleet::FleetReport| r.pricing.lookups - r.pricing.walks;
    assert!(
        reused(&fleet) > reused(&solo),
        "the other K-1 chips reuse the walked prices: {:?} vs solo {:?}",
        fleet.pricing,
        solo.pricing
    );
}

/// A fleet run builds a graph only to walk a session it has never
/// priced, or to fingerprint a tenant for placement (once at the start
/// and once per lost chip) — however many chips and epochs it runs.
#[test]
fn graph_builds_are_bounded_by_walks_not_chip_epochs() {
    // (cards, chips per card, horizon ms, epoch ms, kill, jobs)
    let cases = [
        (1, 1, 1000.0, 500.0, None, 1),
        (1, 4, 2000.0, 250.0, None, 1),
        (2, 4, 2000.0, 500.0, None, 2),
        (1, 4, 3000.0, 500.0, Some((0, 1250.0)), 1),
        (2, 2, 3000.0, 500.0, Some((3, 0.0)), 2),
    ];
    for (cards, per_card, horizon, epoch, kill, jobs) in cases {
        let builds = AtomicU64::new(0);
        let counted = |name: &str, channels: usize| {
            let builds = &builds;
            SweepModel::new(name.to_string(), move |batch| {
                builds.fetch_add(1, Ordering::Relaxed);
                conv_graph(batch, channels)
            })
        };
        let mut wide = FleetTenant::new(counted("wide", 32), 300.0);
        wide.replicas = 2;
        let tenants = vec![FleetTenant::new(counted("toy", 16), 1500.0), wide];
        let topo = FleetTopology::homogeneous(cards, per_card, &ChipConfig::dtu20()).unwrap();
        let cfg = FleetConfig {
            duration_ms: horizon,
            epoch_ms: epoch,
            kill: kill.map(|(chip, at_ms)| ChipKill { chip, at_ms }),
            ..tiny_cfg(13)
        };
        let cache = SessionCache::memory_only();
        let r = run_fleet(&topo, &tenants, &cfg, &cache, jobs).unwrap();
        let builds = builds.load(Ordering::Relaxed);
        let bound = r.pricing.walks + tenants.len() as u64 * (1 + r.chips_lost);
        assert!(
            builds <= bound,
            "{} chips x {} epochs built {builds} graphs, over {bound} ({:?}, {} chips lost)",
            r.chips,
            r.epochs,
            r.pricing,
            r.chips_lost
        );
        assert!(r.pricing.lookups > r.pricing.walks, "prices were reused");
        if jobs == 1 {
            // Serial: a walk happens only for a session never compiled.
            assert_eq!(r.pricing.walks, r.cache.misses);
        }
    }
}

/// The fleet report for the hardest inputs is pinned byte for byte: a
/// heterogeneous topology (i20 and i10 chips, two chip-config
/// classes), two tenants, a roll in flight and a mid-epoch chip kill.
/// The digest was computed before chip-epochs shared a price table, so
/// it proves that sharing prices across chips, epochs and the kill's
/// truncated re-run leaves every simulated number unchanged, at one
/// worker and at four.
#[test]
fn heterogeneous_roll_and_kill_report_is_pinned() {
    const PINNED: u64 = 16_301_640_948_880_300_840;
    let chip = |card, slot, config| FleetChip { card, slot, config };
    let topo = FleetTopology::from_chips(vec![
        chip(0, 0, ChipConfig::dtu20()),
        chip(0, 1, ChipConfig::dtu10()),
        chip(1, 0, ChipConfig::dtu20()),
        chip(1, 1, ChipConfig::dtu10()),
    ])
    .unwrap();
    let cfg = FleetConfig {
        duration_ms: 4000.0,
        epoch_ms: 1000.0,
        roll: Some(RollPlan::new(1000.0, 1)),
        kill: Some(ChipKill {
            chip: 2,
            at_ms: 1500.0,
        }),
        ..tiny_cfg(9)
    };
    // Placement puts toy on the i20s and wide on the i10s. The kill
    // moves toy onto an i10, where it meets wide's (batch, groups)
    // sessions, so the key must tell tenants apart.
    let tenants = || {
        let mut a = FleetTenant::new(toy_model(), 1600.0);
        let mut b = FleetTenant::new(wide_model(), 500.0);
        for t in [&mut a, &mut b] {
            t.initial_groups = 1;
            t.replicas = 2;
        }
        vec![a, b]
    };
    for jobs in [1, 4] {
        let cache = SessionCache::memory_only();
        let r = run_fleet(&topo, &tenants(), &cfg, &cache, jobs).unwrap();
        assert_eq!((r.chips_lost, r.replica_moves), (1, 1));
        assert!(r.chips_rolled > 0 && r.completed > 0);
        assert!(r.accounting_balances());
        let mut digest = Fnv1a::new();
        digest.write_str(&r.to_json());
        assert_eq!(digest.finish(), PINNED, "jobs {jobs}: {}", r.to_json());
    }
}

/// A rolling deploy swaps every chip to the new version and reports
/// per-tenant availability over the epochs the roll was in flight.
#[test]
fn rolling_deploy_reports_availability_during_the_roll() {
    let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
    let tenants = vec![FleetTenant::new(toy_model(), 2000.0)];
    let cache = SessionCache::memory_only();
    let cfg = FleetConfig {
        duration_ms: 5000.0,
        epoch_ms: 1000.0,
        roll: Some(RollPlan::new(1000.0, 1)),
        ..tiny_cfg(5)
    };
    let r = run_fleet(&topo, &tenants, &cfg, &cache, 2).unwrap();
    assert_eq!(r.chips_rolled, 4);
    assert!(r.chips_detail.iter().all(|c| c.version == "v2"));
    let avail = r.tenants[0]
        .roll_availability
        .expect("traffic arrived during the roll");
    assert!(avail > 0.0 && avail <= 1.0);
    assert!(r.accounting_balances());
}

/// Checks every burn-rate page against the dump it froze: the dump
/// holds a span of the page's exemplar request (`req {id}`, late or
/// not), or the dump cap was reached before the page. Returns how many
/// page dumps it checked.
fn page_dumps_name_their_exemplar(fm: &FleetMonitor) -> usize {
    let mut checked = 0;
    for page in fm
        .alerts()
        .iter()
        .filter(|a| a.event.kind == AlertKind::BurnRate)
    {
        let Some(chip) = page.chip else { continue };
        let reason = format!("alert {} (chip{chip})", page.event.slo);
        let Some(dump) = fm
            .dumps()
            .iter()
            .find(|d| d.reason == reason && d.at_ns == page.event.t_ns)
        else {
            assert_eq!(fm.dumps().len(), MAX_DUMPS, "{page:?} froze no dump");
            continue;
        };
        let id = page.event.exemplar.expect("a page carries an exemplar");
        let name = format!("req {id}");
        assert!(
            dump.spans
                .iter()
                .any(|s| s.label == name || s.label == format!("{name} (late)")),
            "exemplar {id} of {reason} is not in its dump"
        );
        checked += 1;
    }
    checked
}

/// Each tenant's `completed` in the monitor's compliance report, in
/// tenant order.
fn compliance_completed(fm: &FleetMonitor) -> Vec<u64> {
    let json = fm.compliance_json();
    json.split("\"completed\":")
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("an integer count")
        })
        .collect()
}

/// Tight deadlines on a 4-chip toy fleet page, and most pages' exemplar
/// ran on another chip than the one whose ring the page dumps: the dump
/// must hold it all the same.
#[test]
fn fleet_page_dumps_hold_their_exemplar() {
    let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
    let cache = SessionCache::memory_only();
    let mut checked = 0;
    for seed in 0..6u64 {
        for (deadline_ms, qps) in [
            (0.05, 4000.0),
            (0.05, 16000.0),
            (0.5, 4000.0),
            (0.5, 16000.0),
        ] {
            let mut tenant = FleetTenant::new(toy_model(), qps);
            tenant.deadline_ms = deadline_ms;
            let cfg = FleetConfig {
                duration_ms: 6000.0,
                epoch_ms: 500.0,
                ..tiny_cfg(seed)
            };
            let (_, fm) = run_fleet_monitored(&topo, &[tenant], &cfg, &cache, 2).unwrap();
            checked += page_dumps_name_their_exemplar(&fm);
        }
    }
    assert!(checked >= 12, "only {checked} page dumps checked");
}

proptest! {
    /// Random fleets, epochs on and off whole seconds, with and without
    /// a mid-epoch kill: the monitored run reports exactly what the
    /// plain one does, the monitor's SLO books match the report when no
    /// chip dies, and every page dump names its exemplar.
    #[test]
    fn monitored_fleets_match_plain_ones(
        chips in 2usize..5,
        seed in 0u64..1000,
        qps in 500.0f64..6000.0,
        epoch_ms in prop::sample::select(vec![250.0, 300.0, 500.0, 1000.0]),
        deadline_ms in prop::sample::select(vec![0.05, 0.2, 50.0]),
        kill in prop::sample::select(vec![None, Some(0usize), Some(1)]),
        kill_at in 0.05f64..0.95,
    ) {
        let topo = FleetTopology::homogeneous(1, chips, &ChipConfig::dtu20()).unwrap();
        let duration_ms = 2500.0;
        let cfg = FleetConfig {
            duration_ms,
            epoch_ms,
            kill: kill.map(|chip| ChipKill {
                chip,
                at_ms: kill_at * duration_ms,
            }),
            ..tiny_cfg(seed)
        };
        let tenants = || {
            let mut t = FleetTenant::new(toy_model(), qps);
            t.deadline_ms = deadline_ms;
            vec![t]
        };
        let cache = SessionCache::memory_only();
        let plain = run_fleet(&topo, &tenants(), &cfg, &cache, 1).unwrap();
        let (monitored, fm) = run_fleet_monitored(&topo, &tenants(), &cfg, &cache, 2).unwrap();
        prop_assert_eq!(plain.to_json(), monitored.to_json());
        if kill.is_none() {
            let completed: Vec<u64> = plain.tenants.iter().map(|t| t.completed).collect();
            prop_assert_eq!(compliance_completed(&fm), completed);
        }
        page_dumps_name_their_exemplar(&fm);
    }
}

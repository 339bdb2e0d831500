//! Property tests for the live monitors: whatever the load, tenants,
//! faults and SLO, a monitored run returns exactly what the plain run
//! returns (errors included), the alerts the monitor raised are in
//! simulated-time order, and every burn-rate page's exemplar resolves
//! in the flight dump that page froze.

use dtu_serve::faults::{FaultPlan, PRESETS};
use dtu_serve::{
    run_generative, run_generative_live, run_serving, run_serving_live, AnalyticModel,
    AnalyticTokenModel, ArrivalProcess, BatchPolicy, GenLiveConfig, GenMonitor, GenerativeScenario,
    KvCacheConfig, LiveConfig, LiveMonitor, ServeConfig, ServeError, SlaPolicy, TenantSpec,
};
use dtu_sim::ChipConfig;
use dtu_telemetry::flight::MAX_DUMPS;
use dtu_telemetry::{AlertEvent, FlightDump, SloSpec};
use proptest::prelude::*;

/// A p99 objective at `deadline_ms`, or none.
fn slo(metric: &str, deadline_ms: Option<f64>) -> Option<SloSpec> {
    deadline_ms.map(|d| SloSpec::new(format!("{metric}_p99<{d}ms"), 0.99, d))
}

/// SLO deadlines: none, or tight enough to page under load.
fn deadlines() -> impl Strategy<Value = Option<f64>> {
    prop::sample::select(vec![None, Some(0.5), Some(2.0), Some(10.0)])
}

/// Checks a burn-rate page against the dump it froze: the dump named
/// `alert {slo} ({tenant})` at the page's time holds a span of the
/// page's exemplar request (`req {id}`, or `req {id} ...`: its
/// completion, prefill or tokens). A page past the retained dumps froze
/// none.
fn exemplar_resolves(dumps: &[FlightDump], alert: &AlertEvent, tenant: &str) {
    let reason = format!("alert {} ({tenant})", alert.slo);
    let Some(dump) = dumps
        .iter()
        .find(|d| d.reason == reason && d.at_ns == alert.t_ns)
    else {
        assert_eq!(dumps.len(), MAX_DUMPS, "page {alert:?} froze no dump");
        return;
    };
    let id = alert.exemplar.expect("a page carries an exemplar");
    let name = format!("req {id}");
    let names = |label: &str| {
        label
            .strip_prefix(&name)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
    };
    assert!(
        dump.spans.iter().any(|s| names(&s.label)),
        "exemplar {id} of {reason} is not in its dump"
    );
}

proptest! {
    #[test]
    fn monitored_serving_returns_the_plain_outcome(
        seed in 0u64..1_000_000,
        qps in 50.0f64..1_500.0,
        tenants in 1usize..3,
        groups in 1usize..3,
        plan in prop::sample::select(PRESETS.to_vec()),
        severity in 0.0f64..1.0,
        deadline_ms in deadlines(),
        record_requests in prop::sample::select(vec![false, true]),
    ) {
        let chip = ChipConfig::dtu20();
        let duration_ms = 2_500.0;
        let cfg = ServeConfig {
            duration_ms,
            seed,
            tenants: (0..tenants)
                .map(|i| TenantSpec {
                    batch: BatchPolicy::dynamic(4, 1.0),
                    sla: SlaPolicy::new(20.0, 64),
                    initial_groups: groups,
                    ..TenantSpec::poisson(format!("t{i}"), 0, qps)
                })
                .collect(),
            record_requests,
            faults: FaultPlan::preset(
                plan,
                seed,
                severity,
                chip.clusters,
                chip.groups_per_cluster,
                duration_ms * 1e6,
            )
            .expect("known preset"),
            ..ServeConfig::default()
        };
        let plain = run_serving(&cfg, &chip, &mut [&mut AnalyticModel::new("m", 0.5)]);
        let mut mon = LiveMonitor::new(LiveConfig {
            slo: slo("e2e", deadline_ms),
        });
        let live = run_serving_live(
            &cfg,
            &chip,
            &mut [&mut AnalyticModel::new("m", 0.5)],
            &mut mon,
        );
        // A fault that takes a tenant's last group fails both runs
        // alike, log included; the monitor records requests for its
        // fold whatever `cfg` asks, and returns what `cfg` asked for.
        prop_assert_eq!(&live, &plain, "{} qps, plan {} s{:.2}", qps, plan, severity);
        if let Err(ServeError::Outage(o)) = &plain {
            let last_ns = o.trace.events.last().map_or(0.0, |e| e.t_ns);
            prop_assert_eq!(mon.now_ns(), last_ns, "an aborted run ends at its last event");
        }
        prop_assert!(
            mon.alerts.windows(2).all(|w| w[0].1.t_ns <= w[1].1.t_ns),
            "alerts out of order: {:?}",
            mon.alerts
        );
        for (tenant, alert) in mon.burn_alerts() {
            exemplar_resolves(mon.flight.dumps(), alert, &cfg.tenants[*tenant].name);
        }
    }

    #[test]
    fn monitored_generation_returns_the_plain_outcome(
        seed in 0u64..1_000_000,
        qps in 20.0f64..1_500.0,
        total_pages in prop::sample::select(vec![40usize, 4096]),
        ttft_deadline_ms in deadlines(),
        tpot_deadline_ms in deadlines(),
    ) {
        let sc = GenerativeScenario {
            duration_ms: 2_500.0,
            seed,
            arrival: ArrivalProcess::Poisson { qps },
            prompt_tokens: 64,
            min_new_tokens: 2,
            max_new_tokens: 48,
            max_concurrency: 8,
            queue_depth: 128,
            ttft_deadline_ms: ttft_deadline_ms.unwrap_or(f64::INFINITY),
            tpot_deadline_ms: tpot_deadline_ms.unwrap_or(f64::INFINITY),
            kv: KvCacheConfig {
                page_tokens: 16,
                bytes_per_token: 1024,
                total_pages,
                l2_pages: 16,
                l3_gb_per_s: 100.0,
            },
        };
        let plain = run_generative(&sc, &mut AnalyticTokenModel::new("m"));
        let mut mon = GenMonitor::new(GenLiveConfig {
            ttft_slo: slo("ttft", ttft_deadline_ms),
            tpot_slo: slo("tpot", tpot_deadline_ms),
            ..GenLiveConfig::default()
        });
        let live = run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon);
        prop_assert_eq!(&live, &plain, "{} qps, {} pages", qps, total_pages);
        prop_assert!(
            mon.alerts.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "alerts out of order: {:?}",
            mon.alerts
        );
        for alert in mon.burn_alerts() {
            exemplar_resolves(mon.flight.dumps(), alert, &mon.config().tenant);
        }
    }
}

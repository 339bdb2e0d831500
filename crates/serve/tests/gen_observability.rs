//! Integration tests for generative observability: the live monitor
//! must be strictly observational, its windowed histograms must agree
//! with exact percentiles over an independent replay of the same
//! deterministic run, and its exemplars must survive preempt–resume
//! all the way into a frozen flight dump.

use dtu_serve::{
    percentile, run_generative, run_generative_live, AnalyticTokenModel, ArrivalProcess,
    GenDecodeStep, GenLiveConfig, GenMonitor, GenObserver, GenerativeScenario, KvCacheConfig,
};
use dtu_telemetry::SloSpec;

fn scenario(total_pages: usize) -> GenerativeScenario {
    GenerativeScenario {
        duration_ms: 400.0,
        seed: 11,
        arrival: ArrivalProcess::Poisson { qps: 150.0 },
        prompt_tokens: 64,
        min_new_tokens: 2,
        max_new_tokens: 40,
        max_concurrency: 8,
        queue_depth: 128,
        ttft_deadline_ms: f64::INFINITY,
        tpot_deadline_ms: f64::INFINITY,
        kv: KvCacheConfig {
            page_tokens: 16,
            bytes_per_token: 1024,
            total_pages,
            l2_pages: 16,
            l3_gb_per_s: 100.0,
        },
    }
}

/// Collects the exact per-request TTFT/TPOT samples as the engine
/// emits them — the independent cross-check against the monitor's
/// log-bucketed windowed histograms.
#[derive(Default)]
struct RawSamples {
    ttft: Vec<f64>,
    tpot: Vec<f64>,
}

impl GenObserver for RawSamples {
    fn on_first_token(&mut self, _t_ms: f64, _req: u64, ttft_ms: f64) {
        self.ttft.push(ttft_ms);
    }
    fn on_complete(
        &mut self,
        _t_ms: f64,
        _req: u64,
        _ttft_ms: f64,
        tpot_ms: f64,
        _e2e_ms: f64,
        _violated: bool,
    ) {
        self.tpot.push(tpot_ms);
    }
    fn on_decode(&mut self, _step: &GenDecodeStep) {}
}

#[test]
fn monitored_outcome_is_byte_identical_under_kv_pressure() {
    // Constrained pool: the monitored run sees preemptions, KV
    // exhaustions, and resumes, and still must not perturb anything.
    let mut sc = scenario(48);
    sc.arrival = ArrivalProcess::Poisson { qps: 1200.0 };
    sc.duration_ms = 150.0;
    let plain = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
    let mut mon = GenMonitor::new(GenLiveConfig {
        ttft_slo: Some(SloSpec::new("ttft_p99<1ms", 0.99, 1.0)),
        tpot_slo: Some(SloSpec::new("tpot_p99<1ms", 0.99, 1.0)),
        ..GenLiveConfig::default()
    });
    let live = run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
    assert!(live.report.preemptions > 0, "scenario must preempt");
    assert_eq!(plain.report, live.report);
    assert_eq!(plain.trace, live.trace);
    assert_eq!(plain.report.to_json(), live.report.to_json());
}

#[test]
fn windowed_percentiles_match_exact_within_two_percent() {
    // Include forced mid-stream preemption so resumed requests'
    // (larger) TTFTs are part of the distribution under test.
    for pages in [4096, 64] {
        let sc = scenario(pages);
        let mut raw = RawSamples::default();
        run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut raw).unwrap();
        let mut mon = GenMonitor::with_defaults();
        run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();

        raw.ttft.sort_by(f64::total_cmp);
        raw.tpot.sort_by(f64::total_cmp);
        assert!(!raw.ttft.is_empty());
        let ttft = mon.ttft.hist.merged();
        let tpot = mon.tpot.hist.merged();
        assert_eq!(ttft.count() as usize, raw.ttft.len());
        assert_eq!(tpot.count() as usize, raw.tpot.len());
        for (metric, hist, exact) in [("ttft", &ttft, &raw.ttft), ("tpot", &tpot, &raw.tpot)] {
            for q in [0.50, 0.90, 0.99] {
                let approx = hist.quantile(q);
                let truth = percentile(exact, q);
                let err = if truth == 0.0 {
                    approx.abs()
                } else {
                    (approx - truth).abs() / truth
                };
                assert!(
                    err <= 0.02,
                    "{metric} p{:.0} (pages {pages}): hist {approx} vs exact {truth} \
                     (err {err:.4})",
                    q * 100.0
                );
            }
        }
    }
}

#[test]
fn preempted_exemplar_resolves_in_flight_dump() {
    // Forced mid-stream preemption: the slowest-TTFT request is one
    // that sat preempted, and its exemplar span id must resolve inside
    // the dump the KV pressure froze.
    let mut sc = scenario(48);
    sc.arrival = ArrivalProcess::Poisson { qps: 1200.0 };
    sc.duration_ms = 150.0;
    let mut mon = GenMonitor::with_defaults();
    let out = run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
    assert!(out.report.preemptions > 0);
    assert!(
        mon.flight.len() < mon.flight.capacity(),
        "the default ring retains the full run"
    );

    // Independent trace replay names the preemption victims.
    let preempted: Vec<u64> = out
        .trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            dtu_serve::ServeEventKind::Preempt { req, .. } => Some(req),
            _ => None,
        })
        .collect();
    assert!(!preempted.is_empty());

    // The KV-pressure dump names the first victim, and that victim's
    // token timeline resolves inside it.
    let dump = mon
        .flight
        .dumps()
        .iter()
        .find(|d| d.reason.starts_with("kv-exhaustion"))
        .expect("KV pressure froze a dump");
    let victim: u64 = dump
        .reason
        .split(&['(', ' '][..])
        .find_map(|w| w.parse().ok())
        .expect("dump reason names a request id");
    assert_eq!(victim, preempted[0], "dump names the first victim");
    assert!(dump.resolves_label(&format!("req {victim}")));
    assert!(dump
        .spans
        .iter()
        .any(|s| s.label.starts_with(&format!("req {victim} prefill"))));
    assert!(dump
        .spans
        .iter()
        .any(|s| s.label.starts_with(&format!("req {victim} tok "))));

    // The run-wide TTFT exemplar (slowest first token) resolves in a
    // ring snapshot frozen at end of run — exemplars stay keyed by
    // request id through preempt–resume, so the lookup path is the
    // same for victims and non-victims.
    let end_ns = mon.now_ns();
    let exemplar = mon
        .ttft
        .hist
        .exemplar_over(end_ns, end_ns)
        .expect("run-wide TTFT exemplar");
    mon.flight.trigger("end-of-run snapshot", end_ns);
    let snap = mon.flight.latest().expect("just triggered");
    assert!(
        snap.resolves_label(&format!("req {}", exemplar.span_id)),
        "exemplar {} must resolve in the snapshot",
        exemplar.span_id
    );
}

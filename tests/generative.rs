//! Generative-serving integration tests: the continuous batcher's
//! accounting identity under KV pressure, schedule-independence of the
//! offered workload, determinism of the compiled path across cache
//! temperature, and the report's TTFT/TPOT/e2e percentiles
//! cross-checked against `dtu_serve::percentile` over samples
//! reconstructed from the event trace by an independent replay.

use dtu::Accelerator;
use dtu_harness::{run_generative_serve, SessionCache};
use dtu_models::GenerativeConfig;
use dtu_serve::{
    percentile, run_generative, AnalyticTokenModel, ArrivalProcess, GenerativeScenario,
    KvCacheConfig, ServeEventKind,
};
use dtu_sim::ChipConfig;

fn kv(total_pages: usize) -> KvCacheConfig {
    KvCacheConfig {
        page_tokens: 16,
        bytes_per_token: 1024,
        total_pages,
        l2_pages: 16,
        l3_gb_per_s: 100.0,
    }
}

fn scenario(total_pages: usize) -> GenerativeScenario {
    GenerativeScenario {
        duration_ms: 400.0,
        seed: 7,
        arrival: ArrivalProcess::Poisson { qps: 150.0 },
        prompt_tokens: 64,
        min_new_tokens: 2,
        max_new_tokens: 40,
        max_concurrency: 8,
        queue_depth: 64,
        ttft_deadline_ms: f64::INFINITY,
        tpot_deadline_ms: f64::INFINITY,
        kv: kv(total_pages),
    }
}

#[test]
fn batcher_accounting_balances_with_midstream_preemption() {
    // A pool far smaller than the concurrent worst case forces
    // mid-stream evictions; every preempted request must still drain
    // to completion (or have been shed at arrival), never vanish.
    let mut sc = scenario(40);
    sc.arrival = ArrivalProcess::Poisson { qps: 2500.0 };
    sc.duration_ms = 120.0;
    sc.queue_depth = 1024;
    let out = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
    let r = &out.report;
    assert_eq!(
        r.offered,
        r.completed + r.shed + r.fault_dropped,
        "accounting identity: {r:?}"
    );
    assert_eq!(r.fault_dropped, 0);
    assert!(r.preemptions > 0, "constrained pool must preempt: {r:?}");
    assert!(r.kv.exhaustions > 0, "reservations must have failed");
    assert!(r.completed > 0, "preemption must not starve completion");
    let preempt_events = out
        .trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, ServeEventKind::Preempt { .. }))
        .count() as u64;
    assert_eq!(preempt_events, r.preemptions);
}

#[test]
fn kv_exhaustion_shows_up_as_shed_accounting() {
    // Four pages can never hold prompt 64 + answer: every arrival is
    // impossible and must be shed at admission, not livelocked.
    let mut sc = scenario(4);
    sc.min_new_tokens = 64;
    sc.max_new_tokens = 64;
    let out = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
    let r = &out.report;
    assert!(r.offered > 0);
    assert_eq!(r.shed, r.offered);
    assert_eq!(r.completed, 0);
    assert_eq!(r.offered, r.completed + r.shed + r.fault_dropped);
}

#[test]
fn offered_lengths_are_schedule_independent() {
    // The per-request output length depends only on (seed, id): a
    // wildly different schedule (tiny pool vs ample pool) must draw
    // identical targets.
    let ample = scenario(1 << 20);
    let tight = scenario(40);
    for id in 0..200u64 {
        assert_eq!(ample.target_tokens(id), tight.target_tokens(id));
    }
}

/// Replays the event trace with an independent state machine and
/// recovers each request's (ttft, tpot, e2e) sample. Only valid for
/// preemption-free runs, where admission order is exactly arrival
/// (FIFO) order.
fn replay_samples(
    sc: &GenerativeScenario,
    trace: &dtu_serve::ServingTrace,
) -> Vec<(f64, f64, f64)> {
    struct Live {
        arrival_ms: f64,
        first_ms: f64,
        produced: usize,
        target: usize,
    }
    let mut waiting: std::collections::VecDeque<(u64, f64)> = Default::default();
    let mut running: Vec<Live> = Vec::new();
    let mut samples = Vec::new();
    let finish = |l: &Live, end: f64, out: &mut Vec<(f64, f64, f64)>| {
        let ttft = l.first_ms - l.arrival_ms;
        let tpot = if l.target > 1 {
            (end - l.first_ms) / (l.target - 1) as f64
        } else {
            0.0
        };
        out.push((ttft, tpot, end - l.arrival_ms));
    };
    for e in &trace.events {
        let t = e.t_ns / 1e6;
        match e.kind {
            ServeEventKind::Arrival { req, .. } => waiting.push_back((req, t)),
            ServeEventKind::Prefill {
                batch, service_ms, ..
            } => {
                let end = t + service_ms;
                for _ in 0..batch {
                    let (id, arrival_ms) = waiting.pop_front().expect("joiner was queued");
                    let live = Live {
                        arrival_ms,
                        first_ms: end,
                        produced: 1,
                        target: sc.target_tokens(id),
                    };
                    if live.produced >= live.target {
                        finish(&live, end, &mut samples);
                    } else {
                        running.push(live);
                    }
                }
            }
            ServeEventKind::DecodeStep { service_ms, .. } => {
                let end = t + service_ms;
                let mut i = 0;
                while i < running.len() {
                    running[i].produced += 1;
                    if running[i].produced >= running[i].target {
                        let live = running.remove(i);
                        finish(&live, end, &mut samples);
                    } else {
                        i += 1;
                    }
                }
            }
            _ => {}
        }
    }
    assert!(running.is_empty() && waiting.is_empty(), "run must drain");
    samples
}

#[test]
fn report_percentiles_match_exact_percentile_over_replayed_samples() {
    // Ample KV: no preemptions, so the trace replay is exact and the
    // report's TTFT/TPOT/e2e stats must equal `percentile` over the
    // independently reconstructed per-request samples.
    let sc = scenario(1 << 20);
    let out = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
    assert_eq!(out.report.preemptions, 0, "replay requires FIFO admission");
    let samples = replay_samples(&sc, &out.trace);
    assert_eq!(samples.len() as u64, out.report.completed);
    assert!(samples.len() > 20, "need a real population to cross-check");

    let close = |a: f64, b: f64, what: &str| {
        let tol = 1e-9 * a.abs().max(b.abs()).max(1e-6);
        assert!((a - b).abs() <= tol, "{what}: report {a} vs replay {b}");
    };
    for (pick, stats, what) in [
        (0usize, &out.report.ttft, "ttft"),
        (1, &out.report.tpot, "tpot"),
        (2, &out.report.e2e, "e2e"),
    ] {
        let mut v: Vec<f64> = samples.iter().map(|s| [s.0, s.1, s.2][pick]).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        close(stats.p50_ms, percentile(&v, 0.50), &format!("{what} p50"));
        close(stats.p95_ms, percentile(&v, 0.95), &format!("{what} p95"));
        close(stats.p99_ms, percentile(&v, 0.99), &format!("{what} p99"));
        close(
            stats.max_ms,
            *v.last().expect("non-empty"),
            &format!("{what} max"),
        );
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        close(stats.mean_ms, mean, &format!("{what} mean"));
        assert_eq!(stats.count, v.len() as u64);
    }
}

#[test]
fn compiled_path_is_byte_identical_across_cache_temperature() {
    let accel = Accelerator::cloudblazer_i20();
    let cfg = GenerativeConfig::tiny();
    let sc = GenerativeScenario {
        duration_ms: 30.0,
        seed: 7,
        arrival: ArrivalProcess::Poisson { qps: 500.0 },
        prompt_tokens: 32,
        min_new_tokens: 2,
        max_new_tokens: 10,
        max_concurrency: 4,
        queue_depth: 64,
        ttft_deadline_ms: f64::INFINITY,
        tpot_deadline_ms: f64::INFINITY,
        kv: KvCacheConfig::for_chip(&ChipConfig::dtu20(), cfg.kv_bytes_per_token()),
    };
    let cache = SessionCache::memory_only();
    let cold = run_generative_serve(&accel, &cfg, &sc, &cache, None).unwrap();
    let warm = run_generative_serve(&accel, &cfg, &sc, &cache, None).unwrap();
    assert_eq!(cold.report.to_json(), warm.report.to_json());
    assert_eq!(cold.trace, warm.trace);
    assert!(cold.report.completed > 0);
    assert!(cold.report.decode_tokens > 0);
    assert!(cold.report.balanced());
}

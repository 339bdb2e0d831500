//! Property tests for SLA-aware admission control: whatever the load,
//! batching, and queue-cap parameters, the engine's accounting must
//! stay consistent and no late completion may slip past unflagged.

use dtu_serve::{
    run_serving, AnalyticModel, ArrivalProcess, BatchPolicy, ScalePolicy, ServeConfig, SlaPolicy,
    TenantSpec,
};
use dtu_sim::ChipConfig;
use proptest::prelude::*;

proptest! {
    #[test]
    fn admission_never_hides_a_late_completion(
        seed in 0u64..1_000_000,
        qps in 100.0f64..3_000.0,
        deadline_ms in 2.0f64..40.0,
        max_queue_depth in 1usize..32,
        max_batch in 1usize..9
    ) {
        let cfg = ServeConfig {
            duration_ms: 400.0,
            seed,
            record_requests: true,
            faults: Default::default(),
            retry: Default::default(),
            tenants: vec![TenantSpec {
                name: "t".into(),
                model: 0,
                arrival: ArrivalProcess::Poisson { qps },
                batch: BatchPolicy::dynamic(max_batch, 1.5),
                sla: SlaPolicy::new(deadline_ms, max_queue_depth),
                scale: ScalePolicy::none(),
                cluster: Some(0),
                initial_groups: 1,
            }],
        };
        let mut model = AnalyticModel::new("unit", 0.9);
        let out = run_serving(&cfg, &ChipConfig::dtu20(), &mut [&mut model])
            .expect("run");

        // Conservation: every offered request either completed or was
        // shed -- nothing vanishes, nothing is double-counted.
        prop_assert_eq!(
            out.report.offered,
            out.report.completed + out.report.shed
        );
        prop_assert_eq!(out.requests.len() as u64, out.report.completed);

        // A completion past its deadline MUST be flagged violated, and
        // only those completions may be flagged.
        let mut late = 0u64;
        for r in &out.requests {
            prop_assert_eq!(
                r.violated,
                r.done_ms > r.deadline_ms,
                "request {} done {} deadline {} flagged {}",
                r.req, r.done_ms, r.deadline_ms, r.violated
            );
            if r.violated {
                late += 1;
            }
            prop_assert!(r.done_ms >= r.arrival_ms);
        }
        prop_assert_eq!(late, out.report.violations);

        // The queue cap is a hard bound: with depth limit d and batch
        // cap b, at most d requests wait while b are in flight, so no
        // completion can wait longer than (d + b) service times plus
        // the batching timeout (unit service is 0.9 * 3.1 at worst).
        let worst_service = 0.9 * 3.1;
        let bound = (max_queue_depth + max_batch) as f64 * worst_service + 1.5 + 1e-9;
        for r in &out.requests {
            prop_assert!(
                r.done_ms - r.arrival_ms <= bound,
                "latency {} exceeds queue-cap bound {}",
                r.done_ms - r.arrival_ms, bound
            );
        }
    }
}

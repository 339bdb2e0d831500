//! Cloud inference serving with QoS: Poisson request load over isolated
//! multi-tenant processing groups (§IV-E's deployment story), reporting
//! the tail-latency statistics an SLA is written against — then the
//! full event-driven serving stack (dtu-serve) with two models, dynamic
//! batching, SLA admission, and elastic group scaling.
//!
//! ```sh
//! cargo run --release --example cloud_serving
//! ```

use dtu::serve::{
    run_serving, ArrivalProcess, BatchPolicy, CompiledModel, ScalePolicy, ServeConfig, ServeReport,
    ServiceModel, SlaPolicy, TenantSpec,
};
use dtu::{Accelerator, DtuError, Placement};
use dtu_models::Model;
use dtu_sim::GroupId;

/// Poisson load at `qps` per tenant over `tenants` isolated processing
/// groups, one per tenant packed cluster-major, with no batching,
/// shedding or scaling: an M/D/1 queue per tenant, since the
/// accelerator's latency is deterministic.
fn isolated_tenants(
    accel: &Accelerator,
    model: &mut CompiledModel<'_>,
    tenants: usize,
    qps: f64,
) -> Result<ServeReport, DtuError> {
    let gpc = accel.config().groups_per_cluster;
    let cfg = ServeConfig {
        duration_ms: 400.0,
        seed: 42,
        tenants: (0..tenants)
            .map(|i| {
                let mut spec = TenantSpec::poisson(format!("tenant{i}"), 0, qps);
                spec.cluster = Some(i / gpc);
                spec
            })
            .collect(),
        ..ServeConfig::default()
    };
    Ok(run_serving(&cfg, accel.config(), &mut [model])?.report)
}

fn main() -> Result<(), DtuError> {
    let accel = Accelerator::cloudblazer_i20();
    let mut model = CompiledModel::new(accel.chip(), "resnet50", |b| Model::Resnet50.build(b));
    // One inference on one group: the deterministic service time.
    let one_group = Placement::explicit(vec![GroupId::new(0, 0)]);
    let service_ms = model.service_ms(1, &one_group)?;

    println!("ResNet-50 serving on the i20, one isolated group per tenant\n");
    println!(
        "{:>10} {:>8} {:>10} {:>9} {:>9} {:>9} {:>8}",
        "load(QPS)", "tenants", "thru(QPS)", "p50(ms)", "p95(ms)", "p99(ms)", "util"
    );
    // Sweep offered load per tenant from light to near saturation.
    for qps in [100.0, 300.0, 500.0, 650.0] {
        let report = isolated_tenants(&accel, &mut model, 6, qps)?;
        println!(
            "{:>10.0} {:>8} {:>10.0} {:>9.2} {:>9.2} {:>9.2} {:>7.0}%",
            qps,
            6,
            report.throughput_qps,
            report.latency.p50_ms,
            report.latency.p95_ms,
            report.latency.p99_ms,
            qps * service_ms / 1e3 * 100.0
        );
    }

    println!();
    println!("Isolation means each tenant's tail depends only on its own load —");
    println!("six tenants at moderate load serve ~6x the throughput of one with");
    println!("the same per-tenant latency distribution:");
    for tenants in [1usize, 6] {
        let qps = 300.0;
        let r = isolated_tenants(&accel, &mut model, tenants, qps)?;
        println!(
            "  {tenants} tenant(s): {} reqs, {:.0} QPS, p50/p95/p99 = {:.2}/{:.2}/{:.2} ms \
             (service {service_ms:.2} ms, util {:.0}%)",
            r.completed,
            r.throughput_qps,
            r.latency.p50_ms,
            r.latency.p95_ms,
            r.latency.p99_ms,
            qps * service_ms / 1e3 * 100.0
        );
    }

    // --- The full serving stack: two models, dynamic batching, SLA
    // admission, and elastic scaling, on one chip concurrently. ---
    println!();
    println!("dtu-serve: ResNet-50 + BERT-Large tenants, dynamic batching (max 8,");
    println!("2 ms timeout), 50/150 ms SLAs, elastic 1..3-group scaling:\n");

    let mut resnet = CompiledModel::new(accel.chip(), "resnet50", |b| Model::Resnet50.build(b));
    let mut bert = CompiledModel::new(accel.chip(), "bert-large", |b| Model::BertLarge.build(b));

    let cfg = ServeConfig {
        duration_ms: 500.0,
        seed: 42,
        record_requests: false,
        faults: Default::default(),
        retry: Default::default(),
        tenants: vec![
            TenantSpec {
                name: "vision".into(),
                model: 0,
                arrival: ArrivalProcess::Bursty {
                    base_qps: 300.0,
                    burst_qps: 1200.0,
                    mean_dwell_ms: 80.0,
                },
                batch: BatchPolicy::dynamic(8, 2.0),
                sla: SlaPolicy::new(50.0, 48),
                scale: ScalePolicy::elastic(10.0, 2.0, 3),
                cluster: Some(0),
                initial_groups: 1,
            },
            TenantSpec {
                name: "language".into(),
                model: 1,
                arrival: ArrivalProcess::Poisson { qps: 40.0 },
                batch: BatchPolicy::dynamic(4, 4.0),
                sla: SlaPolicy::new(150.0, 64),
                scale: ScalePolicy::elastic(16.0, 3.0, 3),
                cluster: Some(1),
                initial_groups: 1,
            },
        ],
    };
    let out = run_serving(&cfg, accel.config(), &mut [&mut resnet, &mut bert])?;
    print!("{}", out.report);
    println!();
    for m in [&resnet, &bert] {
        let s = m.cache_stats();
        println!(
            "  session cache [{}]: {} sessions, {} hits / {} misses",
            m.name(),
            m.cached_sessions(),
            s.hits,
            s.misses
        );
    }
    Ok(())
}

//! Reproduces Fig. 7: resource abstraction and assignment for
//! multi-task/tenancy — deploying the same workload on 1, 2, or 3
//! processing groups of one cluster, and running isolated tenants on
//! separate groups concurrently.

use dtu::serve::{
    run_serving, ArrivalProcess, BatchPolicy, CompiledModel, ScalePolicy, ServeConfig,
    ServeEventKind, SlaPolicy, TenantSpec,
};
use dtu::{Accelerator, Placement, Session, SessionOptions, WorkloadSize};
use dtu_compiler::{compile, CompilerConfig};
use dtu_models::Model;
use dtu_sim::GroupId;

fn main() {
    dtu_bench::cli::parse_or_exit(&dtu_bench::cli::REPRO_FIXED, 1);
    let accel = Accelerator::cloudblazer_i20();
    let model = Model::Resnet50;
    let graph = model.build(1);

    println!("== Fig. 7: one workload on 1 / 2 / 3 processing groups of a cluster ==");
    println!("{:<10} {:>12} {:>14}", "Groups", "lat (ms)", "speedup vs 1");
    let mut base = 0.0;
    for (size, n) in [
        (WorkloadSize::Small, 1usize),
        (WorkloadSize::Medium, 2),
        (WorkloadSize::Large, 3),
    ] {
        let session = Session::compile(
            &accel,
            &graph,
            SessionOptions {
                size,
                ..Default::default()
            },
        )
        .expect("compile");
        let lat = session.run().expect("run").latency_ms();
        if n == 1 {
            base = lat;
        }
        println!("{:<10} {:>12.3} {:>13.2}x", n, lat, base / lat);
    }

    println!();
    println!("== Isolation: three tenants on separate groups of one cluster ==");
    // Three independent single-group tenants; hardware isolation means
    // each should see (nearly) the latency it gets when running alone —
    // only the shared HBM interface couples them.
    let chip_cfg = accel.config().clone();
    let solo = {
        let p = Placement::explicit(vec![GroupId::new(0, 0)]);
        let prog = compile(&graph, &chip_cfg, &p, &CompilerConfig::for_chip(&chip_cfg))
            .expect("compile solo");
        accel.chip().run(&prog).expect("run solo").latency_ns / 1e6
    };
    // Build one program holding three tenants' streams (same model each).
    let mut combined = dtu_sim::Program::new("three-tenants");
    for g in 0..3 {
        let p = Placement::explicit(vec![GroupId::new(0, g)]);
        let prog = compile(&graph, &chip_cfg, &p, &CompilerConfig::for_chip(&chip_cfg))
            .expect("compile tenant");
        for s in prog.streams {
            combined.add_stream(s);
        }
    }
    let tenants = accel.chip().run(&combined).expect("run tenants");
    let per_tenant_ms = tenants.latency_ns / 1e6;
    println!("single tenant alone (1 group): {solo:.3} ms");
    println!("3 tenants concurrently:        {per_tenant_ms:.3} ms each (worst)");
    println!(
        "interference factor: {:.2}x (1.0 = perfect isolation; >1 reflects the shared HBM interface)",
        per_tenant_ms / solo
    );
    println!(
        "aggregate throughput: {:.0} samples/s vs {:.0} samples/s single-tenant",
        3.0 / (per_tenant_ms / 1e3),
        1.0 / (solo / 1e3)
    );

    println!();
    println!("== Fig. 7 online: elastic 1->2->3 group assignment under bursty load ==");
    // The static sweep above picks a group count offline; the serving
    // layer makes the same decision online, watching queueing delay.
    let mut resnet = CompiledModel::new(accel.chip(), "resnet50", |b| Model::Resnet50.build(b));
    let cfg = ServeConfig {
        duration_ms: 800.0,
        seed: 7,
        record_requests: false,
        faults: Default::default(),
        retry: Default::default(),
        tenants: vec![TenantSpec {
            name: "bursty".into(),
            model: 0,
            arrival: ArrivalProcess::Bursty {
                base_qps: 200.0,
                burst_qps: 1500.0,
                mean_dwell_ms: 120.0,
            },
            batch: BatchPolicy::dynamic(4, 2.0),
            sla: SlaPolicy::new(50.0, 64),
            scale: ScalePolicy::elastic(8.0, 1.5, 3),
            cluster: Some(0),
            initial_groups: 1,
        }],
    };
    let out = run_serving(&cfg, accel.config(), &mut [&mut resnet]).expect("serve");
    print!("{}", out.report);
    for e in &out.trace.events {
        if let ServeEventKind::Scale { from, to } = e.kind {
            println!("  t={:>6.1} ms: scaled {from} -> {to} groups", e.t_ms());
        }
    }
}

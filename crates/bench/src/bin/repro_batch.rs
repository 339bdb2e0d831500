//! Reproduces the §VI-D "Latency v.s. Throughput" experiment: VGG16 at
//! batch sizes 8 and 16, Cloudblazer i20 vs Nvidia A10.
//!
//! Paper: "Cloudblazer i20 is able to perform better than Nvidia's A10
//! with improvements of 1.11x and 1.17x, respectively" — the gain
//! *grows* with batch because the i20's isolated processing groups run
//! batch shards concurrently and broadcast the shared weights once per
//! cluster.
//!
//! The offline points run through the harness sweep runner (the same
//! engine behind `topsexec sweep`), and the serving section routes its
//! compilations through the same session cache, so the two halves of
//! the experiment share one artifact store.

use dtu::serve::{
    run_serving, ArrivalProcess, BatchPolicy, CompiledModel, ScalePolicy, ServeConfig, SlaPolicy,
    TenantSpec,
};
use dtu::Accelerator;
use dtu_bench::cli;
use dtu_harness::{run_sweep, SweepModel};
use dtu_models::Model;
use gpu_baseline::RooflineModel;

fn main() {
    let run = cli::parse_or_exit(&cli::REPRO, 1);
    let jobs = cli::jobs(&run);
    let cache = cli::session_cache(&run);
    println!("== VGG16 batched throughput: i20 vs A10 ==");
    println!(
        "{:<8} {:>14} {:>14} {:>12}",
        "Batch", "i20 (samp/s)", "A10 (samp/s)", "i20/A10"
    );
    let accel = Accelerator::cloudblazer_i20();
    let vgg = [SweepModel::new("vgg16", |b| Model::Vgg16.build(b))];
    let sweep = run_sweep(&accel, &vgg, &[8, 16], &cache, jobs).expect("VGG16 sweep");
    let mut ratios = Vec::new();
    for p in &sweep.points {
        let graph = Model::Vgg16.build(p.batch);
        let a10 = RooflineModel::a10().estimate(&graph).expect("A10 estimate");
        let a10_tp = a10.throughput(p.batch);
        let ratio = p.throughput_sps / a10_tp;
        ratios.push(ratio);
        println!(
            "{:<8} {:>14.0} {:>14.0} {:>11.2}x",
            p.batch, p.throughput_sps, a10_tp, ratio
        );
    }
    println!();
    println!(
        "Paper: 1.11x at batch 8 and 1.17x at batch 16 (improvement grows with batch: {})",
        if ratios[1] > ratios[0] {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );

    println!();
    println!("== Dynamic batching under load (serving view) ==");
    // The offline sweep fixes the batch; the serving layer forms batches
    // online from a live queue. Same chip, same model, arrival-driven —
    // and the same artifact cache underneath both.
    let serve = |max_batch: usize| {
        let mut resnet = CompiledModel::new(accel.chip(), "resnet50", |b| Model::Resnet50.build(b))
            .with_source(&cache);
        let cfg = ServeConfig {
            duration_ms: 600.0,
            seed: 21,
            record_requests: false,
            faults: Default::default(),
            retry: Default::default(),
            tenants: vec![TenantSpec {
                name: format!("b{max_batch}"),
                model: 0,
                arrival: ArrivalProcess::Poisson { qps: 3600.0 },
                batch: BatchPolicy::dynamic(max_batch, 2.0),
                sla: SlaPolicy::new(50.0, 64),
                scale: ScalePolicy::none(),
                cluster: Some(0),
                initial_groups: 3,
            }],
        };
        run_serving(&cfg, accel.config(), &mut [&mut resnet]).expect("serve")
    };
    let unbatched = serve(1);
    let batched = serve(16);
    println!("ResNet-50, three groups, 3600 QPS offered:");
    println!(
        "  batch 1 fixed  : {:>5.0} QPS sustained, p99 {:>7.2} ms, {} shed",
        unbatched.report.throughput_qps, unbatched.report.latency.p99_ms, unbatched.report.shed
    );
    println!(
        "  dynamic (<=16) : {:>5.0} QPS sustained, p99 {:>7.2} ms, {} shed (mean batch {:.1})",
        batched.report.throughput_qps,
        batched.report.latency.p99_ms,
        batched.report.shed,
        batched.report.mean_batch()
    );
    println!(
        "  dynamic batching sustains {:.2}x the throughput at equal load",
        batched.report.throughput_qps / unbatched.report.throughput_qps
    );
    let s = cache.stats();
    println!();
    println!(
        "shared session cache (sweep + serving): {} memory + {} disk hits, {} misses",
        s.memory_hits, s.disk_hits, s.misses
    );
}

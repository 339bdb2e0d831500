//! Reproduces Fig. 13: DNN latency across platforms, batch 1, FP16,
//! normalised to the T4 (the paper omits i10, which loses to the i20 on
//! every DNN — verified by `repro_ablation`).
//!
//! Paper reference points: GeoMean speedups 2.22x (vs T4) and 1.16x
//! (vs A10); SRResNet is the i20's best case at 4.34x / 2.37x; the A10
//! wins 3 of 10 (image classification); the i20 wins all three object
//! detection models.

fn main() {
    let run = dtu_bench::cli::parse_or_exit(&dtu_bench::cli::REPRO, 1);
    let cache = dtu_bench::cli::session_cache(&run);
    let jobs = dtu_bench::cli::jobs(&run);
    let rows = dtu_bench::evaluate_suite_with(&cache, jobs);
    println!("== Fig. 13: DNN latency (batch 1, FP16) ==");
    dtu_bench::print_latency_table(&rows);
    println!();
    println!("== Shape checks against the paper ==");
    let g_t4 = dtu_bench::geomean(
        &rows
            .iter()
            .map(dtu_bench::LatencyRow::speedup_vs_t4)
            .collect::<Vec<_>>(),
    );
    let g_a10 = dtu_bench::geomean(
        &rows
            .iter()
            .map(dtu_bench::LatencyRow::speedup_vs_a10)
            .collect::<Vec<_>>(),
    );
    println!("GeoMean vs T4:  measured {g_t4:.2}x | paper 2.22x");
    println!("GeoMean vs A10: measured {g_a10:.2}x | paper 1.16x");
    let best = rows
        .iter()
        .max_by(|a, b| a.speedup_vs_t4().partial_cmp(&b.speedup_vs_t4()).unwrap())
        .expect("non-empty");
    println!(
        "Best case: {} at {:.2}x / {:.2}x | paper: SRResnet at 4.34x / 2.37x",
        best.model.name(),
        best.speedup_vs_t4(),
        best.speedup_vs_a10()
    );
    let detection_wins = rows
        .iter()
        .filter(|r| r.model.category() == "Object Detection" && r.speedup_vs_a10() > 1.0)
        .count();
    println!("Object-detection wins vs A10: {detection_wins}/3 | paper: 3/3");
    let a10_wins: Vec<&str> = rows
        .iter()
        .filter(|r| r.speedup_vs_a10() < 1.0)
        .map(|r| r.model.name())
        .collect();
    println!("A10 wins: {a10_wins:?} | paper: 3/10, notably VGG16 and Inception v4");
    let s = cache.stats();
    eprintln!(
        "[harness] {} workers; session cache: {} memory + {} disk hits, {} misses",
        jobs, s.memory_hits, s.disk_hits, s.misses
    );
}

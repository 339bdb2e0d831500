//! Reproduces Fig. 15: DNN energy efficiency (Perf/TDP) across
//! platforms, normalised with T4, batch 1, FP16.
//!
//! The paper's metric is throughput per TDP watt, so each ratio is the
//! Fig. 13 speedup scaled by the TDP ratio (T4 70 W; A10 and i20 150 W).
//!
//! Paper reference points: i20 beats T4 and A10 by 4% and 17% on
//! average; SRResNet shows the largest improvement at 2.03x / 2.39x;
//! the i20 wins on power efficiency against T4 for about half the DNNs.

use dtu_bench::{cli, evaluate_suite_with, geomean, LatencyRow};

fn main() {
    let run = cli::parse_or_exit(&cli::REPRO, 1);
    let jobs = cli::jobs(&run);
    let cache = cli::session_cache(&run);
    let rows = evaluate_suite_with(&cache, jobs);
    println!("== Fig. 15: DNN energy efficiency, Perf/TDP (normalised with T4) ==");
    println!("{:<16} {:>12} {:>12}", "DNN", "i20 vs T4", "i20 vs A10");
    for r in &rows {
        println!(
            "{:<16} {:>11.2}x {:>11.2}x",
            r.model.name(),
            r.efficiency_vs_t4(),
            r.efficiency_vs_a10()
        );
    }
    let e_t4 = geomean(
        &rows
            .iter()
            .map(LatencyRow::efficiency_vs_t4)
            .collect::<Vec<_>>(),
    );
    let e_a10 = geomean(
        &rows
            .iter()
            .map(LatencyRow::efficiency_vs_a10)
            .collect::<Vec<_>>(),
    );
    println!("{:<16} {:>11.2}x {:>11.2}x", "GeoMean", e_t4, e_a10);
    println!();
    println!("Paper: GeoMean 1.04x (vs T4) and 1.17x (vs A10)");
    let best = rows
        .iter()
        .max_by(|a, b| {
            a.efficiency_vs_t4()
                .partial_cmp(&b.efficiency_vs_t4())
                .unwrap()
        })
        .expect("non-empty");
    println!(
        "Best case: {} at {:.2}x / {:.2}x | paper: SRResnet at 2.03x / 2.39x",
        best.model.name(),
        best.efficiency_vs_t4(),
        best.efficiency_vs_a10()
    );
    let t4_wins = rows.iter().filter(|r| r.efficiency_vs_t4() > 1.0).count();
    println!("i20 more efficient than T4 on {t4_wins}/10 DNNs | paper: about half");
    let s = cache.stats();
    eprintln!(
        "[harness] {} workers; session cache: {} memory + {} disk hits, {} misses",
        jobs, s.memory_hits, s.disk_hits, s.misses
    );
}

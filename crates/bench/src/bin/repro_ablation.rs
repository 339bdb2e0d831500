//! Reproduces Table II as a feature-ablation sweep: each hardware
//! innovation of DTU 2.0 is switched off individually and the latency
//! delta on representative models is measured. The final rows run the
//! full DTU 1.0 configuration — confirming the Fig. 13 footnote that the
//! i10 "performs worse than Cloudblazer i20 for all tested DNNs".
//!
//! All ~47 (chip config, model) points of both sections go through one
//! deduplicated experiment plan: the three DTU 2.0 base rows reappear in
//! the i20-vs-i10 section and are simulated only once, and `--jobs`
//! spreads the rest over the worker pool.

use dtu::ChipConfig;
use dtu_bench::{chip_latencies, cli, ChipPoint};
use dtu_models::Model;

fn main() {
    let run = cli::parse_or_exit(&cli::REPRO, 1);
    let jobs = cli::jobs(&run);
    let cache = cli::session_cache(&run);
    let models = [Model::Resnet50, Model::YoloV3, Model::BertLarge];

    type Toggle = (&'static str, fn(&mut ChipConfig));
    let toggles: [Toggle; 8] = [
        ("- fine-grained VMM", |c| {
            c.features.fine_grained_vmm = false
        }),
        ("- enhanced SFU", |c| c.features.enhanced_sfu = false),
        ("- instruction cache", |c| {
            c.features.instruction_cache = false
        }),
        ("- multi-port L2", |c| c.features.multi_port_l2 = false),
        ("- sparse DMA", |c| c.features.sparse_dma = false),
        ("- repeat DMA", |c| c.features.dma_repeat = false),
        ("- L1<->L3 direct", |c| c.features.l1_l3_direct = false),
        ("- power management", |c| {
            c.features.power_management = false
        }),
    ];

    // One plan for everything this binary prints. Point layout:
    //   [0..3)    DTU 2.0 base, the three representative models
    //   [3..27)   8 toggles x 3 models
    //   [27..37)  i20, all ten DNNs (3 points dedup against the base)
    //   [37..47)  i10, all ten DNNs
    let mut points = Vec::new();
    for &m in &models {
        points.push(ChipPoint::new(ChipConfig::dtu20(), m));
    }
    for (_, toggle) in &toggles {
        let mut cfg = ChipConfig::dtu20();
        toggle(&mut cfg);
        for &m in &models {
            points.push(ChipPoint::new(cfg.clone(), m));
        }
    }
    for m in Model::ALL {
        points.push(ChipPoint::new(ChipConfig::dtu20(), m));
    }
    for m in Model::ALL {
        points.push(ChipPoint::new(ChipConfig::dtu10(), m));
    }
    let lat = chip_latencies(&points, &cache, jobs);

    println!("== Table II ablation: disable one DTU 2.0 feature at a time ==");
    print!("{:<26}", "Configuration");
    for m in models {
        print!(" {:>16}", m.name());
    }
    println!();

    let base = &lat[0..3];
    print!("{:<26}", "DTU 2.0 (all features)");
    for b in base {
        print!(" {:>13.3} ms", b);
    }
    println!();

    for (t, (name, _)) in toggles.iter().enumerate() {
        print!("{name:<26}");
        for i in 0..models.len() {
            let l = lat[3 + t * models.len() + i];
            print!(" {:>8.3} ({:+5.1}%)", l, (l / base[i] - 1.0) * 100.0);
        }
        println!();
    }

    println!();
    println!("== Fig. 13 footnote: i20 vs i10, all ten DNNs ==");
    println!(
        "{:<16} {:>12} {:>12} {:>10}",
        "DNN", "i20 (ms)", "i10 (ms)", "speedup"
    );
    let i20 = &lat[27..37];
    let i10 = &lat[37..47];
    let mut all_win = true;
    for (i, m) in Model::ALL.into_iter().enumerate() {
        let (l20, l10) = (i20[i], i10[i]);
        if l10 <= l20 {
            all_win = false;
        }
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>9.2}x",
            m.name(),
            l20,
            l10,
            l10 / l20
        );
    }
    println!(
        "\ni20 faster than i10 on every DNN: {}",
        if all_win {
            "yes (matches the paper)"
        } else {
            "NO"
        }
    );
    let s = cache.stats();
    eprintln!(
        "[harness] {} points planned ({} after dedup), {} workers; cache: {} hits / {} misses",
        points.len(),
        s.lookups(),
        jobs,
        s.hits(),
        s.misses
    );
}

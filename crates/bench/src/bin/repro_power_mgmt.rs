//! Reproduces the §VI-D "Power management ON v.s. OFF" experiment:
//! ResNet-50 v1.5 and BERT-Large with (1) the CPME/LPME DVFS stack
//! active (clock 1.0–1.4 GHz) and (2) power management off (clock fixed
//! at 1.4 GHz).
//!
//! Paper: 0.85% and 3.2% performance drop with PM on, but 13% better
//! energy efficiency for both DNNs.

use dtu::{Accelerator, ChipConfig, Session, SessionOptions};
use dtu_models::Model;

fn run(cfg: ChipConfig, model: Model) -> (f64, f64, f64) {
    let accel = Accelerator::with_config(cfg).expect("valid config");
    let graph = model.build(1);
    let session = Session::compile(&accel, &graph, SessionOptions::default()).expect("compile");
    let r = session.run().expect("run");
    (r.latency_ms(), r.samples_per_joule(), r.mean_freq_mhz())
}

fn main() {
    dtu_bench::cli::parse_or_exit(&dtu_bench::cli::REPRO_FIXED, 1);
    println!("== Power management ON vs OFF (ResNet-50 v1.5, BERT-Large) ==");
    println!(
        "{:<16} {:>10} {:>10} {:>11} {:>12} {:>12}",
        "DNN", "PM", "lat (ms)", "freq (MHz)", "samp/J", "vs PM-off"
    );
    for model in [Model::Resnet50, Model::BertLarge] {
        let on_cfg = ChipConfig::dtu20();
        let mut off_cfg = ChipConfig::dtu20();
        off_cfg.features.power_management = false;

        let (lat_on, eff_on, f_on) = run(on_cfg, model);
        let (lat_off, eff_off, f_off) = run(off_cfg, model);

        println!(
            "{:<16} {:>10} {:>10.3} {:>11.0} {:>12.2} {:>12}",
            model.name(),
            "off",
            lat_off,
            f_off,
            eff_off,
            "1.00x"
        );
        println!(
            "{:<16} {:>10} {:>10.3} {:>11.0} {:>12.2} {:>11.2}x",
            model.name(),
            "on",
            lat_on,
            f_on,
            eff_on,
            eff_on / eff_off
        );
        let perf_drop = (lat_on / lat_off - 1.0) * 100.0;
        let eff_gain = (eff_on / eff_off - 1.0) * 100.0;
        println!("  -> perf drop {perf_drop:.2}% | energy-efficiency gain {eff_gain:.1}%");
    }
    println!();
    println!("Paper: perf drops 0.85% (ResNet50) / 3.2% (BERT); efficiency +13% for both.");
}

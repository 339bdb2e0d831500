//! Reproduces Fig. 6: the DMA engine's normal mode vs repeat mode when
//! slicing a large tensor into 9 regularly-strided pieces.
//!
//! With repeat mode one configuration drives all N transactions,
//! eliminating (N-1)/N of the configuration overhead.

use dtu_sim::{ChipConfig, DmaDescriptor, DmaEngine, DmaPath, MemLevel};

fn main() {
    dtu_bench::cli::parse_or_exit(&dtu_bench::cli::REPRO_FIXED, 1);
    let cfg = ChipConfig::dtu20();
    let mut engine = DmaEngine::new(&cfg);

    println!("== Fig. 6: DMA normal mode vs repeat mode (9 slices) ==");
    println!(
        "{:<12} {:>8} {:>14} {:>14} {:>14}",
        "Mode", "Configs", "config (us)", "total (us)", "saved"
    );
    for slices in [9usize, 32, 128] {
        let mut d = DmaDescriptor::copy(
            DmaPath::new(MemLevel::L3, MemLevel::L2),
            256 * 1024, // one slice
        );
        d.repeat = slices;
        let with = engine.execute(&d, 1).expect("repeat mode");
        let without = engine.execute_without_repeat(&d, 1).expect("normal mode");
        println!(
            "{:<12} {:>8} {:>14.2} {:>14.2} {:>14}",
            format!("normal x{slices}"),
            slices,
            without.config_ns / 1e3,
            without.duration_ns / 1e3,
            "-"
        );
        println!(
            "{:<12} {:>8} {:>14.2} {:>14.2} {:>13.1}%",
            format!("repeat x{slices}"),
            1,
            with.config_ns / 1e3,
            with.duration_ns / 1e3,
            (1.0 - with.duration_ns / without.duration_ns) * 100.0
        );
        let expected = (slices - 1) as f64 / slices as f64 * 100.0;
        println!(
            "  config overhead eliminated: {:.1}% (paper: (N-1)/N = {expected:.1}%)",
            (1.0 - with.config_ns / without.config_ns) * 100.0
        );
    }
}

//! Reproduces Fig. 14: comparisons of power (TDP) and energy efficiency
//! (peak performance / TDP) across platforms — (a) normalised with i10,
//! (b) normalised with T4.
//!
//! Paper reference points (§VI-C): T4's FP16 (INT8) peak efficiency is
//! 1.11x (1.11x) over A10, 1.74x (3.48x) over i10, and 1.09x (1.09x)
//! over i20; for FP32 the i20 leads with 1.6x / 1.84x / 1.03x over
//! i10 / T4 / A10.

use dtu_bench::{cli, platform_specs};
use dtu_isa::DataType;
use gpu_baseline::PlatformSpec;

fn table(title: &str, specs: &[&PlatformSpec], base: &PlatformSpec) {
    println!("{title}");
    print!("{:<16}", "");
    for s in specs {
        print!(" {:>16}", s.name.split(' ').next_back().unwrap_or(&s.name));
    }
    println!();
    print!("{:<16}", "TDP");
    for s in specs {
        print!(" {:>15.2}x", s.tdp_w / base.tdp_w);
    }
    println!();
    for dtype in [DataType::Fp32, DataType::Fp16, DataType::Int8] {
        print!("{:<16}", format!("{dtype} perf/TDP"));
        for s in specs {
            print!(
                " {:>15.2}x",
                s.peak_per_tdp(dtype) / base.peak_per_tdp(dtype)
            );
        }
        println!();
    }
    println!();
}

fn main() {
    cli::parse_or_exit(&cli::REPRO_FIXED, 1);
    let (i10, i20, t4, a10) = platform_specs();
    table(
        "== Fig. 14(a): i20 vs i10 (normalised with i10) ==",
        &[&i10, &i20],
        &i10,
    );
    table(
        "== Fig. 14(b): i20 vs Nvidia T4/A10 (normalised with T4) ==",
        &[&t4, &a10, &i20],
        &t4,
    );

    println!("== Paper reference checks ==");
    let f16 = |s: &PlatformSpec| s.peak_per_tdp(DataType::Fp16);
    let f32p = |s: &PlatformSpec| s.peak_per_tdp(DataType::Fp32);
    println!(
        "T4 FP16 eff over A10 / i10 / i20: {:.2}x / {:.2}x / {:.2}x (paper 1.11 / 1.74 / 1.09)",
        f16(&t4) / f16(&a10),
        f16(&t4) / f16(&i10),
        f16(&t4) / f16(&i20)
    );
    println!(
        "i20 FP32 eff over i10 / T4 / A10: {:.2}x / {:.2}x / {:.2}x (paper 1.60 / 1.84 / 1.03)",
        f32p(&i20) / f32p(&i10),
        f32p(&i20) / f32p(&t4),
        f32p(&i20) / f32p(&a10)
    );
}

//! Reproduces Fig. 12: comparisons of peak performance, memory capacity,
//! and bandwidth across platforms — (a) i20 vs i10 normalised with i10,
//! (b) i20 vs T4/A10 normalised with T4.

use dtu_bench::{cli, platform_specs};
use gpu_baseline::PlatformSpec;

fn row(
    label: &str,
    f: impl Fn(&PlatformSpec) -> f64,
    specs: &[&PlatformSpec],
    base: &PlatformSpec,
) {
    print!("{label:<14}");
    for s in specs {
        print!(" {:>14.2}x", f(s) / f(base));
    }
    println!();
}

fn main() {
    cli::parse_or_exit(&cli::REPRO_FIXED, 1);
    let (i10, i20, t4, a10) = platform_specs();

    println!("== Fig. 12(a): Cloudblazer i20 vs i10 (normalised with i10) ==");
    println!("{:<14} {:>15} {:>15}", "", "i10", "i20");
    let specs_a = [&i10, &i20];
    row("FP32 peak", |s| s.fp32_tflops, &specs_a, &i10);
    row("FP16 peak", |s| s.fp16_tflops, &specs_a, &i10);
    row("INT8 peak", |s| s.int8_tops, &specs_a, &i10);
    row("Memory", |s| s.memory_gb, &specs_a, &i10);
    row("Bandwidth", |s| s.bandwidth_gb_s, &specs_a, &i10);
    println!();

    println!("== Fig. 12(b): i20 vs Nvidia T4/A10 (normalised with T4) ==");
    println!("{:<14} {:>15} {:>15} {:>15}", "", "T4", "A10", "i20");
    let specs_b = [&t4, &a10, &i20];
    row("FP32 peak", |s| s.fp32_tflops, &specs_b, &t4);
    row("FP16 peak", |s| s.fp16_tflops, &specs_b, &t4);
    row("INT8 peak", |s| s.int8_tops, &specs_b, &t4);
    row("Memory", |s| s.memory_gb, &specs_b, &t4);
    row("Bandwidth", |s| s.bandwidth_gb_s, &specs_b, &t4);
    println!();
    println!(
        "Paper check: i20 bandwidth is {:.2}x i10, {:.2}x T4, {:.2}x A10 (expected 1.6x / 2.56x / 1.36x)",
        i20.bandwidth_gb_s / i10.bandwidth_gb_s,
        i20.bandwidth_gb_s / t4.bandwidth_gb_s,
        i20.bandwidth_gb_s / a10.bandwidth_gb_s
    );
}

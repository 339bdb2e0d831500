//! Reproduces Table I (Cloudblazer i20 specifications), Table IV (the
//! accelerators adopted for evaluation), and the Fig. 1 / Fig. 2 SoC
//! topologies.

use dtu_sim::ChipConfig;
use gpu_baseline::{a10_spec, i10_spec, i20_spec, t4_spec};

fn main() {
    dtu_bench::cli::parse_or_exit(&dtu_bench::cli::REPRO_FIXED, 1);
    println!("== Table I: technical specifications of the Cloudblazer i20 ==");
    let i20 = i20_spec();
    println!(
        "  FP32  {:>6.0} teraFLOPS     Memory        {:.0} GB",
        i20.fp32_tflops, i20.memory_gb
    );
    println!(
        "  TF32  {:>6.0} teraFLOPS     Bandwidth     {:.0} GB/s",
        i20.fp16_tflops, i20.bandwidth_gb_s
    );
    println!(
        "  FP16  {:>6.0} teraFLOPS     Board TDP     {:.0} W",
        i20.fp16_tflops, i20.tdp_w
    );
    println!(
        "  BF16  {:>6.0} teraFLOPS     Interconnect  {}",
        i20.fp16_tflops, i20.interconnect
    );
    println!("  INT8  {:>6.0} TOPS", i20.int8_tops);
    println!();

    println!("== Table IV: AI inference accelerators adopted for evaluation ==");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>10} {:>6} {:>6} {:>8}",
        "Platform", "FP32", "FP16", "INT8", "Mem(GB)", "BW(GB/s)", "TDP", "nm", "Link"
    );
    for s in [i10_spec(), t4_spec(), a10_spec(), i20_spec()] {
        println!(
            "{:<22} {:>8.1} {:>8.0} {:>8.0} {:>8.0} {:>10.0} {:>6.0} {:>6} {:>8}",
            s.name,
            s.fp32_tflops,
            s.fp16_tflops,
            s.int8_tops,
            s.memory_gb,
            s.bandwidth_gb_s,
            s.tdp_w,
            s.tech_nm,
            s.interconnect
        );
    }
    println!();

    println!("== Fig. 1 / Fig. 2: SoC topologies ==");
    for cfg in [ChipConfig::dtu10(), ChipConfig::dtu20()] {
        println!("{}", cfg);
        println!(
            "  {} clusters x {} cores; {} processing groups ({} cores each); L1 {} KiB/core; L2 {} MiB/cluster ({} ports); L3 {} GiB @ {:.0} GB/s",
            cfg.clusters,
            cfg.cores_per_cluster,
            cfg.total_groups(),
            cfg.cores_per_group(),
            cfg.l1_kib_per_core,
            cfg.l2_mib_per_cluster,
            cfg.l2_ports,
            cfg.l3_gib,
            cfg.l3_gb_per_s
        );
    }
}

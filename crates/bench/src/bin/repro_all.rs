//! Runs the complete evaluation — every table and figure — in one go.
//!
//! ```sh
//! cargo run --release --bin repro_all
//! ```
//!
//! Equivalent to running each `repro_*` binary in sequence; see
//! EXPERIMENTS.md for the paper-vs-measured comparison tables.

use std::process::{Command, ExitCode};

const BINARIES: &[&str] = &[
    "repro_specs",
    "repro_fig12",
    "repro_fig13",
    "repro_fig14",
    "repro_fig15",
    "repro_batch",
    "repro_power_mgmt",
    "repro_multitenancy",
    "repro_dma_repeat",
    "repro_opmix",
    "repro_ablation",
];

fn main() -> ExitCode {
    dtu_bench::cli::parse_or_exit(&dtu_bench::cli::REPRO_FIXED, 1);
    // The repro binaries live next to this one.
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("binary directory");
    for bin in BINARIES {
        println!("\n================ {bin} ================\n");
        let status = Command::new(dir.join(bin)).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("could not run {bin}: {e} (build the workspace first)");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("\nAll experiments regenerated. See EXPERIMENTS.md for the paper comparison.");
    ExitCode::SUCCESS
}

//! The flag table rejects bad input for the commands without a case
//! table of their own: every case exits non-zero, prints nothing on
//! stdout, names the flag, and shows its own command's usage text.

mod common;

/// (the command as its usage names it, base arguments, extra
/// arguments, what the error must mention)
type Case = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
    &'static str,
);

const FAULTS: &[&str] = &["faults", "resnet50", "--plans", "none", "--no-disk-cache"];
const SLO: &[&str] = &["slo", "resnet50", "--no-disk-cache"];
const TOP: &[&str] = &["top", "--once", "--duration", "100", "--no-disk-cache"];
const GEN_TOP: &[&str] = &[
    "top",
    "--generative",
    "--gen-model",
    "tiny",
    "--once",
    "--duration",
    "100",
    "--no-disk-cache",
];

const CASES: &[Case] = &[
    (
        "topsexec",
        &["--model", "resnet50"],
        &["--batch", "0"],
        "--batch",
    ),
    (
        "topsexec profile",
        &["profile", "resnet50"],
        &["--batch", "0"],
        "--batch",
    ),
    ("topsexec faults", FAULTS, &["--jobs", "0"], "--jobs"),
    (
        "topsexec faults",
        FAULTS,
        &["--severity", "-1"],
        "--severities",
    ),
    (
        "topsexec faults",
        FAULTS,
        &["--severities", "0.5,1.5"],
        "--severities",
    ),
    ("topsexec slo", SLO, &["--jobs", "0"], "--jobs"),
    ("topsexec slo", SLO, &["--severity", "-1"], "--severities"),
    ("topsexec slo", SLO, &["--severities", "2"], "--severities"),
    ("topsexec top", TOP, &["--severity", "-1"], "--severity"),
    ("topsexec top", TOP, &["--severity", "1.5"], "--severity"),
    ("topsexec top", TOP, &["--span", "nan"], "--span"),
    ("topsexec top", TOP, &["--span", "0"], "--span"),
    ("topsexec top", TOP, &["--max-batch", "0"], "--max-batch"),
    // A generative run has no work to share among workers.
    (
        "topsexec top --generative",
        GEN_TOP,
        &["--jobs", "2"],
        "--jobs",
    ),
    (
        "topsexec top --generative",
        GEN_TOP,
        &["--span", "inf"],
        "--span",
    ),
    // Flags another mode of the command takes.
    (
        "topsexec top --generative",
        GEN_TOP,
        &["--trace-out", "t.json"],
        "--trace-out",
    ),
    (
        "topsexec top --generative",
        GEN_TOP,
        &["--monitor"],
        "--monitor",
    ),
    ("topsexec top --generative", GEN_TOP, &["--slo"], "--slo"),
    (
        "topsexec top --generative",
        GEN_TOP,
        &["--flight-out", "f.json"],
        "--flight-out",
    ),
    (
        "topsexec top --generative",
        GEN_TOP,
        &["--format", "json"],
        "--format",
    ),
];

#[test]
fn bad_input_fails_with_the_command_usage() {
    let mut failures = Vec::new();
    for (command, base, extra, reason) in CASES {
        let args: Vec<&str> = base.iter().chain(*extra).copied().collect();
        let bin = env!("CARGO_BIN_EXE_topsexec");
        failures.extend(common::rejected(bin, &args, reason, command).err());
    }
    common::assert_all_rejected(failures);
}

#[test]
fn repro_binaries_reject_zero_jobs() {
    let bins = [
        env!("CARGO_BIN_EXE_repro_fig13"),
        env!("CARGO_BIN_EXE_repro_fig15"),
        env!("CARGO_BIN_EXE_repro_batch"),
        env!("CARGO_BIN_EXE_repro_ablation"),
    ];
    let mut failures = Vec::new();
    for bin in bins {
        let args = ["--no-disk-cache", "--jobs", "0"];
        failures.extend(common::rejected(bin, &args, "--jobs", "repro_*").err());
    }
    common::assert_all_rejected(failures);
}

#[test]
fn repro_binaries_without_options_reject_flags() {
    let bins = [
        env!("CARGO_BIN_EXE_repro_fig12"),
        env!("CARGO_BIN_EXE_repro_fig14"),
        env!("CARGO_BIN_EXE_repro_opmix"),
        env!("CARGO_BIN_EXE_repro_specs"),
        env!("CARGO_BIN_EXE_repro_power_mgmt"),
        env!("CARGO_BIN_EXE_repro_multitenancy"),
        env!("CARGO_BIN_EXE_repro_dma_repeat"),
        env!("CARGO_BIN_EXE_repro_all"),
    ];
    // An unknown flag, and the flags of the binaries that simulate.
    let flags: [&[&str]; 4] = [
        &["--bogus"],
        &["--jobs", "2"],
        &["--no-disk-cache"],
        &["--cache-dir", "x"],
    ];
    let mut failures = Vec::new();
    for bin in bins {
        for args in flags {
            failures.extend(common::rejected(bin, args, args[0], "repro_* (fixed)").err());
        }
    }
    common::assert_all_rejected(failures);
}

#[test]
fn help_prints_the_usage_on_stdout_and_succeeds() {
    let topsexec = env!("CARGO_BIN_EXE_topsexec");
    let cases: &[(&str, &[&str])] = &[
        (topsexec, &["--help"]),
        (topsexec, &["serve", "--generative", "-h"]),
        (topsexec, &["fleet", "top", "--help"]),
        (env!("CARGO_BIN_EXE_repro_fig13"), &["-h"]),
    ];
    for (bin, args) in cases {
        let out = common::run(bin, std::path::Path::new(env!("CARGO_TARGET_TMPDIR")), args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?} exited {}", out.status);
        assert!(stdout.starts_with("usage: "), "{args:?} printed:\n{stdout}");
    }
}

//! Pins what the CLI prints: the FNV-1a digest of stdout for a fixed
//! set of `topsexec` invocations and of every `repro_*` binary, of the
//! `top` dashboards' stderr, and of the bytes of the files those
//! invocations write. A changed report, header, default or alias shows
//! up here as a digest mismatch.
//!
//! Every run happens in a scratch directory under `CARGO_TARGET_TMPDIR`
//! with relative output paths only, so no digest depends on where the
//! repository is checked out. On a mismatch the test prints every
//! invocation's digest, ready to paste back after an intended change.

mod common;

use common::scratch;
use dtu_compiler::Fnv1a;
use std::path::Path;

/// The `top` dashboards. Their stderr carries the alert log and the
/// flight-recorder tallies, and no wall-clock time, so it is pinned too.
const TOP: &str = "top --once --models resnet50 --duration 4000 --no-disk-cache";
/// One core-failure fault alert and one flight dump.
const TOP_CORE_FAILURE: &str = "top --once --models resnet50 --plan core-failure --seed 7 --duration 4000 --deadline 5 --no-disk-cache";
/// A burn-rate page at t = 2 s that is still firing at the end.
const TOP_BURN: &str =
    "top --once --models resnet50 --qps 600 --deadline 2 --duration 4000 --seed 7 --no-disk-cache";
const TOP_GENERATIVE: &str =
    "top --generative --gen-model tiny --seed 7 --duration 4000 --once --no-disk-cache";

/// `topsexec` command lines (arguments split at spaces) and the digest
/// of their stdout.
const TOPSEXEC: &[(&str, u64)] = &[
    ("--model resnet50", 0x70e04f61fdba48fc),
    ("--model resnet50 --trace-out m.json", 0x01feba0aca78e9e0),
    ("--model vgg16 --batch 4 --chip i10 --groups 2 --profile --no-power-management", 0x5f5cbe8c66ff0cb7),
    // The trace file itself differs between two runs of one binary, so
    // only stdout is pinned.
    ("profile resnet50 --trace-out t.json --format json", 0xd5a962d406453b97),
    ("profile resnet50 --format prometheus", 0xbdab0155930a0682),
    ("serve --duration 200 --trace-out s.json --no-disk-cache", 0xd3bdcbcb98f2f33b),
    ("serve --models vgg16 --bursty --no-autoscale --max-batch 1 --duration 200 --no-disk-cache", 0xa313ff37e747702a),
    ("serve --generative --gen-model tiny --seed 7 --no-disk-cache", 0xbf3834835e84a0ea),
    ("serve --generative --gen-model tiny --seed 7 --trace-out gt.json --no-disk-cache", 0xbf3834835e84a0ea),
    ("serve --generative --gen-model tiny --seed 7 --format prom --no-disk-cache", 0x2206fcaa48f11009),
    ("serve --generative --gen-model tiny --seed 7 --qps 800 --kv-budget 0.0001 --max-new 128 --duration 4000 --ttft-deadline 1 --monitor --slo --flight-out g.json --no-disk-cache", 0x5746804a261a5424),
    (TOP, 0xfcf06f9ba210fbd8),
    (TOP_CORE_FAILURE, 0x0c7069a74b083c96),
    (TOP_BURN, 0xda5384ad2f21bb5b),
    (TOP_GENERATIVE, 0x66427a424dfe11f3),
    ("sweep --models resnet50,bert --batches 1,2 --jobs 1 --no-disk-cache", 0x1da61d4db7ad18b1),
    ("sweep --models resnet50,bert --batches 1,2 --jobs 1 --format json --no-disk-cache", 0x839cb9ea48e67b5f),
    ("sweep --check-golden figures.json --jobs 1 --no-disk-cache", 0xdfb04ec7083f16a3),
    ("faults resnet50 --seed 7 --plan core-failure --jobs 1 --no-disk-cache", 0x6d4bdb0a435563ce),
    ("faults resnet50 --seed 7 --plans none,ecc --format table --jobs 1 --no-disk-cache", 0x8fc64cd8631acc2f),
    ("slo resnet50 --seed 7 --plan core-failure --flight-out slo.json --jobs 1 --no-disk-cache", 0x10c216edfbe6833f),
    ("slo resnet50 --seed 7 --format table --jobs 1 --no-disk-cache", 0x455c8cbfa41343b7),
    ("fleet resnet50 --chips 4 --qps 4000 --duration 2000 --seed 7 --jobs 1 --no-disk-cache", 0x6e63ad9c36c15391),
    ("fleet resnet50 --chips 4 --qps 4000 --duration 2000 --seed 7 --jobs 1 --format table --no-disk-cache", 0x59e0402fd6b93dce),
    ("fleet resnet50 --chips 4 --qps 4000 --duration 2000 --seed 7 --jobs 1 --format prom --no-disk-cache", 0x49d69d27116f48c8),
    ("fleet top --once resnet50 --chips 4 --qps 4000 --duration 2000 --seed 7 --jobs 1 --no-disk-cache", 0x574d4a3c6c3da72e),
    ("fleet top --once resnet50 --chips 4 --qps 4000 --duration 2000 --epoch 300 --seed 7 --jobs 1 --no-disk-cache", 0xc4b2b46eab486521),
    ("fleet resnet50 --chips 4 --qps 2000 --duration 2000 --seed 7 --kill-chip 1 --kill-at 900 --slo --flight-out fl.json --jobs 1 --no-disk-cache", 0xf5acb9a183ecfb9b),
];

/// Invocations above whose stderr is pinned too, and its digest.
const STDERR: &[(&str, u64)] = &[
    (TOP, 0xd32ec502fd260825),
    (TOP_CORE_FAILURE, 0x2399c137d89672ca),
    (TOP_BURN, 0x41f4178ea4db8f61),
    (TOP_GENERATIVE, 0x6d2a376e1d331668),
];

/// The files the invocations above write, and the digest of their bytes.
const WRITTEN: &[(&str, u64)] = &[
    ("m.json", 0xa71008cfd16d9c18),
    ("s.json", 0x93d3e1405c878199),
    ("gt.json", 0x8293792b97225f7e),
    ("g.json", 0x56ab5a9df97c201a),
    ("slo.json", 0x9ef13ba17b4145fb),
    ("fl.json", 0x7ed8e7aa7ddf9929),
];

/// Every `repro_*` binary that takes the cache flags (run with
/// `--no-disk-cache`) and the digest of its stdout.
const REPRO: &[(&str, u64)] = &[
    (env!("CARGO_BIN_EXE_repro_fig13"), 0x1244499af0149fcf),
    (env!("CARGO_BIN_EXE_repro_fig15"), 0xec2d7a9d3f624217),
    (env!("CARGO_BIN_EXE_repro_batch"), 0x80a014605b8f47a3),
    (env!("CARGO_BIN_EXE_repro_ablation"), 0x0713572451d7e882),
];

/// Every `repro_*` binary that takes no flags and the digest of its
/// stdout.
const REPRO_FIXED: &[(&str, u64)] = &[
    (env!("CARGO_BIN_EXE_repro_fig12"), 0xd66617842ac343c1),
    (env!("CARGO_BIN_EXE_repro_fig14"), 0xc93da049434d4e64),
    (env!("CARGO_BIN_EXE_repro_opmix"), 0x17cca9cd5d7a9381),
    (env!("CARGO_BIN_EXE_repro_specs"), 0x5939c9bd38203e82),
    (env!("CARGO_BIN_EXE_repro_power_mgmt"), 0xc216f078a49c0c48),
    (env!("CARGO_BIN_EXE_repro_multitenancy"), 0x5024307156e80f3a),
    (env!("CARGO_BIN_EXE_repro_dma_repeat"), 0x3c4f5ea010d45a3a),
];

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Runs `bin` in `dir` and returns the digests of its stdout and
/// stderr.
fn output_digests(bin: &str, dir: &Path, args: &[&str]) -> (u64, u64) {
    let out = common::run(bin, dir, args);
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (digest(&out.stdout), digest(&out.stderr))
}

/// Prints every (label, pinned, current) digest, then fails naming each
/// label whose current digest differs from the pinned one.
fn check(what: &str, got: &[(String, u64, u64)]) {
    let mut drifted = Vec::new();
    for (label, want, have) in got {
        println!("{label}: {have:#018x}");
        if want != have {
            drifted.push(label.as_str());
        }
    }
    assert!(
        drifted.is_empty(),
        "{what} drifted for {drifted:?} (current digests above)"
    );
}

#[test]
fn topsexec_stdout_and_written_files_are_pinned() {
    let dir = scratch("cli_pinned_topsexec");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/figures.json");
    std::fs::copy(golden, dir.join("figures.json")).expect("golden figures copy");
    let mut got = Vec::new();
    for &(line, want) in TOPSEXEC {
        let args: Vec<&str> = line.split(' ').collect();
        let (stdout, stderr) = output_digests(env!("CARGO_BIN_EXE_topsexec"), &dir, &args);
        got.push((line.to_string(), want, stdout));
        if let Some(&(_, want)) = STDERR.iter().find(|&&(pinned, _)| pinned == line) {
            got.push((format!("{line} (stderr)"), want, stderr));
        }
    }
    for (file, want) in WRITTEN {
        let bytes = std::fs::read(dir.join(file)).expect("the invocation wrote its file");
        got.push((file.to_string(), *want, digest(&bytes)));
    }
    check("topsexec output", &got);
}

#[test]
fn repro_stdout_is_pinned() {
    let dir = scratch("cli_pinned_repro");
    let mut got = Vec::new();
    for (args, table) in [(&["--no-disk-cache"][..], REPRO), (&[], REPRO_FIXED)] {
        for (bin, want) in table {
            let (have, _) = output_digests(bin, &dir, args);
            let name = Path::new(bin).file_name().expect("binary name");
            got.push((name.to_string_lossy().into_owned(), *want, have));
        }
    }
    check("repro output", &got);
}

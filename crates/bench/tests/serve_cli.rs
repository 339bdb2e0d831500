//! `topsexec serve`, `serve --generative` and `top` reject arrival
//! streams that never reach their horizon, out-of-range deadlines and
//! batch timeouts, and flags their flag table rejects: every case exits
//! non-zero, prints nothing on stdout, and names the bad value.

mod common;

use std::process::Command;

#[test]
fn bad_arrival_rates_fail_before_the_run() {
    // (extra arguments, what the error must mention)
    let cases: &[(&[&str], &str)] = &[
        (&["--qps", "-5"], "qps must be positive and finite, got -5"),
        (
            &["--qps", "nan"],
            "qps must be positive and finite, got NaN",
        ),
        (
            &["--qps", "inf"],
            "qps must be positive and finite, got inf",
        ),
        (&["--qps", "0"], "qps must be positive and finite, got 0"),
        (
            &["--bursty", "--qps", "-5"],
            "base_qps must be non-negative",
        ),
        (
            &["--duration", "0"],
            "horizon (ms) must be positive and finite",
        ),
        (
            &["--bursty", "--duration", "0"],
            "horizon (ms) must be positive and finite",
        ),
    ];
    let modes: &[&[&str]] = &[
        &["serve", "--no-disk-cache"],
        &[
            "serve",
            "--generative",
            "--gen-model",
            "tiny",
            "--no-disk-cache",
        ],
    ];
    for mode in modes {
        for (extra, reason) in cases {
            let out = Command::new(env!("CARGO_BIN_EXE_topsexec"))
                .args(*mode)
                .args(["--duration", "100"])
                .args(*extra)
                .output()
                .expect("topsexec runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !out.status.success(),
                "{mode:?} {extra:?} must fail:\n{stderr}"
            );
            assert!(
                out.stdout.is_empty(),
                "{mode:?} {extra:?} printed on stdout:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
            assert!(
                stderr.contains(reason),
                "{mode:?} {extra:?} must say `{reason}`:\n{stderr}"
            );
        }
    }
}

#[test]
fn bad_serve_flags_fail_with_the_command_usage() {
    // (command, extra arguments, what the error must mention)
    let cases: &[(&str, &[&str], &str)] = &[
        ("serve", &["--max-batch", "0"], "--max-batch"),
        // A generative run has no work to share among workers.
        ("serve --generative", &["--jobs", "2"], "--jobs"),
        // Flags another mode of the command takes.
        ("serve --generative", &["--once"], "--once"),
        ("serve --generative", &["--span", "5"], "--span"),
        ("serve --generative", &["--refresh-ms", "5"], "--refresh-ms"),
        // Deadlines must be positive; `inf` means none.
        (
            "serve",
            &["--deadline", "-5"],
            "deadline_ms must be positive (inf for none), got -5",
        ),
        (
            "serve",
            &["--deadline", "nan"],
            "deadline_ms must be positive (inf for none), got NaN",
        ),
        (
            "serve",
            &["--deadline", "0"],
            "deadline_ms must be positive (inf for none), got 0",
        ),
        (
            "serve --generative",
            &["--ttft-deadline", "-1"],
            "ttft_deadline_ms must be positive (inf for none), got -1",
        ),
        (
            "serve --generative",
            &["--tpot-deadline", "nan"],
            "tpot_deadline_ms must be positive (inf for none), got NaN",
        ),
        (
            "serve --generative",
            &["--max-concurrency", "0"],
            "max_concurrency must be at least 1",
        ),
        // Batch timeouts must be finite and not negative; 0 dispatches
        // at once.
        (
            "serve",
            &["--batch-timeout", "nan"],
            "batch timeout_ms must be finite and not negative, got NaN",
        ),
        (
            "serve",
            &["--batch-timeout", "-1"],
            "batch timeout_ms must be finite and not negative, got -1",
        ),
        (
            "serve",
            &["--batch-timeout", "inf"],
            "batch timeout_ms must be finite and not negative, got inf",
        ),
        (
            "top",
            &["--once", "--batch-timeout", "nan"],
            "batch timeout_ms must be finite and not negative, got NaN",
        ),
        (
            "top",
            &["--once", "--batch-timeout", "inf"],
            "batch timeout_ms must be finite and not negative, got inf",
        ),
        // A cap of 1 never waits, but its timeout is still checked.
        (
            "serve",
            &["--max-batch", "1", "--batch-timeout", "nan"],
            "batch timeout_ms must be finite and not negative, got NaN",
        ),
        (
            "top",
            &["--once", "--max-batch", "1", "--batch-timeout", "-1"],
            "batch timeout_ms must be finite and not negative, got -1",
        ),
        (
            "serve --generative",
            &["--min-new", "8", "--max-new", "4"],
            "max_new_tokens must be at least min_new_tokens (8), got 4",
        ),
    ];
    let mut failures = Vec::new();
    for (command, extra, reason) in cases {
        let mut args: Vec<&str> = command.split(' ').collect();
        if args.len() > 1 {
            args.extend(["--gen-model", "tiny"]);
        }
        args.extend(["--duration", "100", "--no-disk-cache"]);
        args.extend(*extra);
        let bin = env!("CARGO_BIN_EXE_topsexec");
        let command = format!("topsexec {command}");
        failures.extend(common::rejected(bin, &args, reason, &command).err());
    }
    common::assert_all_rejected(failures);
}

//! `topsexec serve` and `serve --generative` reject arrival streams
//! that never reach their horizon: every case exits non-zero, prints
//! nothing on stdout, and names the bad rate or horizon.

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
            "--jobs",
            "1",
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

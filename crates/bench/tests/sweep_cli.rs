//! `topsexec sweep` rejects malformed grid input: every case exits
//! non-zero, prints nothing on stdout, and shows the sweep usage text.

use std::process::Command;

#[test]
fn bad_sweep_input_fails_with_the_sweep_usage() {
    let cases: &[&[&str]] = &[
        &["--batches", "0"],
        &["--batches", "1,0"],
        &["--batches", "-1"],
        &["--jobs", "0"],
        &["--timing", "analytic"],
        &["--models", "nosuch"],
        &["--chip", "i99"],
    ];
    for extra in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_topsexec"))
            .args(["sweep", "--models", "resnet50", "--no-disk-cache"])
            .args(*extra)
            .output()
            .expect("topsexec runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{extra:?} must fail:\n{stderr}");
        assert!(out.stdout.is_empty(), "{extra:?} printed on stdout");
        assert!(
            stderr.contains("usage: topsexec sweep"),
            "{extra:?} must print the sweep usage:\n{stderr}"
        );
        assert!(
            !stderr.contains("topsexec (--model"),
            "{extra:?} printed the global usage:\n{stderr}"
        );
    }
}

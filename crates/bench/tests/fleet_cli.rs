//! `topsexec fleet` rejects malformed input: every case exits non-zero,
//! prints nothing on stdout, names what is wrong, and shows the fleet
//! usage text.

use std::process::Command;

#[test]
fn bad_fleet_input_fails_with_the_fleet_usage() {
    // (extra arguments, what the error must mention)
    let cases: &[(&[&str], &str)] = &[
        (&["--qps", "-5"], "positive, finite QPS"),
        (&["--qps", "nan"], "positive, finite QPS"),
        (&["--jobs", "0"], "--jobs"),
        (&["--chips", "0"], "--chips"),
        (&["--cards", "0"], "--cards"),
        (&["nosuch"], "unknown model 'nosuch'"),
    ];
    for (extra, reason) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_topsexec"))
            .args(["fleet", "--duration", "100", "--no-disk-cache"])
            .args(*extra)
            .output()
            .expect("topsexec runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{extra:?} must fail:\n{stderr}");
        assert!(out.stdout.is_empty(), "{extra:?} printed on stdout");
        assert!(
            stderr.contains(reason),
            "{extra:?} must say `{reason}`:\n{stderr}"
        );
        assert!(
            stderr.contains("usage: topsexec fleet"),
            "{extra:?} must print the fleet usage:\n{stderr}"
        );
        assert!(
            !stderr.contains("topsexec (--model"),
            "{extra:?} printed the global usage:\n{stderr}"
        );
    }
}

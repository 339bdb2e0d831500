//! `topsexec fleet` and `fleet top` reject malformed input: every case
//! exits non-zero, prints nothing on stdout, names what is wrong, and
//! shows its own command's usage text.

mod common;

#[test]
fn bad_fleet_input_fails_with_the_fleet_usage() {
    // (command words, extra arguments, what the error must mention)
    let cases: &[(&[&str], &[&str], &str)] = &[
        (
            &["fleet"],
            &["--qps", "-5"],
            "tenant resnet50: serving config error: arrival qps must be positive and finite, got -5",
        ),
        (
            &["fleet"],
            &["--qps", "nan"],
            "tenant resnet50: serving config error: arrival qps must be positive and finite, got NaN",
        ),
        (&["fleet"], &["--jobs", "0"], "--jobs"),
        (&["fleet"], &["--chips", "0"], "--chips"),
        (&["fleet"], &["--cards", "0"], "--cards"),
        // Both used to run as 1.
        (&["fleet"], &["--cells", "0"], "--cells"),
        (&["fleet"], &["--roll-chips", "0"], "--roll-chips"),
        (&["fleet"], &["nosuch"], "unknown model 'nosuch'"),
        (
            &["fleet"],
            &["--deadline", "-1"],
            "tenant resnet50: serving config error: SLA deadline_ms must be positive (inf for none), got -1",
        ),
        (
            &["fleet"],
            &["--epoch", "inf"],
            "must be positive and finite",
        ),
        (
            &["fleet"],
            &["--epoch", "1e-6"],
            "at most 10000 routing epochs",
        ),
        (
            &["fleet"],
            &["--kill-chip", "1", "--kill-at", "nan"],
            "the kill time of chip 1 must be a number, got NaN",
        ),
        (
            &["fleet"],
            &["--roll-start", "nan"],
            "the roll start time must be a number, got NaN",
        ),
        // Flags another mode of the command takes.
        (&["fleet"], &["--refresh-ms", "5"], "--refresh-ms"),
        (&["fleet", "top"], &["--format", "json"], "--format"),
        (&["fleet", "top"], &["--slo"], "--slo"),
    ];
    let mut failures = Vec::new();
    for (words, extra, reason) in cases {
        let args: Vec<&str> = words
            .iter()
            .chain(&["--duration", "100", "--no-disk-cache"])
            .chain(*extra)
            .copied()
            .collect();
        let command = format!("topsexec {}", words.join(" "));
        let bin = env!("CARGO_BIN_EXE_topsexec");
        failures.extend(common::rejected(bin, &args, reason, &command).err());
    }
    common::assert_all_rejected(failures);
}

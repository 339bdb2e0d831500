//! Golden-figure regression: the committed `tests/golden/figures.json`
//! must match a fresh regeneration of the fig. 12–15 data within the
//! CI tolerance, and the comparator must demonstrably catch drift.
//!
//! Intentional changes: regenerate with
//! `topsexec sweep --write-golden tests/golden/figures.json` and commit
//! the diff (see docs/CLI.md).

use dtu_harness::{compare_golden, SessionCache, GOLDEN_RTOL};

const GOLDEN: &str = include_str!("golden/figures.json");

#[test]
fn committed_figures_match_regeneration() {
    let cache = SessionCache::memory_only();
    let regenerated = dtu_bench::figures_json(&cache, 4);
    if let Err(e) = compare_golden(GOLDEN.trim_end(), &regenerated, GOLDEN_RTOL) {
        panic!(
            "fig. 12-15 drifted from tests/golden/figures.json: {e}\n\
             if intentional, regenerate with `topsexec sweep --write-golden \
             tests/golden/figures.json` and commit the diff"
        );
    }
}

#[test]
fn comparator_catches_a_perturbed_figure() {
    let golden = GOLDEN.trim_end();
    // Bump the leading digit of the first fractional value — a pure
    // numeric perturbation, structurally identical JSON.
    let perturbed = golden.replacen("1.", "2.", 1);
    assert_ne!(golden, perturbed, "golden must contain a fractional value");
    let err = compare_golden(golden, &perturbed, GOLDEN_RTOL).unwrap_err();
    assert!(err.contains("drifted"), "{err}");
}

/// The number after the first `"key":` in `doc` from byte `from` on.
fn number_after(doc: &str, from: usize, key: &str) -> f64 {
    let field = format!("\"{key}\":");
    let at = from + doc[from..].find(&field).expect("field in the golden") + field.len();
    let rest = &doc[at..];
    let end = rest.find([',', '}']).expect("a number ends the field");
    rest[..end].parse().expect("a number")
}

/// The Fig. 13 and Fig. 15 GeoMeans the docs state by hand are the
/// golden's, rounded to two decimals. No simulation runs here:
/// `committed_figures_match_regeneration` ties the golden file to the
/// simulator.
#[test]
fn documented_geomeans_come_from_the_golden() {
    let readme = include_str!("../README.md");
    let experiments = include_str!("../EXPERIMENTS.md");
    // (document, name, the start of the one line that states the
    // figure's GeoMeans, figure)
    let claims = [
        (readme, "README.md", "rooflines by **GeoMean", "fig13"),
        (experiments, "EXPERIMENTS.md", "| **GeoMean** |", "fig13"),
        (experiments, "EXPERIMENTS.md", "| GeoMean |", "fig15"),
    ];
    for (doc, name, start, figure) in claims {
        let lines: Vec<&str> = doc.lines().filter(|l| l.starts_with(start)).collect();
        assert_eq!(lines.len(), 1, "{name}: one line starts with `{start}`");
        let fig = GOLDEN
            .find(&format!("\"{figure}\":"))
            .expect("figure in the golden");
        for key in ["geomean_vs_t4", "geomean_vs_a10"] {
            let want = format!("{:.2}×", number_after(GOLDEN, fig, key));
            assert!(
                lines[0].contains(&want),
                "{name} states {figure}'s {key} as something other than the golden's {want}: {}",
                lines[0]
            );
        }
    }
}

//! Every Prometheus exposition the workspace prints is one a scraper
//! accepts, by one checker of the text format's rules.

mod common;

use common::{scratch, topsexec, Json};
use dtu::telemetry::prometheus::render;
use dtu::telemetry::{AttributionReport, Counter, CounterSet, Layer, Span, SpanKind};
use dtu_sim::ChipConfig;
use std::collections::HashSet;

/// What the checker saw of one family.
#[derive(Debug, Default)]
struct Family {
    name: String,
    help: bool,
    typed: bool,
    samples: usize,
}

/// Checks `text` against the text format: per family at most one HELP
/// line, exactly one TYPE line (counter or gauge) before its first
/// sample, all samples in one group and no label set twice; valid
/// metric names, values that parse, and a final newline. Returns the
/// families in order, or the first line that breaks a rule.
fn check(text: &str) -> Result<Vec<Family>, String> {
    let mut families: Vec<Family> = Vec::new();
    let mut label_sets = HashSet::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let fail = |why: &str| Err(format!("{why}: {line:?}"));
        let (kind, rest) = match line.strip_prefix("# ") {
            Some(meta) => meta.split_once(' ').unwrap_or((meta, "")),
            None => ("sample", line),
        };
        if !matches!(kind, "HELP" | "TYPE" | "sample") {
            continue; // a comment
        }
        let name = rest.split(['{', ' ']).next().unwrap_or_default();
        let valid = |i, c: char| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        };
        if name.is_empty() || !name.chars().enumerate().all(|(i, c)| valid(i, c)) {
            return fail("invalid metric name");
        }
        if families.last().map(|f| f.name.as_str()) != Some(name) {
            if families.iter().any(|f| f.name == name) {
                return fail("family split into two groups");
            }
            let name = name.to_string();
            families.push(Family {
                name,
                ..Family::default()
            });
            label_sets.clear();
        }
        let f = families.last_mut().expect("pushed above");
        let tail = &rest[name.len()..];
        match kind {
            "HELP" if f.help => return fail("second HELP line"),
            "HELP" => f.help = true,
            "TYPE" if f.typed || f.samples > 0 => return fail("second or late TYPE line"),
            "TYPE" if !matches!(tail, " counter" | " gauge") => return fail("bad type"),
            "TYPE" => f.typed = true,
            _ => {
                let (labels, value) = tail.rsplit_once(' ').unwrap_or((tail, ""));
                if !f.typed {
                    return fail("sample before its TYPE line");
                } else if value.parse::<f64>().is_err() {
                    return fail("value does not parse");
                } else if !label_sets.insert(labels.to_string()) {
                    return fail("label set repeated in the family");
                }
                f.samples += 1;
            }
        }
    }
    match families.iter().find(|f| !f.typed) {
        Some(f) => Err(format!("family {} has no TYPE line", f.name)),
        None if !text.ends_with('\n') => Err("no final newline".into()),
        None => Ok(families),
    }
}

#[test]
fn the_registry_conforms_and_the_checker_rejects_what_the_format_forbids() {
    let mut set = CounterSet::new();
    for (i, c) in Counter::ALL.into_iter().enumerate() {
        set.add(c, i as f64 + 1.0);
    }
    let ok = render(&set.families(&[("chip", "i20")]));
    let families = check(&ok).unwrap_or_else(|e| panic!("{e}"));
    let names: Vec<String> = families.into_iter().map(|f| f.name).collect();
    assert_eq!(names, Counter::ALL.map(Counter::metric_name));
    let twice = format!("{ok}{ok}");
    let no_type = ok.replace("# TYPE dtu_macs_total counter\n", "");
    let same_labels = format!("{ok}dtu_kv_exhaustions_total{{chip=\"i20\"}} 1\n");
    let bad_value = ok.replace("} 2\n", "} two\n");
    for bad in [
        "=== topsexec profile ===\n",
        &twice,
        &no_type,
        &same_labels,
        &bad_value,
    ] {
        assert!(check(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn operators_sharing_a_counter_share_one_family() {
    let mut macs = CounterSet::new();
    macs.add(Counter::Macs, 8.0);
    let kernel = |op, start| {
        let span = Span::new(SpanKind::Kernel, Layer::Sim, 0, "conv", start, start + 50.0);
        span.with_op(op).with_counters(macs.clone())
    };
    let machine = ChipConfig::dtu20().machine_spec(1, 1.0);
    let report = AttributionReport::from_spans(&[kernel(1, 0.0), kernel(2, 50.0)], 100.0, machine);
    let families = check(&report.to_prometheus()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(families[1].name, "dtu_macs_total");
    assert!(families.len() == 2 && families.iter().all(|f| f.samples == 2));
}

#[test]
fn cli_expositions_are_the_document_alone_and_conform() {
    let dir = scratch("exposition");
    // A constrained KV pool, so the sparse registry counters show up.
    let gen = "serve --generative --gen-model tiny --seed 7 --qps 800 --kv-budget 0.0001 --max-new 128 --format prom --no-disk-cache";
    let fleet = "fleet resnet50 --chips 4 --qps 4000 --duration 2000 --seed 7 --jobs 1 --format prom --no-disk-cache";
    let [gen, _] = [gen, fleet].map(|line| {
        let (prom, _) = topsexec(&dir, &line.split(' ').collect::<Vec<_>>());
        let families = check(&prom).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(families.iter().all(|f| f.help), "{line}");
        (prom, families)
    });
    for series in [
        "dtu_gen_offered_total",
        "dtu_gen_completed_total",
        "dtu_gen_ttft_p99_ms",
        "dtu_gen_tpot_p99_ms",
        "dtu_gen_tokens_per_s",
        "dtu_gen_kv_peak_pages",
        "dtu_kv_preemptions_total",
        "dtu_kv_exhaustions_total",
    ] {
        assert!(
            gen.1.iter().any(|f| f.name == series && f.samples == 1),
            "{series}"
        );
    }
    let mut samples = gen.0.lines().filter(|l| !l.starts_with('#'));
    assert!(samples.all(|l| l.contains("{tenant=\"tiny\"} ")));
    // The profile's header goes to stderr in a machine format, and
    // each of its families holds one sample per operator.
    let (prom, header) = topsexec(&dir, &["profile", "resnet50", "--format", "prometheus"]);
    let families = check(&prom).unwrap_or_else(|e| panic!("profile: {e}"));
    assert!(header.starts_with("=== topsexec profile ===\n"), "{header}");
    let operators = families[0].samples;
    assert!(families.iter().all(|f| f.help && f.samples == operators));
    let (json, _) = topsexec(&dir, &["profile", "resnet50", "--format", "json"]);
    assert_eq!(Json::parse(&json)["operators"].arr().len(), operators);
}

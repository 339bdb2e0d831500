//! Prometheus text exposition: the one writer every report hands its
//! metric families to. [`render`] writes each family's `# HELP` and
//! `# TYPE` lines once, followed by all of its samples, which is the
//! grouping the text format requires.

use std::fmt::Write;

/// The Prometheus type of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// A total that only grows over a run.
    Counter,
    /// A value that may move either way.
    Gauge,
}

/// A family declared as data: name, help, type, and its value in a
/// report row `T`.
pub type Declared<T> = (&'static str, &'static str, MetricType, fn(&T) -> f64);

/// One metric family and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    name: String,
    help: &'static str,
    kind: MetricType,
    /// Each sample's rendered label set and value, in output order.
    samples: Vec<(String, f64)>,
}

impl Family {
    /// A family with no samples yet.
    pub fn new(name: impl Into<String>, help: &'static str, kind: MetricType) -> Family {
        Family {
            name: name.into(),
            help,
            kind,
            samples: Vec::new(),
        }
    }

    /// The family with one more sample, labelled `labels`, e.g.
    /// `&[("chip", "i20")]`.
    pub fn sample(mut self, labels: &[(&str, &str)], value: f64) -> Family {
        self.samples.push((render_labels(labels), value));
        self
    }
}

/// Renders `families` in order as Prometheus text exposition.
pub fn render(families: &[Family]) -> String {
    let mut out = String::new();
    for f in families {
        let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
        let kind = match f.kind {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
        };
        let _ = writeln!(out, "# TYPE {} {kind}", f.name);
        for (labels, value) in &f.samples {
            let _ = writeln!(out, "{}{labels} {value}", f.name);
        }
    }
    out
}

/// Renders a Prometheus label set (`{a="x",b="y"}`, empty when none).
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", crate::json::escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

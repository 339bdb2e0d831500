//! The single-model commands: the default `topsexec` run (compile,
//! simulate, measure) and `topsexec profile` (cross-layer trace plus
//! per-operator attribution).

use crate::{accelerator, chip_config, write_file, Failure, Outcome};
use dtu::telemetry::{chrome, AttributionReport, Layer, Recorder, Span, SpanKind, TraceBuffer};
use dtu::{Accelerator, DataType, Graph, Session, SessionOptions, WorkloadSize};
use dtu_bench::cli::{self, Args};
use dtu_graph::parse_model;
use std::fmt::Write;

/// What both commands set up: the graph, the accelerator (with
/// `--no-power-management` applied) and the session options.
fn setup(args: &Args) -> Result<(Graph, Accelerator, SessionOptions), Failure> {
    let batch: usize = args.get("--batch");
    let graph = match (
        args.opt::<String>("--model"),
        args.opt::<String>("--import"),
    ) {
        (Some(name), None) => cli::model_by_name(&name)
            .expect("--model passed its model kind")
            .build(batch),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| Failure::Run(format!("cannot read {path}: {e}")))?;
            parse_model(&text).map_err(|e| Failure::Run(format!("{path}: {e}")))?
        }
        _ => {
            return Err(Failure::Input(
                "exactly one of a model name (--model) or --import is required".into(),
            ))
        }
    };
    let mut cfg = chip_config(args);
    if args.switch("--no-power-management") {
        cfg.features.power_management = false;
    }
    let size = match args.opt::<usize>("--groups") {
        Some(1) => WorkloadSize::Small,
        Some(2) => WorkloadSize::Medium,
        Some(_) => WorkloadSize::Large,
        None => WorkloadSize::FullChip,
    };
    let options = SessionOptions {
        size,
        batch,
        ..Default::default()
    };
    Ok((graph, accelerator(cfg)?, options))
}

/// `topsexec --model <name>`: compile and simulate one model.
pub fn measure(args: &Args) -> Outcome {
    let (graph, accel, options) = setup(args)?;
    println!("=== topsexec ===");
    println!("accelerator : {accel}");
    println!("model       : {graph}");
    println!("batch       : {}", options.batch);

    let session = Session::compile(&accel, &graph, options)
        .map_err(|e| Failure::Run(format!("compile error: {e}")))?;
    println!(
        "compiled    : {} commands over {} streams",
        session.program().total_commands(),
        session.program().streams.len()
    );
    let mut buf = TraceBuffer::new();
    let report = session
        .run_recorded(&mut buf)
        .map_err(|e| Failure::Run(format!("run error: {e}")))?;
    // The simulator's kernel, DMA, code-load and sync-wait spans; the
    // session's envelope span is not part of the profile.
    let spans: Vec<Span> = buf
        .spans()
        .iter()
        .filter(|s| s.layer == Layer::Sim)
        .cloned()
        .collect();

    println!("\n--- measurements ---");
    println!("latency      : {:.3} ms", report.latency_ms());
    println!("throughput   : {:.1} samples/s", report.throughput());
    println!("avg power    : {:.1} W", report.average_watts());
    println!("energy/sample: {:.4} J", 1.0 / report.samples_per_joule());
    println!("mean clock   : {:.0} MHz", report.mean_freq_mhz());
    let c = report.raw().counters;
    println!(
        "kernels      : {} launches, icache hit rate {:.0}%",
        c.kernel_launches,
        c.icache_hit_rate() * 100.0
    );
    println!(
        "dma          : {} transfers, {:.1} MiB on the wire",
        c.dma_transfers,
        c.dma_wire_bytes as f64 / (1024.0 * 1024.0)
    );

    if args.switch("--profile") {
        println!("\n--- profile ---");
        let gpc = accel.config().groups_per_cluster;
        println!("{}", profile_table(&spans, gpc, 10));
    }
    if let Some(path) = args.opt::<String>("--trace-out") {
        write_file(&path, chrome::export(&spans, false))?;
        println!("\ntrace written to {path} (open in chrome://tracing)");
    }
    Ok(())
}

/// The profiler's text view (Fig. 11): total time and event count per
/// kind of simulator span, then the `top_k` longest kernels with their
/// processing group (decoded from the span's flat track) and clock.
fn profile_table(spans: &[Span], groups_per_cluster: usize, top_k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:>12} {:>8}", "kind", "total (us)", "events");
    for kind in [
        SpanKind::Kernel,
        SpanKind::Dma,
        SpanKind::CodeLoad,
        SpanKind::SyncWait,
    ] {
        let of_kind = spans.iter().filter(|s| s.kind == kind);
        // A fold from +0.0: an empty f64 sum is -0.0, printed "-0.00".
        let total_ns = of_kind.clone().fold(0.0, |sum, s| sum + s.duration_ns());
        let _ = writeln!(
            out,
            "{:<12} {:>12.2} {:>8}",
            kind.name(),
            total_ns / 1e3,
            of_kind.count()
        );
    }
    let _ = writeln!(out, "\nhottest kernels:");
    let mut kernels: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .collect();
    kernels.sort_by(|a, b| b.duration_ns().total_cmp(&a.duration_ns()));
    for s in kernels.into_iter().take(top_k) {
        let flat = s.track as usize;
        let _ = writeln!(
            out,
            "  {:>10.2} us  {}  [g{}.{} @ {} MHz]",
            s.duration_ns() / 1e3,
            s.label,
            flat / groups_per_cluster,
            flat % groups_per_cluster,
            s.freq_mhz
        );
    }
    out
}

/// `topsexec profile`: one buffer, one clock, for the compiler phases,
/// the session envelope and the simulator's kernel/DMA/sync spans.
pub fn run(args: &Args) -> Outcome {
    let (graph, accel, options) = setup(args)?;
    let mut buf = TraceBuffer::new();
    let session = Session::compile_recorded(&accel, &graph, options, &mut buf)
        .map_err(|e| Failure::Run(format!("compile error: {e}")))?;
    let report = session
        .run_recorded(&mut buf)
        .map_err(|e| Failure::Run(format!("run error: {e}")))?;

    let groups = args
        .opt("--groups")
        .unwrap_or_else(|| accel.config().total_groups());
    // The compiler lowers to fp16 by default; fold the Table I
    // throughput ratio into the roofline peak.
    let machine = accel
        .config()
        .machine_spec(groups, DataType::Fp16.ops_multiplier());
    let attr = AttributionReport::from_spans(buf.spans(), report.raw().latency_ns, machine);
    for s in attr.operator_spans() {
        buf.record(s);
    }
    let trace_out: String = args.get("--trace-out");
    write_file(&trace_out, buf.to_chrome_trace(true))?;

    let header = format!(
        "=== topsexec profile ===\n\
         accelerator : {accel}\n\
         model       : {graph}\n\
         run         : {:.3} ms, {} operator segments, {} spans\n\
         trace       : {trace_out} (open in Perfetto / chrome://tracing)\n",
        report.latency_ms(),
        attr.ops.len(),
        buf.len()
    );
    // A machine format is all of stdout, so its header goes to stderr.
    match args.get::<String>("--format").as_str() {
        "prometheus" => {
            eprint!("{header}");
            print!("{}", attr.to_prometheus());
        }
        "json" => {
            eprint!("{header}");
            println!("{}", attr.to_json());
        }
        _ => print!("{header}\n{}", attr.to_table()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, label: &str, start: f64, end: f64) -> Span {
        Span::new(kind, Layer::Sim, 4, label, start, end).with_freq(1400)
    }

    #[test]
    fn totals_and_counts() {
        let spans = [
            span(SpanKind::Kernel, "conv", 0.0, 100_000.0),
            span(SpanKind::Kernel, "fc", 100_000.0, 150_000.0),
            span(SpanKind::Dma, "L3->L2", 0.0, 30_000.0),
        ];
        let table = profile_table(&spans, 3, 10);
        assert!(
            table.contains("kernel             150.00        2"),
            "{table}"
        );
        assert!(
            table.contains("dma                 30.00        1"),
            "{table}"
        );
        // An empty kind prints +0.00, never -0.00.
        assert!(
            table.contains("sync-wait            0.00        0"),
            "{table}"
        );
        assert!(!table.contains("-0.00"), "{table}");
    }

    #[test]
    fn hottest_sorts_descending() {
        let spans = [
            span(SpanKind::Kernel, "small", 0.0, 10_000.0),
            span(SpanKind::Kernel, "big", 0.0, 100_000.0),
            span(SpanKind::Kernel, "mid", 0.0, 50_000.0),
        ];
        let table = profile_table(&spans, 3, 2);
        // Rows after the hot-kernel heading read `<us> us <label> ...`.
        let rows = table.lines().skip(7);
        let hot: Vec<&str> = rows.flat_map(|l| l.split_whitespace().nth(2)).collect();
        assert_eq!(hot, ["big", "mid"], "{table}");
    }

    #[test]
    fn report_contains_sections() {
        let spans = [span(SpanKind::Kernel, "conv3x3+bn+relu", 0.0, 42_000.0)];
        let table = profile_table(&spans, 3, 5);
        assert!(table.starts_with("kind "));
        // Track 4 with 3 groups per cluster is group 1 of cluster 1.
        assert!(
            table.contains("42.00 us  conv3x3+bn+relu  [g1.1 @ 1400 MHz]"),
            "{table}"
        );
    }
}

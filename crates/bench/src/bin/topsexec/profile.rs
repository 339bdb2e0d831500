//! The single-model commands: the default `topsexec` run (compile,
//! simulate, measure) and `topsexec profile` (cross-layer trace plus
//! per-operator attribution).

use crate::{accelerator, chip_config, write_file, Failure, Outcome};
use dtu::telemetry::{AttributionReport, Recorder, TraceBuffer};
use dtu::{Accelerator, DataType, Graph, Session, SessionOptions, WorkloadSize};
use dtu_bench::cli::{self, Args};
use dtu_graph::parse_model;

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
    let (report, timeline) = session
        .run_traced()
        .map_err(|e| Failure::Run(format!("run error: {e}")))?;

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
        println!("{}", timeline.report(10));
    }
    if let Some(path) = args.opt::<String>("--trace-out") {
        write_file(&path, timeline.to_chrome_trace())?;
        println!("\ntrace written to {path} (open in chrome://tracing)");
    }
    Ok(())
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

    println!("=== topsexec profile ===");
    println!("accelerator : {accel}");
    println!("model       : {graph}");
    println!(
        "run         : {:.3} ms, {} operator segments, {} spans",
        report.latency_ms(),
        attr.ops.len(),
        buf.len()
    );
    println!("trace       : {trace_out} (open in Perfetto / chrome://tracing)");
    println!();
    match args.get::<String>("--format").as_str() {
        "prometheus" => print!("{}", attr.to_prometheus()),
        "json" => println!("{}", attr.to_json()),
        _ => print!("{}", attr.to_table()),
    }
    Ok(())
}

//! Integration tests for the profiler (Fig. 11's software-stack tool):
//! the simulator's spans recorded by `Session::run_recorded`.

use dtu::telemetry::{chrome, Layer, Span, SpanKind, TraceBuffer};
use dtu::{Accelerator, InferenceReport, Session, SessionOptions};
use dtu_models::Model;

/// Runs `model` at batch 1 on the whole i20 with a recorder attached,
/// returning the report and the simulator's spans.
fn profile(model: Model) -> (InferenceReport, Vec<Span>) {
    let accel = Accelerator::cloudblazer_i20();
    let graph = model.build(1);
    let session = Session::compile(&accel, &graph, SessionOptions::default()).unwrap();
    let mut buf = TraceBuffer::new();
    let report = session.run_recorded(&mut buf).unwrap();
    // Recording must not perturb the simulation.
    assert_eq!(session.run().unwrap().latency_ms(), report.latency_ms());
    let spans = buf
        .spans()
        .iter()
        .filter(|s| s.layer == Layer::Sim)
        .cloned()
        .collect();
    (report, spans)
}

fn kernels(spans: &[Span]) -> impl Iterator<Item = &Span> {
    spans.iter().filter(|s| s.kind == SpanKind::Kernel)
}

#[test]
fn traced_run_matches_untraced_and_covers_the_timeline() {
    let (traced, spans) = profile(Model::Resnet50);

    // One kernel span per launch.
    let kernel_spans = kernels(&spans).count() as u64;
    assert_eq!(kernel_spans, traced.raw().counters.kernel_launches);

    // Spans are well-formed and within the run.
    for s in &spans {
        assert!(s.end_ns >= s.start_ns, "negative interval: {s:?}");
        assert!(
            s.end_ns <= traced.raw().latency_ns + 1.0,
            "span past the end of the run: {s:?}"
        );
    }

    // Kernel time across 6 groups exceeds the wall clock (parallelism).
    let kernel_ns: f64 = kernels(&spans).map(Span::duration_ns).sum();
    assert!(kernel_ns > traced.raw().latency_ns);
}

#[test]
fn hot_kernel_report_names_the_heaviest_work() {
    let (_, spans) = profile(Model::Vgg16);
    let mut hottest: Vec<&Span> = kernels(&spans).collect();
    hottest.sort_by(|a, b| b.duration_ns().total_cmp(&a.duration_ns()));
    hottest.truncate(3);
    assert_eq!(hottest.len(), 3);
    // VGG's hottest kernels are conv or the giant fc.
    for s in &hottest {
        assert!(
            s.label.contains("conv") || s.label.contains("dense"),
            "unexpected hot kernel {s:?}"
        );
    }
}

#[test]
fn chrome_trace_export_is_loadable_json() {
    let (_, spans) = profile(Model::CenterNet);
    let json = chrome::export(&spans, false);
    assert!(!json.contains('\n'), "single-line JSON expected");
    // The trace loads, one duration event per span.
    let events = chrome::parse(&json).expect("loadable trace");
    assert_eq!(events.len(), spans.len());
    assert!(events.iter().all(|e| e.ph == "X"));
}

#[test]
fn dvfs_activity_shows_in_kernel_frequencies() {
    let (report, spans) = profile(Model::Resnet50);
    if report.mean_freq_mhz() < 1399.0 {
        // The governor acted: some kernels must record a lower clock.
        let downclocked = kernels(&spans).filter(|s| s.freq_mhz < 1400).count();
        assert!(downclocked > 0, "mean freq dropped but no kernel shows it");
    }
}

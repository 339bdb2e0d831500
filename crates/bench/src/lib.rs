//! The evaluation harness: everything the `repro_*` binaries share.
//!
//! One function per experiment family: latency sweeps over the Table III
//! suite (Fig. 13), peak-spec ratio tables (Fig. 12/14), energy
//! efficiency (Fig. 15), the batch-throughput and power-management
//! discussion experiments (§VI-D), and the Table II feature ablations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod parallel;

pub use parallel::{chip_latencies, evaluate_suite_with, platform_specs, ChipPoint};

use dtu::{Accelerator, ChipConfig, Session, SessionOptions};
use dtu_harness::SessionCache;
use dtu_models::Model;
use gpu_baseline::RooflineModel;

/// One row of the Fig. 13 / Fig. 15 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Which model.
    pub model: Model,
    /// Cloudblazer i20 simulated latency, ms.
    pub i20_ms: f64,
    /// Nvidia T4 roofline latency, ms.
    pub t4_ms: f64,
    /// Nvidia A10 roofline latency, ms.
    pub a10_ms: f64,
}

impl LatencyRow {
    /// Speedup of the i20 over the T4 (>1 means i20 wins).
    pub fn speedup_vs_t4(&self) -> f64 {
        self.t4_ms / self.i20_ms
    }

    /// Speedup of the i20 over the A10.
    pub fn speedup_vs_a10(&self) -> f64 {
        self.a10_ms / self.i20_ms
    }

    /// Fig. 15 energy-efficiency ratio vs T4: Perf/TDP normalised.
    pub fn efficiency_vs_t4(&self) -> f64 {
        self.speedup_vs_t4() * (70.0 / 150.0)
    }

    /// Fig. 15 energy-efficiency ratio vs A10 (equal TDPs).
    pub fn efficiency_vs_a10(&self) -> f64 {
        self.speedup_vs_a10()
    }
}

/// Runs one model through the full i20 stack (compile + simulate).
///
/// # Panics
///
/// Panics on compile/run failures — the harness treats those as
/// experiment-setup bugs, not recoverable conditions.
pub fn i20_latency_ms(model: Model, batch: usize) -> f64 {
    let accel = Accelerator::cloudblazer_i20();
    let graph = model.build(batch);
    let session = Session::compile(&accel, &graph, SessionOptions::default())
        .unwrap_or_else(|e| panic!("{model}: compile failed: {e}"));
    session
        .run()
        .unwrap_or_else(|e| panic!("{model}: run failed: {e}"))
        .latency_ms()
}

/// Runs one model on a custom chip configuration.
///
/// # Panics
///
/// As for [`i20_latency_ms`].
pub fn chip_latency_ms(cfg: ChipConfig, model: Model, batch: usize) -> f64 {
    let accel = Accelerator::with_config(cfg).expect("valid config");
    let graph = model.build(batch);
    let session = Session::compile(&accel, &graph, SessionOptions::default())
        .unwrap_or_else(|e| panic!("{model}: compile failed: {e}"));
    session
        .run()
        .unwrap_or_else(|e| panic!("{model}: run failed: {e}"))
        .latency_ms()
}

/// Evaluates one model on all three platforms (batch 1, FP16 — the
/// Fig. 13 configuration).
///
/// # Panics
///
/// As for [`i20_latency_ms`].
pub fn evaluate_model(model: Model) -> LatencyRow {
    let graph = model.build(1);
    let t4 = RooflineModel::t4()
        .estimate(&graph)
        .unwrap_or_else(|e| panic!("{model}: T4 estimate failed: {e}"));
    let a10 = RooflineModel::a10()
        .estimate(&graph)
        .unwrap_or_else(|e| panic!("{model}: A10 estimate failed: {e}"));
    LatencyRow {
        model,
        i20_ms: i20_latency_ms(model, 1),
        t4_ms: t4.latency_ms,
        a10_ms: a10.latency_ms,
    }
}

/// Evaluates the full Table III suite, serially and without a shared
/// artifact cache. [`evaluate_suite_with`] is the parallel, cached
/// form the repro binaries use.
///
/// # Panics
///
/// As for [`i20_latency_ms`].
pub fn evaluate_suite() -> Vec<LatencyRow> {
    evaluate_suite_with(&SessionCache::memory_only(), 1)
}

/// Regenerates the fig. 12–15 figure data as one deterministic JSON
/// document — the golden-figure payload behind
/// `topsexec sweep --check-golden` / `--write-golden` and the CI
/// regression gate.
///
/// Fig. 12 and 14 are pure spec-sheet ratio tables; fig. 13 and 15 run
/// the full Table III suite (batch 1, FP16) through `cache` on `jobs`
/// workers. Every quantity is a model output, never a wall-clock
/// measurement, so two runs of the same source tree produce identical
/// documents whatever the job count or cache temperature.
///
/// # Panics
///
/// As for [`i20_latency_ms`] — the suite must compile and run.
pub fn figures_json(cache: &SessionCache, jobs: usize) -> String {
    use dtu_isa::DataType;
    use dtu_telemetry::json::{array, number, JsonObject};
    use gpu_baseline::PlatformSpec;

    let (i10, i20, t4, a10) = platform_specs();
    let rows = evaluate_suite_with(cache, jobs);

    let spec_ratios = |num: &PlatformSpec, base: &PlatformSpec| {
        JsonObject::new()
            .raw("fp32_peak", &number(num.fp32_tflops / base.fp32_tflops))
            .raw("fp16_peak", &number(num.fp16_tflops / base.fp16_tflops))
            .raw("int8_peak", &number(num.int8_tops / base.int8_tops))
            .raw("memory", &number(num.memory_gb / base.memory_gb))
            .raw(
                "bandwidth",
                &number(num.bandwidth_gb_s / base.bandwidth_gb_s),
            )
            .build()
    };
    let fig12 = JsonObject::new()
        .raw("i20_over_i10", &spec_ratios(&i20, &i10))
        .raw("i20_over_t4", &spec_ratios(&i20, &t4))
        .raw("i20_over_a10", &spec_ratios(&i20, &a10))
        .build();

    let fig13_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            JsonObject::new()
                .string("model", r.model.name())
                .raw("i20_ms", &number(r.i20_ms))
                .raw("t4_ms", &number(r.t4_ms))
                .raw("a10_ms", &number(r.a10_ms))
                .raw("speedup_vs_t4", &number(r.speedup_vs_t4()))
                .raw("speedup_vs_a10", &number(r.speedup_vs_a10()))
                .build()
        })
        .collect();
    let fig13 = JsonObject::new()
        .raw("rows", &array(&fig13_rows))
        .raw(
            "geomean_vs_t4",
            &number(geomean(
                &rows
                    .iter()
                    .map(LatencyRow::speedup_vs_t4)
                    .collect::<Vec<_>>(),
            )),
        )
        .raw(
            "geomean_vs_a10",
            &number(geomean(
                &rows
                    .iter()
                    .map(LatencyRow::speedup_vs_a10)
                    .collect::<Vec<_>>(),
            )),
        )
        .build();

    let eff_ratios = |dtype: dtu_isa::DataType| {
        let base = t4.peak_per_tdp(dtype);
        JsonObject::new()
            .raw("i10", &number(i10.peak_per_tdp(dtype) / base))
            .raw("i20", &number(i20.peak_per_tdp(dtype) / base))
            .raw("a10", &number(a10.peak_per_tdp(dtype) / base))
            .build()
    };
    let fig14 = JsonObject::new()
        .raw("fp32_per_tdp_over_t4", &eff_ratios(DataType::Fp32))
        .raw("fp16_per_tdp_over_t4", &eff_ratios(DataType::Fp16))
        .raw("int8_per_tdp_over_t4", &eff_ratios(DataType::Int8))
        .build();

    let fig15_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            JsonObject::new()
                .string("model", r.model.name())
                .raw("efficiency_vs_t4", &number(r.efficiency_vs_t4()))
                .raw("efficiency_vs_a10", &number(r.efficiency_vs_a10()))
                .build()
        })
        .collect();
    let fig15 = JsonObject::new()
        .raw("rows", &array(&fig15_rows))
        .raw(
            "geomean_vs_t4",
            &number(geomean(
                &rows
                    .iter()
                    .map(LatencyRow::efficiency_vs_t4)
                    .collect::<Vec<_>>(),
            )),
        )
        .raw(
            "geomean_vs_a10",
            &number(geomean(
                &rows
                    .iter()
                    .map(LatencyRow::efficiency_vs_a10)
                    .collect::<Vec<_>>(),
            )),
        )
        .build();

    JsonObject::new()
        .raw("fig12", &fig12)
        .raw("fig13", &fig13)
        .raw("fig14", &fig14)
        .raw("fig15", &fig15)
        .build()
}

/// Geometric mean of a slice (panics on empty).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints a comparison table like the Fig. 13 chart's data.
pub fn print_latency_table(rows: &[LatencyRow]) {
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "DNN", "i20 (ms)", "T4 (ms)", "A10 (ms)", "vs T4", "vs A10"
    );
    for r in rows {
        println!(
            "{:<16} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x {:>8.2}x",
            r.model.name(),
            r.i20_ms,
            r.t4_ms,
            r.a10_ms,
            r.speedup_vs_t4(),
            r.speedup_vs_a10()
        );
    }
    let g_t4 = geomean(
        &rows
            .iter()
            .map(LatencyRow::speedup_vs_t4)
            .collect::<Vec<_>>(),
    );
    let g_a10 = geomean(
        &rows
            .iter()
            .map(LatencyRow::speedup_vs_a10)
            .collect::<Vec<_>>(),
    );
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>8.2}x {:>8.2}x",
        "GeoMean", "", "", "", g_t4, g_a10
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_row_derived_ratios() {
        let r = LatencyRow {
            model: Model::Vgg16,
            i20_ms: 1.0,
            t4_ms: 2.22,
            a10_ms: 1.16,
        };
        assert!((r.speedup_vs_t4() - 2.22).abs() < 1e-12);
        assert!((r.efficiency_vs_t4() - 2.22 * 70.0 / 150.0).abs() < 1e-9);
        assert!((r.efficiency_vs_a10() - 1.16).abs() < 1e-12);
    }

    #[test]
    fn single_model_end_to_end() {
        // The cheapest model keeps the test fast.
        let row = evaluate_model(Model::Resnet50);
        assert!(row.i20_ms > 0.0);
        assert!(row.t4_ms > 0.0);
        assert!(row.a10_ms > 0.0);
    }
}

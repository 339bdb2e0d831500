//! Sessions: compiled models bound to an accelerator.

use crate::{Accelerator, DtuError};
use dtu_compiler::{compile, compile_recorded, CompilerConfig, Mode, Placement};
use dtu_graph::Graph;
use dtu_sim::{Program, RunReport};
use dtu_telemetry::{Layer, Recorder, Span, SpanKind};
use std::fmt;

/// How much of the chip a session claims (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadSize {
    /// One processing group.
    Small,
    /// Two processing groups of one cluster.
    Medium,
    /// One full cluster (three groups).
    Large,
    /// Every group on the chip — the lowest-latency deployment.
    #[default]
    FullChip,
}

impl WorkloadSize {
    fn placement(self, accel: &Accelerator, cluster: usize) -> Placement {
        let cfg = accel.config();
        match self {
            WorkloadSize::Small => Placement::cluster_groups(cluster, 1, cfg),
            WorkloadSize::Medium => Placement::cluster_groups(cluster, 2, cfg),
            WorkloadSize::Large => Placement::cluster_groups(cluster, cfg.groups_per_cluster, cfg),
            WorkloadSize::FullChip => Placement::full_chip(cfg),
        }
    }
}

/// Session configuration.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Resource claim.
    pub size: WorkloadSize,
    /// Cluster for sub-chip placements.
    pub cluster: usize,
    /// Batch the session serves (informational; build the graph at this
    /// batch). Batches > 1 compile in throughput mode: groups run
    /// replicas and weights broadcast.
    pub batch: usize,
    /// Explicit placement override (wins over `size`).
    pub placement: Option<Placement>,
    /// Compiler-config override (defaults derive from the chip).
    pub compiler: Option<CompilerConfig>,
}

impl SessionOptions {
    /// Options for a throughput-oriented batched deployment.
    pub fn batched(batch: usize) -> Self {
        SessionOptions {
            batch,
            ..Default::default()
        }
    }

    /// Resolves the options against an accelerator into the concrete
    /// `(placement, compiler config, batch)` triple that
    /// [`Session::compile`] would compile with.
    ///
    /// This is the single source of truth for option resolution: the
    /// session builder calls it, and so does the `dtu-harness` cache,
    /// which needs the resolved triple *before* compiling to form a
    /// content-hash cache key that matches what compilation would
    /// actually use.
    pub fn resolve(&self, accel: &Accelerator) -> (Placement, CompilerConfig, usize) {
        let chip_cfg = accel.config();
        let placement = self
            .placement
            .clone()
            .unwrap_or_else(|| self.size.placement(accel, self.cluster));
        let mut compiler = self
            .compiler
            .clone()
            .unwrap_or_else(|| CompilerConfig::for_chip(chip_cfg));
        let batch = self.batch.max(1);
        if batch > 1 {
            compiler.mode = Mode::ThroughputBatched;
        }
        (placement, compiler, batch)
    }
}

/// The outcome of one inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    report: RunReport,
    batch: usize,
}

impl InferenceReport {
    /// End-to-end latency, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.report.latency_ms()
    }

    /// Energy consumed, joules.
    pub fn energy_joules(&self) -> f64 {
        self.report.energy_joules()
    }

    /// Average board power, watts.
    pub fn average_watts(&self) -> f64 {
        self.report.average_watts()
    }

    /// Throughput in samples per second.
    pub fn throughput(&self) -> f64 {
        self.batch as f64 / (self.latency_ms() / 1e3)
    }

    /// Samples per joule (the measured energy-efficiency metric used by
    /// the power-management experiment).
    pub fn samples_per_joule(&self) -> f64 {
        self.batch as f64 / self.energy_joules()
    }

    /// Mean core frequency over the run, MHz.
    pub fn mean_freq_mhz(&self) -> f64 {
        self.report.mean_freq_mhz
    }

    /// The full simulator report (counters, energy breakdown).
    pub fn raw(&self) -> &RunReport {
        &self.report
    }
}

impl fmt::Display for InferenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ms, {:.1} W, {:.1} samples/s",
            self.latency_ms(),
            self.average_watts(),
            self.throughput()
        )
    }
}

/// A compiled model bound to an accelerator.
#[derive(Debug)]
pub struct Session<'a> {
    accel: &'a Accelerator,
    program: Program,
    batch: usize,
}

impl<'a> Session<'a> {
    /// Compiles a graph for the accelerator.
    ///
    /// # Errors
    ///
    /// Compilation failures (bad placement, model too large, dynamic
    /// shapes left unbound) surface as [`DtuError::Compile`].
    pub fn compile(
        accel: &'a Accelerator,
        graph: &Graph,
        options: SessionOptions,
    ) -> Result<Self, DtuError> {
        Self::build(accel, graph, options, None)
    }

    /// Compiles a graph while recording per-phase compiler spans into a
    /// telemetry [`Recorder`].
    ///
    /// # Errors
    ///
    /// As for [`Session::compile`].
    pub fn compile_recorded(
        accel: &'a Accelerator,
        graph: &Graph,
        options: SessionOptions,
        rec: &mut dyn Recorder,
    ) -> Result<Self, DtuError> {
        Self::build(accel, graph, options, Some(rec))
    }

    fn build(
        accel: &'a Accelerator,
        graph: &Graph,
        options: SessionOptions,
        rec: Option<&mut dyn Recorder>,
    ) -> Result<Self, DtuError> {
        let chip_cfg = accel.config();
        let (placement, compiler, batch) = options.resolve(accel);
        let program = match rec {
            Some(rec) => compile_recorded(graph, chip_cfg, &placement, &compiler, rec)?,
            None => compile(graph, chip_cfg, &placement, &compiler)?,
        };
        Ok(Session {
            accel,
            program,
            batch,
        })
    }

    /// Wraps an already-compiled program in a runnable session without
    /// invoking the compiler — the cache-hit path of the `dtu-harness`
    /// compiled-session cache. The caller is responsible for the
    /// program having been compiled for this accelerator's
    /// configuration (the cache guarantees it via its content-hash
    /// key).
    pub fn from_program(accel: &'a Accelerator, program: Program, batch: usize) -> Self {
        Session {
            accel,
            program,
            batch: batch.max(1),
        }
    }

    /// Runs the compiled program once.
    ///
    /// # Errors
    ///
    /// Scheduler failures (deadlock, illegal DMA) surface as
    /// [`DtuError::Sim`].
    pub fn run(&self) -> Result<InferenceReport, DtuError> {
        let report = self.accel.chip().run(&self.program)?;
        Ok(InferenceReport {
            report,
            batch: self.batch,
        })
    }

    /// Runs the compiled program with a telemetry [`Recorder`]
    /// attached: the simulator's kernel/DMA/sync spans stream into
    /// `rec`, and the session wraps them in one `Layer::Session` span
    /// covering the whole execution.
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn run_recorded(&self, rec: &mut dyn Recorder) -> Result<InferenceReport, DtuError> {
        let report = self.accel.chip().run_recorded(&self.program, rec)?;
        if rec.enabled() {
            rec.record(Span::new(
                SpanKind::Session,
                Layer::Session,
                0,
                self.program.name.clone(),
                0.0,
                report.latency_ns,
            ));
        }
        Ok(InferenceReport {
            report,
            batch: self.batch,
        })
    }

    /// Runs the compiled program under a fault-injection session (see
    /// `dtu-faults`). The session carries fired-event state across
    /// runs, so [`crate::run_resilient`] can retry or remap past
    /// transient faults while permanent failures keep holding. A
    /// session over an empty plan is byte-identical to [`Session::run`].
    ///
    /// # Errors
    ///
    /// As for [`Session::run`], plus `DtuError::Sim(SimError::Fault)`
    /// when an injected fault aborts the run.
    pub fn run_faulted(
        &self,
        faults: &mut dtu_faults::FaultSession,
    ) -> Result<InferenceReport, DtuError> {
        let report = self.accel.chip().run_faulted(&self.program, faults)?;
        Ok(InferenceReport {
            report,
            batch: self.batch,
        })
    }

    /// The accelerator the session is bound to.
    pub fn accelerator(&self) -> &'a Accelerator {
        self.accel
    }

    /// The batch the session serves.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The compiled program (inspection / custom scheduling).
    pub fn program(&self) -> &Program {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_graph::{Op, TensorType};

    fn toy(batch: usize) -> Graph {
        let mut g = Graph::new("toy");
        let x = g.input("x", TensorType::fixed(&[batch, 8, 32, 32]));
        let c = g.add_node(Op::conv2d(16, 3, 1, 1), vec![x]).unwrap();
        let r = g.add_node(Op::Relu, vec![c]).unwrap();
        g.mark_output(r);
        g
    }

    #[test]
    fn compile_and_run_full_chip() {
        let accel = Accelerator::cloudblazer_i20();
        let s = Session::compile(&accel, &toy(1), SessionOptions::default()).unwrap();
        let r = s.run().unwrap();
        assert!(r.latency_ms() > 0.0);
        assert!(r.energy_joules() > 0.0);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn workload_sizes_scale_latency() {
        let accel = Accelerator::cloudblazer_i20();
        let mut latencies = Vec::new();
        for size in [
            WorkloadSize::Small,
            WorkloadSize::Medium,
            WorkloadSize::Large,
        ] {
            let s = Session::compile(
                &accel,
                &toy(1),
                SessionOptions {
                    size,
                    ..Default::default()
                },
            )
            .unwrap();
            latencies.push(s.run().unwrap().latency_ms());
        }
        // More groups, less latency (monotone non-increasing).
        assert!(latencies[0] >= latencies[1]);
        assert!(latencies[1] >= latencies[2]);
    }

    #[test]
    fn batched_session_reports_throughput() {
        let accel = Accelerator::cloudblazer_i20();
        let s = Session::compile(&accel, &toy(8), SessionOptions::batched(8)).unwrap();
        let r = s.run().unwrap();
        assert!(r.throughput() > 0.0);
        assert!(r.samples_per_joule() > 0.0);
        // Program used throughput mode with overlapped weight staging.
        assert!(s.program().total_commands() > 0);
    }

    #[test]
    fn explicit_placement_override() {
        let accel = Accelerator::cloudblazer_i20();
        let p = Placement::cluster_groups(1, 1, accel.config());
        let s = Session::compile(
            &accel,
            &toy(1),
            SessionOptions {
                placement: Some(p),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(s.program().streams.len(), 1);
        assert_eq!(s.program().streams[0].group.cluster, 1);
    }

    #[test]
    fn i10_runs_same_model() {
        let accel = Accelerator::cloudblazer_i10();
        let s = Session::compile(&accel, &toy(1), SessionOptions::default()).unwrap();
        let r = s.run().unwrap();
        assert!(r.latency_ms() > 0.0);
    }

    #[test]
    fn recorded_run_spans_three_layers_on_one_clock() {
        use dtu_telemetry::TraceBuffer;
        let accel = Accelerator::cloudblazer_i20();
        let mut buf = TraceBuffer::new();
        let s = Session::compile_recorded(&accel, &toy(1), SessionOptions::default(), &mut buf)
            .unwrap();
        let r = s.run_recorded(&mut buf).unwrap();
        let layers: std::collections::BTreeSet<Layer> =
            buf.spans().iter().map(|sp| sp.layer).collect();
        assert!(layers.contains(&Layer::Compiler));
        assert!(layers.contains(&Layer::Session));
        assert!(layers.contains(&Layer::Sim));
        // The session span covers every sim span.
        let session = buf
            .spans()
            .iter()
            .find(|sp| sp.layer == Layer::Session)
            .unwrap();
        assert_eq!(session.start_ns, 0.0);
        assert_eq!(session.end_ns, r.raw().latency_ns);
        for sp in buf.spans().iter().filter(|sp| sp.layer == Layer::Sim) {
            assert!(sp.end_ns <= session.end_ns + 1.0);
        }
        // Recording must not perturb the simulation.
        let plain = s.run().unwrap();
        assert_eq!(plain.latency_ms(), r.latency_ms());
    }

    #[test]
    fn report_display() {
        let accel = Accelerator::cloudblazer_i20();
        let s = Session::compile(&accel, &toy(1), SessionOptions::default()).unwrap();
        let r = s.run().unwrap();
        assert!(r.to_string().contains("ms"));
    }
}

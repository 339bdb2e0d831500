//! Public facade of the Cloudblazer i20 / DTU 2.0 reproduction.
//!
//! This crate ties the substrates together into the workflow a user of
//! the real product would follow (§V-B): build or import a DNN graph,
//! compile it with TopsInference/TopsEngine (fusion, tiling, placement),
//! and run it on the accelerator, getting latency/energy/counter reports
//! back.
//!
//! # Quickstart
//!
//! ```
//! use dtu::{Accelerator, Session, SessionOptions};
//! use dtu_graph::{Graph, Op, TensorType};
//!
//! // A tiny model: conv -> relu.
//! let mut g = Graph::new("demo");
//! let x = g.input("x", TensorType::fixed(&[1, 3, 32, 32]));
//! let c = g.add_node(Op::conv2d(8, 3, 1, 1), vec![x])?;
//! let r = g.add_node(Op::Relu, vec![c])?;
//! g.mark_output(r);
//!
//! let accel = Accelerator::cloudblazer_i20();
//! let session = Session::compile(&accel, &g, SessionOptions::default())?;
//! let report = session.run()?;
//! assert!(report.latency_ms() > 0.0);
//! # Ok::<(), dtu::DtuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod error;
mod recovery;
mod runtime;
mod session;

pub use accelerator::Accelerator;
pub use error::DtuError;
pub use recovery::{
    run_resilient, run_resilient_with, RecoveryPolicy, RemapEvent, ResilienceReport,
};
pub use runtime::{DeviceAllocator, DeviceBuffer, Runtime, RuntimeError};
pub use session::{InferenceReport, Session, SessionOptions, WorkloadSize};

// Re-export the pieces users need to build models and interpret reports.
pub use dtu_compiler::{CompilerConfig, Placement};
/// Deterministic fault injection: plans, sessions, and typed fault
/// errors (the schedule side of [`run_resilient`]).
pub use dtu_faults as faults;
pub use dtu_graph::{Graph, GraphError, Op, TensorType};
pub use dtu_isa::DataType;
/// The event-driven serving layer (dynamic batching, SLA admission,
/// elastic scaling).
pub use dtu_serve as serve;
pub use dtu_sim::{ChipConfig, FeatureSet, RunReport};
/// The unified observability layer: spans, the counter registry, trace
/// export, and per-operator bottleneck attribution.
pub use dtu_telemetry as telemetry;

//! `dtu-serve` — event-driven cloud serving on the simulated i20.
//!
//! The paper frames the accelerator as a *cloud inference* product:
//! "the ability to efficiently serve multiple user requests is crucial
//! to improve throughput and hardware utilization" (§IV-E), with
//! isolated processing groups elastically assigned to workloads
//! (Fig. 7). This crate is that serving layer as a deterministic
//! discrete-event simulator:
//!
//! * **Arrivals** ([`ArrivalProcess`]) — seeded Poisson and bursty
//!   (Markov-modulated) request processes per tenant.
//! * **Dynamic batching** ([`BatchPolicy`]) — max-batch-size plus
//!   batching-timeout batch formation per tenant queue, served through
//!   a session cache keyed on (model, batch, placement)
//!   ([`CompiledModel`]).
//! * **SLA-aware admission** ([`SlaPolicy`]) — per-tenant deadline and
//!   queue-depth limits with shed/violation accounting.
//! * **Elastic group scaling** ([`ScalePolicy`]) — tenants grow
//!   1→2→3 processing groups under observed queue delay and shrink
//!   when idle, the online version of Fig. 7's resource assignment.
//! * **Metrics** ([`ServeReport`], [`ServingTrace`]) — per-tenant and
//!   global p50/p95/p99, batch-size histograms, shed counts, and a
//!   JSONL event trace alongside the profiler's Chrome-trace export.
//!
//! The engine ([`run_serving`]) is generic over [`ServiceModel`], so
//! policies are unit-testable against [`AnalyticModel`] cost curves
//! and deployable against the real compiled stack via
//! [`CompiledModel`]. With batching, scaling, and shedding disabled it
//! reduces exactly to a per-tenant M/D/1 queue (checked against the
//! closed form in the crate's tests).
//!
//! Generative workloads get their own engine: [`run_generative`] runs
//! **continuous (iteration-level) batching** — requests join and leave
//! the running batch at token boundaries, prefill and decode steps are
//! priced by a [`TokenModel`], and KV-cache pages are charged against
//! the chip's three-level memory model by a [`PagedKvCache`] (with
//! shed/preempt on exhaustion). Reports carry TTFT and TPOT
//! percentiles next to the classic end-to-end latencies.
//!
//! # Example
//!
//! ```
//! use dtu_serve::{run_serving, AnalyticModel, ServeConfig, TenantSpec};
//! use dtu_sim::ChipConfig;
//!
//! let cfg = ServeConfig {
//!     duration_ms: 200.0,
//!     tenants: vec![TenantSpec::poisson("web", 0, 300.0)],
//!     ..Default::default()
//! };
//! let mut model = AnalyticModel::new("resnet-like", 0.5);
//! let out = run_serving(&cfg, &ChipConfig::dtu20(), &mut [&mut model])?;
//! assert!(out.report.completed > 0);
//! # Ok::<(), dtu_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod config;
mod engine;
mod gen_live;
mod generative;
mod kv;
mod live;
mod metrics;
mod model;
pub mod stats;
mod token_model;

pub use arrival::{ArrivalGen, ArrivalProcess, ServeRng};
pub use config::{BatchPolicy, RetryPolicy, ScalePolicy, ServeConfig, SlaPolicy, TenantSpec};
/// Fault plans and sessions consumed by the engine's injection hooks
/// (re-exported so callers can build [`ServeConfig::faults`] without a
/// separate dependency).
pub use dtu_faults as faults;
pub use engine::{run_serving, run_serving_live, ServeOutcome};
pub use gen_live::{GenLiveConfig, GenMonitor, GenRecord, GenRow};
pub use generative::{
    run_generative, run_generative_live, GenDecodeStep, GenJoiner, GenObserver, GenOutcome,
    GenReport, GenerativeScenario,
};
pub use kv::{KvCacheConfig, KvStats, PagedKvCache};
pub use live::{
    LiveConfig, LiveMonitor, LogEntry, ServeRecord, ServeRecordKind, TenantLive, TenantRow,
};
pub use metrics::{
    event_to_span, RequestOutcome, ServeEvent, ServeEventKind, ServeReport, ServingTrace,
    TenantReport,
};
pub use model::{AnalyticModel, CacheStats, CompiledModel, PriceMemo, ProgramSource, ServiceModel};
pub use stats::{percentile, LatencyStats, Sample};
pub use token_model::{AnalyticTokenModel, CompiledTokenModel, PrefillOnly, TokenModel};

use dtu_compiler::CompileError;
use dtu_faults::FaultError;
use dtu_sim::SimError;
use std::error::Error;
use std::fmt;

/// Any failure from configuring or running a serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The scenario itself is inconsistent (bad tenant/model wiring,
    /// more groups than the chip has, zero batch).
    Config(String),
    /// Compiling a session for some (model, batch, placement) failed.
    Compile(CompileError),
    /// Simulating a compiled session failed.
    Sim(SimError),
    /// A fault took a tenant's last processing group and stopped a
    /// single-shot run; the run's log up to the outage comes with it.
    Outage(Box<Outage>),
}

/// A single-shot run stopped by a fault, and its log up to then.
#[derive(Debug, Clone, PartialEq)]
pub struct Outage {
    /// The fault that took the last group.
    pub fault: FaultError,
    /// Events up to the outage, the group losses included.
    pub trace: ServingTrace,
    /// Requests completed before it; kept only when
    /// [`ServeConfig::record_requests`] is set.
    pub requests: Vec<RequestOutcome>,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serving config error: {msg}"),
            ServeError::Compile(e) => write!(f, "serving compile error: {e}"),
            ServeError::Sim(e) => write!(f, "serving simulation error: {e}"),
            ServeError::Outage(o) => write!(f, "serving simulation error: fault: {}", o.fault),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Config(_) => None,
            ServeError::Compile(e) => Some(e),
            ServeError::Sim(e) => Some(e),
            ServeError::Outage(o) => Some(&o.fault),
        }
    }
}

impl From<CompileError> for ServeError {
    fn from(e: CompileError) -> Self {
        ServeError::Compile(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = ServeError::Config("x".into());
        assert!(e.to_string().contains("config"));
        assert!(e.source().is_none());
        let e: ServeError = SimError::InvalidConfig("y".into()).into();
        assert!(e.to_string().contains("simulation"));
        assert!(e.source().is_some());
    }

    #[test]
    fn an_outage_reads_as_the_fault_it_carries() {
        let fault = FaultError::CoreFailure {
            cluster: 0,
            group: 1,
            at_ns: 5.0,
        };
        let outage = ServeError::Outage(Box::new(Outage {
            fault,
            trace: ServingTrace::default(),
            requests: Vec::new(),
        }));
        assert_eq!(
            outage.to_string(),
            ServeError::Sim(SimError::Fault(fault)).to_string()
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}

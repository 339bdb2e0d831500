//! dtu-fleet: cluster-scale serving over N×M simulated DTUs.
//!
//! One Cloudblazer card carries several DTU chips and one rack carries
//! several cards; cloud inference at the scale the paper targets is a
//! *fleet* problem, not a chip problem. This crate layers a
//! deterministic cluster simulation above [`dtu_serve`]:
//!
//! - [`FleetTopology`] — N chips × M cards, homogeneous or mixed
//!   ([`ChipConfig`](dtu_sim::ChipConfig) per chip), each chip an
//!   independent serving engine.
//! - [`place`] — the fleet scheduler: replicas spread for throughput,
//!   placed by content-hashed *artifact fingerprint* for compile
//!   locality, so identical artifacts compile once in the shared
//!   [`SessionCache`](dtu_harness::SessionCache) and are reused
//!   fleet-wide.
//! - [`route_epoch`] — cross-chip routing: power-of-two-choices over
//!   projected load and EWMA queueing delay, deterministic
//!   tie-breaking.
//! - [`RollPlan`] — rolling deploys: drain, swap, re-admit, with
//!   per-tenant availability accounted while the roll is in flight.
//! - [`run_fleet`] — the engine: per-chip epoch simulations executed
//!   on the harness's parallel [`ExperimentPlan`](dtu_harness::ExperimentPlan)
//!   pool with routing epochs as sync points, merged into a
//!   [`FleetReport`] whose JSON is byte-identical across worker
//!   counts. Each distinct session is priced once per run (its graph
//!   built, its program fetched or compiled, and walked); every later
//!   chip-epoch reuses the walk's result from the run's price table.
//!
//! Chip loss is a first-class event: a [`ChipKill`] takes a whole chip
//! down mid-run (via `dtu-faults` core failures), the scheduler
//! re-places its replicas on survivors, and the
//! `offered == completed + shed + fault_dropped` invariant is enforced
//! fleet-wide, per tenant, and per chip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deploy;
mod engine;
mod monitor;
mod report;
mod route;
mod schedule;
mod topology;

pub use deploy::{RollPlan, RollState};
pub use engine::{run_fleet, run_fleet_monitored, ChipKill, FleetConfig};
pub use monitor::{
    FleetAlert, FleetChipRow, FleetFrame, FleetMonitor, FleetTenantRow, OffenderShare,
};
pub use report::{FleetChipReport, FleetReport, FleetTenantReport, PricingStats};
pub use route::{
    route_epoch, trace_base, trace_chip, trace_epoch, EpochRoutes, RouteCell, RouterState,
};
pub use schedule::{artifact_key, place, replace_after_loss, FleetPlacement, FleetTenant};
pub use topology::{FleetChip, FleetTopology};

/// Shared graph builders for the crate's unit tests: one toy conv
/// model, parameterised by channel count so two tenants can carry
/// distinct artifact fingerprints.
#[cfg(test)]
pub(crate) mod testutil {
    use dtu_graph::{Graph, Op, TensorType};
    use dtu_harness::SweepModel;

    /// A tiny conv tenant; `channels` differentiates graph
    /// fingerprints between named tenants.
    pub(crate) fn toy_model_with(name: &str, channels: usize) -> SweepModel<'static> {
        SweepModel::new(name.to_string(), move |batch| {
            let mut g = Graph::new("toy");
            let x = g.input("x", TensorType::fixed(&[batch, channels, 16, 16]));
            let c = g
                .add_node(Op::conv2d(16, 3, 1, 1), vec![x])
                .expect("conv2d on a fresh input graph always wires");
            g.mark_output(c);
            g
        })
    }

    /// The default single-tenant toy model.
    pub(crate) fn toy_model() -> SweepModel<'static> {
        toy_model_with("toy", 16)
    }
}

use dtu_harness::HarnessError;

/// Errors a fleet simulation can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The topology, tenants, or run configuration are unusable.
    Config(String),
    /// The no-leaks accounting invariant broke (a bug, never
    /// expected).
    Accounting(String),
    /// A per-chip simulation failed on the harness pool.
    Harness(HarnessError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "fleet config error: {msg}"),
            FleetError::Accounting(msg) => write!(f, "fleet accounting violation: {msg}"),
            FleetError::Harness(e) => write!(f, "fleet chip simulation failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Harness(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HarnessError> for FleetError {
    fn from(e: HarnessError) -> Self {
        FleetError::Harness(e)
    }
}

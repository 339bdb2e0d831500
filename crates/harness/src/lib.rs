//! Parallel experiment engine for the Cloudblazer reproduction.
//!
//! Every repro binary evaluates the same shape of work: a grid of
//! (model, batch, placement, chip-config) points, each point compiling
//! a graph and simulating the resulting program. Done naively that is
//! a long single-core walk with heavy recompilation of identical
//! sessions. This crate factors the shape out once:
//!
//! * [`ExperimentPlan`] — a deduplicated list of experiment points,
//!   each of which may depend on earlier ones, run by `jobs` workers
//!   that claim the points in insertion order (the calling thread
//!   alone when `jobs = 1`). Results come back in *insertion order*,
//!   independent of the thread schedule, so parallel runs are
//!   byte-for-byte reproducible.
//! * [`SessionCache`] — a compiled-session artifact cache keyed by a
//!   content hash of (graph, chip config, placement, compiler config,
//!   batch, compiler version). An in-memory tier serves repeats within
//!   a process; an optional disk tier under `target/dtu-cache/`
//!   (JSON-serialized lowered programs) serves repeats across
//!   processes. Hit/miss counts flow into the `dtu-telemetry` counter
//!   registry.
//! * [`run_sweep`] — the model × batch grid runner behind
//!   `topsexec sweep`, with deterministic JSON/table reports.
//! * [`run_fault_sweep`] — the model × fault-plan × severity grid
//!   behind `topsexec faults`: every point runs under seeded fault
//!   injection through the `dtu` recovery loop, with per-point seeds
//!   derived from content keys so reports are byte-identical across
//!   `--jobs`.
//! * [`run_generative_serve`] — the continuous-batching generative
//!   scenario behind `topsexec serve --generative`: runs `dtu-serve`'s
//!   deterministic token-level engine on a token model that compiles
//!   each session it meets through the shared cache, so TTFT/TPOT
//!   reports are byte-identical across cache temperature.
//! * [`compare_golden`] — the golden-figure comparator behind
//!   `topsexec sweep --check-golden` and the CI regression gate:
//!   structural JSON equality with relative tolerance on the numbers.
//!
//! # Example
//!
//! ```
//! use dtu_harness::{ExperimentPlan, HarnessError};
//!
//! let mut plan = ExperimentPlan::new();
//! let a = plan.add_point(1, "a", &[], |_| Ok(10u64));
//! let b = plan.add_point(2, "b", &[a], move |ctx| Ok(ctx.require(a)? + 1));
//! // Key 1 is already planned: the duplicate is coalesced.
//! assert_eq!(plan.add_point(1, "a2", &[], |_| Ok(99)), a);
//! let results = plan.run(4);
//! assert_eq!(results[b.index()], Ok(11));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
mod faultsweep;
mod genserve;
mod golden;
mod plan;
mod slosweep;
mod sweep;

pub use cache::{CacheOutcome, CacheStats, SessionCache, CACHE_FORMAT_VERSION};
pub use error::HarnessError;
pub use faultsweep::{run_fault_sweep, FaultPoint, FaultSweepReport};
pub use genserve::run_generative_serve;
pub use golden::{compare_golden, GOLDEN_RTOL};
pub use plan::{available_jobs, ExperimentPlan, PlanCtx, PointId};
pub use slosweep::{
    run_slo_scenario, run_slo_sweep, slo_point_seed, SloPoint, SloScenario, SloSweepReport,
};
pub use sweep::{run_sweep, SweepModel, SweepPoint, SweepReport};

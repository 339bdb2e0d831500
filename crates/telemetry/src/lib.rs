//! `dtu-telemetry` — the single observability layer of the stack.
//!
//! The paper's software suite ships a profiler/debugger (Fig. 11) that
//! shows users where cycles go on the real DTU 2.0. This crate is that
//! tool for the reproduction, unifying what used to be three unrelated
//! fragments — the simulator's per-kernel timeline, the serving layer's
//! JSONL event log, and the chip-wide engine counters — behind one set
//! of primitives:
//!
//! * **Hierarchical spans** ([`Span`]) on a shared nanosecond clock
//!   ([`clock`]), tagged with the [`Layer`] that produced them (serving
//!   request → session → operator → sim-level kernel/DMA/sync), so a
//!   single Perfetto/Chrome trace shows a request descending all the
//!   way into per-group kernel intervals.
//! * **One [`Recorder`] trait** threaded through `serve::engine`,
//!   `dtu::Session`, `dtu-compiler`, and `dtu-sim::Chip`. The default
//!   [`NullRecorder`] reports `enabled() == false`, and every call site
//!   gates label formatting on that flag, so disabled telemetry costs a
//!   predictable branch and performs no per-event heap allocation.
//! * **A typed counter registry** ([`Counter`], [`CounterSet`]) that
//!   attaches per-launch deltas of the engine counters, energy, and
//!   DVFS activity to spans, exportable as Prometheus-style text
//!   exposition.
//! * **Per-operator attribution** ([`AttributionReport`]): wall-clock
//!   segment attribution whose operator latencies sum exactly to the
//!   end-to-end latency, with derived metrics (MAC utilisation,
//!   arithmetic intensity, icache hit rate, stall breakdown) and a
//!   roofline-style bottleneck classification per operator.
//!
//! # Example
//!
//! ```
//! use dtu_telemetry::{Layer, Recorder, Span, SpanKind, TraceBuffer};
//!
//! let mut buf = TraceBuffer::new();
//! if buf.enabled() {
//!     buf.record(Span::new(
//!         SpanKind::Kernel,
//!         Layer::Sim,
//!         0,
//!         "conv2d+relu",
//!         0.0,
//!         1000.0,
//!     ));
//! }
//! let json = buf.to_chrome_trace(true);
//! assert!(json.contains("conv2d+relu"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod chrome;
pub mod clock;
pub mod counters;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod monitor;
pub mod prometheus;
pub mod record;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use attr::{AttributionReport, Bottleneck, Degradation, MachineSpec, OpRecord};
pub use counters::{Counter, CounterSet, CounterSnapshot, Unit};
pub use flight::{FlightDump, FlightRecord, FlightRecorder, SlowestRecords};
pub use histogram::{Exemplar, HistogramWindow, LogHistogram, WindowedHistogram};
pub use monitor::{EvalClock, Objective, ObjectiveRow};
pub use record::{NullRecorder, Recorder, TraceBuffer};
pub use slo::{AlertEvent, AlertKind, SloSpec, SloTracker};
pub use span::{Layer, Span, SpanKind};
pub use timeseries::TimeSeries;

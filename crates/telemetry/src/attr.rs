//! Per-operator bottleneck attribution.
//!
//! Takes the raw span stream of one chip run and answers "where did the
//! latency go, operator by operator, and why". Attribution is by
//! **wall-clock segments**: the timeline is cut at the first activity
//! of each operator (the compiler emits barriers after every fused
//! step, so operators execute as contiguous phases), and each span's
//! counter deltas are folded into the segment containing its start.
//! Segment latencies therefore sum *exactly* to the end-to-end latency
//! — nothing is double-counted and nothing is dropped.

use crate::counters::{Counter, CounterSet};
use crate::json::{array, JsonObject};
use crate::prometheus::{self, Family, MetricType};
use crate::span::{Layer, Span, SpanKind};
use std::collections::BTreeSet;

/// The peak capabilities attribution measures operators against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Peak MAC throughput, in the same MAC unit the [`Counter::Macs`]
    /// counter uses, per nanosecond (callers fold any datatype ops
    /// multiplier in before constructing the spec).
    pub peak_macs_per_ns: f64,
    /// Peak HBM (L3) bandwidth, bytes per nanosecond.
    pub l3_bytes_per_ns: f64,
    /// Processing groups participating in the run.
    pub groups: u32,
}

impl MachineSpec {
    /// Machine balance: MACs per HBM byte at which an operator moves
    /// from bandwidth-bound to compute-bound on the roofline.
    pub fn balance(&self) -> f64 {
        if self.l3_bytes_per_ns > 0.0 {
            self.peak_macs_per_ns / self.l3_bytes_per_ns
        } else {
            f64::INFINITY
        }
    }
}

/// Roofline-style classification of what limits an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Dominated by sync waits between groups/engines.
    Sync,
    /// Dominated by kernel-dispatch and code-load overhead (many tiny
    /// launches).
    Launch,
    /// Dominated by LPME power-throttle stalls.
    Power,
    /// Arithmetic intensity below machine balance: HBM-bandwidth-bound.
    Bandwidth,
    /// Arithmetic intensity at or above machine balance: compute-bound.
    Compute,
    /// No accounted core time (e.g. a pure-staging segment).
    Idle,
}

impl Bottleneck {
    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Bottleneck::Sync => "sync",
            Bottleneck::Launch => "launch",
            Bottleneck::Power => "power",
            Bottleneck::Bandwidth => "bandwidth",
            Bottleneck::Compute => "compute",
            Bottleneck::Idle => "idle",
        }
    }
}

/// Fraction of accounted time above which sync waits classify the
/// operator as sync-bound.
pub const SYNC_BOUND_FRACTION: f64 = 0.4;
/// Fraction of accounted time above which launch + code-load overhead
/// classifies the operator as launch-bound.
pub const LAUNCH_BOUND_FRACTION: f64 = 0.3;
/// Fraction of accounted time above which power stalls classify the
/// operator as power-bound.
pub const POWER_BOUND_FRACTION: f64 = 0.25;

/// One operator's attributed segment and everything measured in it.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// The compiler's operator (kernel) id; `None` for the synthetic
    /// staging prologue.
    pub op: Option<u64>,
    /// Operator name (fused mnemonics, e.g. `conv2d+relu`).
    pub name: String,
    /// Segment start on the shared clock, ns.
    pub start_ns: f64,
    /// Segment end on the shared clock, ns.
    pub end_ns: f64,
    /// Counter deltas folded into this segment.
    pub counters: CounterSet,
}

impl OpRecord {
    /// Attributed wall-clock latency, ns.
    pub fn latency_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }

    /// MACs retired in the segment.
    pub fn macs(&self) -> f64 {
        self.counters.get(Counter::Macs)
    }

    /// HBM bytes moved for the segment's kernels plus DMA wire bytes.
    pub fn hbm_bytes(&self) -> f64 {
        self.counters.get(Counter::L3Bytes) + self.counters.get(Counter::DmaWireBytes)
    }

    /// Arithmetic intensity: MACs per HBM byte. Infinite when the
    /// segment touched no HBM but did compute.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.hbm_bytes();
        if bytes > 0.0 {
            self.macs() / bytes
        } else if self.macs() > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Achieved fraction of the machine's peak MAC throughput over the
    /// segment.
    pub fn mac_utilization(&self, machine: &MachineSpec) -> f64 {
        let denom = machine.peak_macs_per_ns * self.latency_ns();
        if denom > 0.0 {
            self.macs() / denom
        } else {
            0.0
        }
    }

    /// Instruction-cache hit rate across the segment's launches (1.0
    /// when the segment launched nothing).
    pub fn icache_hit_rate(&self) -> f64 {
        let hits = self.counters.get(Counter::IcacheHits);
        let total = hits + self.counters.get(Counter::IcacheMisses);
        if total > 0.0 {
            hits / total
        } else {
            1.0
        }
    }

    /// Accounted core time: busy + every stall category + dispatch
    /// overhead, ns (summed over cores, so it can exceed latency).
    pub fn accounted_ns(&self) -> f64 {
        self.counters.get(Counter::ComputeBusyNs)
            + self.counters.get(Counter::MemoryStallNs)
            + self.counters.get(Counter::SyncWaitNs)
            + self.counters.get(Counter::CodeLoadStallNs)
            + self.counters.get(Counter::PowerStallNs)
            + self.counters.get(Counter::LaunchOverheadNs)
    }

    /// Stall breakdown as fractions of accounted time, in the order
    /// `[compute, memory, sync, code-load, power, launch]`. All zeros
    /// when nothing was accounted.
    pub fn stall_fractions(&self) -> [f64; 6] {
        let total = self.accounted_ns();
        if total <= 0.0 {
            return [0.0; 6];
        }
        [
            self.counters.get(Counter::ComputeBusyNs) / total,
            self.counters.get(Counter::MemoryStallNs) / total,
            self.counters.get(Counter::SyncWaitNs) / total,
            self.counters.get(Counter::CodeLoadStallNs) / total,
            self.counters.get(Counter::PowerStallNs) / total,
            self.counters.get(Counter::LaunchOverheadNs) / total,
        ]
    }

    /// Classifies what limits this operator. Checked in order: sync,
    /// launch, power (each against its fraction threshold), then the
    /// roofline test of arithmetic intensity against machine balance.
    pub fn bottleneck(&self, machine: &MachineSpec) -> Bottleneck {
        let total = self.accounted_ns();
        if total <= 0.0 {
            return Bottleneck::Idle;
        }
        let [_, _, sync, code, power, launch] = self.stall_fractions();
        if sync > SYNC_BOUND_FRACTION {
            Bottleneck::Sync
        } else if code + launch > LAUNCH_BOUND_FRACTION {
            Bottleneck::Launch
        } else if power > POWER_BOUND_FRACTION {
            Bottleneck::Power
        } else if self.arithmetic_intensity() < machine.balance() {
            Bottleneck::Bandwidth
        } else {
            Bottleneck::Compute
        }
    }
}

/// Fault-degradation totals for one run, summed across all operator
/// segments (see the `dtu-faults` crate for the injection side).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Degradation {
    /// Fault events injected over the run.
    pub faults_injected: f64,
    /// Stall time the injected faults added, ns.
    pub fault_stall_ns: f64,
    /// Retries performed by recovery layers.
    pub fault_retries: f64,
    /// Resource-group remaps after permanent core failures.
    pub group_remaps: f64,
}

impl Degradation {
    /// True when the run saw no fault activity at all.
    pub fn is_zero(&self) -> bool {
        self.faults_injected == 0.0
            && self.fault_stall_ns == 0.0
            && self.fault_retries == 0.0
            && self.group_remaps == 0.0
    }

    /// Fault stall as a fraction of the given end-to-end latency.
    pub fn stall_fraction(&self, total_ns: f64) -> f64 {
        if total_ns > 0.0 {
            self.fault_stall_ns / total_ns
        } else {
            0.0
        }
    }
}

/// The per-operator attribution report for one chip run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Operator segments in timeline order (a `(staging)` prologue
    /// first when the run spent time before the first operator).
    pub ops: Vec<OpRecord>,
    /// End-to-end latency of the run, ns.
    pub total_ns: f64,
    /// The machine the operators are measured against.
    pub machine: MachineSpec,
}

impl AttributionReport {
    /// Builds the report from a recorded span stream.
    ///
    /// Only `Layer::Sim` spans participate. Kernel/code-load spans
    /// tagged with an operator id define each operator's first
    /// activity; the timeline is cut at those points into segments
    /// that tile `[0, total_ns]`, and every sim span's counters are
    /// folded into the segment containing its start.
    pub fn from_spans(spans: &[Span], total_ns: f64, machine: MachineSpec) -> Self {
        // First activity and name per operator id.
        let mut first: Vec<(u64, f64, String)> = Vec::new();
        for s in spans {
            if s.layer != Layer::Sim {
                continue;
            }
            let (Some(op), SpanKind::Kernel | SpanKind::CodeLoad) = (s.op, s.kind) else {
                continue;
            };
            match first.iter_mut().find(|(id, _, _)| *id == op) {
                Some(entry) => {
                    if s.start_ns < entry.1 {
                        entry.1 = s.start_ns;
                        if s.kind == SpanKind::Kernel {
                            entry.2 = s.label.clone();
                        }
                    } else if entry.2.is_empty() && s.kind == SpanKind::Kernel {
                        entry.2 = s.label.clone();
                    }
                }
                None => {
                    let name = if s.kind == SpanKind::Kernel {
                        s.label.clone()
                    } else {
                        String::new()
                    };
                    first.push((op, s.start_ns, name));
                }
            }
        }
        first.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let mut ops: Vec<OpRecord> = Vec::new();
        if let Some(&(_, first_start, _)) = first.first() {
            if first_start > 0.0 {
                ops.push(OpRecord {
                    op: None,
                    name: "(staging)".to_string(),
                    start_ns: 0.0,
                    end_ns: first_start,
                    counters: CounterSet::new(),
                });
            }
        }
        for (i, (op, start, name)) in first.iter().enumerate() {
            let end = first.get(i + 1).map(|n| n.1).unwrap_or(total_ns);
            ops.push(OpRecord {
                op: Some(*op),
                name: if name.is_empty() {
                    format!("op{op}")
                } else {
                    name.clone()
                },
                start_ns: *start,
                end_ns: end.max(*start),
                counters: CounterSet::new(),
            });
        }
        if ops.is_empty() && total_ns > 0.0 {
            ops.push(OpRecord {
                op: None,
                name: "(staging)".to_string(),
                start_ns: 0.0,
                end_ns: total_ns,
                counters: CounterSet::new(),
            });
        }

        // Fold every sim span's counters into the segment containing
        // its start (segments are sorted and tile the timeline).
        for s in spans {
            if s.layer != Layer::Sim || s.counters.is_empty() {
                continue;
            }
            let seg = ops
                .iter_mut()
                .rev()
                .find(|o| s.start_ns >= o.start_ns)
                .or(None);
            if let Some(seg) = seg {
                seg.counters.merge(&s.counters);
            }
        }

        AttributionReport {
            ops,
            total_ns,
            machine,
        }
    }

    /// Sum of per-operator attributed latencies, ns. Equal to
    /// [`AttributionReport::total_ns`] by construction (the acceptance
    /// bound is 1%; segments give 0).
    pub fn attributed_ns(&self) -> f64 {
        self.ops.iter().map(|o| o.latency_ns()).sum()
    }

    /// Synthesises `Layer::Operator` spans for the operator segments,
    /// for merging into the exported trace.
    pub fn operator_spans(&self) -> Vec<Span> {
        self.ops
            .iter()
            .map(|o| {
                let mut s = Span::new(
                    SpanKind::Operator,
                    Layer::Operator,
                    0,
                    o.name.clone(),
                    o.start_ns,
                    o.end_ns,
                )
                .with_counters(o.counters.clone());
                if let Some(op) = o.op {
                    s = s.with_op(op);
                }
                s
            })
            .collect()
    }

    /// Fault-degradation totals summed over all operator segments.
    pub fn degradation(&self) -> Degradation {
        let mut d = Degradation::default();
        for o in &self.ops {
            d.faults_injected += o.counters.get(Counter::FaultsInjected);
            d.fault_stall_ns += o.counters.get(Counter::FaultStallNs);
            d.fault_retries += o.counters.get(Counter::FaultRetries);
            d.group_remaps += o.counters.get(Counter::GroupRemaps);
        }
        d
    }

    /// Renders the report as an aligned text table.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>6} {:>7} {:>8} {:>7} {:>30} {:<9}",
            "operator", "ns", "%", "mac%", "ai", "ic-hit", "busy/mem/sync/code/pwr/lnch", "bound"
        );
        for o in &self.ops {
            let pct = if self.total_ns > 0.0 {
                100.0 * o.latency_ns() / self.total_ns
            } else {
                0.0
            };
            let ai = o.arithmetic_intensity();
            let ai_str = if ai.is_infinite() {
                "inf".to_string()
            } else {
                format!("{ai:.2}")
            };
            let f = o.stall_fractions();
            let _ = writeln!(
                out,
                "{:<28} {:>10.0} {:>5.1}% {:>6.1}% {:>8} {:>6.1}% {:>30} {:<9}",
                o.name,
                o.latency_ns(),
                pct,
                100.0 * o.mac_utilization(&self.machine),
                ai_str,
                100.0 * o.icache_hit_rate(),
                format!(
                    "{:.0}/{:.0}/{:.0}/{:.0}/{:.0}/{:.0}",
                    100.0 * f[0],
                    100.0 * f[1],
                    100.0 * f[2],
                    100.0 * f[3],
                    100.0 * f[4],
                    100.0 * f[5]
                ),
                o.bottleneck(&self.machine).name()
            );
        }
        let _ = writeln!(
            out,
            "{:<28} {:>10.0} {:>5.1}%",
            "total",
            self.total_ns,
            if self.total_ns > 0.0 {
                100.0 * self.attributed_ns() / self.total_ns
            } else {
                0.0
            }
        );
        let d = self.degradation();
        if !d.is_zero() {
            let _ = writeln!(
                out,
                "degradation: {:.0} faults, {:.0} ns stall ({:.1}%), {:.0} retries, {:.0} remaps",
                d.faults_injected,
                d.fault_stall_ns,
                100.0 * d.stall_fraction(self.total_ns),
                d.fault_retries,
                d.group_remaps
            );
        }
        out
    }

    /// Renders the report as Prometheus text exposition: `dtu_op_latency_ns`,
    /// then one family per counter any operator recorded. Each family has
    /// one sample per operator, in order, labelled `op="<name>"` and, as
    /// fused operators share names, `op_id="<id>"` where there is one.
    pub fn to_prometheus(&self) -> String {
        let per_op = |family: Family, value: &dyn Fn(&OpRecord) -> f64| {
            self.ops.iter().fold(family, |f, o| match o.op {
                Some(id) => f.sample(&[("op", &o.name), ("op_id", &id.to_string())], value(o)),
                None => f.sample(&[("op", &o.name)], value(o)),
            })
        };
        let latency = Family::new(
            "dtu_op_latency_ns",
            "Attributed per-operator latency",
            MetricType::Gauge,
        );
        let mut families = vec![per_op(latency, &|o| o.latency_ns())];
        let mut recorded = BTreeSet::new();
        for o in &self.ops {
            recorded.extend(o.counters.iter().map(|(c, _)| c));
        }
        for c in recorded {
            families.push(per_op(c.family(), &|o| o.counters.get(c)));
        }
        prometheus::render(&families)
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|o| {
                let counters: Vec<String> = o
                    .counters
                    .iter()
                    .map(|(c, v)| {
                        JsonObject::new()
                            .string("name", c.base_name())
                            .num("v", v)
                            .build()
                    })
                    .collect();
                let f = o.stall_fractions();
                let mut obj = JsonObject::new().string("name", &o.name);
                if let Some(op) = o.op {
                    obj = obj.int("op", op as i64);
                }
                obj.num("start_ns", o.start_ns)
                    .num("latency_ns", o.latency_ns())
                    .num("mac_utilization", o.mac_utilization(&self.machine))
                    .num(
                        "arithmetic_intensity",
                        if o.arithmetic_intensity().is_finite() {
                            o.arithmetic_intensity()
                        } else {
                            -1.0
                        },
                    )
                    .num("icache_hit_rate", o.icache_hit_rate())
                    .raw(
                        "stall_fractions",
                        &array(
                            &f.iter()
                                .map(|v| crate::json::number(*v))
                                .collect::<Vec<_>>(),
                        ),
                    )
                    .string("bottleneck", o.bottleneck(&self.machine).name())
                    .raw("counters", &array(&counters))
                    .build()
            })
            .collect();
        let d = self.degradation();
        let degradation = JsonObject::new()
            .num("faults_injected", d.faults_injected)
            .num("fault_stall_ns", d.fault_stall_ns)
            .num("fault_retries", d.fault_retries)
            .num("group_remaps", d.group_remaps)
            .build();
        JsonObject::new()
            .num("total_ns", self.total_ns)
            .num("attributed_ns", self.attributed_ns())
            .num("machine_balance", self.machine.balance())
            .raw("degradation", &degradation)
            .raw("operators", &array(&ops))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineSpec {
        MachineSpec {
            peak_macs_per_ns: 100.0,
            l3_bytes_per_ns: 10.0,
            groups: 4,
        }
    }

    fn kernel(op: u64, label: &str, start: f64, end: f64, cs: CounterSet) -> Span {
        Span::new(SpanKind::Kernel, Layer::Sim, 0, label, start, end)
            .with_op(op)
            .with_counters(cs)
    }

    fn cs(pairs: &[(Counter, f64)]) -> CounterSet {
        let mut s = CounterSet::new();
        for &(c, v) in pairs {
            s.add(c, v);
        }
        s
    }

    #[test]
    fn segments_tile_the_timeline() {
        let spans = vec![
            Span::new(SpanKind::Dma, Layer::Sim, 0, "stage", 0.0, 50.0)
                .with_counters(cs(&[(Counter::DmaWireBytes, 64.0)])),
            kernel(1, "conv", 50.0, 150.0, cs(&[(Counter::Macs, 1000.0)])),
            kernel(2, "fc", 150.0, 200.0, cs(&[(Counter::Macs, 10.0)])),
        ];
        let r = AttributionReport::from_spans(&spans, 220.0, machine());
        assert_eq!(r.ops.len(), 3);
        assert_eq!(r.ops[0].name, "(staging)");
        assert_eq!(r.ops[1].name, "conv");
        assert_eq!(r.ops[2].name, "fc");
        assert_eq!(r.ops[2].end_ns, 220.0, "last segment extends to total");
        assert_eq!(r.attributed_ns(), r.total_ns, "segments sum exactly");
        assert_eq!(r.ops[0].counters.get(Counter::DmaWireBytes), 64.0);
        assert_eq!(r.ops[1].macs(), 1000.0);
    }

    #[test]
    fn bottleneck_classification() {
        // Sync-dominated.
        let sync = OpRecord {
            op: Some(1),
            name: "s".into(),
            start_ns: 0.0,
            end_ns: 100.0,
            counters: cs(&[(Counter::SyncWaitNs, 80.0), (Counter::ComputeBusyNs, 20.0)]),
        };
        assert_eq!(sync.bottleneck(&machine()), Bottleneck::Sync);
        // High intensity, mostly busy → compute.
        let comp = OpRecord {
            op: Some(2),
            name: "c".into(),
            start_ns: 0.0,
            end_ns: 100.0,
            counters: cs(&[
                (Counter::ComputeBusyNs, 95.0),
                (Counter::MemoryStallNs, 5.0),
                (Counter::Macs, 10_000.0),
                (Counter::L3Bytes, 10.0),
            ]),
        };
        assert_eq!(comp.bottleneck(&machine()), Bottleneck::Compute);
        // Low intensity → bandwidth.
        let bw = OpRecord {
            counters: cs(&[
                (Counter::ComputeBusyNs, 50.0),
                (Counter::MemoryStallNs, 50.0),
                (Counter::Macs, 10.0),
                (Counter::L3Bytes, 100.0),
            ]),
            ..comp.clone()
        };
        assert_eq!(bw.bottleneck(&machine()), Bottleneck::Bandwidth);
        // Nothing accounted → idle.
        let idle = OpRecord {
            counters: CounterSet::new(),
            ..comp.clone()
        };
        assert_eq!(idle.bottleneck(&machine()), Bottleneck::Idle);
    }

    #[test]
    fn derived_metrics() {
        let o = OpRecord {
            op: Some(1),
            name: "k".into(),
            start_ns: 0.0,
            end_ns: 10.0,
            counters: cs(&[
                (Counter::Macs, 500.0),
                (Counter::L3Bytes, 50.0),
                (Counter::IcacheHits, 3.0),
                (Counter::IcacheMisses, 1.0),
            ]),
        };
        let m = machine();
        assert!((o.mac_utilization(&m) - 0.5).abs() < 1e-12);
        assert!((o.arithmetic_intensity() - 10.0).abs() < 1e-12);
        assert!((o.icache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_run_yields_single_staging_segment() {
        let r = AttributionReport::from_spans(&[], 100.0, machine());
        assert_eq!(r.ops.len(), 1);
        assert_eq!(r.ops[0].name, "(staging)");
        assert_eq!(r.attributed_ns(), 100.0);
    }

    #[test]
    fn reports_render() {
        let spans = vec![kernel(
            1,
            "conv",
            0.0,
            100.0,
            cs(&[(Counter::Macs, 100.0), (Counter::ComputeBusyNs, 90.0)]),
        )];
        let r = AttributionReport::from_spans(&spans, 100.0, machine());
        let table = r.to_table();
        assert!(table.contains("conv"));
        assert!(table.contains("bound"));
        let prom = r.to_prometheus();
        assert!(prom.contains("dtu_op_latency_ns{op=\"conv\",op_id=\"1\"} 100"));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"operators\""));
        let ospans = r.operator_spans();
        assert_eq!(ospans.len(), 1);
        assert_eq!(ospans[0].layer, Layer::Operator);
    }
}

//! The typed counter registry.
//!
//! Every quantity the stack counts has one [`Counter`] identity with a
//! fixed name, unit, and help string — the registry is the closed enum
//! itself, so a counter cannot be misspelled at a call site and every
//! exporter renders the same metric names. [`CounterSet`] is a small
//! sorted map from counter to value used both for chip-wide snapshots
//! and for the per-span deltas the attribution pass consumes.

use crate::prometheus::{Family, MetricType};
use std::fmt;

/// Unit of a counter's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless event count.
    Count,
    /// Simulated nanoseconds.
    Nanoseconds,
    /// Bytes.
    Bytes,
    /// Picojoules.
    Picojoules,
    /// MHz·ns frequency–time product (DVFS residency).
    MhzNs,
}

impl Unit {
    /// Suffix used in exported metric names.
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Count => "total",
            Unit::Nanoseconds => "ns",
            Unit::Bytes => "bytes",
            Unit::Picojoules => "pj",
            Unit::MhzNs => "mhz_ns",
        }
    }
}

/// Every counter the stack records.
///
/// The discriminant order is the storage and export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Kernel launches executed.
    KernelLaunches,
    /// Multiply-accumulate operations retired.
    Macs,
    /// Non-MAC vector ALU operations.
    VectorOps,
    /// SFU transcendental evaluations.
    SfuOps,
    /// DMA transfers executed.
    DmaTransfers,
    /// Bytes that crossed the interconnect.
    DmaWireBytes,
    /// DMA configuration time.
    DmaConfigNs,
    /// Instruction-cache hits.
    IcacheHits,
    /// Instruction-cache misses.
    IcacheMisses,
    /// Core time stalled on kernel-code loads.
    CodeLoadStallNs,
    /// Core time busy computing.
    ComputeBusyNs,
    /// Core time waiting on data (L2/L3).
    MemoryStallNs,
    /// Core time waiting on sync events.
    SyncWaitNs,
    /// LPME-inserted power-throttle stall time.
    PowerStallNs,
    /// Sync operations processed.
    SyncOps,
    /// Fixed kernel-dispatch overhead time.
    LaunchOverheadNs,
    /// Bytes moved through L2 on behalf of kernels.
    L2Bytes,
    /// Bytes moved over HBM (L3) on behalf of kernels.
    L3Bytes,
    /// Dynamic energy.
    DynamicEnergyPj,
    /// Static (leakage) energy.
    StaticEnergyPj,
    /// Frequency–time product (divide by active time for the mean DVFS
    /// point; the residency view of governor activity).
    FreqResidencyMhzNs,
    /// Time the track was active (denominator for residency).
    ActiveTimeNs,
    /// Compiled-session cache lookups answered without recompiling.
    SessionCacheHits,
    /// Compiled-session cache lookups that compiled a fresh program.
    SessionCacheMisses,
    /// Fault events injected by a fault plan (ECC, DMA, thermal, …).
    FaultsInjected,
    /// Stall time added by injected faults (scrubs, DMA slowdowns).
    FaultStallNs,
    /// Request/launch retries performed by recovery layers.
    FaultRetries,
    /// Resource-group remaps after permanent core failures.
    GroupRemaps,
    /// Routing cells assigned by the fleet's cross-chip router.
    FleetRoutedCells,
    /// Replica placements moved to surviving chips after a chip loss.
    FleetReplicaMoves,
    /// Whole chips lost to injected failures during a fleet run.
    FleetChipsLost,
    /// Prompt tokens processed by generative prefill steps.
    PrefillTokens,
    /// Output tokens emitted by generative decode steps.
    DecodeTokens,
    /// KV-cache pages allocated by the paged allocator.
    KvPagesAllocated,
    /// KV-cache bytes streamed from L3 because the decode working set
    /// exceeded the L2-resident page budget.
    KvSpillBytes,
    /// Running sequences preempted on KV-cache exhaustion.
    KvPreemptions,
    /// KV-page reservations refused because the pool was exhausted.
    KvExhaustions,
}

impl Counter {
    /// Every counter, in storage order.
    pub const ALL: [Counter; 37] = [
        Counter::KernelLaunches,
        Counter::Macs,
        Counter::VectorOps,
        Counter::SfuOps,
        Counter::DmaTransfers,
        Counter::DmaWireBytes,
        Counter::DmaConfigNs,
        Counter::IcacheHits,
        Counter::IcacheMisses,
        Counter::CodeLoadStallNs,
        Counter::ComputeBusyNs,
        Counter::MemoryStallNs,
        Counter::SyncWaitNs,
        Counter::PowerStallNs,
        Counter::SyncOps,
        Counter::LaunchOverheadNs,
        Counter::L2Bytes,
        Counter::L3Bytes,
        Counter::DynamicEnergyPj,
        Counter::StaticEnergyPj,
        Counter::FreqResidencyMhzNs,
        Counter::ActiveTimeNs,
        Counter::SessionCacheHits,
        Counter::SessionCacheMisses,
        Counter::FaultsInjected,
        Counter::FaultStallNs,
        Counter::FaultRetries,
        Counter::GroupRemaps,
        Counter::FleetRoutedCells,
        Counter::FleetReplicaMoves,
        Counter::FleetChipsLost,
        Counter::PrefillTokens,
        Counter::DecodeTokens,
        Counter::KvPagesAllocated,
        Counter::KvSpillBytes,
        Counter::KvPreemptions,
        Counter::KvExhaustions,
    ];

    /// Stable metric base name (snake_case, no unit suffix).
    pub fn base_name(self) -> &'static str {
        match self {
            Counter::KernelLaunches => "kernel_launches",
            Counter::Macs => "macs",
            Counter::VectorOps => "vector_ops",
            Counter::SfuOps => "sfu_ops",
            Counter::DmaTransfers => "dma_transfers",
            Counter::DmaWireBytes => "dma_wire",
            Counter::DmaConfigNs => "dma_config",
            Counter::IcacheHits => "icache_hits",
            Counter::IcacheMisses => "icache_misses",
            Counter::CodeLoadStallNs => "code_load_stall",
            Counter::ComputeBusyNs => "compute_busy",
            Counter::MemoryStallNs => "memory_stall",
            Counter::SyncWaitNs => "sync_wait",
            Counter::PowerStallNs => "power_stall",
            Counter::SyncOps => "sync_ops",
            Counter::LaunchOverheadNs => "launch_overhead",
            Counter::L2Bytes => "l2",
            Counter::L3Bytes => "l3",
            Counter::DynamicEnergyPj => "dynamic_energy",
            Counter::StaticEnergyPj => "static_energy",
            Counter::FreqResidencyMhzNs => "freq_residency",
            Counter::ActiveTimeNs => "active_time",
            Counter::SessionCacheHits => "session_cache_hits",
            Counter::SessionCacheMisses => "session_cache_misses",
            Counter::FaultsInjected => "faults_injected",
            Counter::FaultStallNs => "fault_stall",
            Counter::FaultRetries => "fault_retries",
            Counter::GroupRemaps => "group_remaps",
            Counter::FleetRoutedCells => "fleet_routed_cells",
            Counter::FleetReplicaMoves => "fleet_replica_moves",
            Counter::FleetChipsLost => "fleet_chips_lost",
            Counter::PrefillTokens => "prefill_tokens",
            Counter::DecodeTokens => "decode_tokens",
            Counter::KvPagesAllocated => "kv_pages_allocated",
            Counter::KvSpillBytes => "kv_spill",
            Counter::KvPreemptions => "kv_preemptions",
            Counter::KvExhaustions => "kv_exhaustions",
        }
    }

    /// The counter's unit.
    pub fn unit(self) -> Unit {
        match self {
            Counter::KernelLaunches
            | Counter::Macs
            | Counter::VectorOps
            | Counter::SfuOps
            | Counter::DmaTransfers
            | Counter::IcacheHits
            | Counter::IcacheMisses
            | Counter::SyncOps
            | Counter::SessionCacheHits
            | Counter::SessionCacheMisses
            | Counter::FaultsInjected
            | Counter::FaultRetries
            | Counter::GroupRemaps
            | Counter::FleetRoutedCells
            | Counter::FleetReplicaMoves
            | Counter::FleetChipsLost
            | Counter::PrefillTokens
            | Counter::DecodeTokens
            | Counter::KvPagesAllocated
            | Counter::KvPreemptions
            | Counter::KvExhaustions => Unit::Count,
            Counter::DmaConfigNs
            | Counter::FaultStallNs
            | Counter::CodeLoadStallNs
            | Counter::ComputeBusyNs
            | Counter::MemoryStallNs
            | Counter::SyncWaitNs
            | Counter::PowerStallNs
            | Counter::LaunchOverheadNs
            | Counter::ActiveTimeNs => Unit::Nanoseconds,
            Counter::DmaWireBytes | Counter::L2Bytes | Counter::L3Bytes | Counter::KvSpillBytes => {
                Unit::Bytes
            }
            Counter::DynamicEnergyPj | Counter::StaticEnergyPj => Unit::Picojoules,
            Counter::FreqResidencyMhzNs => Unit::MhzNs,
        }
    }

    /// Full exported metric name, `dtu_<base>_<unit-suffix>`.
    pub fn metric_name(self) -> String {
        format!("dtu_{}_{}", self.base_name(), self.unit().suffix())
    }

    /// One-line help string for the text exposition.
    pub fn help(self) -> &'static str {
        match self {
            Counter::KernelLaunches => "Kernel launches executed",
            Counter::Macs => "Multiply-accumulate operations retired",
            Counter::VectorOps => "Non-MAC vector ALU operations",
            Counter::SfuOps => "SFU transcendental evaluations",
            Counter::DmaTransfers => "DMA transfers executed",
            Counter::DmaWireBytes => "Bytes that crossed the interconnect",
            Counter::DmaConfigNs => "DMA configuration time",
            Counter::IcacheHits => "Instruction-cache hits",
            Counter::IcacheMisses => "Instruction-cache misses",
            Counter::CodeLoadStallNs => "Core time stalled on kernel-code loads",
            Counter::ComputeBusyNs => "Core time busy computing",
            Counter::MemoryStallNs => "Core time waiting on data",
            Counter::SyncWaitNs => "Core time waiting on sync events",
            Counter::PowerStallNs => "LPME-inserted power-throttle stalls",
            Counter::SyncOps => "Sync operations processed",
            Counter::LaunchOverheadNs => "Fixed kernel-dispatch overhead",
            Counter::L2Bytes => "Bytes moved through L2 for kernels",
            Counter::L3Bytes => "Bytes moved over HBM for kernels",
            Counter::DynamicEnergyPj => "Dynamic energy",
            Counter::StaticEnergyPj => "Static (leakage) energy",
            Counter::FreqResidencyMhzNs => "Frequency-time product (DVFS residency)",
            Counter::ActiveTimeNs => "Active time under the residency product",
            Counter::SessionCacheHits => "Compiled-session cache hits",
            Counter::SessionCacheMisses => "Compiled-session cache misses",
            Counter::FaultsInjected => "Fault events injected by a fault plan",
            Counter::FaultStallNs => "Stall time added by injected faults",
            Counter::FaultRetries => "Retries performed by recovery layers",
            Counter::GroupRemaps => "Resource-group remaps after core failures",
            Counter::FleetRoutedCells => "Routing cells assigned by the fleet router",
            Counter::FleetReplicaMoves => "Replica moves after fleet chip losses",
            Counter::FleetChipsLost => "Whole chips lost during a fleet run",
            Counter::PrefillTokens => "Prompt tokens processed by prefill steps",
            Counter::DecodeTokens => "Output tokens emitted by decode steps",
            Counter::KvPagesAllocated => "KV-cache pages allocated",
            Counter::KvSpillBytes => "KV-cache bytes streamed from L3 past the L2 budget",
            Counter::KvPreemptions => "Sequences preempted on KV-cache exhaustion",
            Counter::KvExhaustions => "KV-page reservations refused on pool exhaustion",
        }
    }

    /// The counter's exposition family, with no samples yet.
    pub fn family(self) -> Family {
        Family::new(self.metric_name(), self.help(), MetricType::Counter)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.base_name())
    }
}

/// A small sorted counter → value map.
///
/// Empty sets allocate nothing, which is what spans carry when
/// telemetry has no deltas to attach.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterSet {
    entries: Vec<(Counter, f64)>,
}

impl CounterSet {
    /// An empty set (no allocation).
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Whether no counter has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct counters recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Adds `value` to `counter` (inserting it at its sorted position).
    /// Zero adds are dropped so empty deltas stay empty.
    pub fn add(&mut self, counter: Counter, value: f64) {
        if value == 0.0 {
            return;
        }
        match self.entries.binary_search_by_key(&counter, |e| e.0) {
            Ok(i) => self.entries[i].1 += value,
            Err(i) => self.entries.insert(i, (counter, value)),
        }
    }

    /// The recorded value of `counter` (0 when absent).
    pub fn get(&self, counter: Counter) -> f64 {
        match self.entries.binary_search_by_key(&counter, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Merges another set into this one.
    pub fn merge(&mut self, other: &CounterSet) {
        for &(c, v) in &other.entries {
            self.add(c, v);
        }
    }

    /// The element-wise difference `self − earlier` (monotone counters
    /// snapshotted at two span boundaries yield the span's delta).
    pub fn delta(&self, earlier: &CounterSet) -> CounterSet {
        let mut out = self.clone();
        for &(c, v) in &earlier.entries {
            out.add(c, -v);
        }
        out.entries.retain(|&(_, v)| v != 0.0);
        out
    }

    /// Iterates `(counter, value)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// One `counter` family per recorded counter, each with one
    /// sample labelled `labels`, e.g. `&[("chip", "i20")]`.
    pub fn families(&self, labels: &[(&str, &str)]) -> Vec<Family> {
        self.iter()
            .map(|(c, v)| c.family().sample(labels, v))
            .collect()
    }
}

/// A full counter snapshot taken at a span boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// When the snapshot was taken, shared clock ns.
    pub at_ns: f64,
    /// What the snapshot covers (e.g. `chip`, `group 3`).
    pub label: String,
    /// The counter values.
    pub set: CounterSet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prometheus::render;

    #[test]
    fn add_get_merge() {
        let mut a = CounterSet::new();
        assert!(a.is_empty());
        a.add(Counter::Macs, 5.0);
        a.add(Counter::Macs, 3.0);
        a.add(Counter::L3Bytes, 100.0);
        assert_eq!(a.get(Counter::Macs), 8.0);
        assert_eq!(a.get(Counter::SyncOps), 0.0);
        let mut b = CounterSet::new();
        b.add(Counter::Macs, 2.0);
        a.merge(&b);
        assert_eq!(a.get(Counter::Macs), 10.0);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn zero_adds_do_not_allocate_entries() {
        let mut a = CounterSet::new();
        a.add(Counter::Macs, 0.0);
        assert!(a.is_empty());
    }

    #[test]
    fn delta_between_snapshots() {
        let mut before = CounterSet::new();
        before.add(Counter::Macs, 100.0);
        before.add(Counter::IcacheHits, 4.0);
        let mut after = before.clone();
        after.add(Counter::Macs, 50.0);
        after.add(Counter::L2Bytes, 9.0);
        let d = after.delta(&before);
        assert_eq!(d.get(Counter::Macs), 50.0);
        assert_eq!(d.get(Counter::L2Bytes), 9.0);
        assert_eq!(d.get(Counter::IcacheHits), 0.0);
        assert_eq!(d.len(), 2, "unchanged counters drop out of the delta");
    }

    #[test]
    fn entries_stay_sorted() {
        let mut a = CounterSet::new();
        a.add(Counter::L3Bytes, 1.0);
        a.add(Counter::KernelLaunches, 1.0);
        a.add(Counter::Macs, 1.0);
        let order: Vec<Counter> = a.iter().map(|(c, _)| c).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn metric_names_are_unique_and_prefixed() {
        let mut names: Vec<String> = Counter::ALL.iter().map(|c| c.metric_name()).collect();
        assert!(names.iter().all(|n| n.starts_with("dtu_")));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut a = CounterSet::new();
        a.add(Counter::Macs, 42.0);
        let text = render(&a.families(&[("chip", "i20")]));
        assert_eq!(
            text,
            "# HELP dtu_macs_total Multiply-accumulate operations retired\n\
             # TYPE dtu_macs_total counter\n\
             dtu_macs_total{chip=\"i20\"} 42\n"
        );
    }
}

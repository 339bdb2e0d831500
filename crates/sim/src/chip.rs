//! The chip: processing groups, the stream scheduler, and the power loops.
//!
//! [`Chip::run`] executes a [`Program`] — one command stream per occupied
//! processing group — to completion. Streams advance concurrently in
//! simulated time and coordinate through the synchronisation engine;
//! kernel launches are charged compute / L2 / L3 time (overlapped, the
//! multiple-buffering assumption of §III "Data flow v.s. Computation");
//! DMA commands run on the group's DMA engine; the instruction cache adds
//! code-load stalls; and, when power management is enabled, per-group
//! LPMEs throttle or borrow budget while the DVFS governor retunes the
//! clock every kernel.

use crate::config::ChipConfig;
use crate::dma::{DmaEngine, DmaError};
use crate::icache::InstructionCache;
use crate::memory::MemoryHierarchy;
use crate::program::{Command, GroupId, Program};
use crate::report::{EngineCounters, RunReport};
use crate::sync::{SyncEngine, SyncError};
use dtu_faults::{FaultError, FaultSession};
use dtu_isa::KernelDescriptor;
use dtu_power::{
    Cpme, DvfsGovernor, EnergyAccount, EnergyModel, Lpme, LpmeAction, PowerConfig, UnitId,
    WindowObservation,
};
use dtu_telemetry::{
    Counter, CounterSet, CounterSnapshot, Layer, NullRecorder, Recorder, Span, SpanKind,
};
use std::error::Error;
use std::fmt;

/// Errors raised while running a program.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A stream targeted a group the chip does not have.
    UnknownGroup {
        /// The offending group.
        group: GroupId,
        /// Available clusters/groups.
        available: (usize, usize),
    },
    /// No stream could make progress and work remains.
    Deadlock {
        /// Events still pending when the scheduler wedged.
        pending_events: Vec<u32>,
    },
    /// A DMA descriptor was rejected.
    Dma(DmaError),
    /// A synchronisation operation failed.
    Sync(SyncError),
    /// An injected fault aborted the run (see `dtu-faults`); recovery
    /// layers inspect the payload to decide between retry and remap.
    Fault(FaultError),
    /// The chip configuration is inconsistent.
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownGroup { group, available } => write!(
                f,
                "group {group} does not exist (chip has {} clusters x {} groups)",
                available.0, available.1
            ),
            SimError::Deadlock { pending_events } => {
                write!(f, "scheduler deadlock; pending events {pending_events:?}")
            }
            SimError::Dma(e) => write!(f, "dma: {e}"),
            SimError::Sync(e) => write!(f, "sync: {e}"),
            SimError::Fault(e) => write!(f, "fault: {e}"),
            SimError::InvalidConfig(s) => write!(f, "invalid config: {s}"),
        }
    }
}

impl Error for SimError {}

impl From<DmaError> for SimError {
    fn from(e: DmaError) -> Self {
        SimError::Dma(e)
    }
}

impl From<SyncError> for SimError {
    fn from(e: SyncError) -> Self {
        SimError::Sync(e)
    }
}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> Self {
        SimError::Fault(e)
    }
}

/// Bytes scrubbed (read + write-back through an L2 port) per
/// correctable ECC event.
const ECC_SCRUB_BYTES: u64 = 64 * 1024;

/// Per-stream scheduler state.
#[derive(Debug)]
struct StreamState {
    /// Index into `program.streams`.
    index: usize,
    group_flat: usize,
    pc: usize,
    clock_ns: f64,
    /// Completion time of the latest overlapped DMA (data staging).
    staged_data_ready_ns: f64,
    done: bool,
}

/// Per-group runtime machinery.
#[derive(Debug)]
struct GroupRuntime {
    dma: DmaEngine,
    icache: InstructionCache,
    lpme: Lpme,
    governor: DvfsGovernor,
    /// Time-weighted frequency accumulator (MHz·ns).
    freq_time_product: f64,
    busy_time_ns: f64,
    /// DVFS observation accumulator: the governor classifies whole
    /// observation windows (Fig. 10), not individual kernels.
    window_acc: WindowObservation,
    window_elapsed_ns: f64,
}

/// The simulated accelerator chip.
#[derive(Debug)]
pub struct Chip {
    cfg: ChipConfig,
    power_cfg: PowerConfig,
    energy_model: EnergyModel,
}

impl Chip {
    /// Creates a chip from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ChipConfig::validate`]; use
    /// [`Chip::try_new`] to handle that as an error.
    pub fn new(cfg: ChipConfig) -> Self {
        Chip::try_new(cfg).expect("invalid chip configuration")
    }

    /// Creates a chip, validating the configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the config is inconsistent.
    pub fn try_new(cfg: ChipConfig) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::InvalidConfig)?;
        let power_cfg = PowerConfig {
            board_tdp_mw: (cfg.tdp_watts * 1000.0) as u64,
            f_max_mhz: cfg.clock_mhz,
            f_min_mhz: (cfg.clock_mhz * 5) / 7, // 1.0 GHz at a 1.4 GHz top
            ..PowerConfig::default()
        };
        Ok(Chip {
            cfg,
            power_cfg,
            energy_model: EnergyModel {
                nominal_mhz: 0, // patched below
                ..EnergyModel::default()
            },
        })
        .map(|mut chip: Chip| {
            chip.energy_model.nominal_mhz = chip.cfg.clock_mhz;
            chip
        })
    }

    /// The chip's configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// The power-management configuration derived from the chip config.
    pub fn power_config(&self) -> &PowerConfig {
        &self.power_cfg
    }

    /// Splits a group-level kernel descriptor across the group's cores
    /// and returns `(busy_ns, intra_stall_ns, l2_ns, l3_ns)` at the
    /// given frequency.
    ///
    /// `busy_ns` is true issue time (scales with 1/f); `intra_stall_ns`
    /// is the frequency-insensitive remainder of the pipeline time —
    /// tile fills, dependency bubbles, register-bank and L2-port waits.
    /// The split is what the DVFS governor harvests: windows dominated
    /// by stalls can downclock without losing latency.
    fn kernel_times(
        &self,
        d: &KernelDescriptor,
        memory: &mut MemoryHierarchy,
        freq_mhz: u32,
        l3_sharers: usize,
    ) -> (f64, f64, f64, f64) {
        let cores = self.cfg.cores_per_group() as f64;
        let fnom_hz = self.cfg.clock_mhz as f64 * 1e6;
        let fscale = self.cfg.clock_mhz as f64 / freq_mhz as f64;
        // Sustained issue efficiency of the matrix pipeline, and the
        // lower *effective* efficiency after the pipeline-ramp term
        // (small kernels can't fill the wide VLIW pipes) and — without
        // fine-grained VMM (DTU 1.0) — the tall-and-skinny tile penalty.
        let (issue_eff, base_eff) = if self.cfg.features.fine_grained_vmm {
            (0.92, 0.37)
        } else {
            (0.80, 0.31)
        };
        let ramp = self.cfg.kernel_ramp_macs;
        let ramp_eff = d.macs as f64 / (d.macs as f64 + ramp);
        let skinny_eff = if self.cfg.features.fine_grained_vmm || d.narrow_dim == 0 {
            1.0
        } else {
            (d.narrow_dim as f64 / 64.0).clamp(0.3, 1.0)
        };
        let vmm_eff = base_eff * ramp_eff * skinny_eff;
        let rate = |eff: f64| {
            cores * self.cfg.macs_per_core_cycle_fp32 * d.dtype.ops_multiplier() * fnom_hz * eff
        };
        let mac_total_ns = d.macs as f64 / rate(vmm_eff) * 1e9;
        let mac_busy_ns = d.macs as f64 / rate(issue_eff) * 1e9;
        let vec_per_s = cores * self.cfg.vector_lanes as f64 * d.dtype.ops_multiplier() * fnom_hz;
        let vec_ns = d.vector_ops as f64 / vec_per_s * 1e9;
        let sfu_eff = if self.cfg.features.enhanced_sfu {
            1.0
        } else {
            0.25
        };
        let sfu_per_s = cores * self.cfg.sfu_ops_per_cycle * fnom_hz * sfu_eff;
        let sfu_ns = d.sfu_ops as f64 / sfu_per_s * 1e9;
        // The VLIW core dual-issues matrix and vector/SFU work; the
        // longest pipe dominates. Busy time downclocks; stalls don't.
        let total_nominal = mac_total_ns.max(vec_ns).max(sfu_ns);
        let busy_nominal = mac_busy_ns.max(vec_ns).max(sfu_ns).min(total_nominal);
        let busy_ns = busy_nominal * fscale;
        let intra_stall_ns = total_nominal - busy_nominal;
        let l2_ns = memory.l2_transfer_ns(d.l2_bytes, self.cfg.cores_per_group());
        let l3_ns = memory.l3_transfer_ns(d.l3_bytes, l3_sharers);
        (busy_ns, intra_stall_ns, l2_ns, l3_ns)
    }

    /// Runs a program to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownGroup`] for placements outside the chip;
    /// [`SimError::Deadlock`] when sync waits can never be satisfied; DMA
    /// and sync errors surface as their own variants.
    pub fn run(&self, program: &Program) -> Result<RunReport, SimError> {
        self.run_inner(program, &mut NullRecorder, None)
    }

    /// Runs a program under a fault-injection session (see `dtu-faults`).
    ///
    /// The session is queried at every kernel launch and DMA transfer;
    /// transient events lengthen the affected operation (DMA slowdown
    /// windows, ECC scrub penalties, thermal throttle windows, icache
    /// corruption) and hard events abort with [`SimError::Fault`]. The
    /// session carries fired-event state **across** runs, so a recovery
    /// layer that retries or remaps proceeds past consumed one-shot
    /// events while permanent core failures keep holding.
    ///
    /// A session over an empty plan takes the exact unfaulted code
    /// path, so the run is byte-identical to [`Chip::run`].
    ///
    /// # Errors
    ///
    /// As for [`Chip::run`], plus [`SimError::Fault`].
    pub fn run_faulted(
        &self,
        program: &Program,
        faults: &mut FaultSession,
    ) -> Result<RunReport, SimError> {
        self.run_inner(program, &mut NullRecorder, Some(faults))
    }

    /// Runs a program with a telemetry [`Recorder`] attached. Every
    /// kernel, DMA, code-load, and sync-wait interval is recorded as a
    /// [`Span`] on the `Layer::Sim` clock (track = flat group index),
    /// with per-launch counter deltas attached, and a chip-wide
    /// [`CounterSnapshot`] is emitted at the end of the run.
    ///
    /// # Errors
    ///
    /// As for [`Chip::run`].
    pub fn run_recorded(
        &self,
        program: &Program,
        rec: &mut dyn Recorder,
    ) -> Result<RunReport, SimError> {
        self.run_inner(program, rec, None)
    }

    fn run_inner(
        &self,
        program: &Program,
        rec: &mut dyn Recorder,
        faults: Option<&mut FaultSession>,
    ) -> Result<RunReport, SimError> {
        // Empty sessions are dropped up front so the no-fault path is
        // bit-for-bit untouched (the zero-cost invariant of dtu-faults).
        let mut faults = faults.filter(|f| !f.is_empty());
        // Validate placement.
        for s in &program.streams {
            if s.group.cluster >= self.cfg.clusters || s.group.group >= self.cfg.groups_per_cluster
            {
                return Err(SimError::UnknownGroup {
                    group: s.group,
                    available: (self.cfg.clusters, self.cfg.groups_per_cluster),
                });
            }
        }

        let mut memory = MemoryHierarchy::timing_only(&self.cfg);
        let mut sync = SyncEngine::new(self.cfg.features.flexible_sync);
        let pm_on = self.cfg.features.power_management;

        // CPME boots with per-group baselines: half the TDP spread over
        // groups as baseline, the rest in reserve.
        let n_groups = self.cfg.total_groups().max(1);
        let baseline_per_group = self.power_cfg.board_tdp_mw / 2 / n_groups as u64;
        let unit_of = |flat: usize| UnitId::core(flat / self.cfg.groups_per_cluster, flat);
        let baselines: Vec<(UnitId, u64)> = (0..n_groups)
            .map(|g| (unit_of(g), baseline_per_group))
            .collect();
        let mut cpme =
            Cpme::new(self.power_cfg.board_tdp_mw, &baselines).expect("baselines fit under TDP");

        let mut groups: Vec<GroupRuntime> = (0..n_groups)
            .map(|_| GroupRuntime {
                dma: DmaEngine::new(&self.cfg),
                icache: InstructionCache::new(
                    self.cfg.ibuf_kib as u64 * 1024,
                    self.cfg.features.instruction_cache,
                    self.cfg.l3_gb_per_s,
                ),
                lpme: Lpme::new(self.power_cfg.clone(), baseline_per_group),
                governor: if pm_on {
                    DvfsGovernor::new(self.power_cfg.clone())
                } else {
                    DvfsGovernor::disabled(self.power_cfg.clone())
                },
                freq_time_product: 0.0,
                busy_time_ns: 0.0,
                window_acc: WindowObservation::default(),
                window_elapsed_ns: 0.0,
            })
            .collect();
        let window_ns = self.power_cfg.window_cycles as f64 * self.cfg.cycle_ns() * 5.0;

        let mut streams: Vec<StreamState> = program
            .streams
            .iter()
            .enumerate()
            .map(|(i, s)| StreamState {
                index: i,
                group_flat: s.group.flat(self.cfg.groups_per_cluster),
                pc: 0,
                clock_ns: 0.0,
                staged_data_ready_ns: 0.0,
                done: s.commands.is_empty(),
            })
            .collect();

        let l3_sharers = streams.len().max(1);
        let mut counters = EngineCounters::default();
        let mut energy = EnergyAccount::new();

        // Round-robin scheduler: keep sweeping until everyone is done or
        // nobody moved.
        loop {
            let mut progressed = false;
            let mut all_done = true;
            #[allow(clippy::needless_range_loop)] // si also indexes per-stream defs
            for si in 0..streams.len() {
                if streams[si].done {
                    continue;
                }
                all_done = false;
                // Drain as many commands as possible for this stream.
                loop {
                    let st = &streams[si];
                    let stream_def = &program.streams[st.index];
                    let Some(cmd) = stream_def.commands.get(st.pc) else {
                        streams[si].done = true;
                        break;
                    };
                    match cmd {
                        Command::RegisterEvent { event, pattern } => {
                            sync.register(*event, *pattern)?;
                            streams[si].pc += 1;
                            progressed = true;
                        }
                        Command::Signal { event } => {
                            let now = streams[si].clock_ns;
                            sync.signal(*event, now)?;
                            counters.sync_ops += 1;
                            streams[si].pc += 1;
                            progressed = true;
                        }
                        Command::Wait { event } => {
                            let now = streams[si].clock_ns;
                            match sync.wait(*event, now)? {
                                Some(release) => {
                                    if release > now && rec.enabled() {
                                        let mut cs = CounterSet::new();
                                        cs.add(Counter::SyncWaitNs, release - now);
                                        cs.add(Counter::SyncOps, 1.0);
                                        rec.record(
                                            Span::new(
                                                SpanKind::SyncWait,
                                                Layer::Sim,
                                                streams[si].group_flat as u32,
                                                format!("event {event}"),
                                                now,
                                                release,
                                            )
                                            .with_counters(cs),
                                        );
                                    }
                                    counters.sync_wait_ns += release - now;
                                    counters.sync_ops += 1;
                                    streams[si].clock_ns = release;
                                    streams[si].pc += 1;
                                    progressed = true;
                                }
                                None => break, // blocked; try another stream
                            }
                        }
                        Command::Prefetch { kernel, code_bytes } => {
                            let g = streams[si].group_flat;
                            let now = streams[si].clock_ns;
                            groups[g].icache.prefetch(*kernel, *code_bytes, now);
                            streams[si].pc += 1;
                            progressed = true;
                        }
                        Command::Dma {
                            descriptor,
                            overlapped,
                        } => {
                            let g = streams[si].group_flat;
                            let now = streams[si].clock_ns;
                            if let Some(fs) = faults.as_deref_mut() {
                                if let Some(err) = fs.take_dma_timeout(g, now) {
                                    // The session keeps the injection count;
                                    // this run's report never materialises.
                                    return Err(SimError::Fault(err));
                                }
                            }
                            let completion = groups[g].dma.execute(descriptor, l3_sharers)?;
                            let mut dma_ns = completion.duration_ns;
                            if let Some(fs) = faults.as_deref_mut() {
                                let eff = fs.dma_slowdown(g, now);
                                if eff.factor > 1.0 {
                                    let extra = completion.duration_ns * (eff.factor - 1.0);
                                    fs.add_stall_ns(extra);
                                    counters.faults_injected += u64::from(eff.newly_fired);
                                    counters.fault_stall_ns += extra;
                                    dma_ns += extra;
                                }
                            }
                            counters.dma_transfers += descriptor.repeat as u64;
                            counters.dma_wire_bytes += completion.wire_bytes;
                            counters.dma_config_ns += completion.config_ns;
                            energy.charge_memory(
                                &self.energy_model,
                                0,
                                if descriptor.path.touches_l3() {
                                    0
                                } else {
                                    completion.wire_bytes
                                },
                                if descriptor.path.touches_l3() {
                                    completion.wire_bytes
                                } else {
                                    0
                                },
                            );
                            if rec.enabled() {
                                let mut cs = CounterSet::new();
                                cs.add(Counter::DmaTransfers, descriptor.repeat as f64);
                                cs.add(Counter::DmaWireBytes, completion.wire_bytes as f64);
                                cs.add(Counter::DmaConfigNs, completion.config_ns);
                                rec.record(
                                    Span::new(
                                        SpanKind::Dma,
                                        Layer::Sim,
                                        g as u32,
                                        format!(
                                            "{} {}B{}",
                                            descriptor.path,
                                            descriptor.bytes,
                                            if *overlapped { " (bg)" } else { "" }
                                        ),
                                        now,
                                        now + dma_ns,
                                    )
                                    .with_counters(cs),
                                );
                            }
                            if *overlapped {
                                let done = now + dma_ns;
                                streams[si].staged_data_ready_ns =
                                    streams[si].staged_data_ready_ns.max(done);
                            } else {
                                streams[si].clock_ns = now + dma_ns;
                            }
                            streams[si].pc += 1;
                            progressed = true;
                        }
                        Command::Launch { kernel, descriptor } => {
                            let g = streams[si].group_flat;
                            let start = streams[si].clock_ns;
                            // Double buffering: staged input transfers
                            // pipeline with this kernel's tiles, so any
                            // remaining staging time competes with (not
                            // precedes) compute.
                            let stage_pending_ns =
                                (streams[si].staged_data_ready_ns - start).max(0.0);

                            // Icache corruption drops the group's resident
                            // code before the fetch: this launch (and any
                            // other resident kernel) reloads from L3.
                            if let Some(fs) = faults.as_deref_mut() {
                                if fs.take_icache_corruption(g, start) {
                                    groups[g].icache.invalidate();
                                    counters.faults_injected += 1;
                                }
                            }

                            // Kernel code fetch.
                            let fetch =
                                groups[g]
                                    .icache
                                    .fetch(*kernel, descriptor.code_bytes, start);
                            let code_stall = fetch.stall_ns();
                            let icache_hit = match fetch {
                                crate::icache::FetchOutcome::Hit
                                | crate::icache::FetchOutcome::PrefetchInFlight { .. } => {
                                    counters.icache_hits += 1;
                                    true
                                }
                                crate::icache::FetchOutcome::Miss { .. } => {
                                    counters.icache_misses += 1;
                                    false
                                }
                            };
                            counters.code_load_stall_ns += code_stall;
                            // Baselines for the per-launch telemetry deltas.
                            let power_stall_before = counters.power_stall_ns;
                            let dynamic_pj_before = energy.dynamic_pj;

                            let mut freq = groups[g].governor.freq_mhz();
                            // A thermal throttle window pins the clock to
                            // the DVFS floor regardless of the governor.
                            if let Some(fs) = faults.as_deref_mut() {
                                let th = fs.thermal_throttle(g, start);
                                if th.factor > 1.0 {
                                    freq = freq.min(self.power_cfg.f_min_mhz);
                                    counters.faults_injected += u64::from(th.newly_fired);
                                }
                            }
                            let (busy_ns, intra_stall_ns, l2_ns, l3_ns) =
                                self.kernel_times(descriptor, &mut memory, freq, l3_sharers);
                            let work_ns = busy_ns + intra_stall_ns;
                            // Multiple buffering overlaps compute with data
                            // movement; the longest component dominates.
                            // Every launch pays a fixed dispatch overhead.
                            let launch_ns =
                                self.cfg.kernel_launch_cycles as f64 * 1e3 / freq as f64;
                            let mut duration =
                                work_ns.max(l2_ns).max(l3_ns).max(stage_pending_ns) + launch_ns;
                            let mem_stall = duration - launch_ns - busy_ns;

                            // --- power loops ---
                            // The observation (including the projected-power
                            // probe, a full dynamic-energy evaluation) is
                            // only needed when the LPME/governor will consume
                            // it; with power management off it used to be
                            // computed and discarded on every launch.
                            if pm_on {
                                let cycle_ns = 1e3 / freq as f64;
                                let obs = WindowObservation {
                                    busy_cycles: (busy_ns / cycle_ns) as u64,
                                    // Everything that is not issue time is
                                    // frequency-insensitive stall: intra-kernel
                                    // pipeline bubbles plus exposed memory time.
                                    stall_cycles: (mem_stall / cycle_ns) as u64,
                                    l3_stall_cycles: (mem_stall / cycle_ns) as u64,
                                    projected_power_mw: {
                                        // Projected dynamic power of this kernel.
                                        let mut probe = EnergyAccount::new();
                                        probe.charge_compute(
                                            &self.energy_model,
                                            &self.power_cfg,
                                            freq,
                                            (descriptor.macs as f64
                                                / descriptor.dtype.ops_multiplier())
                                                as u64,
                                            descriptor.vector_ops,
                                            descriptor.sfu_ops,
                                        );
                                        if duration > 0.0 {
                                            (probe.dynamic_pj / duration) as u64
                                        } else {
                                            0
                                        }
                                    },
                                };
                                let unit = unit_of(g);
                                match groups[g].lpme.observe(obs) {
                                    LpmeAction::InsertStalls(stalls) => {
                                        let stall_ns = stalls as f64 * cycle_ns;
                                        counters.power_stall_ns += stall_ns;
                                        duration += stall_ns;
                                    }
                                    LpmeAction::RequestBudget(want) => {
                                        let granted = cpme.request(unit, want);
                                        groups[g].lpme.grant(granted);
                                        if granted < want {
                                            // Partial grant: throttle the rest.
                                            let deficit =
                                                (want - granted) as f64 / want.max(1) as f64;
                                            let stall_ns = duration * deficit * 0.5;
                                            counters.power_stall_ns += stall_ns;
                                            duration += stall_ns;
                                        }
                                    }
                                    LpmeAction::ReturnBudget(surplus) => {
                                        if cpme.release(unit, surplus).is_ok() {
                                            groups[g].lpme.relinquish(surplus);
                                        }
                                    }
                                    LpmeAction::None => {}
                                }
                                // Accumulate into the group's observation
                                // window; the governor acts when a full
                                // window has elapsed.
                                let acc = &mut groups[g].window_acc;
                                acc.busy_cycles += obs.busy_cycles;
                                acc.stall_cycles += obs.stall_cycles;
                                acc.l3_stall_cycles += obs.l3_stall_cycles;
                                acc.projected_power_mw =
                                    acc.projected_power_mw.max(obs.projected_power_mw);
                                groups[g].window_elapsed_ns += duration;
                                if groups[g].window_elapsed_ns >= window_ns {
                                    let window = groups[g].window_acc;
                                    // 3% latency-slack budget per window.
                                    let _plan = groups[g].governor.step_with_slack(window, 0.03);
                                    groups[g].window_acc = WindowObservation::default();
                                    groups[g].window_elapsed_ns = 0.0;
                                }
                            }

                            // --- fault injection on the launch window ---
                            if let Some(fs) = faults.as_deref_mut() {
                                let scrubs = fs.take_correctable_scrubs(
                                    g,
                                    start,
                                    start + code_stall + duration,
                                );
                                if scrubs > 0 {
                                    let scrub_ns =
                                        memory.ecc_scrub_ns(ECC_SCRUB_BYTES) * f64::from(scrubs);
                                    fs.add_stall_ns(scrub_ns);
                                    counters.faults_injected += u64::from(scrubs);
                                    counters.fault_stall_ns += scrub_ns;
                                    duration += scrub_ns;
                                }
                                let end_ns = start + code_stall + duration;
                                if let Some(err) = fs.take_uncorrectable(g, start, end_ns) {
                                    return Err(SimError::Fault(err));
                                }
                                if let Some(err) = fs.core_failure(g, end_ns) {
                                    return Err(SimError::Fault(err));
                                }
                            }

                            // --- energy ---
                            let fp32_equiv_macs =
                                (descriptor.macs as f64 / descriptor.dtype.ops_multiplier()) as u64;
                            energy.charge_compute(
                                &self.energy_model,
                                &self.power_cfg,
                                freq,
                                fp32_equiv_macs,
                                descriptor.vector_ops,
                                descriptor.sfu_ops,
                            );
                            energy.charge_memory(
                                &self.energy_model,
                                descriptor.l1_bytes,
                                descriptor.l2_bytes,
                                descriptor.l3_bytes,
                            );
                            // The group's engines stay clocked for the whole
                            // kernel; idle (clock-tree) power scales with the
                            // DVFS point — one group's share of the chip.
                            energy.charge_active_idle(
                                &self.energy_model,
                                &self.power_cfg,
                                freq,
                                duration / n_groups as f64,
                            );

                            // --- bookkeeping ---
                            counters.kernel_launches += 1;
                            counters.macs += descriptor.macs;
                            counters.vector_ops += descriptor.vector_ops;
                            counters.sfu_ops += descriptor.sfu_ops;
                            counters.compute_busy_ns += busy_ns;
                            counters.memory_stall_ns += mem_stall;
                            groups[g].freq_time_product += freq as f64 * duration;
                            groups[g].busy_time_ns += duration;

                            if rec.enabled() {
                                if code_stall > 0.0 {
                                    let mut cs = CounterSet::new();
                                    cs.add(Counter::CodeLoadStallNs, code_stall);
                                    rec.record(
                                        Span::new(
                                            SpanKind::CodeLoad,
                                            Layer::Sim,
                                            g as u32,
                                            format!("{kernel} code"),
                                            start,
                                            start + code_stall,
                                        )
                                        .with_op(kernel.0)
                                        .with_counters(cs),
                                    );
                                }
                                let mut cs = CounterSet::new();
                                cs.add(Counter::KernelLaunches, 1.0);
                                cs.add(Counter::Macs, descriptor.macs as f64);
                                cs.add(Counter::VectorOps, descriptor.vector_ops as f64);
                                cs.add(Counter::SfuOps, descriptor.sfu_ops as f64);
                                cs.add(Counter::ComputeBusyNs, busy_ns);
                                cs.add(Counter::MemoryStallNs, mem_stall);
                                cs.add(Counter::LaunchOverheadNs, launch_ns);
                                cs.add(Counter::L2Bytes, descriptor.l2_bytes as f64);
                                cs.add(Counter::L3Bytes, descriptor.l3_bytes as f64);
                                cs.add(Counter::IcacheHits, if icache_hit { 1.0 } else { 0.0 });
                                cs.add(Counter::IcacheMisses, if icache_hit { 0.0 } else { 1.0 });
                                cs.add(
                                    Counter::PowerStallNs,
                                    counters.power_stall_ns - power_stall_before,
                                );
                                cs.add(
                                    Counter::DynamicEnergyPj,
                                    energy.dynamic_pj - dynamic_pj_before,
                                );
                                cs.add(Counter::FreqResidencyMhzNs, freq as f64 * duration);
                                cs.add(Counter::ActiveTimeNs, duration);
                                rec.record(
                                    Span::new(
                                        SpanKind::Kernel,
                                        Layer::Sim,
                                        g as u32,
                                        descriptor.name.clone(),
                                        start + code_stall,
                                        start + code_stall + duration,
                                    )
                                    .with_op(kernel.0)
                                    .with_freq(freq)
                                    .with_counters(cs),
                                );
                            }
                            streams[si].clock_ns = start + code_stall + duration;
                            streams[si].pc += 1;
                            progressed = true;
                        }
                    }
                }
            }
            if all_done {
                break;
            }
            if !progressed {
                return Err(SimError::Deadlock {
                    pending_events: sync.pending_events(),
                });
            }
        }

        let latency_ns = streams.iter().map(|s| s.clock_ns).fold(0.0f64, f64::max);
        energy.charge_static(&self.energy_model, latency_ns);

        let (fp, bt): (f64, f64) = groups
            .iter()
            .map(|g| (g.freq_time_product, g.busy_time_ns))
            .fold((0.0, 0.0), |(a, b), (c, d)| (a + c, b + d));
        let mean_freq_mhz = if bt > 0.0 {
            fp / bt
        } else {
            self.cfg.clock_mhz as f64
        };

        counters.sync_ops += sync.ops();

        if rec.enabled() {
            let mut set = counters.to_counter_set();
            set.add(Counter::DynamicEnergyPj, energy.dynamic_pj);
            set.add(Counter::StaticEnergyPj, energy.static_pj);
            set.add(Counter::FreqResidencyMhzNs, fp);
            set.add(Counter::ActiveTimeNs, bt);
            rec.snapshot(CounterSnapshot {
                at_ns: latency_ns,
                label: format!("chip:{}", program.name),
                set,
            });
        }

        Ok(RunReport {
            latency_ns,
            energy,
            counters,
            mean_freq_mhz,
            program: program.name.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::{DmaDescriptor, DmaPath, MemLevel};
    use crate::program::Stream;
    use crate::sync::SyncPattern;
    use dtu_isa::{DataType, KernelId, OpClass};

    fn conv_kernel(id: u64, macs: u64, l3: u64) -> Command {
        let mut d = KernelDescriptor::new(format!("k{id}"));
        d.class = OpClass::MatrixDense;
        d.dtype = DataType::Fp16;
        d.macs = macs;
        d.l2_bytes = l3 / 2;
        d.l3_bytes = l3;
        d.code_bytes = 16 * 1024;
        Command::Launch {
            kernel: KernelId(id),
            descriptor: d,
        }
    }

    fn single_stream_program(cmds: Vec<Command>) -> Program {
        let mut p = Program::new("test");
        let mut s = Stream::new(GroupId::new(0, 0));
        for c in cmds {
            s.push(c);
        }
        p.add_stream(s);
        p
    }

    #[test]
    fn empty_program_zero_latency() {
        let chip = Chip::new(ChipConfig::dtu20());
        let r = chip.run(&Program::new("empty")).unwrap();
        assert_eq!(r.latency_ns, 0.0);
        assert_eq!(r.counters.kernel_launches, 0);
    }

    #[test]
    fn single_kernel_latency_scales_with_work() {
        let chip = Chip::new(ChipConfig::dtu20());
        let small = chip
            .run(&single_stream_program(vec![conv_kernel(
                1, 1_000_000, 1_000,
            )]))
            .unwrap();
        let big = chip
            .run(&single_stream_program(vec![conv_kernel(
                1,
                100_000_000,
                1_000,
            )]))
            .unwrap();
        // Launch overhead and the utilisation ramp compress the ratio
        // below the pure 100x MAC ratio, but it must stay strongly
        // work-dependent.
        assert!(big.latency_ns > small.latency_ns * 5.0);
        assert_eq!(big.counters.kernel_launches, 1);
        assert_eq!(big.counters.macs, 100_000_000);
    }

    #[test]
    fn bandwidth_bound_kernel_dominated_by_l3() {
        let chip = Chip::new(ChipConfig::dtu20());
        // Tiny compute, huge traffic.
        let r = chip
            .run(&single_stream_program(vec![conv_kernel(
                1,
                1_000,
                100_000_000,
            )]))
            .unwrap();
        assert!(r.counters.memory_stall_ns > r.counters.compute_busy_ns);
    }

    #[test]
    fn placement_validation() {
        let chip = Chip::new(ChipConfig::dtu20());
        let mut p = Program::new("bad");
        p.add_stream(Stream::new(GroupId::new(5, 0)));
        assert!(matches!(chip.run(&p), Err(SimError::UnknownGroup { .. })));
        let mut p = Program::new("bad2");
        p.add_stream(Stream::new(GroupId::new(0, 3)));
        assert!(chip.run(&p).is_err());
    }

    #[test]
    fn sync_serialises_producer_consumer() {
        let chip = Chip::new(ChipConfig::dtu20());
        let mut p = Program::new("sync");
        let mut a = Stream::new(GroupId::new(0, 0));
        a.push(Command::RegisterEvent {
            event: 1,
            pattern: SyncPattern::OneToOne,
        })
        .push(conv_kernel(1, 50_000_000, 10_000))
        .push(Command::Signal { event: 1 });
        let mut b = Stream::new(GroupId::new(0, 1));
        b.push(Command::Wait { event: 1 })
            .push(conv_kernel(2, 50_000_000, 10_000));
        p.add_stream(a);
        p.add_stream(b);
        let serial = chip.run(&p).unwrap();

        // Same kernels, no dependency: parallel.
        let mut q = Program::new("par");
        let mut a = Stream::new(GroupId::new(0, 0));
        a.push(conv_kernel(1, 50_000_000, 10_000));
        let mut b = Stream::new(GroupId::new(0, 1));
        b.push(conv_kernel(2, 50_000_000, 10_000));
        q.add_stream(a);
        q.add_stream(b);
        let parallel = chip.run(&q).unwrap();

        assert!(serial.latency_ns > parallel.latency_ns * 1.8);
        assert!(serial.counters.sync_wait_ns > 0.0);
    }

    #[test]
    fn deadlock_detected() {
        let chip = Chip::new(ChipConfig::dtu20());
        let mut p = Program::new("dead");
        let mut s = Stream::new(GroupId::new(0, 0));
        s.push(Command::RegisterEvent {
            event: 9,
            pattern: SyncPattern::OneToOne,
        })
        .push(Command::Wait { event: 9 });
        p.add_stream(s);
        match chip.run(&p) {
            Err(SimError::Deadlock { pending_events }) => {
                assert_eq!(pending_events, vec![9]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn icache_prefetch_reduces_code_stall() {
        let chip = Chip::new(ChipConfig::dtu20());
        let cold = chip
            .run(&single_stream_program(vec![
                conv_kernel(7, 10_000_000, 1_000),
                conv_kernel(8, 10_000_000, 1_000),
            ]))
            .unwrap();
        let warm = chip
            .run(&single_stream_program(vec![
                Command::Prefetch {
                    kernel: KernelId(7),
                    code_bytes: 16 * 1024,
                },
                Command::Prefetch {
                    kernel: KernelId(8),
                    code_bytes: 16 * 1024,
                },
                conv_kernel(7, 10_000_000, 1_000),
                conv_kernel(8, 10_000_000, 1_000),
            ]))
            .unwrap();
        assert!(warm.counters.code_load_stall_ns < cold.counters.code_load_stall_ns);
        assert!(warm.latency_ns <= cold.latency_ns);
    }

    #[test]
    fn no_icache_repeated_kernel_pays_every_time() {
        let mut cfg = ChipConfig::dtu20();
        cfg.features.instruction_cache = false;
        let chip = Chip::new(cfg);
        let r = chip
            .run(&single_stream_program(vec![
                conv_kernel(1, 1_000_000, 1_000),
                conv_kernel(1, 1_000_000, 1_000),
            ]))
            .unwrap();
        assert_eq!(r.counters.icache_misses, 2);
        assert_eq!(r.counters.icache_hits, 0);

        let chip2 = Chip::new(ChipConfig::dtu20());
        let r2 = chip2
            .run(&single_stream_program(vec![
                conv_kernel(1, 1_000_000, 1_000),
                conv_kernel(1, 1_000_000, 1_000),
            ]))
            .unwrap();
        assert_eq!(r2.counters.icache_hits, 1);
    }

    #[test]
    fn overlapped_dma_hides_behind_compute() {
        let chip = Chip::new(ChipConfig::dtu20());
        let dma = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 1 << 20);
        let blocking = chip
            .run(&single_stream_program(vec![
                Command::Dma {
                    descriptor: dma.clone(),
                    overlapped: false,
                },
                conv_kernel(1, 500_000_000, 1_000),
            ]))
            .unwrap();
        let overlapped = chip
            .run(&single_stream_program(vec![
                Command::Dma {
                    descriptor: dma,
                    overlapped: true,
                },
                conv_kernel(1, 500_000_000, 1_000),
            ]))
            .unwrap();
        assert!(overlapped.latency_ns <= blocking.latency_ns);
    }

    #[test]
    fn energy_grows_with_work() {
        let chip = Chip::new(ChipConfig::dtu20());
        let small = chip
            .run(&single_stream_program(vec![conv_kernel(
                1, 1_000_000, 1_000,
            )]))
            .unwrap();
        let big = chip
            .run(&single_stream_program(vec![conv_kernel(
                1,
                1_000_000_000,
                1_000,
            )]))
            .unwrap();
        assert!(big.energy_joules() > small.energy_joules());
        assert!(big.average_watts() > 0.0);
    }

    #[test]
    fn power_management_saves_energy_on_bandwidth_bound_runs() {
        // A long bandwidth-bound phase: PM drops the clock, saving energy
        // with little latency cost.
        let mut kernels = Vec::new();
        for i in 0..40 {
            // Bandwidth-bound (L3 time > compute time at every DVFS
            // point) but with enough MACs that dynamic compute energy is
            // a meaningful share of the total.
            kernels.push(conv_kernel(i, 200_000_000, 100_000_000));
        }
        let chip_on = Chip::new(ChipConfig::dtu20());
        let on = chip_on
            .run(&single_stream_program(kernels.clone()))
            .unwrap();
        let mut cfg_off = ChipConfig::dtu20();
        cfg_off.features.power_management = false;
        let chip_off = Chip::new(cfg_off);
        let off = chip_off.run(&single_stream_program(kernels)).unwrap();

        assert!(on.mean_freq_mhz < off.mean_freq_mhz, "governor never acted");
        // Perf drop bounded, energy saved.
        assert!(on.latency_ns <= off.latency_ns * 1.10);
        assert!(on.energy_joules() < off.energy_joules());
    }

    #[test]
    fn mean_frequency_reported() {
        let chip = Chip::new(ChipConfig::dtu20());
        let r = chip
            .run(&single_stream_program(vec![conv_kernel(
                1, 10_000_000, 1_000,
            )]))
            .unwrap();
        assert!(r.mean_freq_mhz > 0.0);
        assert!(r.mean_freq_mhz <= chip.config().clock_mhz as f64);
    }

    #[test]
    fn faulted_run_with_empty_plan_matches_plain_run() {
        use dtu_faults::FaultPlan;
        let chip = Chip::new(ChipConfig::dtu20());
        let prog = single_stream_program(vec![
            conv_kernel(1, 10_000_000, 100_000),
            conv_kernel(2, 10_000_000, 100_000),
        ]);
        let plain = chip.run(&prog).unwrap();
        let mut fs = FaultSession::new(&FaultPlan::empty(), 4, 3);
        let faulted = chip.run_faulted(&prog, &mut fs).unwrap();
        assert_eq!(plain, faulted, "empty plan must be invisible");
        assert_eq!(fs.injected(), 0);
    }

    #[test]
    fn core_failure_aborts_with_typed_error() {
        use dtu_faults::{FaultEvent, FaultKind, FaultPlan};
        let chip = Chip::new(ChipConfig::dtu20());
        let prog = single_stream_program(vec![conv_kernel(1, 100_000_000, 1_000)]);
        let plan = FaultPlan {
            seed: 0,
            name: String::new(),
            events: vec![FaultEvent {
                at_ns: 0.0,
                cluster: 0,
                group: 0,
                kind: FaultKind::CoreFailure,
            }],
        };
        let mut fs = FaultSession::new(&plan, 4, 3);
        match chip.run_faulted(&prog, &mut fs) {
            Err(SimError::Fault(e)) => {
                assert!(e.is_permanent());
                assert_eq!(e.location(), (0, 0));
            }
            other => panic!("expected fault abort, got {other:?}"),
        }
        // Permanent: a rerun of the same session still fails…
        assert!(chip.run_faulted(&prog, &mut fs).is_err());
        // …but a program on another group is untouched.
        let mut p = Program::new("other");
        let mut s = Stream::new(GroupId::new(1, 0));
        s.push(conv_kernel(1, 1_000_000, 1_000));
        p.add_stream(s);
        assert!(chip.run_faulted(&p, &mut fs).is_ok());
    }

    #[test]
    fn dma_stall_window_lengthens_transfers() {
        use dtu_faults::{FaultEvent, FaultKind, FaultPlan};
        let chip = Chip::new(ChipConfig::dtu20());
        let dma = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 64 << 20);
        let prog = single_stream_program(vec![Command::Dma {
            descriptor: dma,
            overlapped: false,
        }]);
        let plain = chip.run(&prog).unwrap();
        let plan = FaultPlan {
            seed: 0,
            name: String::new(),
            events: vec![FaultEvent {
                at_ns: 0.0,
                cluster: 0,
                group: 0,
                kind: FaultKind::DmaStall {
                    factor: 4.0,
                    duration_ns: 1e12,
                },
            }],
        };
        let mut fs = FaultSession::new(&plan, 4, 3);
        let slow = chip.run_faulted(&prog, &mut fs).unwrap();
        assert!(slow.latency_ns > plain.latency_ns * 3.0);
        assert_eq!(slow.counters.faults_injected, 1);
        assert!(slow.counters.fault_stall_ns > 0.0);
        assert!(fs.stall_ns() > 0.0);
    }

    #[test]
    fn thermal_throttle_pins_frequency_to_floor() {
        use dtu_faults::{FaultEvent, FaultKind, FaultPlan};
        let mut cfg = ChipConfig::dtu20();
        cfg.features.power_management = false; // keep the governor at f_max
        let chip = Chip::new(cfg);
        let prog = single_stream_program(vec![conv_kernel(1, 500_000_000, 1_000)]);
        let plain = chip.run(&prog).unwrap();
        let plan = FaultPlan {
            seed: 0,
            name: String::new(),
            events: vec![FaultEvent {
                at_ns: 0.0,
                cluster: 0,
                group: 0,
                kind: FaultKind::ThermalThrottle { duration_ns: 1e12 },
            }],
        };
        let mut fs = FaultSession::new(&plan, 4, 3);
        let hot = chip.run_faulted(&prog, &mut fs).unwrap();
        assert!(hot.mean_freq_mhz < plain.mean_freq_mhz);
        assert_eq!(
            hot.mean_freq_mhz as u32,
            chip.power_config().f_min_mhz,
            "throttled kernel runs at the DVFS floor"
        );
        assert!(hot.latency_ns > plain.latency_ns);
    }

    #[test]
    fn ecc_faults_scrub_or_abort() {
        use dtu_faults::{FaultEvent, FaultKind, FaultPlan};
        let chip = Chip::new(ChipConfig::dtu20());
        let prog = single_stream_program(vec![conv_kernel(1, 100_000_000, 1_000)]);
        let plain = chip.run(&prog).unwrap();
        let correctable = FaultPlan {
            seed: 0,
            name: String::new(),
            events: vec![FaultEvent {
                at_ns: 1.0,
                cluster: 0,
                group: 0,
                kind: FaultKind::EccError { correctable: true },
            }],
        };
        let mut fs = FaultSession::new(&correctable, 4, 3);
        let scrubbed = chip.run_faulted(&prog, &mut fs).unwrap();
        assert!(scrubbed.latency_ns > plain.latency_ns);
        assert_eq!(scrubbed.counters.faults_injected, 1);

        let fatal = FaultPlan {
            seed: 0,
            name: String::new(),
            events: vec![FaultEvent {
                at_ns: 1.0,
                cluster: 0,
                group: 0,
                kind: FaultKind::EccError { correctable: false },
            }],
        };
        let mut fs = FaultSession::new(&fatal, 4, 3);
        match chip.run_faulted(&prog, &mut fs) {
            Err(SimError::Fault(e)) => assert!(!e.is_permanent()),
            other => panic!("expected ECC abort, got {other:?}"),
        }
        // One-shot: the retry proceeds.
        assert!(chip.run_faulted(&prog, &mut fs).is_ok());
    }

    #[test]
    fn icache_corruption_forces_code_reload() {
        use dtu_faults::{FaultEvent, FaultKind, FaultPlan};
        let chip = Chip::new(ChipConfig::dtu20());
        // Same kernel twice: normally the second launch hits.
        let prog = single_stream_program(vec![
            conv_kernel(1, 10_000_000, 1_000),
            conv_kernel(1, 10_000_000, 1_000),
        ]);
        let plain = chip.run(&prog).unwrap();
        assert_eq!(plain.counters.icache_hits, 1);
        let plan = FaultPlan {
            seed: 0,
            name: String::new(),
            events: vec![FaultEvent {
                at_ns: 1.0,
                cluster: 0,
                group: 0,
                kind: FaultKind::IcacheCorruption,
            }],
        };
        let mut fs = FaultSession::new(&plan, 4, 3);
        let corrupted = chip.run_faulted(&prog, &mut fs).unwrap();
        assert_eq!(corrupted.counters.icache_hits, 0, "residency wiped");
        assert!(corrupted.counters.code_load_stall_ns >= plain.counters.code_load_stall_ns);
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let mut cfg = ChipConfig::dtu20();
        cfg.groups_per_cluster = 7;
        assert!(matches!(
            Chip::try_new(cfg),
            Err(SimError::InvalidConfig(_))
        ));
    }
}

//! The 3-level memory hierarchy: capacities, allocation, and bandwidth.
//!
//! Fig. 5: each compute core owns an L1 data buffer; each processing group
//! owns one L2 partition with 4 parallel read/write ports ("4 compute
//! cores in the processing group can access L2 memory without
//! interference", §IV-B); the two HBM2E stacks form a shared L3.
//!
//! The timing layer asks this module two kinds of questions: *does this
//! allocation fit?* (capacity tracking per pool) and *how long does moving
//! N bytes take?* (bandwidth, with port-level parallelism on L2 and
//! fair-share division on L3).

use crate::config::ChipConfig;
use std::error::Error;
use std::fmt;

/// Errors from memory allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// The allocation does not fit in the pool's remaining capacity.
    OutOfMemory {
        /// Pool description.
        pool: String,
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        free: u64,
    },
    /// Freed more bytes than were allocated.
    UnderFlow {
        /// Pool description.
        pool: String,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfMemory {
                pool,
                requested,
                free,
            } => write!(f, "{pool}: requested {requested} B but only {free} B free"),
            MemoryError::UnderFlow { pool } => write!(f, "{pool}: freed more than allocated"),
        }
    }
}

impl Error for MemoryError {}

/// A simple capacity pool (bump accounting; the compiler plans exact
/// reuse, so the simulator only polices totals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPool {
    name: String,
    capacity: u64,
    used: u64,
    high_water: u64,
}

impl MemoryPool {
    /// Creates a pool with a capacity in bytes.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        MemoryPool {
            name: name.into(),
            capacity,
            used: 0,
            high_water: 0,
        }
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Highest allocation watermark seen.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Allocates `bytes`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfMemory`] when the pool cannot hold the request.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), MemoryError> {
        if bytes > self.free() {
            return Err(MemoryError::OutOfMemory {
                pool: self.name.clone(),
                requested: bytes,
                free: self.free(),
            });
        }
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
        Ok(())
    }

    /// Releases `bytes`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnderFlow`] when releasing more than allocated.
    pub fn release(&mut self, bytes: u64) -> Result<(), MemoryError> {
        if bytes > self.used {
            return Err(MemoryError::UnderFlow {
                pool: self.name.clone(),
            });
        }
        self.used -= bytes;
        Ok(())
    }
}

/// The chip-wide memory hierarchy state: one L1 pool per core, one L2 pool
/// per processing group, one L3 pool, plus the bandwidth model.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1: Vec<MemoryPool>,
    l2: Vec<MemoryPool>,
    l3: MemoryPool,
    l2_ports: usize,
    l2_port_gbps: f64,
    l3_gbps: f64,
    multi_port: bool,
    /// Total bytes moved over HBM, for reporting.
    l3_traffic: u64,
    /// Total bytes through L2 ports, for reporting.
    l2_traffic: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by a chip config.
    pub fn new(cfg: &ChipConfig) -> Self {
        let l1 = (0..cfg.total_cores())
            .map(|i| MemoryPool::new(format!("L1[core {i}]"), cfg.l1_bytes_per_core()))
            .collect();
        let l2 = (0..cfg.total_groups())
            .map(|g| MemoryPool::new(format!("L2[group {g}]"), cfg.l2_bytes_per_group()))
            .collect();
        MemoryHierarchy {
            l1,
            l2,
            l3: MemoryPool::new("L3[HBM]", cfg.l3_bytes()),
            l2_ports: cfg.l2_ports,
            l2_port_gbps: cfg.l2_port_gb_per_s,
            l3_gbps: cfg.l3_gb_per_s,
            multi_port: cfg.features.multi_port_l2,
            l3_traffic: 0,
            l2_traffic: 0,
        }
    }

    /// A hierarchy carrying only the bandwidth model, for the run loop.
    ///
    /// [`Chip::run`](crate::Chip::run) prices transfers but never
    /// allocates, so the per-core L1 and per-group L2 capacity pools —
    /// and their ~30 formatted name strings — are dead weight on that
    /// path. Pool accessors must not be used on a hierarchy built this
    /// way.
    pub(crate) fn timing_only(cfg: &ChipConfig) -> Self {
        MemoryHierarchy {
            l1: Vec::new(),
            l2: Vec::new(),
            l3: MemoryPool::new("L3[HBM]", cfg.l3_bytes()),
            l2_ports: cfg.l2_ports,
            l2_port_gbps: cfg.l2_port_gb_per_s,
            l3_gbps: cfg.l3_gb_per_s,
            multi_port: cfg.features.multi_port_l2,
            l3_traffic: 0,
            l2_traffic: 0,
        }
    }

    /// The L1 pool of a core (by flat core index).
    pub fn l1(&mut self, core: usize) -> &mut MemoryPool {
        &mut self.l1[core]
    }

    /// The L2 pool of a processing group (by flat group index).
    pub fn l2(&mut self, group: usize) -> &mut MemoryPool {
        &mut self.l2[group]
    }

    /// The shared L3 pool.
    pub fn l3(&mut self) -> &mut MemoryPool {
        &mut self.l3
    }

    /// Number of L2 pools (processing groups).
    pub fn l2_partitions(&self) -> usize {
        self.l2.len()
    }

    /// Time in nanoseconds to move `bytes` through L2 when `concurrent`
    /// cores in the group access it simultaneously.
    ///
    /// With `multi_port_l2` each core gets its own port up to the port
    /// count; without it (DTU 1.0) all cores in a group serialise on one
    /// port.
    pub fn l2_transfer_ns(&mut self, bytes: u64, concurrent: usize) -> f64 {
        self.l2_traffic += bytes;
        let ports = if self.multi_port { self.l2_ports } else { 1 };
        let effective_share = if concurrent <= ports {
            self.l2_port_gbps
        } else {
            self.l2_port_gbps * ports as f64 / concurrent as f64
        };
        bytes as f64 / effective_share // B / (GB/s) == ns
    }

    /// Time in nanoseconds to move `bytes` over HBM when `sharers` streams
    /// are using the interface (fair share of the pin bandwidth).
    pub fn l3_transfer_ns(&mut self, bytes: u64, sharers: usize) -> f64 {
        self.l3_traffic += bytes;
        let share = self.l3_gbps / sharers.max(1) as f64;
        bytes as f64 / share
    }

    /// Time in nanoseconds to scrub `bytes` after a correctable L2 ECC
    /// error: the poisoned lines are re-read and re-written through one
    /// L2 port while the cores wait.
    pub fn ecc_scrub_ns(&mut self, bytes: u64) -> f64 {
        // Read + write-back through a single port.
        self.l2_transfer_ns(2 * bytes, 1)
    }

    /// Total HBM traffic so far, in bytes.
    pub fn l3_traffic(&self) -> u64 {
        self.l3_traffic
    }

    /// Total L2 traffic so far, in bytes.
    pub fn l2_traffic(&self) -> u64 {
        self.l2_traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_built_from_config() {
        let cfg = ChipConfig::dtu20();
        let mut m = MemoryHierarchy::new(&cfg);
        assert_eq!(m.l2_partitions(), 6);
        assert_eq!(m.l1(0).capacity(), 1024 * 1024);
        assert_eq!(m.l2(0).capacity(), 8 * 1024 * 1024);
        assert_eq!(m.l3().capacity(), 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn alloc_and_release_roundtrip() {
        let mut p = MemoryPool::new("t", 100);
        p.alloc(60).unwrap();
        assert_eq!(p.free(), 40);
        p.alloc(40).unwrap();
        assert!(p.alloc(1).is_err());
        p.release(100).unwrap();
        assert_eq!(p.used(), 0);
        assert_eq!(p.high_water(), 100);
        assert!(p.release(1).is_err());
    }

    #[test]
    fn oom_error_reports_numbers() {
        let mut p = MemoryPool::new("L1[core 3]", 10);
        let err = p.alloc(11).unwrap_err();
        assert_eq!(
            err,
            MemoryError::OutOfMemory {
                pool: "L1[core 3]".into(),
                requested: 11,
                free: 10
            }
        );
        assert!(err.to_string().contains("L1[core 3]"));
    }

    #[test]
    fn l2_ports_remove_interference() {
        let cfg = ChipConfig::dtu20();
        let mut m = MemoryHierarchy::new(&cfg);
        let alone = m.l2_transfer_ns(1_000_000, 1);
        let four = m.l2_transfer_ns(1_000_000, 4);
        // 4 cores, 4 ports: same per-core time.
        assert!((alone - four).abs() < 1e-9);
        let eight = m.l2_transfer_ns(1_000_000, 8);
        assert!(eight > four);
    }

    #[test]
    fn single_port_l2_serialises() {
        let mut cfg = ChipConfig::dtu20();
        cfg.features.multi_port_l2 = false;
        let mut m = MemoryHierarchy::new(&cfg);
        let alone = m.l2_transfer_ns(1_000_000, 1);
        let four = m.l2_transfer_ns(1_000_000, 4);
        assert!((four / alone - 4.0).abs() < 1e-9);
    }

    #[test]
    fn l3_fair_share() {
        let cfg = ChipConfig::dtu20();
        let mut m = MemoryHierarchy::new(&cfg);
        let alone = m.l3_transfer_ns(819_000_000, 1);
        assert!((alone - 1e6).abs() < 1.0); // 819 MB at 819 GB/s = 1 ms
        let shared = m.l3_transfer_ns(819_000_000, 3);
        assert!((shared / alone - 3.0).abs() < 1e-9);
        assert_eq!(m.l3_traffic(), 2 * 819_000_000);
    }

    #[test]
    fn traffic_counters_accumulate() {
        let cfg = ChipConfig::dtu20();
        let mut m = MemoryHierarchy::new(&cfg);
        m.l2_transfer_ns(100, 1);
        m.l2_transfer_ns(50, 2);
        assert_eq!(m.l2_traffic(), 150);
    }
}

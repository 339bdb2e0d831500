//! The DMA engine: transfer descriptors, legality, timing, and the
//! functional application of on-the-fly transforms.
//!
//! §IV-C of the paper. Key behaviours modelled:
//!
//! * tensor layout transformation during transfer (pad / slice /
//!   transpose / concat), delegated to `dtu-tensor`;
//! * sparse decompression on the fly ([`dtu_tensor::SparseFormat`]):
//!   compressed bytes cross the wire, dense bytes land at the
//!   destination;
//! * direct L1 ↔ L3 transfers (new in DTU 2.0; DTU 1.0 must bounce
//!   through L2);
//! * broadcast to the 3 processing-group L2 partitions of a cluster in
//!   one transaction;
//! * *repeat mode* (Fig. 6): one configuration drives `n` transactions
//!   with a regular stride, eliminating `(n-1)/n` of the configuration
//!   overhead.

use crate::config::ChipConfig;
use dtu_tensor::{compress, compressed_wire_bytes, SparseFormat, Tensor, TensorError, TransformOp};
use std::error::Error;
use std::fmt;

/// A level of the memory hierarchy, as a DMA endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// Per-core L1 data buffer.
    L1,
    /// Per-group L2 shared memory.
    L2,
    /// HBM.
    L3,
    /// Host memory over PCIe.
    Host,
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemLevel::L1 => "L1",
            MemLevel::L2 => "L2",
            MemLevel::L3 => "L3",
            MemLevel::Host => "Host",
        };
        write!(f, "{s}")
    }
}

/// A source→destination pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmaPath {
    /// Where bytes come from.
    pub src: MemLevel,
    /// Where bytes go.
    pub dst: MemLevel,
}

impl DmaPath {
    /// Creates a path.
    pub const fn new(src: MemLevel, dst: MemLevel) -> Self {
        DmaPath { src, dst }
    }

    /// Whether the path touches HBM.
    pub fn touches_l3(self) -> bool {
        self.src == MemLevel::L3 || self.dst == MemLevel::L3
    }

    /// Whether the path crosses PCIe.
    pub fn crosses_pcie(self) -> bool {
        self.src == MemLevel::Host || self.dst == MemLevel::Host
    }
}

impl fmt::Display for DmaPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.src, self.dst)
    }
}

/// Errors from DMA configuration or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum DmaError {
    /// The path is illegal on this chip generation.
    IllegalPath {
        /// The rejected path.
        path: DmaPath,
        /// Why.
        reason: String,
    },
    /// A feature required by the descriptor is disabled.
    FeatureDisabled {
        /// Description.
        what: String,
    },
    /// Repeat mode needs at least one transaction.
    EmptyRepeat,
    /// The functional transform failed.
    Transform(TensorError),
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::IllegalPath { path, reason } => {
                write!(f, "illegal DMA path {path}: {reason}")
            }
            DmaError::FeatureDisabled { what } => write!(f, "DMA feature disabled: {what}"),
            DmaError::EmptyRepeat => write!(f, "repeat mode with zero transactions"),
            DmaError::Transform(e) => write!(f, "transform failed: {e}"),
        }
    }
}

impl Error for DmaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DmaError::Transform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for DmaError {
    fn from(e: TensorError) -> Self {
        DmaError::Transform(e)
    }
}

/// One DMA transfer descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct DmaDescriptor {
    /// Transfer path.
    pub path: DmaPath,
    /// Payload size at the destination, in bytes (dense size).
    pub bytes: u64,
    /// Layout transform applied on the fly.
    pub transform: TransformOp,
    /// Sparse wire format.
    pub sparse: SparseFormat,
    /// Fan-out: number of identical L2 destinations written at once
    /// (1 = normal transfer; 3 = full-cluster broadcast).
    pub broadcast: usize,
    /// Repeat count: number of transactions this descriptor triggers
    /// (repeat mode when > 1).
    pub repeat: usize,
    /// Fraction of the payload that is zero, when known (drives the
    /// sparse-wire-bytes estimate for descriptor-only transfers).
    pub zero_fraction: f64,
}

impl DmaDescriptor {
    /// A plain 1-shot dense copy.
    pub fn copy(path: DmaPath, bytes: u64) -> Self {
        DmaDescriptor {
            path,
            bytes,
            transform: TransformOp::Identity,
            sparse: SparseFormat::Dense,
            broadcast: 1,
            repeat: 1,
            zero_fraction: 0.0,
        }
    }

    /// Bytes that actually cross the interconnect for one transaction.
    ///
    /// Sparse transfers move the compressed size (bitmap overhead plus the
    /// non-zero payload); broadcast writes the payload once per
    /// destination at the L2 side but reads the source once.
    pub fn wire_bytes(&self) -> u64 {
        match self.sparse {
            SparseFormat::Dense => self.bytes,
            SparseFormat::BitmapBlock => {
                let elems = self.bytes / 4;
                let blocks = elems.div_ceil(64);
                let nonzero = ((elems as f64) * (1.0 - self.zero_fraction)).ceil() as u64;
                blocks * 8 + nonzero * 4
            }
        }
    }
}

/// A completed transfer's accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaCompletion {
    /// Nanoseconds the transfer occupied the engine.
    pub duration_ns: f64,
    /// Of that, nanoseconds spent on descriptor configuration.
    pub config_ns: f64,
    /// Bytes that crossed the interconnect.
    pub wire_bytes: u64,
    /// Bytes that landed at destinations (dense, × broadcast fan-out).
    pub delivered_bytes: u64,
}

/// One processing group's DMA engine (timing model + functional hooks).
#[derive(Debug, Clone)]
pub struct DmaEngine {
    l1_l3_direct: bool,
    sparse_enabled: bool,
    broadcast_enabled: bool,
    repeat_enabled: bool,
    config_ns: f64,
    l3_gbps: f64,
    l2_gbps: f64,
    pcie_gbps: f64,
    /// Totals for reporting.
    transfers: u64,
    wire_bytes: u64,
    config_time_ns: f64,
    busy_ns: f64,
}

impl DmaEngine {
    /// Builds a group DMA engine from the chip config.
    pub fn new(cfg: &ChipConfig) -> Self {
        DmaEngine {
            l1_l3_direct: cfg.features.l1_l3_direct,
            sparse_enabled: cfg.features.sparse_dma,
            broadcast_enabled: cfg.features.dma_broadcast,
            repeat_enabled: cfg.features.dma_repeat,
            config_ns: cfg.dma_config_cycles as f64 * cfg.cycle_ns(),
            l3_gbps: cfg.l3_gb_per_s,
            l2_gbps: cfg.l2_port_gb_per_s,
            pcie_gbps: 64.0,
            transfers: 0,
            wire_bytes: 0,
            config_time_ns: 0.0,
            busy_ns: 0.0,
        }
    }

    /// Validates a descriptor against this chip's capabilities.
    ///
    /// # Errors
    ///
    /// [`DmaError::IllegalPath`] for L1↔L3 on chips without the direct
    /// path and for Host↔L1 (never supported); [`DmaError::FeatureDisabled`]
    /// for sparse/broadcast/repeat descriptors on chips lacking them;
    /// [`DmaError::EmptyRepeat`] for a zero repeat count.
    pub fn check(&self, d: &DmaDescriptor) -> Result<(), DmaError> {
        let p = d.path;
        if (p.src == MemLevel::Host && p.dst == MemLevel::L1)
            || (p.src == MemLevel::L1 && p.dst == MemLevel::Host)
        {
            return Err(DmaError::IllegalPath {
                path: p,
                reason: "host transfers must target L3".into(),
            });
        }
        let is_l1_l3 = (p.src == MemLevel::L1 && p.dst == MemLevel::L3)
            || (p.src == MemLevel::L3 && p.dst == MemLevel::L1);
        if is_l1_l3 && !self.l1_l3_direct {
            return Err(DmaError::IllegalPath {
                path: p,
                reason: "direct L1<->L3 requires DTU 2.0 (bounce through L2 on 1.0)".into(),
            });
        }
        if d.sparse == SparseFormat::BitmapBlock && !self.sparse_enabled {
            return Err(DmaError::FeatureDisabled {
                what: "sparse decompression".into(),
            });
        }
        if d.broadcast > 1 {
            if !self.broadcast_enabled {
                return Err(DmaError::FeatureDisabled {
                    what: "L2 broadcast".into(),
                });
            }
            if d.path.dst != MemLevel::L2 {
                return Err(DmaError::IllegalPath {
                    path: p,
                    reason: "broadcast destinations must be L2 partitions".into(),
                });
            }
        }
        if d.repeat == 0 {
            return Err(DmaError::EmptyRepeat);
        }
        if d.repeat > 1 && !self.repeat_enabled {
            return Err(DmaError::FeatureDisabled {
                what: "repeat mode".into(),
            });
        }
        Ok(())
    }

    /// Bandwidth of the slowest hop on a path, GB/s.
    fn path_gbps(&self, path: DmaPath) -> f64 {
        if path.crosses_pcie() {
            self.pcie_gbps
        } else if path.touches_l3() {
            self.l3_gbps
        } else {
            self.l2_gbps
        }
    }

    /// Executes a descriptor in the timing model and returns its
    /// accounting. `bw_share` divides the path bandwidth among concurrent
    /// users (supplied by the chip scheduler).
    ///
    /// Repeat mode charges ONE configuration for all `repeat`
    /// transactions; normal mode charges one per transaction (Fig. 6).
    ///
    /// # Errors
    ///
    /// As for [`DmaEngine::check`].
    pub fn execute(
        &mut self,
        d: &DmaDescriptor,
        bw_share: usize,
    ) -> Result<DmaCompletion, DmaError> {
        self.check(d)?;
        let configs = if d.repeat > 1 { 1 } else { d.repeat } as f64;
        let config_ns = if d.repeat > 1 {
            self.config_ns
        } else {
            self.config_ns * configs
        };
        // Per-transaction wire bytes and transfer time.
        let wire_per_txn = d.wire_bytes();
        let gbps = self.path_gbps(d.path) / bw_share.max(1) as f64;
        let move_ns_per_txn = wire_per_txn as f64 / gbps;
        // Broadcast: destination write happens in parallel across
        // partitions, so it does not multiply time (but multiplies
        // delivered bytes).
        let total_ns = config_ns + move_ns_per_txn * d.repeat as f64;
        let wire_total = wire_per_txn * d.repeat as u64;
        self.transfers += d.repeat as u64;
        self.wire_bytes += wire_total;
        self.config_time_ns += config_ns;
        self.busy_ns += total_ns;
        Ok(DmaCompletion {
            duration_ns: total_ns,
            config_ns,
            wire_bytes: wire_total,
            delivered_bytes: d.bytes * d.repeat as u64 * d.broadcast as u64,
        })
    }

    /// Executes the same payload as `repeat` separate normal-mode
    /// descriptors — the Fig. 6 baseline for the repeat-mode comparison.
    ///
    /// # Errors
    ///
    /// As for [`DmaEngine::check`].
    pub fn execute_without_repeat(
        &mut self,
        d: &DmaDescriptor,
        bw_share: usize,
    ) -> Result<DmaCompletion, DmaError> {
        let mut single = d.clone();
        let n = d.repeat.max(1);
        single.repeat = 1;
        let mut total = DmaCompletion {
            duration_ns: 0.0,
            config_ns: 0.0,
            wire_bytes: 0,
            delivered_bytes: 0,
        };
        for _ in 0..n {
            let c = self.execute(&single, bw_share)?;
            total.duration_ns += c.duration_ns;
            total.config_ns += c.config_ns;
            total.wire_bytes += c.wire_bytes;
            total.delivered_bytes += c.delivered_bytes;
        }
        Ok(total)
    }

    /// Functionally moves a tensor through the engine: applies the
    /// descriptor's transform and, for sparse descriptors, round-trips the
    /// data through the wire codec (verifying decompression-on-store).
    ///
    /// Returns the tensor as it lands at the destination plus the actual
    /// wire byte count.
    ///
    /// # Errors
    ///
    /// Transform and codec failures surface as [`DmaError::Transform`];
    /// legality failures as in [`DmaEngine::check`].
    pub fn move_tensor(
        &mut self,
        d: &DmaDescriptor,
        data: &Tensor,
    ) -> Result<(Tensor, u64), DmaError> {
        self.check(d)?;
        let transformed = match &d.transform {
            TransformOp::Identity => data.clone(),
            TransformOp::Pad { spec, value } => dtu_tensor::pad(data, spec, *value)?,
            TransformOp::Slice { spec } => dtu_tensor::slice(data, spec)?,
            TransformOp::Transpose { perm } => dtu_tensor::transpose(data, perm)?,
            TransformOp::Concat { .. } => data.clone(),
        };
        let wire = match d.sparse {
            SparseFormat::Dense => (transformed.len() * 4) as u64,
            SparseFormat::BitmapBlock => {
                let blocks = compress(transformed.data());
                let bytes = compressed_wire_bytes(&blocks, 4) as u64;
                // Decompress-on-store: verify the codec is lossless.
                let restored = dtu_tensor::decompress(&blocks)?;
                debug_assert_eq!(restored.len(), transformed.len());
                bytes
            }
        };
        self.wire_bytes += wire;
        self.transfers += 1;
        Ok((transformed, wire))
    }

    /// Transfers executed so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total wire bytes so far.
    pub fn total_wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Total configuration time so far, ns.
    pub fn total_config_ns(&self) -> f64 {
        self.config_time_ns
    }

    /// Total busy time so far, ns.
    pub fn total_busy_ns(&self) -> f64 {
        self.busy_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_tensor::{PadSpec, Permutation, Shape, SliceSpec};

    fn engine20() -> DmaEngine {
        DmaEngine::new(&ChipConfig::dtu20())
    }

    fn engine10() -> DmaEngine {
        DmaEngine::new(&ChipConfig::dtu10())
    }

    #[test]
    fn legal_paths_on_dtu20() {
        let e = engine20();
        for (s, d) in [
            (MemLevel::L3, MemLevel::L2),
            (MemLevel::L2, MemLevel::L1),
            (MemLevel::L3, MemLevel::L1),
            (MemLevel::L1, MemLevel::L3),
            (MemLevel::L2, MemLevel::L2),
            (MemLevel::Host, MemLevel::L3),
        ] {
            e.check(&DmaDescriptor::copy(DmaPath::new(s, d), 64))
                .unwrap_or_else(|err| panic!("{s}->{d} rejected: {err}"));
        }
    }

    #[test]
    fn l1_l3_direct_rejected_on_dtu10() {
        let e = engine10();
        let err = e
            .check(&DmaDescriptor::copy(
                DmaPath::new(MemLevel::L3, MemLevel::L1),
                64,
            ))
            .unwrap_err();
        assert!(matches!(err, DmaError::IllegalPath { .. }));
        // But L3->L2 is fine.
        e.check(&DmaDescriptor::copy(
            DmaPath::new(MemLevel::L3, MemLevel::L2),
            64,
        ))
        .unwrap();
    }

    #[test]
    fn host_to_l1_always_rejected() {
        let e = engine20();
        assert!(e
            .check(&DmaDescriptor::copy(
                DmaPath::new(MemLevel::Host, MemLevel::L1),
                64
            ))
            .is_err());
    }

    #[test]
    fn feature_gating_on_dtu10() {
        let e = engine10();
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 4096);
        d.sparse = SparseFormat::BitmapBlock;
        assert!(matches!(e.check(&d), Err(DmaError::FeatureDisabled { .. })));
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 4096);
        d.broadcast = 3;
        assert!(e.check(&d).is_err());
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 4096);
        d.repeat = 9;
        assert!(e.check(&d).is_err());
    }

    #[test]
    fn broadcast_must_target_l2() {
        let e = engine20();
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L1), 4096);
        d.broadcast = 3;
        assert!(matches!(e.check(&d), Err(DmaError::IllegalPath { .. })));
    }

    #[test]
    fn repeat_mode_saves_config_overhead() {
        let mut e = engine20();
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 64 * 1024);
        d.repeat = 9; // the Fig. 6 example: 9 slices
        let with = e.execute(&d, 1).unwrap();
        let without = e.execute_without_repeat(&d, 1).unwrap();
        assert_eq!(with.wire_bytes, without.wire_bytes);
        // (N-1)/N of configuration time eliminated.
        assert!((without.config_ns / with.config_ns - 9.0).abs() < 1e-9);
        assert!(with.duration_ns < without.duration_ns);
    }

    #[test]
    fn zero_repeat_rejected() {
        let e = engine20();
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 64);
        d.repeat = 0;
        assert_eq!(e.check(&d), Err(DmaError::EmptyRepeat));
    }

    #[test]
    fn sparse_descriptor_reduces_wire_bytes() {
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 4096);
        d.sparse = SparseFormat::BitmapBlock;
        d.zero_fraction = 0.75;
        let dense_wire =
            DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 4096).wire_bytes();
        assert!(d.wire_bytes() < dense_wire);
        // 1024 elems: 16 blocks × 8 B + 256 values × 4 B = 1152.
        assert_eq!(d.wire_bytes(), 1152);
    }

    #[test]
    fn broadcast_delivers_three_copies_for_one_read() {
        let mut e = engine20();
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 1024);
        d.broadcast = 3;
        let c = e.execute(&d, 1).unwrap();
        assert_eq!(c.wire_bytes, 1024);
        assert_eq!(c.delivered_bytes, 3072);
    }

    #[test]
    fn pcie_path_is_slowest() {
        let mut e = engine20();
        let host = e
            .execute(
                &DmaDescriptor::copy(DmaPath::new(MemLevel::Host, MemLevel::L3), 1 << 20),
                1,
            )
            .unwrap();
        let hbm = e
            .execute(
                &DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 1 << 20),
                1,
            )
            .unwrap();
        assert!(host.duration_ns > hbm.duration_ns);
    }

    #[test]
    fn bandwidth_share_scales_time() {
        let mut e = engine20();
        let d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 1 << 20);
        let solo = e.execute(&d, 1).unwrap();
        let third = e.execute(&d, 3).unwrap();
        let move_solo = solo.duration_ns - solo.config_ns;
        let move_third = third.duration_ns - third.config_ns;
        assert!((move_third / move_solo - 3.0).abs() < 1e-9);
    }

    #[test]
    fn move_tensor_applies_transpose() {
        let mut e = engine20();
        let t = Tensor::from_fn(Shape::new(vec![2, 3]), |i| (i[0] * 3 + i[1]) as f32);
        let d = DmaDescriptor {
            transform: TransformOp::Transpose {
                perm: Permutation::swap(2, 0, 1).unwrap(),
            },
            ..DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 24)
        };
        let (out, wire) = e.move_tensor(&d, &t).unwrap();
        assert_eq!(out.shape().dims(), &[3, 2]);
        assert_eq!(out.get(&[2, 1]).unwrap(), 5.0);
        assert_eq!(wire, 24);
    }

    #[test]
    fn move_tensor_applies_pad_and_slice() {
        let mut e = engine20();
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let d = DmaDescriptor {
            transform: TransformOp::Pad {
                spec: vec![PadSpec::symmetric(1)],
                value: 0.0,
            },
            ..DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 24)
        };
        let (padded, _) = e.move_tensor(&d, &t).unwrap();
        assert_eq!(padded.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 0.0]);

        let d = DmaDescriptor {
            transform: TransformOp::Slice {
                spec: vec![SliceSpec::range(1, 3)],
            },
            ..DmaDescriptor::copy(DmaPath::new(MemLevel::L2, MemLevel::L1), 8)
        };
        let (sliced, _) = e.move_tensor(&d, &t).unwrap();
        assert_eq!(sliced.data(), &[2.0, 3.0]);
    }

    #[test]
    fn move_tensor_sparse_counts_compressed_wire() {
        let mut e = engine20();
        let mut data = vec![0.0f32; 128];
        data[5] = 1.0;
        let t = Tensor::from_vec(data);
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 512);
        d.sparse = SparseFormat::BitmapBlock;
        let (out, wire) = e.move_tensor(&d, &t).unwrap();
        assert_eq!(out.len(), 128);
        assert_eq!(wire, 2 * 8 + 4); // two bitmaps + one value
        assert!(wire < 512);
    }

    #[test]
    fn move_tensor_bad_transform_errors() {
        let mut e = engine20();
        let t = Tensor::from_vec(vec![1.0; 4]);
        let d = DmaDescriptor {
            transform: TransformOp::Slice {
                spec: vec![SliceSpec::range(0, 9)],
            },
            ..DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 16)
        };
        assert!(matches!(e.move_tensor(&d, &t), Err(DmaError::Transform(_))));
    }

    #[test]
    fn counters_accumulate() {
        let mut e = engine20();
        let d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 100);
        e.execute(&d, 1).unwrap();
        e.execute(&d, 1).unwrap();
        assert_eq!(e.transfers(), 2);
        assert_eq!(e.total_wire_bytes(), 200);
        assert!(e.total_busy_ns() > 0.0);
        assert!(e.total_config_ns() > 0.0);
    }
}

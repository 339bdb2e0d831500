//! Functional + transaction-level timing simulator of the Enflame DTU 2.0
//! SoC (and its predecessor DTU 1.0, for the Fig. 12/14 comparisons).
//!
//! The simulator has two coupled layers:
//!
//! * a **functional layer** that really computes — the matrix engine's
//!   vector-matrix multiply and its Fig. 4 sorting facility, the SPU's
//!   LUT-plus-Taylor transcendentals, the vector engine, and a VLIW
//!   interpreter for small kernels;
//! * a **timing/energy layer** that advances a clock at *transaction*
//!   granularity — kernel launches, DMA bursts, synchronisation — and
//!   models L2 port contention, HBM bandwidth sharing, DMA configuration
//!   overheads (with the repeat mode of Fig. 6), instruction-cache misses,
//!   and the CPME/LPME power loops from `dtu-power`.
//!
//! The unit of execution is a [`Program`]: per-processing-group command
//! streams produced by `dtu-compiler`. [`Chip::run`] executes a program
//! and returns a [`RunReport`] with latency, energy, and counters.
//!
//! # Example
//!
//! ```
//! use dtu_sim::{Chip, ChipConfig};
//!
//! let chip = Chip::new(ChipConfig::dtu20());
//! assert_eq!(chip.config().total_cores(), 24);
//! assert_eq!(chip.config().groups_per_cluster, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod config;
mod dma;
mod icache;
mod interp;
mod matrix_engine;
mod memory;
mod program;
mod program_io;
mod report;
mod spu;
mod sync;
mod vector_engine;

pub use chip::{Chip, SimError};
pub use config::{ChipConfig, FeatureSet};
pub use dma::{DmaDescriptor, DmaEngine, DmaError, DmaPath, MemLevel};
pub use icache::{FetchOutcome, InstructionCache};
pub use interp::{InterpError, InterpReport, Interpreter};
pub use matrix_engine::{MatrixEngine, MatrixEngineError, SortArtifacts};
pub use memory::{MemoryError, MemoryHierarchy, MemoryPool};
pub use program::{Command, GroupId, Program, Stream};
pub use program_io::{program_from_json, program_to_json, ProgramIoError};
pub use report::{EngineCounters, RunReport};
pub use spu::{Spu, SpuError};
pub use sync::{SyncEngine, SyncError, SyncPattern};
pub use vector_engine::{VectorEngine, VECTOR_LANES_FP32};

//! The benchmark's typed errors.

use std::fmt;

/// Everything that can stop a benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// A workload name that is not one of the six.
    UnknownWorkload(String),
    /// Too few timed iterations to report a percentile: `needed` leaves
    /// ten samples beyond it.
    TooFewIterations {
        /// Iterations the percentile needs.
        needed: usize,
        /// Iterations measured.
        got: usize,
    },
    /// A malformed command line.
    Usage(String),
    /// `/proc` could not be read or parsed.
    Proc(String),
    /// A file in the work directory could not be read or written.
    Io(String),
    /// The simulator returned an error.
    Run(String),
    /// A child benchmark process failed or printed no result.
    Child(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::UnknownWorkload(name) => write!(f, "unknown workload `{name}`"),
            BenchError::TooFewIterations { needed, got } => write!(
                f,
                "{got} timed iterations, but the percentile needs at least {needed}"
            ),
            BenchError::Usage(msg) => write!(f, "usage: {msg}"),
            BenchError::Proc(msg) => write!(f, "/proc: {msg}"),
            BenchError::Io(msg) => write!(f, "io: {msg}"),
            BenchError::Run(msg) => write!(f, "simulator: {msg}"),
            BenchError::Child(msg) => write!(f, "child run: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// Wraps any simulator-side error as [`BenchError::Run`].
pub fn run_err(e: impl fmt::Display) -> BenchError {
    BenchError::Run(e.to_string())
}

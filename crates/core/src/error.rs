//! The facade's unified error type.

use dtu_compiler::CompileError;
use dtu_graph::GraphError;
use dtu_sim::SimError;
use std::error::Error;
use std::fmt;

/// Any failure from building, compiling, or running a model.
#[derive(Debug, Clone, PartialEq)]
pub enum DtuError {
    /// Graph construction or analysis failed.
    Graph(GraphError),
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed.
    Sim(SimError),
}

impl fmt::Display for DtuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtuError::Graph(e) => write!(f, "graph error: {e}"),
            DtuError::Compile(e) => write!(f, "compile error: {e}"),
            DtuError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl Error for DtuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DtuError::Graph(e) => Some(e),
            DtuError::Compile(e) => Some(e),
            DtuError::Sim(e) => Some(e),
        }
    }
}

impl From<GraphError> for DtuError {
    fn from(e: GraphError) -> Self {
        DtuError::Graph(e)
    }
}

impl From<CompileError> for DtuError {
    fn from(e: CompileError) -> Self {
        DtuError::Compile(e)
    }
}

impl From<SimError> for DtuError {
    fn from(e: SimError) -> Self {
        DtuError::Sim(e)
    }
}

impl From<dtu_serve::ServeError> for DtuError {
    fn from(e: dtu_serve::ServeError) -> Self {
        match e {
            dtu_serve::ServeError::Compile(e) => DtuError::Compile(e),
            dtu_serve::ServeError::Sim(e) => DtuError::Sim(e),
            dtu_serve::ServeError::Outage(o) => DtuError::Sim(SimError::Fault(o.fault)),
            dtu_serve::ServeError::Config(msg) => DtuError::Sim(SimError::InvalidConfig(msg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: DtuError = GraphError::NoOutputs.into();
        assert!(e.to_string().contains("graph error"));
        assert!(e.source().is_some());
        let e: DtuError = SimError::InvalidConfig("x".into()).into();
        assert!(e.to_string().contains("simulation"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DtuError>();
    }
}

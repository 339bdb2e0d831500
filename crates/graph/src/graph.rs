//! The computation graph: nodes, edges, validation, and traversal.

use crate::op::{Op, TensorType};
use crate::shape_infer::infer_node_shape;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Identity of a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A graph node: an operator applied to the outputs of other nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node's id.
    pub id: NodeId,
    /// Optional human-readable name.
    pub name: String,
    /// The operator.
    pub op: Op,
    /// Producer nodes, in operand order.
    pub inputs: Vec<NodeId>,
}

/// Errors from graph construction and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An input reference points at a node that does not exist (or a
    /// later node — construction is append-only, so ids must precede).
    DanglingInput {
        /// The node being added.
        node: String,
        /// The missing input.
        input: NodeId,
    },
    /// The operator got the wrong number of inputs.
    ArityMismatch {
        /// The operator's mnemonic.
        op: String,
        /// Expected input count.
        expected: usize,
        /// Actual input count.
        actual: usize,
    },
    /// Shape inference failed.
    ShapeInference {
        /// Why.
        reason: String,
    },
    /// The graph has no outputs marked.
    NoOutputs,
    /// An id passed to an accessor does not exist.
    UnknownNode {
        /// The missing id.
        id: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingInput { node, input } => {
                write!(f, "node {node} references missing input {input}")
            }
            GraphError::ArityMismatch {
                op,
                expected,
                actual,
            } => write!(f, "{op} expects {expected} inputs, got {actual}"),
            GraphError::ShapeInference { reason } => write!(f, "shape inference: {reason}"),
            GraphError::NoOutputs => write!(f, "graph has no outputs"),
            GraphError::UnknownNode { id } => write!(f, "unknown node {id}"),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
thread_local! {
    /// Calls to [`Graph::infer_shapes`] on this thread, so tests can pin
    /// how often a pass re-infers shapes.
    pub(crate) static INFER_SHAPES_CALLS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// A DNN computation graph.
///
/// Construction is append-only (a node may only consume earlier nodes),
/// which keeps the graph acyclic by construction and makes node order a
/// valid topological order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Graph {
    /// Model name.
    pub name: String,
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Adds an input placeholder and returns its id.
    pub fn input(&mut self, name: impl Into<String>, ty: TensorType) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            name: name.into(),
            op: Op::Input { ty },
            inputs: Vec::new(),
        });
        id
    }

    /// Adds a node and returns its id.
    ///
    /// # Errors
    ///
    /// [`GraphError::DanglingInput`] for references to nodes not yet
    /// added; [`GraphError::ArityMismatch`] for wrong operand counts.
    pub fn add_node(&mut self, op: Op, inputs: Vec<NodeId>) -> Result<NodeId, GraphError> {
        let id = NodeId(self.nodes.len());
        let name = format!("{}_{}", op.mnemonic(), id.0);
        for &i in &inputs {
            if i.0 >= self.nodes.len() {
                return Err(GraphError::DanglingInput {
                    node: name,
                    input: i,
                });
            }
        }
        if let Some(expected) = op.arity() {
            if inputs.len() != expected {
                return Err(GraphError::ArityMismatch {
                    op: op.mnemonic(),
                    expected,
                    actual: inputs.len(),
                });
            }
        } else if inputs.is_empty() {
            return Err(GraphError::ArityMismatch {
                op: op.mnemonic(),
                expected: 1,
                actual: 0,
            });
        }
        self.nodes.push(Node {
            id,
            name,
            op,
            inputs,
        });
        Ok(id)
    }

    /// Adds a named node.
    ///
    /// # Errors
    ///
    /// As for [`Graph::add_node`].
    pub fn add_named_node(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: Vec<NodeId>,
    ) -> Result<NodeId, GraphError> {
        let id = self.add_node(op, inputs)?;
        self.nodes[id.0].name = name.into();
        Ok(id)
    }

    /// Marks a node as a graph output.
    pub fn mark_output(&mut self, id: NodeId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// The graph's nodes in topological (construction) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownNode`].
    pub fn node(&self, id: NodeId) -> Result<&Node, GraphError> {
        self.nodes.get(id.0).ok_or(GraphError::UnknownNode { id })
    }

    /// The marked outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Consumers of each node (adjacency reversed).
    pub fn consumers(&self) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut out: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for n in &self.nodes {
            for &i in &n.inputs {
                out.entry(i).or_default().push(n.id);
            }
        }
        out
    }

    /// Runs shape inference over the whole graph.
    ///
    /// # Errors
    ///
    /// [`GraphError::NoOutputs`] on output-less graphs and shape-inference
    /// failures from any node.
    pub fn infer_shapes(&self) -> Result<BTreeMap<NodeId, TensorType>, GraphError> {
        #[cfg(test)]
        INFER_SHAPES_CALLS.with(|calls| calls.set(calls.get() + 1));
        if self.outputs.is_empty() {
            return Err(GraphError::NoOutputs);
        }
        let mut types: BTreeMap<NodeId, TensorType> = BTreeMap::new();
        for n in &self.nodes {
            let input_types: Vec<&TensorType> = n
                .inputs
                .iter()
                .map(|i| types.get(i).expect("topological order"))
                .collect();
            let ty = infer_node_shape(&n.op, &input_types).map_err(|e| match e {
                GraphError::ShapeInference { reason } => GraphError::ShapeInference {
                    reason: format!("{} ({}): {reason}", n.name, n.op),
                },
                other => other,
            })?;
            types.insert(n.id, ty);
        }
        Ok(types)
    }

    /// Binds a dynamic dimension across all input placeholders, returning
    /// a new graph (used to instantiate a dynamic-batch model at a
    /// concrete batch size).
    pub fn bind(&self, name: &str, value: usize) -> Graph {
        let mut g = self.clone();
        for n in &mut g.nodes {
            if let Op::Input { ty } = &mut n.op {
                *ty = ty.bind(name, value);
            }
        }
        g
    }

    /// Returns the graph re-typed to run in `dtype` — the deployment-time
    /// precision selection of Table II's "diverse data types" row (e.g.
    /// INT8 quantised inference at 256 TOPS on the i20). Element types
    /// propagate from the inputs through shape inference.
    pub fn with_dtype(&self, dtype: dtu_isa::DataType) -> Graph {
        let mut g = self.clone();
        for n in &mut g.nodes {
            if let Op::Input { ty } = &mut n.op {
                ty.dtype = dtype;
            }
        }
        g
    }

    /// Counts nodes whose op satisfies a predicate.
    pub fn count_ops(&self, pred: impl Fn(&Op) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.op)).count()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} nodes)", self.name, self.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryKind, Dim};
    use dtu_isa::SfuFunc;

    fn residual_block() -> (Graph, NodeId) {
        let mut g = Graph::new("res");
        let x = g.input("x", TensorType::fixed(&[1, 64, 56, 56]));
        let c1 = g.add_node(Op::conv2d(64, 3, 1, 1), vec![x]).unwrap();
        let r1 = g.add_node(Op::Relu, vec![c1]).unwrap();
        let c2 = g.add_node(Op::conv2d(64, 3, 1, 1), vec![r1]).unwrap();
        let add = g
            .add_node(
                Op::Binary {
                    kind: BinaryKind::Add,
                },
                vec![c2, x],
            )
            .unwrap();
        let out = g.add_node(Op::Relu, vec![add]).unwrap();
        g.mark_output(out);
        (g, out)
    }

    #[test]
    fn build_and_infer_residual_block() {
        let (g, out) = residual_block();
        assert_eq!(g.len(), 6);
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[&out], TensorType::fixed(&[1, 64, 56, 56]));
    }

    #[test]
    fn dangling_input_rejected() {
        let mut g = Graph::new("bad");
        let err = g.add_node(Op::Relu, vec![NodeId(5)]).unwrap_err();
        assert!(matches!(err, GraphError::DanglingInput { .. }));
    }

    #[test]
    fn arity_checked() {
        let mut g = Graph::new("bad");
        let x = g.input("x", TensorType::fixed(&[1, 2]));
        assert!(matches!(
            g.add_node(
                Op::Binary {
                    kind: BinaryKind::Add
                },
                vec![x]
            ),
            Err(GraphError::ArityMismatch { .. })
        ));
        assert!(matches!(
            g.add_node(Op::Concat { axis: 0 }, vec![]),
            Err(GraphError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn no_outputs_detected() {
        let mut g = Graph::new("noout");
        g.input("x", TensorType::fixed(&[1]));
        assert_eq!(g.infer_shapes().unwrap_err(), GraphError::NoOutputs);
    }

    #[test]
    fn shape_error_carries_node_name() {
        let mut g = Graph::new("bad");
        let x = g.input("x", TensorType::fixed(&[1, 3])); // rank 2, conv needs 4
        let c = g.add_node(Op::conv2d(8, 3, 1, 1), vec![x]).unwrap();
        g.mark_output(c);
        match g.infer_shapes().unwrap_err() {
            GraphError::ShapeInference { reason } => {
                assert!(reason.contains("conv3x3"), "reason: {reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn consumers_map() {
        let (g, _) = residual_block();
        let cons = g.consumers();
        // Input x feeds conv1 and the residual add.
        assert_eq!(cons[&NodeId(0)].len(), 2);
    }

    #[test]
    fn dynamic_bind_instantiates_batch() {
        let mut g = Graph::new("dyn");
        let x = g.input(
            "x",
            TensorType {
                dtype: dtu_isa::DataType::Fp16,
                dims: vec![Dim::Dynamic("batch".into()), Dim::Fixed(128)],
            },
        );
        let d = g.add_node(Op::Dense { units: 10 }, vec![x]).unwrap();
        let s = g
            .add_node(
                Op::Activation {
                    func: SfuFunc::Sigmoid,
                },
                vec![d],
            )
            .unwrap();
        g.mark_output(s);
        // Unbound: output batch dynamic.
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[&s].dims[0], Dim::Dynamic("batch".into()));
        // Bound: fully fixed.
        let g8 = g.bind("batch", 8);
        let shapes = g8.infer_shapes().unwrap();
        assert_eq!(shapes[&s].dims[0], Dim::Fixed(8));
        assert!(shapes[&s].is_fully_fixed());
    }

    #[test]
    fn count_ops_predicate() {
        let (g, _) = residual_block();
        assert_eq!(g.count_ops(|op| op.is_compute_anchor()), 2);
        assert_eq!(g.count_ops(|op| matches!(op, Op::Relu)), 2);
    }

    #[test]
    fn named_nodes_and_display() {
        let mut g = Graph::new("m");
        let x = g.input("x", TensorType::fixed(&[1, 4]));
        let n = g
            .add_named_node("classifier", Op::Dense { units: 2 }, vec![x])
            .unwrap();
        assert_eq!(g.node(n).unwrap().name, "classifier");
        assert!(g.node(NodeId(99)).is_err());
        assert_eq!(g.to_string(), "m (2 nodes)");
        assert!(!g.is_empty());
    }

    #[test]
    fn mark_output_dedupes() {
        let (mut g, out) = residual_block();
        g.mark_output(out);
        g.mark_output(out);
        assert_eq!(g.outputs().len(), 1);
    }
}

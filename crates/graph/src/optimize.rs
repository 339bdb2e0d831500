//! Graph-level optimisation passes.
//!
//! Alongside operator fusion, the graph compilers the paper cites
//! (TASO, Rammer, Glow, DNNFusion — §V-B's references) run structural
//! rewrites before lowering. This module implements the classic trio
//! the TopsInference layer needs:
//!
//! * **dead-code elimination** — drop nodes that cannot reach an output;
//! * **identity elimination** — remove no-op layout operators
//!   (identity transposes, reshapes to the same shape, inverse
//!   transpose pairs, single-input concats);
//! * **common-subexpression elimination** — merge structurally
//!   identical nodes with identical inputs.
//!
//! [`optimize`] runs the passes to a fixed point and reports what it
//! removed.
//!
//! Each fixed-point iteration scans one graph and decides every rewrite
//! before it changes anything: nothing is mutated until `rebuild` builds
//! the next graph. So one shape map serves the whole iteration. It is
//! inferred at most once, on the first Reshape that needs it, so an
//! iteration costs one shape inference rather than one per Reshape.

use crate::graph::{Graph, GraphError, NodeId};
use crate::op::{Op, TensorType};
use std::collections::{BTreeMap, BTreeSet};

/// What one [`optimize`] run eliminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizeStats {
    /// Nodes removed because no output depends on them.
    pub dead_nodes: usize,
    /// No-op layout operators removed.
    pub identity_ops: usize,
    /// Nodes merged into an identical twin.
    pub cse_merged: usize,
    /// Fixed-point iterations taken.
    pub iterations: usize,
}

impl OptimizeStats {
    /// Total nodes eliminated.
    pub fn total(&self) -> usize {
        self.dead_nodes + self.identity_ops + self.cse_merged
    }
}

/// Structural key for CSE: the op's debug form plus its input ids.
fn cse_key(op: &Op, inputs: &[NodeId]) -> String {
    format!("{op:?}|{inputs:?}")
}

/// Whether an op may be CSE-merged: only ops without learned parameters.
/// Two structurally identical convs carry *different weights* in a real
/// network (this IR does not represent weight values), so merging them
/// would change the model.
fn cse_eligible(op: &Op) -> bool {
    !matches!(
        op,
        Op::Conv2d { .. }
            | Op::ConvTranspose2d { .. }
            | Op::Dense { .. }
            | Op::Embedding { .. }
            | Op::BatchNorm
            | Op::LayerNorm
    )
}

/// Whether a node is a no-op given its input/output types, returning the
/// input it forwards.
///
/// `shapes` is the iteration's shape map of `graph`: inferred on the
/// first Reshape that asks for it, then reused, so a graph without a
/// Reshape never runs shape inference.
fn identity_forward(
    graph: &Graph,
    id: NodeId,
    shapes: &mut Option<BTreeMap<NodeId, TensorType>>,
) -> Result<Option<NodeId>, GraphError> {
    let node = graph.node(id)?;
    let forwarded = match &node.op {
        Op::Transpose { perm } => {
            if perm.iter().enumerate().all(|(i, &p)| i == p) {
                Some(node.inputs[0])
            } else {
                // Transpose of a transpose with the inverse permutation.
                let prev = graph.node(node.inputs[0])?;
                if let Op::Transpose { perm: prev_perm } = &prev.op {
                    let composes_to_identity = perm.len() == prev_perm.len()
                        && perm.iter().enumerate().all(|(i, &p)| prev_perm[p] == i);
                    if composes_to_identity {
                        Some(prev.inputs[0])
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
        }
        Op::Reshape { dims } => {
            // Reshape to the producer's own (fully fixed) shape.
            let shapes = match shapes {
                Some(shapes) => shapes,
                None => shapes.insert(graph.infer_shapes()?),
            };
            let src = &shapes[&node.inputs[0]];
            if src.is_fully_fixed() && src.dims == *dims {
                Some(node.inputs[0])
            } else {
                None
            }
        }
        Op::Concat { .. } if node.inputs.len() == 1 => Some(node.inputs[0]),
        Op::Upsample { scale: 1 } => Some(node.inputs[0]),
        _ => None,
    };
    Ok(forwarded)
}

/// Rebuilds a graph keeping only `keep`, rewiring inputs through
/// `replace` (old id -> forwarded id, resolved transitively).
fn rebuild(
    graph: &Graph,
    keep: &BTreeSet<NodeId>,
    replace: &BTreeMap<NodeId, NodeId>,
) -> Result<Graph, GraphError> {
    let resolve = |mut id: NodeId| {
        let mut hops = 0;
        while let Some(&next) = replace.get(&id) {
            id = next;
            hops += 1;
            assert!(hops <= graph.len(), "replacement cycle");
        }
        id
    };
    let mut out = Graph::new(graph.name.clone());
    let mut remap: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for node in graph.nodes() {
        if !keep.contains(&node.id) {
            continue;
        }
        let inputs: Vec<NodeId> = node.inputs.iter().map(|&i| remap[&resolve(i)]).collect();
        let new_id = match &node.op {
            Op::Input { ty } => out.input(node.name.clone(), ty.clone()),
            op => out.add_named_node(node.name.clone(), op.clone(), inputs)?,
        };
        remap.insert(node.id, new_id);
    }
    for &o in graph.outputs() {
        out.mark_output(remap[&resolve(o)]);
    }
    Ok(out)
}

/// Runs DCE + identity elimination + CSE to a fixed point.
///
/// Graph outputs are never eliminated or merged away; inputs survive
/// even when unused (they are the model's signature).
///
/// # Errors
///
/// Propagates [`GraphError::NoOutputs`] and shape-inference failures
/// (identity detection for reshapes needs fixed shapes; dynamic graphs
/// still get DCE and CSE).
pub fn optimize(graph: &Graph) -> Result<(Graph, OptimizeStats), GraphError> {
    if graph.outputs().is_empty() {
        return Err(GraphError::NoOutputs);
    }
    let mut current = graph.clone();
    let mut stats = OptimizeStats::default();
    loop {
        stats.iterations += 1;

        // --- identity elimination ---
        let mut replace: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut shapes = None;
        for node in current.nodes() {
            if current.outputs().contains(&node.id) {
                continue; // outputs keep their identity
            }
            if let Some(fwd) = identity_forward(&current, node.id, &mut shapes)? {
                replace.insert(node.id, fwd);
            }
        }
        stats.identity_ops += replace.len();

        // --- CSE ---
        let mut seen: BTreeMap<String, NodeId> = BTreeMap::new();
        for node in current.nodes() {
            if matches!(node.op, Op::Input { .. })
                || replace.contains_key(&node.id)
                || !cse_eligible(&node.op)
            {
                continue;
            }
            // Keys use post-replacement inputs so chains collapse together.
            let inputs: Vec<NodeId> = node
                .inputs
                .iter()
                .map(|&i| *replace.get(&i).unwrap_or(&i))
                .collect();
            let key = cse_key(&node.op, &inputs);
            match seen.get(&key) {
                Some(&twin) if !current.outputs().contains(&node.id) => {
                    replace.insert(node.id, twin);
                    stats.cse_merged += 1;
                }
                Some(_) => {}
                None => {
                    seen.insert(key, node.id);
                }
            }
        }

        // --- DCE: keep what outputs (after replacement) reach ---
        let resolve = |mut id: NodeId| {
            while let Some(&n) = replace.get(&id) {
                id = n;
            }
            id
        };
        let mut keep: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack: Vec<NodeId> = current.outputs().iter().map(|&o| resolve(o)).collect();
        while let Some(id) = stack.pop() {
            if !keep.insert(id) {
                continue;
            }
            for &i in &current.node(id)?.inputs {
                stack.push(resolve(i));
            }
        }
        // Inputs always survive (model signature).
        for node in current.nodes() {
            if matches!(node.op, Op::Input { .. }) {
                keep.insert(node.id);
            }
        }
        let removed_dead = current
            .nodes()
            .iter()
            .filter(|n| !keep.contains(&n.id) && !replace.contains_key(&n.id))
            .count();
        stats.dead_nodes += removed_dead;

        // Nothing removed: `current` is the fixed point, and a rebuild
        // would only copy it.
        if replace.is_empty() && removed_dead == 0 {
            break;
        }
        current = rebuild(&current, &keep, &replace)?;
    }
    Ok((current, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryKind, TensorType};

    fn base() -> (Graph, NodeId) {
        let mut g = Graph::new("opt");
        let x = g.input("x", TensorType::fixed(&[1, 4, 8, 8]));
        (g, x)
    }

    #[test]
    fn dead_code_removed() {
        let (mut g, x) = base();
        let live = g.add_node(Op::Relu, vec![x]).unwrap();
        let dead = g.add_node(Op::conv2d(8, 3, 1, 1), vec![x]).unwrap();
        let _deader = g.add_node(Op::Relu, vec![dead]).unwrap();
        g.mark_output(live);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(opt.len(), 2); // input + relu
        assert_eq!(stats.dead_nodes, 2);
        opt.infer_shapes().unwrap();
    }

    #[test]
    fn identity_transpose_removed() {
        let (mut g, x) = base();
        let t = g
            .add_node(
                Op::Transpose {
                    perm: vec![0, 1, 2, 3],
                },
                vec![x],
            )
            .unwrap();
        let r = g.add_node(Op::Relu, vec![t]).unwrap();
        g.mark_output(r);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.identity_ops, 1);
        assert_eq!(opt.len(), 2);
        assert_eq!(opt.nodes()[1].inputs, vec![opt.nodes()[0].id]);
    }

    #[test]
    fn inverse_transpose_pair_cancelled() {
        let (mut g, x) = base();
        let t1 = g
            .add_node(
                Op::Transpose {
                    perm: vec![0, 2, 3, 1],
                },
                vec![x],
            )
            .unwrap();
        let t2 = g
            .add_node(
                Op::Transpose {
                    perm: vec![0, 3, 1, 2],
                },
                vec![t1],
            )
            .unwrap();
        let r = g.add_node(Op::Relu, vec![t2]).unwrap();
        g.mark_output(r);
        let (opt, stats) = optimize(&g).unwrap();
        // t2 forwards to x; t1 becomes dead.
        assert!(stats.identity_ops >= 1);
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Transpose { .. })), 0);
        let shapes = opt.infer_shapes().unwrap();
        assert_eq!(shapes[opt.outputs().last().unwrap()].dims.len(), 4);
    }

    #[test]
    fn noop_reshape_removed_but_real_reshape_kept() {
        let (mut g, x) = base();
        use crate::op::Dim;
        let same = g
            .add_node(
                Op::Reshape {
                    dims: vec![Dim::Fixed(1), Dim::Fixed(4), Dim::Fixed(8), Dim::Fixed(8)],
                },
                vec![x],
            )
            .unwrap();
        let real = g
            .add_node(
                Op::Reshape {
                    dims: vec![Dim::Fixed(1), Dim::Fixed(256)],
                },
                vec![same],
            )
            .unwrap();
        g.mark_output(real);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.identity_ops, 1);
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Reshape { .. })), 1);
    }

    #[test]
    fn cse_merges_identical_weightless_ops_only() {
        let (mut g, x) = base();
        // Two identical ReLUs merge; two identical convs must NOT (they
        // carry different weights in a real network).
        let r1 = g.add_node(Op::Relu, vec![x]).unwrap();
        let r2 = g.add_node(Op::Relu, vec![x]).unwrap();
        let c1 = g.add_node(Op::conv2d(4, 3, 1, 1), vec![r1]).unwrap();
        let c2 = g.add_node(Op::conv2d(4, 3, 1, 1), vec![r2]).unwrap();
        let s = g
            .add_node(
                Op::Binary {
                    kind: BinaryKind::Add,
                },
                vec![c1, c2],
            )
            .unwrap();
        g.mark_output(s);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.cse_merged, 1); // only the relu twins
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Conv2d { .. })), 2);
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Relu)), 1);
        // Both convs now read the surviving relu.
        let convs: Vec<_> = opt
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d { .. }))
            .collect();
        assert_eq!(convs[0].inputs, convs[1].inputs);
    }

    #[test]
    fn outputs_never_eliminated() {
        let (mut g, x) = base();
        let t = g
            .add_node(
                Op::Transpose {
                    perm: vec![0, 1, 2, 3],
                },
                vec![x],
            )
            .unwrap();
        g.mark_output(t); // the identity IS the output
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.identity_ops, 0);
        assert_eq!(opt.outputs().len(), 1);
        assert!(matches!(
            opt.node(opt.outputs()[0]).unwrap().op,
            Op::Transpose { .. }
        ));
    }

    #[test]
    fn chains_collapse_to_fixed_point() {
        let (mut g, x) = base();
        // Four stacked identity transposes before a relu.
        let mut cur = x;
        for _ in 0..4 {
            cur = g
                .add_node(
                    Op::Transpose {
                        perm: vec![0, 1, 2, 3],
                    },
                    vec![cur],
                )
                .unwrap();
        }
        let r = g.add_node(Op::Relu, vec![cur]).unwrap();
        g.mark_output(r);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(opt.len(), 2);
        assert!(stats.iterations >= 1);
        assert_eq!(stats.total(), 4);
    }

    #[test]
    fn benchmark_models_survive_optimization() {
        // The suite's graphs are already lean; the passes must at least
        // preserve shapes and never grow the graph.
        use crate::fusion::{fuse, FusionConfig};
        let mut g = Graph::new("mini-res");
        let x = g.input("x", TensorType::fixed(&[1, 8, 16, 16]));
        let c1 = g.add_node(Op::conv2d(8, 3, 1, 1), vec![x]).unwrap();
        let b = g.add_node(Op::BatchNorm, vec![c1]).unwrap();
        let r = g.add_node(Op::Relu, vec![b]).unwrap();
        let a = g
            .add_node(
                Op::Binary {
                    kind: BinaryKind::Add,
                },
                vec![r, x],
            )
            .unwrap();
        g.mark_output(a);
        let (opt, _) = optimize(&g).unwrap();
        assert!(opt.len() <= g.len());
        let s1 = g.infer_shapes().unwrap();
        let s2 = opt.infer_shapes().unwrap();
        assert_eq!(
            s1[g.outputs().last().unwrap()],
            s2[opt.outputs().last().unwrap()]
        );
        // Still fusable afterwards.
        fuse(&opt, &FusionConfig::default()).unwrap();
    }

    /// `infer_shapes` calls made on this thread so far.
    fn infer_shapes_calls() -> usize {
        crate::graph::INFER_SHAPES_CALLS.with(std::cell::Cell::get)
    }

    #[test]
    fn reshape_chain_infers_shapes_at_most_once_per_iteration() {
        use crate::op::Dim;
        let (mut g, x) = base();
        let fixed = |dims: &[usize]| Op::Reshape {
            dims: dims.iter().map(|&d| Dim::Fixed(d)).collect(),
        };
        // 64 Reshapes: every real one is followed by a no-op repeat of it.
        let mut cur = x;
        for i in 0..64 {
            let op = if i % 4 < 2 {
                fixed(&[1, 256])
            } else {
                fixed(&[1, 4, 64])
            };
            cur = g.add_node(op, vec![cur]).unwrap();
        }
        let r = g.add_node(Op::Relu, vec![cur]).unwrap();
        g.mark_output(r);

        let calls = infer_shapes_calls();
        let (opt, stats) = optimize(&g).unwrap();
        let calls = infer_shapes_calls() - calls;
        assert_eq!(stats.identity_ops, 32);
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Reshape { .. })), 32);
        assert!(
            calls <= stats.iterations,
            "{calls} infer_shapes calls over {} iterations",
            stats.iterations
        );
    }

    #[test]
    fn graph_without_reshape_never_infers_shapes() {
        // A conv on a rank-2 input cannot infer, but DCE and identity
        // elimination need no shapes without a Reshape.
        let mut g = Graph::new("no-reshape");
        let x = g.input("x", TensorType::fixed(&[1, 3]));
        let c = g.add_node(Op::conv2d(8, 3, 1, 1), vec![x]).unwrap();
        let t = g.add_node(Op::Upsample { scale: 1 }, vec![c]).unwrap();
        let _dead = g.add_node(Op::Relu, vec![c]).unwrap();
        let r = g.add_node(Op::Relu, vec![t]).unwrap();
        g.mark_output(r);
        assert!(g.infer_shapes().is_err());

        let calls = infer_shapes_calls();
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(infer_shapes_calls() - calls, 0);
        assert_eq!((stats.identity_ops, stats.dead_nodes), (1, 1));
        assert_eq!(opt.len(), 3);
    }

    #[test]
    fn single_input_concat_and_upsample1_removed() {
        let (mut g, x) = base();
        let c = g.add_node(Op::Concat { axis: 1 }, vec![x]).unwrap();
        let u = g.add_node(Op::Upsample { scale: 1 }, vec![c]).unwrap();
        let r = g.add_node(Op::Relu, vec![u]).unwrap();
        g.mark_output(r);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.identity_ops, 2);
        assert_eq!(opt.len(), 2);
    }
}

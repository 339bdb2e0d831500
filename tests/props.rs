//! Property-based tests over core data structures and invariants.

use dtu_isa::DataType;
use dtu_sim::MatrixEngine;
use dtu_tensor::{
    compress, decompress, pad, slice, PadSpec, Permutation, Shape, SliceSpec, Tensor,
};
use proptest::prelude::*;

proptest! {
    /// The sparse wire codec is lossless for arbitrary finite data.
    #[test]
    fn sparse_codec_roundtrip(data in prop::collection::vec(-1e6f32..1e6, 0..500)) {
        // Inject extra exact zeros so both paths get exercised.
        let data: Vec<f32> = data
            .into_iter()
            .enumerate()
            .map(|(i, v)| if i % 3 == 0 { 0.0 } else { v })
            .collect();
        let blocks = compress(&data);
        let back = decompress(&blocks).expect("own output must decode");
        prop_assert_eq!(back, data);
    }

    /// VMM agrees with the reference matmul for every FP32 catalog shape.
    #[test]
    fn vmm_matches_reference(
        rows in prop::sample::select(vec![4usize, 8, 16]),
        seed in 0u64..1_000_000,
    ) {
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as i32 % 1000) as f32 / 250.0 - 2.0
        };
        let v = Tensor::from_fn(Shape::new(vec![rows]), |_| next());
        let m = Tensor::from_fn(Shape::new(vec![rows, 16]), |_| next());
        let acc = Tensor::zeros(Shape::new(vec![16]));
        let mut eng = MatrixEngine::default();
        let got = eng.vmm(&v, &m, &acc, DataType::Fp32).expect("catalog shape");
        let want = v
            .reshape(Shape::new(vec![1, rows]))
            .expect("same length")
            .matmul(&m)
            .expect("valid")
            .reshape(Shape::new(vec![16]))
            .expect("same length");
        let err = got.max_abs_diff(&want).expect("same shape");
        prop_assert!(err < 1e-3, "err {}", err);
    }

    /// The sorting facility equals a stable host sort for any input.
    #[test]
    fn sort_facility_equals_std(data in prop::collection::vec(-1e4f32..1e4, 1..=32)) {
        let input = Tensor::from_vec(data.clone());
        let mut eng = MatrixEngine::default();
        let art = eng.sort(&input).expect("fits engine");
        let mut want = data;
        want.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        prop_assert_eq!(art.sorted.data(), want.as_slice());
    }

    /// Permutations: inverse composes to identity and apply/inverse-apply
    /// round-trips values.
    #[test]
    fn permutation_laws(perm in prop::sample::subsequence((0..6usize).collect::<Vec<_>>(), 0..=6)) {
        // Build a permutation by rotating the chosen subsequence through
        // the identity.
        let n = 6usize;
        let mut p: Vec<usize> = (0..n).collect();
        for (i, &j) in perm.iter().enumerate() {
            p.swap(i, j);
        }
        let perm = Permutation::new(p).expect("constructed as a bijection");
        let inv = perm.inverse();
        prop_assert!(perm.compose(&inv).expect("same rank").is_identity());
        prop_assert!(inv.compose(&perm).expect("same rank").is_identity());
        let values: Vec<usize> = (100..100 + n).collect();
        let there = perm.apply(&values).expect("same rank");
        let back = inv.apply(&there).expect("same rank");
        prop_assert_eq!(back, values);
    }

    /// pad then slice recovers the original tensor for any symmetric pad.
    #[test]
    fn pad_slice_roundtrip(
        h in 1usize..8,
        w in 1usize..8,
        ph in 0usize..4,
        pw in 0usize..4,
        fill in -10f32..10.0,
    ) {
        let t = Tensor::from_fn(Shape::new(vec![h, w]), |i| (i[0] * w + i[1]) as f32);
        let padded = pad(
            &t,
            &[PadSpec::symmetric(ph), PadSpec::symmetric(pw)],
            fill,
        ).expect("spec matches rank");
        let back = slice(
            &padded,
            &[
                SliceSpec::range(ph, ph + h),
                SliceSpec::range(pw, pw + w),
            ],
        ).expect("within bounds");
        prop_assert_eq!(back, t);
    }

    /// Quantisation is idempotent and respects per-format error bounds.
    #[test]
    fn quantize_idempotent_and_bounded(v in -6e4f32..6e4) {
        for dt in [DataType::Tf32, DataType::Fp16, DataType::Bf16] {
            let q = dt.quantize(v);
            prop_assert_eq!(dt.quantize(q), q, "{} not idempotent", dt);
            if v != 0.0 && v.abs() < 6e4 {
                let eps = dt.relative_epsilon().expect("float format");
                let rel = ((q - v) / v).abs() as f64;
                prop_assert!(rel <= eps * 1.001, "{}: rel {} > {}", dt, rel, eps);
            }
        }
    }

    /// The GEMM tiler handles arbitrary shapes against the host matmul.
    #[test]
    fn gemm_any_shape_matches(m in 1usize..12, k in 1usize..40, n in 1usize..24) {
        let a = Tensor::from_fn(Shape::new(vec![m, k]), |i| {
            ((i[0] * 13 + i[1] * 7) % 11) as f32 * 0.2 - 1.0
        });
        let b = Tensor::from_fn(Shape::new(vec![k, n]), |i| {
            ((i[0] * 3 + i[1] * 5) % 9) as f32 * 0.25 - 1.0
        });
        let mut eng = MatrixEngine::default();
        let got = eng.gemm(&a, &b, DataType::Fp32).expect("tiler covers all");
        let want = a.matmul(&b).expect("valid");
        let err = got.max_abs_diff(&want).expect("same shape");
        prop_assert!(err < 1e-2, "err {} at {}x{}x{}", err, m, k, n);
    }
}

/// Builds a random layered CNN-ish DAG from a compact spec: each layer
/// is (op_selector, input_back_offset).
fn random_graph(spec: &[(u8, u8)]) -> dtu_graph::Graph {
    use dtu_graph::{BinaryKind, Graph, Op, TensorType};
    let mut g = Graph::new("random");
    let mut nodes = vec![g.input("x", TensorType::fixed(&[1, 8, 16, 16]))];
    for &(op_sel, back) in spec {
        let a = nodes[nodes.len() - 1 - (back as usize % nodes.len().min(3))];
        let last = *nodes.last().expect("non-empty");
        let id = match op_sel % 6 {
            0 => g.add_node(Op::conv2d(8, 3, 1, 1), vec![a]).expect("legal"),
            1 => g.add_node(Op::Relu, vec![last]).expect("legal"),
            2 => g.add_node(Op::BatchNorm, vec![last]).expect("legal"),
            3 => g
                .add_node(
                    Op::Binary {
                        kind: BinaryKind::Add,
                    },
                    vec![last, a],
                )
                .expect("legal"),
            4 => g
                .add_node(
                    Op::Activation {
                        func: dtu_isa::SfuFunc::Tanh,
                    },
                    vec![last],
                )
                .expect("legal"),
            _ => g
                .add_node(Op::conv2d(8, 1, 1, 0), vec![last])
                .expect("legal"),
        };
        nodes.push(id);
    }
    g.mark_output(*nodes.last().expect("non-empty"));
    g
}

/// Builds a random layered DAG for the optimiser from the same compact
/// spec as [`random_graph`], adding the layout ops it rewrites: no-op
/// and real Reshapes, identity, inverse-pair and real Transposes,
/// single-input Concats, `Upsample { scale: 1 }` and duplicate ReLUs.
/// Every tensor is rank 4, and each node's dims are tracked so that
/// operands always agree.
fn random_layout_graph(spec: &[(u8, u8)]) -> dtu_graph::Graph {
    use dtu_graph::{BinaryKind, Dim, Graph, NodeId, Op, TensorType};
    let reshape = |dims: [usize; 4]| Op::Reshape {
        dims: dims.iter().map(|&d| Dim::Fixed(d)).collect(),
    };
    let transpose = |perm: [usize; 4]| Op::Transpose {
        perm: perm.to_vec(),
    };
    let add = Op::Binary {
        kind: BinaryKind::Add,
    };
    let mut g = Graph::new("random-layout");
    let x = g.input("x", TensorType::fixed(&[1, 8, 16, 16]));
    let mut nodes: Vec<(NodeId, [usize; 4])> = vec![(x, [1, 8, 16, 16])];
    for &(op_sel, back) in spec {
        let (a, a_dims) = nodes[nodes.len() - 1 - (back as usize % nodes.len().min(3))];
        let (last, dims) = *nodes.last().expect("non-empty");
        let [n, c, h, w] = dims;
        let mut node = |op: Op, inputs: Vec<NodeId>| g.add_node(op, inputs).expect("legal");
        let pushed = match op_sel % 12 {
            0 => (
                node(Op::conv2d(8, 3, 1, 1), vec![a]),
                [a_dims[0], 8, a_dims[2], a_dims[3]],
            ),
            1 => (node(Op::Relu, vec![last]), dims),
            2 if a_dims == dims => (node(add.clone(), vec![last, a]), dims),
            3 => {
                // Twin ReLUs of one input: CSE merges them.
                let r1 = node(Op::Relu, vec![a]);
                let r2 = node(Op::Relu, vec![a]);
                (node(add.clone(), vec![r1, r2]), a_dims)
            }
            4 => (node(reshape(dims), vec![last]), dims),
            5 => {
                let to = if c % 2 == 0 {
                    [n, c / 2, h * 2, w]
                } else {
                    [n, c * h * w, 1, 1]
                };
                (node(reshape(to), vec![last]), to)
            }
            6 => (node(transpose([0, 1, 2, 3]), vec![last]), dims),
            7 => {
                let nhwc = node(transpose([0, 2, 3, 1]), vec![last]);
                (node(transpose([0, 3, 1, 2]), vec![nhwc]), dims)
            }
            8 => (node(transpose([0, 1, 3, 2]), vec![last]), [n, c, w, h]),
            9 => (node(Op::Concat { axis: 1 }, vec![last]), dims),
            10 => (node(Op::Upsample { scale: 1 }, vec![last]), dims),
            _ => (
                node(
                    Op::Activation {
                        func: dtu_isa::SfuFunc::Tanh,
                    },
                    vec![last],
                ),
                dims,
            ),
        };
        nodes.push(pushed);
    }
    g.mark_output(nodes.last().expect("non-empty").0);
    g
}

/// Optimises `g` twice and checks the result is a fixed point: the
/// second run removes nothing and returns the first run's graph. Returns
/// the first run's output and stats.
fn optimize_to_fixed_point(g: &dtu_graph::Graph) -> (dtu_graph::Graph, dtu_graph::OptimizeStats) {
    use dtu_graph::optimize;
    let name = &g.name;
    let (opt, stats) = optimize(g).expect("optimises");
    assert!(opt.len() <= g.len(), "{name}: optimize grew the graph");
    assert_eq!(g.len() - opt.len(), stats.total(), "{name}: removals");
    let (again, again_stats) = optimize(&opt).expect("optimises again");
    assert_eq!(again_stats.total(), 0, "{name}: second run removed nodes");
    assert!(again == opt, "{name}: second run changed the graph");
    (opt, stats)
}

#[test]
fn optimizer_is_a_fixed_point_on_the_zoo() {
    use dtu_models::{decode_graph, prefill_graph, GenerativeConfig, Model};
    let gpt = GenerativeConfig::gpt_1b();
    let mut graphs: Vec<dtu_graph::Graph> = Model::ALL
        .iter()
        .flat_map(|m| [m.build(1), m.build(8)])
        .collect();
    graphs.push(prefill_graph(&gpt, 1, 128));
    graphs.push(decode_graph(&gpt, 1, 256));
    for g in &graphs {
        let (opt, stats) = optimize_to_fixed_point(g);
        if stats.total() == 0 {
            assert!(opt == *g, "{}: nothing removed, graph changed", g.name);
        }
    }
}

proptest! {
    /// Fusion plans partition the non-input nodes exactly, for arbitrary
    /// layered DAGs, under both the expert rules and the search pass.
    #[test]
    fn fusion_plans_partition_random_graphs(
        spec in prop::collection::vec((0u8..6, 0u8..3), 1..25)
    ) {
        use dtu_graph::{fuse, search_fuse, FusionConfig, Op, SearchConfig};
        let g = random_graph(&spec);
        let non_inputs = g
            .nodes()
            .iter()
            .filter(|n| !matches!(n.op, Op::Input { .. }))
            .count();
        for plan in [
            fuse(&g, &FusionConfig::default()).expect("fuses"),
            search_fuse(&g, &SearchConfig::default()).expect("searches").plan,
        ] {
            let mut seen = std::collections::BTreeSet::new();
            for group in &plan.groups {
                for &n in &group.nodes {
                    prop_assert!(seen.insert(n), "node covered twice");
                }
            }
            prop_assert_eq!(seen.len(), non_inputs);
        }
    }

    /// The optimiser preserves output shapes on random DAGs full of the
    /// layout ops it rewrites, accounts for every node it removes, and
    /// stops at a fixed point.
    #[test]
    fn optimizer_preserves_semantics_on_random_graphs(
        spec in prop::collection::vec((0u8..12, 0u8..3), 1..25)
    ) {
        let g = random_layout_graph(&spec);
        let before = g.infer_shapes().expect("valid");
        let (opt, _) = optimize_to_fixed_point(&g);
        let after = opt.infer_shapes().expect("still valid");
        prop_assert_eq!(
            &before[g.outputs().last().expect("has output")],
            &after[opt.outputs().last().expect("has output")]
        );
    }

    /// Compiled random graphs run to completion on the chip (no
    /// deadlocks, no illegal commands) on both generations.
    #[test]
    fn random_graphs_compile_and_run(
        spec in prop::collection::vec((0u8..6, 0u8..3), 1..12)
    ) {
        use dtu::{Accelerator, Session, SessionOptions};
        let g = random_graph(&spec);
        for accel in [Accelerator::cloudblazer_i20(), Accelerator::cloudblazer_i10()] {
            let report = Session::compile(&accel, &g, SessionOptions::default())
                .expect("compiles")
                .run()
                .expect("runs");
            prop_assert!(report.latency_ms() > 0.0);
        }
    }
}

/// A real session-cache artifact: a 3x3 conv compiled for the i20,
/// serialized.
fn conv_artifact() -> &'static str {
    use dtu::{Accelerator, Session, SessionOptions};
    use dtu_graph::{Graph, Op, TensorType};
    static ARTIFACT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let mut g = Graph::new("toy");
        let x = g.input("x", TensorType::fixed(&[1, 8, 32, 32]));
        let c = g.add_node(Op::conv2d(16, 3, 1, 1), vec![x]).expect("legal");
        g.mark_output(c);
        let accel = Accelerator::cloudblazer_i20();
        let session = Session::compile(&accel, &g, SessionOptions::default()).expect("compiles");
        dtu_sim::program_to_json(session.program()).expect("serializable")
    })
}

proptest! {
    /// The artifact reader never panics on a damaged artifact. In a
    /// 64-byte window of a real artifact, every cut is a parse error and
    /// every single-byte overwrite parses or is a parse error.
    #[test]
    fn artifact_reader_survives_cuts_and_overwrites(start in 0.0f64..1.0, byte in 0u8..=127) {
        use dtu_sim::{program_from_json, ProgramIoError};
        let json = conv_artifact();
        let start = (json.len() as f64 * start) as usize;
        for at in start..(start + 64).min(json.len()) {
            if let Some(prefix) = json.get(..at) {
                prop_assert!(
                    matches!(program_from_json(prefix), Err(ProgramIoError::Parse(_))),
                    "cut at {} parsed", at
                );
            }
            let mut bytes = json.as_bytes().to_vec();
            bytes[at] = byte;
            if let Ok(text) = String::from_utf8(bytes) {
                prop_assert!(
                    matches!(program_from_json(&text), Ok(_) | Err(ProgramIoError::Parse(_))),
                    "byte {} at {} was not a parse error", byte, at
                );
            }
        }
    }
}

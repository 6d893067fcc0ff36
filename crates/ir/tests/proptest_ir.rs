//! Property-based tests over randomly built graphs.

use nnlqp_ir::{cost, serialize, validate, DType, GraphBuilder, Rng64, Shape};
use proptest::prelude::*;

/// Build a random but always-valid graph from a seed: a chain of conv /
/// activation / pool stages with optional residual links, ending in a
/// classifier head.
fn random_graph(seed: u64) -> nnlqp_ir::Graph {
    let mut r = Rng64::new(seed);
    let sizes = [32usize, 56, 64, 96, 112, 128, 224];
    let hw = *r.choice(&sizes);
    let batch = [1usize, 2, 4, 8][r.below(4)];
    let mut b = GraphBuilder::new(format!("prop-{seed}"), Shape::nchw(batch, 3, hw, hw));
    let mut cur = b.conv(None, 8 + 8 * r.below(8) as u32, 3, 1, 1, 1).unwrap();
    let mut prev_same_shape = None;
    let stages = 2 + r.below(8);
    for _ in 0..stages {
        match r.below(6) {
            0 => {
                let c = b.channels(cur) as u32;
                cur = b.conv(Some(cur), c, 3, 1, 1, 1).unwrap();
            }
            1 => {
                let newc = 8 + 8 * r.below(16) as u32;
                cur = b.conv(Some(cur), newc, 1, 1, 0, 1).unwrap();
            }
            2 => {
                cur = b.relu(cur).unwrap();
            }
            3 => {
                cur = b.relu6(cur).unwrap();
            }
            4 => {
                if b.out_shape(cur).height() >= 2 {
                    cur = b.maxpool(cur, 2, 2, 0).unwrap();
                }
            }
            _ => {
                if let Some(p) = prev_same_shape {
                    if b.out_shape(p) == b.out_shape(cur) && p != cur {
                        cur = b.add(p, cur).unwrap();
                    }
                }
            }
        }
        prev_same_shape = Some(cur);
    }
    let g = b.global_avgpool(cur).unwrap();
    let f = b.flatten(g).unwrap();
    b.gemm(f, 10 + r.below(100) as u32).unwrap();
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_graphs_validate(seed in any::<u64>()) {
        let g = random_graph(seed);
        prop_assert!(validate::validate(&g).is_ok());
    }

    #[test]
    fn binary_roundtrip(seed in any::<u64>()) {
        let g = random_graph(seed);
        let g2 = serialize::decode(&serialize::encode(&g)).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn json_roundtrip(seed in any::<u64>()) {
        let g = random_graph(seed);
        let g2 = serialize::from_json(&serialize::to_json(&g)).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn costs_are_finite_and_nonnegative(seed in any::<u64>()) {
        let g = random_graph(seed);
        let c = cost::graph_cost(&g, DType::F32);
        prop_assert!(c.flops.is_finite() && c.flops > 0.0);
        prop_assert!(c.params.is_finite() && c.params > 0.0);
        prop_assert!(c.mem_bytes.is_finite() && c.mem_bytes > 0.0);
        for nc in &c.per_node {
            prop_assert!(nc.flops >= 0.0 && nc.params >= 0.0);
            prop_assert!(nc.read_bytes > 0.0 && nc.write_bytes > 0.0);
        }
    }

    #[test]
    fn rebatch_preserves_structure_and_scales_flops(seed in any::<u64>()) {
        let g = random_graph(seed);
        let b0 = g.input_shape.batch() as f64;
        let g2 = g.rebatch(g.input_shape.batch() * 2).unwrap();
        prop_assert_eq!(g.len(), g2.len());
        let c1 = cost::graph_cost(&g, DType::F32);
        let c2 = cost::graph_cost(&g2, DType::F32);
        // FLOPs scale linearly with batch; params do not change.
        prop_assert!((c2.flops / c1.flops - (b0 * 2.0) / b0).abs() < 1e-9);
        prop_assert_eq!(c1.params, c2.params);
    }

    #[test]
    fn depth_le_len_and_topo_edges(seed in any::<u64>()) {
        let g = random_graph(seed);
        prop_assert!(g.depth() <= g.len());
        for (id, n) in g.iter() {
            for inp in &n.inputs {
                prop_assert!(inp.index() < id.index());
            }
        }
    }

    #[test]
    fn int8_memory_is_quarter_of_f32(seed in any::<u64>()) {
        let g = random_graph(seed);
        let a = cost::graph_cost(&g, DType::F32);
        let b = cost::graph_cost(&g, DType::I8);
        prop_assert!((a.mem_bytes / b.mem_bytes - 4.0).abs() < 1e-9);
    }
}

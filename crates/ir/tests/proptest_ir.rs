//! Property-based tests over randomly built graphs.

mod common;

use common::random_graph;
use nnlqp_ir::{cost, serialize, validate, DType, IrError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_graphs_validate(seed in any::<u64>()) {
        let g = random_graph(seed);
        prop_assert!(validate::validate(&g).is_ok());
    }

    #[test]
    fn binary_roundtrip(seed in any::<u64>(), name_bytes in 65_400usize..65_700) {
        let g = random_graph(seed);
        let bytes = serialize::encode(&g).unwrap();
        prop_assert_eq!(&serialize::decode(&bytes).unwrap(), &g);
        // A name about as long as the record's `u16` length holds, in
        // two-byte characters: whenever `encode` takes it, it reads back.
        let mut named = g.clone();
        named.name = "é".repeat(name_bytes / 2) + &"x".repeat(name_bytes % 2);
        match serialize::encode(&named) {
            Ok(b) => prop_assert_eq!(serialize::decode(&b).unwrap(), named),
            Err(e) => prop_assert!(
                name_bytes > 65_535
                    && matches!(e, IrError::DoesNotFit { field: "name length", .. }),
                "{name_bytes}: {e}"
            ),
        }
        // Every truncation is refused. One that leaves the announced nodes
        // fewer bytes than the smallest node record (26) each is refused
        // at the count, before anything is reserved for them.
        let count_at = 4 + 1 + 2 + g.name.len() + 1 + 4 * g.input_shape.rank();
        for cut in 0..bytes.len() {
            let err = serialize::decode(&bytes[..cut]).unwrap_err().to_string();
            let starved = cut >= count_at + 4 && g.len() > (cut - count_at - 4) / 26;
            prop_assert!(err.contains("announced") == starved, "cut {cut}: {err}");
        }
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

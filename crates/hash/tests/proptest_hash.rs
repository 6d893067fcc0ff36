//! Property-based tests of the graph hash: collision behaviour and
//! sensitivity over randomly generated model graphs; and of the memoised
//! fingerprint, which an edit must never leave stale.

use nnlqp_hash::{graph_fingerprint, graph_hash};
use nnlqp_ir::{Graph, GraphBuilder, NodeId, Rng64, Shape};
use proptest::prelude::*;
use std::collections::HashSet;

/// Random chain-with-branches graph, parameterized enough that distinct
/// seeds almost surely give structurally distinct graphs.
fn random_graph(seed: u64) -> nnlqp_ir::Graph {
    let mut r = Rng64::new(seed);
    let hw = *r.choice(&[16usize, 32, 64]);
    let mut b = GraphBuilder::new("h", Shape::nchw(1, 3, hw, hw));
    let mut cur = b
        .conv(None, 8 + 2 * r.below(32) as u32, 3, 1, 1, 1)
        .unwrap();
    for _ in 0..(2 + r.below(10)) {
        cur = match r.below(4) {
            0 => {
                let c = 8 + 2 * r.below(32) as u32;
                b.conv(Some(cur), c, *r.choice(&[1u32, 3, 5]), 1, 1, 1)
                    .unwrap_or(cur)
            }
            1 => b.relu(cur).unwrap(),
            2 => b.sigmoid(cur).unwrap(),
            _ => {
                let c1 = b
                    .conv(Some(cur), b.channels(cur) as u32, 3, 1, 1, 1)
                    .unwrap();
                b.add(cur, c1).unwrap()
            }
        };
    }
    b.global_avgpool(cur).unwrap();
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hashing is a pure function of the structure.
    #[test]
    fn hash_is_deterministic(seed in any::<u64>()) {
        let a = random_graph(seed);
        let b = random_graph(seed);
        prop_assert_eq!(graph_hash(&a), graph_hash(&b));
    }

    /// Two graphs collide exactly when they are the same graph (the
    /// generator builds a structure in one node order, so equality of the
    /// node lists is equality of structure).
    #[test]
    fn hash_discriminates_exactly_the_graphs_that_differ(s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = random_graph(s1);
        let b = random_graph(s2);
        prop_assert_eq!(graph_hash(&a) == graph_hash(&b), a == b);
    }

    /// Appending one more node always changes the hash.
    #[test]
    fn extension_changes_hash(seed in any::<u64>()) {
        let g = random_graph(seed);
        let mut b = GraphBuilder::new("h", g.input_shape);
        for n in &g.nodes {
            b.push(n.op, n.attrs.clone(), &n.inputs).unwrap();
        }
        let last = nnlqp_ir::NodeId(g.len() as u32 - 1);
        b.relu(last).unwrap();
        let extended = b.finish().unwrap();
        prop_assert_ne!(graph_hash(&g), graph_hash(&extended));
    }

    /// Fingerprint a graph (memoising its node digest), make one random
    /// edit through `make_mut`, fingerprint again: the answer is a fresh
    /// copy's, never the memo of the nodes before the edit.
    #[test]
    fn an_edit_through_make_mut_never_leaves_a_stale_fingerprint(seed in any::<u64>()) {
        let mut g = random_graph(seed);
        let mut r = Rng64::new(seed ^ 0xED17);
        let before = graph_fingerprint(&g);
        let nodes = g.nodes.make_mut();
        let v = r.below(nodes.len());
        match r.below(5) {
            0 => nodes[v].attrs.out_channels += 1,
            1 => nodes[v].inputs = vec![NodeId(v as u32 + 1)].into(),
            2 => nodes[v].out_shape = Shape::nc(1, 1000 + v),
            3 => nodes.push(nodes[v].clone()),
            _ => nodes.truncate(v),
        }
        let rebuilt = Graph {
            name: g.name.clone(),
            input_shape: g.input_shape,
            nodes: g.nodes.to_vec().into(),
        };
        prop_assert_eq!(graph_fingerprint(&g), graph_fingerprint(&rebuilt));
        prop_assert_ne!(graph_fingerprint(&g), before);
    }
}

/// Bulk collision check outside proptest: hash 2,000 random graphs and
/// require all structurally distinct ones to get distinct 64-bit keys.
#[test]
fn no_collisions_across_two_thousand_graphs() {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut graphs = 0;
    for seed in 0..2000u64 {
        let g = random_graph(seed);
        seen.insert(graph_hash(&g));
        graphs += 1;
    }
    // Distinct seeds can occasionally produce identical structures; allow
    // a tiny number of *structural* duplicates but no more.
    assert!(
        seen.len() > graphs - 20,
        "{} hashes for {graphs} graphs — implausibly many collisions",
        seen.len()
    );
}

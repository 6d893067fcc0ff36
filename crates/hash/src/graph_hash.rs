//! The Merkle-style graph hash (Eqs. 1 and 2).

use crate::fnv::StreamHasher;
use nnlqp_ir::Graph;

/// Hash of one node's attribute set `A_v` (op code, attribute vector,
/// output shape), before successor hashes are folded in.
fn attr_hash(node: &nnlqp_ir::Node) -> u64 {
    let mut h = StreamHasher::new();
    h.write_u64(node.op.code() as u64);
    // f_sort(A_v): the attribute vector has a canonical field order, which
    // is a fixed sort — identical semantics to sorting a keyed set.
    for v in node.attrs.to_vec() {
        h.write_f32(v);
    }
    h.write_u64(node.out_shape.rank() as u64);
    for &d in node.out_shape.dims() {
        h.write_u64(d as u64);
    }
    h.finish()
}

/// Per-node hash encodings `H_v`, computed in reverse topological order so
/// each node sees its successors' finished hashes (Eq. 1).
///
/// Equal values at two nodes (possibly of different graphs) mean the
/// descendant sub-graphs rooted there are identical in topology, attributes
/// and shapes.
pub fn node_hashes(g: &Graph) -> Vec<u64> {
    let n = g.len();
    // Successor lists in CSR form (two flat buffers) instead of one Vec
    // per node: counting pass, prefix sums, then a scatter pass.
    let mut offsets = vec![0u32; n + 1];
    for (_, node) in g.iter() {
        for &inp in &node.inputs {
            offsets[inp.index() + 1] += 1;
        }
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut succ = vec![0u32; offsets[n] as usize];
    let mut cursor = offsets.clone();
    for (id, node) in g.iter() {
        for &inp in &node.inputs {
            let c = &mut cursor[inp.index()];
            succ[*c as usize] = id.0;
            *c += 1;
        }
    }
    // Attribute hashes first, in a pass of their own: each is a serial
    // multiply chain independent of every other node's, so back to back
    // the CPU overlaps them; folded into the Merkle pass below they would
    // queue behind its chain through the successors' hashes.
    let mut hashes: Vec<u64> = g.nodes.iter().map(attr_hash).collect();
    // One record buffer reused across nodes — the hot path of every query
    // and cache key allocates nothing per node.
    let mut record: Vec<u64> = Vec::new();
    // Nodes are stored in topological order; walk backwards.
    for i in (0..n).rev() {
        record.clear();
        record.extend(
            succ[offsets[i] as usize..offsets[i + 1] as usize]
                .iter()
                .map(|&s| hashes[s as usize]),
        );
        record.sort_unstable(); // f_sort over successor hashes
        let mut h = StreamHasher::new();
        h.write_u64(hashes[i]);
        h.write_u64(record.len() as u64);
        h.write_all(&record);
        hashes[i] = h.finish();
    }
    hashes
}

/// Whole-graph hash `H_G` (Eq. 2): fold the sorted hashes of all source
/// nodes (`Pre(u) = ∅`), plus the graph input shape.
pub fn graph_hash(g: &Graph) -> u64 {
    let hashes = node_hashes(g);
    let mut roots: Vec<u64> = g
        .sources()
        .into_iter()
        .map(|id| hashes[id.index()])
        .collect();
    roots.sort_unstable();
    let mut h = StreamHasher::new();
    h.write_u64(g.input_shape.rank() as u64);
    for &d in g.input_shape.dims() {
        h.write_u64(d as u64);
    }
    h.write_u64(roots.len() as u64);
    h.write_all(&roots);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, Shape};

    fn diamond(order_swapped: bool) -> Graph {
        // conv -> {branch a: conv3x3, branch b: conv1x1} -> add
        let mut b = GraphBuilder::new("d", Shape::nchw(1, 8, 16, 16));
        let stem = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let (x, y) = if order_swapped {
            let b1 = b.conv(Some(stem), 8, 1, 1, 0, 1).unwrap();
            let b2 = b.conv(Some(stem), 8, 3, 1, 1, 1).unwrap();
            (b2, b1)
        } else {
            let b1 = b.conv(Some(stem), 8, 3, 1, 1, 1).unwrap();
            let b2 = b.conv(Some(stem), 8, 1, 1, 0, 1).unwrap();
            (b1, b2)
        };
        b.add(x, y).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn identical_graphs_hash_equal() {
        assert_eq!(graph_hash(&diamond(false)), graph_hash(&diamond(false)));
    }

    #[test]
    fn name_is_not_part_of_the_hash() {
        let mut a = diamond(false);
        a.name = "something-else".into();
        assert_eq!(graph_hash(&a), graph_hash(&diamond(false)));
    }

    #[test]
    fn branch_insertion_order_is_irrelevant() {
        // Same DAG built with sibling branches in swapped order must collide
        // (that is the point of sorting successor hashes).
        assert_eq!(graph_hash(&diamond(false)), graph_hash(&diamond(true)));
    }

    #[test]
    fn attribute_change_changes_hash() {
        let a = diamond(false);
        let mut b = diamond(false);
        b.nodes.make_mut()[1].attrs.stride = [2, 2];
        // (shape would change too in a rebuilt graph; mutate attrs only to
        // isolate the attribute contribution)
        assert_ne!(graph_hash(&a), graph_hash(&b));
    }

    #[test]
    fn input_resolution_changes_hash() {
        let mut b1 = GraphBuilder::new("r", Shape::nchw(1, 3, 32, 32));
        let c = b1.conv(None, 8, 3, 1, 1, 1).unwrap();
        b1.relu(c).unwrap();
        let g1 = b1.finish().unwrap();
        let mut b2 = GraphBuilder::new("r", Shape::nchw(1, 3, 64, 64));
        let c = b2.conv(None, 8, 3, 1, 1, 1).unwrap();
        b2.relu(c).unwrap();
        let g2 = b2.finish().unwrap();
        assert_ne!(graph_hash(&g1), graph_hash(&g2));
    }

    #[test]
    fn batch_change_changes_hash() {
        let g = diamond(false);
        let g2 = g.rebatch(4).unwrap();
        assert_ne!(graph_hash(&g), graph_hash(&g2));
    }

    #[test]
    fn equal_node_hash_means_equal_descendant_subgraph() {
        // Two different stems feeding identical tails: the tail node hashes
        // must match across graphs, the stem hashes must not.
        let build = |stem_kernel: u32| {
            let mut b = GraphBuilder::new("t", Shape::nchw(1, 8, 16, 16));
            let stem = b
                .conv(None, 8, stem_kernel, 1, (stem_kernel - 1) / 2, 1)
                .unwrap();
            let r = b.relu(stem).unwrap();
            let p = b.global_avgpool(r).unwrap();
            let f = b.flatten(p).unwrap();
            b.gemm(f, 10).unwrap();
            b.finish().unwrap()
        };
        let g1 = build(3);
        let g2 = build(5);
        let h1 = node_hashes(&g1);
        let h2 = node_hashes(&g2);
        // Tail (relu onward) identical.
        assert_eq!(h1[1..], h2[1..]);
        // Stems differ.
        assert_ne!(h1[0], h2[0]);
        // And therefore the whole graphs differ.
        assert_ne!(graph_hash(&g1), graph_hash(&g2));
    }

    #[test]
    fn channel_change_changes_hash() {
        let a = diamond(false);
        let mut b = diamond(false);
        b.nodes.make_mut()[2].attrs.out_channels = 16;
        assert_ne!(graph_hash(&a), graph_hash(&b));
    }
}

//! The random-graph generator of `proptest_ir.rs`, shared with the
//! analyzer's `wire_widths.rs` (which includes this file by path).

use nnlqp_ir::{GraphBuilder, Rng64, Shape};

/// Build a random but always-valid graph from a seed: a chain of conv /
/// activation / pool stages with optional residual links, ending in a
/// classifier head.
pub fn random_graph(seed: u64) -> nnlqp_ir::Graph {
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

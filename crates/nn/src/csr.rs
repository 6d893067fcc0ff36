//! Compressed sparse-row adjacency and the mean aggregation of GraphSAGE.
//!
//! `N(v)` follows GraphSAGE practice: the *undirected* neighborhood of the
//! operator DAG (both producers and consumers), so information flows along
//! and against data-flow edges with each convolution layer.

use crate::simd;
use crate::tensor::Matrix;
use nnlqp_ir::Graph;

/// CSR adjacency over `n` nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Row offsets, length `n + 1`.
    pub row_ptr: Vec<u32>,
    /// Neighbor indices.
    pub col_idx: Vec<u32>,
}

impl Csr {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Neighbors of node `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize]
    }

    /// Build the undirected adjacency of a model graph.
    pub fn from_graph(g: &Graph) -> Csr {
        // Two-pass CSR build (count, prefix-sum, scatter) over three flat
        // buffers instead of one `Vec` per node: this runs on every query's
        // feature extraction, so per-node allocations add up.
        let n = g.len();
        let mut row_ptr = vec![0u32; n + 1];
        for (id, node) in g.iter() {
            row_ptr[id.index() + 1] += node.inputs.len() as u32;
            for &inp in &node.inputs {
                row_ptr[inp.index() + 1] += 1;
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; row_ptr[n] as usize];
        let mut cursor: Vec<u32> = row_ptr[..n].to_vec();
        for (id, node) in g.iter() {
            for &inp in &node.inputs {
                let ci = &mut cursor[id.index()];
                col_idx[*ci as usize] = inp.0;
                *ci += 1;
                let cj = &mut cursor[inp.index()];
                col_idx[*cj as usize] = id.0;
                *cj += 1;
            }
        }
        // Sort each row and compact out duplicate edges in place. The write
        // cursor trails the row being processed, so no data is clobbered.
        let mut write = 0usize;
        let mut start = 0usize;
        for i in 0..n {
            let end = row_ptr[i + 1] as usize;
            col_idx[start..end].sort_unstable();
            let mut prev = None;
            for j in start..end {
                let v = col_idx[j];
                if Some(v) != prev {
                    col_idx[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            start = end;
            row_ptr[i + 1] = write as u32;
        }
        col_idx.truncate(write);
        Csr { row_ptr, col_idx }
    }

    /// Build from an explicit undirected edge list over `n` nodes.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            lists[a as usize].push(b);
            lists[b as usize].push(a);
        }
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        for mut l in lists {
            l.sort_unstable();
            l.dedup();
            col_idx.extend_from_slice(&l);
            row_ptr.push(col_idx.len() as u32);
        }
        Csr { row_ptr, col_idx }
    }

    /// Mean aggregation into a caller-provided (scratch) matrix:
    /// `out[i] = mean_{j in N(i)} x[j]`, zero for isolated nodes. Every
    /// element is overwritten; each is zero plus its neighbors' values in
    /// neighbor order, then scaled by `1 / |N(i)|`.
    pub fn mean_agg_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (self.n(), x.cols),
            "mean_agg out shape mismatch"
        );
        assert_eq!(x.rows, self.n(), "mean_agg input shape mismatch");
        let adj = (&self.row_ptr[..], &self.col_idx[..]);
        simd::mean_agg(simd::kernel(), adj, &x.data, x.cols, &mut out.data);
    }

    /// Backward of [`Csr::mean_agg_into`]: given `d_out`, `dx` is zeroed
    /// and `dx[j] += d_out[i] / |N(i)|` scattered for each `j in N(i)`.
    pub fn mean_agg_backward_into(&self, d_out: &Matrix, dx: &mut Matrix) {
        assert_eq!(d_out.rows, self.n(), "mean_agg_backward shape mismatch");
        assert_eq!(
            (dx.rows, dx.cols),
            (d_out.rows, d_out.cols),
            "mean_agg_backward out shape mismatch"
        );
        let adj = (&self.row_ptr[..], &self.col_idx[..]);
        simd::mean_agg_backward(simd::kernel(), adj, &d_out.data, d_out.cols, &mut dx.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, Shape};

    #[test]
    fn from_graph_undirected() {
        let mut b = GraphBuilder::new("g", Shape::nchw(1, 3, 8, 8));
        let c = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let r = b.relu(c).unwrap();
        let c2 = b.conv(Some(r), 8, 3, 1, 1, 1).unwrap();
        b.add(r, c2).unwrap();
        let g = b.finish().unwrap();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.n(), 4);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(1), &[0, 2, 3]);
        assert_eq!(csr.neighbors(2), &[1, 3]);
        assert_eq!(csr.neighbors(3), &[1, 2]);
    }

    fn mean_agg(csr: &Csr, x: &Matrix) -> Matrix {
        // Dirty output: every element must be overwritten.
        let mut out = Matrix::from_fn(csr.n(), x.cols, |_, _| f32::NAN);
        csr.mean_agg_into(x, &mut out);
        out
    }

    #[test]
    fn mean_agg_known_values() {
        let csr = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let x = Matrix::from_rows(3, 2, vec![1.0, 0.0, 3.0, 2.0, 5.0, 4.0]);
        let y = mean_agg(&csr, &x);
        // node0: mean(row1) = [3,2]; node1: mean(rows 0,2) = [3,2];
        // node2: mean(row1) = [3,2].
        assert_eq!(y.data, vec![3.0, 2.0, 3.0, 2.0, 3.0, 2.0]);
    }

    #[test]
    fn isolated_node_gets_zero() {
        let csr = Csr::from_edges(3, &[(0, 1)]);
        let x = Matrix::from_rows(3, 1, vec![1.0, 2.0, 3.0]);
        let y = mean_agg(&csr, &x);
        assert_eq!(y.data[2], 0.0);
    }

    #[test]
    fn mean_agg_backward_is_transpose() {
        // <A x, y> == <x, A^T y> for the aggregation operator A.
        use nnlqp_ir::Rng64;
        let mut r = Rng64::new(20);
        let csr = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let x = Matrix::from_fn(5, 3, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let y = Matrix::from_fn(5, 3, |_, _| r.range_f64(-1.0, 1.0) as f32);
        let ax = mean_agg(&csr, &x);
        let mut aty = Matrix::from_fn(5, 3, |_, _| f32::NAN);
        csr.mean_agg_backward_into(&y, &mut aty);
        let lhs: f64 = ax
            .data
            .iter()
            .zip(&y.data)
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        let rhs: f64 = x
            .data
            .iter()
            .zip(&aty.data)
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4, "lhs {lhs} rhs {rhs}");
    }
}

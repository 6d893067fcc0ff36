//! A generic fixed-point dataflow engine over NNLQP graphs.
//!
//! Classic iterative dataflow analysis, specialized to the two structures
//! an inference graph offers:
//!
//! * the **data DAG** — facts flow along tensor edges (producer to
//!   consumer, or the reverse), as in reachability and value numbering;
//! * the **execution order** — the node vector *is* the canonical
//!   sequential schedule, so liveness-style analyses treat it as a
//!   straight-line program (node `i`'s only CFG successor is `i + 1`).
//!
//! An analysis supplies a lattice (`bottom`, `boundary`, `join`) and a
//! `transfer` function; [`solve`] sweeps the nodes in dependency order
//! until no fact changes. Because a well-formed graph's node vector is a
//! topological order, one sweep reaches the fixpoint and a second verifies
//! it — the engine still caps iterations at `len + 2` so a malformed
//! (cyclic) edge set terminates with [`Fixpoint::converged`] = `false`
//! instead of spinning.
//!
//! `transfer` receives the facts of the node's dataflow dependencies as an
//! ordered slice rather than pre-joined, so positional analyses (value
//! numbering hashes input facts in argument order) and join-lattice
//! analyses (which fold the slice through [`DataflowAnalysis::joined`])
//! share the same engine.

use nnlqp_ir::{Graph, NodeId};

/// Which way facts propagate along the dependency structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from dependencies to dependents (sources first).
    Forward,
    /// Facts flow from dependents back to dependencies (sinks first).
    Backward,
}

/// The structure facts flow along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepStructure {
    /// Tensor edges: a forward analysis sees each node's inputs, a
    /// backward one its consumers.
    DataEdges,
    /// The sequential execution schedule (the node vector): node `i`
    /// depends on `i - 1` forward, on `i + 1` backward.
    ExecutionOrder,
}

/// One dataflow analysis: a lattice plus a transfer function.
pub trait DataflowAnalysis {
    /// Per-node fact. Equality drives convergence detection.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// What facts flow along. Defaults to the data DAG.
    fn structure(&self) -> DepStructure {
        DepStructure::DataEdges
    }

    /// The lattice bottom: every node's fact before the first sweep.
    fn bottom(&self, g: &Graph, id: NodeId) -> Self::Fact;

    /// Fact entering the graph at a node with no dataflow dependencies
    /// (a source in a forward analysis, a sink in a backward one).
    fn boundary(&self, g: &Graph, id: NodeId) -> Self::Fact;

    /// Lattice join (least upper bound) of two facts.
    fn join(&self, acc: Self::Fact, dep: &Self::Fact) -> Self::Fact;

    /// Compute the node's fact from its dependencies' current facts, in
    /// graph order (input order forward, ascending consumer id backward).
    /// Join-lattice analyses fold `deps` through [`Self::joined`];
    /// positional analyses consume the slice directly.
    fn transfer(&self, g: &Graph, id: NodeId, deps: &[Self::Fact]) -> Self::Fact;

    /// Join of `deps`, or the boundary fact when there are none.
    fn joined(&self, g: &Graph, id: NodeId, deps: &[Self::Fact]) -> Self::Fact {
        match deps.split_first() {
            None => self.boundary(g, id),
            Some((first, rest)) => rest.iter().fold(first.clone(), |acc, d| self.join(acc, d)),
        }
    }
}

/// The result of running an analysis to fixpoint.
#[derive(Debug, Clone)]
pub struct Fixpoint<F> {
    /// Final fact per node, indexed by node id.
    pub facts: Vec<F>,
    /// Sweeps performed (a DAG in topological order needs exactly two:
    /// one to compute, one to verify).
    pub sweeps: usize,
    /// False only when the iteration cap was hit before stabilizing —
    /// possible only on a malformed (cyclic) edge set.
    pub converged: bool,
}

/// Dependency index lists for `a` over `g`, in the order `transfer` sees
/// them.
fn dep_lists<A: DataflowAnalysis>(g: &Graph, a: &A) -> Vec<Vec<usize>> {
    let n = g.len();
    match (a.structure(), a.direction()) {
        (DepStructure::DataEdges, Direction::Forward) => g
            .nodes
            .iter()
            .map(|node| node.inputs.iter().map(|i| i.index()).collect())
            .collect(),
        (DepStructure::DataEdges, Direction::Backward) => g
            .successors()
            .into_iter()
            .map(|succ| succ.into_iter().map(nnlqp_ir::NodeId::index).collect())
            .collect(),
        (DepStructure::ExecutionOrder, Direction::Forward) => (0..n)
            .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
            .collect(),
        (DepStructure::ExecutionOrder, Direction::Backward) => (0..n)
            .map(|i| if i + 1 == n { vec![] } else { vec![i + 1] })
            .collect(),
    }
}

/// Run `a` over `g` to a fixpoint.
///
/// Sweeps the node vector in the analysis direction (it is the canonical
/// topological order on well-formed graphs, so the fixpoint lands in one
/// sweep and the second confirms it), iterating until no fact changes or
/// `len + 2` sweeps elapse.
pub fn solve<A: DataflowAnalysis>(g: &Graph, a: &A) -> Fixpoint<A::Fact> {
    let n = g.len();
    let mut facts: Vec<A::Fact> = (0..n).map(|i| a.bottom(g, NodeId(i as u32))).collect();
    if n == 0 {
        return Fixpoint {
            facts,
            sweeps: 0,
            converged: true,
        };
    }
    let deps = dep_lists(g, a);
    let order: Vec<usize> = match a.direction() {
        Direction::Forward => (0..n).collect(),
        Direction::Backward => (0..n).rev().collect(),
    };
    let max_sweeps = n + 2;
    let mut sweeps = 0;
    let mut converged = false;
    let mut scratch: Vec<A::Fact> = Vec::new();
    while sweeps < max_sweeps {
        sweeps += 1;
        let mut changed = false;
        for &i in &order {
            scratch.clear();
            scratch.extend(deps[i].iter().map(|&d| facts[d].clone()));
            let new = a.transfer(g, NodeId(i as u32), &scratch);
            if new != facts[i] {
                facts[i] = new;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    Fixpoint {
        facts,
        sweeps,
        converged,
    }
}

/// Reachability to the model output (the last sink, which is what
/// [`Graph::output_shape`] reports): a backward data-edge analysis whose
/// fact is "this node's value can reach the output". The complement is
/// the dead region [`crate::ir_lints::check_dead_nodes`] diagnoses.
pub struct ReachabilityAnalysis {
    output: usize,
}

impl ReachabilityAnalysis {
    /// `None` on an empty graph.
    pub fn new(g: &Graph) -> Option<Self> {
        g.sinks().last().map(|out| ReachabilityAnalysis {
            output: out.index(),
        })
    }
}

impl DataflowAnalysis for ReachabilityAnalysis {
    type Fact = bool;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self, _g: &Graph, _id: NodeId) -> bool {
        false
    }

    fn boundary(&self, _g: &Graph, id: NodeId) -> bool {
        id.index() == self.output
    }

    fn join(&self, acc: bool, dep: &bool) -> bool {
        acc || *dep
    }

    fn transfer(&self, g: &Graph, id: NodeId, deps: &[bool]) -> bool {
        id.index() == self.output || self.joined(g, id, deps)
    }
}

/// A compact fixed-capacity bit set, the fact type of set-valued analyses
/// (liveness). Equality ignores capacity: two sets with the same members
/// compare equal regardless of how they were sized.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set sized for members `0..bits`.
    pub fn with_capacity(bits: usize) -> BitSet {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Add a member, growing if needed.
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    /// Remove a member.
    pub fn remove(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Set union, in place.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no members are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w & (1 << b) != 0 {
                    Some(wi * 64 + b)
                } else {
                    None
                }
            })
        })
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|&w| w == 0)
            && other.words[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitSet {}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_ir::{GraphBuilder, Shape};

    /// Forward data-edge analysis: longest path from a source, in nodes.
    struct Depth;

    impl DataflowAnalysis for Depth {
        type Fact = u64;

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn bottom(&self, _g: &Graph, _id: NodeId) -> u64 {
            0
        }

        fn boundary(&self, _g: &Graph, _id: NodeId) -> u64 {
            0
        }

        fn join(&self, acc: u64, dep: &u64) -> u64 {
            acc.max(*dep)
        }

        fn transfer(&self, g: &Graph, id: NodeId, deps: &[u64]) -> u64 {
            if deps.is_empty() {
                self.boundary(g, id)
            } else {
                1 + self.joined(g, id, deps)
            }
        }
    }

    fn diamond() -> Graph {
        // n0 conv -> (n1 relu, n2 sigmoid) -> n3 add
        let mut b = GraphBuilder::new("d", Shape::nchw(1, 2, 4, 4));
        let c = b.conv(None, 2, 1, 1, 0, 1).unwrap();
        let r = b.relu(c).unwrap();
        let s = b.sigmoid(c).unwrap();
        b.add(r, s).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn forward_depth_converges_in_two_sweeps() {
        let g = diamond();
        let fix = solve(&g, &Depth);
        assert!(fix.converged);
        assert_eq!(fix.sweeps, 2, "topo-ordered DAG: compute + verify");
        assert_eq!(fix.facts, vec![0, 1, 1, 2]);
    }

    #[test]
    fn backward_reachability_finds_dead_branch() {
        // n1 sigmoid is dead: nothing consumes it and n4 relu is the
        // model output.
        let mut b = GraphBuilder::new("dead", Shape::nchw(1, 2, 4, 4));
        let c = b.conv(None, 2, 1, 1, 0, 1).unwrap();
        b.sigmoid(c).unwrap();
        let r = b.relu(c).unwrap();
        b.relu(r).unwrap();
        let g = b.finish().unwrap();
        let fix = solve(&g, &ReachabilityAnalysis::new(&g).unwrap());
        assert!(fix.converged);
        assert_eq!(fix.facts, vec![true, false, true, true]);
    }

    #[test]
    fn cyclic_edges_terminate_unconverged() {
        // Tamper a chain into a 2-cycle; Depth then never stabilizes, and
        // the engine must stop at the cap instead of spinning.
        let mut g = diamond();
        g.nodes.make_mut()[1].inputs = vec![NodeId(3)].into();
        let fix = solve(&g, &Depth);
        assert!(!fix.converged);
        assert_eq!(fix.sweeps, g.len() + 2);
    }

    #[test]
    fn execution_order_chains_adjacent_nodes() {
        struct Position;
        impl DataflowAnalysis for Position {
            type Fact = u64;
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn structure(&self) -> DepStructure {
                DepStructure::ExecutionOrder
            }
            fn bottom(&self, _g: &Graph, _id: NodeId) -> u64 {
                0
            }
            fn boundary(&self, _g: &Graph, _id: NodeId) -> u64 {
                0
            }
            fn join(&self, acc: u64, dep: &u64) -> u64 {
                acc.max(*dep)
            }
            fn transfer(&self, g: &Graph, id: NodeId, deps: &[u64]) -> u64 {
                if deps.is_empty() {
                    self.boundary(g, id)
                } else {
                    1 + self.joined(g, id, deps)
                }
            }
        }
        let g = diamond();
        let fix = solve(&g, &Position);
        assert!(fix.converged);
        // Along the schedule, not the DAG: every node is one step after
        // its predecessor in the node vector.
        assert_eq!(fix.facts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_graph_is_trivially_converged() {
        let g = Graph {
            name: "empty".into(),
            input_shape: Shape::nchw(1, 1, 1, 1),
            nodes: Vec::new().into(),
        };
        let fix = solve(&g, &Depth);
        assert!(fix.converged);
        assert!(fix.facts.is_empty());
        assert_eq!(fix.sweeps, 0);
    }

    #[test]
    fn bitset_semantics() {
        let mut a = BitSet::with_capacity(4);
        a.insert(1);
        a.insert(70); // grows past the initial capacity
        assert!(a.contains(1) && a.contains(70) && !a.contains(2));
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 70]);
        let mut b = BitSet::with_capacity(128);
        b.insert(70);
        b.insert(1);
        // Equality ignores capacity.
        assert_eq!(a, b);
        a.remove(70);
        assert_ne!(a, b);
        b.remove(70);
        assert_eq!(a, b);
        let mut c = BitSet::with_capacity(0);
        c.union_with(&b);
        assert!(c.contains(1));
        assert!(!c.is_empty());
    }
}

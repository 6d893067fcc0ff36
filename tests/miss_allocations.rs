//! A fresh-key query walks its graph without the allocator: every pass a
//! miss makes over the graph costs a constant number of allocations, the
//! same for a 38-node graph as for a 158-node one.
//!
//! This file is its own test binary so that it can install a counting
//! `#[global_allocator]`. The count is per thread (the harness runs tests
//! side by side), exact and repeatable, so it is asserted, not timed.
//! Before shapes and input lists went inline the passes below cost 214 /
//! 424 / 211 / 107 / 7 / 3 / 424 / 464 allocations at 106 nodes.

use nnlqp_db::wal::{encode_frame, Frame, WalOp};
use nnlqp_db::{ModelId, ModelRecord};
use nnlqp_hash::graph_hash;
use nnlqp_ir::{cost, serialize, validate, DType, Graph, GraphBuilder, NodeId, Shape};
use nnlqp_models::ModelFamily;
use nnlqp_sim::{measure, PlatformSpec};
use std::hint::black_box;

mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `pass` makes on this thread; its result is kept alive
/// across the reading so freeing it is not part of the pass.
fn allocations_of<T>(pass: impl FnOnce() -> T) -> u64 {
    let before = allocations();
    let out = black_box(pass());
    let made = allocations() - before;
    drop(out);
    made
}

/// Allocation counts of the passes of a miss, in the order a miss makes
/// them, then the read side (`decode`, what `train` pays per stored row).
#[derive(Debug, PartialEq)]
struct Passes {
    clone: u64,
    rebatch: u64,
    validate: u64,
    graph_cost: u64,
    graph_hash: u64,
    encode: u64,
    wal_frame: u64,
    decode: u64,
    measure: u64,
}

fn passes(g: &Graph) -> Passes {
    let t4 = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
    let blob = serialize::encode(g).unwrap();
    let frame = Frame {
        wal_seq: 7,
        op: WalOp::Model(ModelRecord {
            id: ModelId(3),
            graph_hash: graph_hash(g),
            name: g.name.clone(),
            graph_bytes: blob.clone(),
            created_seq: 5,
        }),
    };
    Passes {
        clone: allocations_of(|| g.clone()),
        rebatch: allocations_of(|| g.rebatch(8).unwrap()),
        validate: allocations_of(|| validate::validate(g).unwrap()),
        graph_cost: allocations_of(|| cost::graph_cost(g, DType::F32)),
        graph_hash: allocations_of(|| graph_hash(g)),
        encode: allocations_of(|| serialize::encode(g).unwrap()),
        wal_frame: allocations_of(|| encode_frame(&frame)),
        decode: allocations_of(|| serialize::decode(&blob).unwrap()),
        measure: allocations_of(|| measure(g, &t4, 10, 42)),
    }
}

/// stem -> `width` branches -> one concat -> relu. Past four branches the
/// concat's input list does not fit inline.
fn concat_of(width: u32) -> Graph {
    let mut b = GraphBuilder::new(format!("{width}-way"), Shape::nchw(1, 3, 32, 32));
    let stem = b.conv(None, 16, 3, 1, 1, 1).unwrap();
    let branches: Vec<NodeId> = (0..width)
        .map(|k| {
            let c = b.conv(Some(stem), 8 + 4 * k, 1, 1, 0, 1).unwrap();
            b.relu(c).unwrap()
        })
        .collect();
    let cat = b.concat(&branches).unwrap();
    b.relu(cat).unwrap();
    b.finish().unwrap()
}

#[test]
fn every_pass_of_a_miss_allocates_the_same_for_a_small_graph_as_for_a_large_one() {
    // 38, 140 (four-way inception concats: the widest inline list) and 158
    // nodes.
    let graphs: Vec<Graph> = [
        ModelFamily::Vgg,
        ModelFamily::GoogleNet,
        ModelFamily::MobileNetV3,
    ]
    .into_iter()
    .map(|f| f.canonical().unwrap())
    .collect();
    assert!(graphs[0].len() < 45 && graphs[2].len() > 150);
    for g in &graphs {
        let p = passes(g);
        assert_eq!(p, passes(g), "{}: the counts are not repeatable", g.name);
        let n = g.len();
        // name + node vector.
        assert!(p.clone <= 3, "{n} nodes: Graph::clone made {}", p.clone);
        assert!(p.rebatch <= 3, "{n} nodes: rebatch made {}", p.rebatch);
        assert_eq!(p.validate, 0, "{n} nodes: validate allocated");
        // The per-node cost vector.
        assert!(
            p.graph_cost <= 2,
            "{n} nodes: graph_cost made {}",
            p.graph_cost
        );
        // CSR successor buffers, the hash vector, one reused record.
        assert!(
            p.graph_hash <= 8,
            "{n} nodes: graph_hash made {}",
            p.graph_hash
        );
        // The exactly-sized buffer, and the frame around the blob.
        assert_eq!(p.encode, 1, "{n} nodes: encode made {}", p.encode);
        assert_eq!(p.wal_frame, 1, "{n} nodes: wal_frame made {}", p.wal_frame);
        assert!(p.decode <= 4, "{n} nodes: decode made {}", p.decode);
        // Fusion, dependency and consumer buffers, the ready heap, the
        // per-stream clocks, the ten timed runs.
        assert!(p.measure <= 24, "{n} nodes: measure made {}", p.measure);
    }
}

#[test]
fn a_spilled_input_list_costs_one_allocation_where_it_is_copied() {
    let g = concat_of(6);
    assert_eq!(g.nodes.iter().filter(|n| n.inputs.len() > 4).count(), 1);
    // Against the same graph with the concat cut to four inputs: every
    // list inline.
    let (wide, narrow) = (passes(&g), passes(&concat_of(4)));
    // Copying or rebuilding the node copies its list; nothing else sees
    // the difference (the encoder appends a wide node's ids one by one).
    assert_eq!(wide.clone, narrow.clone + 1);
    assert_eq!(wide.rebatch, narrow.rebatch + 1);
    assert_eq!(wide.decode, narrow.decode + 1);
    assert_eq!(wide.validate, 0);
    assert_eq!(wide.encode, narrow.encode);
    assert_eq!(wide.wal_frame, narrow.wal_frame);
    assert_eq!(wide.graph_cost, narrow.graph_cost);
    // And the spilled graph is the graph: same answers through every pass.
    assert_eq!(
        serialize::decode(&serialize::encode(&g).unwrap()).unwrap(),
        g
    );
    assert_eq!(graph_hash(&g.clone()), graph_hash(&g));
    assert_eq!(g.rebatch(1).unwrap(), g);
}

/// `train` decodes every stored row, and decoding validates: the one
/// structural walk costs nothing on a well-formed graph of any family.
#[test]
fn validating_every_canonical_family_allocates_nothing() {
    for f in nnlqp_models::family::CORPUS_FAMILIES {
        let g = f.canonical().unwrap();
        let made = allocations_of(|| validate::validate(&g).unwrap());
        assert_eq!(made, 0, "{f} ({} nodes): validate allocated", g.len());
    }
}

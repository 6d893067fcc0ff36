//! Pinned graph-hash values over the canonical model families.
//!
//! `graph_hash` keys the evolving database and every exported trace; a
//! changed hash silently orphans stored measurements. These literals were
//! captured from the pre-optimization (per-node-allocating) implementation
//! — the allocation-free CSR walk must reproduce them byte for byte.

use nnlqp_hash::graph_hash;
use nnlqp_models::ModelFamily;

fn canonical(family: ModelFamily) -> nnlqp_ir::Graph {
    family.canonical().expect("canonical model builds")
}

#[test]
fn pinned_fnv1a_hashes_batch1() {
    for (family, want) in [
        (ModelFamily::SqueezeNet, 0xbc97_fd9a_9c82_bf0d_u64),
        (ModelFamily::ResNet, 0x5aee_cb8c_0d15_6048),
        (ModelFamily::MobileNetV2, 0xdc1d_08b3_85c3_8b4d),
    ] {
        let got = graph_hash(&canonical(family));
        assert_eq!(got, want, "{family:?} batch-1 hash drifted: {got:#018x}");
    }
}

#[test]
fn pinned_fnv1a_hashes_batch4() {
    for (family, want) in [
        (ModelFamily::SqueezeNet, 0xb8b3_963a_5834_3f5b_u64),
        (ModelFamily::ResNet, 0xfaf2_89cd_982c_f1da),
        (ModelFamily::MobileNetV2, 0x4941_6891_4135_a119),
    ] {
        let g = canonical(family).rebatch(4).expect("rebatch to 4");
        let got = graph_hash(&g);
        assert_eq!(got, want, "{family:?} batch-4 hash drifted: {got:#018x}");
    }
}

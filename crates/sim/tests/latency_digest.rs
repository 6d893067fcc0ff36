//! What a representation change of the IR or the simulator must not move:
//! every simulated latency, every kernel record of a schedule, and every
//! byte of a stored graph, over the ten canonical families and four seeded
//! variants of each, on every registry platform, at batch 1 and 8.
//!
//! The three constants were computed at commit `2842905` (before `Shape`
//! and `Node.inputs` went inline and the scheduler went flat); a digest
//! that differs means a simulated answer or a stored byte changed, which
//! invalidates every store and training set written before it.

use nnlqp_ir::{serialize, Graph};
use nnlqp_models::dataset::generate_family;
use nnlqp_models::family::CORPUS_FAMILIES;
use nnlqp_sim::exec::{execute, model_latency_ms};
use nnlqp_sim::PlatformSpec;

const LATENCY_DIGEST: u64 = 0xa81b_f226_a080_bcd0;
const ENCODE_DIGEST: u64 = 0x0ee7_9289_7daf_8736;
const KERNEL_RECORD_DIGEST: u64 = 0xa897_599f_5517_fe0d;

/// Byte-at-a-time FNV-1a, local so the pin shares no code with what it pins.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Canonical graph of each family, then four seeded variants of each, all
/// at batch 1 followed by the same graphs rebatched to 8.
fn graphs() -> Vec<Graph> {
    let mut base: Vec<Graph> = CORPUS_FAMILIES
        .iter()
        .map(|f| f.canonical().unwrap())
        .collect();
    for f in CORPUS_FAMILIES {
        base.extend(generate_family(f, 4, 2022).into_iter().map(|m| m.graph));
    }
    let at8: Vec<Graph> = base.iter().map(|g| g.rebatch(8).unwrap()).collect();
    base.extend(at8);
    base
}

#[test]
fn simulated_latencies_are_bit_identical_to_the_recorded_ones() {
    let platforms = PlatformSpec::registry();
    let mut h = Fnv::new();
    for g in graphs() {
        for p in &platforms {
            let lat = model_latency_ms(&g, p);
            assert_eq!(
                execute(&g, p).latency_ms.to_bits(),
                lat.to_bits(),
                "{} on {}: execute and model_latency_ms disagree",
                g.name,
                p.name
            );
            h.word(lat.to_bits());
        }
    }
    assert_eq!(h.0, LATENCY_DIGEST, "latency digest {:#018x}", h.0);
}

#[test]
fn encoded_graphs_are_byte_identical_to_the_recorded_ones() {
    let mut h = Fnv::new();
    for g in graphs() {
        let blob = serialize::encode(&g).unwrap();
        h.word(blob.len() as u64);
        h.bytes(&blob);
        assert_eq!(serialize::decode(&blob).unwrap(), g, "{}", g.name);
    }
    assert_eq!(h.0, ENCODE_DIGEST, "encode digest {:#018x}", h.0);
}

#[test]
fn kernel_records_are_bit_identical_to_the_recorded_ones() {
    let platforms = PlatformSpec::registry();
    let mut h = Fnv::new();
    for f in CORPUS_FAMILIES {
        let g = f.canonical().unwrap();
        for p in &platforms {
            let trace = execute(&g, p);
            h.word(trace.kernels.len() as u64);
            for k in &trace.kernels {
                let d = &k.desc;
                h.bytes(d.family.name().as_bytes());
                for x in [d.flops, d.read_bytes, d.write_bytes, d.out_elems] {
                    h.word(x.to_bits());
                }
                for x in [
                    d.out_channels,
                    d.out_h,
                    d.kernel_hw,
                    d.groups,
                    d.stride,
                    d.batch,
                ] {
                    h.word(x as u64);
                }
                h.word(k.stream as u64);
                for x in [
                    k.start_ms,
                    k.finish_ms,
                    k.launch_ms,
                    k.compute_ms,
                    k.memory_ms,
                ] {
                    h.word(x.to_bits());
                }
            }
        }
    }
    assert_eq!(h.0, KERNEL_RECORD_DIGEST, "kernel digest {:#018x}", h.0);
}

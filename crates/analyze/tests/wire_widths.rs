//! `serialize::check_fits` held to the round trip it replaced in
//! `NNL009`: a valid graph fits the store's record exactly when the old,
//! wrapping encoder's `decode(encode(g))` keeps its graph hash, `analyze`
//! reports `NNL009` exactly when it does not fit, and `encode` refuses
//! exactly those graphs, writing the old bytes for every other one.
//! Checked over `proptest_ir`'s generator and the canonical corpus, each
//! field set to exactly its wire maximum and to one past it.

#[path = "../../ir/tests/common/mod.rs"]
mod common;

use nnlqp_analyze::{analyze, Code};
use nnlqp_hash::graph_hash;
use nnlqp_ir::{serialize, validate::validate, Graph, GraphBuilder, NodeId, OpType, Shape};
use nnlqp_models::family::{ModelFamily, CORPUS_FAMILIES};
use proptest::prelude::*;

/// The encoder as it was before it refused wide fields: every field
/// narrowed with `as`, wrapping silently. The reference, not the code
/// under test.
fn encode_wrapping(g: &Graph) -> Vec<u8> {
    fn put_shape(buf: &mut Vec<u8>, s: &Shape) {
        buf.push(s.rank() as u8);
        for &d in s.dims() {
            buf.extend_from_slice(&(d as u32).to_le_bytes());
        }
    }
    let mut buf = b"NLQP\x01".to_vec();
    buf.extend_from_slice(&(g.name.len() as u16).to_le_bytes());
    buf.extend_from_slice(g.name.as_bytes());
    put_shape(&mut buf, &g.input_shape);
    buf.extend_from_slice(&(g.len() as u32).to_le_bytes());
    for n in &g.nodes {
        let a = &n.attrs;
        buf.push(n.op.code() as u8);
        for v in a.kernel {
            buf.extend_from_slice(&(v as u16).to_le_bytes());
        }
        for v in [a.stride, a.pad, a.dilation].concat() {
            buf.push(v as u8);
        }
        buf.extend_from_slice(&(a.groups as u16).to_le_bytes());
        buf.extend_from_slice(&(a.out_channels as u16).to_le_bytes());
        buf.push(a.axis as u8);
        buf.extend_from_slice(&a.clip_min.to_le_bytes());
        buf.extend_from_slice(&a.clip_max.to_le_bytes());
        buf.push(n.inputs.len() as u8);
        for &i in &n.inputs {
            buf.extend_from_slice(&i.0.to_le_bytes());
        }
        put_shape(&mut buf, &n.out_shape);
    }
    buf
}

/// The three ways of asking whether the store can hold `g` agree.
fn assert_agree(g: &Graph, case: &str) {
    assert_eq!(
        validate(g),
        Ok(()),
        "{case}: the round trip is defined on valid graphs"
    );
    let fits = serialize::check_fits(g);
    let kept =
        serialize::decode(&encode_wrapping(g)).is_ok_and(|b| graph_hash(&b) == graph_hash(g));
    assert_eq!(fits.is_ok(), kept, "{case}: check_fits says {fits:?}");
    let report = analyze(g, None);
    assert_eq!(
        report.has_code(Code::HashNotCanonical),
        fits.is_err(),
        "{case}:\n{}",
        report.render_text()
    );
    match serialize::encode(g) {
        Ok(bytes) => assert!(bytes == encode_wrapping(g), "{case}: stored bytes moved"),
        Err(e) => assert_eq!(Err(e), fits, "{case}"),
    }
}

/// A wire field, its largest storable value, and how to set it on `g`
/// without invalidating it: attributes go on `host`, a node whose
/// operator ignores them; a dim is the batch, so rebatching keeps every
/// shape consistent.
struct Field {
    name: &'static str,
    max: u64,
    set: fn(&Graph, usize, u64) -> Graph,
}

fn set_attr(g: &Graph, host: usize, edit: impl FnOnce(&mut nnlqp_ir::Attrs)) -> Graph {
    let mut g = g.clone();
    edit(&mut g.nodes.make_mut()[host].attrs);
    g
}

const FIELDS: [Field; 9] = [
    Field {
        name: "kernel",
        max: 65_535,
        set: |g, h, v| set_attr(g, h, |a| a.kernel[1] = v as u32),
    },
    Field {
        name: "stride",
        max: 255,
        set: |g, h, v| set_attr(g, h, |a| a.stride[0] = v as u32),
    },
    Field {
        name: "pad",
        max: 255,
        set: |g, h, v| set_attr(g, h, |a| a.pad[1] = v as u32),
    },
    Field {
        name: "dilation",
        max: 255,
        set: |g, h, v| set_attr(g, h, |a| a.dilation[0] = v as u32),
    },
    Field {
        name: "groups",
        max: 65_535,
        set: |g, h, v| set_attr(g, h, |a| a.groups = v as u32),
    },
    Field {
        name: "out_channels",
        max: 65_535,
        set: |g, h, v| set_attr(g, h, |a| a.out_channels = v as u32),
    },
    Field {
        name: "axis",
        max: 255,
        set: |g, h, v| set_attr(g, h, |a| a.axis = v as u32),
    },
    Field {
        name: "name length",
        max: 65_535,
        set: |g, _, v| {
            let mut g = g.clone();
            g.name = "n".repeat(v as usize);
            g
        },
    },
    Field {
        name: "dim",
        max: u32::MAX as u64,
        set: |g, _, v| g.rebatch(v as usize).expect("a batch never breaks a shape"),
    },
];

/// A node whose shape inference reads none of the fixed attributes.
fn host(g: &Graph) -> usize {
    g.nodes
        .iter()
        .position(|n| {
            matches!(
                n.op,
                OpType::Relu | OpType::Clip | OpType::Sigmoid | OpType::GlobalAveragePool
            )
        })
        .expect("every test graph has an activation or a global pool")
}

/// `g` with each field at exactly its maximum, then one past it.
fn assert_boundaries_agree(g: &Graph) {
    assert_agree(g, &g.name);
    let h = host(g);
    for f in &FIELDS {
        for v in [f.max, f.max + 1] {
            assert_agree(&(f.set)(g, h, v), &format!("{} {} = {v}", g.name, f.name));
        }
    }
}

#[test]
fn corpus_graphs_at_and_past_every_wire_width_agree() {
    for family in CORPUS_FAMILIES.into_iter().chain([ModelFamily::Detection]) {
        assert_boundaries_agree(&family.canonical().unwrap());
    }
}

/// Fields the operator does read, at and past their widths, built so that
/// every shape follows from them.
#[test]
fn live_fields_at_and_past_their_widths_agree() {
    type Build = fn(&mut GraphBuilder, u32) -> NodeId;
    let cases: [(&str, u32, Shape, Build); 6] = [
        ("stride", 255, Shape::nchw(1, 3, 512, 512), |b, v| {
            b.conv(None, 8, 1, v, 0, 1).unwrap()
        }),
        ("pad", 255, Shape::nchw(1, 3, 8, 8), |b, v| {
            b.conv(None, 8, 1, 1, v, 1).unwrap()
        }),
        ("out_channels", 65_535, Shape::nchw(1, 3, 2, 2), |b, v| {
            b.conv(None, v, 1, 1, 0, 1).unwrap()
        }),
        (
            "kernel",
            65_535,
            Shape::nchw(1, 1, 65_536, 65_536),
            |b, v| b.conv(None, 1, v, 1, 0, 1).unwrap(),
        ),
        ("groups", 65_535, Shape::nchw(1, 3, 1, 1), |b, v| {
            let c = b.conv(None, v, 1, 1, 0, 1).unwrap();
            b.conv(Some(c), v, 1, 1, 0, v).unwrap()
        }),
        ("fan-in", 255, Shape::nchw(1, 3, 4, 4), |b, v| {
            let c = b.conv(None, 2, 1, 1, 0, 1).unwrap();
            b.concat(&vec![c; v as usize]).unwrap()
        }),
    ];
    for (field, max, input, build) in cases {
        for v in [max, max + 1] {
            let mut b = GraphBuilder::new(format!("{field} = {v}"), input);
            let out = build(&mut b, v);
            b.relu(out).unwrap();
            let g = b.finish().unwrap();
            assert_agree(&g, &g.name);
        }
    }
}

#[test]
fn an_unsound_graph_too_wide_for_the_store_is_still_nnl009() {
    // A stride past its byte on a live conv, its shapes left as they
    // were: NNL004 for the shapes, and NNL009 beside it, since the width
    // check needs no edges.
    let mut g = ModelFamily::ResNet.canonical().unwrap();
    g.nodes.make_mut()[0].attrs.stride[0] = 256;
    assert!(serialize::check_fits(&g).is_err());
    let report = analyze(&g, None);
    assert!(
        report.has_code(Code::ShapeMismatch),
        "{}",
        report.render_text()
    );
    assert!(
        report.has_code(Code::HashNotCanonical),
        "{}",
        report.render_text()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_graphs_at_and_past_every_wire_width_agree(seed in any::<u64>()) {
        assert_boundaries_agree(&common::random_graph(seed));
    }
}

//! Compact binary serialization of graphs.
//!
//! The evolving database stores models "ONNX format without weights ...
//! hundreds of bytes" per record (§5.2). This module provides exactly that:
//! a versioned, weight-free binary encoding (a few bytes per node) plus JSON
//! helpers for human-readable export.

use crate::attrs::Attrs;
use crate::codec::{narrow, Reader};
use crate::error::{IrError, IrResult};
use crate::graph::Graph;
use crate::node::{Node, NodeId, NodeIds};
use crate::op::OpType;
use crate::shape::{Shape, MAX_RANK};

const MAGIC: &[u8; 4] = b"NLQP";
const VERSION: u8 = 1;

// A node on the wire: a fixed attribute body, a fan-in byte, the input ids,
// then the output shape (a rank byte and its dims), every integer
// little-endian. 26 bytes at the least, 49 for the common one-input rank-4
// node.
const ATTR_BYTES: usize = 24;
const NODE_FIXED_BYTES: usize = ATTR_BYTES + 1;
const MIN_NODE_BYTES: usize = NODE_FIXED_BYTES + 1;
const MAX_SHAPE_BYTES: usize = 1 + 4 * MAX_RANK;
/// Fan-in up to which `encode` stages a node's whole record on the stack
/// and appends it in one copy; a wider node appends its ids one by one.
const STAGED_INPUTS: usize = 4;
const STAGE_BYTES: usize = NODE_FIXED_BYTES + 4 * STAGED_INPUTS + MAX_SHAPE_BYTES;

fn shape_bytes(s: &Shape) -> usize {
    1 + 4 * s.rank()
}

/// Write a shape at the start of `dst`; returns the bytes written.
fn stage_shape(dst: &mut [u8], node: Option<u32>, s: &Shape) -> IrResult<usize> {
    dst[0] = narrow(node, "rank", s.rank() as u64)?;
    for (slot, &d) in dst[1..].chunks_exact_mut(4).zip(s.dims()) {
        slot.copy_from_slice(&narrow::<u32>(node, "dim", d as u64)?.to_le_bytes());
    }
    Ok(shape_bytes(s))
}

/// Write a node's attribute body and fan-in byte.
fn stage_fixed(rec: &mut [u8; STAGE_BYTES], node: Option<u32>, n: &Node) -> IrResult<()> {
    let a = &n.attrs;
    let byte = |field, v: u32| narrow::<u8>(node, field, v.into());
    let u16_le = |field, v: u32| narrow::<u16>(node, field, v.into()).map(u16::to_le_bytes);
    rec[0] = narrow(node, "op code", n.op.code() as u64)?;
    rec[1..3].copy_from_slice(&u16_le("kernel", a.kernel[0])?);
    rec[3..5].copy_from_slice(&u16_le("kernel", a.kernel[1])?);
    rec[5] = byte("stride", a.stride[0])?;
    rec[6] = byte("stride", a.stride[1])?;
    rec[7] = byte("pad", a.pad[0])?;
    rec[8] = byte("pad", a.pad[1])?;
    rec[9] = byte("dilation", a.dilation[0])?;
    rec[10] = byte("dilation", a.dilation[1])?;
    rec[11..13].copy_from_slice(&u16_le("groups", a.groups)?);
    rec[13..15].copy_from_slice(&u16_le("out_channels", a.out_channels)?);
    rec[15] = byte("axis", a.axis)?;
    rec[16..20].copy_from_slice(&a.clip_min.to_le_bytes());
    rec[20..24].copy_from_slice(&a.clip_max.to_le_bytes());
    rec[ATTR_BYTES] = narrow(node, "fan-in", n.inputs.len() as u64)?;
    Ok(())
}

/// Stage `g`'s records in order and hand each to `out`, stopping at the
/// first field too wide for the wire.
fn write(g: &Graph, out: &mut impl FnMut(&[u8])) -> IrResult<()> {
    let name = g.name.as_bytes();
    out(MAGIC);
    out(&[VERSION]);
    out(&narrow::<u16>(None, "name length", name.len() as u64)?.to_le_bytes());
    out(name);
    let mut rec = [0u8; STAGE_BYTES];
    let at = stage_shape(&mut rec, None, &g.input_shape)?;
    let count = narrow::<u32>(None, "node count", g.len() as u64)?;
    rec[at..at + 4].copy_from_slice(&count.to_le_bytes());
    out(&rec[..at + 4]);
    for (id, n) in g.nodes.iter().enumerate() {
        let node = u32::try_from(id).ok();
        stage_fixed(&mut rec, node, n)?;
        let mut at = NODE_FIXED_BYTES;
        if n.inputs.len() <= STAGED_INPUTS {
            for &i in &n.inputs {
                rec[at..at + 4].copy_from_slice(&i.0.to_le_bytes());
                at += 4;
            }
        } else {
            out(&rec[..at]);
            for &i in &n.inputs {
                out(&i.0.to_le_bytes());
            }
            at = 0;
        }
        at += stage_shape(&mut rec[at..], node, &n.out_shape)?;
        out(&rec[..at]);
    }
    Ok(())
}

/// Check, allocating nothing, that every field of `g` fits the store's
/// record: kernel, groups, out_channels and the name's byte length a
/// `u16`; stride, pad, dilation, axis and fan-in a `u8`; every dim a
/// `u32`. It is [`encode`]'s own walk with the bytes discarded.
pub fn check_fits(g: &Graph) -> IrResult<()> {
    write(g, &mut |_| {})
}

/// Encode a graph to its compact binary form, or return the
/// [`check_fits`] error: `encode` never truncates.
pub fn encode(g: &Graph) -> IrResult<Vec<u8>> {
    let size = MAGIC.len()
        + 1
        + 2
        + g.name.len()
        + shape_bytes(&g.input_shape)
        + 4
        + g.nodes
            .iter()
            .map(|n| NODE_FIXED_BYTES + 4 * n.inputs.len() + shape_bytes(&n.out_shape))
            .sum::<usize>();
    let mut buf: Vec<u8> = Vec::with_capacity(size);
    write(g, &mut |b| buf.extend_from_slice(b))?;
    debug_assert_eq!(buf.len(), size);
    Ok(buf)
}

/// A shape as [`stage_shape`] wrote it.
fn read_shape(r: &mut Reader) -> IrResult<Shape> {
    let rank = usize::from(r.u8()?);
    // Refuse the rank before believing it: a rank-200 shape must not
    // read as 800 bytes of dims.
    Shape::check_rank(rank)?;
    let mut dims = [0usize; MAX_RANK];
    for d in &mut dims[..rank] {
        *d = r.u32()? as usize;
    }
    Shape::from_dims(&dims[..rank])
}

/// Decode and validate a graph previously produced by [`encode`].
pub fn decode(buf: &[u8]) -> IrResult<Graph> {
    let mut r = Reader::new(buf, "graph");
    r.header(MAGIC, VERSION)?;
    let name_len = r.u16()?.into();
    let name = r.take(name_len).and_then(|raw| r.utf8(raw))?;
    let input_shape = read_shape(&mut r)?;
    let count = r.count(MIN_NODE_BYTES)?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let op = OpType::from_code(r.u8()?).ok_or_else(|| r.bad("unknown op code"))?;
        let attrs = Attrs {
            kernel: [r.u16()?.into(), r.u16()?.into()],
            stride: [r.u8()?.into(), r.u8()?.into()],
            pad: [r.u8()?.into(), r.u8()?.into()],
            dilation: [r.u8()?.into(), r.u8()?.into()],
            groups: r.u16()?.into(),
            out_channels: r.u16()?.into(),
            axis: r.u8()?.into(),
            clip_min: r.f32()?,
            clip_max: r.f32()?,
        };
        let mut inputs = NodeIds::new();
        for _ in 0..r.u8()? {
            inputs.push(NodeId(r.u32()?));
        }
        let out_shape = read_shape(&mut r)?;
        nodes.push(Node {
            op,
            attrs,
            inputs,
            out_shape,
        });
    }
    r.finish()?;
    let g = Graph {
        name,
        input_shape,
        nodes: nodes.into(),
    };
    crate::validate::validate(&g)?;
    Ok(g)
}

/// JSON export (pretty, keys sorted): shapes as plain arrays, ops by
/// canonical name.
pub fn to_json(g: &Graph) -> String {
    let nodes: Vec<crate::json::Value> = g
        .nodes
        .iter()
        .map(|n| {
            let inputs: Vec<u32> = n.inputs.iter().map(|i| i.0).collect();
            crate::json!({
                "op": n.op.name(),
                "attrs": {
                    "kernel": n.attrs.kernel,
                    "stride": n.attrs.stride,
                    "pad": n.attrs.pad,
                    "dilation": n.attrs.dilation,
                    "groups": n.attrs.groups,
                    "out_channels": n.attrs.out_channels,
                    "axis": n.attrs.axis,
                    "clip_min": n.attrs.clip_min,
                    "clip_max": n.attrs.clip_max,
                },
                "inputs": inputs,
                "out_shape": n.out_shape.dims(),
            })
        })
        .collect();
    let v = crate::json!({
        "name": g.name,
        "input_shape": g.input_shape.dims(),
        "nodes": nodes,
    });
    v.to_string_pretty()
}

/// JSON import with validation.
pub fn from_json(s: &str) -> IrResult<Graph> {
    let g = from_json_unchecked(s)?;
    crate::validate::validate(&g)?;
    Ok(g)
}

/// JSON import without validation — for diagnostic tools (`nnlqp lint`)
/// that report on malformed graphs rather than refusing to open them.
pub fn from_json_unchecked(s: &str) -> IrResult<Graph> {
    let v = s
        .parse::<crate::json::Value>()
        .map_err(|e| IrError::Decode(e.to_string()))?;
    let bad = |what: &str| IrError::Decode(format!("missing or malformed {what}"));

    let name = v["name"].as_str().ok_or_else(|| bad("name"))?.to_string();
    let input_shape = json_shape(&v["input_shape"], "input_shape")?;
    let raw_nodes = v["nodes"].as_array().ok_or_else(|| bad("nodes"))?;
    let mut nodes = Vec::with_capacity(raw_nodes.len());
    for (i, n) in raw_nodes.iter().enumerate() {
        let op = n["op"]
            .as_str()
            .and_then(OpType::parse)
            .ok_or_else(|| bad(&format!("nodes[{i}].op")))?;
        let a = &n["attrs"];
        let attrs = Attrs {
            kernel: u32_pair(&a["kernel"]).ok_or_else(|| bad(&format!("nodes[{i}].kernel")))?,
            stride: u32_pair(&a["stride"]).ok_or_else(|| bad(&format!("nodes[{i}].stride")))?,
            pad: u32_pair(&a["pad"]).ok_or_else(|| bad(&format!("nodes[{i}].pad")))?,
            dilation: u32_pair(&a["dilation"])
                .ok_or_else(|| bad(&format!("nodes[{i}].dilation")))?,
            groups: u32_field(&a["groups"]).ok_or_else(|| bad(&format!("nodes[{i}].groups")))?,
            out_channels: u32_field(&a["out_channels"])
                .ok_or_else(|| bad(&format!("nodes[{i}].out_channels")))?,
            axis: u32_field(&a["axis"]).ok_or_else(|| bad(&format!("nodes[{i}].axis")))?,
            clip_min: a["clip_min"].as_f64().ok_or_else(|| bad("clip_min"))? as f32,
            clip_max: a["clip_max"].as_f64().ok_or_else(|| bad("clip_max"))? as f32,
        };
        let inputs = n["inputs"]
            .as_array()
            .ok_or_else(|| bad(&format!("nodes[{i}].inputs")))?
            .iter()
            .map(|x| u32_field(x).map(NodeId))
            .collect::<Option<Vec<NodeId>>>()
            .ok_or_else(|| bad(&format!("nodes[{i}].inputs")))?
            .into();
        let out_shape = json_shape(&n["out_shape"], &format!("nodes[{i}].out_shape"))?;
        nodes.push(Node {
            op,
            attrs,
            inputs,
            out_shape,
        });
    }
    Ok(Graph {
        name,
        input_shape,
        nodes: nodes.into(),
    })
}

fn json_shape(v: &crate::json::Value, what: &str) -> IrResult<Shape> {
    let dims: Vec<usize> = v
        .as_array()
        .and_then(|a| a.iter().map(|d| d.as_u64().map(|d| d as usize)).collect())
        .ok_or_else(|| IrError::Decode(format!("missing or malformed {what}")))?;
    Shape::from_dims(&dims)
}

/// A whole number that fits a `u32`; a larger one is refused, not
/// wrapped into another graph's value.
fn u32_field(v: &crate::json::Value) -> Option<u32> {
    v.as_u64().and_then(|x| u32::try_from(x).ok())
}

fn u32_pair(v: &crate::json::Value) -> Option<[u32; 2]> {
    let a = v.as_array()?;
    match a.as_slice() {
        [x, y] => Some([u32_field(x)?, u32_field(y)?]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new("sample-net", Shape::nchw(1, 3, 32, 32));
        let c1 = b.conv(None, 16, 3, 2, 1, 1).unwrap();
        let r1 = b.relu6(c1).unwrap();
        let d = b.dwconv(r1, 3, 1, 1).unwrap();
        let s = b.swish(d).unwrap();
        let c2 = b.conv(Some(s), 16, 1, 1, 0, 1).unwrap();
        let a = b.add(r1, c2).unwrap();
        let p = b.global_avgpool(a).unwrap();
        let f = b.flatten(p).unwrap();
        b.gemm(f, 10).unwrap();
        b.finish().unwrap()
    }

    /// stem -> six 1x1 branches -> one concat: fan-in past the inline and
    /// staged limits, so the spill paths of `NodeIds`, `encode` and
    /// `decode` all run.
    fn wide_concat() -> Graph {
        let mut b = GraphBuilder::new("wide", Shape::nchw(1, 3, 16, 16));
        let stem = b.conv(None, 8, 3, 1, 1, 1).unwrap();
        let branches: Vec<NodeId> = (0..6)
            .map(|k| b.conv(Some(stem), 4 + k, 1, 1, 0, 1).unwrap())
            .collect();
        let cat = b.concat(&branches).unwrap();
        b.relu(cat).unwrap();
        b.finish().unwrap()
    }

    /// The format, one field at a time: what `encode` wrote before it
    /// staged records, kept as the oracle for the staged writer (for
    /// graphs that fit; the narrowing conversions panic on one that does
    /// not).
    fn encode_field_by_field(g: &Graph) -> Vec<u8> {
        fn narrow<T: TryFrom<u64>>(v: impl TryInto<u64>) -> T {
            let v = v.try_into().ok().expect("a u64 holds every field");
            T::try_from(v).ok().expect("the test graphs fit")
        }
        fn put_shape(buf: &mut Vec<u8>, s: &Shape) {
            buf.push(narrow(s.rank()));
            for &d in s.dims() {
                buf.extend_from_slice(&narrow::<u32>(d).to_le_bytes());
            }
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&narrow::<u16>(g.name.len()).to_le_bytes());
        buf.extend_from_slice(g.name.as_bytes());
        put_shape(&mut buf, &g.input_shape);
        buf.extend_from_slice(&narrow::<u32>(g.len()).to_le_bytes());
        for n in &g.nodes {
            let a = &n.attrs;
            buf.push(narrow(n.op.code()));
            for v in a.kernel {
                buf.extend_from_slice(&narrow::<u16>(v).to_le_bytes());
            }
            for v in [a.stride, a.pad, a.dilation].concat() {
                buf.push(narrow(v));
            }
            buf.extend_from_slice(&narrow::<u16>(a.groups).to_le_bytes());
            buf.extend_from_slice(&narrow::<u16>(a.out_channels).to_le_bytes());
            buf.push(narrow(a.axis));
            buf.extend_from_slice(&a.clip_min.to_le_bytes());
            buf.extend_from_slice(&a.clip_max.to_le_bytes());
            buf.push(narrow(n.inputs.len()));
            for &i in &n.inputs {
                buf.extend_from_slice(&i.0.to_le_bytes());
            }
            put_shape(&mut buf, &n.out_shape);
        }
        buf
    }

    /// Offset of the `u32` node count in `g`'s encoding.
    fn count_offset(g: &Graph) -> usize {
        MAGIC.len() + 1 + 2 + g.name.len() + shape_bytes(&g.input_shape)
    }

    #[test]
    fn out_of_range_integers_are_refused_not_wrapped() {
        let compact = to_json(&sample())
            .parse::<crate::json::Value>()
            .unwrap()
            .to_string();
        for (from, to) in [
            ("\"kernel\":[3,3]", "\"kernel\":[4294967299,3]"),
            ("\"groups\":1", "\"groups\":4294967297"),
            ("\"inputs\":[0]", "\"inputs\":[4294967296]"),
        ] {
            assert!(compact.contains(from), "{from}");
            let edited = compact.replacen(from, to, 1);
            assert!(from_json_unchecked(&edited).is_err(), "{to} loaded");
        }
        // The largest `u32` still reads back as itself.
        let edited = compact.replacen("\"groups\":1", "\"groups\":4294967295", 1);
        let g = from_json_unchecked(&edited).unwrap();
        assert!(g.nodes.iter().any(|n| n.attrs.groups == u32::MAX));
    }

    #[test]
    fn staged_records_are_the_field_by_field_bytes() {
        for g in [sample(), wide_concat()] {
            let staged = encode(&g).unwrap();
            assert_eq!(staged, encode_field_by_field(&g), "{}", g.name);
            assert_eq!(decode(&staged).unwrap(), g, "{}", g.name);
        }
    }

    #[test]
    fn a_field_past_its_width_is_refused_not_wrapped() {
        let g = sample();
        assert_eq!(check_fits(&g), Ok(()));
        for (field, max) in [("stride", 255), ("kernel", 65_535), ("groups", 65_535)] {
            for v in [max, max + 1] {
                let mut edited = g.clone();
                let a = &mut edited.nodes.make_mut()[0].attrs;
                match field {
                    "stride" => a.stride[1] = v,
                    "kernel" => a.kernel[0] = v,
                    _ => a.groups = v,
                }
                let fits = check_fits(&edited);
                assert_eq!(fits.is_ok(), v == max, "{field} {v}");
                assert_eq!(encode(&edited).map(|_| ()), fits);
                if let Err(e) = fits {
                    assert_eq!(
                        e.to_string(),
                        format!(
                            "node 0: {field} {v} overflows the stored u{}",
                            if max == 255 { 8 } else { 16 }
                        )
                    );
                }
            }
        }
        let mut long = g;
        long.name = "x".repeat(65_536);
        assert!(matches!(
            encode(&long),
            Err(IrError::DoesNotFit {
                node: None,
                field: "name length",
                value: 65_536,
                ..
            })
        ));
    }

    #[test]
    fn announced_node_count_is_not_trusted_for_the_reservation() {
        // A valid blob whose count says u32::MAX: reserving for it would
        // abort the process in the allocator.
        let g = sample();
        let mut raw = encode(&g).unwrap();
        let at = count_offset(&g);
        assert_eq!(raw[at..at + 4], (g.len() as u32).to_le_bytes());
        raw[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&raw), Err(IrError::Decode(_))));
    }

    #[test]
    fn rank_200_shape_is_a_decode_error_naming_the_rank() {
        let g = sample();
        let clean = encode(&g).unwrap();
        // The graph input shape's rank byte, then the first node's.
        let input_rank_at = count_offset(&g) - shape_bytes(&g.input_shape);
        let node_rank_at = count_offset(&g) + 4 + NODE_FIXED_BYTES;
        for at in [input_rank_at, node_rank_at] {
            assert_eq!(clean[at], 4);
            let mut raw = clean.clone();
            raw[at] = 200;
            match decode(&raw) {
                Err(IrError::Decode(d)) => assert!(d.contains("rank 200"), "{d}"),
                other => panic!("expected a decode error, got {other:?}"),
            }
        }
        let json = to_json(&g).replacen("\"input_shape\": [", "\"input_shape\": [1, 1, ", 1);
        match from_json_unchecked(&json) {
            Err(IrError::Decode(d)) => assert!(d.contains("rank 6"), "{d}"),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn fan_in_255_node_is_a_decode_error() {
        let g = sample();
        let mut raw = encode(&g).unwrap();
        let at = count_offset(&g) + 4 + ATTR_BYTES;
        assert_eq!(raw[at], 0, "the first node reads the graph input");
        raw[at] = 255;
        assert!(matches!(decode(&raw), Err(IrError::Decode(_))));
    }

    #[test]
    fn binary_roundtrip_identity() {
        let g = sample();
        let bytes = encode(&g).unwrap();
        let g2 = decode(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn json_roundtrip_identity() {
        let g = sample();
        let g2 = from_json(&to_json(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn storage_is_hundreds_of_bytes() {
        let g = sample();
        let n = encode(&g).unwrap().len();
        // The paper: "Each model record uses the storage of hundreds of bytes".
        assert!(n > 100 && n < 2000, "storage {n} bytes");
    }

    #[test]
    fn bad_magic_rejected() {
        let g = sample();
        let mut raw = encode(&g).unwrap();
        raw[0] = b'X';
        assert!(matches!(decode(&raw), Err(IrError::Decode(_))));
    }

    #[test]
    fn truncation_rejected_not_panic() {
        let g = sample();
        let raw = encode(&g).unwrap();
        for cut in [0, 3, 5, 10, raw.len() / 2, raw.len() - 1] {
            assert!(decode(&raw[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupted_topology_fails_validation() {
        let g = sample();
        let mut raw = encode(&g).unwrap();
        // Flip a byte late in the stream until decode fails or validation
        // catches an inconsistency; decode must never panic.
        for i in (raw.len() - 20)..raw.len() {
            let mut r = raw.clone();
            r[i] ^= 0xFF;
            let _ = decode(&r); // must not panic
        }
        raw[6] ^= 0xFF;
        let _ = decode(&raw);
    }
}

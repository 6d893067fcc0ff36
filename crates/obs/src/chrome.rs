//! Chrome-trace (`chrome://tracing` / Perfetto) export.
//!
//! Emits the JSON Object Format: `{"traceEvents": [...]}` where every
//! span becomes a complete event (`"ph": "X"`) with microsecond `ts` /
//! `dur`. Track groups map to trace *processes* and lanes to *threads*,
//! with metadata events naming both — so Perfetto shows `device` streams
//! and the `query` pipeline as separately labelled swimlanes.
//!
//! The exporter is hand-rolled string building on purpose: it keeps this
//! crate dependency-free and the output byte-deterministic, which the
//! golden trace tests rely on.

use crate::events::push_json_str;
use crate::span::{Span, Timeline};
use std::fmt::Write as _;

/// Format a simulated-ms value as microseconds (Chrome-trace's unit).
fn us(ms: f64) -> String {
    // Shortest round-trip float formatting: deterministic and valid JSON.
    format!("{}", ms * 1000.0)
}

fn push_meta(out: &mut String, name: &str, pid: usize, tid: Option<u32>, label: &str) {
    out.push_str("    {\"name\": \"");
    out.push_str(name);
    let _ = write!(out, "\", \"ph\": \"M\", \"pid\": {pid}, ");
    if let Some(tid) = tid {
        let _ = write!(out, "\"tid\": {tid}, ");
    }
    out.push_str("\"args\": {\"name\": ");
    push_json_str(out, label);
    out.push_str("}},\n");
}

/// Render a timeline as a Chrome-trace JSON document.
pub fn to_chrome_json(timeline: &Timeline) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");

    // Stable pid assignment: order of first appearance in the (sorted)
    // timeline. pid 0 is reserved by some viewers; start at 1.
    let tracks = timeline.tracks();
    let mut groups: Vec<&str> = Vec::new();
    for t in &tracks {
        if !groups.contains(&t.group.as_str()) {
            groups.push(&t.group);
        }
    }
    let pid_of = |group: &str| -> usize {
        1 + groups
            .iter()
            .position(|g| *g == group)
            .expect("group registered")
    };

    for (i, g) in groups.iter().enumerate() {
        push_meta(&mut out, "process_name", i + 1, None, g);
    }
    for t in &tracks {
        push_meta(
            &mut out,
            "thread_name",
            pid_of(&t.group),
            Some(t.lane),
            &format!("{} {}", t.group, t.lane),
        );
    }

    let mut first = true;
    for s in &timeline.spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("    ");
        push_event(&mut out, s, pid_of(&s.track.group));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn push_event(out: &mut String, s: &Span, pid: usize) {
    out.push_str("{\"name\": ");
    push_json_str(out, &s.name);
    out.push_str(", \"cat\": ");
    push_json_str(out, &s.cat);
    let _ = write!(
        out,
        ", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {}, \"ts\": {}, \"dur\": {}",
        s.track.lane,
        us(s.start_ms),
        us(s.dur_ms),
    );
    if !s.args.is_empty() {
        out.push_str(", \"args\": {");
        for (i, (k, v)) in s.args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_str(out, k);
            out.push_str(": ");
            // Numeric-looking values stay numbers so Perfetto can plot
            // them; everything else is a string.
            if v.parse::<f64>().is_ok() {
                out.push_str(v);
            } else {
                push_json_str(out, v);
            }
        }
        out.push('}');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Recorder, Track};

    fn sample() -> Timeline {
        let r = Recorder::new();
        r.record(
            Span::new("hash", "stage", Track::new("query", 0), 0.0, 1.5).arg("graph_hash", 42),
        );
        r.record(
            Span::new("Conv+Relu", "kernel", Track::new("device", 0), 0.5, 0.25)
                .arg("flops", 1.0e6)
                .arg("family", "Conv+Relu"),
        );
        r.record(Span::new(
            "MaxPool",
            "kernel",
            Track::new("device", 1),
            0.5,
            0.1,
        ));
        r.timeline()
    }

    #[test]
    fn export_structure() {
        let json = to_chrome_json(&sample());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        // ms -> us conversion.
        assert!(json.contains("\"ts\": 500, \"dur\": 250"), "{json}");
        // Numeric args stay numbers, strings are quoted.
        assert!(json.contains("\"graph_hash\": 42"));
        assert!(json.contains("\"family\": \"Conv+Relu\""));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(to_chrome_json(&sample()), to_chrome_json(&sample()));
    }

    #[test]
    fn escaping_control_characters() {
        let escape = |s: &str| {
            let mut out = String::new();
            push_json_str(&mut out, s);
            out[1..out.len() - 1].to_string()
        };
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}

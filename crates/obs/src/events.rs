//! Bounded structured event log, rendered as JSONL.
//!
//! The serving layer appends one event per interesting transition — a
//! query's terminal outcome, a shadow-evaluation result, a drift alert, a
//! retrain start/finish — and the log keeps the most recent `capacity`
//! events in a ring (dropping the oldest, counting the drops). Every
//! event carries a process-unique monotonically increasing `seq` assigned
//! under the log's lock, so the rendered JSONL has one deterministic total
//! order regardless of producer interleaving; under the deterministic sim
//! clock a fixed single-threaded workload reproduces the log byte for
//! byte.
//!
//! The ring reuses its slots: kinds and field keys are `&'static str`, a
//! string value borrows when it can, and a full log clears the oldest
//! event's field buffer and refills it in place, so a steady stream of
//! events of one shape appends without the allocator.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One typed field value (JSONL renders each with its native JSON type).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Float (non-finite values render as strings, like the metrics JSON).
    F64(f64),
    /// String: borrowed when it is `'static` (a registry name, a class),
    /// owned otherwise.
    Str(Cow<'static, str>),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Log-assigned sequence number (total order).
    pub seq: u64,
    /// Event kind, e.g. `"query"`, `"shadow_eval"`, `"drift_alert"`,
    /// `"retrain_start"`, `"retrain_finish"`.
    pub kind: &'static str,
    /// Typed payload fields, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Render as one JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"seq\": {}, \"event\": ", self.seq);
        push_json_str(&mut out, self.kind);
        for (k, v) in &self.fields {
            out.push_str(", ");
            push_json_str(&mut out, k);
            out.push_str(": ");
            match v {
                FieldValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                FieldValue::F64(f) if f.is_finite() => {
                    let _ = write!(out, "{f}");
                }
                FieldValue::F64(f) => push_json_str(&mut out, &format!("{f}")),
                FieldValue::Str(s) => push_json_str(&mut out, s),
                FieldValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// Append `s` as a quoted JSON string: `"` and `\` escaped, newline,
/// carriage return and tab by letter, other control characters as
/// `\u00XX`. The crate's one escaper: the Chrome trace writes with it too.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct LogInner {
    next_seq: u64,
    dropped: u64,
    events: VecDeque<Event>,
}

/// The bounded event log. Share with `Arc`; `emit` from any thread.
pub struct EventLog {
    cap: usize,
    inner: Mutex<LogInner>,
}

impl EventLog {
    /// A log keeping the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            cap: capacity.max(1),
            inner: Mutex::new(LogInner {
                next_seq: 0,
                dropped: 0,
                events: VecDeque::new(),
            }),
        }
    }

    /// Append one event; returns its sequence number. When full, the
    /// oldest event is dropped (and counted) and its slot refilled.
    pub fn emit(
        &self,
        kind: &'static str,
        fields: impl IntoIterator<Item = (&'static str, FieldValue)>,
    ) -> u64 {
        let mut inner = self.inner.lock().expect("event log lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.cap {
            let mut slot = inner.events.pop_front().expect("a full log holds events");
            inner.dropped += 1;
            slot.seq = seq;
            slot.kind = kind;
            slot.fields.clear();
            slot.fields.extend(fields);
            inner.events.push_back(slot);
        } else {
            inner.events.push_back(Event {
                seq,
                kind,
                fields: fields.into_iter().collect(),
            });
        }
        seq
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("event log lock").events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("event log lock").dropped
    }

    /// Copy of the retained events, in sequence order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("event log lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Render the retained events as JSONL (one JSON object per line,
    /// trailing newline after each).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.snapshot() {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_bound_drops_oldest_and_counts() {
        let log = EventLog::new(2);
        for i in 0..5u64 {
            log.emit("query", [("i", i.into())]);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let events = log.snapshot();
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert_eq!(events[1].field("i"), Some(&FieldValue::U64(4)));
    }

    #[test]
    fn jsonl_is_one_object_per_line_with_stable_order() {
        let log = EventLog::new(16);
        log.emit(
            "shadow_eval",
            [
                ("platform", "gpu-T4-trt7.1-fp32".into()),
                ("predicted_ms", 1.5f64.into()),
                ("measured_ms", 2.0f64.into()),
                ("ok", true.into()),
            ],
        );
        log.emit("drift_alert", [("windowed_mape_pct", 40.25f64.into())]);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\": 0, \"event\": \"shadow_eval\", \"platform\": \"gpu-T4-trt7.1-fp32\", \
             \"predicted_ms\": 1.5, \"measured_ms\": 2, \"ok\": true}"
        );
        assert!(lines[1].starts_with("{\"seq\": 1, \"event\": \"drift_alert\""));
    }

    #[test]
    fn strings_are_escaped() {
        let log = EventLog::new(4);
        log.emit("query", [("msg", "a \"b\"\nc\\d".into())]);
        let line = log.to_jsonl();
        assert!(line.contains("\"a \\\"b\\\"\\nc\\\\d\""), "{line}");
    }

    #[test]
    fn concurrent_emits_get_unique_ordered_seqs() {
        let log = std::sync::Arc::new(EventLog::new(10_000));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let log = std::sync::Arc::clone(&log);
                s.spawn(move || {
                    for _ in 0..100 {
                        log.emit("e", []);
                    }
                });
            }
        });
        let events = log.snapshot();
        assert_eq!(events.len(), 800);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    /// Event `i` of a deterministic stream: `i % 10` fields of every value
    /// type, owned and borrowed strings alike.
    fn nth_event(i: u64) -> (&'static str, Vec<(&'static str, FieldValue)>) {
        const KEYS: [&str; 10] = ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9"];
        let fields = (0..i % 10)
            .map(|j| {
                let v = match (i + j) % 5 {
                    0 => FieldValue::U64(i * 100 + j),
                    1 => FieldValue::F64(i as f64 / 8.0 + j as f64),
                    2 => "borrowed".into(),
                    3 => format!("owned-{i}-{j}").into(),
                    _ => FieldValue::Bool(j % 2 == 0),
                };
                (KEYS[j as usize], v)
            })
            .collect();
        let kind = if i.is_multiple_of(3) {
            "query"
        } else {
            "shadow_eval"
        };
        (kind, fields)
    }

    #[test]
    fn a_reused_slot_renders_exactly_its_new_event() {
        // Three times around a ring of 7 with 0–9 fields per event: every
        // slot is refilled with a different shape, so a stale field left
        // in a reused buffer would show. The reference log only ever saw
        // the last 7 events; lines agree past their `seq`.
        const CAP: u64 = 7;
        let reused = EventLog::new(CAP as usize);
        for i in 0..3 * CAP {
            let (kind, fields) = nth_event(i);
            reused.emit(kind, fields);
        }
        let fresh = EventLog::new(CAP as usize);
        for i in 2 * CAP..3 * CAP {
            let (kind, fields) = nth_event(i);
            fresh.emit(kind, fields);
        }
        let past_seq = |jsonl: String| -> Vec<String> {
            jsonl
                .lines()
                .map(|l| {
                    l.split_once(", \"event\"")
                        .expect("seq first")
                        .1
                        .to_string()
                })
                .collect()
        };
        let (reused, fresh) = (past_seq(reused.to_jsonl()), past_seq(fresh.to_jsonl()));
        assert_eq!(reused.len(), CAP as usize);
        assert_eq!(reused, fresh);
    }
}

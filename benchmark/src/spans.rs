//! In-memory span log of a traced run, written out as a Chrome trace when
//! the run ends. Spans are recorded by the benchmark around its own calls
//! into the workspace; the serve stages inside a request come from the
//! `RequestTrace` that `LatencyService::query_traced` hands back.

use nnlqp_obs::trace::{RequestTrace, TraceClock};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Requests whose spans are kept individually; stage durations of every
/// traced request are kept regardless.
const SPAN_REQUESTS: usize = 2_000;

/// Index of a recorded span.
pub type SpanId = u32;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Request the span belongs to (0 outside any request).
    request: u64,
}

/// Span and stage log of one traced run.
pub struct Trace {
    clock: Arc<TraceClock>,
    spans: Vec<Span>,
    requests_kept: usize,
    next_request: u64,
    /// Stage name → one duration per traced request that had the stage.
    stage_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl Trace {
    /// A log ticking on `clock` — the service's own clock, so the stages
    /// it reports and the benchmark's spans share one timeline.
    pub fn new(clock: Arc<TraceClock>) -> Trace {
        Trace {
            clock,
            spans: Vec::new(),
            requests_kept: 0,
            next_request: 0,
            stage_ns: BTreeMap::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Open a span now and return its id; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent, 0)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// One benchmark-side request: the umbrella span `[start, end]` and,
    /// for a service request, its stages as child spans.
    pub fn request(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        served: Option<&RequestTrace>,
    ) {
        self.next_request += 1;
        let request = served.map_or(self.next_request, |t| t.request_id);
        let keep = self.requests_kept < SPAN_REQUESTS;
        let umbrella = keep.then(|| {
            self.requests_kept += 1;
            self.push(name, start_ns, end_ns, parent, request)
        });
        let Some(served) = served else { return };
        let mut at = served.start_ns;
        for stage in &served.stages {
            self.stage_ns
                .entry(stage.name)
                .or_default()
                .push(stage.dur_ns);
            if keep {
                self.push(stage.name, at, at + stage.dur_ns, umbrella, request);
            }
            at += stage.dur_ns;
        }
    }

    /// Durations recorded for `stage`, empty when it never occurred.
    pub fn stage(&self, stage: &str) -> &[u64] {
        self.stage_ns.get(stage).map_or(&[], Vec::as_slice)
    }

    /// The log as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// complete events in microseconds, one lane per nesting depth.
    pub fn to_chrome_json(&self) -> String {
        let mut depth = vec![0u32; self.spans.len()];
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                depth[id] = depth[p as usize] + 1;
            }
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                depth[id],
                s.start_ns as f64 / 1.0e3,
                (s.end_ns - s.start_ns) as f64 / 1.0e3,
                s.request,
            )
            .expect("write to string");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_obs::trace::TraceContext;

    #[test]
    fn request_stages_become_child_spans_and_stage_samples() {
        let clock = Arc::new(TraceClock::new());
        let mut trace = Trace::new(Arc::clone(&clock));
        let root = trace.open("replay", None);
        let start = trace.now_ns();
        let mut ctx = TraceContext::begin(&clock);
        ctx.stage("resolve", &clock);
        ctx.stage("hot_cache", &clock);
        let served = ctx.finish("hot_cache");
        let end = trace.now_ns();
        trace.request("query", start, end, Some(root), Some(&served));
        trace.request("predict_batch", start, end, Some(root), None);
        trace.close(root);

        assert_eq!(trace.stage("resolve"), &[served.stages[0].dur_ns]);
        assert_eq!(trace.stage("hot_cache").len(), 1);
        assert!(trace.stage("db_lookup").is_empty());
        let json = trace.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 5);
        assert!(json.contains("\"name\":\"resolve\""));
        assert!(json.contains(&format!("\"request\":{}", served.request_id)));
        assert!(json.contains("\"parent\":1"));
    }
}

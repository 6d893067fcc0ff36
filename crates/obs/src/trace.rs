//! Request-scoped tracing with exact stage tiling, for the serving layer.
//!
//! Every request carries a [`TraceContext`]: a cheap monotone request id
//! plus a list of stage *boundaries* — integer nanosecond ticks on a
//! shared monotonic [`TraceClock`]. A stage's duration is the delta
//! between consecutive boundaries, and the trace total is the delta
//! between the first and last boundary, so the stage durations **tile the
//! end-to-end latency exactly** (integer arithmetic, no float drift) —
//! the same invariant the query-pipeline spans enforce on the simulated
//! clock, applied to real wall time. The boundaries live inside the
//! context (up to [`INLINE_MARKS`] of them), so tracing a request costs
//! its clock reads and no allocation; a context feeds histograms and the
//! reservoir directly, and becomes a [`RequestTrace`] only when a caller
//! asks for one.
//!
//! The clock has two readers. [`TraceClock::now_ns`] is the ordered OS
//! clock: it is what brackets work from outside a request (a load
//! generator's stopwatch, a queue wait measured across threads, the
//! metrics writer's cadence), and it costs tens of nanoseconds a read.
//! [`TraceClock::tick_ns`] marks a request's own boundaries: where the CPU
//! has an invariant cycle counter that the kernel keeps time with, it is
//! one unordered counter read turned into the same nanoseconds through a
//! per-thread anchor, and the OS clock everywhere else. A hot-cache hit
//! is three boundaries and a few hundred nanoseconds, so three ordered
//! reads would be a quarter of it. A tick stays within a microsecond of
//! `now_ns`, and [`TraceContext::stage_at`] clamps every boundary to be
//! non-decreasing, so traces tile exactly on either reader.
//!
//! On top of the per-request traces:
//!
//! * [`ExemplarReservoir`] — a bounded reservoir retaining the K slowest
//!   full traces per terminal class (hot-cache hit, measured miss,
//!   coalesced follower, degraded, ...), exportable through the existing
//!   Chrome-trace writer via [`timeline_of`];
//! * [`tail_attribution`] — "where does the tail go": aggregate the stage
//!   durations of every request at or above a latency quantile and report
//!   each stage's share of the tail's total time.

use crate::cycles;
use crate::span::{Recorder, Span, Timeline, Track};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global monotone request-id source; ids order requests across every
/// service instance in the process.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// A shared monotonic wall clock: all stage boundaries of a service are
/// ticks (nanoseconds) from one origin, so worker-side boundaries can be
/// spliced into a requester's trace and still tile exactly.
#[derive(Debug, Clone)]
pub struct TraceClock {
    origin: Instant,
    /// `origin` in nanoseconds after the cycle counter's base, when ticks
    /// read the counter; `None` when they read the OS clock.
    counter_offset_ns: Option<u64>,
}

impl Default for TraceClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceClock {
    /// A clock with its origin now.
    pub fn new() -> Self {
        if !cycles::usable() {
            return Self::os_ticks();
        }
        let base = cycles::base();
        let origin = Instant::now();
        TraceClock {
            origin,
            counter_offset_ns: Some(origin.duration_since(base).as_nanos() as u64),
        }
    }

    /// A clock whose ticks read the OS clock, whatever the CPU offers.
    pub(crate) fn os_ticks() -> Self {
        TraceClock {
            origin: Instant::now(),
            counter_offset_ns: None,
        }
    }

    /// Nanoseconds since the clock's origin: an ordered OS-clock read.
    pub fn now_ns(&self) -> u64 {
        // A u64 of nanoseconds holds ~584 years; the cast cannot wrap in
        // any real process lifetime.
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the clock's origin, as a request marks its
    /// boundaries: a cycle-counter read where the counter keeps the OS
    /// clock's time (see the module docs), [`TraceClock::now_ns`]
    /// elsewhere. Within a microsecond of `now_ns`, but not ordered with
    /// the reads around it, and two ticks may step back by as much.
    #[inline]
    pub fn tick_ns(&self) -> u64 {
        match self.counter_offset_ns {
            Some(offset) => cycles::since_base_ns().saturating_sub(offset),
            None => self.now_ns(),
        }
    }
}

/// One stage of a finished trace: everything between two consecutive
/// boundaries, attributed to the name of the later one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStage {
    /// Stage name (`"queue_wait"`, `"measure"`, ...).
    pub name: &'static str,
    /// Duration in whole nanoseconds.
    pub dur_ns: u64,
}

/// A finished request trace: terminal class, total latency and the stage
/// durations that tile it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Process-wide monotone request id.
    pub request_id: u64,
    /// Terminal class the request ended in (`"hot_cache"`, `"measured"`,
    /// `"coalesced"`, `"degraded"`, an error class, ...).
    pub class: &'static str,
    /// First boundary, in ticks of the service's [`TraceClock`].
    pub start_ns: u64,
    /// Stage durations, in request order. Their sum equals
    /// [`RequestTrace::total_ns`] exactly.
    pub stages: Vec<TraceStage>,
    /// End-to-end latency in whole nanoseconds.
    pub total_ns: u64,
}

impl RequestTrace {
    /// End-to-end latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1.0e6
    }

    /// The tiling invariant: stage durations sum to the total exactly.
    /// Always true by construction; exposed so tests can state it.
    pub fn tiles_exactly(&self) -> bool {
        self.stages.iter().map(|s| s.dur_ns).sum::<u64>() == self.total_ns
    }

    /// Duration of the named stage (summed over repeats), if present.
    pub fn stage_ns(&self, name: &str) -> Option<u64> {
        let mut total = None;
        for s in &self.stages {
            if s.name == name {
                *total.get_or_insert(0) += s.dur_ns;
            }
        }
        total
    }
}

/// Stage boundaries a [`TraceContext`] holds without the allocator. The
/// deepest serve path (a measured leader after a memo hit, strict
/// admission on) marks 11; a trace marked past this spills the rest to the
/// heap.
pub const INLINE_MARKS: usize = 12;

/// The live side of a [`RequestTrace`]: created at request entry, marked
/// at every stage boundary, finished with a terminal class.
#[derive(Debug)]
pub struct TraceContext {
    request_id: u64,
    start_ns: u64,
    /// `(stage name, end tick)`; ticks are non-decreasing. The first
    /// [`INLINE_MARKS`] live here (`inline[..len]`), later ones in `spill`.
    inline: [(&'static str, u64); INLINE_MARKS],
    len: usize,
    spill: Vec<(&'static str, u64)>,
}

impl TraceContext {
    /// Open a trace: assign the next request id and take the first
    /// boundary now, on [`TraceClock::tick_ns`].
    pub fn begin(clock: &TraceClock) -> Self {
        TraceContext {
            request_id: NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed),
            start_ns: clock.tick_ns(),
            inline: [("", 0); INLINE_MARKS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// This request's id.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The latest boundary tick (the start tick before any stage).
    pub fn last_ns(&self) -> u64 {
        match self.spill.last() {
            Some(&(_, t)) => t,
            None if self.len > 0 => self.inline[self.len - 1].1,
            None => self.start_ns,
        }
    }

    /// End-to-end latency so far: first to last boundary, in whole
    /// nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.last_ns() - self.start_ns
    }

    /// End the current stage now, on [`TraceClock::tick_ns`]: everything
    /// since the previous boundary is attributed to `name`.
    pub fn stage(&mut self, name: &'static str, clock: &TraceClock) {
        self.stage_at(name, clock.tick_ns());
    }

    /// End the current stage at an explicit tick — how worker-side
    /// boundaries (recorded on the same clock, shipped through the
    /// singleflight payload) are spliced into the requester's trace.
    /// Clamped to be non-decreasing so the tiling invariant survives any
    /// splice order.
    pub fn stage_at(&mut self, name: &'static str, tick_ns: u64) {
        let mark = (name, tick_ns.max(self.last_ns()));
        if self.len < INLINE_MARKS {
            self.inline[self.len] = mark;
            self.len += 1;
        } else {
            self.spill.push(mark);
        }
    }

    /// The stages marked so far, in request order; their durations sum to
    /// [`TraceContext::total_ns`] exactly.
    pub fn stages(&self) -> impl Iterator<Item = TraceStage> + '_ {
        let mut prev = self.start_ns;
        self.inline[..self.len]
            .iter()
            .chain(&self.spill)
            .map(move |&(name, tick)| {
                let dur_ns = tick - prev;
                prev = tick;
                TraceStage { name, dur_ns }
            })
    }

    /// Freeze into a [`RequestTrace`] with terminal class `class`. The
    /// total is the span from the first to the last boundary; with no
    /// recorded stage the trace is a single zero-length point.
    pub fn finish(self, class: &'static str) -> RequestTrace {
        RequestTrace {
            request_id: self.request_id,
            class,
            start_ns: self.start_ns,
            stages: self.stages().collect(),
            total_ns: self.total_ns(),
        }
    }
}

/// Bounded per-class reservoir of the K slowest full traces — the
/// exemplars behind a latency histogram: when p999 spikes, these are the
/// actual requests that did it, stage by stage.
#[derive(Debug)]
pub struct ExemplarReservoir {
    k: usize,
    /// Class → traces sorted ascending by total (fastest first, so the
    /// eviction candidate is index 0).
    classes: Mutex<BTreeMap<&'static str, Vec<RequestTrace>>>,
    /// Each class's retention floor, readable without the lock; claimed
    /// in order, under it, by the first [`FLOOR_CLASSES`] classes to fill.
    floors: [Floor; FLOOR_CLASSES],
}

/// Classes whose floor an offer reads without the lock. Serve has 12
/// terminal classes; a class past these always takes the lock.
const FLOOR_CLASSES: usize = 16;

#[derive(Debug, Default)]
struct Floor {
    class: OnceLock<&'static str>,
    /// The least total a trace of `class` needs to be retained: one more
    /// than the fastest retained total once the class holds `k` traces.
    /// Written under the reservoir's lock, and it only ever rises, since a
    /// full class only trades its fastest trace for a slower one.
    ns: AtomicU64,
}

impl ExemplarReservoir {
    /// A reservoir keeping the `k` slowest traces per terminal class.
    pub fn new(k: usize) -> Self {
        ExemplarReservoir {
            k,
            classes: Mutex::new(BTreeMap::new()),
            floors: Default::default(),
        }
    }

    /// Offer a trace that ended in terminal class `class`; it is retained
    /// only while it is among the `k` slowest of its class, as what
    /// [`TraceContext::finish`] would make of it. A trace under its full
    /// class's floor returns without taking the lock. A kept trace is
    /// written over the trace it displaces and into its `stages` buffer,
    /// so an offer that is not kept allocates nothing and one that is kept
    /// rarely does.
    pub fn offer(&self, ctx: &TraceContext, class: &'static str) {
        if self.k == 0 {
            return;
        }
        let total_ns = ctx.total_ns();
        // A floor read here may be stale, never ahead of the lock's view:
        // a trace under it is one the locked path would turn away too.
        if let Some(floor) = self.floor(class) {
            if total_ns < floor.load(Ordering::Relaxed) {
                return;
            }
        }
        let mut classes = self.classes.lock().expect("reservoir lock");
        let bucket = classes
            .entry(class)
            .or_insert_with(|| Vec::with_capacity(self.k));
        let mut slot = if bucket.len() == self.k {
            if bucket[0].total_ns >= total_ns {
                return; // faster than everything retained
            }
            bucket.remove(0)
        } else {
            RequestTrace {
                request_id: 0,
                class,
                start_ns: 0,
                stages: Vec::new(),
                total_ns: 0,
            }
        };
        slot.request_id = ctx.request_id;
        slot.start_ns = ctx.start_ns;
        slot.total_ns = total_ns;
        slot.stages.clear();
        slot.stages.extend(ctx.stages());
        let at = bucket.partition_point(|t| t.total_ns < total_ns);
        bucket.insert(at, slot);
        if bucket.len() == self.k {
            let floor = bucket[0].total_ns.saturating_add(1);
            // Under the lock, so the first class to fill claims the first
            // free floor and no two classes claim one.
            let mine = |f: &&Floor| *f.class.get_or_init(|| class) == class;
            if let Some(f) = self.floors.iter().find(mine) {
                f.ns.store(floor, Ordering::Relaxed);
            }
        }
    }

    /// `class`'s floor, once the class has filled.
    fn floor(&self, class: &'static str) -> Option<&AtomicU64> {
        for f in &self.floors {
            match f.class.get() {
                Some(&c) if c == class => return Some(&f.ns),
                Some(_) => {}
                None => return None,
            }
        }
        None
    }

    /// Everything retained, slowest-first within each class.
    pub fn snapshot(&self) -> BTreeMap<&'static str, Vec<RequestTrace>> {
        let classes = self.classes.lock().expect("reservoir lock");
        classes
            .iter()
            .map(|(&class, traces)| {
                let mut t = traces.clone();
                t.reverse();
                (class, t)
            })
            .collect()
    }

    /// The class holding the slowest retained trace overall.
    pub fn slowest_class(&self) -> Option<&'static str> {
        let classes = self.classes.lock().expect("reservoir lock");
        classes
            .iter()
            .filter_map(|(&class, traces)| traces.last().map(|t| (class, t.total_ns)))
            .max_by_key(|&(_, total)| total)
            .map(|(class, _)| class)
    }
}

/// Render traces as a [`Timeline`] for the Chrome-trace writer: one lane
/// per trace (grouped by class), one span per stage plus an umbrella
/// `request` span carrying the request id. Times are relative
/// milliseconds from each trace's start, so lanes align for comparison.
pub fn timeline_of(traces: &[RequestTrace]) -> Timeline {
    let rec = Recorder::new();
    let mut lanes: BTreeMap<&'static str, u32> = BTreeMap::new();
    for trace in traces {
        let lane = lanes.entry(trace.class).or_insert(0);
        let track = Track::new(trace.class, *lane);
        *lane += 1;
        rec.record(
            Span::new("request", "request", track.clone(), 0.0, trace.total_ms())
                .arg("request_id", trace.request_id)
                .arg("class", trace.class),
        );
        let mut at_ns = 0u64;
        for stage in &trace.stages {
            rec.record(Span::new(
                stage.name,
                "serve_stage",
                track.clone(),
                at_ns as f64 / 1.0e6,
                stage.dur_ns as f64 / 1.0e6,
            ));
            at_ns += stage.dur_ns;
        }
    }
    rec.timeline()
}

/// One stage's share of the tail in a [`tail_attribution`] report.
#[derive(Debug, Clone, PartialEq)]
pub struct StageShare {
    /// Stage name.
    pub stage: &'static str,
    /// Summed duration over every tail request, nanoseconds.
    pub total_ns: u64,
    /// Share of the tail's total end-to-end time, percent.
    pub share_pct: f64,
    /// Mean duration per tail request, milliseconds.
    pub mean_ms: f64,
}

/// Attribute the latency tail to stages: take every trace at or above
/// the `q` quantile of total latency, sum stage durations across them,
/// and report each stage's share of the tail's total time (largest
/// first). Because stages tile each trace exactly, the shares sum to
/// 100% (up to float rendering).
pub fn tail_attribution(traces: &[RequestTrace], q: f64) -> Vec<StageShare> {
    if traces.is_empty() {
        return Vec::new();
    }
    let mut totals: Vec<u64> = traces.iter().map(|t| t.total_ns).collect();
    totals.sort_unstable();
    let n = totals.len();
    // The tail is the slowest (1-q) fraction, at least one request; ties
    // at the cut are included.
    let frac = (1.0 - q.clamp(0.0, 1.0)) * n as f64;
    let keep = ((frac - 1e-9).ceil() as usize).clamp(1, n);
    let threshold = totals[n - keep];
    let tail: Vec<&RequestTrace> = traces.iter().filter(|t| t.total_ns >= threshold).collect();
    let mut by_stage: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut tail_total = 0u64;
    for t in &tail {
        tail_total += t.total_ns;
        for s in &t.stages {
            *by_stage.entry(s.name).or_insert(0) += s.dur_ns;
        }
    }
    let n = tail.len().max(1) as f64;
    let mut out: Vec<StageShare> = by_stage
        .into_iter()
        .map(|(stage, total_ns)| StageShare {
            stage,
            total_ns,
            share_pct: if tail_total == 0 {
                0.0
            } else {
                100.0 * total_ns as f64 / tail_total as f64
            },
            mean_ms: total_ns as f64 / n / 1.0e6,
        })
        .collect();
    out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.stage.cmp(b.stage)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context(stages: &[(&'static str, u64)]) -> TraceContext {
        let clock = TraceClock::new();
        let mut ctx = TraceContext::begin(&clock);
        let mut tick = ctx.last_ns();
        for &(name, dur) in stages {
            tick += dur;
            ctx.stage_at(name, tick);
        }
        ctx
    }

    fn trace(class: &'static str, stages: &[(&'static str, u64)]) -> RequestTrace {
        context(stages).finish(class)
    }

    #[test]
    fn stages_tile_total_exactly() {
        let t = trace(
            "measured",
            &[("resolve", 7), ("queue_wait", 1000), ("measure", 31)],
        );
        assert!(t.tiles_exactly());
        assert_eq!(t.total_ns, 1038);
        assert_eq!(t.stage_ns("queue_wait"), Some(1000));
        assert_eq!(t.stage_ns("absent"), None);
    }

    #[test]
    fn request_ids_are_monotone() {
        let clock = TraceClock::new();
        let a = TraceContext::begin(&clock).request_id();
        let b = TraceContext::begin(&clock).request_id();
        assert!(b > a);
    }

    #[test]
    fn out_of_order_splice_is_clamped_and_still_tiles() {
        let clock = TraceClock::new();
        let mut ctx = TraceContext::begin(&clock);
        let base = ctx.last_ns();
        ctx.stage_at("a", base + 100);
        // An earlier tick (e.g. a worker boundary that raced) clamps to a
        // zero-length stage instead of breaking monotonicity.
        ctx.stage_at("b", base + 50);
        ctx.stage_at("c", base + 130);
        let t = ctx.finish("x");
        assert!(t.tiles_exactly());
        assert_eq!(t.stage_ns("b"), Some(0));
        assert_eq!(t.total_ns, 130);
    }

    #[test]
    fn live_clock_trace_tiles() {
        let clock = TraceClock::new();
        let mut ctx = TraceContext::begin(&clock);
        ctx.stage("one", &clock);
        std::thread::sleep(std::time::Duration::from_millis(1));
        ctx.stage("two", &clock);
        let t = ctx.finish("live");
        assert!(t.tiles_exactly());
        assert!(t.stage_ns("two").unwrap() >= 1_000_000);
    }

    /// A tick read between two `now_ns` reads lies within a microsecond
    /// of them.
    fn tick_beside_now(clock: &TraceClock) -> u64 {
        let before = clock.now_ns();
        let tick = clock.tick_ns();
        let after = clock.now_ns();
        assert!(
            before <= tick + 1_000 && tick <= after + 1_000,
            "tick {tick} outside [{before}, {after}] ± 1 µs"
        );
        tick
    }

    #[test]
    fn two_clocks_of_different_origins_tick_on_one_thread() {
        let early = TraceClock::new();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let late = TraceClock::new();
        for round in 0..2_000 {
            let (clock, other) = if round % 2 == 0 {
                (&early, &late)
            } else {
                (&late, &early)
            };
            let mut ctx = TraceContext::begin(clock);
            tick_beside_now(other);
            ctx.stage("a", clock);
            tick_beside_now(clock);
            ctx.stage("b", clock);
            let t = ctx.finish("x");
            assert!(t.tiles_exactly());
        }
        assert!(early.tick_ns() > late.tick_ns() + 2_000_000);
    }

    /// What an anchor promises is that it is fresh, not that there are
    /// many: every tick that reads the counter reads an anchor taken in
    /// the `REFRESH_NS` before it. How many anchors a thread takes follows
    /// from how much of the 200 ms it was scheduled, so it is not counted.
    #[test]
    fn ticks_stay_beside_the_os_clock_across_anchor_refreshes() {
        let threads: Vec<(usize, Vec<(u64, u64)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let clock = TraceClock::new();
                        let offset = clock.counter_offset_ns.unwrap_or(0);
                        let mut anchors = std::collections::BTreeSet::new();
                        let mut stale = Vec::new();
                        let mut last = 0;
                        while last < 200_000_000 {
                            last = tick_beside_now(&clock);
                            // The anchor the tick read, or took.
                            let Some(anchor) = cycles::anchor_ns() else {
                                continue;
                            };
                            anchors.insert(anchor);
                            if last + offset >= anchor + cycles::REFRESH_NS {
                                stale.push((last + offset, anchor));
                            }
                        }
                        (anchors.len(), stale)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        if cycles::usable() {
            for (anchors, stale) in threads {
                assert!(anchors >= 2, "{anchors} anchors: none was refreshed");
                assert_eq!(stale, [], "(tick, anchor) pairs a refresh apart");
            }
        }
    }

    #[test]
    fn the_os_clock_path_tiles_like_the_counter_path() {
        for clock in [TraceClock::new(), TraceClock::os_ticks()] {
            let mut ctx = TraceContext::begin(&clock);
            for name in ["resolve", "hot_cache", "db_lookup"] {
                ctx.stage(name, &clock);
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            ctx.stage("measure", &clock);
            for _ in 0..INLINE_MARKS {
                ctx.stage("response", &clock);
            }
            let total = ctx.total_ns();
            let t = ctx.finish("measured");
            assert!(t.tiles_exactly());
            assert_eq!(t.total_ns, total);
            assert_eq!(t.stages.len(), 4 + INLINE_MARKS);
            assert!(t.stage_ns("measure").unwrap() >= 1_999_000);
        }
        assert_eq!(TraceClock::os_ticks().counter_offset_ns, None);
    }

    #[test]
    fn reservoir_keeps_k_slowest_per_class() {
        let res = ExemplarReservoir::new(2);
        for dur in [10, 50, 30, 90, 20] {
            res.offer(&context(&[("s", dur)]), "hot_cache");
        }
        res.offer(&context(&[("s", 5)]), "measured");
        let snap = res.snapshot();
        let hot: Vec<u64> = snap["hot_cache"].iter().map(|t| t.total_ns).collect();
        assert_eq!(hot, vec![90, 50], "slowest-first, k=2");
        assert_eq!(snap["measured"].len(), 1);
        assert_eq!(res.slowest_class(), Some("hot_cache"));
    }

    #[test]
    fn a_trace_marked_past_its_inline_marks_spills_and_still_tiles() {
        let clock = TraceClock::new();
        let mut ctx = TraceContext::begin(&clock);
        let base = ctx.last_ns();
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        for i in 0..40u64 {
            ctx.stage_at(NAMES[i as usize % 4], base + i * i);
        }
        const { assert!(40 > INLINE_MARKS) };
        assert_eq!(ctx.total_ns(), 39 * 39);
        let t = ctx.finish("deep");
        assert!(t.tiles_exactly());
        assert_eq!(t.stages.len(), 40);
        for (i, s) in t.stages.iter().enumerate() {
            assert_eq!(s.name, NAMES[i % 4]);
            let (i, prev) = (i as u64, i.saturating_sub(1) as u64);
            assert_eq!(s.dur_ns, i * i - prev * prev);
        }
    }

    #[test]
    fn a_retained_offer_is_its_finished_trace_in_a_reused_slot() {
        // Distinct totals and one to three stages per trace, so a slot is
        // often refilled with a trace of another length: the reservoir must
        // hold exactly the `k` slowest finished traces of each class.
        let res = ExemplarReservoir::new(3);
        let mut finished: Vec<RequestTrace> = Vec::new();
        for (i, dur) in [40u64, 10, 70, 75, 20, 90, 5, 60, 80, 30, 95, 15]
            .into_iter()
            .enumerate()
        {
            let stages = [("resolve", dur / 2), ("db_lookup", 1), ("hot_cache", dur)];
            let ctx = context(&stages[..1 + i % 3]);
            let class = if i % 2 == 0 { "hot_cache" } else { "db_hit" };
            res.offer(&ctx, class);
            finished.push(ctx.finish(class));
        }
        let snap = res.snapshot();
        for class in ["hot_cache", "db_hit"] {
            let mut want: Vec<RequestTrace> = finished
                .iter()
                .filter(|t| t.class == class)
                .cloned()
                .collect();
            want.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
            want.truncate(3);
            assert_eq!(snap[class], want, "{class}");
        }
    }

    /// Seeded offers over four classes: each class offers every total in
    /// `0..24` once, shuffled, so the totals of a class are distinct and
    /// dense — a full class is often offered its floor itself.
    fn offer_stream(seed: u64) -> Vec<(&'static str, TraceContext)> {
        const CLASSES: [&str; 4] = ["hot_cache", "db_hit", "measured", "coalesced"];
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) >> 1
        };
        let mut offers: Vec<(&'static str, u64)> = (CLASSES.iter())
            .flat_map(|&c| (0..24).map(move |ns| (c, ns)))
            .collect();
        for i in (1..offers.len()).rev() {
            offers.swap(i, next() as usize % (i + 1));
        }
        (offers.into_iter())
            .map(|(class, ns)| (class, context(&[("s", ns)])))
            .collect()
    }

    /// The `k` slowest `(request_id, total_ns)` of each class, slowest
    /// first, picked by sorting every offer: no floor, no early-out.
    fn k_slowest(
        offers: &[(&'static str, TraceContext)],
        k: usize,
    ) -> BTreeMap<&'static str, Vec<(u64, u64)>> {
        let mut all: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (class, ctx) in offers {
            all.entry(class)
                .or_default()
                .push((ctx.request_id(), ctx.total_ns()));
        }
        for kept in all.values_mut() {
            kept.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
            kept.truncate(k);
        }
        all
    }

    fn retained(res: &ExemplarReservoir) -> BTreeMap<&'static str, Vec<(u64, u64)>> {
        (res.snapshot().into_iter())
            .map(|(class, traces)| {
                assert!(traces.iter().all(RequestTrace::tiles_exactly));
                (
                    class,
                    traces.iter().map(|t| (t.request_id, t.total_ns)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn the_floor_keeps_exactly_the_k_slowest_of_each_class() {
        for seed in 0..64 {
            let offers = offer_stream(seed);
            let res = ExemplarReservoir::new(3);
            for (class, ctx) in &offers {
                res.offer(ctx, class);
            }
            assert_eq!(retained(&res), k_slowest(&offers, 3), "seed {seed}");
        }
    }

    #[test]
    fn the_floor_keeps_exactly_the_k_slowest_under_four_threads() {
        const THREADS: usize = 4;
        for seed in 0..16 {
            let offers = offer_stream(seed);
            let res = ExemplarReservoir::new(3);
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (res, offers, start) = (&res, &offers, &start);
                    s.spawn(move || {
                        start.wait();
                        for (class, ctx) in offers.iter().skip(t).step_by(THREADS) {
                            res.offer(ctx, class);
                        }
                    });
                }
            });
            assert_eq!(retained(&res), k_slowest(&offers, 3), "seed {seed}");
        }
    }

    #[test]
    fn reservoir_zero_k_retains_nothing() {
        let res = ExemplarReservoir::new(0);
        res.offer(&context(&[("s", 1)]), "x");
        assert!(res.snapshot().is_empty());
        assert_eq!(res.slowest_class(), None);
    }

    #[test]
    fn timeline_exports_stages_and_umbrella() {
        let t = trace(
            "measured",
            &[("resolve", 1_000_000), ("measure", 3_000_000)],
        );
        let tl = timeline_of(&[t]);
        assert_eq!(tl.spans.len(), 3); // umbrella + 2 stages
        let total: f64 = tl
            .spans
            .iter()
            .filter(|s| s.cat == "serve_stage")
            .map(|s| s.dur_ms)
            .sum();
        assert!((total - 4.0).abs() < 1e-9);
        let json = crate::to_chrome_json(&tl);
        assert!(json.contains("\"request\""), "{json}");
    }

    #[test]
    fn tail_attribution_shares_sum_to_hundred() {
        // 99 fast requests dominated by "hot_cache", one slow one
        // dominated by "queue_wait": the p99 tail is the slow request.
        let mut traces = Vec::new();
        for _ in 0..99 {
            traces.push(trace("hot_cache", &[("resolve", 10), ("hot_cache", 90)]));
        }
        traces.push(trace(
            "measured",
            &[
                ("resolve", 10),
                ("queue_wait", 6100),
                ("measure", 3000),
                ("db_write", 890),
            ],
        ));
        let shares = tail_attribution(&traces, 0.99);
        assert_eq!(shares[0].stage, "queue_wait");
        assert!((shares[0].share_pct - 61.0).abs() < 1e-9, "{shares:?}");
        let sum: f64 = shares.iter().map(|s| s.share_pct).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!(tail_attribution(&[], 0.99).is_empty());
    }
}

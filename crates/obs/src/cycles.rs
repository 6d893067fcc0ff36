//! The cycle counter behind [`TraceClock::tick_ns`](crate::TraceClock::tick_ns):
//! the workspace's one reader of it.
//!
//! A counter read is a few cycles and orders nothing; an ordered OS-clock
//! read costs tens of nanoseconds. The counter stands in for the OS clock
//! only where it runs at one rate on every core (CPUID `0x8000_0007` EDX
//! bit 8, "invariant") and the kernel itself keeps time with it (Linux's
//! current clocksource is `tsc`, which the kernel keeps only while the
//! cores' counters agree). Everywhere else [`usable`] is false and no tick
//! reads it.
//!
//! A count becomes nanoseconds through a per-thread anchor: one OS-clock
//! reading and the count beside it, taken again about once a millisecond.
//! The rate comes from the clock itself: each anchor divides the
//! nanoseconds since the process's first anchor by the counts since it, so
//! the estimate sharpens as the process runs and no calibration waits. In
//! the first millisecond there is no rate yet, and a tick reads the OS
//! clock.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// How long an anchor extrapolates before the next OS-clock reading.
pub(crate) const REFRESH_NS: u64 = 1_000_000;

/// The shortest stretch of the OS clock the rate is taken over.
const RATE_AFTER_NS: u64 = 1_000_000;

/// The widest pair of OS-clock readings an anchor's count may sit between:
/// the anchor takes their midpoint, so this bounds its error at half of it.
const BRACKET_NS: u64 = 200;

/// The instant every anchor counts its nanoseconds from. A
/// [`TraceClock`](crate::TraceClock) taking its origin after this reads
/// its ticks as an offset from it, so one anchor serves every clock of a
/// thread, whatever their origins.
pub(crate) fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// Whether ticks may read the counter; probed once per process.
pub(crate) fn usable() -> bool {
    static USABLE: OnceLock<bool> = OnceLock::new();
    *USABLE.get_or_init(probe)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn probe() -> bool {
    use std::arch::x86_64::__cpuid;
    const CLOCKSOURCE: &str = "/sys/devices/system/clocksource/clocksource0/current_clocksource";
    // Leaf 0x8000_0007 is read only when the highest extended leaf (leaf
    // 0x8000_0000's EAX) reaches it.
    let invariant =
        __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0;
    invariant && std::fs::read_to_string(CLOCKSOURCE).is_ok_and(|s| s.trim() == "tsc")
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn probe() -> bool {
    false
}

/// One unserialized counter read.
#[inline]
fn count() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` exists on every x86_64 CPU and reads no memory.
    return unsafe { std::arch::x86_64::_rdtsc() };
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("`usable` is false off x86_64, so nothing reads a counter")
}

#[derive(Clone, Copy)]
struct Anchor {
    /// Nanoseconds after [`base`] at `count`.
    ns: u64,
    count: u64,
    /// Nanoseconds per count, with 32 fraction bits.
    ns_per_count: u64,
    /// Counts after `count` this anchor extrapolates over (about
    /// [`REFRESH_NS`]); 0 until the rate is known.
    span: u64,
}

thread_local! {
    static ANCHOR: Cell<Anchor> = const {
        Cell::new(Anchor { ns: 0, count: 0, ns_per_count: 0, span: 0 })
    };
}

/// The process's first anchor, `(ns, count)`: every rate is taken from it.
static FIRST: OnceLock<(u64, u64)> = OnceLock::new();

/// Nanoseconds after [`base`], from the counter. Call only when
/// [`usable`].
#[inline]
pub(crate) fn since_base_ns() -> u64 {
    let now = count();
    let a = ANCHOR.get();
    let elapsed = now.wrapping_sub(a.count);
    if elapsed < a.span {
        // `elapsed < span`, so the product stays under REFRESH_NS << 32.
        return a.ns + ((elapsed * a.ns_per_count) >> 32);
    }
    reanchor()
}

/// Read the OS clock, re-anchor this thread on it, and return it.
#[cold]
fn reanchor() -> u64 {
    let (ns, at, width_ns) = bracketed();
    // A reading too loosely placed against the counter anchors nothing: the
    // next tick tries again. Until the first anchor is a millisecond old
    // there is no rate, nor when the counter ran backwards. Either way the
    // tick is the OS clock's reading.
    if width_ns > BRACKET_NS {
        return ns;
    }
    let &(first_ns, first_count) = FIRST.get_or_init(|| (ns, at));
    let since_ns = ns.saturating_sub(first_ns);
    let since_count = at.saturating_sub(first_count);
    if since_ns >= RATE_AFTER_NS && since_count > 0 {
        let ns_per_count = ((u128::from(since_ns) << 32) / u128::from(since_count)) as u64;
        ANCHOR.set(Anchor {
            ns,
            count: at,
            ns_per_count,
            span: (REFRESH_NS << 32) / ns_per_count.max(1),
        });
    }
    ns
}

/// The narrowest of three pairs of OS-clock readings around a counter
/// read: `(their midpoint in nanoseconds after [`base`], the count, their
/// distance)`. A thread preempted inside one pair is caught by the others.
fn bracketed() -> (u64, u64, u64) {
    let base = base();
    // A u64 of nanoseconds holds ~584 years.
    let os_ns = || base.elapsed().as_nanos() as u64;
    let mut best = (0, 0, u64::MAX);
    for _ in 0..3 {
        let before = os_ns();
        let at = count();
        let after = os_ns();
        let width = after - before;
        if width < best.2 {
            best = (before + width / 2, at, width);
        }
    }
    best
}

/// Nanoseconds after [`base`] at which this thread's anchor was taken,
/// once there is one with a rate.
#[cfg(test)]
pub(crate) fn anchor_ns() -> Option<u64> {
    let a = ANCHOR.get();
    (a.span > 0).then_some(a.ns)
}

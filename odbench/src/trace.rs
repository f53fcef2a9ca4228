//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end on one monotonic clock, the span it
//! nests under, the thread it ran on and the run it belongs to. Spans are
//! kept in memory while the run measures and written out once it ends, so
//! recording costs two clock reads and one short lock per span. When
//! recording is off (the untraced run, and the untraced rounds of a traced
//! run) a span is a no-op guard.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer name, e.g. `core.forward`.
    pub name: &'static str,
    /// Small per-process thread number (0 = first thread that traced).
    pub thread: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<Option<u64>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn thread_no() -> u64 {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let n = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(n));
            n
        })
    })
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread.
pub fn current() -> Option<u32> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An open span; records itself when dropped.
pub struct Guard {
    live: Option<(u32, Option<u32>, &'static str, Instant)>,
}

/// Opens a span nested under this thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    span_under(name, current())
}

/// Opens a span under an explicit parent — for work the driving thread
/// fans out to pool threads, whose own stacks are empty.
pub fn span_under(name: &'static str, parent: Option<u32>) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        live: Some((id, parent, name, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start)) = self.live.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        let e = epoch();
        let span = Span {
            id,
            parent,
            name,
            thread: thread_no(),
            start_ns: start.saturating_duration_since(e).as_nanos() as u64,
            end_ns: end.saturating_duration_since(e).as_nanos() as u64,
        };
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Durations in milliseconds of every recorded span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Per-layer totals: calls, total wall time and self time, all in
/// milliseconds. Self time is wall time minus the wall time of direct
/// children on the same thread; children fanned out to pool threads
/// overlap their parent and are attributed to their own layer only.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let thread_of: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    let mut child_ms: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            if thread_of.get(&p) == Some(&s.thread) {
                *child_ms.entry(p).or_default() += s.ms();
            }
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ms();
        e.2 += s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

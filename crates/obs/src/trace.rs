//! Request-scoped trace context and per-request statistics.
//!
//! Both mechanisms are thread-local and diff the executing thread's
//! *cumulative* counter totals (live cells plus everything already
//! flushed), so flushes in the middle of a request cannot corrupt them,
//! and work done by other threads for other requests never bleeds in.
//! The parallel Step-3 workers hand their cells to the joining thread
//! ([`crate::hand_off_local`]), so a request's own search work counts.
//!
//! * A **trace** is opened with [`trace_begin`] on the thread that
//!   executes a request and closed with [`trace_end`], which returns the
//!   ordered list of span events that completed in between. Each event
//!   carries the span name, its start offset relative to the trace
//!   begin, its duration, and the delta of every counter the executing
//!   thread bumped while the span was open.
//! * A **stats scope** ([`stats_scope`]) takes the thread's counter
//!   totals as its baseline; [`StatsScope::finish`] returns the exact
//!   [`Stats`] of the work in between: every counter's delta and the
//!   `count / total / min / max` of every span that completed on the
//!   thread while the scope was open. Scopes nest.
//!
//! When neither is active a span costs a thread-local `Cell<bool>` read
//! and an empty-slot check here, keeping the instrumentation-overhead
//! budget intact for batch (non-serving) workloads.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use crate::{
    json_string, local_counter_totals, write_counters_json, write_counters_spans_text,
    write_spans_json, Counter, SpanStat, COUNTER_NAMES, N_COUNTERS,
};

/// One completed span inside a trace, in completion order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (same registry as [`crate::span!`]), or a synthetic
    /// event name such as `serve.admission_wait`.
    pub name: &'static str,
    /// Start offset in nanoseconds relative to [`trace_begin`].
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nonzero counter deltas attributed to the executing thread while
    /// the span was open, sorted by counter name.
    pub counters: Vec<(&'static str, u64)>,
}

impl SpanEvent {
    /// Serializes the event as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut counters = String::from("{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                counters.push_str(", ");
            }
            counters.push_str(&format!("{}: {v}", json_string(name)));
        }
        counters.push('}');
        format!(
            "{{\"name\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"counters\": {}}}",
            json_string(self.name),
            self.start_ns,
            self.dur_ns,
            counters
        )
    }
}

/// A completed request trace: its id and ordered span events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Request trace id (deterministic `session:generation:seq` under the
    /// service; free-form otherwise).
    pub id: String,
    /// Completed span events in completion order.
    pub events: Vec<SpanEvent>,
}

impl Trace {
    /// Serializes the event list as a JSON array.
    pub fn events_json(&self) -> String {
        let items: Vec<String> = self.events.iter().map(SpanEvent::to_json).collect();
        format!("[{}]", items.join(", "))
    }

    /// Duration of a named event, when present (first occurrence).
    pub fn event_dur_ns(&self, name: &str) -> Option<u64> {
        self.events
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.dur_ns)
    }
}

struct ActiveTrace {
    id: String,
    start: Instant,
    events: Vec<SpanEvent>,
}

thread_local! {
    /// Cheap per-span check; shadows `ACTIVE.is_some()`.
    static TRACING: Cell<bool> = const { Cell::new(false) };
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Returns whether a trace is active on the calling thread.
#[inline]
pub fn trace_active() -> bool {
    TRACING.try_with(Cell::get).unwrap_or(false)
}

/// Opens a trace on the calling thread, replacing any active one.
pub fn trace_begin(id: String) {
    let _ = ACTIVE.try_with(|a| {
        *a.borrow_mut() = Some(ActiveTrace {
            id,
            start: Instant::now(),
            events: Vec::new(),
        });
    });
    let _ = TRACING.try_with(|t| t.set(true));
}

/// Closes the calling thread's trace, returning its events (`None` when
/// no trace was active, e.g. after TLS teardown).
pub fn trace_end() -> Option<Trace> {
    let _ = TRACING.try_with(|t| t.set(false));
    ACTIVE
        .try_with(|a| a.borrow_mut().take())
        .ok()
        .flatten()
        .map(|t| Trace {
            id: t.id,
            events: t.events,
        })
}

/// Pushes a synthetic event (e.g. admission-queue wait measured before
/// the worker thread picked the request up) onto the active trace.
pub fn trace_event(name: &'static str, start_ns: u64, dur_ns: u64) {
    if !trace_active() {
        return;
    }
    let _ = ACTIVE.try_with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.events.push(SpanEvent {
                name,
                start_ns,
                dur_ns,
                counters: Vec::new(),
            });
        }
    });
}

/// Baseline of the executing thread's cumulative counter totals, captured
/// by [`crate::SpanGuard`] at span entry when a trace is active.
pub(crate) fn span_baseline() -> Option<Box<[u64; N_COUNTERS]>> {
    if !trace_active() {
        return None;
    }
    Some(Box::new(local_counter_totals()))
}

/// Completes a span inside the active trace: computes the counter delta
/// against `base` and appends the event.
pub(crate) fn push_span(
    name: &'static str,
    started: Instant,
    dur_ns: u64,
    base: &[u64; N_COUNTERS],
) {
    let now_totals = local_counter_totals();
    let mut counters: Vec<(&'static str, u64)> = Vec::new();
    for (idx, (after, before)) in now_totals.iter().zip(base.iter()).enumerate() {
        let delta = after.saturating_sub(*before);
        if delta != 0 {
            counters.push((crate::COUNTER_NAMES[idx], delta));
        }
    }
    counters.sort_by_key(|(name, _)| *name);
    let _ = ACTIVE.try_with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            let start_ns =
                u64::try_from(started.duration_since(t.start).as_nanos()).unwrap_or(u64::MAX);
            t.events.push(SpanEvent {
                name,
                start_ns,
                dur_ns,
                counters,
            });
        }
    });
}

/// Exact statistics of the work one thread did while a [`StatsScope`]
/// was open: the per-request `stats` block of an optimization report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stats {
    /// Counter deltas indexed by [`Counter`] discriminant. Every counter
    /// is present (zeros included), so the serialized key set is fixed.
    pub counters: [u64; N_COUNTERS],
    /// Spans that completed on the thread while the scope was open.
    pub spans: BTreeMap<&'static str, SpanStat>,
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            counters: [0; N_COUNTERS],
            spans: BTreeMap::new(),
        }
    }
}

impl Stats {
    /// Counter delta by [`Counter`].
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// `(name, delta)` for every counter, in name order.
    fn counters_by_name(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        sorted_counter_indices()
            .iter()
            .map(|&i| (COUNTER_NAMES[i], self.counters[i]))
    }

    /// Appends the stats to `out` as a compact JSON object with stable
    /// key order: `counters` (all, sorted by name), then `spans`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"counters\":");
        write_counters_json(out, self.counters_by_name());
        out.push_str(",\"spans\":");
        write_spans_json(out, &self.spans);
        out.push('}');
    }

    /// Human-readable rendering (nonzero counters, then spans).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_counters_spans_text(&mut out, self.counters_by_name(), &self.spans);
        out
    }
}

/// Counter indices sorted by counter name (the serialized key order).
fn sorted_counter_indices() -> &'static [usize; N_COUNTERS] {
    static SORTED: OnceLock<[usize; N_COUNTERS]> = OnceLock::new();
    SORTED.get_or_init(|| {
        let mut idx: [usize; N_COUNTERS] = std::array::from_fn(|i| i);
        idx.sort_by_key(|&i| COUNTER_NAMES[i]);
        idx
    })
}

struct ScopeFrame {
    base: [u64; N_COUNTERS],
    spans: BTreeMap<&'static str, SpanStat>,
}

thread_local! {
    /// The innermost open stats scope on this thread; an enclosing
    /// scope's frame waits in the inner scope's guard.
    static SCOPE: RefCell<Option<ScopeFrame>> = const { RefCell::new(None) };
}

/// An open per-request stats scope on the calling thread; see
/// [`stats_scope`]. Dropping it without [`StatsScope::finish`] (e.g. on
/// an early error return) closes it and discards its stats. Nested
/// scopes close innermost first, as lexical guards do.
#[must_use = "finish the scope to read its stats"]
pub struct StatsScope {
    /// Whether this scope's frame is still the thread's open frame.
    open: bool,
    /// The enclosing scope's frame, set aside while this scope is open.
    outer: Option<ScopeFrame>,
    /// Scopes are per thread: the guard must not move to another one.
    _thread_bound: std::marker::PhantomData<*const ()>,
}

/// Opens a stats scope on the calling thread, with the thread's current
/// cumulative counter totals as its baseline.
pub fn stats_scope() -> StatsScope {
    let frame = ScopeFrame {
        base: local_counter_totals(),
        spans: BTreeMap::new(),
    };
    let (open, outer) = SCOPE
        .try_with(|s| (true, s.borrow_mut().replace(frame)))
        .unwrap_or((false, None));
    StatsScope {
        open,
        outer,
        _thread_bound: std::marker::PhantomData,
    }
}

impl StatsScope {
    /// Closes the scope and returns the exact stats of the work the
    /// calling thread did since it opened, including any scopes nested
    /// inside it.
    pub fn finish(mut self) -> Stats {
        let Some(frame) = self.close() else {
            return Stats::default();
        };
        let now = local_counter_totals();
        let mut counters = [0u64; N_COUNTERS];
        for ((out, after), before) in counters.iter_mut().zip(now).zip(frame.base) {
            *out = after.saturating_sub(before);
        }
        Stats {
            counters,
            spans: frame.spans,
        }
    }

    /// Takes this scope's frame and reinstates the enclosing one, which
    /// also counts the spans recorded here.
    fn close(&mut self) -> Option<ScopeFrame> {
        if !std::mem::take(&mut self.open) {
            return None;
        }
        let mut outer = self.outer.take();
        SCOPE
            .try_with(|s| {
                let mut s = s.borrow_mut();
                let frame = s.take();
                if let (Some(outer), Some(frame)) = (&mut outer, &frame) {
                    for (name, stat) in &frame.spans {
                        outer.spans.entry(name).or_default().merge(stat);
                    }
                }
                *s = outer;
                frame
            })
            .ok()
            .flatten()
    }
}

impl Drop for StatsScope {
    fn drop(&mut self) {
        self.close();
    }
}

/// Records a completed span into the innermost stats scope open on this
/// thread.
pub(crate) fn record_scoped_span(name: &'static str, ns: u64) {
    let _ = SCOPE.try_with(|s| {
        if let Some(frame) = s.borrow_mut().as_mut() {
            frame.spans.entry(name).or_default().record(ns);
        }
    });
}

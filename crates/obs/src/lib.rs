//! Dependency-free observability layer for the SQO pipeline.
//!
//! The workspace builds hermetically, so this crate supplies the small slice
//! of `tracing`/`metrics` functionality the pipeline needs, in the same
//! spirit as the `shims/` stand-ins:
//!
//! * **Spans** — [`span!`] returns a guard that records elapsed wall time
//!   into a thread-safe global registry keyed by a static name. Each span
//!   name aggregates `count / total_ns / min_ns / max_ns`. Guards are cheap
//!   enough to stay always-on and become a no-op when recording is disabled
//!   (a single relaxed atomic load).
//! * **Counters** — a fixed set of named monotonic counters ([`Counter`]).
//!   Increments land in thread-local cells and are merged into the global
//!   registry when the thread exits (or when the owning thread snapshots).
//!   The parallel Step-3 search workers instead hand their cells to the
//!   joining thread ([`hand_off_local`]), so sequential and parallel runs
//!   report identical totals, per request and globally.
//! * **Histograms** — [`Histogram`] is a dependency-free log-bucketed
//!   (HDR-style, two sub-buckets per octave) streaming latency histogram.
//!   [`record_hist`] records into thread-local histograms that merge into
//!   a global registry with the same flush discipline as the counters
//!   (element-wise bucket addition is associative and commutative, so
//!   parallel and sequential merges are byte-identical). Every completed
//!   span additionally records its duration into the histogram of the
//!   same name, giving p50/p90/p99 per stage for free.
//! * **Traces and per-request stats** — [`trace_begin`] / [`trace_end`]
//!   open a request-scoped trace on the executing thread; spans
//!   completing inside it append ordered [`SpanEvent`]s (name, start
//!   offset, duration, per-thread counter deltas). [`stats_scope`] opens
//!   a thread-local scope whose [`Stats`] are the request's exact counter
//!   deltas and span aggregates.
//! * **Provenance** — [`Provenance`] / [`ProvenanceStep`] records describing
//!   which residue, source integrity constraint, and transformation kind
//!   derived each rewrite. These are plain data (always populated, never
//!   gated by [`enabled`]).
//! * **Snapshots** — [`snapshot`] / [`snapshot_json`] expose the
//!   process-global registry with a stable (sorted) key order for machine
//!   consumption (`metrics`, benchmarks, tests).

#![warn(missing_docs)]

mod hist;
mod trace;

pub use hist::{Histogram, N_HIST_BUCKETS};
pub use trace::{
    stats_scope, trace_active, trace_begin, trace_end, trace_event, SpanEvent, Stats, StatsScope,
    Trace,
};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable switch
// ---------------------------------------------------------------------------

/// Recording is on by default: the whole point of the layer is that it is
/// cheap enough to leave enabled. `set_enabled(false)` turns every span and
/// counter into a no-op behind one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Returns whether span/counter recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables span/counter recording globally.
///
/// Disabling does not clear previously recorded data; use [`reset`] for that.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// The fixed set of pipeline counters.
///
/// Every counter is monotonic within a process (until [`reset`]). The
/// discriminant doubles as the index into the counter arrays, and
/// [`Counter::name`] gives the stable dotted name used in snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Classes parsed by the ODL parser (Step 1 input).
    OdlClassesParsed,
    /// OQL queries translated to Datalog (Step 2).
    TranslateQueries,
    /// Residues attached to relation predicates during IC compilation.
    ResiduesAttached,
    /// Residues whose body matched a query and produced a candidate.
    ResiduesApplied,
    /// Residue applicability prefilter accepted (full match attempted).
    PrefilterHits,
    /// Residue applicability prefilter rejected (match skipped).
    PrefilterMisses,
    /// Atom-level unification attempts.
    UnifyAttempts,
    /// Subsumption checks (`match_body_onto` invocations).
    SubsumeChecks,
    /// Search nodes expanded by the Step-3 BFS.
    SearchNodesExpanded,
    /// Candidate nodes pruned by the Step-3 BFS (budget or variant cap).
    SearchNodesPruned,
    /// Candidates dropped because their fingerprint was already seen.
    SearchDedupHits,
    /// BFS levels processed by the Step-3 search.
    SearchLevels,
    /// Tuples flowing into join steps during evaluation.
    EvalJoinInputTuples,
    /// Tuples flowing out of join steps during evaluation.
    EvalJoinOutputTuples,
    /// Queries executed by the object-database evaluator.
    ExecQueries,
    /// Queries optimized by the `SemanticOptimizer` facade.
    OptimizerQueries,
    /// Equivalent rewrites (beyond the original) produced by the optimizer.
    OptimizerRewrites,
    /// Queries refuted outright by an integrity constraint.
    OptimizerContradictions,
    /// Plan-cache lookups answered with a fully retargeted cached plan.
    PlanCacheHits,
    /// Plan-cache lookups where the template matched but the parameter
    /// signature differed, forcing a fresh search that re-populated the
    /// template entry.
    PlanCacheRebinds,
    /// Plan-cache lookups that found no usable entry.
    PlanCacheMisses,
    /// Plan-cache entries dropped by a generation bump (IC/schema reload).
    PlanCacheInvalidations,
    /// Sessions prepared (ODL parse + Step-1 translation + residue
    /// compilation) by the service session registry.
    ServiceSessionsPrepared,
    /// Requests accepted by the serve front end (all ops).
    ServeRequests,
    /// Requests shed because the admission queue was full.
    ServeShed,
    /// Requests that missed their deadline before or during execution.
    ServeDeadlineExceeded,
    /// Total nanoseconds accepted requests spent waiting in the admission
    /// queue before a worker picked them up.
    ServeWaitNs,
    /// Requests whose service time exceeded the slow-query threshold.
    ServeSlowQueries,
    /// Equality probes against declared (persistent) hash indexes.
    ExecIndexProbes,
    /// Range probes against declared ordered indexes.
    ExecRangeProbes,
    /// Full relation passes (explicit scans plus ephemeral index builds).
    ExecScans,
    /// Path-expression chains fused into index-nested-loop walks.
    ExecChainsFused,
    /// Candidate variants eliminated by the subsumption index before
    /// analysis/costing (best-first Step-3 search).
    SearchSubsumedPruned,
    /// Residue applications skipped by the exactness prefilter: the
    /// residue head provably cannot change the answer set of any query.
    SearchExactSkipped,
    /// Peak size of the best-first priority frontier, summed per search.
    SearchFrontierPeak,
    /// Records appended to the object-store write-ahead log.
    StoreWalAppends,
    /// Bytes written by the most recent store snapshot (cumulative across
    /// snapshots; per-snapshot sizes are visible in the `persist` response).
    StoreSnapshotBytes,
    /// Total nanoseconds spent recovering stores (snapshot load + WAL
    /// tail replay).
    StoreRecoverNs,
    /// Total nanoseconds spent waiting to acquire store shard locks.
    StoreShardLockWaitNs,
    /// Full object-database EDB constructions (database creation and
    /// store recovery; writes maintain the EDB by deltas instead).
    EdbBuilds,
}

/// Number of distinct counters.
pub const N_COUNTERS: usize = 40;

const COUNTER_NAMES: [&str; N_COUNTERS] = [
    "odl.classes_parsed",
    "translate.queries",
    "residue.attached",
    "residue.applied",
    "residue.prefilter_hits",
    "residue.prefilter_misses",
    "unify.attempts",
    "subsume.checks",
    "search.nodes_expanded",
    "search.nodes_pruned",
    "search.dedup_hits",
    "search.levels",
    "eval.join_input_tuples",
    "eval.join_output_tuples",
    "exec.queries",
    "optimizer.queries",
    "optimizer.rewrites",
    "optimizer.contradictions",
    "plan_cache.hits",
    "plan_cache.rebinds",
    "plan_cache.misses",
    "plan_cache.invalidations",
    "service.sessions_prepared",
    "serve.requests",
    "serve.shed",
    "serve.deadline_exceeded",
    "serve.wait_ns",
    "serve.slow_queries",
    "exec.index_probe",
    "exec.range_probe",
    "exec.scan",
    "exec.chain_fused",
    "search.subsumed_pruned",
    "search.exact_skipped",
    "search.frontier_peak",
    "store.wal_appends",
    "store.snapshot_bytes",
    "store.recover_ns",
    "store.shard_lock_wait",
    "objdb.edb_builds",
];

impl Counter {
    /// Stable dotted name used as the snapshot key.
    #[inline]
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
    }

    /// All counters, in declaration order.
    pub fn all() -> impl Iterator<Item = Counter> {
        (0..N_COUNTERS).map(|i| ALL_COUNTERS[i])
    }
}

const ALL_COUNTERS: [Counter; N_COUNTERS] = [
    Counter::OdlClassesParsed,
    Counter::TranslateQueries,
    Counter::ResiduesAttached,
    Counter::ResiduesApplied,
    Counter::PrefilterHits,
    Counter::PrefilterMisses,
    Counter::UnifyAttempts,
    Counter::SubsumeChecks,
    Counter::SearchNodesExpanded,
    Counter::SearchNodesPruned,
    Counter::SearchDedupHits,
    Counter::SearchLevels,
    Counter::EvalJoinInputTuples,
    Counter::EvalJoinOutputTuples,
    Counter::ExecQueries,
    Counter::OptimizerQueries,
    Counter::OptimizerRewrites,
    Counter::OptimizerContradictions,
    Counter::PlanCacheHits,
    Counter::PlanCacheRebinds,
    Counter::PlanCacheMisses,
    Counter::PlanCacheInvalidations,
    Counter::ServiceSessionsPrepared,
    Counter::ServeRequests,
    Counter::ServeShed,
    Counter::ServeDeadlineExceeded,
    Counter::ServeWaitNs,
    Counter::ServeSlowQueries,
    Counter::ExecIndexProbes,
    Counter::ExecRangeProbes,
    Counter::ExecScans,
    Counter::ExecChainsFused,
    Counter::SearchSubsumedPruned,
    Counter::SearchExactSkipped,
    Counter::SearchFrontierPeak,
    Counter::StoreWalAppends,
    Counter::StoreSnapshotBytes,
    Counter::StoreRecoverNs,
    Counter::StoreShardLockWaitNs,
    Counter::EdbBuilds,
];

/// Global merged totals. Thread-local cells flush here on thread exit and on
/// [`snapshot`]/[`reset`] from the owning thread.
static GLOBAL: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];

/// Per-thread counter cells. Keeping increments thread-local means the hot
/// paths (unification, prefilter checks) never contend on a shared cache
/// line; the `Drop` impl merges whatever is left in a thread's cells into
/// [`GLOBAL`] when the thread exits.
struct LocalCells {
    cells: [Cell<u64>; N_COUNTERS],
    /// Cumulative totals that have left `cells`: flushed to [`GLOBAL`] or
    /// handed to a joining thread by [`hand_off_local`].
    /// `cells[i] + flushed[i]` is the thread's monotonic lifetime total,
    /// which the trace layer diffs to attribute counters to spans without
    /// adding any work to the hot [`add`] path (flushes are rare).
    flushed: [Cell<u64>; N_COUNTERS],
}

impl LocalCells {
    const fn new() -> Self {
        LocalCells {
            cells: [const { Cell::new(0) }; N_COUNTERS],
            flushed: [const { Cell::new(0) }; N_COUNTERS],
        }
    }

    fn flush(&self) {
        for ((cell, flushed), global) in self
            .cells
            .iter()
            .zip(self.flushed.iter())
            .zip(GLOBAL.iter())
        {
            let v = cell.replace(0);
            if v != 0 {
                flushed.set(flushed.get().wrapping_add(v));
                global.fetch_add(v, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for LocalCells {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: LocalCells = const { LocalCells::new() };
}

/// Increments `c` by one.
#[inline]
pub fn bump(c: Counter) {
    add(c, 1);
}

/// Adds `n` to counter `c`.
///
/// The increment lands in a thread-local cell; totals become globally
/// visible when the thread exits or when the thread calls [`snapshot`].
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    let idx = c as usize;
    // `try_with` so late increments during thread teardown (after the TLS
    // destructor ran) fall back to the global registry instead of panicking.
    let ok = LOCAL.try_with(|l| l.cells[idx].set(l.cells[idx].get() + n));
    if ok.is_err() {
        GLOBAL[idx].fetch_add(n, Ordering::Relaxed);
    }
}

/// The calling thread's monotonic lifetime counter totals (live cells plus
/// everything it already flushed). Used by the trace layer for per-span
/// counter deltas; immune to mid-span flushes, unlike the raw cells.
pub(crate) fn local_counter_totals() -> [u64; N_COUNTERS] {
    LOCAL
        .try_with(|l| {
            let mut out = [0u64; N_COUNTERS];
            for (o, (cell, flushed)) in out.iter_mut().zip(l.cells.iter().zip(l.flushed.iter())) {
                *o = cell.get().wrapping_add(flushed.get());
            }
            out
        })
        .unwrap_or([0; N_COUNTERS])
}

/// Flushes the calling thread's local counter cells and histograms into the
/// global registries.
///
/// Worker threads flush automatically on exit; long-lived threads (e.g. the
/// main thread) call this implicitly via [`snapshot`] / [`reset`].
pub fn flush_local() {
    let _ = LOCAL.try_with(LocalCells::flush);
    let _ = LOCAL_HISTS.try_with(LocalHists::flush);
}

/// A worker thread's unflushed counter cells, taken by [`hand_off_local`]
/// so that the thread joining the worker can
/// [`absorb`](LocalHandoff::absorb) them as its own work.
///
/// The parallel Step-3 workers end with this instead of
/// [`flush_local`]: the joining thread is the one executing the request,
/// so its per-request [`Stats`] and trace counter deltas count the
/// search work the workers did for it, and the global totals are those
/// of a sequential run. A hand-off dropped without being absorbed (e.g.
/// when the joining thread panics) adds its counters to the global
/// registry.
#[must_use = "absorb the hand-off on the joining thread"]
pub struct LocalHandoff {
    counters: [u64; N_COUNTERS],
}

/// Takes the calling thread's unflushed counter cells for a
/// [`LocalHandoff`] and flushes its histograms into the global registry.
/// The thread's own cumulative totals (which the trace layer and
/// [`stats_scope`] diff) still count the taken work.
pub fn hand_off_local() -> LocalHandoff {
    let mut counters = [0u64; N_COUNTERS];
    let _ = LOCAL.try_with(|l| {
        for ((out, cell), flushed) in counters.iter_mut().zip(&l.cells).zip(&l.flushed) {
            *out = cell.replace(0);
            flushed.set(flushed.get().wrapping_add(*out));
        }
    });
    let _ = LOCAL_HISTS.try_with(LocalHists::flush);
    LocalHandoff { counters }
}

impl LocalHandoff {
    /// Adds the handed-off counters to the calling thread's own cells, as
    /// if this thread had done the work.
    pub fn absorb(mut self) {
        let counters = &mut self.counters;
        let _ = LOCAL.try_with(|l| {
            for (cell, v) in l.cells.iter().zip(counters.iter_mut()) {
                cell.set(cell.get() + std::mem::take(v));
            }
        });
    }
}

impl Drop for LocalHandoff {
    fn drop(&mut self) {
        for (global, &v) in GLOBAL.iter().zip(&self.counters) {
            if v != 0 {
                global.fetch_add(v, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram registry
// ---------------------------------------------------------------------------

/// Global merged histograms keyed by name. Span names land here via
/// [`SpanGuard`]; explicit request-level series (`serve.request`,
/// `serve.wait`) via [`record_hist`].
static HISTS: Mutex<BTreeMap<&'static str, Histogram>> = Mutex::new(BTreeMap::new());

/// Per-thread histograms, merged into [`HISTS`] with the same discipline as
/// the counter cells: on thread exit and on [`flush_local`] / [`snapshot`].
/// Bucket merges are element-wise additions, so the merged state does not
/// depend on thread interleaving or merge order.
struct LocalHists {
    map: RefCell<BTreeMap<&'static str, Histogram>>,
}

impl LocalHists {
    const fn new() -> Self {
        LocalHists {
            map: RefCell::new(BTreeMap::new()),
        }
    }

    fn flush(&self) {
        let mut local = self.map.borrow_mut();
        if local.is_empty() {
            return;
        }
        if let Ok(mut global) = HISTS.lock() {
            for (name, h) in local.iter() {
                global.entry(name).or_default().merge(h);
            }
        }
        local.clear();
    }
}

impl Drop for LocalHists {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL_HISTS: LocalHists = const { LocalHists::new() };
}

/// Records one sample (nanoseconds, by convention) into the named
/// histogram. Thread-local until the next flush, like counters.
#[inline]
pub fn record_hist(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    let ok = LOCAL_HISTS.try_with(|h| h.map.borrow_mut().entry(name).or_default().record(ns));
    if ok.is_err() {
        // TLS teardown: merge straight into the global registry.
        if let Ok(mut global) = HISTS.lock() {
            global.entry(name).or_default().record(ns);
        }
    }
}

/// Ensures the named histogram exists in the global registry (with zero
/// samples if never recorded), so consumers see a stable key set.
pub fn hist_touch(name: &'static str) {
    if let Ok(mut global) = HISTS.lock() {
        global.entry(name).or_default();
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Aggregated timing for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed span guards.
    pub count: u64,
    /// Total elapsed nanoseconds across all completions.
    pub total_ns: u64,
    /// Fastest single completion in nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Slowest single completion in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    pub(crate) fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
    }

    pub(crate) fn merge(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.total_ns += other.total_ns;
    }

    /// Mean elapsed nanoseconds per completion (0 when `count == 0`).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Span registry. Spans fire at pipeline-stage granularity (a handful per
/// optimized query), so one mutex around a sorted map is plenty; the hot
/// per-atom work uses thread-local [`Counter`]s instead.
static SPANS: Mutex<BTreeMap<&'static str, SpanStat>> = Mutex::new(BTreeMap::new());

/// RAII guard created by [`span!`]; records elapsed time on drop into the
/// span registry and the same-named latency histogram, and — when a trace
/// is active on this thread — appends a [`SpanEvent`] with the counter
/// delta observed while the span was open.
#[must_use = "binding the guard to `_name` keeps the span open for the scope"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    trace_base: Option<Box<[u64; N_COUNTERS]>>,
}

impl SpanGuard {
    /// Starts a span. Prefer the [`span!`] macro at call sites.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                name,
                start: None,
                trace_base: None,
            };
        }
        SpanGuard {
            name,
            start: Some(Instant::now()),
            trace_base: trace::span_baseline(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Ok(mut spans) = SPANS.lock() {
                spans.entry(self.name).or_default().record(ns);
            }
            record_hist(self.name, ns);
            trace::record_scoped_span(self.name, ns);
            if let Some(base) = self.trace_base.take() {
                trace::push_span(self.name, start, ns, &base);
            }
        }
    }
}

/// Opens a timing span for the rest of the enclosing scope:
/// `let _span = obs::span!("step3.search");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of the counter and span registries.
///
/// Both maps use sorted (`BTreeMap`) key order, so serialized snapshots are
/// byte-comparable across runs and across the sequential/parallel search
/// backends.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals keyed by [`Counter::name`]. Every counter is present,
    /// including zeros, so the key set is build-independent.
    pub counters: BTreeMap<&'static str, u64>,
    /// Span aggregates keyed by span name.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Latency histograms keyed by series name (span names plus explicit
    /// `serve.*` series).
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl Snapshot {
    /// Returns the delta of `self` relative to an `earlier` snapshot.
    ///
    /// Counter values, span `count`/`total_ns`, and histogram buckets
    /// subtract; span and histogram `min`/`max` are taken from `self`
    /// (extrema cannot be un-merged). Spans and histograms with no
    /// completions since `earlier` are omitted.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| {
                (
                    *name,
                    v.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0)),
                )
            })
            .collect();
        let mut spans = BTreeMap::new();
        for (name, stat) in &self.spans {
            let before = earlier.spans.get(name).copied().unwrap_or_default();
            let count = stat.count.saturating_sub(before.count);
            if count > 0 {
                spans.insert(
                    *name,
                    SpanStat {
                        count,
                        total_ns: stat.total_ns.saturating_sub(before.total_ns),
                        min_ns: stat.min_ns,
                        max_ns: stat.max_ns,
                    },
                );
            }
        }
        let mut hists = BTreeMap::new();
        for (name, h) in &self.hists {
            let delta = match earlier.hists.get(name) {
                Some(before) => h.since(before),
                None => h.clone(),
            };
            if delta.count() > 0 {
                hists.insert(*name, delta);
            }
        }
        Snapshot {
            counters,
            spans,
            hists,
        }
    }

    /// Counter total by [`Counter`], defaulting to 0.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    /// Serializes the snapshot as a compact JSON object with stable key
    /// order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the snapshot to `out` as a compact JSON object with stable
    /// key order: `counters`, `spans`, `hists`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"counters\":");
        write_counters_json(out, self.counters.iter().map(|(k, v)| (*k, *v)));
        out.push_str(",\"spans\":");
        write_spans_json(out, &self.spans);
        out.push_str(",\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(out, name);
            out.push(':');
            h.write_summary_json(out);
        }
        out.push_str("}}");
    }

    /// Human-readable rendering of the snapshot (counters, spans, then
    /// histograms).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_counters_spans_text(
            &mut out,
            self.counters.iter().map(|(k, v)| (*k, *v)),
            &self.spans,
        );
        out.push_str("hists (count / p50 / p99 / max):\n");
        for (name, h) in &self.hists {
            let q = |p: f64| h.quantile(p).unwrap_or(0);
            out.push_str(&format!(
                "  {name:<28} {:>6} / {:>8} ns / {:>8} ns / {:>8} ns\n",
                h.count(),
                q(0.5),
                q(0.99),
                h.max().unwrap_or(0)
            ));
        }
        out
    }
}

/// Appends `{"name":value,...}` for counters given in key order.
pub(crate) fn write_counters_json(
    out: &mut String,
    counters: impl Iterator<Item = (&'static str, u64)>,
) {
    use fmt::Write;
    out.push('{');
    for (i, (name, v)) in counters.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, name);
        let _ = write!(out, ":{v}");
    }
    out.push('}');
}

/// Appends `{"name":{"count":..,"total_ns":..,"min_ns":..,"max_ns":..},...}`.
pub(crate) fn write_spans_json(out: &mut String, spans: &BTreeMap<&'static str, SpanStat>) {
    use fmt::Write;
    out.push('{');
    for (i, (name, s)) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, name);
        let _ = write!(
            out,
            ":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
            s.count, s.total_ns, s.min_ns, s.max_ns
        );
    }
    out.push('}');
}

/// The counter (nonzero only) and span sections of the text renderings.
pub(crate) fn write_counters_spans_text(
    out: &mut String,
    counters: impl Iterator<Item = (&'static str, u64)>,
    spans: &BTreeMap<&'static str, SpanStat>,
) {
    out.push_str("counters:\n");
    for (name, v) in counters {
        if v != 0 {
            out.push_str(&format!("  {name:<28} {v}\n"));
        }
    }
    out.push_str("spans (count / total / mean):\n");
    for (name, s) in spans {
        out.push_str(&format!(
            "  {name:<28} {:>6} / {:>10} ns / {:>8} ns\n",
            s.count,
            s.total_ns,
            s.mean_ns()
        ));
    }
}

/// Takes a snapshot of all counters, spans, and histograms.
///
/// Flushes the calling thread's local cells first, so totals include all
/// work done on this thread and on any already-joined worker thread.
pub fn snapshot() -> Snapshot {
    flush_local();
    let counters = Counter::all()
        .map(|c| (c.name(), GLOBAL[c as usize].load(Ordering::Relaxed)))
        .collect();
    let spans = SPANS.lock().map(|s| s.clone()).unwrap_or_default();
    let hists = HISTS.lock().map(|h| h.clone()).unwrap_or_default();
    Snapshot {
        counters,
        spans,
        hists,
    }
}

/// [`snapshot`] serialized as JSON with stable key order.
pub fn snapshot_json() -> String {
    snapshot().to_json()
}

/// Zeroes all global counters, the calling thread's local cells and
/// histograms, and the span and histogram registries. Counts still held by
/// *other* live threads are unaffected until those threads flush.
pub fn reset() {
    let _ = LOCAL.try_with(|l| {
        for (cell, flushed) in l.cells.iter().zip(l.flushed.iter()) {
            cell.set(0);
            flushed.set(0);
        }
    });
    let _ = LOCAL_HISTS.try_with(|h| h.map.borrow_mut().clear());
    for global in &GLOBAL {
        global.store(0, Ordering::Relaxed);
    }
    if let Ok(mut spans) = SPANS.lock() {
        spans.clear();
    }
    if let Ok(mut hists) = HISTS.lock() {
        hists.clear();
    }
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

/// One derivation step in a rewrite's provenance chain: which transformation
/// kind fired, driven by which residue and source integrity constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceStep {
    /// Transformation kind (e.g. `"scope-reduction"`, `"join-elimination"`).
    pub kind: &'static str,
    /// Residue id of the form `r<index>@<anchor-pred>`, when a compiled
    /// residue drove the step.
    pub residue: Option<String>,
    /// Name of the source integrity constraint (or view), when known.
    pub ic: Option<String>,
    /// Free-form description of what the step changed.
    pub detail: String,
}

impl ProvenanceStep {
    /// The synthetic step carried by the unmodified original query, so every
    /// equivalent query — including the input itself — has a non-empty chain.
    pub fn original() -> ProvenanceStep {
        ProvenanceStep {
            kind: "original",
            residue: None,
            ic: None,
            detail: "input query, no transformation applied".to_string(),
        }
    }

    /// Appends the step to `out` as a compact JSON object (`kind`,
    /// `residue`, `ic`, `detail`).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"kind\":");
        write_json_str(out, self.kind);
        out.push_str(",\"residue\":");
        write_json_opt_str(out, self.residue.as_deref());
        out.push_str(",\"ic\":");
        write_json_opt_str(out, self.ic.as_deref());
        out.push_str(",\"detail\":");
        write_json_str(out, &self.detail);
        out.push('}');
    }
}

impl fmt::Display for ProvenanceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(r) = &self.residue {
            write!(f, " via {r}")?;
        }
        if let Some(ic) = &self.ic {
            write!(f, " [{ic}]")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

/// The full derivation chain for one equivalent query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Derivation steps in application order.
    pub steps: Vec<ProvenanceStep>,
}

impl Provenance {
    /// Chain for the unmodified original query (one synthetic step).
    pub fn original() -> Provenance {
        Provenance {
            steps: vec![ProvenanceStep::original()],
        }
    }

    /// Builds a chain from derivation steps; an empty step list denotes the
    /// original query and maps to [`Provenance::original`].
    pub fn from_steps(steps: Vec<ProvenanceStep>) -> Provenance {
        if steps.is_empty() {
            Provenance::original()
        } else {
            Provenance { steps }
        }
    }

    /// Appends the chain to `out` as a compact JSON array of step objects.
    pub fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            step.write_json(out);
        }
        out.push(']');
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}. {step}", i + 1)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JSON helpers (shared by explain() implementations downstream)
// ---------------------------------------------------------------------------

/// Escapes and quotes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

/// Appends `s` to `out` as a quoted JSON string literal.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `s` to `out` as a JSON string literal, or `null` for `None`.
pub fn write_json_opt_str(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => write_json_str(out, s),
        None => out.push_str("null"),
    }
}

/// Appends the `Display` rendering of `v` to `out` as a quoted JSON
/// string literal, escaping each chunk as the formatter produces it (no
/// intermediate `String`).
pub fn write_json_display(out: &mut String, v: &dyn fmt::Display) {
    use fmt::Write;
    out.push('"');
    // `JsonEscape::write_str` never fails.
    let _ = write!(JsonEscape(out), "{v}");
    out.push('"');
}

/// A `fmt::Write` adapter that appends JSON-escaped text (without the
/// surrounding quotes) to the wrapped buffer.
struct JsonEscape<'a>(&'a mut String);

impl fmt::Write for JsonEscape<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// JSON-escapes `s` onto `out`, copying each run of bytes that needs no
/// escape in one go. Every byte that needs one is ASCII, so run
/// boundaries are always character boundaries.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests in this binary: they all mutate the global registry.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_merge_from_scoped_workers() {
        let _g = lock();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        bump(Counter::UnifyAttempts);
                    }
                    // Scope exit only waits for the closure to return, not
                    // for TLS destructors, so flush before returning.
                    flush_local();
                });
            }
        });
        bump(Counter::UnifyAttempts);
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::UnifyAttempts), 401);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = lock();
        reset();
        set_enabled(false);
        bump(Counter::SubsumeChecks);
        {
            let _s = span!("test.disabled");
        }
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::SubsumeChecks), 0);
        assert!(!snap.spans.contains_key("test.disabled"));
    }

    #[test]
    fn span_guard_records_count_and_extrema() {
        let _g = lock();
        reset();
        for _ in 0..3 {
            let _s = span!("test.span");
        }
        let snap = snapshot();
        let stat = snap.spans["test.span"];
        assert_eq!(stat.count, 3);
        assert!(stat.min_ns <= stat.max_ns);
        assert!(stat.total_ns >= stat.max_ns);
    }

    #[test]
    fn snapshot_json_has_stable_sorted_keys() {
        let _g = lock();
        reset();
        bump(Counter::SearchLevels);
        let json = snapshot_json();
        let a = json.find("\"eval.join_input_tuples\"").unwrap();
        let b = json.find("\"search.levels\"").unwrap();
        let c = json.find("\"unify.attempts\"").unwrap();
        assert!(a < b && b < c, "counter keys must be sorted");
        assert_eq!(json, snapshot_json());
    }

    #[test]
    fn since_subtracts_counters_and_span_counts() {
        let _g = lock();
        reset();
        add(Counter::ResiduesApplied, 5);
        {
            let _s = span!("test.delta");
        }
        let before = snapshot();
        add(Counter::ResiduesApplied, 7);
        {
            let _s = span!("test.delta");
        }
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter(Counter::ResiduesApplied), 7);
        assert_eq!(delta.spans["test.delta"].count, 1);
        assert_eq!(delta.counter(Counter::SearchLevels), 0);
    }

    #[test]
    fn provenance_chain_renders_json_and_text() {
        let step = ProvenanceStep {
            kind: "scope-reduction",
            residue: Some("r3@faculty".into()),
            ic: Some("IC4".into()),
            detail: "added not dept(x)".into(),
        };
        let chain = Provenance::from_steps(vec![step]);
        let mut json = String::new();
        chain.write_json(&mut json);
        assert!(json.contains("\"kind\":\"scope-reduction\""));
        assert!(json.contains("\"residue\":\"r3@faculty\""));
        assert!(json.contains("\"ic\":\"IC4\""));
        let text = chain.to_string();
        assert!(text.contains("via r3@faculty"));
        assert_eq!(Provenance::from_steps(Vec::new()).steps[0].kind, "original");
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}é\u{1f}"), "\"\\u0001é\\u001f\"");
        let mut out = String::new();
        write_json_opt_str(&mut out, None);
        assert_eq!(out, "null");
    }

    #[test]
    fn spans_record_into_same_named_histograms() {
        let _g = lock();
        reset();
        for _ in 0..5 {
            let _s = span!("test.hist.span");
        }
        let snap = snapshot();
        let h = &snap.hists["test.hist.span"];
        assert_eq!(h.count(), 5);
        assert!(h.quantile(0.5).is_some());
        assert!(snap.to_json().contains("\"test.hist.span\""));
    }

    #[test]
    fn histograms_merge_from_scoped_workers_byte_identically() {
        let _g = lock();
        reset();
        // Four workers record disjoint deterministic samples...
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..250u64 {
                        record_hist("test.hist.merge", (t * 250 + i) * 17 % 9973);
                    }
                    flush_local();
                });
            }
        });
        let parallel = snapshot().hists["test.hist.merge"].clone();
        reset();
        // ...and one thread records the union sequentially.
        for v in 0..1000u64 {
            record_hist("test.hist.merge", v * 17 % 9973);
        }
        let sequential = snapshot().hists["test.hist.merge"].clone();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.summary_json(), sequential.summary_json());
    }

    #[test]
    fn disabled_recording_skips_histograms_and_traces() {
        let _g = lock();
        reset();
        set_enabled(false);
        record_hist("test.hist.disabled", 42);
        {
            let _s = span!("test.hist.disabled");
        }
        set_enabled(true);
        let snap = snapshot();
        assert!(!snap.hists.contains_key("test.hist.disabled"));
    }

    #[test]
    fn hist_touch_pins_the_key_with_zero_samples() {
        let _g = lock();
        reset();
        hist_touch("test.hist.touched");
        let snap = snapshot();
        let h = &snap.hists["test.hist.touched"];
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), None);
    }

    #[test]
    fn trace_collects_ordered_events_with_counter_deltas() {
        let _g = lock();
        reset();
        assert!(trace_end().is_none());
        trace_begin("s:0:7".to_string());
        trace_event("serve.admission_wait", 0, 1234);
        {
            let _s = span!("test.trace.outer");
            add(Counter::UnifyAttempts, 3);
            // A snapshot mid-span flushes the local cells; the cumulative
            // totals keep the delta intact.
            let _ = snapshot();
            add(Counter::UnifyAttempts, 2);
        }
        {
            let _s = span!("test.trace.second");
        }
        let trace = trace_end().expect("trace was active");
        assert_eq!(trace.id, "s:0:7");
        let names: Vec<&str> = trace.events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "serve.admission_wait",
                "test.trace.outer",
                "test.trace.second"
            ]
        );
        assert_eq!(trace.event_dur_ns("serve.admission_wait"), Some(1234));
        let outer = &trace.events[1];
        assert!(outer.counters.contains(&("unify.attempts", 5)));
        let json = trace.events_json();
        assert!(json.contains("\"name\": \"test.trace.outer\""));
        assert!(json.contains("\"unify.attempts\": 5"));
        // The trace is closed: further spans do not record events.
        assert!(!trace_active());
        assert!(trace_end().is_none());
    }

    #[test]
    fn stats_scope_counts_only_its_own_thread() {
        let _g = lock();
        reset();
        {
            let _s = span!("test.scope.before");
        }
        bump(Counter::SearchLevels);
        let scope = stats_scope();
        add(Counter::UnifyAttempts, 3);
        std::thread::scope(|s| {
            s.spawn(|| {
                add(Counter::UnifyAttempts, 100);
                {
                    let _s = span!("test.scope.other_thread");
                }
                flush_local();
            });
        });
        // A flush mid-scope must not disturb the delta.
        let _ = snapshot();
        add(Counter::UnifyAttempts, 2);
        for _ in 0..2 {
            let _s = span!("test.scope.inner");
        }
        let stats = scope.finish();
        assert_eq!(stats.counter(Counter::UnifyAttempts), 5);
        assert_eq!(stats.counter(Counter::SearchLevels), 0);
        assert_eq!(
            stats.spans.keys().copied().collect::<Vec<_>>(),
            ["test.scope.inner"]
        );
        let s = stats.spans["test.scope.inner"];
        assert_eq!(s.count, 2);
        assert!(s.min_ns <= s.max_ns && s.max_ns <= s.total_ns);
        assert_eq!(snapshot().counter(Counter::UnifyAttempts), 105);
    }

    #[test]
    fn stats_json_lists_every_counter_sorted_and_no_hists() {
        let _g = lock();
        let scope = stats_scope();
        bump(Counter::SearchLevels);
        {
            let _s = span!("test.scope.json");
        }
        let mut json = String::new();
        scope.finish().write_json(&mut json);
        let mut names: Vec<&str> = Counter::all().map(Counter::name).collect();
        names.sort_unstable();
        let positions: Vec<usize> = names
            .iter()
            .map(|n| json.find(&format!("\"{n}\":")).expect("every counter"))
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{json}");
        assert!(json.contains("\"search.levels\":1"));
        assert!(json.contains("\"spans\":{\"test.scope.json\":{\"count\":1,"));
        assert!(!json.contains("hists"));
    }

    #[test]
    fn nested_stats_scopes_each_see_their_window() {
        let _g = lock();
        let outer = stats_scope();
        bump(Counter::ExecScans);
        let inner = stats_scope();
        bump(Counter::ExecScans);
        {
            let _s = span!("test.scope.nested");
        }
        let inner = inner.finish();
        // A scope dropped unfinished (an early error return) closes itself
        // and hands its spans back to the enclosing scope.
        {
            let _abandoned = stats_scope();
            bump(Counter::ExecScans);
            let _s = span!("test.scope.abandoned");
        }
        {
            let _s = span!("test.scope.nested");
        }
        let outer = outer.finish();
        assert_eq!(inner.counter(Counter::ExecScans), 1);
        assert_eq!(outer.counter(Counter::ExecScans), 3);
        assert_eq!(inner.spans["test.scope.nested"].count, 1);
        assert_eq!(outer.spans["test.scope.nested"].count, 2);
        assert_eq!(outer.spans["test.scope.abandoned"].count, 1);
        assert!(!inner.spans.contains_key("test.scope.abandoned"));
    }

    #[test]
    fn worker_hand_off_counts_for_the_joining_thread_once() {
        let _g = lock();
        reset();
        let scope = stats_scope();
        let handoffs: Vec<LocalHandoff> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        add(Counter::SubsumeChecks, 10);
                        record_hist("test.handoff.hist", 7);
                        hand_off_local()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for h in handoffs {
            h.absorb();
        }
        let stats = scope.finish();
        assert_eq!(stats.counter(Counter::SubsumeChecks), 30);
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::SubsumeChecks), 30);
        assert_eq!(snap.hists["test.handoff.hist"].count(), 3);
        // A hand-off nobody absorbs still reaches the global registry.
        let orphan = std::thread::scope(|s| {
            s.spawn(|| {
                add(Counter::SubsumeChecks, 4);
                hand_off_local()
            })
            .join()
            .unwrap()
        });
        drop(orphan);
        assert_eq!(snapshot().counter(Counter::SubsumeChecks), 34);
    }
}

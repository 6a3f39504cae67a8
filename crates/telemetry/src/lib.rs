//! Sim-clock telemetry for the audit pipeline.
//!
//! The paper's headline evidence is *operational* — Table I rate limits,
//! Table II response times, the 27-day Obama crawl — so the reproduction
//! treats crawl-cost accounting as a first-class artefact. This crate is
//! the measurement substrate every layer shares:
//!
//! * [`trace`] — spans and point events keyed to **simulated time** (f64
//!   seconds, never the wall clock), so traces are deterministic and
//!   byte-replayable; since ISSUE 4 spans carry a [`SpanId`] and parent
//!   link, threaded through the request path as an explicit
//!   [`TraceContext`] argument, so every request is a causal tree;
//! * [`metrics`] — a thread-safe registry of counters, gauges and
//!   histograms with labelled names (`api.calls{endpoint=followers_ids}`,
//!   `cache.hit{tool=TA}`, `service.response_secs{tool,source}` …);
//! * [`sink`] — the JSON-lines trace encoding (buffered via
//!   [`JsonlSink`]) and its parser;
//! * [`json`] — the workspace's one JSON escaper, number format, reader
//!   and `BENCH_*.json` envelope;
//! * [`clock`] — the [`Clock`] seam between simulated seconds and
//!   `Instant`-based wall time, so the wall-clock gateway and the
//!   simulators share one analysis layer;
//! * [`analyze`] — the trace-tree analysis layer: per-request waterfalls,
//!   critical-path latency attribution, the Chrome trace-event exporter
//!   and the sliding-window SLO evaluator;
//! * [`monitor`] — the *streaming* half of the SLO story: per-route
//!   sliding time-bucket windows, multi-window multi-burn-rate alerting
//!   with a `Pending → Firing → Resolved` state machine, a fixed-capacity
//!   metrics history ring, and the tail-based trace sampler that decides
//!   which request trees the bounded trace buffer must retain;
//! * [`profile`] — per-span self-time aggregation folding whole traces
//!   into deterministic folded-stack flamegraph text, plus the opt-in
//!   counting global allocator (feature `alloc-profile`);
//! * [`report`] — the end-of-run summary table ([`RunReport`]).
//!
//! The entry point is [`Telemetry`], a cheaply cloneable handle that every
//! instrumented component shares. A **disabled** handle (the default) makes
//! every recording call a branch on a null pointer — the instrumented hot
//! paths stay within noise of their uninstrumented cost — while an
//! **enabled** handle collects into one shared registry and trace:
//!
//! ```
//! use fakeaudit_telemetry::{RunReport, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! tel.counter_add("api.calls", &[("endpoint", "followers_ids")], 2);
//! tel.span("api.call", 0.0, 1.4, &[("endpoint", "followers_ids")]);
//!
//! let mut jsonl = Vec::new();
//! tel.write_jsonl(&mut jsonl).unwrap();
//! assert_eq!(jsonl.iter().filter(|&&b| b == b'\n').count(), 1);
//! assert!(RunReport::from_telemetry(&tel).render().contains("API calls"));
//! ```

// `forbid` everywhere except under `alloc-profile`, whose counting
// global allocator is the one sanctioned `unsafe` block in the crate
// (a `GlobalAlloc` impl cannot be written without it); `deny` still
// requires that block to carry an explicit `#[allow]` + SAFETY note.
#![cfg_attr(not(feature = "alloc-profile"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-profile", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod analyze;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod profile;
pub mod report;
pub mod sink;
pub mod trace;

pub use analyze::{
    Breakdown, ChromeTraceOptions, LatencyAttribution, SloReport, SloSpec, SloWindow,
    ToolAttribution, TraceTree,
};
pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{Exemplar, HistogramSnapshot, MetricKey, MetricsRegistry, MetricsSnapshot};
pub use monitor::{
    AlertPhase, AlertTransition, BurnRule, HistoryFrame, MonitorConfig, MonitorCounts, Signal,
    SloMonitor, TransitionKind,
};
pub use profile::{AllocCounts, AllocScope, SelfTimeProfile};
pub use report::RunReport;
pub use sink::JsonlSink;
pub use trace::{EventKind, SpanId, TraceContext, TraceEvent};

use trace::Record;

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering it if a holder panicked: telemetry only
/// observes, so a series or alert a bug left half-updated must not take
/// down every later request that records into it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tail-sampling retention state: which request trees must survive
/// trace-buffer eviction, and the side lane holding protected events the
/// ring would otherwise have dropped.
#[derive(Debug, Default)]
struct Retention {
    /// Span id → root span id of its request tree, registered when the
    /// span's context is opened (parents are opened before children, so
    /// the parent's root is always known by then).
    roots: HashMap<u64, u64>,
    /// Root ids whose whole tree must survive eviction: error, slow, and
    /// alert-exemplar trees, plus the seeded-probabilistic keepers.
    protected: HashSet<u64>,
    /// Protected events rescued from ring eviction, oldest first.
    parked: VecDeque<Record>,
    /// Bound on `parked`; beyond it even protected events are dropped
    /// (and counted) rather than growing without limit.
    parked_capacity: usize,
    /// Protected events the parked lane itself had to drop.
    parked_dropped: u64,
}

impl Retention {
    /// Caps the span→root index: past the threshold, mappings for
    /// unprotected trees are discarded (their events fall back to plain
    /// oldest-first eviction, which is what they would get anyway).
    fn prune_roots(&mut self) {
        const MAX_ROOTS: usize = 1 << 18;
        if self.roots.len() > MAX_ROOTS {
            let protected = &self.protected;
            self.roots.retain(|_, root| protected.contains(root));
        }
    }
}

/// A point-in-time view of the tail-sampling retention state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetentionStats {
    /// Root ids currently pinned against eviction.
    pub protected: usize,
    /// Protected events rescued into the parked lane so far.
    pub parked: usize,
    /// Protected events the bounded parked lane itself dropped.
    pub parked_dropped: u64,
}

#[derive(Debug, Default)]
struct Inner {
    registry: MetricsRegistry,
    /// The trace ring, one compact record per event.
    events: Mutex<VecDeque<Record>>,
    /// Next span id minus one; ids start at 1 in allocation order.
    span_ids: AtomicU64,
    /// Trace-buffer bound; `None` keeps every event (the default, which
    /// golden traces rely on).
    event_capacity: Option<usize>,
    /// Events evicted oldest-first once the buffer hit its bound.
    dropped_events: AtomicU64,
    /// Fast-path flag for [`Inner::retention`]: avoids a second lock per
    /// recorded span when no sampler is installed (the default).
    retention_on: AtomicBool,
    /// Tail-sampling state; `None` until a monitor installs it.
    retention: Mutex<Option<Retention>>,
}

/// A shared telemetry handle: either disabled (every call is a no-op
/// branch) or backed by one registry + trace shared by all clones.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A no-op handle; recording costs one branch. This is the default.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A collecting handle. Clones share the same registry and trace.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A collecting handle whose trace buffer keeps at most `capacity`
    /// events: once full, each new event evicts the oldest and bumps
    /// [`Telemetry::dropped_events`]. Metrics are unaffected — only the
    /// event trace is bounded. Long chaos sweeps use this so retry storms
    /// cannot grow the trace without bound; golden-trace runs use
    /// [`Telemetry::enabled`], which never drops.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                event_capacity: Some(capacity.max(1)),
                ..Inner::default()
            })),
        }
    }

    /// Trace events evicted by the buffer bound so far (0 when unbounded
    /// or disabled).
    pub fn dropped_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.dropped_events.load(Ordering::Relaxed))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The root [`TraceContext`] for this handle: no parent span; child
    /// spans recorded through it become trace roots. Thread the returned
    /// context (or a [`TraceContext::child`] of it) explicitly through the
    /// request path — contexts are never stored in thread-locals.
    pub fn root_context(&self) -> TraceContext {
        TraceContext::root(self.clone())
    }

    /// Allocates the next span id (`None` when disabled). Ids start at 1
    /// and follow allocation order, which is deterministic for the
    /// single-threaded simulators.
    pub(crate) fn alloc_span_id(&self) -> Option<SpanId> {
        self.inner
            .as_ref()
            .map(|inner| SpanId(inner.span_ids.fetch_add(1, Ordering::Relaxed) + 1))
    }

    /// Installs tail-sampling retention on this handle's trace buffer:
    /// from now on, span→root lineage is tracked as contexts open, and
    /// events of trees pinned via [`Telemetry::protect_tree`] survive
    /// ring eviction in a bounded side lane of `parked_capacity` events.
    ///
    /// Without a bound ([`Telemetry::enabled`]) nothing is ever evicted,
    /// so retention only changes behaviour on bounded handles. Installing
    /// twice keeps the existing state and tightens nothing.
    pub fn enable_tail_retention(&self, parked_capacity: usize) {
        if let Some(inner) = &self.inner {
            let mut retention = lock(&inner.retention);
            if retention.is_none() {
                *retention = Some(Retention {
                    parked_capacity: parked_capacity.max(1),
                    ..Retention::default()
                });
            }
            inner.retention_on.store(true, Ordering::Release);
        }
    }

    /// Pins the request tree rooted at `root` against trace-buffer
    /// eviction. No-op unless [`Telemetry::enable_tail_retention`] ran.
    pub fn protect_tree(&self, root: SpanId) {
        if let Some(inner) = &self.inner {
            if inner.retention_on.load(Ordering::Acquire) {
                if let Some(ret) = lock(&inner.retention).as_mut() {
                    ret.protected.insert(root.0);
                }
            }
        }
    }

    /// The tail-sampling retention counters, when installed.
    pub fn retention_stats(&self) -> Option<RetentionStats> {
        let inner = self.inner.as_ref()?;
        let retention = lock(&inner.retention);
        retention.as_ref().map(|ret| RetentionStats {
            protected: ret.protected.len(),
            parked: ret.parked.len(),
            parked_dropped: ret.parked_dropped,
        })
    }

    /// Records `id`'s tree lineage while retention is on: the root of a
    /// span is its parent's root, or itself at the top of a tree. Called
    /// by [`TraceContext::child`], where parent ids are always known.
    pub(crate) fn register_span(&self, id: SpanId, parent: Option<SpanId>) {
        if let Some(inner) = &self.inner {
            if inner.retention_on.load(Ordering::Acquire) {
                if let Some(ret) = lock(&inner.retention).as_mut() {
                    let root = match parent {
                        Some(p) => ret.roots.get(&p.0).copied().unwrap_or(p.0),
                        None => id.0,
                    };
                    ret.roots.insert(id.0, root);
                    ret.prune_roots();
                }
            }
        }
    }

    /// Appends a record to the trace, evicting the oldest event first
    /// when a buffer bound is set and reached. With tail retention
    /// installed, evicted events of protected trees are parked instead of
    /// dropped.
    pub(crate) fn push(&self, record: Record) {
        if let Some(inner) = &self.inner {
            let mut events = lock(&inner.events);
            if inner.event_capacity.is_some_and(|cap| events.len() >= cap) {
                if let Some(evicted) = events.pop_front() {
                    if !self.park_if_protected(inner, evicted) {
                        inner.dropped_events.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            events.push_back(record);
        }
    }

    /// Moves `evicted` to the parked lane when its tree is protected;
    /// returns whether it was rescued. The tree of a span is looked up by
    /// its own id, of a point by its parent's.
    fn park_if_protected(&self, inner: &Inner, evicted: Record) -> bool {
        if !inner.retention_on.load(Ordering::Acquire) {
            return false;
        }
        let Some(ret) = &mut *lock(&inner.retention) else {
            return false;
        };
        let Some(member) = evicted.id.or(evicted.parent) else {
            return false;
        };
        let root = ret.roots.get(&member.0).copied().unwrap_or(member.0);
        if !ret.protected.contains(&root) {
            return false;
        }
        if ret.parked.len() >= ret.parked_capacity {
            ret.parked_dropped += 1;
            return false;
        }
        ret.parked.push_back(evicted);
        true
    }

    /// Records a closed span `[t0, t1]` in simulated seconds.
    pub fn span(&self, name: &str, t0: f64, t1: f64, attrs: &[(&str, &str)]) {
        if self.inner.is_some() {
            self.push(Record::span(name, t0, t1, attrs, None, None));
        }
    }

    /// Records a point event at simulated time `t`.
    pub fn event(&self, name: &str, t: f64, attrs: &[(&str, &str)]) {
        if self.inner.is_some() {
            self.push(Record::point(name, t, attrs, None));
        }
    }

    /// Adds `n` to a counter.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter_add(name, labels, n);
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_set(name, labels, v);
        }
    }

    /// Records one histogram observation.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(name, labels, v);
        }
    }

    /// Records one histogram observation carrying an exemplar trace id,
    /// so `/metrics` renderings can link the histogram's worst bucket
    /// back to a concrete trace.
    pub fn observe_with_exemplar(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        v: f64,
        trace_id: &str,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .observe_with_exemplar(name, labels, v, trace_id);
        }
    }

    /// A deterministic snapshot of the registry (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// A copy of the trace so far (empty when disabled). With tail
    /// retention installed, parked events — protected-tree events rescued
    /// from ring eviction, which are older than everything still in the
    /// ring — come first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => {
                let events = lock(&inner.events);
                let retention = lock(&inner.retention);
                let parked = retention.iter().flat_map(|r| &r.parked);
                parked.chain(&*events).map(Record::to_event).collect()
            }
            None => Vec::new(),
        }
    }

    /// Writes the trace as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        sink::write_jsonl(&self.events(), w)
    }

    /// Renders the end-of-run summary table.
    pub fn summary(&self) -> String {
        RunReport::from_telemetry(self).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakeaudit_check::Rng;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter_add("x", &[], 1);
        tel.span("s", 0.0, 1.0, &[]);
        tel.event("e", 0.0, &[]);
        tel.gauge_set("g", &[], 1.0);
        tel.observe("h", &[], 1.0);
        assert!(tel.events().is_empty());
        assert_eq!(tel.snapshot(), MetricsSnapshot::default());
        let mut buf = Vec::new();
        tel.write_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn clones_share_the_same_collector() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.counter_add("api.calls", &[], 3);
        clone.span("api.call", 0.0, 2.0, &[]);
        assert_eq!(tel.snapshot().counter_total("api.calls"), 3);
        assert_eq!(tel.events().len(), 1);
    }

    #[test]
    fn events_preserve_recording_order() {
        let tel = Telemetry::enabled();
        tel.event("first", 5.0, &[]);
        tel.event("second", 1.0, &[]);
        let events = tel.events();
        assert_eq!(events[0].name, "first");
        assert_eq!(events[1].name, "second");
    }

    #[test]
    fn bounded_buffer_drops_oldest_and_counts() {
        let tel = Telemetry::with_event_capacity(3);
        for i in 0..5 {
            tel.event(&format!("e{i}"), i as f64, &[]);
        }
        let names: Vec<_> = tel.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["e2", "e3", "e4"]);
        assert_eq!(tel.dropped_events(), 2);
        // Metrics are not bounded by the event capacity.
        tel.counter_add("c", &[], 7);
        assert_eq!(tel.snapshot().counter_total("c"), 7);
    }

    #[test]
    fn unbounded_handle_never_drops() {
        let tel = Telemetry::enabled();
        for i in 0..100 {
            tel.event("e", i as f64, &[]);
        }
        assert_eq!(tel.events().len(), 100);
        assert_eq!(tel.dropped_events(), 0);
    }

    /// The ring's eviction and parking rules over plain events: what
    /// `events()` must return for the same pushes.
    struct RingModel {
        capacity: usize,
        parked_capacity: usize,
        protected: HashSet<u64>,
        ring: VecDeque<(TraceEvent, Option<u64>)>,
        parked: Vec<TraceEvent>,
        dropped: u64,
        parked_dropped: u64,
    }

    impl RingModel {
        /// Pushes `event` of the tree rooted at `root` (`None`: no tree).
        fn push(&mut self, event: TraceEvent, root: Option<u64>) {
            if self.ring.len() >= self.capacity {
                let (evicted, tree) = self.ring.pop_front().expect("a full ring");
                if tree.is_some_and(|r| self.protected.contains(&r)) {
                    if self.parked.len() < self.parked_capacity {
                        self.parked.push(evicted);
                        self.ring.push_back((event, root));
                        return;
                    }
                    self.parked_dropped += 1;
                }
                self.dropped += 1;
            }
            self.ring.push_back((event, root));
        }
    }

    /// A context the test records through, with what it knows of it.
    struct Open {
        ctx: TraceContext,
        root: u64,
        parent: Option<SpanId>,
        offset: f64,
    }

    #[test]
    fn ring_returns_the_events_it_was_given() {
        // Text with separators and digits the packed record must not
        // confuse with its own length prefixes.
        let long = "long text ".repeat(30);
        let texts = [
            "", "a", "tool", "TA", "ü✓ñ", "12:34", ":", "0:", "span#7", &long,
        ];
        let names = ["", "server.request", "api.call", "événement", "3:x"];
        let (mut parked_runs, mut parked_full_runs) = (0, 0);
        for seed in 1..=48u64 {
            let mut rng = Rng::new(seed);
            let capacity = 4 + rng.below(24) as usize;
            let parked_capacity = 1 + rng.below(12) as usize;
            let tel = Telemetry::with_event_capacity(capacity);
            tel.enable_tail_retention(parked_capacity);
            let mut model = RingModel {
                capacity,
                parked_capacity,
                protected: HashSet::new(),
                ring: VecDeque::new(),
                parked: Vec::new(),
                dropped: 0,
                parked_dropped: 0,
            };
            let root = tel.root_context();
            let mut open: Vec<Open> = Vec::new();
            for step in 0..300u32 {
                let attrs: Vec<(&str, &str)> = (0..rng.below(7))
                    .map(|_| (rng.pick(&texts), rng.pick(&texts)))
                    .collect();
                let name = rng.pick(&names);
                let (t0, t1) = (f64::from(step) * 0.25, f64::from(step) * 0.25 + 1.5);
                let at = (!open.is_empty()).then(|| rng.below(open.len() as u64) as usize);
                match (rng.below(7), at) {
                    (0, _) => {
                        // Open a new tree; protect one in three.
                        let ctx = root.child();
                        let id = ctx.span_id().expect("enabled");
                        if rng.below(3) == 0 {
                            tel.protect_tree(id);
                            model.protected.insert(id.0);
                        }
                        open.push(Open {
                            ctx,
                            root: id.0,
                            parent: None,
                            offset: 0.0,
                        });
                    }
                    (1, Some(i)) => {
                        let o = &open[i];
                        let delta = f64::from(rng.below(3) as u32) * 0.5;
                        let ctx = o.ctx.clone().rebased(delta).span(name, t0, t1, &attrs);
                        let offset = o.offset + delta;
                        let id = ctx.span_id().expect("enabled");
                        let event = TraceEvent::span_in(
                            name,
                            t0 + offset,
                            t1 + offset,
                            &attrs,
                            id,
                            o.ctx.span_id(),
                        );
                        model.push(event, Some(o.root));
                        let next = Open {
                            ctx,
                            root: o.root,
                            parent: o.ctx.span_id(),
                            offset,
                        };
                        open.push(next);
                    }
                    (2, Some(i)) => {
                        let o = &open[i];
                        o.ctx.point(name, t0, &attrs);
                        let event =
                            TraceEvent::point_in(name, t0 + o.offset, &attrs, o.ctx.span_id());
                        model.push(event, Some(o.root));
                    }
                    (3, Some(i)) => {
                        let o = &open[i];
                        o.ctx.record(name, t0, t1, &attrs);
                        let id = o.ctx.span_id().expect("enabled");
                        let event = TraceEvent::span_in(
                            name,
                            t0 + o.offset,
                            t1 + o.offset,
                            &attrs,
                            id,
                            o.parent,
                        );
                        model.push(event, Some(o.root));
                    }
                    (4, _) => {
                        tel.span(name, t0, t1, &attrs);
                        model.push(TraceEvent::span(name, t0, t1, &attrs), None);
                    }
                    (5, _) => {
                        tel.event(name, t0, &attrs);
                        model.push(TraceEvent::point(name, t0, &attrs), None);
                    }
                    _ => {
                        root.point(name, t0, &attrs);
                        model.push(TraceEvent::point_in(name, t0, &attrs, None), None);
                    }
                }
                if open.len() > 12 {
                    open.remove(0);
                }
            }
            let mut expected = model.parked.clone();
            expected.extend(model.ring.iter().map(|(e, _)| e.clone()));
            assert_eq!(tel.events(), expected, "seed {seed}");
            assert_eq!(tel.dropped_events(), model.dropped, "seed {seed}");
            let stats = tel.retention_stats().expect("retention on");
            assert_eq!(stats.parked, model.parked.len(), "seed {seed}");
            assert_eq!(stats.parked_dropped, model.parked_dropped, "seed {seed}");
            parked_runs += usize::from(!model.parked.is_empty());
            parked_full_runs += usize::from(model.parked_dropped > 0);
        }
        // The seeds reach both parking and a full parked lane.
        assert!(parked_runs > 0 && parked_full_runs > 0);
    }

    #[test]
    fn summary_is_renderable() {
        let tel = Telemetry::enabled();
        tel.counter_add("api.calls", &[("endpoint", "users_lookup")], 2);
        assert!(tel.summary().contains("API calls"));
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
    }
}

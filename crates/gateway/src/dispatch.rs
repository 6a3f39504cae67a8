//! The wall-clock dispatcher: bounded admission over per-tool lanes of
//! backends, each audit served on the thread that submitted it, over the
//! same [`AuditBackend`] seam the simulator drives.
//!
//! What it shares with the simulator, and what
//! `crates/gateway/tests/equivalence.rs` shows: driven on a
//! `ManualClock` through one arrival script, with one scripted backend
//! per tool, the dispatcher and `ServerSim` keep the same books, request
//! by request. Each request gets the same outcome, arrival, start and
//! finish, each tool the same summary, and both sides write the same
//! `server.requests` counters, store rows and `server.*` trace events.
//! Three things are shared code, not copies:
//!
//! * admission is an [`AdmissionQueue`] per tool, under the simulator's
//!   rule: an arrival that finds an idle backend is served at once, only
//!   an arrival that finds every backend busy is offered to the queue,
//!   and a caller that finishes hands its backend to the queue's head;
//! * service goes through [`AuditBackend::serve`], with the
//!   same rebased trace context and server-clock time the simulator
//!   passes;
//! * what a finished request leaves behind (its spans or refusal point,
//!   its [`RequestRecord`] and its store row) is written by the same
//!   [`Books`]; the gateway counts each record as it lands, the
//!   simulator at the end of its run.
//!
//! One difference is by design: where the cache lives. A lane's backends
//! and its stale reader are share-nothing clones, each with its own
//! cache, while `ServerSim`'s workers share one backend per tool, which
//! also answers its stale reads. So with `workers_per_tool > 1` cache
//! hits can differ, and the gateway's stale reader knows only the
//! reports its clone started with. The equivalence test therefore runs
//! one backend per tool and a stale reader that knows a fixed set.
//!
//! The rest is the execution substrate. There are no worker threads:
//! [`Dispatcher::submit`] runs on the caller's thread (in the gateway,
//! the accept thread that parsed the request), which takes a backend
//! from its tool's lane, serves, records and hands the backend on. Each
//! backend is held by one caller at a time, so no lock is held during
//! service, and a lane's backend count bounds that tool's concurrent
//! audits. A queued caller parks until a finishing caller grants it a
//! backend; that grant is the only cross-thread wake-up. Time comes from
//! a shared [`Clock`] instead of an event heap. Service time is the
//! *actual CPU cost* of the audit: the dispatcher never sleeps out
//! simulated seconds. The simulated Table II cost still travels in the
//! response (`response_secs`).

use fakeaudit_analytics::{BreakerState, ServiceError, ServiceResponse};
use fakeaudit_detectors::ToolId;
use fakeaudit_server::{
    flush_writer, writer_health, Admission, AdmissionQueue, AuditBackend, Books, OverloadPolicy,
    Request, RequestRecord, ServerConfig, ServerReport,
};
use fakeaudit_store::{SharedWriter, StoreHealth};
use fakeaudit_telemetry::{Clock, Telemetry};
use fakeaudit_twittersim::{AccountId, Platform};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread, ThreadId};

/// A backend a lane lends to the callers it serves.
pub type BoxedBackend = Box<dyn AuditBackend + Send>;

/// The per-tool serving capacity handed to [`Dispatcher::start`]: the
/// lane's backends (share-nothing) plus one admission-time reader for
/// the degrade-to-stale path.
pub struct ToolPool {
    /// The tool every backend in this pool serves.
    pub tool: ToolId,
    /// The lane's backends, one per concurrent audit of this tool
    /// (`ServerConfig::workers_per_tool`).
    pub workers: Vec<BoxedBackend>,
    /// Backend consulted (read-only) at admission time for stale answers.
    pub stale: BoxedBackend,
}

impl std::fmt::Debug for ToolPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToolPool")
            .field("tool", &self.tool)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Where an answered verdict came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// A backend ran the audit.
    Fresh,
    /// A backend answered from the service's fresh cache.
    Cache,
    /// The admission path served a stale cached report (degrade policy).
    Stale,
}

impl AnswerSource {
    /// Label used in traces, metrics and response JSON.
    pub fn label(self) -> &'static str {
        match self {
            AnswerSource::Fresh => "fresh",
            AnswerSource::Cache => "cache",
            AnswerSource::Stale => "stale",
        }
    }
}

/// A successfully answered request.
#[derive(Debug, Clone)]
pub struct Answered {
    /// The service's verdict.
    pub response: ServiceResponse,
    /// Where the answer came from.
    pub source: AnswerSource,
    /// Real seconds spent in the admission queue.
    pub queue_wait_secs: f64,
    /// Real seconds of service (0 for stale answers).
    pub service_secs: f64,
}

/// Why a request got no verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// Refused at admission: queue full (or the gateway is draining).
    Shed,
    /// The tool's circuit breaker is open; retry after the cooldown.
    BreakerOpen {
        /// Suggested client back-off in seconds.
        retry_in_secs: f64,
    },
    /// Dropped in queue past the end-to-end deadline.
    Expired,
    /// The backend errored (quota exhausted, audit failure).
    Failed(String),
}

/// Progress of one submitted request, reported on the caller's thread
/// to the callback passed to [`Dispatcher::submit`]. The verdict itself
/// is `submit`'s return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// Admitted; `depth` is the queue depth at admission (0 when an idle
    /// backend took the request at once).
    Queued {
        /// Queue depth right after this job was admitted.
        depth: usize,
    },
    /// The audit started on a backend.
    Started,
}

struct LaneState {
    /// Callers waiting for a backend, in arrival order. Each is parked
    /// until a finishing caller grants it one.
    queue: AdmissionQueue<Thread>,
    /// Backends no caller holds. Non-empty only while the queue is empty:
    /// an arrival takes an idle backend before it would queue, and a
    /// finishing caller grants its backend to the queue head before it
    /// would idle it.
    idle: Vec<BoxedBackend>,
    /// Backends granted to a queued caller that has not woken yet.
    granted: Vec<(ThreadId, BoxedBackend)>,
    /// Backends this lane owns: idle, granted or held by a caller.
    backends: usize,
    stale: BoxedBackend,
    shutting_down: bool,
    /// Last-published circuit-breaker state. Each caller publishes its
    /// backend's state as it hands the backend on; `None` means the
    /// backends run no breaker.
    breaker: Option<BreakerState>,
}

/// One lane's operational snapshot, surfaced by
/// [`Dispatcher::lane_status`] for `/healthz` and `/debug/vars`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStatus {
    /// The tool this lane serves.
    pub tool: ToolId,
    /// Jobs currently waiting in the admission queue.
    pub queue_depth: usize,
    /// Circuit-breaker state last published by a serving caller (`None`
    /// when the backends run no breaker).
    pub breaker: Option<BreakerState>,
}

/// One tool's backends and admission queue.
struct Lane {
    tool: ToolId,
    state: Mutex<LaneState>,
    /// Signalled when the last backend comes home during shutdown.
    drained: Condvar,
}

/// Locks `mutex`, recovering it if a holder panicked: no update made
/// under these locks can stop half-way (the one backend call made under
/// a lane lock, `serve_stale`, only reads), so the state is whole.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Lane {
    /// Parks the calling thread, already queued on this lane, until a
    /// finishing caller grants it a backend.
    fn await_grant(&self) -> BoxedBackend {
        let me = thread::current().id();
        let mut st = lock(&self.state);
        loop {
            if let Some(i) = st.granted.iter().position(|(id, _)| *id == me) {
                return st.granted.swap_remove(i).1;
            }
            drop(st);
            // An `unpark` that came first makes this return at once, and
            // a spurious wake-up just re-checks the grant.
            thread::park();
            st = lock(&self.state);
        }
    }

    /// Hands a backend on: to the head of the queue when a caller waits,
    /// back to idle otherwise. The backend's breaker state is published
    /// in the same lock section, so admission-side readers (`/healthz`,
    /// `/debug/vars`) see it without touching a held backend.
    fn hand_on(&self, backend: BoxedBackend) {
        let breaker = backend.breaker_state();
        let mut st = lock(&self.state);
        st.breaker = breaker;
        match st.queue.pop() {
            Some(next) => {
                st.granted.push((next.id(), backend));
                drop(st);
                next.unpark();
            }
            None => {
                st.idle.push(backend);
                let drained = st.shutting_down && st.idle.len() == st.backends;
                drop(st);
                if drained {
                    self.drained.notify_all();
                }
            }
        }
    }
}

/// Admission control over per-tool lanes of backends, served on the
/// submitting threads.
///
/// Create with [`Dispatcher::start`], submit with [`Dispatcher::submit`],
/// and stop with [`Dispatcher::shutdown`] — which refuses new work, lets
/// every queued caller be served, and waits for every backend to come
/// back.
pub struct Dispatcher {
    lanes: Vec<Lane>,
    platform: Arc<Platform>,
    telemetry: Telemetry,
    clock: Arc<dyn Clock>,
    config: ServerConfig,
    /// The simulator's bookkeeping, on this gateway's clock.
    books: Books,
    next_id: AtomicU64,
    records: Mutex<Vec<RequestRecord>>,
    /// Columnar history writer: the books append a row per answered
    /// request, and shutdown flushes it.
    persist: Option<SharedWriter>,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("lanes", &self.lanes.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Dispatcher {
    /// Builds one lane per [`ToolPool`] and returns the ready dispatcher.
    /// `config.workers_per_tool` is taken from each pool's actual backend
    /// count, so the two cannot disagree.
    pub fn start(
        platform: Arc<Platform>,
        pools: Vec<ToolPool>,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
        telemetry: Telemetry,
    ) -> Self {
        Self::start_with_persist(platform, pools, config, clock, telemetry, None)
    }

    /// [`Dispatcher::start`] plus an optional columnar-history writer:
    /// every answered request (completed or degraded) appends one
    /// [`fakeaudit_store::AuditRecord`]; [`Dispatcher::shutdown`] flushes
    /// the writer's tail buffer after the drain, so no completed audit is
    /// lost on Ctrl-C.
    pub fn start_with_persist(
        platform: Arc<Platform>,
        pools: Vec<ToolPool>,
        mut config: ServerConfig,
        clock: Arc<dyn Clock>,
        telemetry: Telemetry,
        persist: Option<SharedWriter>,
    ) -> Self {
        if let Some(pool) = pools.first() {
            config.workers_per_tool = pool.workers.len().max(1);
        }
        let books = Books::new(&telemetry, &platform, persist.clone());
        let lanes = pools
            .into_iter()
            .map(|pool| Lane {
                tool: pool.tool,
                state: Mutex::new(LaneState {
                    queue: AdmissionQueue::new(config.queue_capacity, config.policy),
                    breaker: pool.workers.first().and_then(|b| b.breaker_state()),
                    backends: pool.workers.len(),
                    idle: pool.workers,
                    granted: Vec::new(),
                    stale: pool.stale,
                    shutting_down: false,
                }),
                drained: Condvar::new(),
            })
            .collect();
        Self {
            lanes,
            platform,
            telemetry,
            clock,
            config,
            books,
            next_id: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            persist,
        }
    }

    /// The tools this dispatcher serves, in registration order.
    pub fn tools(&self) -> Vec<ToolId> {
        self.lanes.iter().map(|l| l.tool).collect()
    }

    /// The admission/backend configuration in force.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// Current time on the dispatcher's clock.
    pub fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    /// A point-in-time operational snapshot of every lane: queue depth
    /// and last-published breaker state, in registration order.
    pub fn lane_status(&self) -> Vec<LaneStatus> {
        self.lanes
            .iter()
            .map(|lane| {
                let st = lock(&lane.state);
                LaneStatus {
                    tool: lane.tool,
                    queue_depth: st.queue.len(),
                    breaker: st.breaker,
                }
            })
            .collect()
    }

    /// Submits one audit request and serves it on the calling thread.
    ///
    /// An idle backend takes the request at once. Otherwise the caller
    /// waits in the lane's admission queue — or is shed or degraded when
    /// the queue is full — until a finishing caller hands it a backend.
    /// `progress` hears [`JobEvent::Queued`] and then, unless the request
    /// is refused, [`JobEvent::Started`]; it never runs under a lane
    /// lock. Returns the verdict, or why there is none.
    pub fn submit(
        &self,
        tool: ToolId,
        target: AccountId,
        mut progress: impl FnMut(JobEvent),
    ) -> Result<Answered, Rejection> {
        let req = Request {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            at: self.clock.now_secs(),
            tool,
            target,
        };
        let Some(lane) = self.lanes.iter().find(|l| l.tool == tool) else {
            return self.shed(&req);
        };
        let mut st = lock(&lane.state);
        if st.shutting_down {
            drop(st);
            return self.shed(&req);
        }
        if let Some(backend) = st.idle.pop() {
            drop(st);
            progress(JobEvent::Queued { depth: 0 });
            return self.serve(lane, &req, backend, progress);
        }
        match st.queue.offer(thread::current()) {
            Admission::Enqueued | Admission::Blocked => {
                let depth = st.queue.len();
                drop(st);
                self.telemetry.gauge_set(
                    "server.queue_depth",
                    &[("tool", tool.abbrev())],
                    depth as f64,
                );
                progress(JobEvent::Queued { depth });
                let backend = lane.await_grant();
                self.serve(lane, &req, backend, progress)
            }
            Admission::Overloaded => {
                let stale = if self.config.policy == OverloadPolicy::DegradeStale {
                    st.stale.serve_stale(target)
                } else {
                    None
                };
                drop(st);
                let Some(response) = stale else {
                    return self.shed(&req);
                };
                let finished = self.clock.now_secs();
                let open = self.books.open(req.at);
                let record = self
                    .books
                    .degraded(&req, &open, req.at, finished, &response);
                self.push_record(record);
                Ok(Answered {
                    response,
                    source: AnswerSource::Stale,
                    queue_wait_secs: 0.0,
                    service_secs: finished - req.at,
                })
            }
        }
    }

    /// Stops admitting work, lets every queued caller be served, waits
    /// until each lane holds all its backends again, and flushes any
    /// buffered store rows so the persisted history is complete.
    /// Idempotent.
    pub fn shutdown(&self) {
        // Close every lane before waiting on any.
        for lane in &self.lanes {
            lock(&lane.state).shutting_down = true;
        }
        for lane in &self.lanes {
            let _home = lane
                .drained
                .wait_while(lock(&lane.state), |st| st.idle.len() < st.backends)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // Every backend is home, so no audit is in flight and this flush
        // captures every completed one.
        if let Some(writer) = &self.persist {
            let _ = flush_writer(writer, &self.telemetry);
        }
    }

    /// The history writer's health (segment count, buffered rows, last
    /// flush), or `None` when the gateway runs without `--persist`.
    pub fn store_health(&self) -> Option<StoreHealth> {
        self.persist.as_ref().map(writer_health)
    }

    /// A point-in-time report over every request seen so far, aggregated
    /// by the **same** `ServerReport` code the simulator uses; queue
    /// high-water marks are patched in from the live queues.
    pub fn report(&self) -> ServerReport {
        let records = lock(&self.records).clone();
        let makespan = self.clock.now_secs();
        let mut report = ServerReport::from_records(records, self.config, makespan);
        for summary in &mut report.per_tool {
            if let Some(lane) = self.lanes.iter().find(|l| Some(l.tool) == summary.tool) {
                let st = lock(&lane.state);
                summary.max_queue_depth = st.queue.max_depth();
                summary.max_blocked = st.queue.max_overflow();
            }
        }
        report
    }

    /// Serves one request with a backend the caller holds, records it,
    /// and hands the backend on. A request that waited past the deadline
    /// is refused `Expired` instead, and its backend passed on unused.
    /// The record lands before the backend leaves, so once every backend
    /// is home every served request is on the books.
    fn serve(
        &self,
        lane: &Lane,
        req: &Request,
        mut backend: BoxedBackend,
        mut progress: impl FnMut(JobEvent),
    ) -> Result<Answered, Rejection> {
        let now = self.clock.now_secs();
        if self.config.deadline_secs.is_some_and(|d| now - req.at > d) {
            self.push_record(self.books.expired(req, now));
            lane.hand_on(backend);
            return Err(Rejection::Expired);
        }
        progress(JobEvent::Started);
        let open = self.books.open(now);
        let result = match backend.serve(&self.platform, req.target, open.backend(), now) {
            Ok(response) => {
                let finished = self.clock.now_secs();
                let record = self.books.completed(req, &open, now, finished, &response);
                self.push_record(record);
                let source = if response.served_from_cache {
                    AnswerSource::Cache
                } else {
                    AnswerSource::Fresh
                };
                Ok(Answered {
                    response,
                    source,
                    queue_wait_secs: now - req.at,
                    service_secs: finished - now,
                })
            }
            Err(err) => {
                self.push_record(self.books.failed(req, now, self.clock.now_secs()));
                Err(match err {
                    ServiceError::Unavailable { retry_in_secs, .. } => {
                        Rejection::BreakerOpen { retry_in_secs }
                    }
                    other => Rejection::Failed(other.to_string()),
                })
            }
        };
        lane.hand_on(backend);
        result
    }

    /// Books a refusal at admission.
    fn shed(&self, req: &Request) -> Result<Answered, Rejection> {
        self.push_record(self.books.shed(req));
        Err(Rejection::Shed)
    }

    fn push_record(&self, record: RequestRecord) {
        self.books.count(&record);
        lock(&self.records).push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakeaudit_analytics::quota::QuotaExceeded;
    use fakeaudit_detectors::{AuditOutcome, VerdictCounts};
    use fakeaudit_server::RequestOutcome;
    use fakeaudit_telemetry::analyze::names;
    use fakeaudit_telemetry::{ManualClock, TraceContext};
    use fakeaudit_twittersim::SimTime;
    use std::sync::mpsc;
    use std::time::Duration;

    const TA: ToolId = ToolId::Twitteraudit;
    const SB: ToolId = ToolId::Socialbakers;
    /// The target whose audit every gated backend fails, once released.
    const FAILS: AccountId = AccountId(13);

    /// Shared by a test and its gated backends: every `serve` logs its
    /// target and thread, then blocks until the test releases a permit.
    #[derive(Default)]
    struct Gate {
        state: Mutex<GateState>,
        changed: Condvar,
    }

    #[derive(Default)]
    struct GateState {
        entered: Vec<(AccountId, ThreadId)>,
        permits: usize,
    }

    impl Gate {
        /// A gate every serve passes straight through.
        fn open() -> Arc<Self> {
            let gate = Arc::new(Self::default());
            gate.release(usize::MAX / 2);
            gate
        }

        fn release(&self, permits: usize) {
            lock(&self.state).permits += permits;
            self.changed.notify_all();
        }

        /// Blocks until `n` serves have begun.
        fn wait_entered(&self, n: usize) {
            let _entered = self
                .changed
                .wait_while(lock(&self.state), |st| st.entered.len() < n)
                .unwrap_or_else(PoisonError::into_inner);
        }

        /// The targets served so far, in the order their serves began.
        fn order(&self) -> Vec<u64> {
            lock(&self.state).entered.iter().map(|(t, _)| t.0).collect()
        }
    }

    struct GatedBackend {
        tool: ToolId,
        gate: Arc<Gate>,
        stale_known: Vec<AccountId>,
    }

    fn response(tool: ToolId, target: AccountId, cached: bool) -> ServiceResponse {
        ServiceResponse {
            outcome: AuditOutcome {
                tool_name: tool.abbrev().into(),
                target,
                assessed: vec![],
                counts: VerdictCounts {
                    inactive: 1,
                    fake: 2,
                    genuine: 7,
                },
                audited_at: SimTime::EPOCH,
                api_elapsed_secs: 0.5,
                api_calls: 3,
            },
            response_secs: 0.5,
            served_from_cache: cached,
            assessed_at: SimTime::EPOCH,
        }
    }

    impl AuditBackend for GatedBackend {
        fn tool(&self) -> ToolId {
            self.tool
        }

        fn serve(
            &mut self,
            _platform: &Platform,
            target: AccountId,
            _ctx: &TraceContext,
            _now_secs: f64,
        ) -> Result<ServiceResponse, ServiceError> {
            let mut st = lock(&self.gate.state);
            st.entered.push((target, thread::current().id()));
            self.gate.changed.notify_all();
            let mut st = self
                .gate
                .changed
                .wait_while(st, |st| st.permits == 0)
                .unwrap_or_else(PoisonError::into_inner);
            st.permits -= 1;
            if target == FAILS {
                return Err(ServiceError::Quota(QuotaExceeded { limit: 0, day: 0 }));
            }
            Ok(response(self.tool, target, false))
        }

        fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
            self.stale_known
                .contains(&target)
                .then(|| response(self.tool, target, true))
        }
    }

    /// A dispatcher on a manual clock with one backend per lane; each
    /// `(tool, gate)` pair is a lane whose backend passes `gate`.
    fn dispatcher(
        config: ServerConfig,
        lanes: &[(ToolId, &Arc<Gate>)],
        stale: &[u64],
    ) -> (Dispatcher, Arc<ManualClock>) {
        let backend = |tool, gate: &Arc<Gate>| GatedBackend {
            tool,
            gate: Arc::clone(gate),
            stale_known: stale.iter().copied().map(AccountId).collect(),
        };
        let pools = lanes
            .iter()
            .map(|&(tool, gate)| ToolPool {
                tool,
                workers: vec![Box::new(backend(tool, gate))],
                stale: Box::new(backend(tool, gate)),
            })
            .collect();
        let clock = Arc::new(ManualClock::new(0.0));
        let dispatcher = Dispatcher::start(
            Arc::new(Platform::new()),
            pools,
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            Telemetry::enabled(),
        );
        (dispatcher, clock)
    }

    /// Runs `test` on a thread of its own and fails if it has not
    /// finished in time: a caller stranded in a queue, or a backend that
    /// never came home, must fail the test rather than hang it.
    fn bounded(test: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let runner = thread::spawn(move || {
            test();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(30)) {
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(panic) = runner.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            // The stranded threads are left behind; the process exit
            // reaps them.
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("a caller never finished: a backend was lost or never handed on")
            }
        }
    }

    /// Spins until the first lane's queue holds `depth` callers.
    fn wait_for_depth(d: &Dispatcher, depth: usize) {
        while d.lane_status()[0].queue_depth != depth {
            thread::yield_now();
        }
    }

    fn summary(report: &ServerReport, tool: ToolId) -> fakeaudit_server::ToolSummary {
        *report
            .per_tool
            .iter()
            .find(|s| s.tool == Some(tool))
            .expect("the tool saw requests")
    }

    #[test]
    fn idle_backend_serves_on_the_callers_thread_without_queueing() {
        bounded(|| {
            let gate = Gate::open();
            let (d, _clock) = dispatcher(ServerConfig::default(), &[(TA, &gate)], &[]);
            let mut events = Vec::new();
            let answer = d
                .submit(TA, AccountId(7), |e| events.push(e))
                .expect("served");
            assert_eq!(events, [JobEvent::Queued { depth: 0 }, JobEvent::Started]);
            assert_eq!(answer.source, AnswerSource::Fresh);
            assert_eq!(answer.queue_wait_secs, 0.0);
            let entered = lock(&gate.state).entered.clone();
            assert_eq!(entered, [(AccountId(7), thread::current().id())]);
            let report = d.report();
            assert_eq!(report.completed(), 1);
            assert_eq!(summary(&report, TA).max_queue_depth, 0);
        });
    }

    #[test]
    fn waiters_are_served_in_fifo_order_as_backends_return() {
        bounded(|| {
            let gate = Arc::new(Gate::default());
            let (d, clock) = dispatcher(ServerConfig::default(), &[(TA, &gate)], &[]);
            let d = &d;
            thread::scope(|s| {
                let first = s.spawn(move || d.submit(TA, AccountId(1), |_| {}));
                gate.wait_entered(1);
                let waiters: Vec<_> = (2..=4u64)
                    .map(|t| {
                        let waiter = s.spawn(move || {
                            let mut depths = Vec::new();
                            let answer = d.submit(TA, AccountId(t), |e| {
                                if let JobEvent::Queued { depth } = e {
                                    depths.push(depth);
                                }
                            });
                            (answer, depths)
                        });
                        wait_for_depth(d, t as usize - 1);
                        waiter
                    })
                    .collect();
                clock.advance(1.5);
                gate.release(4);
                let first = first.join().unwrap().expect("served");
                assert_eq!(first.queue_wait_secs, 0.0);
                for (depth, waiter) in (1..).zip(waiters) {
                    let (answer, depths) = waiter.join().unwrap();
                    assert_eq!(depths, [depth]);
                    assert_eq!(answer.expect("served").queue_wait_secs, 1.5);
                }
            });
            assert_eq!(gate.order(), [1, 2, 3, 4]);
            let report = d.report();
            assert_eq!(report.completed(), 4);
            assert_eq!(summary(&report, TA).max_queue_depth, 3);
        });
    }

    #[test]
    fn expired_waiter_is_refused_and_hands_its_backend_on() {
        bounded(|| {
            let gate = Arc::new(Gate::default());
            let config = ServerConfig {
                deadline_secs: Some(1.0),
                ..ServerConfig::default()
            };
            let (d, clock) = dispatcher(config, &[(TA, &gate)], &[]);
            let d = &d;
            thread::scope(|s| {
                let first = s.spawn(move || d.submit(TA, AccountId(1), |_| {}));
                gate.wait_entered(1);
                let late = s.spawn(move || d.submit(TA, AccountId(2), |_| {}));
                wait_for_depth(d, 1);
                clock.advance(2.0);
                gate.release(1);
                assert!(first.join().unwrap().is_ok());
                assert_eq!(late.join().unwrap().unwrap_err(), Rejection::Expired);
            });
            // The expired waiter passed its backend on: a later arrival
            // still finds one.
            gate.release(1);
            assert!(d.submit(TA, AccountId(3), |_| {}).is_ok());
            assert_eq!(gate.order(), [1, 3]);
            let report = d.report();
            assert_eq!((report.completed(), report.expired()), (2, 1));
        });
    }

    #[test]
    fn a_failed_audit_is_booked_as_started_and_counts_its_queue_wait() {
        bounded(|| {
            let gate = Arc::new(Gate::default());
            let (d, clock) = dispatcher(ServerConfig::default(), &[(TA, &gate)], &[]);
            let d = &d;
            thread::scope(|s| {
                let first = s.spawn(move || d.submit(TA, AccountId(1), |_| {}));
                gate.wait_entered(1);
                let failing = s.spawn(move || d.submit(TA, FAILS, |_| {}));
                wait_for_depth(d, 1);
                clock.advance(1.5);
                gate.release(2);
                assert!(first.join().unwrap().is_ok());
                let refused = failing.join().unwrap().unwrap_err();
                assert!(matches!(refused, Rejection::Failed(_)), "{refused:?}");
            });
            let report = d.report();
            let failed: Vec<_> = report
                .records
                .iter()
                .filter(|r| r.outcome == RequestOutcome::Failed)
                .collect();
            assert_eq!(failed.len(), 1);
            // As in the simulator: a backend took it at 1.5, so it was
            // started, and its 1.5 s in the queue is a queue wait.
            assert_eq!(
                (failed[0].started, failed[0].finished),
                (Some(1.5), Some(1.5))
            );
            assert_eq!(report.queue_wait_percentile(1.0), 1.5);
        });
    }

    #[test]
    fn a_tool_without_a_lane_is_booked_as_shed() {
        bounded(|| {
            let gate = Gate::open();
            let (d, clock) = dispatcher(ServerConfig::default(), &[(TA, &gate)], &[]);
            clock.set(3.0);
            assert_eq!(
                d.submit(SB, AccountId(8), |_| {}).unwrap_err(),
                Rejection::Shed
            );
            let report = d.report();
            assert_eq!(report.records.len(), 1);
            let r = report.records[0];
            assert_eq!(
                (r.tool, r.outcome, r.arrived, r.started, r.finished),
                (SB, RequestOutcome::Shed, 3.0, None, None)
            );
            let labels = [("tool", SB.abbrev()), ("outcome", "shed")];
            let requests = d.telemetry.snapshot().counter("server.requests", &labels);
            assert_eq!(requests, Some(1));
            let sheds: Vec<_> = d
                .telemetry
                .events()
                .into_iter()
                .filter(|e| e.name == names::SERVER_SHED)
                .collect();
            assert_eq!(sheds.len(), 1);
            assert_eq!((sheds[0].t0, sheds[0].attr("tool")), (3.0, Some("SB")));
        });
    }

    #[test]
    fn full_queue_decides_by_policy() {
        for policy in OverloadPolicy::ALL {
            bounded(move || {
                let gate = Arc::new(Gate::default());
                let config = ServerConfig {
                    queue_capacity: 1,
                    policy,
                    ..ServerConfig::default()
                };
                let (d, _clock) = dispatcher(config, &[(TA, &gate)], &[3]);
                let d = &d;
                thread::scope(|s| {
                    let first = s.spawn(move || d.submit(TA, AccountId(1), |_| {}));
                    gate.wait_entered(1);
                    let queued = s.spawn(move || d.submit(TA, AccountId(2), |_| {}));
                    wait_for_depth(d, 1);
                    // The arrival that finds the queue full: target 3 has
                    // a stale report, target 4 none.
                    let blocked = match policy {
                        OverloadPolicy::Shed => {
                            let refused = d.submit(TA, AccountId(3), |_| {});
                            assert_eq!(refused.unwrap_err(), Rejection::Shed);
                            None
                        }
                        OverloadPolicy::DegradeStale => {
                            let mut events = Vec::new();
                            let stale = d
                                .submit(TA, AccountId(3), |e| events.push(e))
                                .expect("a stale report exists");
                            assert_eq!(stale.source, AnswerSource::Stale);
                            assert!(events.is_empty(), "{events:?}");
                            let refused = d.submit(TA, AccountId(4), |_| {});
                            assert_eq!(refused.unwrap_err(), Rejection::Shed);
                            None
                        }
                        OverloadPolicy::Block => {
                            let (tx, rx) = mpsc::channel();
                            let blocked = s.spawn(move || {
                                d.submit(TA, AccountId(3), |e| {
                                    let _ = tx.send(e);
                                })
                            });
                            assert_eq!(rx.recv().unwrap(), JobEvent::Queued { depth: 1 });
                            Some(blocked)
                        }
                    };
                    gate.release(3);
                    assert!(first.join().unwrap().is_ok());
                    assert!(queued.join().unwrap().is_ok());
                    if let Some(blocked) = blocked {
                        assert!(blocked.join().unwrap().is_ok());
                    }
                });
                let report = d.report();
                let ta = summary(&report, TA);
                let expected = match policy {
                    // (serve order, completed, degraded, shed, max_blocked)
                    OverloadPolicy::Shed => (vec![1, 2], 2, 0, 1, 0),
                    OverloadPolicy::DegradeStale => (vec![1, 2], 2, 1, 1, 0),
                    OverloadPolicy::Block => (vec![1, 2, 3], 3, 0, 0, 1),
                };
                assert_eq!(
                    (
                        gate.order(),
                        ta.completed,
                        ta.degraded,
                        ta.shed,
                        ta.max_blocked
                    ),
                    expected,
                    "{policy:?}"
                );
                assert_eq!(ta.max_queue_depth, 1, "{policy:?}");
            });
        }
    }

    #[test]
    fn shutdown_sheds_new_arrivals_and_waits_for_queued_callers() {
        bounded(|| {
            let gate = Arc::new(Gate::default());
            let open = Gate::open();
            let (d, _clock) = dispatcher(ServerConfig::default(), &[(TA, &gate), (SB, &open)], &[]);
            let d = &d;
            thread::scope(|s| {
                let first = s.spawn(move || d.submit(TA, AccountId(1), |_| {}));
                gate.wait_entered(1);
                let queued = s.spawn(move || d.submit(TA, AccountId(2), |_| {}));
                wait_for_depth(d, 1);
                let stopper = s.spawn(move || {
                    d.shutdown();
                    d.report()
                });
                // Shutdown closes every lane before it waits on any, so
                // once the free SB lane sheds, TA is closed as well.
                while d.submit(SB, AccountId(9), |_| {}).is_ok() {}
                assert_eq!(
                    d.submit(TA, AccountId(3), |_| {}).unwrap_err(),
                    Rejection::Shed
                );
                assert!(!stopper.is_finished(), "returned with an audit in flight");
                gate.release(2);
                let report = stopper.join().unwrap();
                assert!(first.join().unwrap().is_ok());
                assert!(queued.join().unwrap().is_ok());
                // Both queued-up callers were on the books by the time
                // shutdown returned.
                let ta = summary(&report, TA);
                assert_eq!((ta.completed, ta.shed), (2, 1));
            });
            assert_eq!(gate.order(), [1, 2]);
            assert_eq!(
                d.submit(SB, AccountId(10), |_| {}).unwrap_err(),
                Rejection::Shed
            );
        });
    }
}

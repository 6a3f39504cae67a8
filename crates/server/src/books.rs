//! The books a finished request leaves behind.
//!
//! Both serving worlds end every request here: the discrete-event
//! [`ServerSim`](crate::ServerSim) and the gateway's wall-clock
//! dispatcher. [`Books`] has one method per outcome: completed, degraded,
//! shed, expired and failed. Each writes the request's `server.*` spans,
//! or its refusal point, builds its [`RequestRecord`] and, for an
//! answered request, appends its store row through
//! [`persist`](crate::persist). [`Books::count`] adds a record to the
//! `server.requests` counter and the `server.*_secs` histograms; the
//! simulator counts its records at the end of a run, the gateway as each
//! request ends.
//!
//! Admission is not kept here: both worlds decide it on an
//! [`AdmissionQueue`](crate::AdmissionQueue) of their own.

use crate::persist::{audit_record, persist_record};
use crate::sim::{RequestOutcome, RequestRecord};
use crate::workload::Request;
use fakeaudit_analytics::ServiceResponse;
use fakeaudit_store::SharedWriter;
use fakeaudit_telemetry::analyze::names;
use fakeaudit_telemetry::{SpanId, Telemetry, TraceContext};
use fakeaudit_twittersim::Platform;

/// Where one server's requests land: its trace, its metrics and, when
/// persisting, the history store.
#[derive(Debug)]
pub struct Books {
    root: TraceContext,
    /// The history writer; every answered request appends one row.
    pub(crate) persist: Option<SharedWriter>,
    /// Platform-epoch seconds. The server clock starts at 0, while store
    /// rows and the backend's own spans are stamped on the epoch clock.
    epoch_secs: f64,
}

/// A served request's `server.request` and `server.service` spans,
/// opened before the backend runs so that the backend's subtree, and any
/// fault it traces, hangs under them.
#[derive(Debug)]
pub struct Open {
    request: TraceContext,
    service: TraceContext,
    backend: TraceContext,
}

impl Open {
    /// The context to hand the backend: the `server.service` span,
    /// rebased from the epoch clock onto the server clock, so the
    /// backend's subtree nests inside that span's interval.
    pub fn backend(&self) -> &TraceContext {
        &self.backend
    }

    /// The request's root span (`None` when not tracing).
    pub fn span_id(&self) -> Option<SpanId> {
        self.request.span_id()
    }
}

impl Books {
    /// Books over `telemetry` for a server whose clock starts at
    /// `platform`'s current time.
    pub fn new(telemetry: &Telemetry, platform: &Platform, persist: Option<SharedWriter>) -> Self {
        Self {
            root: telemetry.root_context(),
            persist,
            epoch_secs: platform.now().as_secs() as f64,
        }
    }

    /// Opens a request's spans at `now`, before anything serves it.
    pub fn open(&self, now: f64) -> Open {
        let request = self.root.child();
        let service = request.child();
        let backend = service.clone().rebased(now - self.epoch_secs);
        Open {
            request,
            service,
            backend,
        }
    }

    /// A backend served `req` from `started` to `finished`.
    pub fn completed(
        &self,
        req: &Request,
        open: &Open,
        started: f64,
        finished: f64,
        resp: &ServiceResponse,
    ) -> RequestRecord {
        if open.request.is_enabled() {
            let tool = req.tool.abbrev();
            let queue_wait = [("tool", tool)];
            open.request
                .span(names::SERVER_QUEUE_WAIT, req.at, started, &queue_wait);
            let source = if resp.served_from_cache {
                "cache"
            } else {
                "fresh"
            };
            let service = [("tool", tool), ("source", source)];
            open.service
                .record(names::SERVER_SERVICE, started, finished, &service);
        }
        let cached = resp.served_from_cache;
        let outcome = RequestOutcome::Completed { cached };
        self.answered(req, open, started, finished, resp, outcome)
    }

    /// The degrade path answered `req` from a stale report, from
    /// `started` to `finished`, without a backend.
    pub fn degraded(
        &self,
        req: &Request,
        open: &Open,
        started: f64,
        finished: f64,
        resp: &ServiceResponse,
    ) -> RequestRecord {
        let service = [("tool", req.tool.abbrev()), ("source", "stale")];
        open.service
            .record(names::SERVER_SERVICE, started, finished, &service);
        self.answered(req, open, started, finished, resp, RequestOutcome::Degraded)
    }

    /// Closes an answered request: its `server.request` span, its store
    /// row and its record.
    fn answered(
        &self,
        req: &Request,
        open: &Open,
        started: f64,
        finished: f64,
        resp: &ServiceResponse,
        outcome: RequestOutcome,
    ) -> RequestRecord {
        if open.request.is_enabled() {
            let target = req.target.to_string();
            let attrs = [
                ("tool", req.tool.abbrev()),
                ("target", &target),
                ("outcome", outcome.label()),
            ];
            open.request
                .record(names::SERVER_REQUEST, req.at, finished, &attrs);
        }
        if let Some(writer) = &self.persist {
            let at = self.epoch_secs + finished;
            let row = audit_record(req.target, at, outcome.label(), req.id, resp);
            persist_record(writer, self.root.telemetry(), row);
        }
        record(req, Some(started), Some(finished), outcome)
    }

    /// `req` was refused at admission, on arrival.
    pub fn shed(&self, req: &Request) -> RequestRecord {
        self.point(names::SERVER_SHED, req.at, req);
        record(req, None, None, RequestOutcome::Shed)
    }

    /// `req` waited in the queue past its deadline and was dropped at
    /// `at`, unserved.
    pub fn expired(&self, req: &Request, at: f64) -> RequestRecord {
        self.point(names::SERVER_EXPIRED, at, req);
        record(req, None, Some(at), RequestOutcome::Expired)
    }

    /// A backend took `req` at `started` and errored at `finished`.
    pub fn failed(&self, req: &Request, started: f64, finished: f64) -> RequestRecord {
        self.point(names::SERVER_FAILED, finished, req);
        record(req, Some(started), Some(finished), RequestOutcome::Failed)
    }

    /// A refusal point at the trace root.
    fn point(&self, name: &str, at: f64, req: &Request) {
        if self.root.is_enabled() {
            let target = req.target.to_string();
            self.root.point(
                name,
                at,
                &[("tool", req.tool.abbrev()), ("target", &target)],
            );
        }
    }

    /// Adds `r` to `server.requests{tool,outcome}` and, if it was
    /// answered, to `server.queue_wait_secs`, `server.service_secs` and
    /// `server.latency_secs`.
    pub fn count(&self, r: &RequestRecord) {
        let telemetry = self.root.telemetry();
        let tool = r.tool.abbrev();
        let labels = [("tool", tool), ("outcome", r.outcome.label())];
        telemetry.counter_add("server.requests", &labels, 1);
        if r.answered() {
            let tool_only = [("tool", tool)];
            telemetry.observe("server.queue_wait_secs", &tool_only, r.queue_wait());
            telemetry.observe("server.service_secs", &tool_only, r.service_secs());
            if let Some(latency) = r.latency() {
                telemetry.observe("server.latency_secs", &tool_only, latency);
            }
        }
    }
}

fn record(
    req: &Request,
    started: Option<f64>,
    finished: Option<f64>,
    outcome: RequestOutcome,
) -> RequestRecord {
    RequestRecord {
        id: req.id,
        tool: req.tool,
        target: req.target,
        arrived: req.at,
        started,
        finished,
        outcome,
    }
}

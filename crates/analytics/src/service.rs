//! The online-service wrapper around a detector engine.

use crate::breaker::{BreakerConfig, BreakerTransition, CircuitBreaker};
use crate::cache::ResultCache;
use crate::profiles::ServiceProfile;
use crate::quota::{DailyQuota, QuotaExceeded};
use fakeaudit_detectors::{AuditError, AuditOutcome, FollowerAuditor, Instrumented, ToolId};
use fakeaudit_stats::rng::{derive_seed, Rng, SeedableRng, StdRng};
use fakeaudit_telemetry::{Telemetry, TraceContext};
use fakeaudit_twitter_api::{ApiConfig, ApiSession, FaultPlan, RetryPolicy};
use fakeaudit_twittersim::{AccountId, Platform, SimTime};
use std::fmt;

/// Errors from a service request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The daily quota rejected the request.
    Quota(QuotaExceeded),
    /// The underlying audit failed.
    Audit(AuditError),
    /// The tool's circuit breaker is open and no stale result existed to
    /// fall back on.
    Unavailable {
        /// The tool whose circuit is open.
        tool: ToolId,
        /// Seconds until the breaker probes again.
        retry_in_secs: f64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Quota(e) => write!(f, "quota: {e}"),
            ServiceError::Audit(e) => write!(f, "audit: {e}"),
            ServiceError::Unavailable {
                tool,
                retry_in_secs,
            } => write!(
                f,
                "{tool} unavailable: circuit open, retry in {retry_in_secs:.0}s"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Quota(e) => Some(e),
            ServiceError::Audit(e) => Some(e),
            ServiceError::Unavailable { .. } => None,
        }
    }
}

#[doc(hidden)]
impl From<QuotaExceeded> for ServiceError {
    fn from(e: QuotaExceeded) -> Self {
        ServiceError::Quota(e)
    }
}

#[doc(hidden)]
impl From<AuditError> for ServiceError {
    fn from(e: AuditError) -> Self {
        ServiceError::Audit(e)
    }
}

/// A served analysis: the outcome plus service-level timing.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResponse {
    /// The analysis result.
    pub outcome: AuditOutcome,
    /// End-to-end response time in simulated seconds — the Table II number.
    pub response_secs: f64,
    /// Whether the result came from the service's cache.
    pub served_from_cache: bool,
    /// When the underlying audit actually ran (may predate the request for
    /// cached results — only Twitteraudit discloses this, §IV-C).
    pub assessed_at: SimTime,
}

impl fmt::Display for ServiceResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {:.0}s{}",
            self.outcome.counts,
            self.response_secs,
            if self.served_from_cache {
                " (cached)"
            } else {
                ""
            }
        )
    }
}

/// A detector engine wrapped in web-service behaviour: result cache, daily
/// quota, service overhead.
///
/// ```
/// use fakeaudit_analytics::{OnlineService, ServiceProfile};
/// use fakeaudit_detectors::Twitteraudit;
/// use fakeaudit_population::{ClassMix, TargetScenario};
/// use fakeaudit_twittersim::Platform;
///
/// let mut platform = Platform::new();
/// let target = TargetScenario::new("celeb", 2_000, ClassMix::new(0.3, 0.2, 0.5)?)
///     .build(&mut platform, 1)?;
/// let mut service = OnlineService::new(Twitteraudit::new(), ServiceProfile::twitteraudit(), 7);
/// let first = service.request(&platform, target.target)?;
/// let second = service.request(&platform, target.target)?;
/// assert!(!first.served_from_cache);
/// assert!(second.served_from_cache);
/// assert!(second.response_secs < first.response_secs);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Cloning a service clones its warmed cache, quota state and jitter
/// stream — the load simulator fans one prewarmed service out across
/// independent sweep points this way.
#[derive(Debug, Clone)]
pub struct OnlineService<A> {
    auditor: A,
    profile: ServiceProfile,
    cache: ResultCache,
    quota: Option<DailyQuota>,
    seed: u64,
    requests: u64,
    jitter: StdRng,
    telemetry: Telemetry,
    /// Upstream unreliability injected into every fresh audit's API
    /// session. [`FaultPlan::none`] (the default) arms nothing.
    fault_plan: FaultPlan,
    /// How those sessions retry. [`RetryPolicy::none`] by default.
    retry: RetryPolicy,
    /// Optional circuit breaker over the fresh-audit path.
    breaker: Option<CircuitBreaker>,
}

/// The decomposition of one fresh response's simulated seconds — the
/// Table II breakdown recorded into the telemetry histograms.
struct FreshBreakdown {
    rate_limit_wait: f64,
    api_latency: f64,
    overhead: f64,
}

/// What one fresh audit reported back up to the request path.
struct FreshRun {
    outcome: AuditOutcome,
    rate_limit_wait: f64,
    backoff_wait: f64,
}

impl<A: FollowerAuditor> OnlineService<A> {
    /// Wraps `auditor` with the service behaviour of `profile`.
    pub fn new(auditor: A, profile: ServiceProfile, seed: u64) -> Self {
        Self {
            auditor,
            profile,
            cache: profile.build_cache(),
            quota: profile.build_quota(),
            seed,
            requests: 0,
            jitter: StdRng::seed_from_u64(derive_seed(seed, "service-jitter")),
            telemetry: Telemetry::disabled(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::none(),
            breaker: None,
        }
    }

    /// Injects upstream unreliability: every fresh audit's API session is
    /// armed with `plan` (re-seeded per request from the service seed, so
    /// requests draw independent fault sequences) and retries per
    /// `retry`. [`FaultPlan::none`] leaves the service byte-identical to
    /// an unarmed one.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan, retry: RetryPolicy) -> Self {
        plan.validate();
        retry.validate();
        self.fault_plan = plan;
        self.retry = retry;
        self
    }

    /// Puts a circuit breaker in front of the fresh-audit path: while
    /// open, requests that miss the cache are answered from the stale
    /// cache ([`OnlineService::serve_stale`]) or refused with
    /// [`ServiceError::Unavailable`].
    #[must_use]
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = Some(CircuitBreaker::new(cfg));
        self
    }

    /// The circuit breaker, when one is armed.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// Routes this service's signals into `telemetry`: per-request spans
    /// (`service.request{tool,source}`), cache hit/miss counters, quota
    /// rejections, the per-tool response-time breakdown (rate-limit wait
    /// vs. HTTP latency vs. site overhead — the anatomy of Table II),
    /// detector verdict counters and the underlying API-call stream.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the telemetry handle in place.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry handle this service records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Which tool this service fronts.
    pub fn tool(&self) -> ToolId {
        self.auditor.tool()
    }

    /// The wrapped auditor.
    pub fn auditor(&self) -> &A {
        &self.auditor
    }

    /// The service profile.
    pub fn profile(&self) -> &ServiceProfile {
        &self.profile
    }

    /// Runs the audit and stores it in the cache *without* serving a
    /// response — models results the vendor pre-computed before the paper's
    /// first request (the 2–3 s rows of Table II).
    ///
    /// # Errors
    ///
    /// Propagates [`AuditError`].
    pub fn prewarm(&mut self, platform: &Platform, target: AccountId) -> Result<(), ServiceError> {
        let fresh = self.run_fresh(platform, target)?;
        self.cache.put(target, fresh.outcome, platform.now());
        Ok(())
    }

    /// Lifetime hit/miss statistics of the service's result cache.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Serves the *last known* result for `target`, even if the cache entry
    /// has expired — the degrade-to-stale overload path. Unlike
    /// [`OnlineService::request`] this charges no quota, runs no audit and
    /// records nothing in the cache statistics: it is the cheap answer a
    /// saturated service gives when it would otherwise shed the request.
    /// Returns `None` when the target has never been audited.
    pub fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
        self.cache.peek(target).map(|entry| ServiceResponse {
            outcome: entry.outcome.clone(),
            response_secs: self.profile.cached_base_secs,
            served_from_cache: true,
            assessed_at: entry.assessed_at,
        })
    }

    /// Serves one analysis request at the platform's current time.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Quota`] when the daily quota is exhausted (the quota
    /// is charged even for cached results — the site counts requests), or
    /// [`ServiceError::Audit`].
    pub fn request(
        &mut self,
        platform: &Platform,
        target: AccountId,
    ) -> Result<ServiceResponse, ServiceError> {
        let ctx = self.telemetry.root_context();
        let breaker_now = platform.now().as_secs() as f64;
        self.request_in_at(platform, target, &ctx, breaker_now)
    }

    /// [`OnlineService::request`] with an explicit causal position and
    /// an explicit wall clock for the circuit breaker.
    ///
    /// The `service.request` span (plus its `cache.lookup` point,
    /// `detector.audit` subtree and per-page `api.call` spans) attaches
    /// under `ctx` — the audit service threads its `server.service` span
    /// here so every answered request becomes one trace tree. With a root
    /// context the same spans are emitted as trace roots, which is what
    /// [`OnlineService::request`] does.
    ///
    /// A driving simulator (the audit server) advances its own event-loop
    /// time without touching the platform clock; it passes that time as
    /// `breaker_now` so an opened circuit cools down and half-opens as
    /// *simulated* seconds pass, not platform seconds — under a frozen
    /// platform clock the breaker would otherwise never recover. Trace
    /// spans keep their platform-time base either way.
    ///
    /// # Errors
    ///
    /// As [`OnlineService::request`].
    pub fn request_in_at(
        &mut self,
        platform: &Platform,
        target: AccountId,
        ctx: &TraceContext,
        breaker_now: f64,
    ) -> Result<ServiceResponse, ServiceError> {
        let now = platform.now();
        let t0 = now.as_secs() as f64;
        let tool = self.auditor.tool().abbrev();
        if let Some(q) = &mut self.quota {
            if let Err(e) = q.consume(now) {
                self.telemetry
                    .counter_add("quota.rejected", &[("tool", tool)], 1);
                ctx.point("quota.rejected", t0, &[("tool", tool)]);
                return Err(e.into());
            }
        }
        // Opened before the outcome is known so the lookup point and the
        // audit subtree attach under it; recorded once the response time
        // (its end) is known.
        let sctx = ctx.child();
        if let Some(entry) = self.cache.get(target, now) {
            let response_secs = self.profile.cached_base_secs
                + self.jitter.gen::<f64>() * self.profile.cached_jitter;
            let response = ServiceResponse {
                outcome: entry.outcome.clone(),
                response_secs,
                served_from_cache: true,
                assessed_at: entry.assessed_at,
            };
            sctx.point("cache.lookup", t0, &[("tool", tool), ("result", "hit")]);
            sctx.record(
                "service.request",
                t0,
                t0 + response_secs,
                &[("tool", tool), ("source", "cache")],
            );
            self.record_request(response_secs, "cache", None);
            return Ok(response);
        }
        sctx.point("cache.lookup", t0, &[("tool", tool), ("result", "miss")]);
        if let Some(retry_in_secs) = self.breaker_refuses(breaker_now, &sctx) {
            // Circuit open: degrade to the last known result rather than
            // hammer a failing upstream; shed only when we have nothing.
            return match self.serve_stale(target) {
                Some(response) => {
                    sctx.record(
                        "service.request",
                        t0,
                        t0 + response.response_secs,
                        &[("tool", tool), ("source", "stale")],
                    );
                    self.record_request(response.response_secs, "stale", None);
                    Ok(response)
                }
                None => Err(ServiceError::Unavailable {
                    tool: self.auditor.tool(),
                    retry_in_secs,
                }),
            };
        }
        let fresh = self.run_fresh_in(platform, target, &sctx);
        self.feed_breaker(breaker_now, &fresh, &sctx);
        let FreshRun {
            outcome,
            rate_limit_wait,
            backoff_wait,
        } = fresh?;
        let response_secs = outcome.api_elapsed_secs
            + self.profile.overhead_secs
            + self.jitter.gen::<f64>() * self.profile.overhead_jitter;
        self.cache.put(target, outcome.clone(), now);
        sctx.record(
            "service.request",
            t0,
            t0 + response_secs,
            &[("tool", tool), ("source", "fresh")],
        );
        if !self.fault_plan.is_none() {
            self.telemetry
                .observe("service.backoff_secs", &[("tool", tool)], backoff_wait);
        }
        self.record_request(
            response_secs,
            "fresh",
            Some(FreshBreakdown {
                rate_limit_wait,
                api_latency: outcome.api_elapsed_secs - rate_limit_wait - backoff_wait,
                overhead: response_secs - outcome.api_elapsed_secs + backoff_wait,
            }),
        );
        Ok(ServiceResponse {
            outcome,
            response_secs,
            served_from_cache: false,
            assessed_at: now,
        })
    }

    /// Consults the armed breaker (if any) at sim-time `now`. Returns
    /// `Some(retry_in_secs)` when the fresh path is refused.
    fn breaker_refuses(&mut self, now: f64, ctx: &TraceContext) -> Option<f64> {
        let (allowed, transition, retry_in) = {
            let breaker = self.breaker.as_mut()?;
            let (allowed, transition) = breaker.allow(now);
            (allowed, transition, breaker.open_remaining(now))
        };
        if let Some(tr) = transition {
            self.note_breaker_transition(ctx, &tr);
        }
        (!allowed).then_some(retry_in)
    }

    /// Feeds one fresh-audit result into the armed breaker (if any). Only
    /// retryable upstream failures count against the circuit; quota
    /// rejections never reach here and audit-logic errors say nothing
    /// about upstream health.
    fn feed_breaker(
        &mut self,
        now: f64,
        fresh: &Result<FreshRun, ServiceError>,
        ctx: &TraceContext,
    ) {
        let Some(breaker) = self.breaker.as_mut() else {
            return;
        };
        let transition = match fresh {
            Ok(_) => breaker.on_success(now),
            Err(ServiceError::Audit(e)) if e.is_retryable() => breaker.on_failure(now),
            Err(_) => None,
        };
        let open_secs = breaker.open_secs_total(now);
        if let Some(tr) = transition {
            self.note_breaker_transition(ctx, &tr);
        }
        let tool = self.auditor.tool().abbrev();
        self.telemetry
            .gauge_set("breaker.open_secs", &[("tool", tool)], open_secs);
    }

    /// Emits one breaker state change as a trace point and counter.
    fn note_breaker_transition(&self, ctx: &TraceContext, tr: &BreakerTransition) {
        let tool = self.auditor.tool().abbrev();
        ctx.point(
            "breaker.transition",
            tr.at_secs,
            &[("tool", tool), ("from", tr.from.key()), ("to", tr.to.key())],
        );
        self.telemetry.counter_add(
            "breaker.transitions",
            &[("tool", tool), ("to", tr.to.key())],
            1,
        );
    }

    /// Mirrors one served request's metrics into the telemetry handle
    /// (the `service.request` span itself is recorded by the caller's
    /// context).
    fn record_request(&self, response_secs: f64, source: &str, breakdown: Option<FreshBreakdown>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let tool = self.auditor.tool().abbrev();
        let labels = [("tool", tool), ("source", source)];
        self.telemetry
            .observe("service.response_secs", &labels, response_secs);
        let tool_only = [("tool", tool)];
        // Stale serves are neither cache hits nor misses: the entry was
        // consulted outside its TTL contract, so they get their own counter.
        self.telemetry.counter_add(
            match source {
                "cache" => "cache.hit",
                "fresh" => "cache.miss",
                _ => "service.stale_served",
            },
            &tool_only,
            1,
        );
        if let Some(b) = breakdown {
            self.telemetry.observe(
                "service.rate_limit_wait_secs",
                &tool_only,
                b.rate_limit_wait,
            );
            self.telemetry
                .observe("service.api_latency_secs", &tool_only, b.api_latency);
            self.telemetry
                .observe("service.overhead_secs", &tool_only, b.overhead);
        }
        let stats = self.cache.stats();
        self.telemetry
            .gauge_set("cache.hits", &tool_only, stats.hits as f64);
        self.telemetry
            .gauge_set("cache.misses", &tool_only, stats.misses as f64);
        self.telemetry
            .gauge_set("cache.entries", &tool_only, self.cache.len() as f64);
    }

    fn run_fresh(
        &mut self,
        platform: &Platform,
        target: AccountId,
    ) -> Result<FreshRun, ServiceError> {
        let ctx = self.telemetry.root_context();
        self.run_fresh_in(platform, target, &ctx)
    }

    /// Runs one uncached audit. The session is opened on a child of
    /// `ctx`: that child becomes the `detector.audit` span (recorded by
    /// [`Instrumented`] at close) and every page fetch a child `api.call`
    /// span under it. When a fault plan is armed, the session gets its own
    /// per-request fault seed so concurrent requests draw independent
    /// fault sequences while the whole run stays a function of the
    /// service seed.
    fn run_fresh_in(
        &mut self,
        platform: &Platform,
        target: AccountId,
        ctx: &TraceContext,
    ) -> Result<FreshRun, ServiceError> {
        self.requests += 1;
        let request_seed = derive_seed(self.seed, &format!("request-{}", self.requests));
        let api = ApiConfig {
            seed: request_seed,
            ..self.profile.api
        };
        let mut session = ApiSession::with_context(platform, api, ctx.child());
        if !self.fault_plan.is_none() {
            let plan = FaultPlan {
                seed: derive_seed(request_seed, "faults"),
                ..self.fault_plan
            };
            session = session.with_faults(plan, self.retry);
        }
        let auditor = Instrumented::new(&self.auditor, self.telemetry.clone());
        let outcome = auditor.audit(&mut session, target, request_seed)?;
        Ok(FreshRun {
            outcome,
            rate_limit_wait: session.rate_limit_wait_secs(),
            backoff_wait: session.backoff_wait_secs(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use fakeaudit_detectors::{Socialbakers, StatusPeople, Twitteraudit};
    use fakeaudit_population::{BuiltTarget, ClassMix, TargetScenario};

    fn built(n: usize) -> (Platform, BuiltTarget) {
        let mut platform = Platform::new();
        let t = TargetScenario::new("svc", n, ClassMix::new(0.3, 0.2, 0.5).unwrap())
            .build(&mut platform, 91)
            .unwrap();
        (platform, t)
    }

    #[test]
    fn first_request_is_fresh_then_cached() {
        let (platform, t) = built(3_000);
        let mut svc = OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), 1);
        let first = svc.request(&platform, t.target).unwrap();
        assert!(!first.served_from_cache);
        let second = svc.request(&platform, t.target).unwrap();
        assert!(second.served_from_cache);
        assert!(
            second.response_secs < 5.0,
            "cached response {:.1}s must be <5s (§IV-C)",
            second.response_secs
        );
        assert_eq!(first.outcome.counts, second.outcome.counts);
    }

    #[test]
    fn prewarmed_result_serves_fast_on_first_request() {
        let (platform, t) = built(3_000);
        let mut svc = OnlineService::new(Twitteraudit::new(), ServiceProfile::twitteraudit(), 2);
        svc.prewarm(&platform, t.target).unwrap();
        let r = svc.request(&platform, t.target).unwrap();
        assert!(r.served_from_cache);
        assert!(r.response_secs < 5.0);
    }

    #[test]
    fn serve_stale_returns_expired_entries_without_quota() {
        let (mut platform, t) = built(2_000);
        let profile = ServiceProfile {
            cache_ttl_days: Some(1),
            ..ServiceProfile::socialbakers()
        };
        let mut svc = OnlineService::new(Socialbakers::new(), profile, 21);
        assert!(
            svc.serve_stale(t.target).is_none(),
            "cold cache has no stale result"
        );
        // The scenario build leaves the clock at its audit time, which
        // the fresh answer is stamped with.
        let assessed_at = platform.now();
        let fresh = svc.request(&platform, t.target).unwrap();
        assert_eq!(fresh.assessed_at, assessed_at);
        platform.advance_clock(fakeaudit_twittersim::SimDuration::from_days(3));
        let before = svc.cache_stats();
        let stale = svc.serve_stale(t.target).unwrap();
        assert_eq!(
            svc.cache_stats(),
            before,
            "stale serves are not cache lookups"
        );
        assert!(stale.served_from_cache);
        assert_eq!(stale.outcome.counts, fresh.outcome.counts);
        assert_eq!(stale.assessed_at, assessed_at);
        assert!(stale.response_secs <= fresh.response_secs);
    }

    #[test]
    fn sb_quota_rejects_eleventh_request() {
        let (platform, t) = built(2_500);
        let mut svc = OnlineService::new(Socialbakers::new(), ServiceProfile::socialbakers(), 3);
        for _ in 0..10 {
            svc.request(&platform, t.target).unwrap();
        }
        assert!(matches!(
            svc.request(&platform, t.target).unwrap_err(),
            ServiceError::Quota(_)
        ));
    }

    #[test]
    fn quota_resets_next_day() {
        let (mut platform, t) = built(2_500);
        let mut svc = OnlineService::new(Socialbakers::new(), ServiceProfile::socialbakers(), 4);
        for _ in 0..10 {
            svc.request(&platform, t.target).unwrap();
        }
        platform.advance_clock(fakeaudit_twittersim::SimDuration::from_days(1));
        assert!(svc.request(&platform, t.target).is_ok());
    }

    #[test]
    fn sb_response_time_band() {
        let (platform, t) = built(5_000);
        let mut svc = OnlineService::new(Socialbakers::new(), ServiceProfile::socialbakers(), 5);
        let r = svc.request(&platform, t.target).unwrap();
        assert!(
            (6.0..15.0).contains(&r.response_secs),
            "SB first response {:.1}s out of Table II band",
            r.response_secs
        );
    }

    #[test]
    fn sp_response_time_band() {
        let (platform, t) = built(5_000);
        let mut svc = OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), 6);
        let r = svc.request(&platform, t.target).unwrap();
        assert!(
            (15.0..35.0).contains(&r.response_secs),
            "SP first response {:.1}s out of band",
            r.response_secs
        );
    }

    #[test]
    fn ta_response_time_band() {
        let (platform, t) = built(8_000);
        let mut svc = OnlineService::new(Twitteraudit::new(), ServiceProfile::twitteraudit(), 7);
        let r = svc.request(&platform, t.target).unwrap();
        assert!(
            (38.0..58.0).contains(&r.response_secs),
            "TA first response {:.1}s out of band",
            r.response_secs
        );
    }

    #[test]
    fn audit_errors_propagate() {
        let platform = Platform::new();
        let mut svc = OnlineService::new(Twitteraudit::new(), ServiceProfile::twitteraudit(), 8);
        assert!(matches!(
            svc.request(&platform, AccountId(404)).unwrap_err(),
            ServiceError::Audit(_)
        ));
    }

    #[test]
    fn telemetry_records_cache_traffic_and_breakdown() {
        let (platform, t) = built(3_000);
        let tel = Telemetry::enabled();
        let mut svc = OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), 11)
            .with_telemetry(tel.clone());
        assert!(svc.telemetry().is_enabled());
        let first = svc.request(&platform, t.target).unwrap();
        svc.request(&platform, t.target).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("cache.miss", &[("tool", "SP")]), Some(1));
        assert_eq!(snap.counter("cache.hit", &[("tool", "SP")]), Some(1));
        assert_eq!(svc.cache_stats().hit_ratio(), Some(0.5));
        // Fresh response decomposes into rate-limit wait + latency + overhead.
        let parts = snap.histogram_sum("service.rate_limit_wait_secs")
            + snap.histogram_sum("service.api_latency_secs")
            + snap.histogram_sum("service.overhead_secs");
        assert!(
            (parts - first.response_secs).abs() < 1e-6,
            "breakdown {parts} != response {}",
            first.response_secs
        );
        // The API-call stream flowed through into telemetry too.
        assert!(snap.counter_total("api.calls") > 0);
        assert_eq!(
            snap.counter_total("detector.classified"),
            first.outcome.counts.total()
        );
        let spans: Vec<_> = tel
            .events()
            .into_iter()
            .filter(|e| e.name == "service.request")
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].attr("source"), Some("fresh"));
        assert_eq!(spans[1].attr("source"), Some("cache"));
    }

    #[test]
    fn request_in_builds_one_tree_per_request() {
        let (platform, t) = built(3_000);
        let tel = Telemetry::enabled();
        let mut svc = OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), 11)
            .with_telemetry(tel.clone());
        let parent = tel.root_context().child();
        let now = platform.now().as_secs() as f64;
        svc.request_in_at(&platform, t.target, &parent, now)
            .unwrap(); // fresh
        svc.request_in_at(&platform, t.target, &parent, now)
            .unwrap(); // cached
        parent.record("server.service", 0.0, 100.0, &[]);
        let events = tel.events();
        let by_name = |n: &str| -> Vec<_> { events.iter().filter(|e| e.name == n).collect() };
        let sreqs = by_name("service.request");
        assert_eq!(sreqs.len(), 2);
        assert!(sreqs.iter().all(|e| e.parent == parent.span_id()));
        assert_eq!(sreqs[0].attr("source"), Some("fresh"));
        assert_eq!(sreqs[1].attr("source"), Some("cache"));
        // The lookup points sit under their service.request spans.
        let lookups = by_name("cache.lookup");
        assert_eq!(lookups.len(), 2);
        assert_eq!(lookups[0].attr("result"), Some("miss"));
        assert_eq!(lookups[1].attr("result"), Some("hit"));
        assert!(lookups.iter().zip(&sreqs).all(|(l, s)| l.parent == s.id));
        // The audit subtree: detector.audit under the fresh request,
        // api.call spans under the audit.
        let audit = by_name("detector.audit");
        assert_eq!(audit.len(), 1);
        assert_eq!(audit[0].parent, sreqs[0].id);
        let calls = by_name("api.call");
        assert!(!calls.is_empty());
        assert!(calls.iter().all(|c| c.parent == audit[0].id));
    }

    #[test]
    fn plain_requests_root_their_own_trees() {
        let (platform, t) = built(2_000);
        let tel = Telemetry::enabled();
        let mut svc = OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), 13)
            .with_telemetry(tel.clone());
        svc.request(&platform, t.target).unwrap();
        let events = tel.events();
        let sreq = events.iter().find(|e| e.name == "service.request").unwrap();
        assert!(sreq.id.is_some());
        assert_eq!(sreq.parent, None, "root context roots the tree");
    }

    #[test]
    fn telemetry_counts_quota_rejections() {
        let (platform, t) = built(2_500);
        let tel = Telemetry::enabled();
        let mut svc = OnlineService::new(Socialbakers::new(), ServiceProfile::socialbakers(), 12)
            .with_telemetry(tel.clone());
        for _ in 0..10 {
            svc.request(&platform, t.target).unwrap();
        }
        svc.request(&platform, t.target).unwrap_err();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("quota.rejected", &[("tool", "SB")]), Some(1));
    }

    #[test]
    fn disabled_telemetry_matches_instrumented_run() {
        let (platform, t) = built(2_000);
        let run = |tel: Telemetry| {
            let mut svc =
                OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), 9)
                    .with_telemetry(tel);
            svc.request(&platform, t.target).unwrap().response_secs
        };
        assert_eq!(run(Telemetry::disabled()), run(Telemetry::enabled()));
    }

    fn always_unavailable() -> FaultPlan {
        FaultPlan {
            seed: 77,
            rates: [fakeaudit_twitter_api::FaultRates {
                unavailable: 1.0,
                rate_limited: 0.0,
                timeout: 0.0,
                truncated_page: 0.0,
            }; 4],
            ..FaultPlan::none()
        }
    }

    fn trigger_happy_breaker() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            min_samples: 2,
            open_secs: 60.0,
            half_open_probes: 1,
        }
    }

    #[test]
    fn none_fault_plan_is_identity() {
        let (platform, t) = built(2_000);
        let run = |armed: bool| {
            let svc = OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), 9);
            let mut svc = if armed {
                svc.with_fault_plan(FaultPlan::none(), RetryPolicy::standard())
            } else {
                svc
            };
            svc.request(&platform, t.target).unwrap().response_secs
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn faulty_upstream_with_retries_still_answers() {
        let (platform, t) = built(3_000);
        let tel = Telemetry::enabled();
        let mut svc = OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), 31)
            .with_fault_plan(FaultPlan::uniform(5, 0.25), RetryPolicy::standard())
            .with_telemetry(tel.clone());
        let r = svc.request(&platform, t.target).unwrap();
        assert!(!r.served_from_cache);
        let snap = tel.snapshot();
        assert!(
            snap.counter_total("api.faults") > 0,
            "a 25% plan over an audit's calls must inject something"
        );
        assert!(snap.counter_total("api.retries") > 0);
    }

    #[test]
    fn open_breaker_degrades_to_stale() {
        let (mut platform, t) = built(2_000);
        let profile = ServiceProfile {
            cache_ttl_days: Some(1),
            ..ServiceProfile::statuspeople()
        };
        let tel = Telemetry::enabled();
        let mut svc = OnlineService::new(StatusPeople::new(), profile, 41);
        let warmed_at = platform.now();
        svc.prewarm(&platform, t.target).unwrap();
        let mut svc = svc
            .with_fault_plan(always_unavailable(), RetryPolicy::none())
            .with_breaker(trigger_happy_breaker())
            .with_telemetry(tel.clone());
        platform.advance_clock(fakeaudit_twittersim::SimDuration::from_days(3));
        // Two fresh attempts fail upstream and trip the circuit...
        for _ in 0..2 {
            assert!(matches!(
                svc.request(&platform, t.target).unwrap_err(),
                ServiceError::Audit(_)
            ));
        }
        assert_eq!(svc.breaker().unwrap().state(), BreakerState::Open);
        // ...after which the stale prewarmed answer is served instead.
        let stale = svc.request(&platform, t.target).unwrap();
        assert!(stale.served_from_cache);
        assert_eq!(stale.assessed_at, warmed_at);
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter("service.stale_served", &[("tool", "SP")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("breaker.transitions", &[("tool", "SP"), ("to", "open")]),
            Some(1)
        );
        // The cooldown elapsing admits a probe, which re-trips on failure.
        platform.advance_clock(fakeaudit_twittersim::SimDuration::from_days(1));
        assert!(matches!(
            svc.request(&platform, t.target).unwrap_err(),
            ServiceError::Audit(_)
        ));
        assert_eq!(svc.breaker().unwrap().state(), BreakerState::Open);
        assert_eq!(svc.breaker().unwrap().trips(), 2);
    }

    #[test]
    fn open_breaker_without_stale_refuses() {
        let (platform, t) = built(2_000);
        let mut svc = OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), 43)
            .with_fault_plan(always_unavailable(), RetryPolicy::none())
            .with_breaker(trigger_happy_breaker());
        for _ in 0..2 {
            svc.request(&platform, t.target).unwrap_err();
        }
        match svc.request(&platform, t.target).unwrap_err() {
            ServiceError::Unavailable {
                tool,
                retry_in_secs,
            } => {
                assert_eq!(tool, ToolId::StatusPeople);
                assert!(retry_in_secs > 0.0);
            }
            other => panic!("expected Unavailable, got {other}"),
        }
    }

    #[test]
    fn responses_are_deterministic_per_seed() {
        let (platform, t) = built(2_000);
        let run = |seed| {
            let mut svc =
                OnlineService::new(StatusPeople::new(), ServiceProfile::statuspeople(), seed);
            svc.request(&platform, t.target).unwrap().response_secs
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}

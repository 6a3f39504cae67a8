//! Bridge from completed audits to the columnar history store.
//!
//! Both serving worlds — the discrete-event [`ServerSim`](crate::ServerSim)
//! and the wall-clock gateway dispatcher — end a successful request
//! holding a [`ServiceResponse`] and a completion time, and both hand
//! that pair to [`Books`](crate::Books). This module turns it into one
//! [`AuditRecord`] append and emits the `store.*` metrics at the call
//! site, keeping `fakeaudit-store` itself telemetry-free.
//!
//! Append failures are counted (`store.append_errors`), not propagated:
//! history is an observability surface, and losing a row must never fail
//! the request that produced it. The writer itself degrades after a
//! bounded run of consecutive I/O errors (it keeps serving and counts
//! dropped rows instead of journaling); this module mirrors that state
//! into `store.degraded` / `store.dropped_rows` and the startup
//! recovery outcome into `store.recovery.*` gauges. A degraded writer
//! recovers on its own: after every
//! [`StoreWriter::MAX_CONSECUTIVE_IO_ERRORS`](fakeaudit_store::StoreWriter::MAX_CONSECUTIVE_IO_ERRORS)
//! dropped rows it journals the next row as a probe, and the first probe
//! that lands ends the degraded state, so a disk that heals mid-run needs
//! no flush or restart to be written again.
//!
//! Readers never flush: [`writer_view`] copies the writer's segment list
//! and buffered rows under its lock, and the caller builds a read-side
//! store from that copy after the lock is released.

use std::sync::MutexGuard;

use fakeaudit_analytics::ServiceResponse;
use fakeaudit_store::{
    dominant_verdict, AuditRecord, SharedWriter, StoreHealth, StoreWriter, WriterView,
};
use fakeaudit_telemetry::Telemetry;
use fakeaudit_twittersim::AccountId;

/// Builds the store row for one answered request.
///
/// `finished_epoch_secs` is the completion time on the epoch clock: the
/// platform epoch plus the server clock's seconds, which count from the
/// start of the run in the simulator and from boot in the gateway.
pub fn audit_record(
    target: AccountId,
    finished_epoch_secs: f64,
    outcome_label: &str,
    trace_id: u64,
    resp: &ServiceResponse,
) -> AuditRecord {
    let counts = &resp.outcome.counts;
    AuditRecord {
        target: target.0,
        ts_micros: AuditRecord::micros_from_secs(finished_epoch_secs),
        tool: resp.outcome.tool_name.clone(),
        verdict: dominant_verdict(counts.fake, counts.inactive, counts.genuine).to_string(),
        outcome: outcome_label.to_string(),
        fake_ratio: resp.outcome.fake_pct(),
        fake_count: counts.fake,
        sample_size: counts.fake + counts.inactive + counts.genuine,
        api_calls: resp.outcome.api_calls,
        trace_id,
    }
}

/// Emits the health fields that track durability trouble: the degraded
/// flag, rows dropped while degraded, and the startup recovery outcome.
fn emit_durability_gauges(telemetry: &Telemetry, health: &StoreHealth) {
    telemetry.gauge_set("store.degraded", &[], f64::from(u8::from(health.degraded)));
    telemetry.gauge_set("store.dropped_rows", &[], health.dropped_rows as f64);
    telemetry.gauge_set(
        "store.recovery.quarantined_segments",
        &[],
        health.quarantined_segments as f64,
    );
    telemetry.gauge_set(
        "store.recovery.wal_rows",
        &[],
        health.wal_recovered_rows as f64,
    );
}

/// Locks a shared writer, recovering a poisoned lock: the writer updates
/// its fields only after the I/O they record has succeeded, so a holder
/// that panicked cannot have left them half-updated.
fn lock(writer: &SharedWriter) -> MutexGuard<'_, StoreWriter> {
    writer
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Appends one record through a shared writer, emitting `store.*`
/// metrics for the append and for any segment flush it triggered.
pub fn persist_record(writer: &SharedWriter, telemetry: &Telemetry, record: AuditRecord) {
    let mut guard = lock(writer);
    let result = guard.append(record);
    let health = guard.health();
    drop(guard);
    emit_durability_gauges(telemetry, &health);
    match result {
        Ok(flush) => {
            if health.degraded {
                // The writer accepted the row in-memory only; it is not
                // journaled and counts as dropped, not appended.
                telemetry.counter_add("store.rows_dropped", &[], 1);
                return;
            }
            telemetry.counter_add("store.rows_appended", &[], 1);
            telemetry.gauge_set("store.buffered_rows", &[], health.buffered_rows as f64);
            if let Some(info) = flush {
                telemetry.counter_add("store.segments_flushed", &[], 1);
                telemetry.counter_add("store.flushed_rows", &[], info.rows as u64);
                telemetry.counter_add("store.flush_bytes", &[], info.bytes as u64);
                telemetry.gauge_set("store.segments", &[], health.segments as f64);
            }
        }
        Err(_) => {
            telemetry.counter_add("store.append_errors", &[], 1);
        }
    }
}

/// Flushes any buffered rows (shutdown / end-of-run), emitting the same
/// flush metrics as a threshold flush, and returns the resulting health.
///
/// # Errors
///
/// I/O errors writing the tail segment.
pub fn flush_writer(writer: &SharedWriter, telemetry: &Telemetry) -> std::io::Result<StoreHealth> {
    let mut guard = lock(writer);
    let info = guard.flush()?;
    let health = guard.health();
    drop(guard);
    emit_durability_gauges(telemetry, &health);
    if info.rows > 0 {
        telemetry.counter_add("store.segments_flushed", &[], 1);
        telemetry.counter_add("store.flushed_rows", &[], info.rows as u64);
        telemetry.counter_add("store.flush_bytes", &[], info.bytes as u64);
    }
    telemetry.gauge_set("store.segments", &[], health.segments as f64);
    telemetry.gauge_set("store.buffered_rows", &[], health.buffered_rows as f64);
    Ok(health)
}

/// A writer's current health without appending (for `/healthz`).
pub fn writer_health(writer: &SharedWriter) -> StoreHealth {
    lock(writer).health()
}

/// A writer's rows at this instant, copied under its lock (for
/// `/query`); [`WriterView::into_store`] then runs outside it.
pub fn writer_view(writer: &SharedWriter) -> WriterView {
    lock(writer).view()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakeaudit_detectors::{AuditOutcome, VerdictCounts};
    use fakeaudit_store::{open_shared, Projection, ScanOptions, Store, StoreWriter};
    use fakeaudit_twittersim::SimTime;
    use std::sync::{Arc, Mutex};

    fn response(fake: u64, inactive: u64, genuine: u64) -> ServiceResponse {
        ServiceResponse {
            outcome: AuditOutcome {
                tool_name: "FC".into(),
                target: AccountId(7),
                assessed: vec![],
                counts: VerdictCounts {
                    inactive,
                    fake,
                    genuine,
                },
                audited_at: SimTime::EPOCH,
                api_elapsed_secs: 1.0,
                api_calls: 4,
            },
            response_secs: 1.0,
            served_from_cache: false,
            assessed_at: SimTime::EPOCH,
        }
    }

    #[test]
    fn audit_record_maps_response_fields() {
        let resp = response(30, 10, 60);
        let rec = audit_record(AccountId(7), 12.5, "completed", 99, &resp);
        assert_eq!(rec.target, 7);
        assert_eq!(rec.ts_micros, 12_500_000);
        assert_eq!(rec.tool, "FC");
        assert_eq!(rec.verdict, "genuine");
        assert_eq!(rec.outcome, "completed");
        assert_eq!(rec.fake_count, 30);
        assert_eq!(rec.sample_size, 100);
        assert_eq!(rec.api_calls, 4);
        assert_eq!(rec.trace_id, 99);
        assert!((rec.fake_ratio - resp.outcome.fake_pct()).abs() < 1e-12);
    }

    #[test]
    fn persist_and_flush_emit_store_metrics() {
        let dir =
            std::env::temp_dir().join(format!("fakeaudit-persist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = Arc::new(Mutex::new(StoreWriter::open(&dir, 2).unwrap()));
        let tel = Telemetry::enabled();
        let resp = response(5, 0, 5);
        for i in 0..3u64 {
            persist_record(
                &writer,
                &tel,
                audit_record(AccountId(i), i as f64, "completed", i, &resp),
            );
        }
        // Threshold 2: one flush happened, one row still buffered.
        let health = flush_writer(&writer, &tel).unwrap();
        assert_eq!(health.segments, 2);
        assert_eq!(health.buffered_rows, 0);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("store.rows_appended", &[]), Some(3));
        assert_eq!(snap.counter("store.segments_flushed", &[]), Some(2));
        assert_eq!(snap.counter("store.flushed_rows", &[]), Some(3));
        assert_eq!(writer_health(&writer).flushed_rows, 3);

        let store = Store::open(&dir).unwrap();
        let rows = store
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(rows.rows.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_writer_keeps_serving_and_counts_drops() {
        use fakeaudit_store::{FaultScript, FsyncPolicy, MemIo};
        // Every mutating I/O op fails (without crashing), so the first
        // journal append errors and, after the bounded retry budget,
        // the writer degrades instead of failing requests.
        let io = Arc::new(MemIo::with_script(FaultScript {
            fail_from_op: Some(0),
            ..FaultScript::default()
        }));
        let writer = Arc::new(Mutex::new(
            StoreWriter::open_with(io, "/store", 4, FsyncPolicy::OnAppend).unwrap(),
        ));
        let tel = Telemetry::enabled();
        let resp = response(1, 0, 1);
        for i in 0..12u64 {
            persist_record(
                &writer,
                &tel,
                audit_record(AccountId(i), i as f64, "completed", i, &resp),
            );
        }
        let health = writer_health(&writer);
        assert!(health.degraded);
        assert_eq!(health.dropped_rows, 12);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("store.rows_appended", &[]), None);
        let errors = snap.counter("store.append_errors", &[]).unwrap();
        let dropped = snap.counter("store.rows_dropped", &[]).unwrap();
        assert_eq!(errors + dropped, 12);
        assert!(dropped >= 1, "degraded appends must be counted as drops");
        assert_eq!(snap.gauge("store.degraded", &[]), Some(1.0));
        assert_eq!(snap.gauge("store.dropped_rows", &[]), Some(12.0));
    }

    #[test]
    fn open_shared_uses_default_threshold() {
        let dir =
            std::env::temp_dir().join(format!("fakeaudit-persist-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = open_shared(&dir).unwrap();
        assert_eq!(writer_health(&writer).buffered_rows, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

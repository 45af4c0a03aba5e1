//! Serving metrics: per-session and engine-aggregate counters exposed by
//! [`ServeEngine`](crate::ServeEngine).
//!
//! Every field is documented in `docs/SERVING.md` (the operations guide's
//! metrics reference). Rates are derived from two clocks the engine keeps:
//!
//! * **busy time** — wall time a worker actually spent inside one session's
//!   pump quantum (pose/event ingestion, voting, polling); summed per
//!   session,
//! * **pump wall time** — wall time of whole [`pump`](crate::ServeEngine::pump)
//!   rounds, the engine-level denominator for aggregate throughput.

use crate::SessionId;

/// Lifecycle state of one admitted session, as reported by
/// [`ServeEngine::status`](crate::ServeEngine::status) and
/// [`SessionMetrics::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionStatus {
    /// Accepting input; pump rounds make progress whenever input is queued.
    Active,
    /// [`close`](crate::ServeEngine::close)d: no further events are
    /// accepted, the remaining queue is being drained toward the final
    /// flush.
    Draining,
    /// Finished: the terminal [`SessionOutput`](eventor_core::SessionOutput)
    /// is stashed (or was already taken) and the session consumed.
    Finished,
    /// The last pump round recorded an error for this session (see
    /// [`ServeEngine::last_error`](crate::ServeEngine::last_error)). The
    /// session itself is intact and recovers as soon as the cause is fixed —
    /// e.g. the missing poses arrive or the caller
    /// [`discard_pending`](crate::ServeEngine::discard_pending)s.
    Failed,
}

/// A point-in-time snapshot of one session's serving counters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SessionMetrics {
    /// The session this snapshot describes.
    pub session: SessionId,
    /// Short identifier of the session's execution backend (`"software"`,
    /// `"sharded"`, `"cosim"`, …).
    pub backend: &'static str,
    /// Lifecycle state at snapshot time.
    pub status: SessionStatus,
    /// Events currently waiting in the ingest queue.
    pub queue_depth: usize,
    /// Pose samples currently waiting in the ingest queue.
    pub queued_poses: usize,
    /// Capacity of the ingest queue's event lane.
    pub queue_capacity: usize,
    /// Events accepted into the ingest queue so far (including ones since
    /// ingested).
    pub events_enqueued: u64,
    /// Events moved from the ingest queue into the session so far.
    pub events_ingested: u64,
    /// Events the session's datapath has fully processed (voted) so far.
    pub events_processed: u64,
    /// Key frames retired so far. One semi-dense depth map is produced per
    /// key frame, so this doubles as the depth-map count.
    pub depth_maps: usize,
    /// Wall time workers spent executing this session's pump quanta, in
    /// seconds.
    pub busy_seconds: f64,
    /// `events_processed / busy_seconds` (0 while no time was spent).
    pub events_per_second: f64,
    /// `depth_maps / busy_seconds` (0 while no time was spent).
    pub depth_maps_per_second: f64,
    /// Whether the last pump round could not move a single queued event into
    /// the session (it is waiting on poses or on its own pending buffer).
    pub stalled: bool,
}

/// A point-in-time snapshot of the whole engine's serving counters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeMetrics {
    /// Sessions ever admitted.
    pub sessions: usize,
    /// Sessions currently [`SessionStatus::Active`].
    pub active: usize,
    /// Sessions currently [`SessionStatus::Draining`].
    pub draining: usize,
    /// Sessions that finished (terminal output produced).
    pub finished: usize,
    /// Sessions currently [`SessionStatus::Failed`].
    pub failed: usize,
    /// Size of the worker pool.
    pub workers: usize,
    /// Total events waiting across every ingest queue.
    pub queue_depth: usize,
    /// Total events accepted into ingest queues.
    pub events_enqueued: u64,
    /// Total events moved from ingest queues into sessions.
    pub events_ingested: u64,
    /// Total events fully processed across all sessions.
    pub events_processed: u64,
    /// Total key frames (= depth maps) retired across all sessions.
    pub depth_maps: usize,
    /// Completed [`pump`](crate::ServeEngine::pump) rounds.
    pub pump_rounds: u64,
    /// Sum of per-session busy time, in seconds.
    pub busy_seconds: f64,
    /// Wall time spent inside `pump` calls, in seconds.
    pub wall_seconds: f64,
    /// Aggregate throughput: `events_processed / wall_seconds` (0 while no
    /// pump ran).
    pub events_per_second: f64,
    /// Aggregate `depth_maps / wall_seconds` (0 while no pump ran).
    pub depth_maps_per_second: f64,
    /// Worker-pool utilisation: `busy_seconds / (wall_seconds × workers)`,
    /// in `[0, 1]`. Low values mean the pool is starved (too few runnable
    /// sessions per round) or dominated by coordination overhead.
    pub utilization: f64,
}

impl ServeMetrics {
    /// Sessions currently holding engine resources: active, draining, or
    /// failed-but-recoverable. This is the population an admission
    /// controller budgets against — finished sessions have released their
    /// queues and cost nothing.
    pub fn live_sessions(&self) -> usize {
        self.active + self.draining + self.failed
    }
}

/// A point-in-time snapshot of the whole serving tier: the aggregate
/// counters plus one [`SessionMetrics`] per admitted session, in admission
/// order.
///
/// This is the **one** metrics surface remote readers consume: local
/// `poll_serve` consumers and the `eventor-wire/1` metrics frame both render
/// it through [`MetricsSnapshot::to_json`], so the two views can never
/// drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Engine-aggregate counters.
    pub aggregate: ServeMetrics,
    /// Per-session counters, in admission order.
    pub sessions: Vec<SessionMetrics>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as the **`eventor-metrics/1`** JSON document.
    ///
    /// The rendering is byte-reproducible: the same snapshot always
    /// serializes to the same bytes on every host — keys in a fixed order,
    /// floats printed with a fixed `{:.6}` precision, no timestamps, no
    /// hostnames, no hash-map iteration order. The exact format is pinned by
    /// `pinned_metrics_json_format` below; changing it is a format bump.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let a = &self.aggregate;
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"format\": \"eventor-metrics/1\",");
        let _ = writeln!(s, "  \"aggregate\": {{");
        let _ = writeln!(s, "    \"sessions\": {},", a.sessions);
        let _ = writeln!(s, "    \"active\": {},", a.active);
        let _ = writeln!(s, "    \"draining\": {},", a.draining);
        let _ = writeln!(s, "    \"finished\": {},", a.finished);
        let _ = writeln!(s, "    \"failed\": {},", a.failed);
        let _ = writeln!(s, "    \"workers\": {},", a.workers);
        let _ = writeln!(s, "    \"queue_depth\": {},", a.queue_depth);
        let _ = writeln!(s, "    \"events_enqueued\": {},", a.events_enqueued);
        let _ = writeln!(s, "    \"events_ingested\": {},", a.events_ingested);
        let _ = writeln!(s, "    \"events_processed\": {},", a.events_processed);
        let _ = writeln!(s, "    \"depth_maps\": {},", a.depth_maps);
        let _ = writeln!(s, "    \"pump_rounds\": {},", a.pump_rounds);
        let _ = writeln!(s, "    \"busy_seconds\": {:.6},", a.busy_seconds);
        let _ = writeln!(s, "    \"wall_seconds\": {:.6},", a.wall_seconds);
        let _ = writeln!(s, "    \"events_per_second\": {:.6},", a.events_per_second);
        let _ = writeln!(
            s,
            "    \"depth_maps_per_second\": {:.6},",
            a.depth_maps_per_second
        );
        let _ = writeln!(s, "    \"utilization\": {:.6}", a.utilization);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"sessions\": [");
        for (i, m) in self.sessions.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"session\": {},", m.session.index());
            let _ = writeln!(s, "      \"backend\": \"{}\",", m.backend);
            let _ = writeln!(s, "      \"status\": \"{}\",", m.status.name());
            let _ = writeln!(s, "      \"queue_depth\": {},", m.queue_depth);
            let _ = writeln!(s, "      \"queued_poses\": {},", m.queued_poses);
            let _ = writeln!(s, "      \"queue_capacity\": {},", m.queue_capacity);
            let _ = writeln!(s, "      \"events_enqueued\": {},", m.events_enqueued);
            let _ = writeln!(s, "      \"events_ingested\": {},", m.events_ingested);
            let _ = writeln!(s, "      \"events_processed\": {},", m.events_processed);
            let _ = writeln!(s, "      \"depth_maps\": {},", m.depth_maps);
            let _ = writeln!(s, "      \"busy_seconds\": {:.6},", m.busy_seconds);
            let _ = writeln!(
                s,
                "      \"events_per_second\": {:.6},",
                m.events_per_second
            );
            let _ = writeln!(
                s,
                "      \"depth_maps_per_second\": {:.6},",
                m.depth_maps_per_second
            );
            let _ = writeln!(s, "      \"stalled\": {}", m.stalled);
            let comma = if i + 1 < self.sessions.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{comma}");
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
    }
}

impl SessionStatus {
    /// Stable lower-case name used by the `eventor-metrics/1` JSON document.
    pub fn name(self) -> &'static str {
        match self {
            Self::Active => "active",
            Self::Draining => "draining",
            Self::Finished => "finished",
            Self::Failed => "failed",
        }
    }
}

/// `numerator / seconds`, defined as 0 when no time has been observed.
pub(crate) fn per_second(numerator: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        numerator / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_second_handles_zero_time() {
        assert_eq!(per_second(100.0, 0.0), 0.0);
        assert_eq!(per_second(100.0, 2.0), 50.0);
    }

    /// Pins the exact bytes of the `eventor-metrics/1` JSON document. Any
    /// change to this output is a format bump for every remote reader — the
    /// wire metrics frame and `poll_serve` dashboards alike — so the test
    /// compares the full rendering, not just the fields.
    #[test]
    fn pinned_metrics_json_format() {
        let snapshot = MetricsSnapshot {
            aggregate: ServeMetrics {
                sessions: 2,
                active: 1,
                draining: 0,
                finished: 1,
                failed: 0,
                workers: 4,
                queue_depth: 17,
                events_enqueued: 5000,
                events_ingested: 4983,
                events_processed: 4900,
                depth_maps: 3,
                pump_rounds: 42,
                busy_seconds: 0.125,
                wall_seconds: 0.25,
                events_per_second: 19600.0,
                depth_maps_per_second: 12.0,
                utilization: 0.125,
            },
            sessions: vec![
                SessionMetrics {
                    session: SessionId(0),
                    backend: "software",
                    status: SessionStatus::Finished,
                    queue_depth: 0,
                    queued_poses: 0,
                    queue_capacity: 65536,
                    events_enqueued: 2500,
                    events_ingested: 2500,
                    events_processed: 2500,
                    depth_maps: 2,
                    busy_seconds: 0.0625,
                    events_per_second: 40000.0,
                    depth_maps_per_second: 32.0,
                    stalled: false,
                },
                SessionMetrics {
                    session: SessionId(1),
                    backend: "sharded",
                    status: SessionStatus::Active,
                    queue_depth: 17,
                    queued_poses: 2,
                    queue_capacity: 65536,
                    events_enqueued: 2500,
                    events_ingested: 2483,
                    events_processed: 2400,
                    depth_maps: 1,
                    busy_seconds: 0.0625,
                    events_per_second: 38400.0,
                    depth_maps_per_second: 16.0,
                    stalled: true,
                },
            ],
        };
        let expected = "{\n\
            \x20 \"format\": \"eventor-metrics/1\",\n\
            \x20 \"aggregate\": {\n\
            \x20   \"sessions\": 2,\n\
            \x20   \"active\": 1,\n\
            \x20   \"draining\": 0,\n\
            \x20   \"finished\": 1,\n\
            \x20   \"failed\": 0,\n\
            \x20   \"workers\": 4,\n\
            \x20   \"queue_depth\": 17,\n\
            \x20   \"events_enqueued\": 5000,\n\
            \x20   \"events_ingested\": 4983,\n\
            \x20   \"events_processed\": 4900,\n\
            \x20   \"depth_maps\": 3,\n\
            \x20   \"pump_rounds\": 42,\n\
            \x20   \"busy_seconds\": 0.125000,\n\
            \x20   \"wall_seconds\": 0.250000,\n\
            \x20   \"events_per_second\": 19600.000000,\n\
            \x20   \"depth_maps_per_second\": 12.000000,\n\
            \x20   \"utilization\": 0.125000\n\
            \x20 },\n\
            \x20 \"sessions\": [\n\
            \x20   {\n\
            \x20     \"session\": 0,\n\
            \x20     \"backend\": \"software\",\n\
            \x20     \"status\": \"finished\",\n\
            \x20     \"queue_depth\": 0,\n\
            \x20     \"queued_poses\": 0,\n\
            \x20     \"queue_capacity\": 65536,\n\
            \x20     \"events_enqueued\": 2500,\n\
            \x20     \"events_ingested\": 2500,\n\
            \x20     \"events_processed\": 2500,\n\
            \x20     \"depth_maps\": 2,\n\
            \x20     \"busy_seconds\": 0.062500,\n\
            \x20     \"events_per_second\": 40000.000000,\n\
            \x20     \"depth_maps_per_second\": 32.000000,\n\
            \x20     \"stalled\": false\n\
            \x20   },\n\
            \x20   {\n\
            \x20     \"session\": 1,\n\
            \x20     \"backend\": \"sharded\",\n\
            \x20     \"status\": \"active\",\n\
            \x20     \"queue_depth\": 17,\n\
            \x20     \"queued_poses\": 2,\n\
            \x20     \"queue_capacity\": 65536,\n\
            \x20     \"events_enqueued\": 2500,\n\
            \x20     \"events_ingested\": 2483,\n\
            \x20     \"events_processed\": 2400,\n\
            \x20     \"depth_maps\": 1,\n\
            \x20     \"busy_seconds\": 0.062500,\n\
            \x20     \"events_per_second\": 38400.000000,\n\
            \x20     \"depth_maps_per_second\": 16.000000,\n\
            \x20     \"stalled\": true\n\
            \x20   }\n\
            \x20 ]\n\
            }\n";
        assert_eq!(snapshot.to_json(), expected);
    }

    #[test]
    fn snapshot_json_is_reproducible_and_empty_sessions_render() {
        let snapshot = MetricsSnapshot {
            aggregate: ServeMetrics {
                sessions: 0,
                active: 0,
                draining: 0,
                finished: 0,
                failed: 0,
                workers: 1,
                queue_depth: 0,
                events_enqueued: 0,
                events_ingested: 0,
                events_processed: 0,
                depth_maps: 0,
                pump_rounds: 0,
                busy_seconds: 0.0,
                wall_seconds: 0.0,
                events_per_second: 0.0,
                depth_maps_per_second: 0.0,
                utilization: 0.0,
            },
            sessions: Vec::new(),
        };
        let a = snapshot.to_json();
        let b = snapshot.clone().to_json();
        assert_eq!(a, b, "same snapshot, same bytes");
        assert!(a.contains("\"sessions\": [\n  ]"), "empty array renders");
        assert!(a.ends_with("}\n"));
    }
}

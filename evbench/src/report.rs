//! The metric tables and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a test
//! holds the two in step.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run of every workload.
/// Times are CPU times; the wall-clock latencies go to the context line
/// (see [`Outcome::note_latencies`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fixed.project_ns_per_event", "ns"),
    ("fixed.transfer_ns_per_vote", "ns"),
    ("dsi.vote_batch_ns_per_vote", "ns"),
    ("dsi.hit_frac", "ratio"),
    ("core.vote_frame_us.p50", "us"),
    ("core.vote_frame_us.p99", "us"),
    ("core.retire_ms.mean", "ms"),
    ("core.retire_ms.p99", "ms"),
    ("core.self_us_per_frame", "us"),
    ("core.frames", "count"),
    ("core.keyframes", "count"),
    ("emvs.self_us_per_frame", "us"),
    ("emvs.distortion_us_per_frame", "us"),
    ("emvs.canonical_us_per_frame", "us"),
    ("emvs.detection_ms_per_keyframe", "ms"),
    ("emvs.vote_fused_us_per_frame", "us"),
    ("hwsim.host_us_per_frame", "us"),
    ("hwsim.sim_us_per_frame", "us"),
    ("hwsim.sim_votes_applied", "count"),
    ("serve.pump_rounds", "count"),
    ("serve.utilization", "ratio"),
    ("serve.busy_s", "s"),
    ("serve.pump_wall_s", "s"),
    ("serve.pump_ms.p99", "ms"),
    ("net.events_ack_us.p50", "us"),
    ("net.events_ack_us.p99", "us"),
    ("net.poll_us.p99", "us"),
    ("net.admit_ms.p99", "ms"),
    ("net.finish_ms.p99", "ms"),
    ("net.credit_stalls", "count"),
    ("ladder.wire_closed_events_per_s", "1/s"),
    ("ladder.serve_events_per_s", "1/s"),
    ("ladder.session_events_per_s", "1/s"),
    ("ladder.wire_over_serve", "ratio"),
    ("ladder.serve_over_session", "ratio"),
    ("bench.lag_ms.p99", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when an exact count drifted or a committed digest disagreed:
    /// the run is wrong even if every op succeeded.
    pub inexact: bool,
    pub values: BTreeMap<&'static str, f64>,
    /// Extra host and sample context, rendered as JSON values.
    pub context: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.context.insert(key, value.to_string());
    }

    pub fn note_str(&mut self, key: &'static str, value: &str) {
        self.context.insert(key, format!("\"{value}\""));
    }

    /// Notes the wall-clock latencies as a user sees them: push + poll (or
    /// `Events` + `Poll`) per packet, and depth-map latency per key frame.
    /// They go to the context line, because host stalls move them by more
    /// than any gate's bound.
    pub fn note_latencies(&mut self, frame_us: &[f64], depth_ms: &[f64]) {
        let frame_tail = stats::tail(frame_us, 0.99);
        let depth_tail = stats::tail(depth_ms, 0.99);
        self.note("frame_p50_us", stats::median(frame_us));
        self.note("frame_p99_us", frame_tail.value);
        self.note("frame_samples", frame_tail.samples);
        self.note("frame_tail_quantile", frame_tail.quantile);
        self.note("depth_map_p50_ms", stats::median(depth_ms));
        self.note("depth_map_p99_ms", depth_tail.value);
        self.note("depth_map_samples", depth_tail.samples);
        self.note("depth_map_tail_quantile", depth_tail.quantile);
    }

    /// Records a failure with its reason on standard error.
    pub fn fail(&mut self, ops: u64, reason: impl std::fmt::Display) {
        eprintln!("evbench: failure: {reason}");
        self.failed += ops;
    }

    /// Records a drift of an exact count or digest.
    pub fn drift(&mut self, reason: impl std::fmt::Display) {
        eprintln!("evbench: drift: {reason}");
        self.inexact = true;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.inexact && self.attempted > 0
    }

    /// The context line (one JSON object).
    pub fn context_line(&self) -> String {
        let body: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"context\": {{{}}}}}", body.join(", "))
    }

    /// The result line: every metric of `table`. An end-to-end metric the
    /// run did not produce is an error; an idle layer reads 0.
    pub fn result_line(
        &self,
        table: &[(&str, &str)],
        missing_is_error: bool,
    ) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if missing_is_error => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared_names = declared.matches("\"unit\":").count();
        assert_eq!(declared_names, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.put(name, 1.5);
        }
        let line = o.result_line(END_TO_END, true).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.values.remove("setup_s");
        assert!(o.result_line(END_TO_END, true).is_err());
        assert!(o.result_line(PER_LAYER, false).is_ok());
    }
}

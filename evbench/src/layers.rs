//! Per-layer figures shared by the workloads: the backend layers (kernel,
//! DSI, backend frame) from the probe's spans and counts, and the session
//! layer from the program's own stage timers.

use crate::feed::Fed;
use crate::probe::ProbeCounts;
use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use eventor_emvs::{Stage, StageProfile};
use std::time::Duration;

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The backend and session layers of streams fed under the probe. Each
/// entry is a stream's name, its feed under `tracer` and its feed under
/// `kernel` with the kernel/DSI replay; `profile` holds the session stage
/// timers to report. Checks that the probe saw exactly the frames and key
/// frames each session counted, writes both tracers' spans (the first with
/// `suffix`), and returns the probe's frame and key-frame totals.
pub fn put_probed(
    outcome: &mut Outcome,
    runs: &[(&str, &Fed, &Fed)],
    (tracer, kernel): (&Tracer, &Tracer),
    suffix: &str,
    profile: &StageProfile,
) -> (u64, u64) {
    let mut core = ProbeCounts::default();
    let mut replay = ProbeCounts::default();
    let mut detection = Duration::ZERO;
    for &(name, probed, replayed) in runs {
        for fed in [probed, replayed] {
            let own = (fed.profile.frames_processed, fed.profile.keyframes);
            let seen = (fed.probe.frames, fed.probe.keyframes);
            if seen != own {
                outcome.drift(format!(
                    "{name}: probe counted {seen:?} frames/key frames, the session {own:?}"
                ));
            }
        }
        core.add(&probed.probe);
        replay.add(&replayed.probe);
        detection += probed.profile.stage_time(Stage::Detection);
    }
    let spans = tracer.spans();
    crate::write_trace(tracer, suffix, outcome);
    crate::write_trace(kernel, "-replay", outcome);
    put_backend(
        outcome,
        (&spans, &core),
        (&kernel.spans(), &replay),
        detection,
    );
    put_profile(outcome, profile);
    outcome.put(
        "emvs.self_us_per_frame",
        per(
            trace::self_ns(&spans, "emvs.push_poll") as f64 / 1e3,
            core.frames,
        ),
    );
    (core.frames, core.keyframes)
}

/// Kernel, DSI and backend-frame figures. `core` holds the probe's spans
/// and counts of a pass without replay; `kernel` those of a pass with the
/// kernel/DSI replay, so the replay never perturbs the backend timings.
/// `detection` is the structure-detection time the backends reported in
/// the `core` pass: retire work the backend layer does not own.
fn put_backend(
    outcome: &mut Outcome,
    core: (&[Span], &ProbeCounts),
    kernel: (&[Span], &ProbeCounts),
    detection: Duration,
) {
    let (core_spans, frames) = (core.0, core.1);
    let (kernel_spans, counts) = (kernel.0, kernel.1);
    let project = trace::total_ns(kernel_spans, "fixed.project_z0") as f64;
    let transfer = trace::total_ns(kernel_spans, "fixed.transfer_nearest") as f64;
    let vote_batch = trace::total_ns(kernel_spans, "dsi.vote_batch") as f64;
    outcome.put("fixed.project_ns_per_event", per(project, counts.events));
    outcome.put("fixed.transfer_ns_per_vote", per(transfer, counts.hits));
    outcome.put(
        "dsi.vote_batch_ns_per_vote",
        per(vote_batch, counts.batch_votes),
    );
    outcome.put("dsi.hit_frac", per(counts.hits as f64, counts.attempts));

    let vote_frame_us: Vec<f64> = trace::durations_ns(core_spans, "core.vote_frame")
        .into_iter()
        .map(|ns| ns / 1e3)
        .collect();
    let retire_ms: Vec<f64> = trace::durations_ns(core_spans, "core.retire")
        .into_iter()
        .map(|ns| ns / 1e6)
        .collect();
    outcome.put("core.vote_frame_us.p50", stats::median(&vote_frame_us));
    outcome.put(
        "core.vote_frame_us.p99",
        stats::tail(&vote_frame_us, 0.99).value,
    );
    outcome.put("core.retire_ms.mean", stats::mean(&retire_ms));
    outcome.put("core.retire_ms.p99", stats::tail(&retire_ms, 0.99).value);
    // Backend self time per frame: everything the backend spends beyond the
    // kernel and DSI vote (replayed, per frame) and structure detection
    // (its own timer) — distortion correction, transport encoding,
    // buffering, shard spawn and reduction, DSI reset.
    let backend_us = (trace::total_ns(core_spans, "core.vote_frame")
        + trace::total_ns(core_spans, "core.retire")) as f64
        / 1e3;
    let own_us = per(backend_us - detection.as_secs_f64() * 1e6, frames.frames)
        - per((project + vote_batch) / 1e3, counts.frames);
    outcome.put("core.self_us_per_frame", own_us.max(0.0));
    outcome.put("core.frames", frames.frames as f64);
    outcome.put("core.keyframes", frames.keyframes as f64);
}

/// The session layer's own stage timers (`EventorSession::profile`).
/// Proportional projection, vote generation and DSI voting are one fused
/// loop in every backend, so only their sum is reported.
fn put_profile(outcome: &mut Outcome, profile: &StageProfile) {
    let us = |stage: Stage| profile.stage_time(stage).as_secs_f64() * 1e6;
    let frames = profile.frames_processed;
    outcome.put(
        "emvs.distortion_us_per_frame",
        per(us(Stage::DistortionCorrection), frames),
    );
    outcome.put(
        "emvs.canonical_us_per_frame",
        per(us(Stage::CanonicalProjection), frames),
    );
    outcome.put(
        "emvs.detection_ms_per_keyframe",
        per(us(Stage::Detection) / 1e3, profile.keyframes),
    );
    outcome.put(
        "emvs.vote_fused_us_per_frame",
        per(
            us(Stage::ProportionalProjection) + us(Stage::VoteDsi),
            frames,
        ),
    );
}

/// The stage-wise sum of several sessions' profiles.
pub fn sum_profiles<'a>(profiles: impl Iterator<Item = &'a StageProfile>) -> StageProfile {
    let mut sum = StageProfile::new();
    for p in profiles {
        for stage in Stage::ALL {
            sum.add(stage, p.stage_time(stage));
        }
        sum.events_processed += p.events_processed;
        sum.frames_processed += p.frames_processed;
        sum.keyframes += p.keyframes;
    }
    sum
}

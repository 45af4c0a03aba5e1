//! Closed-loop feeding of one in-process session: push + poll per packet,
//! then finish, with every call timed and (when tracing) recorded as a
//! span that the probe's backend spans hang under.

use crate::engine::Engine;
use crate::probe::ProbeCounts;
use crate::trace::{Tracer, ROOT};
use eventor_core::{CosimReport, SessionEvent};
use eventor_emvs::{EmvsConfig, StageProfile};
use eventor_events::Event;
use eventor_geom::{CameraModel, Trajectory};
use eventor_scenarios::digest_output;
use std::time::{Duration, Instant};

/// One stream: what a session is built from and fed.
#[derive(Debug, Clone, Copy)]
pub struct Stream<'a> {
    pub name: &'a str,
    pub camera: CameraModel,
    pub config: &'a EmvsConfig,
    pub trajectory: &'a Trajectory,
    pub events: &'a [Event],
}

/// What feeding one stream produced.
#[derive(Debug, Default)]
pub struct Fed {
    pub digest: u64,
    pub events: u64,
    pub packets: u64,
    pub failed_packets: u64,
    /// Wall time of each packet's push + poll, µs.
    pub frame_us: Vec<f64>,
    /// Per retired key frame, ms: from the push of the packet that
    /// completed it (the one holding the last event of the frame that
    /// retired it), or from the finish call for the key frame the finish
    /// retires, to the return of the call that reported it.
    pub depth_map_ms: Vec<f64>,
    /// Wall time from building the session to the return of finish.
    pub wall: Duration,
    /// CPU time of the feeding thread over the same span. The `software`
    /// and `cosim` backends do all their work on that thread.
    pub cpu: Duration,
    pub profile: StageProfile,
    pub cosim: Option<CosimReport>,
    /// The probe's counts (traced feeds only).
    pub probe: ProbeCounts,
}

/// Feeds `stream` through a fresh session on `engine` in `packet`-event
/// packets. With an enabled tracer the backend runs under the probe
/// (`replay` adds the kernel/DSI replay). Op ids are `op_base << 32 |
/// packet`.
pub fn feed(
    engine: Engine,
    stream: Stream<'_>,
    packet: usize,
    tracer: &Tracer,
    replay: bool,
    op_base: u64,
) -> Fed {
    let mut fed = Fed::default();
    let begin = Instant::now();
    let begin_cpu = crate::host::thread_cpu();
    let packets: Vec<&[Event]> = stream.events.chunks(packet).collect();
    fed.packets = packets.len() as u64;
    let mut counts = None;
    let built = if tracer.enabled() {
        engine
            .probed_session(stream.camera, stream.config, tracer, replay)
            .map(|(session, c)| {
                counts = Some(c);
                session
            })
    } else {
        engine.session(stream.camera, stream.config)
    };
    let mut session = match built.and_then(|mut s| s.push_trajectory(stream.trajectory).map(|()| s))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("evbench: {}: session set-up failed: {e}", stream.name);
            fed.failed_packets = fed.packets;
            return fed;
        }
    };
    fed.frame_us.reserve(packets.len());
    // When each packet's push started; the last entry is the finish call.
    let mut starts: Vec<Instant> = Vec::with_capacity(packets.len() + 1);
    let mut retired = 0usize;
    let frame = stream.config.events_per_frame;
    let mut on_lifecycle =
        |lifecycle: &[SessionEvent], done: Instant, starts: &[Instant], out: &mut Vec<f64>| {
            for e in lifecycle {
                if let SessionEvent::SegmentRetired { events, .. } = e {
                    retired += events;
                    let completed_by = ((retired + frame - 1) / packet).min(starts.len() - 1);
                    out.push((done - starts[completed_by]).as_secs_f64() * 1e3);
                }
            }
        };
    for (i, events) in packets.iter().enumerate() {
        let op = (op_base << 32) | i as u64;
        let span = tracer.reserve();
        tracer.set_context(span, op);
        let start = Instant::now();
        starts.push(start);
        let result = match session.push_events(events) {
            Ok(n) if n == events.len() => session.poll().map_err(|e| e.to_string()),
            Ok(n) => Err(format!("only {n} of {} events accepted", events.len())),
            Err(e) => Err(e.to_string()),
        };
        let done = Instant::now();
        tracer.record_as(span, "emvs.push_poll", ROOT, op, start, done);
        fed.frame_us.push((done - start).as_secs_f64() * 1e6);
        match result {
            Ok(lifecycle) => on_lifecycle(&lifecycle, done, &starts, &mut fed.depth_map_ms),
            Err(e) => {
                eprintln!("evbench: {}: packet {i} failed: {e}", stream.name);
                fed.failed_packets += 1;
            }
        }
        fed.events += events.len() as u64;
    }
    let op = (op_base << 32) | packets.len() as u64;
    let span = tracer.reserve();
    tracer.set_context(span, op);
    let start = Instant::now();
    starts.push(start);
    let finished = session.finish();
    let done = Instant::now();
    fed.cpu = crate::host::thread_cpu() - begin_cpu;
    tracer.record_as(span, "emvs.finish", ROOT, op, start, done);
    match finished {
        Ok(output) => {
            on_lifecycle(&output.events, done, &starts, &mut fed.depth_map_ms);
            fed.digest = digest_output(&output);
            fed.cosim = output.cosim_report;
            fed.profile = output.output.profile;
        }
        Err(e) => {
            eprintln!("evbench: {}: finish failed: {e}", stream.name);
            fed.failed_packets = fed.packets;
        }
    }
    fed.wall = done - begin;
    if let Some(counts) = counts {
        fed.probe = *counts.lock().expect("probe counts poisoned");
    }
    fed
}

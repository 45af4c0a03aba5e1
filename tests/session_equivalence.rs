//! The acceptance bar of the streaming redesign: for the quantized
//! nearest-voting datapath, `EventorSession` output is **bit-identical** to
//! the batch sequential `reconstruct()` golden path for every backend
//! (software, sharded, cosim) and for arbitrary packet boundaries.

use eventor::core::{
    config_for_sequence, EventorOptions, EventorSession, ParallelConfig, SessionEvent,
    SessionOutput,
};
use eventor::emvs::{EmvsConfig, EmvsError, EmvsOutput};
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use eventor::hwsim::AcceleratorConfig;
use eventor::map::GlobalMapConfig;

fn sequence() -> SyntheticSequence {
    SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())
        .expect("fast_test sequences generate")
}

fn assert_bit_identical(a: &EmvsOutput, b: &EmvsOutput, label: &str) {
    assert_eq!(
        a.keyframes.len(),
        b.keyframes.len(),
        "{label}: keyframe count"
    );
    for (i, (x, y)) in a.keyframes.iter().zip(&b.keyframes).enumerate() {
        assert_eq!(x.votes_cast, y.votes_cast, "{label} keyframe {i}: votes");
        assert_eq!(x.frames_used, y.frames_used, "{label} keyframe {i}: frames");
        assert_eq!(x.events_used, y.events_used, "{label} keyframe {i}: events");
        assert_eq!(
            x.depth_map.depth_data(),
            y.depth_map.depth_data(),
            "{label} keyframe {i}: depth map"
        );
    }
    assert_eq!(
        a.global_map.len(),
        b.global_map.len(),
        "{label}: global map"
    );
    assert_eq!(
        a.profile.events_processed, b.profile.events_processed,
        "{label}: events processed"
    );
}

/// Feeds a session in packets of `packet_size` events, polling after every
/// push, and finishes it.
fn run_session(
    session: EventorSession,
    seq: &SyntheticSequence,
    packet_size: usize,
) -> SessionOutput {
    let mut session = session;
    session
        .push_trajectory(&seq.trajectory)
        .expect("trajectory pushes");
    for packet in seq.events.packets(packet_size) {
        session.push_events(packet).expect("packet pushes");
        session.poll().expect("poll succeeds");
    }
    session.finish().expect("session finishes")
}

#[test]
fn software_session_is_bit_identical_to_batch_for_arbitrary_packets() {
    let seq = sequence();
    let config = config_for_sequence(&seq, 60);
    let batch = EventorSession::builder(seq.camera, config.clone())
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .unwrap()
        .output;
    for packet_size in [7usize, 333, 1024, 4096] {
        let session = EventorSession::builder(seq.camera, config.clone())
            .software(EventorOptions::accelerator())
            .build()
            .unwrap();
        let streamed = run_session(session, &seq, packet_size);
        assert_bit_identical(
            &batch,
            &streamed.output,
            &format!("software, packets of {packet_size}"),
        );
    }
}

#[test]
fn sharded_session_is_bit_identical_to_batch_sequential() {
    let seq = sequence();
    let config = config_for_sequence(&seq, 60);
    let batch = EventorSession::builder(seq.camera, config.clone())
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .unwrap()
        .output;
    for shards in [1usize, 2, 4, 8] {
        let session = EventorSession::builder(seq.camera, config.clone())
            .sharded(
                EventorOptions::accelerator(),
                ParallelConfig::with_shards(shards),
            )
            .build()
            .unwrap();
        let streamed = run_session(session, &seq, 777);
        assert_bit_identical(&batch, &streamed.output, &format!("sharded x{shards}"));
    }
}

#[test]
fn sharded_spill_on_a_giant_keyframe_stays_bit_identical() {
    // A key-frame distance that never triggers a switch: the whole stream is
    // one key frame spanning several vote windows, so both engines must
    // vote buffered windows into the DSI mid-key-frame — and the sharded one
    // stay bit-identical to the sequential software path. ThreePlanes at a
    // finer contrast threshold (230 k events, not 146 k) is long enough for
    // more than two windows.
    let mut dataset = DatasetConfig::fast_test();
    dataset.simulator.contrast_threshold = 0.1;
    let seq = SyntheticSequence::generate(SequenceKind::ThreePlanes, &dataset)
        .expect("fast_test sequences generate");
    let config = config_for_sequence(&seq, 60).with_keyframe_distance(1e9);
    let batch = EventorSession::builder(seq.camera, config.clone())
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .unwrap()
        .output;
    assert_eq!(batch.keyframes.len(), 1);
    // A survivor casts at most one vote per plane, so more votes than this
    // means more than two full windows before the retire.
    let windows = 2 * eventor::core::VOTE_WINDOW_EVENTS * config.num_depth_planes;
    assert!(batch.keyframes[0].votes_cast > windows as u64);
    let session = EventorSession::builder(seq.camera, config)
        .sharded(
            EventorOptions::accelerator(),
            ParallelConfig::with_shards(4),
        )
        .build()
        .unwrap();
    let streamed = run_session(session, &seq, 1024);
    assert_bit_identical(&batch, &streamed.output, "sharded vote windows");
}

#[test]
fn cosim_session_is_bit_identical_to_batch_software() {
    let seq = sequence();
    let config = config_for_sequence(&seq, 60);
    let batch = EventorSession::builder(seq.camera, config.clone())
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .unwrap()
        .output;
    let session = EventorSession::builder(seq.camera, config.clone())
        .cosim(AcceleratorConfig::default())
        .build()
        .unwrap();
    let streamed = run_session(session, &seq, 500);
    assert_bit_identical(&batch, &streamed.output, "cosim session");
    let report = streamed.cosim_report.expect("cosim backend reports");
    assert_eq!(report.events_in, batch.profile.events_processed);
    assert!(report.accelerator_seconds > 0.0);

    // And the streaming cosim agrees with the batch cosim reconstruction.
    let hw = EventorSession::builder(seq.camera, config)
        .cosim(AcceleratorConfig::default())
        .reconstruct(&seq.events, &seq.trajectory)
        .unwrap()
        .output;
    assert_bit_identical(&hw, &streamed.output, "cosim batch vs stream");
}

#[test]
fn interleaved_pose_and_event_pushes_match_batch() {
    // Feed the session the way an online producer would: a few poses, a few
    // packets, repeat — with a tight in-flight bound forcing backpressure
    // handling along the way.
    let seq = sequence();
    let config = config_for_sequence(&seq, 60);
    let batch = EventorSession::builder(seq.camera, config.clone())
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &seq.trajectory)
        .unwrap()
        .output;

    let mut session = EventorSession::builder(seq.camera, config)
        .software(EventorOptions::accelerator())
        .max_pending_events(4 * 1024)
        .build()
        .unwrap();
    let samples: Vec<_> = seq.trajectory.iter().collect();
    let packets: Vec<&[eventor::events::Event]> = seq.events.packets(1024).collect();
    let mut next_pose = 0usize;
    for (i, packet) in packets.iter().enumerate() {
        // Release poses gradually: keep the trajectory just ahead of the
        // packet's last event when possible.
        let t_needed = packet.last().unwrap().t;
        while next_pose < samples.len() && samples[next_pose].timestamp <= t_needed {
            session
                .push_pose(samples[next_pose].timestamp, samples[next_pose].pose)
                .unwrap();
            next_pose += 1;
        }
        // Short-write semantics: resume from the accepted offset whenever the
        // bounded buffer fills, releasing poses to unblock draining.
        let mut offset = 0usize;
        while offset < packet.len() {
            match session.push_events(&packet[offset..]) {
                Ok(accepted) if accepted > 0 => offset += accepted,
                Ok(_) | Err(EmvsError::Backpressure { .. }) => {
                    // Frames are waiting on poses: release one more sample.
                    assert!(next_pose < samples.len(), "packet {i}: deadlocked");
                    session
                        .push_pose(samples[next_pose].timestamp, samples[next_pose].pose)
                        .unwrap();
                    next_pose += 1;
                    session.poll().unwrap();
                }
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
        session.poll().unwrap();
    }
    while next_pose < samples.len() {
        session
            .push_pose(samples[next_pose].timestamp, samples[next_pose].pose)
            .unwrap();
        next_pose += 1;
    }
    let streamed = session.finish().unwrap();
    assert_bit_identical(&batch, &streamed.output, "interleaved feed");
}

#[test]
fn lifecycle_events_cover_every_keyframe_in_order() {
    let seq = sequence();
    // Force several key frames.
    let config = config_for_sequence(&seq, 50).with_keyframe_distance(0.05);
    let mut session = EventorSession::builder(seq.camera, config)
        .software(EventorOptions::accelerator())
        .fuse_into_map(GlobalMapConfig::default())
        .build()
        .unwrap();
    session.push_trajectory(&seq.trajectory).unwrap();
    let mut events = Vec::new();
    for packet in seq.events.packets(2048) {
        session.push_events(packet).unwrap();
        events.extend(session.poll().unwrap());
    }
    let finished = session.finish().unwrap();
    events.extend(finished.events.iter().cloned());
    let n = finished.output.keyframes.len();
    assert!(n >= 2, "expected several key frames, got {n}");
    // Four events per key frame (fusion enabled), in lifecycle order.
    assert_eq!(events.len(), 4 * n);
    for (i, chunk) in events.chunks(4).enumerate() {
        assert!(matches!(chunk[0], SessionEvent::SegmentRetired { index, .. } if index == i));
        assert!(matches!(chunk[1], SessionEvent::DepthMapReady { index, .. } if index == i));
        assert!(matches!(chunk[2], SessionEvent::KeyframeReady { index, .. } if index == i));
        assert!(matches!(chunk[3], SessionEvent::MapFused { index, .. } if index == i));
    }
    let map = finished.fused_map.expect("fusion enabled");
    assert_eq!(map.num_keyframes(), n);
}

#[test]
fn session_error_contract() {
    let seq = sequence();
    let config = config_for_sequence(&seq, 40);
    // Finishing an empty session reports NoEvents, like the batch paths.
    let session = EventorSession::builder(seq.camera, config.clone())
        .build()
        .unwrap();
    assert!(matches!(session.finish(), Err(EmvsError::NoEvents)));
    // The builder rejects invalid configurations through the shared
    // validation path.
    assert!(matches!(
        EventorSession::builder(
            seq.camera,
            EmvsConfig {
                num_depth_planes: 1,
                ..EmvsConfig::default()
            }
        )
        .build(),
        Err(EmvsError::InvalidConfig { .. })
    ));
}

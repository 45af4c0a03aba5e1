//! Failure-injection and robustness tests: degenerate trajectories, corrupted
//! event streams, malformed accelerator jobs and saturating workloads must
//! degrade gracefully (bounded error, explicit rejection) rather than panic
//! or silently corrupt the reconstruction.

use eventor::core::{config_for_sequence, EventorOptions, EventorSession};
use eventor::dsi::{DepthPlanes, DsiVolume};
use eventor::emvs::{EmvsConfig, EmvsError, SessionEvent};
use eventor::events::{
    DatasetConfig, Event, EventStream, NoiseConfig, NoiseInjector, Polarity, SequenceKind,
    SyntheticSequence,
};
use eventor::fixed::kernel::PhiWords;
use eventor::geom::{CameraModel, Pose, Trajectory, Vec3};
use eventor::hwsim::{AcceleratorConfig, EventorDevice, FrameJob, FrameKind};
use eventor::scenarios::{digest_output, find, Scenario, ScenarioWorld};
use eventor::serve::{ServeConfig, ServeEngine, ServeError};

fn sequence(kind: SequenceKind) -> SyntheticSequence {
    SyntheticSequence::generate(kind, &DatasetConfig::fast_test())
        .expect("fast_test sequences generate")
}

#[test]
fn stationary_trajectory_reconstructs_without_panicking() {
    // With no baseline the depth is unobservable; the pipeline must still run
    // to completion and report a (possibly sparse, inaccurate) key frame
    // rather than crash on the degenerate geometry.
    let seq = sequence(SequenceKind::SliderClose);
    let config = config_for_sequence(&seq, 30);
    let stationary = Trajectory::linear(Pose::identity(), Pose::identity(), 0.0, 10.0, 8);
    let output = EventorSession::builder(seq.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &stationary)
        .expect("must not fail")
        .output;
    assert_eq!(
        output.keyframes.len(),
        1,
        "no key-frame switch without motion"
    );
}

#[test]
fn events_outside_the_trajectory_time_span_are_an_error_not_a_panic() {
    let seq = sequence(SequenceKind::SliderClose);
    let config = config_for_sequence(&seq, 30);
    // A trajectory that ends long before the events do.
    let short = Trajectory::linear(
        Pose::identity(),
        Pose::from_translation(Vec3::new(0.1, 0.0, 0.0)),
        -10.0,
        -9.0,
        4,
    );
    let result = EventorSession::builder(seq.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&seq.events, &short);
    assert!(
        result.is_err(),
        "out-of-span pose lookups must surface as an error"
    );
}

#[test]
fn empty_and_single_event_streams_are_handled() {
    let cam = CameraModel::davis240_ideal();
    let config = EmvsConfig::default();
    let trajectory = Trajectory::linear(
        Pose::identity(),
        Pose::from_translation(Vec3::new(0.1, 0.0, 0.0)),
        0.0,
        1.0,
        4,
    );
    let baseline =
        || EventorSession::builder(cam, config.clone()).software(EventorOptions::exact());
    assert!(matches!(
        baseline().reconstruct(&EventStream::new(), &trajectory),
        Err(EmvsError::NoEvents)
    ));

    // A single event still produces a (nearly empty) reconstruction.
    let one: EventStream = std::iter::once(Event::new(0.5, 120, 90, Polarity::Positive)).collect();
    let output = baseline()
        .reconstruct(&one, &trajectory)
        .expect("single event is fine")
        .output;
    assert_eq!(output.keyframes.len(), 1);
    assert_eq!(output.profile.events_processed, 1);
}

#[test]
fn heavy_sensor_noise_degrades_accuracy_gracefully() {
    let seq = sequence(SequenceKind::SliderClose);
    let config = config_for_sequence(&seq, 50);
    let width = seq.camera.intrinsics.width as u16;
    let height = seq.camera.intrinsics.height as u16;

    let accelerator = || {
        EventorSession::builder(seq.camera, config.clone()).software(EventorOptions::accelerator())
    };
    let clean = accelerator()
        .reconstruct(&seq.events, &seq.trajectory)
        .expect("clean run")
        .output;
    let clean_primary = clean.primary().expect("keyframe");
    let gt = seq.ground_truth_depth_at(&clean_primary.reference_pose);
    let clean_abs_rel = clean_primary
        .depth_map
        .compare_to_ground_truth(gt.as_slice())
        .expect("metrics")
        .abs_rel;

    for noise in [NoiseConfig::moderate(), NoiseConfig::severe()] {
        let injector = NoiseInjector::new(width, height, noise);
        let (noisy_events, report) = injector.corrupt(&seq.events);
        assert!(report.total_events() > 0);
        let noisy = accelerator()
            .reconstruct(&noisy_events, &seq.trajectory)
            .expect("noisy run")
            .output;
        let primary = noisy.primary().expect("keyframe under noise");
        let gt = seq.ground_truth_depth_at(&primary.reference_pose);
        let metrics = primary
            .depth_map
            .compare_to_ground_truth(gt.as_slice())
            .expect("metrics");
        // Noise may cost accuracy but must stay bounded: the ray-density
        // voting washes uncorrelated noise out of the local maxima.
        assert!(
            metrics.abs_rel < clean_abs_rel + 0.25,
            "noise {:?}: AbsRel {:.3} vs clean {:.3}",
            noise,
            metrics.abs_rel,
            clean_abs_rel
        );
    }
}

/// A zeroed `u16` DSI of `width × height × planes` voxels.
fn u16_dsi(width: usize, height: usize, planes: usize) -> DsiVolume<u16> {
    let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, planes).expect("two or more planes");
    DsiVolume::new(width, height, planes).expect("a non-empty sensor")
}

#[test]
fn malformed_accelerator_jobs_are_rejected_with_error_status() {
    let config = AcceleratorConfig::default().with_depth_planes(10);
    let mut device = EventorDevice::new(config.clone());
    let mut dsi = u16_dsi(config.sensor_width, config.sensor_height, 10);
    dsi.vote_at(3, 3, 1);
    let before = dsi.clone();
    let job = |events: usize, planes: usize, kind| FrameJob {
        event_words: vec![0; events],
        homography_words: [0; 9],
        phi_words: vec![PhiWords::default(); planes],
        kind,
    };
    // Plane-count mismatch, and an empty frame; as key frames too, which
    // must not reset the DSI they are refused on.
    for kind in [FrameKind::Normal, FrameKind::Key] {
        assert!(device.run_frame(&job(16, 3, kind), &mut dsi).is_none());
        assert!(device.run_frame(&job(0, 10, kind), &mut dsi).is_none());
    }
    // A DSI whose size differs from the configured one.
    let mut narrow = u16_dsi(config.sensor_width - 1, config.sensor_height, 10);
    let mut shallow = u16_dsi(config.sensor_width, config.sensor_height, 9);
    for other in [&mut narrow, &mut shallow] {
        assert!(device
            .run_frame(&job(16, 10, FrameKind::Key), other)
            .is_none());
        assert_eq!(other.votes_cast(), 0);
    }
    assert_eq!(dsi, before, "a refused job touched the DSI");
}

#[test]
fn dsi_scores_saturate_instead_of_wrapping_under_extreme_load() {
    // Pathological workload: every vote lands on the same voxel, more times
    // than a 16-bit score can hold.
    let mut dsi = u16_dsi(8, 8, 2);
    for _ in 0..(u16::MAX as u32 + 500) {
        dsi.vote_at(3, 3, 1);
    }
    assert_eq!(dsi.score(3, 3, 1), f64::from(u16::MAX));
    assert_eq!(dsi.votes_cast(), u64::from(u16::MAX) + 500);
    assert_eq!(dsi.votes_missed(), 0);
    assert_eq!(dsi.total_score(), f64::from(u16::MAX));
}

/// Builds a fresh software session for `world` (the serve tier accepts any
/// backend; software keeps the test fast).
fn software_session(world: &ScenarioWorld) -> EventorSession {
    EventorSession::builder(world.camera, world.config.clone())
        .software(EventorOptions::accelerator())
        .build()
        .expect("session config is valid")
}

/// Serve-path fault recovery: a session driven into hard backpressure
/// mid-keyframe recovers via `discard_pending`, and the recovered session's
/// output is **bit-identical** to a clean standalone run of the surviving
/// stream (processed prefix + post-recovery suffix). Dropping in-flight
/// input must lose exactly the dropped events — no partial frame, no stale
/// vote, no shifted window may leak across the fault.
#[test]
fn serve_backpressure_recovery_matches_clean_run_of_surviving_stream() {
    let scenario = find("shake_closeup").expect("corpus scenario");
    let world = scenario.build(scenario.default_seed()).expect("world");
    let events = world.events.as_slice();

    // A deliberately tiny queue so the flood below hits zero-accept
    // backpressure long before the stream runs out.
    let mut engine = ServeEngine::new(
        ServeConfig::new()
            .with_workers(1)
            .with_queue_capacity(512)
            .with_quantum_events(256),
    );
    let id = engine.admit(software_session(&world));
    engine
        .enqueue_trajectory(id, &world.trajectory)
        .expect("trajectory enqueues");

    // Phase 1: well-behaved feeding (pump per enqueue) until the session has
    // produced at least one depth map — the fault must land mid-session, not
    // on an idle one.
    let mut cursor = 0usize;
    let mut depth_map_seen = false;
    while !depth_map_seen && cursor < events.len() {
        let end = (cursor + 256).min(events.len());
        match engine.enqueue_events(id, &events[cursor..end]) {
            Ok(accepted) => cursor += accepted,
            Err(ServeError::Session {
                source: EmvsError::Backpressure { .. },
                ..
            }) => {}
            Err(e) => panic!("unexpected serve error while feeding: {e}"),
        }
        engine.pump();
        for event in engine.poll_session(id).expect("session is live") {
            if matches!(event, SessionEvent::DepthMapReady { .. }) {
                depth_map_seen = true;
            }
        }
    }
    assert!(depth_map_seen, "stream too short to produce a depth map");
    assert!(cursor < events.len(), "stream exhausted before the fault");

    // Phase 2: the consumer stalls (no pumps); flood until the bounded queue
    // rejects input outright.
    let mut backpressured = false;
    while cursor < events.len() {
        let end = (cursor + 512).min(events.len());
        match engine.enqueue_events(id, &events[cursor..end]) {
            Ok(accepted) => cursor += accepted,
            Err(ServeError::Session {
                source: EmvsError::Backpressure { .. },
                ..
            }) => {
                backpressured = true;
                break;
            }
            Err(e) => panic!("unexpected serve error while flooding: {e}"),
        }
    }
    assert!(backpressured, "bounded queue never pushed back");

    // Recovery: drop everything in flight and resume with the remainder.
    let dropped = engine
        .discard_pending(id)
        .expect("discard clears the fault");
    assert!(dropped > 0, "backpressure with an empty queue is a bug");
    assert!(dropped <= cursor, "cannot drop more than was accepted");
    let processed = cursor - dropped;
    let resume_from = cursor;
    while cursor < events.len() {
        let end = (cursor + 256).min(events.len());
        match engine.enqueue_events(id, &events[cursor..end]) {
            Ok(accepted) => cursor += accepted,
            Err(ServeError::Session {
                source: EmvsError::Backpressure { .. },
                ..
            }) => {
                engine.pump();
            }
            Err(e) => panic!("unexpected serve error after recovery: {e}"),
        }
    }
    let recovered = engine
        .finish_session(id)
        .expect("recovered session finishes");

    // The surviving stream: what the session actually ingested before the
    // fault, plus everything fed after recovery.
    let surviving: EventStream = events[..processed]
        .iter()
        .chain(events[resume_from..].iter())
        .copied()
        .collect();
    assert_eq!(surviving.len(), events.len() - dropped);

    let mut clean = software_session(&world);
    clean
        .push_trajectory(&world.trajectory)
        .expect("trajectory pushes");
    let stream = surviving.as_slice();
    let mut offset = 0usize;
    while offset < stream.len() {
        offset += clean.push_events(&stream[offset..]).expect("clean push");
        clean.poll().expect("clean poll");
    }
    let clean_output = clean.finish().expect("clean run finishes");

    assert_eq!(
        digest_output(&recovered),
        digest_output(&clean_output),
        "recovered session must be bit-identical to a clean run of the surviving stream"
    );
}

#[test]
fn cosim_survives_a_noisy_stream_and_stays_consistent_with_software() {
    // Even under sensor noise the device and the software pipeline must stay
    // bit-identical — noise changes the input, not the arithmetic.
    let seq = sequence(SequenceKind::SliderFar);
    let config = config_for_sequence(&seq, 40);
    let width = seq.camera.intrinsics.width as u16;
    let height = seq.camera.intrinsics.height as u16;
    let (noisy, _) =
        NoiseInjector::new(width, height, NoiseConfig::moderate()).corrupt(&seq.events);

    let builder = || EventorSession::builder(seq.camera, config.clone());
    let sw = builder()
        .software(EventorOptions::accelerator())
        .reconstruct(&noisy, &seq.trajectory)
        .expect("software")
        .output;
    let hw = builder()
        .cosim(AcceleratorConfig::default())
        .reconstruct(&noisy, &seq.trajectory)
        .expect("cosim")
        .output;
    assert_eq!(sw.keyframes.len(), hw.keyframes.len());
    for (s, h) in sw.keyframes.iter().zip(&hw.keyframes) {
        assert_eq!(s.votes_cast, h.votes_cast);
        assert_eq!(s.depth_map.depth_data(), h.depth_map.depth_data());
    }
}

// ---------------------------------------------------------------------------
// Disorderly wire clients (`eventor-net`, docs/WIRE.md): a client that
// vanishes, stalls mid-frame or violates admission must never wedge the
// server or perturb other connections' bits.
// ---------------------------------------------------------------------------

use eventor::net::{
    code, read_frame, spawn_loopback, write_frame, AdmissionConfig, IdleWait, KeepaliveConfig,
    ManifestSource, NetConfig, SessionManifest, WireClient, WireError, WireFrame,
    DEFAULT_MAX_PAYLOAD,
};
use eventor::scenarios::{golden_digest, BackendKind};
use eventor::serve::LoadShape;
use std::time::Duration;

fn corpus_world(name: &str) -> ScenarioWorld {
    let s = find(name).expect("corpus scenario exists");
    s.build(s.default_seed()).expect("corpus world builds")
}

fn scenario_manifest(world: &ScenarioWorld, backend: BackendKind) -> SessionManifest {
    SessionManifest {
        backend,
        source: ManifestSource::Scenario {
            name: world.name.clone(),
            seed: world.seed,
        },
    }
}

#[test]
fn mid_stream_disconnect_aborts_the_session_and_leaves_others_golden() {
    let server = spawn_loopback(NetConfig::new()).expect("server spawns");
    let world = corpus_world("shake_closeup");

    // Client A: admit, stream a fragment, then vanish without Bye (the drop
    // closes the socket with the session unfinished).
    {
        let mut rogue = WireClient::connect(server.addr()).expect("rogue connects");
        let id = rogue
            .admit(&scenario_manifest(&world, BackendKind::Software))
            .expect("rogue admission");
        rogue
            .send_trajectory(id, &world.trajectory)
            .expect("rogue poses");
        rogue
            .send_events(id, &world.events.as_slice()[..512])
            .expect("rogue events");
    }

    // Client B: a full serve of the same world must still be bit-golden,
    // and the abort of A's session must surface in the metrics document.
    let mut client = WireClient::connect(server.addr()).expect("client connects");
    let id = client
        .admit(&scenario_manifest(&world, BackendKind::Software))
        .expect("admission");
    let report = client
        .drive(
            id,
            &world.trajectory,
            world.events.as_slice(),
            LoadShape::Steady { chunk: 2048 },
        )
        .expect("drive");
    assert_eq!(
        report.digest,
        golden_digest(&world.name).expect("golden"),
        "a disorderly neighbour must not perturb another connection's bits"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let json = client.metrics().expect("metrics");
        if json.contains("\"status\": \"failed\"") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the aborted session never surfaced as failed in metrics: {json}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn half_written_frame_then_hang_times_out_with_a_typed_error() {
    // A short server-side read timeout turns a mid-frame stall into a typed
    // protocol failure instead of a wedged connection thread.
    let server = spawn_loopback(NetConfig::new().with_read_timeout(Duration::from_millis(200)))
        .expect("server spawns");

    let mut stalled = std::net::TcpStream::connect(server.addr()).expect("connects");
    write_frame(&mut stalled, 0, &WireFrame::Hello).expect("hello");
    let (_, reply) = read_frame(
        &mut stalled,
        DEFAULT_MAX_PAYLOAD,
        Duration::from_secs(10),
        IdleWait::Timeout(Duration::from_secs(10)),
        &|| false,
    )
    .expect("hello reply");
    assert!(matches!(reply, WireFrame::HelloOk { .. }));

    // Ten bytes of a frame header, then silence.
    use std::io::Write;
    let frame = eventor::net::encode_frame(0, &WireFrame::Poll);
    stalled.write_all(&frame[..10]).expect("half header");
    stalled.flush().expect("flush");

    // The server must give up on its own (~200 ms), send the typed Error
    // frame and close; it must NOT wait for the client to act.
    let (_, reply) = read_frame(
        &mut stalled,
        DEFAULT_MAX_PAYLOAD,
        Duration::from_secs(10),
        IdleWait::Timeout(Duration::from_secs(10)),
        &|| false,
    )
    .expect("typed goodbye before our own timeout");
    match reply {
        WireFrame::Error { code: c, reason } => {
            assert_eq!(c, code::PROTOCOL);
            assert!(reason.contains("mid-frame"), "reason: {reason}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }

    // The server is still healthy for a well-behaved session afterwards.
    let world = corpus_world("orbit_burst");
    let mut client = WireClient::connect(server.addr()).expect("client connects");
    let id = client
        .admit(&scenario_manifest(&world, BackendKind::Sharded))
        .expect("admission");
    let report = client
        .drive(
            id,
            &world.trajectory,
            world.events.as_slice(),
            LoadShape::Bursty {
                burst: 1536,
                idle_pumps: 2,
            },
        )
        .expect("drive");
    assert_eq!(report.digest, golden_digest(&world.name).expect("golden"));
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn duplicate_admission_is_rejected_and_the_connection_stays_usable() {
    let server = spawn_loopback(NetConfig::new()).expect("server spawns");
    let world = corpus_world("orbit_burst");

    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connects");
    let mut ask = |session: u64, frame: &WireFrame| -> WireFrame {
        write_frame(&mut stream, session, frame).expect("request");
        let (sid, reply) = read_frame(
            &mut stream,
            DEFAULT_MAX_PAYLOAD,
            Duration::from_secs(10),
            IdleWait::Timeout(Duration::from_secs(10)),
            &|| false,
        )
        .expect("reply");
        assert_eq!(sid, session, "reply must echo the request's session id");
        reply
    };

    assert!(matches!(
        ask(0, &WireFrame::Hello),
        WireFrame::HelloOk { .. }
    ));
    let admit = WireFrame::Admit {
        manifest: scenario_manifest(&world, BackendKind::Software),
    };
    assert!(matches!(ask(5, &admit), WireFrame::Admitted { .. }));

    // The same wire id again: a typed rejection, not a second session.
    match ask(5, &admit) {
        WireFrame::Rejected { code: c, .. } => assert_eq!(c, code::DUPLICATE_SESSION),
        other => panic!("expected Rejected, got {other:?}"),
    }

    // The connection and the original session both survive the rejection.
    assert!(matches!(
        ask(5, &WireFrame::Poll),
        WireFrame::PollDone { .. }
    ));
    assert!(matches!(ask(6, &admit), WireFrame::Admitted { .. }));
    assert!(matches!(ask(0, &WireFrame::Bye), WireFrame::ByeOk));
    server.shutdown();
}

#[test]
fn pongless_idle_peer_is_reaped_while_a_busy_credit_stalled_peer_survives() {
    // Aggressive keepalive so the drill runs in milliseconds: ping after
    // 100 ms idle, reap after 2 unanswered pings.
    let server = spawn_loopback(
        NetConfig::new()
            .with_keepalive(KeepaliveConfig::every(Duration::from_millis(100)).with_max_misses(2)),
    )
    .expect("server spawns");
    let world = corpus_world("shake_closeup");

    // Peer A: handshakes, admits a session, then goes silent and never
    // answers a ping — indistinguishable from a dead host.
    let mut idle = std::net::TcpStream::connect(server.addr()).expect("idle peer connects");
    write_frame(&mut idle, 0, &WireFrame::Hello).expect("hello");
    let read_one = |stream: &mut std::net::TcpStream| {
        read_frame(
            stream,
            DEFAULT_MAX_PAYLOAD,
            Duration::from_secs(10),
            IdleWait::Timeout(Duration::from_secs(10)),
            &|| false,
        )
    };
    assert!(matches!(
        read_one(&mut idle).expect("hello reply").1,
        WireFrame::HelloOk { .. }
    ));
    write_frame(
        &mut idle,
        1,
        &WireFrame::Admit {
            manifest: scenario_manifest(&world, BackendKind::Software),
        },
    )
    .expect("admit request");
    assert!(matches!(
        read_one(&mut idle).expect("admit reply").1,
        WireFrame::Admitted { .. }
    ));

    // Peer B: busy the whole time. Its ingest queue runs dry of credits and
    // it just polls — every poll is inbound traffic, so it is never pinged,
    // let alone reaped.
    let mut busy = WireClient::connect(server.addr()).expect("busy peer connects");
    let busy_id = busy
        .admit(&scenario_manifest(&world, BackendKind::Software))
        .expect("busy admission");
    busy.send_trajectory(busy_id, &world.trajectory)
        .expect("busy poses");
    let events = world.events.as_slice();
    let mut offset = 0usize;
    let horizon = std::time::Instant::now() + Duration::from_millis(800);
    while std::time::Instant::now() < horizon {
        let credits = busy.credits(busy_id) as usize;
        if credits > 0 && offset < events.len() {
            let take = 256.min(events.len() - offset).min(credits);
            offset += busy
                .send_events(busy_id, &events[offset..offset + take])
                .expect("busy events") as usize;
        }
        busy.poll(busy_id).expect("busy poll");
        std::thread::sleep(Duration::from_millis(40));
    }

    // Peer A meanwhile: pings arrived unanswered, then the typed reap
    // notice, then the close.
    let mut pings = 0usize;
    let (reap_code, reap_reason) = loop {
        match read_one(&mut idle).expect("keepalive traffic").1 {
            WireFrame::Ping { .. } => pings += 1,
            WireFrame::Error { code: c, reason } => break (c, reason),
            other => panic!("unexpected frame while idling: {other:?}"),
        }
    };
    assert!(pings >= 2, "reaped after only {pings} pings");
    assert_eq!(reap_code, code::PROTOCOL);
    assert!(
        reap_reason.contains("keepalive"),
        "reap reason must name the keepalive: {reap_reason}"
    );
    match read_one(&mut idle) {
        Err(WireError::ConnectionClosed) | Err(WireError::Io { .. }) => {}
        other => panic!("expected a close after the reap notice, got {other:?}"),
    }

    // The reaped peer's session was aborted (surfaces as failed), while the
    // busy peer's connection still answers a liveness probe and finishes to
    // the golden digest.
    busy.ping().expect("busy peer answers a client-side ping");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let json = busy.metrics().expect("metrics");
        if json.contains("\"status\": \"failed\"") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the reaped peer's session never surfaced as failed: {json}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    while offset < events.len() {
        let credits = busy.credits(busy_id) as usize;
        if credits == 0 {
            busy.poll(busy_id).expect("drain poll");
            continue;
        }
        let take = (events.len() - offset).min(credits);
        offset += busy
            .send_events(busy_id, &events[offset..offset + take])
            .expect("drain events") as usize;
    }
    let report = busy.finish(busy_id).expect("busy finish");
    assert_eq!(
        report.digest,
        golden_digest(&world.name).expect("golden"),
        "a reaped neighbour must not perturb the busy peer's bits"
    );
    busy.bye().expect("bye");
    server.shutdown();
}

#[test]
fn connections_past_the_limit_get_a_typed_overloaded_goodbye() {
    let server = spawn_loopback(NetConfig::new().with_max_conns(2)).expect("server spawns");

    let c1 = WireClient::connect(server.addr()).expect("first connects");
    let c2 = WireClient::connect(server.addr()).expect("second connects");

    // The third connection is refused with a typed OVERLOADED error and a
    // close — never a silent reset, never a hang.
    let mut third = std::net::TcpStream::connect(server.addr()).expect("third connects");
    let (_, reply) = read_frame(
        &mut third,
        DEFAULT_MAX_PAYLOAD,
        Duration::from_secs(10),
        IdleWait::Timeout(Duration::from_secs(10)),
        &|| false,
    )
    .expect("overload notice");
    match reply {
        WireFrame::Error { code: c, reason } => {
            assert_eq!(c, code::OVERLOADED);
            assert!(
                reason.contains("connection limit"),
                "reason must name the limit: {reason}"
            );
        }
        other => panic!("expected Error(OVERLOADED), got {other:?}"),
    }
    match read_frame(
        &mut third,
        DEFAULT_MAX_PAYLOAD,
        Duration::from_secs(10),
        IdleWait::Timeout(Duration::from_secs(10)),
        &|| false,
    ) {
        Err(WireError::ConnectionClosed) | Err(WireError::Io { .. }) => {}
        other => panic!("expected a close after the overload notice, got {other:?}"),
    }

    // Releasing a slot re-opens admission.
    c2.bye().expect("second bye");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut replacement = loop {
        match WireClient::connect(server.addr()) {
            Ok(client) => break client,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("the freed slot never re-opened: {e:?}"),
        }
    };
    replacement.ping().expect("replacement is live");
    replacement.bye().expect("replacement bye");
    c1.bye().expect("first bye");
    server.shutdown();
}

#[test]
fn admission_past_the_session_cap_is_rejected_typed_and_recovers() {
    let server = spawn_loopback(
        NetConfig::new().with_admission(AdmissionConfig::new().with_max_sessions(1)),
    )
    .expect("server spawns");
    let world = corpus_world("orbit_burst");

    let mut client = WireClient::connect(server.addr()).expect("client connects");
    let first = client
        .admit(&scenario_manifest(&world, BackendKind::Software))
        .expect("first admission fits the cap");

    // A second live session trips the gate: typed OVERLOADED rejection, and
    // the connection plus the first session stay fully usable.
    match client.admit(&scenario_manifest(&world, BackendKind::Software)) {
        Err(WireError::Rejected { code: c, reason }) => {
            assert_eq!(c, code::OVERLOADED);
            assert!(
                reason.contains("admission"),
                "reason must name admission control: {reason}"
            );
        }
        other => panic!("expected Rejected(OVERLOADED), got {other:?}"),
    }
    client.poll(first).expect("first session still serves");

    // Draining the live session re-opens admission — the gate follows the
    // engine's own metrics, not a sticky flag.
    let report = client
        .drive(
            first,
            &world.trajectory,
            world.events.as_slice(),
            LoadShape::Steady { chunk: 2048 },
        )
        .expect("first session finishes");
    assert_eq!(report.digest, golden_digest(&world.name).expect("golden"));
    let second = client
        .admit(&scenario_manifest(&world, BackendKind::Software))
        .expect("admission re-opens once load drains");
    let report = client
        .drive(
            second,
            &world.trajectory,
            world.events.as_slice(),
            LoadShape::Steady { chunk: 2048 },
        )
        .expect("second session finishes");
    assert_eq!(report.digest, golden_digest(&world.name).expect("golden"));
    client.bye().expect("bye");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Generative wire-protocol sequence fuzzing: **legal frames in illegal
// orders**. Each case drives a random walk of well-formed `eventor-wire/1`
// frames — admits, polls, event/pose batches, closes, discards, metrics —
// against a model of the server's session state machine. Every illegal
// ordering (poll before admit, duplicate admit, ingest after close, frames
// after Bye) must earn its **typed** reply or `WireError`, and the
// connection must stay usable afterwards; the server must never wedge,
// never kill the connection for a session-level violation, and never leak a
// reply class the protocol does not define for that state.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// Sends one frame and reads one reply, asserting the id echo.
fn transact(stream: &mut std::net::TcpStream, session: u64, frame: &WireFrame) -> WireFrame {
    write_frame(stream, session, frame).expect("request writes");
    let (sid, reply) = read_frame(
        stream,
        DEFAULT_MAX_PAYLOAD,
        Duration::from_secs(10),
        IdleWait::Timeout(Duration::from_secs(10)),
        &|| false,
    )
    .expect("reply reads");
    assert_eq!(sid, session, "reply must echo the request's session id");
    reply
}

/// Reads a Poll reply train (Lifecycle/DepthMap frames, then the PollDone
/// terminator), asserting no foreign frame class sneaks in.
fn drain_poll(stream: &mut std::net::TcpStream, session: u64) {
    write_frame(stream, session, &WireFrame::Poll).expect("poll writes");
    loop {
        let (sid, reply) = read_frame(
            stream,
            DEFAULT_MAX_PAYLOAD,
            Duration::from_secs(10),
            IdleWait::Timeout(Duration::from_secs(10)),
            &|| false,
        )
        .expect("poll reply reads");
        assert_eq!(sid, session);
        match reply {
            WireFrame::Lifecycle { .. } | WireFrame::DepthMap(_) => {}
            WireFrame::PollDone { .. } => return,
            other => panic!("illegal frame in a poll train: {other:?}"),
        }
    }
}

/// Per-wire-id model of what the server must believe about a session.
#[derive(Clone, Copy, Default)]
struct ModelSession {
    admitted: bool,
    closed: bool,
    /// Strictly increasing ingest clock (poses and events must stay
    /// time-ordered — the walk explores *order* violations, not data ones).
    ticks: u64,
}

/// Drives one randomized frame walk against a fresh loopback server and the
/// model, then proves the connection still works and that post-Bye frames
/// are typed connection errors.
fn run_frame_walk(ops: &[(usize, u64)]) {
    let server = spawn_loopback(NetConfig::new()).expect("server spawns");
    let world = corpus_world("shake_closeup");
    let admit = WireFrame::Admit {
        manifest: scenario_manifest(&world, BackendKind::Software),
    };
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connects");
    assert!(matches!(
        transact(&mut stream, 0, &WireFrame::Hello),
        WireFrame::HelloOk { .. }
    ));

    let mut model = [ModelSession::default(); 3];
    for &(op, wire_id) in ops {
        let m = &mut model[wire_id as usize - 1];
        match op {
            // Admit: fresh id → Admitted; duplicate admit → typed rejection
            // that leaves the original session intact.
            0 => match transact(&mut stream, wire_id, &admit) {
                WireFrame::Admitted { .. } if !m.admitted => m.admitted = true,
                WireFrame::Rejected { code: c, .. } if m.admitted => {
                    assert_eq!(c, code::DUPLICATE_SESSION)
                }
                other => panic!("admit (admitted={}): {other:?}", m.admitted),
            },
            // Poll: before admit it is a typed unknown-session error; after
            // admit (closed or not) it is a well-formed reply train.
            1 => {
                if m.admitted {
                    drain_poll(&mut stream, wire_id);
                } else {
                    match transact(&mut stream, wire_id, &WireFrame::Poll) {
                        WireFrame::Error { code: c, .. } => assert_eq!(c, code::UNKNOWN_SESSION),
                        other => panic!("poll before admit: {other:?}"),
                    }
                }
            }
            // Events: an ack with short-write semantics while live, a typed
            // error before admit and after close.
            2 => {
                let t0 = m.ticks as f64 * 1e-3;
                m.ticks += 4;
                let events: Vec<Event> = (0..4)
                    .map(|i| Event::new(t0 + i as f64 * 1e-4, 60, 60, Polarity::Positive))
                    .collect();
                match transact(&mut stream, wire_id, &WireFrame::Events { events }) {
                    WireFrame::EventsAck { .. } if m.admitted && !m.closed => {}
                    WireFrame::Error { code: c, .. } if !m.admitted => {
                        assert_eq!(c, code::UNKNOWN_SESSION)
                    }
                    WireFrame::Error { code: c, .. } if m.closed => {
                        assert_eq!(c, code::SESSION_CLOSED)
                    }
                    other => panic!(
                        "events (admitted={}, closed={}): {other:?}",
                        m.admitted, m.closed
                    ),
                }
            }
            // Poses: same contract as events.
            3 => {
                let t = m.ticks as f64 * 1e-3;
                m.ticks += 1;
                let samples = vec![(t, Pose::identity())];
                match transact(&mut stream, wire_id, &WireFrame::Poses { samples }) {
                    WireFrame::Ok if m.admitted && !m.closed => {}
                    WireFrame::Error { code: c, .. } if !m.admitted => {
                        assert_eq!(c, code::UNKNOWN_SESSION)
                    }
                    WireFrame::Error { code: c, .. } if m.closed => {
                        assert_eq!(c, code::SESSION_CLOSED)
                    }
                    other => panic!(
                        "poses (admitted={}, closed={}): {other:?}",
                        m.admitted, m.closed
                    ),
                }
            }
            // Close: idempotent once admitted, typed error before.
            4 => match transact(&mut stream, wire_id, &WireFrame::Close) {
                WireFrame::Ok if m.admitted => m.closed = true,
                WireFrame::Error { code: c, .. } if !m.admitted => {
                    assert_eq!(c, code::UNKNOWN_SESSION)
                }
                other => panic!("close (admitted={}): {other:?}", m.admitted),
            },
            // Discard: clears queued input once admitted, typed error before.
            5 => match transact(&mut stream, wire_id, &WireFrame::Discard) {
                WireFrame::Ok if m.admitted => {}
                WireFrame::Error { code: c, .. } if !m.admitted => {
                    assert_eq!(c, code::UNKNOWN_SESSION)
                }
                other => panic!("discard (admitted={}): {other:?}", m.admitted),
            },
            // Metrics: stateless, always answered.
            _ => match transact(&mut stream, wire_id, &WireFrame::Metrics) {
                WireFrame::MetricsReply { json } => {
                    assert!(json.contains("eventor-metrics/1"), "metrics json: {json}")
                }
                other => panic!("metrics: {other:?}"),
            },
        }
    }

    // Whatever the walk did, the connection must still hold a conversation.
    assert!(matches!(
        transact(&mut stream, 0, &WireFrame::Metrics),
        WireFrame::MetricsReply { .. }
    ));
    assert!(matches!(
        transact(&mut stream, 0, &WireFrame::Bye),
        WireFrame::ByeOk
    ));

    // Events after Bye: the server has hung up; the client sees a typed
    // connection-level WireError, never a hang or a garbage frame.
    let after_bye = WireFrame::Events {
        events: vec![Event::new(1e6, 1, 1, Polarity::Positive)],
    };
    let _ = write_frame(&mut stream, 1, &after_bye);
    let outcome = read_frame(
        &mut stream,
        DEFAULT_MAX_PAYLOAD,
        Duration::from_secs(10),
        IdleWait::Timeout(Duration::from_secs(10)),
        &|| false,
    );
    match outcome {
        Err(WireError::ConnectionClosed | WireError::Io { .. }) => {}
        other => panic!("frame after Bye must be a typed connection error: {other:?}"),
    }
    server.shutdown();
}

/// The three named illegal orders of the issue, pinned deterministically:
/// poll-before-admit, duplicate admit (with the original session
/// surviving), and events-after-bye.
#[test]
fn named_illegal_frame_orders_are_typed_and_survivable() {
    // ops are (op, wire_id): 1=poll, 0=admit, 2=events, 4=close.
    run_frame_walk(&[
        (1, 1), // poll before admit → UNKNOWN_SESSION
        (2, 2), // events before admit → UNKNOWN_SESSION
        (0, 1), // admit
        (0, 1), // duplicate admit → DUPLICATE_SESSION
        (2, 1), // the original session still accepts events
        (4, 1), // close
        (2, 1), // events after close → SESSION_CLOSED
        (1, 1), // poll still answered after close
    ]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random walks over the full frame alphabet (3 wire ids × 7 ops, 4–20
    /// steps): every ordering the generator produces must match the model.
    #[test]
    fn random_frame_walks_match_the_protocol_state_machine(
        ops in prop::collection::vec((0usize..7, 1u64..4), 4..20),
    ) {
        run_frame_walk(&ops);
    }
}

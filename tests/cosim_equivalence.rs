//! Hardware/software co-verification: the functional device model in
//! `eventor-hwsim` and the quantized software pipeline in `eventor-core`
//! must produce identical results for identical inputs, across all four
//! evaluation sequences and for the architectural variants of the device.

use eventor::core::{
    config_for_sequence, CosimBackend, EventorOptions, EventorSession, ParallelConfig,
    SessionDriver,
};
use eventor::dsi::{DepthPlanes, DsiVolume};
use eventor::emvs::EmvsConfig;
use eventor::events::{DatasetConfig, Event, EventStream, SequenceKind, SyntheticSequence};
use eventor::fixed::kernel::{self, PhiWords};
use eventor::geom::{CameraModel, DistortionModel};
use eventor::hwsim::{frame_timing, AcceleratorConfig, EventorDevice, FrameJob, FrameKind};
use eventor::scenarios::digest_output;

fn sequence(kind: SequenceKind) -> SyntheticSequence {
    SyntheticSequence::generate(kind, &DatasetConfig::fast_test())
        .expect("fast_test sequences generate")
}

/// A cosim session fed the whole sequence and polled, its last key frame
/// still open, so its DSI can be read (retirement resets it).
fn cosim_session(
    seq: &SyntheticSequence,
    config: EmvsConfig,
    accel: AcceleratorConfig,
) -> SessionDriver<CosimBackend> {
    let backend = CosimBackend::new(seq.camera, &config, accel, ParallelConfig::sequential())
        .expect("valid config");
    let mut driver = SessionDriver::new(seq.camera, config, backend)
        .expect("valid config")
        .with_max_pending_events(usize::MAX);
    driver.push_trajectory(&seq.trajectory).expect("trajectory");
    driver.push_events(seq.events.as_slice()).expect("events");
    driver.poll().expect("poll");
    driver
}

#[test]
fn device_matches_software_pipeline_on_every_sequence() {
    for kind in SequenceKind::ALL {
        let seq = sequence(kind);
        let config = config_for_sequence(&seq, 50);
        let builder = || EventorSession::builder(seq.camera, config.clone());
        let sw = builder()
            .software(EventorOptions::accelerator())
            .reconstruct(&seq.events, &seq.trajectory)
            .expect("software run")
            .output;
        let hw = builder()
            .cosim(AcceleratorConfig::default())
            .reconstruct(&seq.events, &seq.trajectory)
            .expect("cosim run")
            .output;

        assert_eq!(
            sw.keyframes.len(),
            hw.keyframes.len(),
            "{kind:?}: key-frame count diverged"
        );
        for (i, (s, h)) in sw.keyframes.iter().zip(&hw.keyframes).enumerate() {
            assert_eq!(
                s.votes_cast, h.votes_cast,
                "{kind:?} keyframe {i}: vote count diverged"
            );
            assert_eq!(
                s.depth_map.depth_data(),
                h.depth_map.depth_data(),
                "{kind:?} keyframe {i}: depth maps diverged"
            );
        }
        assert_eq!(
            sw.global_map.len(),
            hw.global_map.len(),
            "{kind:?}: global map diverged"
        );
    }
}

#[test]
fn device_agreement_holds_for_different_pe_counts() {
    // The number of PE_Zi changes the schedule, not the arithmetic: the DSI
    // contents of the open key frame must be identical for 1, 2 and 4 PEs.
    let seq = sequence(SequenceKind::SliderClose);
    let config = config_for_sequence(&seq, 40);
    let mut reference: Option<Vec<u16>> = None;
    for n_pe in [1usize, 2, 4] {
        let accel = AcceleratorConfig::default().with_pe_zi(n_pe);
        let session = cosim_session(&seq, config.clone(), accel);
        let scores = session.backend().dsi().raw_scores().to_vec();
        assert!(scores.iter().any(|&s| s > 0), "{n_pe} PE_Zi voted nothing");
        match &reference {
            None => reference = Some(scores),
            Some(r) => assert_eq!(r, &scores, "{n_pe} PE_Zi produced a different DSI"),
        }
    }
}

#[test]
fn cosim_report_matches_paper_scale_accelerator_model() {
    // Full 1024-event frames over 100 planes, every event surviving and
    // every transfer voting: the cycles of each frame's record are exactly
    // the analytic schedule's (Table 3's Eventor column), normal and key
    // frames alike.
    let identity =
        kernel::quantize_homography(&[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
    let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
    let job = |kind| FrameJob {
        event_words: (0..1024)
            .map(|i| {
                eventor::fixed::PackedCoord::from_f64((i % 240) as f64, (i % 180) as f64).to_word()
            })
            .collect(),
        homography_words: identity,
        phi_words: vec![phi; 100],
        kind,
    };
    let dsi = || {
        let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 100).expect("100 planes");
        DsiVolume::new(240, 180, planes).expect("a 240x180 DSI")
    };
    for num_pe in [1, 2, 4] {
        let config = AcceleratorConfig::default().with_pe_zi(num_pe);
        let mut device = EventorDevice::new(config.clone());
        let mut dsi = dsi();
        for kind in [FrameKind::Normal, FrameKind::Key] {
            let exec = device
                .run_frame(&job(kind), &mut dsi)
                .expect("frame accepted");
            let analytic = frame_timing(&config, kind);
            assert_eq!(
                [
                    exec.canonical_cycles,
                    exec.proportional_cycles,
                    exec.dma_cycles,
                    exec.reset_cycles,
                    exec.total_cycles
                ],
                [
                    analytic.canonical_cycles,
                    analytic.proportional_cycles,
                    analytic.dma_cycles,
                    analytic.reset_cycles,
                    analytic.total_cycles
                ]
            );
            assert_eq!(exec.votes_applied, 1024 * 100);
        }
    }
    let config = AcceleratorConfig::default();
    let exec = EventorDevice::new(config.clone())
        .run_frame(&job(FrameKind::Normal), &mut dsi())
        .expect("frame accepted");
    let us = exec.total_us(&config);
    assert!((us - 551.58).abs() < 30.0, "normal frame latency {us} us");
}

#[test]
fn out_of_sensor_events_on_a_distorted_lens_agree_and_are_pinned() {
    // Sessions accept any u16 address. Mix addresses just past the 80x60
    // sensor's edge, far outside it and (u16::MAX, u16::MAX) into a
    // distorted-lens stream: every backend corrects them the same way, and
    // the pins hold that correction (on the DAVIS lens the far addresses
    // undistort to NaN, which the Q9.7 encoder maps to pixel (0, 0)).
    let fast = DatasetConfig::fast_test();
    let config = DatasetConfig {
        camera: CameraModel::new(fast.camera.intrinsics, DistortionModel::davis240_default()),
        ..fast
    };
    let seq = SyntheticSequence::generate(SequenceKind::ThreePlanes, &config)
        .expect("distorted fast_test sequence generates");
    let outside: [(u16, u16); 8] = [
        (80, 30),
        (40, 60),
        (80, 60),
        (81, 59),
        (300, 20),
        (20, 300),
        (1000, 1000),
        (u16::MAX, u16::MAX),
    ];
    let mut events: Vec<Event> = Vec::with_capacity(seq.events.len() * 9 / 8);
    for (i, e) in seq.events.iter().enumerate() {
        events.push(*e);
        if i % 8 == 0 {
            let (x, y) = outside[i / 8 % outside.len()];
            events.push(Event::new(e.t, x, y, e.polarity));
        }
    }
    let stream: EventStream = events.into_iter().collect();
    let emvs = config_for_sequence(&seq, 40);
    let builder = || EventorSession::builder(seq.camera, emvs.clone());
    let run = |stream: &EventStream, options: EventorOptions, shards: usize| {
        digest_output(
            &builder()
                .sharded(options, ParallelConfig::with_shards(shards))
                .reconstruct(stream, &seq.trajectory)
                .expect("engine run"),
        )
    };
    let cosim = digest_output(
        &builder()
            .cosim(AcceleratorConfig::default())
            .reconstruct(&stream, &seq.trajectory)
            .expect("cosim run"),
    );
    let accelerator = EventorOptions::accelerator();
    assert_eq!(
        [
            run(&stream, accelerator, 1),
            run(&stream, accelerator, 3),
            cosim
        ],
        [0x9713ad8ca72fe939; 3],
        "software, sharded x3 and cosim"
    );
    let exact = EventorOptions::exact();
    assert_eq!(
        [run(&stream, exact, 1), run(&stream, exact, 3)],
        [0x68fe68b317d1f7fc; 2],
        "float datapath at one and three shards"
    );
    // The extra events reach the DSI: without them the digest differs.
    assert_ne!(run(&seq.events, accelerator, 1), 0x9713ad8ca72fe939);
}

//! Hardware/software co-verification: the functional device model in
//! `eventor-hwsim` and the quantized software pipeline in `eventor-core`
//! must produce identical results for identical inputs, across all four
//! evaluation sequences and for the architectural variants of the device.

use eventor::core::{
    config_for_sequence, CosimBackend, EventorOptions, EventorSession, ParallelConfig,
    SessionDriver,
};
use eventor::emvs::{EmvsConfig, EmvsOutput};
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use eventor::hwsim::{
    status, AcceleratorConfig, EventorDevice, FrameJob, FrameKind, HomographyRegisters, PhiEntry,
    Register,
};

fn sequence(kind: SequenceKind) -> SyntheticSequence {
    SyntheticSequence::generate(kind, &DatasetConfig::fast_test())
        .expect("fast_test sequences generate")
}

/// A batch cosim run that hands the backend back, so the device can be
/// read after the run.
fn cosim_run(
    seq: &SyntheticSequence,
    config: EmvsConfig,
    accel: AcceleratorConfig,
) -> (EmvsOutput, CosimBackend) {
    let backend = CosimBackend::new(seq.camera, &config, accel, ParallelConfig::sequential())
        .expect("valid config");
    let mut driver = SessionDriver::new(seq.camera, config, backend)
        .expect("valid config")
        .with_max_pending_events(usize::MAX);
    driver.push_trajectory(&seq.trajectory).expect("trajectory");
    driver.push_events(seq.events.as_slice()).expect("events");
    let (output, backend) = driver.finish_with_backend();
    (output.expect("cosim run"), backend)
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
    // contents must be identical for 1, 2 and 4 PEs.
    let seq = sequence(SequenceKind::SliderClose);
    let config = config_for_sequence(&seq, 40);
    let mut reference: Option<Vec<u16>> = None;
    for n_pe in [1usize, 2, 4] {
        let accel = AcceleratorConfig::default().with_pe_zi(n_pe);
        let (_, cosim) = cosim_run(&seq, config.clone(), accel);
        let scores = cosim.device().dsi().scores().to_vec();
        match &reference {
            None => reference = Some(scores),
            Some(r) => assert_eq!(r, &scores, "{n_pe} PE_Zi produced a different DSI"),
        }
    }
}

#[test]
fn cosim_report_matches_paper_scale_accelerator_model() {
    // Full 1024-event frames over 100 planes: the modelled per-frame latency
    // read back through the register interface must match the Table 3 shape
    // (canonical time hidden for normal frames, ~24x less power handled in
    // the energy model).
    let config = AcceleratorConfig::default();
    let mut device = EventorDevice::new(config.clone());
    let identity =
        HomographyRegisters::from_matrix(&[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
    let phi = PhiEntry::from_f64(1.0, 0.0, 0.0).raw_words();
    let job = FrameJob {
        event_words: (0..1024)
            .map(|i| {
                eventor::fixed::PackedCoord::from_f64((i % 240) as f64, (i % 180) as f64).to_word()
            })
            .collect(),
        homography_words: identity.raw_words(),
        phi_words: vec![phi; 100],
        kind: FrameKind::Normal,
    };
    let exec = device.run_frame(job).expect("frame accepted");
    let us = exec.total_us(&config);
    assert!((us - 551.58).abs() < 30.0, "normal frame latency {us} us");
    assert!(device.registers().status_is(status::DONE));
    assert_eq!(
        device.registers().peek(Register::VotesApplied) as u64,
        exec.votes_applied
    );
    assert_eq!(exec.votes_applied, 1024 * 100);
}

#[test]
fn device_register_protocol_round_trips_through_the_driver() {
    let seq = sequence(SequenceKind::ThreePlanes);
    let config = config_for_sequence(&seq, 30);
    let (out, cosim) = cosim_run(&seq, config, AcceleratorConfig::default());
    let device = cosim.device();
    // After the run the device reports done, not busy, and its lifetime
    // counters agree with the reconstruction output.
    assert!(device.registers().status_is(status::DONE));
    assert!(!device.registers().status_is(status::BUSY));
    assert_eq!(device.stats().frames, out.profile.frames_processed);
    assert!(device.stats().votes_applied > 0);
    assert!(device.registers().host_accesses() > 0);
    // The AXI/DMA traffic of the run is visible in the report.
    let report = cosim.report();
    assert_eq!(report.frames, device.stats().frames);
    assert!(report.accelerator_seconds > 0.0);
}

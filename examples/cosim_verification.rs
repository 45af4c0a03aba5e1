//! Hardware/software co-simulation: run the quantized software pipeline and
//! the functional register/DMA/datapath device model on the same sequence and
//! verify that they agree bit-exactly, then report the accelerator activity
//! the device observed (frames, votes, modelled latency, DSI DRAM traffic).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example cosim_verification
//! ```

use eventor::core::{
    config_for_sequence, CosimBackend, EventorOptions, EventorSession, ParallelConfig,
    SessionDriver,
};
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use eventor::hwsim::AcceleratorConfig;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Generate the synthetic stand-in for `simulation_3planes`.
    let sequence =
        SyntheticSequence::generate(SequenceKind::ThreePlanes, &DatasetConfig::fast_test())?;
    let config = config_for_sequence(&sequence, 60);
    println!(
        "sequence `{}`: {} events, {} expected frames of {}",
        sequence.name(),
        sequence.events.len(),
        sequence.events.len().div_ceil(config.events_per_frame),
        config.events_per_frame
    );

    // 2. Software reference: the quantized, nearest-voting Eventor datapath.
    let sw = EventorSession::builder(sequence.camera, config.clone())
        .software(EventorOptions::accelerator())
        .reconstruct(&sequence.events, &sequence.trajectory)?
        .output;

    // 3. Device co-simulation: the same dataflow driven through the
    //    register/DMA interface of the functional accelerator model. The
    //    session driver hands the backend back, so the device can be
    //    inspected after the run.
    let backend = CosimBackend::new(
        sequence.camera,
        &config,
        AcceleratorConfig::default(),
        ParallelConfig::sequential(),
    )?;
    let mut driver =
        SessionDriver::new(sequence.camera, config, backend)?.with_max_pending_events(usize::MAX);
    driver.push_trajectory(&sequence.trajectory)?;
    driver.push_events(sequence.events.as_slice())?;
    let (hw, cosim) = driver.finish_with_backend();
    let hw = hw?;

    // 4. Co-verification: key-frame by key-frame agreement.
    println!("\n--- co-verification ---");
    assert_eq!(sw.keyframes.len(), hw.keyframes.len());
    let mut identical = true;
    for (i, (s, h)) in sw.keyframes.iter().zip(&hw.keyframes).enumerate() {
        let depth_equal = s.depth_map.depth_data() == h.depth_map.depth_data();
        identical &= depth_equal && s.votes_cast == h.votes_cast;
        println!(
            "keyframe {i}: votes sw={} hw={}  depth maps {}",
            s.votes_cast,
            h.votes_cast,
            if depth_equal { "IDENTICAL" } else { "DIVERGED" }
        );
    }
    println!(
        "overall: {}",
        if identical {
            "bit-exact agreement"
        } else {
            "MISMATCH"
        }
    );

    // 5. What the device measured while doing it.
    let report = cosim.report();
    let device = cosim.device();
    println!("\n--- accelerator activity (device model) ---");
    println!(
        "frames executed        : {} ({} key)",
        report.frames, report.key_frames
    );
    println!(
        "events in / dropped    : {} / {}",
        report.events_in, report.events_dropped
    );
    println!("votes applied          : {}", report.votes_applied);
    println!(
        "mean normal frame      : {:.2} us",
        report.mean_normal_frame_us
    );
    println!(
        "mean key frame         : {:.2} us",
        report.mean_key_frame_us
    );
    println!(
        "accelerator busy time  : {:.3} ms",
        report.accelerator_seconds * 1e3
    );
    println!(
        "event rate             : {:.2} Mev/s",
        report.events_in as f64 / report.accelerator_seconds / 1e6
    );
    let dram = device.dsi().stats();
    println!(
        "DSI DRAM traffic       : {} RMW votes, {:.2} MB moved",
        dram.vote_rmw_ops,
        dram.score_bytes() as f64 / 1e6
    );
    println!(
        "host register accesses : {}",
        device.registers().host_accesses()
    );
    println!(
        "activity-based energy  : {:.3} mJ total, {:.0} nJ/event, {:.2} W average",
        report.energy.total_j() * 1e3,
        report.energy.nj_per_event(),
        report.energy.average_power_w()
    );

    Ok(())
}

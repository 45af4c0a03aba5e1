//! Drive the accelerator hardware model: estimate the FPGA resources, the
//! per-frame timing, the power and the energy-efficiency gain of Eventor over
//! the CPU baseline for a real reconstruction workload, and sweep the number
//! of `PE_Zi` to explore the design space.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example accelerator_pipeline
//! ```

use eventor::core::{config_for_sequence, AcceleratorRun, EventorOptions, EventorSession};
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use eventor::hwsim::{AcceleratorConfig, INTEL_I5_POWER_W};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // A reconstruction workload: the synthetic 3-walls sequence.
    let sequence =
        SyntheticSequence::generate(SequenceKind::ThreeWalls, &DatasetConfig::fast_test())?;
    let config = config_for_sequence(&sequence, 100);
    let output = EventorSession::builder(sequence.camera, config.clone())
        .software(EventorOptions::exact())
        .reconstruct(&sequence.events, &sequence.trajectory)?
        .output;
    let cpu_profile = &output.profile;
    println!(
        "CPU baseline processed {} frames ({} key frames) in {:.2} ms of P+R time",
        cpu_profile.frames_processed,
        cpu_profile.keyframes,
        cpu_profile.projection_raycounting_time().as_secs_f64() * 1e3
    );

    // Evaluate the paper's prototype configuration on the same workload.
    let accel_config = AcceleratorConfig::default()
        .with_events_per_frame(config.events_per_frame)
        .with_depth_planes(config.num_depth_planes);
    let run = AcceleratorRun::evaluate_from_profile(&accel_config, cpu_profile);
    println!("\nEventor prototype (1x PE_Z0, 2x PE_Zi, double buffering):");
    println!(
        "  resources          : {} LUT, {} FF, {:.0} KB BRAM",
        run.resources.total_luts(),
        run.resources.total_flip_flops(),
        run.resources.total_bram_bytes() as f64 / 1024.0
    );
    println!(
        "  P(Z0) per frame    : {:.2} us",
        run.performance.canonical_us
    );
    println!(
        "  P(Z0;Zi)+R per frame: {:.2} us",
        run.performance.proportional_us
    );
    println!(
        "  event rate         : {:.2} Mevents/s",
        run.performance.event_rate_normal / 1e6
    );
    println!(
        "  power              : {:.2} W (CPU: {:.0} W)",
        run.power_w, INTEL_I5_POWER_W
    );
    let energy = run.energy_versus_cpu(cpu_profile);
    println!(
        "  energy efficiency  : {:.1}x better than the CPU baseline",
        energy.efficiency_gain()
    );

    // Design-space sweep: how does the PE_Zi count trade throughput for area?
    println!("\nPE_Zi sweep:");
    println!(
        "{:>6} {:>12} {:>14} {:>10} {:>10}",
        "PE_Zi", "LUT", "frame (us)", "Mev/s", "power W"
    );
    for n_pe in [1usize, 2, 4, 8] {
        let cfg = accel_config.clone().with_pe_zi(n_pe);
        let sweep = AcceleratorRun::evaluate_from_profile(&cfg, cpu_profile);
        println!(
            "{:>6} {:>12} {:>14.2} {:>10.2} {:>10.2}",
            n_pe,
            sweep.resources.total_luts(),
            sweep.performance.normal_frame_us,
            sweep.performance.event_rate_normal / 1e6,
            sweep.power_w
        );
    }
    Ok(())
}

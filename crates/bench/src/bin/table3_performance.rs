//! Regenerates **Table 3**: runtime per task and per event frame, event
//! processing rate and power for the CPU baseline versus the Eventor
//! accelerator, plus the resulting energy-efficiency factor and a `PE_Zi` /
//! double-buffering ablation.
//!
//! The CPU column is *measured* by running the baseline EMVS mapper on this
//! machine (the paper used an Intel i5-7300HQ; absolute numbers therefore
//! differ, the shape of the comparison is what is reproduced). The Eventor
//! column comes from the calibrated hardware model in `eventor-hwsim`.

use eventor_bench::{experiment_config, fast_mode, generate_sequence, print_header};
use eventor_core::{AcceleratorRun, EventorOptions, EventorSession};
use eventor_events::SequenceKind;
use eventor_hwsim::{AcceleratorConfig, INTEL_I5_POWER_W};

fn main() {
    let fast = fast_mode();
    let seq = generate_sequence(SequenceKind::ThreePlanes, fast);
    let config = experiment_config(&seq);

    // CPU baseline: measured runtime of the original EMVS.
    let output = EventorSession::builder(seq.camera, config.clone())
        .software(EventorOptions::exact())
        .reconstruct(&seq.events, &seq.trajectory)
        .expect("baseline reconstruction succeeds on the synthetic sequence")
        .output;
    let cpu = &output.profile;

    // Eventor: hardware model on the same frame workload.
    let accel_config = AcceleratorConfig::default()
        .with_events_per_frame(config.events_per_frame)
        .with_depth_planes(config.num_depth_planes);
    let run = AcceleratorRun::evaluate_from_profile(&accel_config, cpu);
    let energy = run.energy_versus_cpu(cpu);

    print_header("Table 3: performance comparison (CPU baseline vs Eventor)");
    println!(
        "workload: {} ({} events, {} frames, {} key frames)",
        seq.name(),
        cpu.events_processed,
        cpu.frames_processed,
        cpu.keyframes
    );
    println!();
    println!(
        "{:<44} {:>14} {:>14}",
        "", "CPU (measured)", "Eventor (model)"
    );
    println!(
        "{:<44} {:>14.2} {:>14.2}",
        "P{Z0} runtime per event frame (us)",
        cpu.canonical_us_per_frame(),
        run.performance.canonical_us
    );
    println!(
        "{:<44} {:>14.2} {:>14.2}",
        "P{Z0;Zi} & R runtime per event frame (us)",
        cpu.proportional_raycount_us_per_frame(),
        run.performance.proportional_us
    );
    println!(
        "{:<44} {:>14.2} {:>14.2}",
        "runtime per normal frame (us)",
        cpu.frame_us(),
        run.performance.normal_frame_us
    );
    println!(
        "{:<44} {:>14.2} {:>14.2}",
        "runtime per key frame (us)",
        cpu.frame_us(),
        run.performance.key_frame_us
    );
    println!(
        "{:<44} {:>14.2} {:>14.2}",
        "event processing rate, normal (Mevents/s)",
        cpu.event_rate() / 1e6,
        run.performance.event_rate_normal / 1e6
    );
    println!(
        "{:<44} {:>14.2} {:>14.2}",
        "event processing rate, key frame (Mevents/s)",
        cpu.event_rate() / 1e6,
        run.performance.event_rate_key / 1e6
    );
    println!(
        "{:<44} {:>14.2} {:>14.2}",
        "power (W)", INTEL_I5_POWER_W, run.power_w
    );
    println!();
    println!(
        "power reduction: {:.1}x   energy-efficiency gain on this workload: {:.1}x   (paper: 24x)",
        energy.power_reduction(),
        energy.efficiency_gain()
    );
    println!(
        "paper reference (Table 3): CPU 22.40 / 559.55 / 581.95 us, 1.76 Mev/s, 45 W;  \
         Eventor 8.24 / 551.58 / 551.58 (559.82 key) us, 1.86 (1.83) Mev/s, 1.86 W"
    );

    print_header("Ablation: number of PE_Zi and double buffering");
    println!(
        "{:>6} {:>14} {:>16} {:>16} {:>10}",
        "PE_Zi", "double-buf", "normal frame us", "event rate Mev/s", "power W"
    );
    for n_pe in [1usize, 2, 4, 8] {
        for double_buffering in [true, false] {
            let cfg = AcceleratorConfig::default()
                .with_pe_zi(n_pe)
                .with_double_buffering(double_buffering)
                .with_events_per_frame(config.events_per_frame)
                .with_depth_planes(config.num_depth_planes);
            let ablation = AcceleratorRun::evaluate_from_profile(&cfg, cpu);
            println!(
                "{:>6} {:>14} {:>16.2} {:>16.2} {:>10.2}",
                n_pe,
                double_buffering,
                ablation.performance.normal_frame_us,
                ablation.performance.event_rate_normal / 1e6,
                ablation.power_w
            );
        }
    }
}

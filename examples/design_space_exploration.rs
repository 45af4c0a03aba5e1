//! Design-space exploration of the accelerator architecture: sweep the
//! number of `PE_Zi`, the depth-plane count and double buffering, and report
//! resources, per-frame latency, throughput, power and energy efficiency for
//! every point — the ablation study behind the prototype configuration the
//! paper ships (1x PE_Z0, 2x PE_Zi, double-buffered).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example design_space_exploration
//! ```

use eventor::hwsim::{
    estimate_resources, performance, sequence_runtime_seconds, AcceleratorConfig, PowerModel,
    INTEL_I5_POWER_W,
};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    println!("--- PE_Zi sweep (100 planes, 1024-event frames, double-buffered) ---");
    println!(
        "{:>6} {:>9} {:>9} {:>10} {:>12} {:>9} {:>12}",
        "PE_Zi", "LUT", "FF", "frame us", "rate Mev/s", "power W", "energy gain"
    );
    for n_pe in [1usize, 2, 4, 8] {
        let config = AcceleratorConfig::default().with_pe_zi(n_pe);
        print_row(&config, &format!("{n_pe}"));
    }

    println!("\n--- depth-plane sweep (2x PE_Zi) ---");
    println!(
        "{:>6} {:>9} {:>9} {:>10} {:>12} {:>9} {:>12}",
        "N_z", "LUT", "FF", "frame us", "rate Mev/s", "power W", "energy gain"
    );
    for planes in [25usize, 50, 100, 200] {
        let config = AcceleratorConfig::default().with_depth_planes(planes);
        print_row(&config, &format!("{planes}"));
    }

    println!("\n--- double buffering ablation ---");
    for (label, enabled) in [
        ("with double buffering", true),
        ("without double buffering", false),
    ] {
        let config = AcceleratorConfig::default().with_double_buffering(enabled);
        let perf = performance(&config);
        println!(
            "{label:<26}: normal frame {:.2} us, event rate {:.2} Mev/s",
            perf.normal_frame_us,
            perf.event_rate_normal / 1e6
        );
    }

    println!("\n--- 40 frames, key frame every 10 (36 normal + 4 key) ---");
    for n_pe in [1usize, 2, 4] {
        let config = AcceleratorConfig::default().with_pe_zi(n_pe);
        let seconds = sequence_runtime_seconds(&config, 36, 4);
        println!(
            "{n_pe} PE_Zi: total {:.2} ms, {:.2} Mev/s",
            seconds * 1e3,
            40.0 * config.events_per_frame as f64 / seconds / 1e6
        );
    }

    println!(
        "\nThe prototype point (2x PE_Zi) is where address generation stops being the\n\
         bottleneck: beyond it the Vote Execute Unit's DRAM read-modify-write traffic\n\
         limits throughput, so more PEs add area and power without speedup — which is\n\
         why the paper ships two."
    );
    Ok(())
}

fn print_row(config: &AcceleratorConfig, label: &str) {
    let resources = estimate_resources(config);
    let perf = performance(config);
    let power = PowerModel::default().accelerator_power_w(config, &resources);
    // Energy-efficiency gain over the CPU at equal throughput is the power
    // ratio (Table 3's 24x headline for the prototype point).
    let gain = INTEL_I5_POWER_W / power;
    println!(
        "{label:>6} {:>9} {:>9} {:>10.2} {:>12.2} {:>9.2} {:>11.1}x",
        resources.total_luts(),
        resources.total_flip_flops(),
        perf.normal_frame_us,
        perf.event_rate_normal / 1e6,
        power,
        gain
    );
}

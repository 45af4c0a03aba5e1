//! Regenerates the Section 2.1 profiling claims that motivate the hardware
//! partition:
//!
//! * event back-projection (`𝒫`) plus volumetric ray-counting (`ℛ`) account
//!   for **over 80 %** of the total EMVS runtime, and
//! * the four hot sub-tasks (`𝒫{Z0}`, `𝒫{Z0;Zi}`, `𝒢`, `𝒱`) account for
//!   **over 90 %** of the `𝒫 + ℛ` time.

use eventor_bench::{experiment_config, fast_mode, generate_all_sequences, print_header};
use eventor_core::{EventorOptions, EventorSession};

fn main() {
    let fast = fast_mode();
    let sequences = generate_all_sequences(fast);

    print_header("Runtime breakdown of the baseline EMVS (Section 2.1 claims)");
    for seq in &sequences {
        let config = experiment_config(seq);
        let output = EventorSession::builder(seq.camera, config)
            .software(EventorOptions::exact())
            .reconstruct(&seq.events, &seq.trajectory)
            .expect("baseline reconstruction succeeds")
            .output;
        let profile = &output.profile;
        println!("\n--- {} ---", seq.name());
        println!("{}", profile.to_table());
    }
    println!("paper claims: P+R > 80% of total; hot sub-tasks > 90% of P+R");
}

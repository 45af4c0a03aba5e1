//! Quickstart: generate a synthetic event-camera sequence, run both the
//! baseline EMVS and the Eventor pipeline on it, and compare their semi-dense
//! depth maps against ground truth.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use eventor::core::{config_for_sequence, EventorOptions, EventorSession};
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Generate a synthetic stand-in for the DAVIS `slider_close` sequence
    //    (a textured target observed from a linear slider). `fast_test`
    //    keeps the example quick; use `DatasetConfig::paper_scale()` for the
    //    full 240x180 resolution.
    let sequence =
        SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())?;
    println!(
        "sequence `{}`: {} events over {:.2} s ({:.2} Mev/s)",
        sequence.name(),
        sequence.events.len(),
        sequence.events.duration(),
        sequence.stats.mean_event_rate / 1e6
    );

    // 2. Configure the reconstruction from the sequence metadata (depth
    //    range, key-frame spacing proportional to the scene depth).
    let config = config_for_sequence(&sequence, 100);

    // 3. Baseline EMVS: bilinear voting, full floating point.
    let baseline_output = EventorSession::builder(sequence.camera, config.clone())
        .software(EventorOptions::exact())
        .reconstruct(&sequence.events, &sequence.trajectory)?
        .output;

    // 4. Eventor: rescheduled dataflow, nearest voting, Table 1 quantization.
    let eventor_output = EventorSession::builder(sequence.camera, config)
        .software(EventorOptions::accelerator())
        .reconstruct(&sequence.events, &sequence.trajectory)?
        .output;

    // 5. Compare both against the rendered ground truth.
    for (name, output) in [
        ("baseline EMVS", &baseline_output),
        ("Eventor", &eventor_output),
    ] {
        let primary = output.keyframes.first().expect("at least one key frame");
        let gt = sequence.ground_truth_depth_at(&primary.reference_pose);
        let metrics = primary.depth_map.compare_to_ground_truth(gt.as_slice())?;
        println!(
            "{name:<14}: {} key frames, {} semi-dense pixels, AbsRel {:.2}%, completeness {:.1}%",
            output.keyframes.len(),
            primary.depth_map.valid_count(),
            100.0 * metrics.abs_rel,
            100.0 * metrics.completeness
        );
    }

    println!(
        "baseline P+R share of runtime: {:.1}%",
        100.0 * baseline_output.profile.projection_raycounting_fraction()
    );
    Ok(())
}

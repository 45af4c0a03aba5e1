//! The sharded voting engine versus its one-shard golden path.
//!
//! The engine's contract (see `eventor_emvs::VotingEngine`): the shards
//! split one DSI's depth planes, so each voxel has one writer that sees its
//! votes in stream order, and the reconstruction is **bit-identical** to
//! the one-shard one for every datapath — `f32` bilinear included — at
//! every shard count.

use eventor::core::{
    config_for_sequence, CosimBackend, EventorOptions, EventorSession, ParallelConfig,
    SessionOutput,
};
use eventor::emvs::{EmvsConfig, EmvsOutput};
use eventor::events::{DatasetConfig, Fnv64, SequenceKind, SyntheticSequence};
use eventor::hwsim::AcceleratorConfig;

fn three_planes() -> SyntheticSequence {
    SyntheticSequence::generate(SequenceKind::ThreePlanes, &DatasetConfig::fast_test())
        .expect("fast_test sequences generate")
}

/// A batch reconstruction of `seq` on the voting engine at `parallel`'s
/// shard count.
fn reconstruct(
    seq: &SyntheticSequence,
    config: &EmvsConfig,
    options: EventorOptions,
    parallel: ParallelConfig,
) -> EmvsOutput {
    EventorSession::builder(seq.camera, config.clone())
        .sharded(options, parallel)
        .reconstruct(&seq.events, &seq.trajectory)
        .expect("run succeeds")
        .output
}

fn assert_bit_identical(sequential: &EmvsOutput, parallel: &EmvsOutput, label: &str) {
    assert_eq!(
        sequential.keyframes.len(),
        parallel.keyframes.len(),
        "{label}: key-frame count diverged"
    );
    for (i, (s, p)) in sequential
        .keyframes
        .iter()
        .zip(&parallel.keyframes)
        .enumerate()
    {
        assert_eq!(
            s.votes_cast, p.votes_cast,
            "{label} keyframe {i}: DSI vote count diverged"
        );
        assert_eq!(
            s.frames_used, p.frames_used,
            "{label} keyframe {i}: frame count diverged"
        );
        assert_eq!(
            s.events_used, p.events_used,
            "{label} keyframe {i}: event count diverged"
        );
        assert_eq!(
            s.depth_map.depth_data(),
            p.depth_map.depth_data(),
            "{label} keyframe {i}: depth map diverged"
        );
        assert_eq!(
            s.depth_map.valid_count(),
            p.depth_map.valid_count(),
            "{label} keyframe {i}: valid pixel count diverged"
        );
    }
    assert_eq!(
        sequential.global_map.len(),
        parallel.global_map.len(),
        "{label}: global map size diverged"
    );
    assert_eq!(
        sequential.profile.events_processed,
        parallel.profile.events_processed
    );
    assert_eq!(
        sequential.profile.frames_processed,
        parallel.profile.frames_processed
    );
}

#[test]
fn accelerator_pipeline_is_bit_identical_across_shard_counts() {
    let seq = three_planes();
    let config = config_for_sequence(&seq, 50);
    let sequential = reconstruct(
        &seq,
        &config,
        EventorOptions::accelerator(),
        ParallelConfig::sequential(),
    );
    assert!(!sequential.keyframes.is_empty());

    for shards in [2, 4, 8] {
        let parallel = reconstruct(
            &seq,
            &config,
            EventorOptions::accelerator(),
            ParallelConfig::with_shards(shards),
        );
        assert_bit_identical(&sequential, &parallel, &format!("accelerator x{shards}"));
    }
}

#[test]
fn float_nearest_ablation_is_bit_identical() {
    let seq = three_planes();
    let config = config_for_sequence(&seq, 50);
    let sequential = reconstruct(
        &seq,
        &config,
        EventorOptions::nearest_only(),
        ParallelConfig::sequential(),
    );
    let parallel = reconstruct(
        &seq,
        &config,
        EventorOptions::nearest_only(),
        ParallelConfig::with_shards(4),
    );
    assert_bit_identical(&sequential, &parallel, "nearest_only x4");
}

#[test]
fn bilinear_ablations_are_deterministic_and_vote_exact() {
    let seq = three_planes();
    let config = config_for_sequence(&seq, 50);
    for options in [EventorOptions::exact(), EventorOptions::quantized_only()] {
        let sequential = reconstruct(&seq, &config, options, ParallelConfig::sequential());
        let parallel = reconstruct(&seq, &config, options, ParallelConfig::with_shards(4));
        // Each voxel's f32 sum is taken in stream order whatever the shard
        // count, so the depth maps match bit for bit.
        assert_bit_identical(&sequential, &parallel, &format!("{options:?} x4"));
    }
}

#[test]
fn parallel_mapper_nearest_voting_matches_sequential() {
    let seq = three_planes();
    let config = config_for_sequence(&seq, 50);
    let sequential = reconstruct(
        &seq,
        &config,
        EventorOptions::nearest_only(),
        ParallelConfig::sequential(),
    );
    for shards in [2, 8] {
        let parallel = reconstruct(
            &seq,
            &config,
            EventorOptions::nearest_only(),
            ParallelConfig::with_shards(shards),
        );
        assert_bit_identical(&sequential, &parallel, &format!("mapper nearest x{shards}"));
    }
}

/// FNV-1a-64 over key-frame count, depth-map dimensions, `votes_cast` and
/// depth bits: the fold of `eventor_scenarios::digest_output`, on a batch
/// output.
fn digest(output: &EmvsOutput) -> u64 {
    let mut h = Fnv64::new();
    h.update_u64(output.keyframes.len() as u64);
    for k in &output.keyframes {
        h.update_u64(k.depth_map.width() as u64);
        h.update_u64(k.depth_map.height() as u64);
        h.update_u64(k.votes_cast);
        for &d in k.depth_map.depth_data() {
            h.update_u64(d.to_bits());
        }
    }
    h.finish()
}

#[test]
fn every_datapath_is_pinned_at_one_and_four_shards() {
    // The committed goldens pin only the quantized-nearest datapath; these
    // digests pin the other three (and that one again). One digest per
    // datapath holds at every shard count, past the plane count too.
    let seq = three_planes();
    let config = config_for_sequence(&seq, 50);
    let shard_counts = [1, 2, 3, 4, 8, config.num_depth_planes + 1];
    let pins: [(EventorOptions, u64); 4] = [
        (EventorOptions::accelerator(), 0xf2f7eee95b07d73d),
        (EventorOptions::nearest_only(), 0xb632fa3aa376ddb3),
        (EventorOptions::quantized_only(), 0x534bf36eafa8622a),
        (EventorOptions::exact(), 0xcc9638b1499b5f9c),
    ];
    for (options, pin) in pins {
        for shards in shard_counts {
            let output = reconstruct(&seq, &config, options, ParallelConfig::with_shards(shards));
            let got = digest(&output);
            assert_eq!(got, pin, "{options:?} x{shards}: digest {got:#018x}");
        }
    }
}

#[test]
fn parallel_cosim_is_bit_identical_to_sequential_cosim() {
    let seq = three_planes();
    let config = config_for_sequence(&seq, 40);
    let cosim = |parallel: ParallelConfig| -> SessionOutput {
        let backend =
            CosimBackend::new(seq.camera, &config, AcceleratorConfig::default(), parallel)
                .expect("valid config");
        EventorSession::builder(seq.camera, config.clone())
            .custom_backend(Box::new(backend))
            .reconstruct(&seq.events, &seq.trajectory)
            .expect("cosim run")
    };

    let s = cosim(ParallelConfig::sequential());
    let p = cosim(ParallelConfig::with_shards(4));
    assert_bit_identical(&s.output, &p.output, "cosim x4");
    let (s, p) = (
        s.cosim_report.expect("cosim report"),
        p.cosim_report.expect("cosim report"),
    );
    assert_eq!(s.votes_applied, p.votes_applied);
    assert_eq!(s.events_dropped, p.events_dropped);
}

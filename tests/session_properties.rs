//! Property tests for the streaming session invariants (in-tree proptest
//! shim): **arbitrary packet split points of the same stream yield output
//! identical to the one-shot batch `reconstruct`**.
//!
//! The split pattern is the property input — packets of wildly varying
//! sizes, from single events to multiple frames — exercising every frame
//! boundary/packet boundary interaction the driver's aggregation can see.

use eventor::core::{config_for_sequence, EventorOptions, EventorSession};
use eventor::emvs::{EmvsConfig, EmvsOutput};
use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    seq: SyntheticSequence,
    config: EmvsConfig,
    batch: EmvsOutput,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let seq =
            SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())
                .expect("fast_test sequences generate");
        let config = config_for_sequence(&seq, 50);
        let batch = EventorSession::builder(seq.camera, config.clone())
            .software(EventorOptions::accelerator())
            .reconstruct(&seq.events, &seq.trajectory)
            .expect("batch reconstruction runs")
            .output;
        Fixture { seq, config, batch }
    })
}

/// Streams the fixture's events through a software session, splitting the
/// stream at the points the `sizes` pattern dictates (cycled until the
/// stream is exhausted).
fn stream_with_splits(sizes: &[usize]) -> EmvsOutput {
    let f = fixture();
    let mut session = EventorSession::builder(f.seq.camera, f.config.clone())
        .software(EventorOptions::accelerator())
        .build()
        .expect("session builds");
    session
        .push_trajectory(&f.seq.trajectory)
        .expect("trajectory pushes");
    let events = f.seq.events.as_slice();
    let mut cursor = 0usize;
    let mut i = 0usize;
    while cursor < events.len() {
        let size = sizes[i % sizes.len()].max(1);
        let end = (cursor + size).min(events.len());
        session
            .push_events(&events[cursor..end])
            .expect("packet pushes");
        session.poll().expect("poll succeeds");
        cursor = end;
        i += 1;
    }
    session.finish().expect("session finishes").output
}

fn assert_matches_batch(streamed: &EmvsOutput, sizes: &[usize]) -> Result<(), TestCaseError> {
    let batch = &fixture().batch;
    prop_assert_eq!(
        batch.keyframes.len(),
        streamed.keyframes.len(),
        "keyframe count diverged for splits {:?}",
        sizes
    );
    for (i, (b, s)) in batch.keyframes.iter().zip(&streamed.keyframes).enumerate() {
        prop_assert_eq!(b.votes_cast, s.votes_cast, "keyframe {} votes", i);
        prop_assert_eq!(b.frames_used, s.frames_used, "keyframe {} frames", i);
        prop_assert_eq!(
            b.depth_map.depth_data(),
            s.depth_map.depth_data(),
            "keyframe {} depth map",
            i
        );
    }
    prop_assert_eq!(batch.global_map.len(), streamed.global_map.len());
    prop_assert_eq!(
        batch.profile.events_processed,
        streamed.profile.events_processed
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn arbitrary_packet_splits_match_batch_reconstruct(
        sizes in prop::collection::vec(1usize..4097, 1..24),
    ) {
        let streamed = stream_with_splits(&sizes);
        assert_matches_batch(&streamed, &sizes)?;
    }

    #[test]
    fn degenerate_split_patterns_match_batch_reconstruct(
        single in 1usize..32,
        huge in 10_000usize..100_000,
    ) {
        // Tiny constant packets (stress the frame-boundary bookkeeping) and
        // one giant packet (the whole stream in one push) must both agree.
        let streamed = stream_with_splits(&[single, huge]);
        assert_matches_batch(&streamed, &[single, huge])?;
    }
}

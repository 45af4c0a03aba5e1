//! The kill-and-restore acceptance bar of the checkpoint subsystem
//! (`docs/ARCHITECTURE.md` §CKPT): a session checkpointed mid-flight into an
//! `eventor-evtr/1` `CKPT` section, **dropped**, and restored from the
//! container bytes alone must finish with output **bit-identical** to the
//! uninterrupted run — for every corpus scenario, every backend, and
//! arbitrary (proptest-chosen) packet boundaries. The committed golden
//! digests pin both sides, so a restore that silently loses a pending event,
//! a vote, or a window boundary fails CI by scenario name.

use eventor::core::{SessionCheckpoint, SessionOutput};
use eventor::dsi::DsiVolume;
use eventor::emvs::{BackendVoteState, EmvsError};
use eventor::scenarios::{
    builder_for_profile, corpus, digest_output, find, golden_digest, BackendKind, Scenario,
    ScenarioWorld,
};
use eventor::serve::{ServeConfig, ServeEngine};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The backends a checkpoint can be taken on and restored to. `Serve` is
/// covered separately through the engine faces
/// ([`serve_tier_kill_and_resume_reproduces_the_golden_digest`]).
const BACKENDS: [BackendKind; 3] = [
    BackendKind::Software,
    BackendKind::Sharded,
    BackendKind::Cosim,
];

/// Worlds used across the suite, built once (simulation dominates debug
/// runtime).
fn world(name: &str) -> &'static ScenarioWorld {
    static POOL: OnceLock<
        std::sync::Mutex<std::collections::HashMap<String, &'static ScenarioWorld>>,
    > = OnceLock::new();
    let pool = POOL.get_or_init(Default::default);
    let mut guard = pool.lock().expect("world pool lock");
    if let Some(world) = guard.get(name) {
        return world;
    }
    let s = find(name).expect("corpus scenario exists");
    let world: &'static ScenarioWorld = Box::leak(Box::new(
        s.build(s.default_seed()).expect("corpus world builds"),
    ));
    guard.insert(name.to_string(), world);
    world
}

/// Runs `world` uninterrupted on `backend` (the control arm of every
/// equivalence below).
fn run_uninterrupted(world: &ScenarioWorld, backend: BackendKind) -> SessionOutput {
    let mut session = builder_for_profile(world.camera, world.config.clone(), backend)
        .build()
        .expect("session builds");
    session
        .push_trajectory(&world.trajectory)
        .expect("trajectory pushes");
    let events = world.events.as_slice();
    let mut offset = 0usize;
    while offset < events.len() {
        offset += session.push_events(&events[offset..]).expect("events push");
        session.poll().expect("poll succeeds");
    }
    session.finish().expect("session finishes")
}

/// Feeds `world` into a fresh `backend` session up to event `cut`, snapshots
/// it into serialized `eventor-evtr/1` container bytes, and **drops the
/// session** — the kill. Only the returned bytes survive.
fn kill_at(world: &ScenarioWorld, backend: BackendKind, cut: usize) -> Vec<u8> {
    let mut session = builder_for_profile(world.camera, world.config.clone(), backend)
        .build()
        .expect("session builds");
    session
        .push_trajectory(&world.trajectory)
        .expect("trajectory pushes");
    let events = &world.events.as_slice()[..cut];
    let mut offset = 0usize;
    while offset < events.len() {
        offset += session.push_events(&events[offset..]).expect("events push");
        session.poll().expect("poll succeeds");
    }
    let origin = format!("scenario={} seed={:#x}", world.name, world.seed);
    let checkpoint = session.snapshot(&origin).expect("snapshot succeeds");
    let mut bytes = Vec::new();
    checkpoint
        .write_to(&mut bytes)
        .expect("checkpoint serializes");
    drop(session);
    bytes
}

/// Restores a session from container `bytes` on `backend`, feeds it the
/// remainder of the stream from `cut`, and finishes it.
fn restore_and_finish(
    world: &ScenarioWorld,
    backend: BackendKind,
    bytes: &[u8],
    cut: usize,
) -> SessionOutput {
    let checkpoint = SessionCheckpoint::read_from(bytes)
        .expect("container reads")
        .expect("payload decodes");
    assert_eq!(
        checkpoint.origin(),
        format!("scenario={} seed={:#x}", world.name, world.seed),
        "origin string survives the round trip"
    );
    assert_eq!(checkpoint.events_pushed(), cut as u64);
    let mut session = builder_for_profile(world.camera, world.config.clone(), backend)
        .restore(checkpoint)
        .expect("restore succeeds");
    let events = world.events.as_slice();
    let mut offset = cut;
    while offset < events.len() {
        offset += session.push_events(&events[offset..]).expect("events push");
        session.poll().expect("poll succeeds");
    }
    session.finish().expect("restored session finishes")
}

fn assert_bit_identical(a: &SessionOutput, b: &SessionOutput, label: &str) {
    let (a, b) = (&a.output, &b.output);
    assert_eq!(a.keyframes.len(), b.keyframes.len(), "{label}: keyframes");
    for (i, (x, y)) in a.keyframes.iter().zip(&b.keyframes).enumerate() {
        assert_eq!(x.votes_cast, y.votes_cast, "{label} keyframe {i}: votes");
        assert_eq!(x.frames_used, y.frames_used, "{label} keyframe {i}: frames");
        assert_eq!(x.events_used, y.events_used, "{label} keyframe {i}: events");
        assert_eq!(
            x.depth_map.depth_data(),
            y.depth_map.depth_data(),
            "{label} keyframe {i}: depth map"
        );
    }
}

/// The headline sweep: **every** corpus scenario × every backend, killed at
/// the stream midpoint and restored from bytes, reproduces the committed
/// golden digest.
#[test]
fn every_scenario_and_backend_survives_a_midpoint_kill_and_restore() {
    for scenario in corpus() {
        let world = world(scenario.name());
        let golden = golden_digest(&world.name).expect("scenario has a committed golden");
        for backend in BACKENDS {
            let cut = world.events.len() / 2;
            let bytes = kill_at(world, backend, cut);
            let restored = restore_and_finish(world, backend, &bytes, cut);
            assert_eq!(
                digest_output(&restored),
                golden,
                "{} on {backend}: restored run diverged from the golden digest",
                world.name
            );
        }
    }
}

/// Beyond the digest: the restored run is bit-identical to the uninterrupted
/// run in every output field, on every backend, at awkward non-midpoint cuts.
#[test]
fn restored_output_is_bit_identical_to_the_uninterrupted_run() {
    let world = world("shake_closeup");
    for backend in BACKENDS {
        let uninterrupted = run_uninterrupted(world, backend);
        for cut in [1usize, world.events.len() / 3, world.events.len() - 1] {
            let bytes = kill_at(world, backend, cut);
            let restored = restore_and_finish(world, backend, &bytes, cut);
            assert_bit_identical(
                &uninterrupted,
                &restored,
                &format!("{backend}, cut at {cut}"),
            );
        }
    }
}

/// Degenerate boundaries: a checkpoint before the first event and one after
/// the last event (but before `finish`) both restore to the golden output.
#[test]
fn edge_cuts_restore_exactly() {
    let world = world("orbit_burst");
    let golden = golden_digest(&world.name).expect("golden");
    for cut in [0usize, world.events.len()] {
        let bytes = kill_at(world, BackendKind::Software, cut);
        let restored = restore_and_finish(world, BackendKind::Software, &bytes, cut);
        assert_eq!(
            digest_output(&restored),
            golden,
            "cut at {cut} of {} events",
            world.events.len()
        );
    }
}

/// Checkpoints chain: a restored session is itself checkpointable, and a
/// twice-killed run still lands on the golden digest.
#[test]
fn a_restored_session_can_be_checkpointed_again() {
    let world = world("shake_closeup");
    let golden = golden_digest(&world.name).expect("golden");
    let events = world.events.as_slice();
    let (c1, c2) = (events.len() / 4, 3 * events.len() / 4);

    let bytes = kill_at(world, BackendKind::Sharded, c1);
    let checkpoint = SessionCheckpoint::read_from(bytes.as_slice())
        .expect("container reads")
        .expect("payload decodes");
    let mut session = builder_for_profile(world.camera, world.config.clone(), BackendKind::Sharded)
        .restore(checkpoint)
        .expect("first restore");
    let mut offset = c1;
    while offset < c2 {
        offset += session.push_events(&events[offset..c2]).expect("push");
        session.poll().expect("poll");
    }
    let origin = format!("scenario={} seed={:#x}", world.name, world.seed);
    let second = session.snapshot(&origin).expect("second snapshot");
    let mut bytes2 = Vec::new();
    second.write_to(&mut bytes2).expect("second serializes");
    drop(session);

    let restored = restore_and_finish(world, BackendKind::Sharded, &bytes2, c2);
    assert_eq!(
        digest_output(&restored),
        golden,
        "twice-killed run diverged"
    );
}

/// Every backend keeps one quantized vote volume, so a checkpoint taken on
/// one backend restores on any other: the session
/// migrates software → sharded → cosim mid-stream and still reproduces the
/// golden digest.
#[test]
fn checkpoint_migrates_across_backends_mid_stream() {
    let world = world("orbit_dense");
    let golden = golden_digest(&world.name).expect("golden");
    let events = world.events.as_slice();
    let (c1, c2) = (events.len() / 3, 2 * events.len() / 3);

    // Leg 1: software up to c1.
    let bytes = kill_at(world, BackendKind::Software, c1);
    // Leg 2: sharded from c1 to c2.
    let checkpoint = SessionCheckpoint::read_from(bytes.as_slice())
        .expect("container reads")
        .expect("payload decodes");
    assert_eq!(checkpoint.backend_kind(), "software");
    let mut session = builder_for_profile(world.camera, world.config.clone(), BackendKind::Sharded)
        .restore(checkpoint)
        .expect("software checkpoint restores on sharded");
    let mut offset = c1;
    while offset < c2 {
        offset += session.push_events(&events[offset..c2]).expect("push");
        session.poll().expect("poll");
    }
    let origin = format!("scenario={} seed={:#x}", world.name, world.seed);
    let mid = session.snapshot(&origin).expect("sharded snapshot");
    let mut bytes2 = Vec::new();
    mid.write_to(&mut bytes2).expect("serializes");
    drop(session);
    // Leg 3: cosim from c2 to the end.
    let restored = restore_and_finish(world, BackendKind::Cosim, &bytes2, c2);
    assert_eq!(
        digest_output(&restored),
        golden,
        "software→sharded→cosim migration diverged from the golden digest"
    );
}

/// A checkpoint of `world` on `backend` at the stream midpoint, which falls
/// mid-key-frame, with its u16 vote state and the cut.
fn midpoint_checkpoint(
    world: &ScenarioWorld,
    backend: BackendKind,
) -> (SessionCheckpoint, DsiVolume<u16>, usize) {
    let cut = world.events.len() / 2;
    let bytes = kill_at(world, backend, cut);
    let checkpoint = SessionCheckpoint::read_from(bytes.as_slice())
        .expect("container reads")
        .expect("payload decodes");
    let volume = match &checkpoint.driver().vote_state {
        BackendVoteState::Quantized(volume) => volume.clone(),
        BackendVoteState::Float(_) => panic!("the corpus runs the u16 datapath"),
    };
    assert!(volume.votes_cast() > 0, "the cut must fall mid-key-frame");
    (checkpoint, volume, cut)
}

/// Every backend keeps one DSI, so a sharded checkpoint carries exactly the
/// software backend's vote state.
#[test]
fn sharded_and_software_checkpoints_carry_the_same_vote_state() {
    let world = world("orbit_dense");
    let (_, software, _) = midpoint_checkpoint(world, BackendKind::Software);
    let (_, sharded, _) = midpoint_checkpoint(world, BackendKind::Sharded);
    assert_eq!(sharded, software);
}

/// `checkpoint`'s `CKPT` payload with its u16 vote state re-encoded as the
/// given `(width, height, vote-state bytes)` tiles — the layout of
/// checkpoints written when the sharded engine kept one DSI tile per shard.
fn with_vote_tiles(
    checkpoint: &SessionCheckpoint,
    volume: &DsiVolume<u16>,
    tiles: &[(usize, usize, Vec<u8>)],
) -> Vec<u8> {
    // The vote state closes the payload: a score-type tag, the tile count,
    // then per tile its width, height, byte length and bytes.
    let payload = checkpoint.encode();
    let tail = 1 + 8 + 3 * 8 + volume.encode_vote_state().len();
    let mut out = payload[..payload.len() - tail].to_vec();
    out.push(0);
    out.extend_from_slice(&(tiles.len() as u64).to_le_bytes());
    for (width, height, bytes) in tiles {
        out.extend_from_slice(&(*width as u64).to_le_bytes());
        out.extend_from_slice(&(*height as u64).to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out
}

/// A legacy four-tile vote state — a real one, split voxel by voxel into
/// four partial counts — decodes to the one volume and resumes to the
/// committed golden digest.
#[test]
fn legacy_multi_tile_vote_state_resumes_to_the_golden_digest() {
    let world = world("orbit_dense");
    let golden = golden_digest(&world.name).expect("golden");
    let (checkpoint, volume, cut) = midpoint_checkpoint(world, BackendKind::Sharded);
    let one = (volume.width(), volume.height(), volume.encode_vote_state());
    assert_eq!(
        with_vote_tiles(&checkpoint, &volume, &[one]),
        checkpoint.encode(),
        "the test's layout must match the encoder's"
    );

    let share = |n: u64, k: u64| n / 4 + u64::from(k < n % 4);
    let tiles: Vec<(usize, usize, Vec<u8>)> = (0..4)
        .map(|k| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&share(volume.votes_cast(), k).to_le_bytes());
            bytes.extend_from_slice(&share(volume.votes_missed(), k).to_le_bytes());
            for &score in volume.raw_scores() {
                bytes.extend_from_slice(&(share(u64::from(score), k) as u16).to_le_bytes());
            }
            (volume.width(), volume.height(), bytes)
        })
        .collect();
    let payload = with_vote_tiles(&checkpoint, &volume, &tiles);
    let decoded = SessionCheckpoint::decode(&payload).expect("legacy payload decodes");
    assert!(
        matches!(&decoded.driver().vote_state, BackendVoteState::Quantized(v) if *v == volume),
        "the four tiles must merge back into the original volume"
    );
    assert_eq!(decoded.encode(), checkpoint.encode());

    let mut container = Vec::new();
    eventor::events::write_ckpt(&payload, &mut container).expect("container writes");
    for backend in [BackendKind::Sharded, BackendKind::Software] {
        let resumed = restore_and_finish(world, backend, &container, cut);
        assert_eq!(digest_output(&resumed), golden, "{backend}");
    }
}

/// Untrusted tile headers never reach the merge or size an allocation: a
/// second tile of other dimensions, an empty tile list and a lone tile that
/// is not the camera's size are typed checkpoint errors.
#[test]
fn forged_vote_tiles_are_typed_checkpoint_errors() {
    let world = world("orbit_dense");
    let (checkpoint, volume, _) = midpoint_checkpoint(world, BackendKind::Sharded);
    let (width, height) = (volume.width(), volume.height());
    let planes = world.config.depth_planes().expect("planes");
    let narrow = DsiVolume::<u16>::new(width - 1, height, planes).expect("volume");
    let forged = [
        vec![
            (width, height, volume.encode_vote_state()),
            (width - 1, height, narrow.encode_vote_state()),
        ],
        Vec::new(),
        // One well-formed tile that is not sensor-sized: restore would size
        // the backend's DSI from the camera, not from the tile.
        vec![(width - 1, height, narrow.encode_vote_state())],
    ];
    for tiles in forged {
        let payload = with_vote_tiles(&checkpoint, &volume, &tiles);
        let err = SessionCheckpoint::decode(&payload).expect_err("forged tiles are refused");
        assert!(matches!(err, EmvsError::Checkpoint { .. }), "{err}");
    }
}

/// The serving tier's kill-and-resume: a session admitted into a
/// `ServeEngine`, checkpointed at an idle point, **aborted**, and resumed on
/// a fresh engine finishes to the committed golden digest.
#[test]
fn serve_tier_kill_and_resume_reproduces_the_golden_digest() {
    let world = world("spiral_multiplane");
    let golden = golden_digest(&world.name).expect("golden");
    let events = world.events.as_slice();
    let cut = events.len() / 2;

    let mut engine = ServeEngine::new(ServeConfig::new());
    let session = builder_for_profile(world.camera, world.config.clone(), BackendKind::Serve)
        .build()
        .expect("session builds");
    let id = engine.admit(session);
    engine
        .enqueue_trajectory(id, &world.trajectory)
        .expect("trajectory enqueues");
    let mut offset = 0usize;
    while offset < cut {
        offset += engine
            .enqueue_events(id, &events[offset..cut])
            .expect("events enqueue");
        engine.pump();
    }
    while engine.session_metrics(id).expect("metrics").queue_depth > 0 {
        engine.pump();
    }
    let checkpoint = engine
        .checkpoint_session(id, "serve kill-and-resume drill")
        .expect("idle session checkpoints");
    let mut bytes = Vec::new();
    checkpoint.write_to(&mut bytes).expect("serializes");
    // The kill: the original session errors out and is gone for good.
    engine
        .abort(
            id,
            EmvsError::InvalidConfig {
                reason: "injected operator kill".into(),
            },
        )
        .expect("abort lands");
    drop(engine);

    let checkpoint = SessionCheckpoint::read_from(bytes.as_slice())
        .expect("container reads")
        .expect("payload decodes");
    let mut engine = ServeEngine::new(ServeConfig::new());
    let id = engine.resume_session(checkpoint).expect("resume admits");
    let mut offset = cut;
    while offset < events.len() {
        offset += engine
            .enqueue_events(id, &events[offset..])
            .expect("events enqueue");
        engine.pump();
    }
    let output = engine.finish_session(id).expect("resumed session finishes");
    assert_eq!(
        digest_output(&output),
        golden,
        "serve-tier resume diverged from the golden digest"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The property form of the headline: a **proptest-chosen** kill point
    /// anywhere in the stream, on a proptest-chosen backend, restores to the
    /// golden digest.
    #[test]
    fn any_kill_point_on_any_backend_restores_to_golden(
        numerator in 0usize..1000,
        backend_index in 0usize..3,
    ) {
        let world = world("orbit_burst");
        let golden = golden_digest(&world.name).expect("golden");
        let backend = BACKENDS[backend_index];
        let cut = world.events.len() * numerator / 1000;
        let bytes = kill_at(world, backend, cut);
        let restored = restore_and_finish(world, backend, &bytes, cut);
        prop_assert_eq!(
            digest_output(&restored),
            golden,
            "{} on {}: kill at {} of {} events diverged",
            world.name.as_str(),
            backend,
            cut,
            world.events.len()
        );
    }
}

//! Byte pins of the three binary formats: the `eventor-evtr/1` record, the
//! `CKPT` checkpoint payload and every `eventor-wire/1` frame kind.
//!
//! Round-trip tests cannot catch an encoder and its decoder drifting
//! together; these pins can. Each case pins the length and the FNV-1a-64
//! digest of the exact bytes an encoder produces for a fixed input, so any
//! change to a layout — field order, width, endianness, a record byte —
//! fails here by format and case name. A deliberate format change bumps the
//! format's version and re-pins.

use eventor::events::{fnv1a_64, write_evtr, Event, Polarity};
use eventor::geom::{Pose, UnitQuaternion, Vec3};
use eventor::net::{
    code, encode_frame, DepthMapFrame, ManifestSource, SessionManifest, WireFrame,
    WireSessionEvent, DEFAULT_MAX_PAYLOAD,
};
use eventor::scenarios::{builder_for_profile, find, BackendKind, Scenario, ScenarioWorld};
use std::sync::OnceLock;

/// The pinned corpus world: an orbit whose half-stream cut falls inside its
/// second key frame, so a checkpoint carries a retired key frame, pending
/// events and a partial vote state.
fn world() -> &'static ScenarioWorld {
    static WORLD: OnceLock<ScenarioWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        let s = find("orbit_dense").expect("corpus scenario exists");
        s.build(s.default_seed()).expect("corpus world builds")
    })
}

/// `(length, FNV-1a-64)` of an encoding.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a_64(bytes))
}

#[test]
fn evtr_record_bytes_are_pinned() {
    let world = world();
    let mut bytes = Vec::new();
    write_evtr(&world.events, &world.trajectory, &mut bytes).expect("write to Vec");
    assert_eq!(
        pin(&bytes),
        (315_046, 0x33da_1620_3fd4_5b74),
        "orbit_dense record"
    );
}

#[test]
fn checkpoint_payload_bytes_are_pinned() {
    let world = world();
    let events = world.events.as_slice();
    let cut = events.len() / 2;
    for (backend, want) in [
        (BackendKind::Software, (627_882, 0x23b1_5ad4_3ee6_4e3a)),
        (BackendKind::Sharded, (627_881, 0xff0c_c23b_db3e_afbf)),
        (BackendKind::Cosim, (627_879, 0xabb5_42fe_b1f6_e279)),
    ] {
        let mut session = builder_for_profile(world.camera, world.config.clone(), backend)
            .build()
            .expect("session builds");
        session
            .push_trajectory(&world.trajectory)
            .expect("trajectory pushes");
        let mut offset = 0usize;
        while offset < cut {
            offset += session
                .push_events(&events[offset..cut])
                .expect("events push");
            session.poll().expect("poll succeeds");
        }
        let checkpoint = session
            .snapshot("scenario=orbit_dense seed=0xe00001")
            .expect("session snapshots");
        assert!(
            checkpoint.driver().frames_in_keyframe > 0,
            "{backend}: the cut must fall mid-key-frame"
        );
        assert_eq!(pin(&checkpoint.encode()), want, "{backend} checkpoint");
    }
}

/// One frame of every `eventor-wire/1` kind, request and reply sides.
fn one_frame_of_each_kind() -> Vec<(u64, WireFrame)> {
    vec![
        (0, WireFrame::Hello),
        (
            7,
            WireFrame::Admit {
                manifest: SessionManifest {
                    backend: BackendKind::Cosim,
                    source: ManifestSource::Scenario {
                        name: "orbit_dense".into(),
                        seed: 0xe0_0001,
                    },
                },
            },
        ),
        (
            7,
            WireFrame::Poses {
                samples: vec![
                    (0.0, Pose::identity()),
                    (
                        0.125,
                        Pose::new(
                            UnitQuaternion::from_euler(0.02, -0.01, 0.3),
                            Vec3::new(0.4, -0.1, 0.05),
                        ),
                    ),
                ],
            },
        ),
        (
            7,
            WireFrame::Events {
                events: vec![
                    Event::new(0.001, 3, 4, Polarity::Positive),
                    Event::new(0.002, 239, 179, Polarity::Negative),
                    Event::new(0.002, 0, 65535, Polarity::Positive),
                ],
            },
        ),
        (7, WireFrame::Poll),
        (7, WireFrame::Close),
        (7, WireFrame::Finish),
        (7, WireFrame::Discard),
        (0, WireFrame::Metrics),
        (0, WireFrame::Bye),
        (
            0,
            WireFrame::Ping {
                nonce: 0xfeed_face_cafe_f00d,
            },
        ),
        (
            0,
            WireFrame::Pong {
                nonce: 0xfeed_face_cafe_f00d,
            },
        ),
        (
            0,
            WireFrame::HelloOk {
                max_payload: DEFAULT_MAX_PAYLOAD,
                queue_capacity: 65536,
            },
        ),
        (7, WireFrame::Admitted { credits: 65536 }),
        (
            7,
            WireFrame::Rejected {
                code: code::OVERLOADED,
                reason: "admission refused: 4 live sessions at the cap of 4".into(),
            },
        ),
        (7, WireFrame::Ok),
        (
            7,
            WireFrame::EventsAck {
                accepted: 100,
                credits: 65436,
            },
        ),
        (
            7,
            WireFrame::Lifecycle {
                events: vec![
                    WireSessionEvent::SegmentRetired {
                        index: 0,
                        frames: 12,
                        events: 3400,
                    },
                    WireSessionEvent::DepthMapReady {
                        index: 0,
                        valid_pixels: 210,
                    },
                    WireSessionEvent::KeyframeReady {
                        index: 0,
                        votes_cast: 99,
                        map_points: 210,
                    },
                    WireSessionEvent::MapFused {
                        index: 0,
                        points: 210,
                        new_voxels: 11,
                    },
                ],
            },
        ),
        (
            7,
            WireFrame::DepthMap(DepthMapFrame {
                index: 1,
                width: 3,
                height: 2,
                votes_cast: 42,
                depths: vec![
                    1.0f64.to_bits(),
                    f64::NAN.to_bits(),
                    2.5f64.to_bits(),
                    0.0f64.to_bits(),
                    3.25f64.to_bits(),
                    4.5f64.to_bits(),
                ],
            }),
        ),
        (7, WireFrame::PollDone { credits: 65536 }),
        (
            7,
            WireFrame::Finished {
                digest: 0x0123_4567_89ab_cdef,
                keyframes: 4,
                events_processed: 24_000,
            },
        ),
        (
            0,
            WireFrame::MetricsReply {
                json: "{\n  \"format\": \"eventor-metrics/1\"\n}\n".into(),
            },
        ),
        (
            7,
            WireFrame::Error {
                code: code::SESSION,
                reason: "event at t=3 pushed out of time order".into(),
            },
        ),
        (0, WireFrame::ByeOk),
    ]
}

#[test]
fn every_wire_frame_kind_is_pinned() {
    let pins: [(&str, (usize, u64)); 24] = [
        ("Hello", (32, 0x2719_e632_87ff_3d73)),
        ("Admit", (57, 0xb231_e124_3614_4592)),
        ("Poses", (168, 0xf8a4_1f33_1c89_4b1c)),
        ("Events", (79, 0x53bf_5357_e58c_f5f1)),
        ("Poll", (32, 0xff05_7cd4_edbe_fc96)),
        ("Close", (32, 0x6b44_bd79_51d9_86f4)),
        ("Finish", (32, 0x5ff8_f55c_479b_1ed7)),
        ("Discard", (32, 0x55c4_24a8_a4e4_0dc5)),
        ("Metrics", (32, 0x374d_9774_8dae_7b52)),
        ("Bye", (32, 0xcc06_5145_851e_1247)),
        ("Ping", (40, 0x9603_428e_36a2_567a)),
        ("Pong", (40, 0x82d8_f328_6e04_46b0)),
        ("HelloOk", (44, 0x379e_8271_508b_039f)),
        ("Admitted", (40, 0x0419_ee56_ffd6_dcc0)),
        ("Rejected", (88, 0xf796_5224_f67b_c49d)),
        ("Ok", (32, 0x1fb8_8852_5552_a377)),
        ("EventsAck", (48, 0x2790_b777_f57d_a178)),
        ("Lifecycle", (140, 0x06c6_729d_f7ec_83ba)),
        ("DepthMap", (120, 0x9618_d4c3_c0cb_509e)),
        ("PollDone", (40, 0xf0cf_7d0a_f187_b7a0)),
        ("Finished", (56, 0xa487_d856_ec45_d22f)),
        ("MetricsReply", (72, 0xac52_f009_7765_6836)),
        ("Error", (75, 0x7c26_6f62_bbdc_cd95)),
        ("ByeOk", (32, 0x3749_0788_99ce_faa0)),
    ];
    let frames = one_frame_of_each_kind();
    let kinds: std::collections::BTreeSet<u16> = frames.iter().map(|(_, f)| f.kind()).collect();
    assert_eq!(kinds.len(), pins.len(), "one frame of each kind");
    for ((session, frame), (name, want)) in frames.iter().zip(pins) {
        assert_eq!(frame.kind_name(), name);
        assert_eq!(pin(&encode_frame(*session, frame)), want, "{name} frame");
    }
}

/// The second manifest source: an inline `eventor-fuzzworld/1` spec.
#[test]
fn spec_admission_frame_is_pinned() {
    let frame = WireFrame::Admit {
        manifest: SessionManifest {
            backend: BackendKind::Sharded,
            source: ManifestSource::Spec {
                text: "eventor-fuzzworld/1\nseed = 0x2a\n".into(),
            },
        },
    };
    assert_eq!(
        pin(&encode_frame(3, &frame)),
        (70, 0x522e_83f6_b479_adc0),
        "spec Admit frame"
    );
}

//! Digests and exact counts committed at the default seed. Every run at
//! [`DEFAULT_SEED`] checks its reference runs against these, so a change
//! that alters output bits or the frame/key-frame structure is caught even
//! when the measured and the reference backend drift together.

/// The seed the committed values were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// One DAVIS sequence's reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceGolden {
    pub name: &'static str,
    pub digest: u64,
    pub frames: u64,
    pub keyframes: u64,
}

const fn seq(name: &'static str, digest: u64, frames: u64, keyframes: u64) -> SequenceGolden {
    SequenceGolden {
        name,
        digest,
        frames,
        keyframes,
    }
}

/// `davis_vote`: the reference run of every sequence.
pub const DAVIS_VOTE: &[SequenceGolden] = &[
    seq("simulation_3planes", 0x6472de231c022133, 1338, 2),
    seq("simulation_3walls", 0xdf86e66258704b43, 1870, 1),
    seq("slider_close", 0x0f9bc5776c66bf58, 839, 2),
    seq("slider_far", 0xec4bc728b57a18e9, 1462, 2),
];

/// `wire_mix`: the software digest of every pool world.
pub const WIRE_POOL: &[(&str, u64)] = &[
    ("orbit_dense", 0x0ce7e1a4534a1d6b),
    ("orbit_burst", 0x02336df3a55ad1b4),
    ("spiral_multiplane", 0x8b37025c5f3a2024),
    ("spiral_sparse", 0x80b6cce276fd64e8),
    ("dolly_corridor", 0xddd5d0333222f691),
    ("dolly_dropout", 0x83ad0667e23e9747),
    ("shake_closeup", 0x2ba537e2aa240384),
    ("shake_hotpixel", 0x867a24e0e40c30a1),
    ("slide_clutter", 0x666293c0fbf35de7),
    ("slide_far_sparse", 0xbe70d3aea206af4b),
    ("orbit_dense", 0x23216c0cc252f4ce),
    ("orbit_burst", 0x3e1727d4cf41615c),
    ("spiral_multiplane", 0x0f3e677fe20733dc),
    ("spiral_sparse", 0x964f76bea36b9432),
    ("dolly_corridor", 0x13e3e72f300318d5),
    ("dolly_dropout", 0x7e430ab8e7c91bf7),
    ("shake_closeup", 0x220e1706e62187f5),
    ("shake_hotpixel", 0x06c2bd59ac2d5a7b),
    ("slide_clutter", 0x89637f09c8bdef90),
    ("slide_far_sparse", 0xb37a1beae5768afc),
];

/// `wire_mix` traced run: frames and key frames of the software replay.
pub const WIRE_CORE: (u64, u64) = (834, 96);

/// `wire_mix` traced run: simulated frames, votes applied and the bits of
/// the simulated accelerator seconds of the cosim replay.
pub const WIRE_HWSIM: (u64, u64, u64) = (120, 5_367_932, 4_583_984_363_262_202_360);

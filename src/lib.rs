//! # eventor
//!
//! Facade crate for the **Eventor** reproduction — "Eventor: An Efficient
//! Event-Based Monocular Multi-View Stereo Accelerator on FPGA Platform"
//! (DAC 2022).
//!
//! Each subsystem lives in its own workspace crate and is re-exported here as
//! a module, so a downstream user can depend on `eventor` alone:
//!
//! | module | contents |
//! |---|---|
//! | [`geom`] | vectors, matrices, SE(3) poses, trajectories, pinhole cameras, plane-induced homographies |
//! | [`events`] | event streams, aggregation, textured scenes, the event-camera simulator, the four synthetic evaluation sequences |
//! | [`fixed`] | the Table 1 fixed-point formats, quantization analysis and the one bit-true integer kernel |
//! | [`dsi`] | the disparity space image, voting, scene-structure detection, depth maps, point clouds |
//! | [`emvs`] | the EMVS space-sweep: the session driver, the one voting engine for every datapath (the original float one included), the quantized per-frame parameter block it shares with the device, and its profiler |
//! | [`map`] | global mapping: voxel-grid downsampling, depth-map fusion, the accumulated world map |
//! | [`hwsim`] | the Zynq accelerator model: one per-frame cost behind the Table 3 schedule, resources and power, plus the functional device that cost charges: a frame pass that runs the bit-true kernel on the shipped words and votes into the host's `DsiVolume<u16>` |
//! | [`core`] | the session API and its batch `reconstruct`, the accelerator driver, hardware/software co-simulation and the accuracy-comparison harness |
//! | [`serve`] | the multi-session serving engine: many concurrent streaming sessions multiplexed over a bounded worker pool |
//! | [`scenarios`] | the versioned scenario corpus: seeded synthetic worlds, reconstruction digests, the golden regression table |
//! | [`net`] | the TCP serving front-end: the versioned `eventor-wire/1` protocol, server and client, over `std::net` |
//!
//! ## Quick start: the streaming session API
//!
//! ```no_run
//! use eventor::core::{config_for_sequence, EventorOptions, EventorSession, SessionEvent};
//! use eventor::events::{DatasetConfig, SequenceKind, SyntheticSequence};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A synthetic stand-in for a live sensor + odometry feed.
//! let sequence = SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())?;
//!
//! // Push-based incremental reconstruction on the accelerator datapath.
//! let mut session = EventorSession::builder(sequence.camera, config_for_sequence(&sequence, 100))
//!     .software(EventorOptions::accelerator())
//!     .build()?;
//! for sample in sequence.trajectory.iter() {
//!     session.push_pose(sample.timestamp, sample.pose)?;
//! }
//! for packet in sequence.events.packets(1024) {
//!     session.push_events(packet)?;
//!     for event in session.poll()? {
//!         if let SessionEvent::KeyframeReady { index, .. } = event {
//!             println!("keyframe {index} ready");
//!         }
//!     }
//! }
//! let finished = session.finish()?;
//!
//! // Compare the semi-dense depth map against ground truth.
//! let primary = finished.output.keyframes.first().expect("at least one key frame");
//! let gt = sequence.ground_truth_depth_at(&primary.reference_pose);
//! let metrics = primary.depth_map.compare_to_ground_truth(gt.as_slice())?;
//! println!("AbsRel = {:.2}%", 100.0 * metrics.abs_rel);
//! # Ok(())
//! # }
//! ```
//!
//! The streaming session accepts pluggable execution backends
//! (`.software(..)`, `.sharded(..)`, `.cosim(..)` on the builder) with
//! bit-identical nearest-voting output. The datapath is an
//! [`core::EventorOptions`] preset — the original EMVS is
//! `EventorOptions::exact()`, the accelerator `EventorOptions::accelerator()`
//! — and `.sharded(..)` takes a [`core::ParallelConfig`] that splits the
//! DSI's depth planes over worker shards (see [`emvs::VotingEngine`] and
//! `docs/ARCHITECTURE.md`). A whole recording reconstructs in one call:
//! `EventorSession::builder(camera, config).software(options).reconstruct(&events, &trajectory)`
//! ([`core::SessionBuilder::reconstruct`]). To serve **many** concurrent
//! streams over shared compute, admit the sessions into a
//! [`serve::ServeEngine`]
//! (`docs/SERVING.md`), or put that engine behind a TCP socket with
//! [`net::WireServer`] and stream over the versioned `eventor-wire/1`
//! protocol (`docs/WIRE.md`).
//!
//! Test scenes come from the **scenario corpus** ([`scenarios`]): ten named,
//! seeded synthetic worlds with committed golden digests and deterministic
//! `.evtr` record/replay (`docs/SCENARIOS.md`, `eventor-cli`).
//!
//! See `README.md` for the crate map and the table mapping paper
//! figures/tables to their reproduction binaries, `docs/ARCHITECTURE.md` for
//! the dataflow/quantization/co-simulation contracts, and
//! `docs/BENCHMARKS.md` for the benchmark harness and its JSON schema.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use eventor_core as core;
pub use eventor_dsi as dsi;
pub use eventor_emvs as emvs;
pub use eventor_events as events;
pub use eventor_fixed as fixed;
pub use eventor_geom as geom;
pub use eventor_hwsim as hwsim;
pub use eventor_map as map;
pub use eventor_net as net;
pub use eventor_scenarios as scenarios;
pub use eventor_serve as serve;

/// Compile-checks every Rust code block in the repository's `README.md`
/// (the quickstart and serving snippets are doctests, not prose): doc rot
/// in the front page fails `cargo test --doc`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

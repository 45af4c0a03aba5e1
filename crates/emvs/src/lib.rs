//! # eventor-emvs
//!
//! The **baseline** event-based multi-view stereo (EMVS) mapper: the
//! space-sweep algorithm of Rebecq et al. that the paper runs on an Intel i5
//! CPU as its comparison point (Table 3, "Intel CPU" column; the "Original"
//! bars of Fig. 4 and Fig. 7a).
//!
//! The pipeline is the original (non-reformulated) schedule: events are
//! aggregated into 1024-event frames, distortion-corrected per frame,
//! back-projected onto the canonical plane `Z0` of the current key reference
//! view with a plane-induced homography, transferred to all DSI depth planes,
//! and voted into an `f32` DSI with **bilinear** voting. Scene structure is
//! detected per key frame and merged into a global point cloud.
//!
//! The hardware-friendly reformulation (streaming distortion correction,
//! pre-computed coefficients, nearest voting, fixed-point quantization) is
//! assembled in `eventor-core`. Its per-frame parameter block lives here:
//! [`QuantizedHomography`] and [`QuantizedCoefficients`] encode a frame's
//! `H_{Z0}` and `φ` once as Table 1's raw Q11.21 words, and the engine, the
//! golden-model tests and the co-simulated device call the bit-true kernel
//! of `eventor_fixed::kernel` on them.
//!
//! This crate also hosts the **streaming session core** shared by every
//! pipeline: the [`ExecutionBackend`] contract, the push/poll
//! [`SessionDriver`] and the one [`VotingEngine`], which runs every
//! [`EventorOptions`] datapath — the baseline float one included — at any
//! shard count. The baseline is [`EventorOptions::exact`]; `eventor-core`
//! wraps the driver in `EventorSession`, whose `SessionBuilder::reconstruct`
//! is the one batch entry point.
//!
//! ## Example
//!
//! ```no_run
//! use eventor_emvs::{EmvsConfig, EventorOptions, ParallelConfig, SessionDriver, VotingEngine};
//! use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sequence = SyntheticSequence::generate(SequenceKind::ThreePlanes, &DatasetConfig::fast_test())?;
//! let config = EmvsConfig::default().with_depth_range(sequence.depth_range.0, sequence.depth_range.1);
//! let engine = VotingEngine::new(sequence.camera, &config, EventorOptions::exact(), ParallelConfig::sequential())?;
//! let mut driver = SessionDriver::new(sequence.camera, config, engine)?.with_max_pending_events(usize::MAX);
//! driver.push_trajectory(&sequence.trajectory)?;
//! driver.push_events(sequence.events.as_slice())?;
//! let output = driver.finish()?;
//! println!("reconstructed {} key frames", output.keyframes.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod backproject;
mod config;
mod engine;
mod error;
mod keyframe;
mod mapper;
mod parallel;
mod profile;
mod quantized;
mod session;

pub use backproject::FrameGeometry;
pub use config::{EmvsConfig, EventorOptions, VotingMode};
pub use engine::{VotingEngine, VOTE_WINDOW_EVENTS};
pub use error::EmvsError;
pub use keyframe::KeyframeSelector;
pub use mapper::{EmvsOutput, KeyframeReconstruction};
pub use parallel::{run_sharded, ParallelConfig};
pub use profile::{Stage, StageProfile};
pub use quantized::{
    quantize_event_pixel, QuantizedCoefficients, QuantizedHomography, TransportTable,
    COORD_QUANTIZATION_ERROR,
};
pub use session::{
    finalize_volume, import_vote_volume, BackendVoteState, DriverCheckpoint, ExecutionBackend,
    FrameWork, SessionDriver, SessionEvent, DEFAULT_MAX_PENDING_EVENTS,
};

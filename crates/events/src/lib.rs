//! # eventor-events
//!
//! Event-camera substrate for the Eventor EMVS reproduction:
//!
//! * the [`Event`] / [`EventStream`] data model and [`aggregate`] (the
//!   paper's event-aggregation stage `𝒜`, 1024 events per frame),
//! * procedural textured 3-D scenes ([`Scene`], [`PlanarPatch`], [`Texture`]),
//! * a contrast-threshold event-camera simulator
//!   ([`EventCameraSimulator`]) in the spirit of the simulator shipped with
//!   the event-camera dataset the paper evaluates on,
//! * builders for synthetic stand-ins of the four evaluation sequences
//!   (`simulation_3planes`, `simulation_3walls`, `slider_close`,
//!   `slider_far`) with ground-truth depth at the reference view
//!   ([`SyntheticSequence`]),
//! * the `eventor-evtr/1` binary record/replay container
//!   ([`write_evtr`] / [`read_evtr`]): length-prefixed, checksummed,
//!   bit-exact — a recorded run replays to identical reconstruction output
//!   (`docs/SCENARIOS.md`).
//!
//! ## Example
//!
//! ```
//! use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence, aggregate};
//!
//! # fn main() -> Result<(), eventor_events::EventError> {
//! let config = DatasetConfig::fast_test();
//! let sequence = SyntheticSequence::generate(SequenceKind::SliderClose, &config)?;
//! let frames = aggregate(&sequence.events, 1024);
//! assert!(!frames.is_empty());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod datasets;
mod error;
mod event;
mod evtr;
mod fnv;
mod image;
mod io;
mod noise;
mod packet;
mod rate;
mod render;
mod scene;
mod simulator;
mod stream;
mod undistort;

pub use datasets::{DatasetConfig, SequenceKind, SyntheticSequence};
pub use error::EventError;
pub use event::{first_out_of_order, Event, Polarity};
pub use evtr::{
    read_ckpt, read_evtr, write_ckpt, write_evtr, CKPT_VERSION, EVTR_MAGIC, EVTR_VERSION,
};
pub use fnv::{fnv1a_64, Fnv64};
pub use image::Image;
pub use io::{read_events, read_trajectory, write_events, write_trajectory};
pub use noise::{NoiseConfig, NoiseInjector, NoiseReport};
pub use packet::{aggregate, EventFrame, FrameIter, DEFAULT_EVENTS_PER_FRAME};
pub use rate::{rate_profile, slice_stream, RateProfile, SlicePolicy, SliceStats};
pub use render::{render_depth, render_edge_map, render_log_intensity};
pub use scene::{PlanarPatch, RayHit, Scene, Texture};
pub use simulator::{EventCameraSimulator, SimulationStats, SimulatorConfig};
pub use stream::EventStream;
pub use undistort::UndistortionLut;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn aggregation_preserves_count_and_order(
            n_events in 1usize..5000,
            frame_size in 1usize..2048,
        ) {
            let stream: EventStream = (0..n_events)
                .map(|i| Event::new(i as f64 * 1e-4, (i % 240) as u16, (i % 180) as u16, Polarity::Positive))
                .collect();
            let frames = aggregate(&stream, frame_size);
            let total: usize = frames.iter().map(|f| f.len()).sum();
            prop_assert_eq!(total, n_events);
            prop_assert_eq!(frames.len(), n_events.div_ceil(frame_size));
            // Every frame except possibly the last is full.
            for f in &frames[..frames.len() - 1] {
                prop_assert_eq!(f.len(), frame_size);
            }
            // Global time order is preserved across frame boundaries.
            for w in frames.windows(2) {
                prop_assert!(w[0].end_time().unwrap() <= w[1].start_time().unwrap());
            }
        }

        #[test]
        fn stream_slice_time_is_consistent(
            times in proptest::collection::vec(0.0..10.0f64, 1..200),
            a in 0.0..10.0f64,
            b in 0.0..10.0f64,
        ) {
            let stream = EventStream::from_unsorted(
                times.iter().map(|&t| Event::new(t, 0, 0, Polarity::Positive)).collect(),
            );
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let sliced = stream.slice_time(lo, hi);
            let expected = stream.iter().filter(|e| e.t >= lo && e.t < hi).count();
            prop_assert_eq!(sliced.len(), expected);
        }

        #[test]
        fn textures_always_in_unit_interval(
            u in -10.0..10.0f64,
            v in -10.0..10.0f64,
            seed in 0u64..1000,
        ) {
            for tex in [
                Texture::Checkerboard { period: 0.17 },
                Texture::MultiScaleSine { base_frequency: 3.0, octaves: 5, phase: 1.1 },
                Texture::Blobs { spacing: 0.25, radius_fraction: 0.4, seed },
            ] {
                let s = tex.sample(u, v);
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }
    }
}

#[cfg(test)]
mod evtr_proptests {
    use super::*;
    use eventor_geom::{Pose, Trajectory, UnitQuaternion, Vec3};
    use proptest::prelude::*;

    /// Builds a valid stream + trajectory pair from proptest-drawn raw data.
    fn build_inputs(
        raw_events: &[(f64, u16, u16, u8)],
        raw_poses: &[(f64, f64, f64)],
    ) -> (EventStream, Trajectory) {
        let stream = EventStream::from_unsorted(
            raw_events
                .iter()
                .map(|&(t, x, y, pos)| {
                    let p = if pos == 1 {
                        Polarity::Positive
                    } else {
                        Polarity::Negative
                    };
                    Event::new(t, x, y, p)
                })
                .collect(),
        );
        // Strictly increasing timestamps via a cumulative sum of positive
        // steps; rotations vary per sample.
        let mut t = 0.0;
        let samples: Vec<(f64, Pose)> = raw_poses
            .iter()
            .enumerate()
            .map(|(i, &(dt, tx, ty))| {
                t += 1e-4 + dt.abs();
                let pose = Pose::new(
                    UnitQuaternion::from_euler(0.01 * i as f64, tx * 0.1, ty * 0.1),
                    Vec3::new(tx, ty, 0.1 * i as f64),
                );
                (t, pose)
            })
            .collect();
        let trajectory = if samples.is_empty() {
            Trajectory::new()
        } else {
            Trajectory::from_samples(samples).expect("strictly increasing")
        };
        (stream, trajectory)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn evtr_round_trip_preserves_everything(
            raw_events in prop::collection::vec(
                (0.0..100.0f64, 0u16..240, 0u16..180, 0u8..2),
                0..400,
            ),
            raw_poses in prop::collection::vec(
                (0.0..0.1f64, -1.0..1.0f64, -1.0..1.0f64),
                0..40,
            ),
        ) {
            let (stream, trajectory) = build_inputs(&raw_events, &raw_poses);
            let mut buf = Vec::new();
            write_evtr(&stream, &trajectory, &mut buf).expect("write to Vec");
            let (s, t) = read_evtr(buf.as_slice()).expect("round trip reads");
            prop_assert_eq!(&s, &stream);
            prop_assert_eq!(t.len(), trajectory.len());
            for (a, b) in trajectory.iter().zip(t.iter()) {
                prop_assert_eq!(a.timestamp.to_bits(), b.timestamp.to_bits());
                prop_assert_eq!(
                    a.pose.translation.x.to_bits(), b.pose.translation.x.to_bits());
                prop_assert_eq!(
                    a.pose.translation.y.to_bits(), b.pose.translation.y.to_bits());
                prop_assert_eq!(
                    a.pose.translation.z.to_bits(), b.pose.translation.z.to_bits());
                prop_assert_eq!(a.pose.rotation.w.to_bits(), b.pose.rotation.w.to_bits());
                prop_assert_eq!(a.pose.rotation.x.to_bits(), b.pose.rotation.x.to_bits());
            }
        }

        #[test]
        fn evtr_rejects_any_single_byte_corruption(
            raw_events in prop::collection::vec(
                (0.0..10.0f64, 0u16..240, 0u16..180, 0u8..2),
                1..100,
            ),
            position in 0.0..1.0f64,
            flip in 1u16..256,
        ) {
            let (stream, trajectory) = build_inputs(&raw_events, &[(0.01, 0.0, 0.0), (0.02, 0.5, 0.1)]);
            let mut buf = Vec::new();
            write_evtr(&stream, &trajectory, &mut buf).expect("write to Vec");
            let at = ((buf.len() - 1) as f64 * position) as usize;
            buf[at] ^= flip as u8;
            // Any bit flip anywhere must be caught: by the checksum footer,
            // or (for flips inside the footer itself) by the checksum
            // comparison against the intact body.
            prop_assert!(read_evtr(buf.as_slice()).is_err(), "flip at byte {} accepted", at);
        }

        #[test]
        fn evtr_rejects_any_version_skew(
            raw_events in prop::collection::vec(
                (0.0..10.0f64, 0u16..240, 0u16..180, 0u8..2),
                1..50,
            ),
            version in 0u32..0xffff_ffff,
        ) {
            prop_assume!(version != EVTR_VERSION);
            let (stream, trajectory) = build_inputs(&raw_events, &[(0.01, 0.2, -0.1)]);
            let mut buf = Vec::new();
            write_evtr(&stream, &trajectory, &mut buf).expect("write to Vec");
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            // Re-seal the checksum so the version check itself (not the
            // checksum footer) must reject the recorder/replayer skew.
            let n = buf.len();
            let fixed = fnv1a_64(&buf[..n - 8]).to_le_bytes();
            buf[n - 8..].copy_from_slice(&fixed);
            let err = read_evtr(buf.as_slice()).expect_err("version skew accepted");
            prop_assert!(matches!(err, EventError::InvalidRecord { .. }));
            prop_assert!(err.to_string().contains("unsupported evtr version"), "{}", err);
        }

        #[test]
        fn evtr_rejects_any_nonzero_reserved_bytes(
            raw_events in prop::collection::vec(
                (0.0..10.0f64, 0u16..240, 0u16..180, 0u8..2),
                1..50,
            ),
            reserved in 1u32..0xffff_ffff,
        ) {
            let (stream, trajectory) = build_inputs(&raw_events, &[(0.01, 0.2, -0.1)]);
            let mut buf = Vec::new();
            write_evtr(&stream, &trajectory, &mut buf).expect("write to Vec");
            buf[12..16].copy_from_slice(&reserved.to_le_bytes());
            let n = buf.len();
            let fixed = fnv1a_64(&buf[..n - 8]).to_le_bytes();
            buf[n - 8..].copy_from_slice(&fixed);
            let err = read_evtr(buf.as_slice()).expect_err("nonzero reserved accepted");
            prop_assert!(matches!(err, EventError::InvalidRecord { .. }));
            prop_assert!(err.to_string().contains("reserved header bytes"), "{}", err);
        }

        #[test]
        fn evtr_rejects_every_truncation(
            raw_events in prop::collection::vec(
                (0.0..10.0f64, 0u16..240, 0u16..180, 0u8..2),
                1..60,
            ),
            cut_fraction in 0.0..1.0f64,
        ) {
            let (stream, trajectory) = build_inputs(&raw_events, &[(0.01, 0.3, -0.2)]);
            let mut buf = Vec::new();
            write_evtr(&stream, &trajectory, &mut buf).expect("write to Vec");
            let cut = (buf.len() as f64 * cut_fraction) as usize; // strictly < len
            prop_assert!(
                read_evtr(&buf[..cut]).is_err(),
                "prefix of {} of {} bytes accepted",
                cut,
                buf.len()
            );
        }
    }
}

#[cfg(test)]
mod slicing_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn adaptive_slicing_conserves_events_and_respects_caps(
            n_events in 1usize..4000,
            target in 16usize..1024,
            max_ms in 1.0..20.0f64,
            burst_period in 2usize..50,
        ) {
            // A stream whose instantaneous rate alternates between fast and
            // slow stretches, so both the count cap and the duration cap are
            // exercised.
            let stream: EventStream = (0..n_events)
                .map(|i| {
                    let dt = if (i / burst_period) % 2 == 0 { 1e-5 } else { 4e-4 };
                    Event::new(i as f64 * dt, (i % 240) as u16, (i % 180) as u16, Polarity::Positive)
                })
                .collect();
            let max_seconds = max_ms * 1e-3;
            let (frames, stats) =
                slice_stream(&stream, SlicePolicy::Adaptive { events: target, max_seconds });
            let total: usize = frames.iter().map(EventFrame::len).sum();
            prop_assert_eq!(total, n_events);
            prop_assert!(stats.max_events <= target);
            prop_assert!(stats.max_duration <= max_seconds + 4e-4 + 1e-9);
            // Frames are non-empty, consecutively indexed and time ordered.
            for (i, f) in frames.iter().enumerate() {
                prop_assert!(!f.is_empty());
                prop_assert_eq!(f.index, i);
            }
            for w in frames.windows(2) {
                prop_assert!(w[0].end_time().unwrap() <= w[1].start_time().unwrap());
            }
        }

        #[test]
        fn noise_injection_never_loses_more_than_the_drop_fraction_allows(
            n_events in 100usize..3000,
            drop_probability in 0.0..0.5f64,
            seed in 0u64..500,
        ) {
            let stream: EventStream = (0..n_events)
                .map(|i| Event::new(i as f64 * 1e-4, (i % 80) as u16, (i % 60) as u16, Polarity::Positive))
                .collect();
            let config = NoiseConfig {
                drop_probability,
                background_activity_rate: 0.0,
                hot_pixel_fraction: 0.0,
                hot_pixel_rate: 0.0,
                timestamp_jitter_std: 0.0,
                seed,
            };
            let (out, report) = NoiseInjector::new(80, 60, config).corrupt(&stream);
            prop_assert_eq!(report.signal_events + report.dropped_events, n_events);
            prop_assert_eq!(out.len(), report.signal_events);
            // The realised drop fraction concentrates around the requested one.
            let realised = report.dropped_events as f64 / n_events as f64;
            prop_assert!((realised - drop_probability).abs() < 0.15);
            // Surviving events are untouched (no jitter configured).
            prop_assert!(out.iter().all(|e| e.x < 80 && e.y < 60));
        }

        #[test]
        fn undistortion_lut_agrees_with_exact_model_on_random_pixels(
            xs in prop::collection::vec(0u16..260, 1..50),
            ys in prop::collection::vec(0u16..200, 1..50),
            far in (0u32..1 << 16, 0u32..1 << 16),
        ) {
            // The DAVIS lens and the `shake_hotpixel` scenario's radial lens,
            // on and just past the sensor and anywhere up to u16::MAX: the
            // table equals the exact solve bit for bit, NaN included.
            let davis = eventor_geom::CameraModel::davis240_distorted();
            let shake = eventor_geom::CameraModel::new(
                davis.intrinsics,
                eventor_geom::DistortionModel::radial(-0.15, 0.04, 0.0),
            );
            let far = (far.0 as u16, far.1 as u16);
            for camera in [davis, shake] {
                let lut = UndistortionLut::build(&camera);
                for (x, y) in xs.iter().copied().zip(ys.iter().copied()).chain([far]) {
                    let exact = camera.undistort_pixel(eventor_geom::Vec2::new(x as f64, y as f64));
                    let table = lut.lookup(x, y);
                    prop_assert_eq!(
                        (table.x.to_bits(), table.y.to_bits()),
                        (exact.x.to_bits(), exact.y.to_bits()),
                        "pixel ({}, {})", x, y
                    );
                }
            }
        }
    }
}

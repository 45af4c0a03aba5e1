//! Throughput of the bit-true integer datapath kernel versus the
//! pre-refactor `f64`-hoisted arithmetic, on the quantized per-event hot
//! path (canonical projection + per-plane nearest transfer, the work
//! `PE_Z0` + the `PE_Zi` array perform per event).
//!
//! Rows (group `quantized_kernel`, `eventor-bench/1` JSON):
//!
//! * `f64_hoisted_reference` — a frozen re-implementation of the datapath
//!   this repository shipped before the kernel refactor: Q11.21 parameters
//!   decoded once per frame to hoisted `f64` tables, per-event `f64` MACs,
//!   division, `round()` and bounds checks between the quantization points;
//! * `integer_kernel` — the same arithmetic through
//!   `eventor_fixed::kernel`: raw words in, `i64` wide accumulators,
//!   exact-rational rounding, integer nearest-voxel finder, one event at a
//!   time (the pre-vectorization scalar path, kept as a tier baseline);
//! * `batched_kernel` — the arithmetic the engine actually runs:
//!   `kernel::batch` batched projection + per-plane nearest transfer through
//!   the runtime-dispatched SIMD or scalar tier, with reused output buffers
//!   (the shape of `DsiVolume::vote_batch`, minus the slab writes);
//! * `project_z0_1024` — the batched `PE_Z0` projection alone
//!   (`batch::project_z0_batch` over the 1024 events into a reused
//!   buffer), so the projection's share of `batched_kernel` is a number of
//!   its own. Its throughput is events, not plane transfers, and it
//!   carries no bar.
//!
//! Every JSON document carries a `"context"` object recording which
//! dispatch tier (`avx2` / `neon` / `scalar`) actually executed,
//! so recorded figures are attributable to a code path, not just a host.
//!
//! Throughput is reported in plane transfers per iteration
//! (`events × planes`), except for `project_z0_1024`. The repository's acceptance bars are
//! `batched_kernel` ≥ 2.5× and `integer_kernel` ≥ 1.2× the reference's
//! throughput (`docs/BENCHMARKS.md`); the bench prints the measured
//! speedups after the run by reading back the JSON documents.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use eventor_core::{QuantizedCoefficients, QuantizedHomography};
use eventor_dsi::DepthPlanes;
use eventor_emvs::FrameGeometry;
use eventor_fixed::kernel::batch;
use eventor_fixed::kernel::{self, PhiWords};
use eventor_fixed::{PackedCoord, PlaneCoord, Q11p21, Q9p7};
use eventor_geom::{CameraIntrinsics, Pose, Vec3};
use std::hint::black_box;

const SENSOR_W: u32 = 240;
const SENSOR_H: u32 = 180;
const NUM_EVENTS: usize = 1024;
const NUM_PLANES: usize = 100;

/// The pre-refactor golden-model hot path, kept verbatim as the comparison
/// baseline: `QuantizedHomography::project_hoisted` plus
/// `QuantizedCoefficients::transfer_hoisted` + `PlaneCoord::from_projection`
/// as they existed before the kernel refactor. Do not "optimize" this — it
/// is the measurement reference. (A `#[cfg(test)]` transcription of the
/// same projection lives in `crates/fixed/src/kernel.rs::f64_reference`
/// for the correctness proptests; this copy exists because benches cannot
/// see test-only items. Keep both frozen.)
mod f64_reference {
    use super::*;

    pub struct HoistedParams {
        pub homography: [[f64; 3]; 3],
        pub coefficients: Vec<(f64, f64, f64)>,
    }

    pub fn hoist(h: &QuantizedHomography, phi: &[PhiWords]) -> HoistedParams {
        let mut homography = [[0.0; 3]; 3];
        for (i, row) in homography.iter_mut().enumerate() {
            for (j, e) in row.iter_mut().enumerate() {
                *e = h.entry(i, j);
            }
        }
        let coefficients = phi
            .iter()
            .map(|w| {
                (
                    Q11p21::from_raw(w.scale).to_f64(),
                    Q11p21::from_raw(w.offset_x).to_f64(),
                    Q11p21::from_raw(w.offset_y).to_f64(),
                )
            })
            .collect();
        HoistedParams {
            homography,
            coefficients,
        }
    }

    #[inline]
    pub fn project_hoisted(h: &[[f64; 3]; 3], coord: PackedCoord) -> Option<PackedCoord> {
        let x = coord.x_f64();
        let y = coord.y_f64();
        let w = h[2][0] * x + h[2][1] * y + h[2][2];
        if w.abs() < 1e-9 {
            return None;
        }
        let px = (h[0][0] * x + h[0][1] * y + h[0][2]) / w;
        let py = (h[1][0] * x + h[1][1] * y + h[1][2]) / w;
        if !px.is_finite() || !py.is_finite() {
            return None;
        }
        if px.abs() > Q9p7::MAX_MAGNITUDE || py.abs() > Q9p7::MAX_MAGNITUDE {
            return None;
        }
        Some(PackedCoord::from_f64(px, py))
    }

    /// One frame of the pre-refactor hot loop; returns the in-sensor vote
    /// count (what the engine accumulates).
    pub fn frame_votes(params: &HoistedParams, events: &[PackedCoord]) -> u64 {
        let mut votes = 0u64;
        for &coord in events {
            let Some(c) = project_hoisted(&params.homography, coord) else {
                continue;
            };
            let (cx, cy) = (c.x_f64(), c.y_f64());
            for &(scale, off_x, off_y) in &params.coefficients {
                let x = scale * cx + off_x;
                let y = scale * cy + off_y;
                if PlaneCoord::from_projection(x, y, SENSOR_W, SENSOR_H).is_inside() {
                    votes += 1;
                }
            }
        }
        votes
    }
}

/// One frame of the integer-kernel hot loop (the engine's accelerator
/// datapath, event-major and one event at a time, minus the DSI writes
/// both variants skip).
fn kernel_frame_votes(h: &[i32; 9], phi: &[PhiWords], events: &[PackedCoord]) -> u64 {
    let mut votes = 0u64;
    for &coord in events {
        let Some(c) = kernel::project_z0(h, coord) else {
            continue;
        };
        for w in phi {
            if kernel::transfer_nearest(w, c, SENSOR_W, SENSOR_H).is_inside() {
                votes += 1;
            }
        }
    }
    votes
}

/// One frame of the vectorized hot loop (the shape of
/// `DsiVolume::vote_batch` fed by `project_z0_batch`, minus the slab
/// writes): batched canonical projection once, then one batched per-plane
/// transfer over the survivors, counting in-sensor deposits (the transfer
/// writes only those, so each plane's count is the output's length).
/// `canon` and `idx` are reused across iterations exactly like the
/// engine's `VoteArena`, so the measurement excludes steady-state-free
/// allocation.
fn batched_frame_votes(
    h: &[i32; 9],
    phi: &[PhiWords],
    events: &[PackedCoord],
    canon: &mut Vec<PackedCoord>,
    idx: &mut Vec<u32>,
) -> u64 {
    batch::project_z0_batch(h, events, canon);
    let mut votes = 0u64;
    for w in phi {
        batch::transfer_nearest_batch(w, canon, SENSOR_W, SENSOR_H, idx);
        votes += idx.len() as u64;
    }
    votes
}

fn setup() -> (QuantizedHomography, Vec<PhiWords>, Vec<PackedCoord>) {
    let intrinsics = CameraIntrinsics::davis240_default();
    let planes = DepthPlanes::uniform_inverse_depth(0.6, 6.0, NUM_PLANES).unwrap();
    let reference = Pose::identity();
    let frame_pose = Pose::from_translation(Vec3::new(0.08, -0.01, 0.02));
    let geometry = FrameGeometry::compute(&reference, &frame_pose, &intrinsics, &planes).unwrap();
    let qh = QuantizedHomography::from_homography(&geometry.homography);
    let qphi = QuantizedCoefficients::from_coefficients(&geometry.coefficients);
    let events: Vec<PackedCoord> = (0..NUM_EVENTS)
        .map(|i| PackedCoord::from_f64((i * 7 % 240) as f64 + 0.25, (i * 13 % 180) as f64 + 0.5))
        .collect();
    (qh, qphi.words().to_vec(), events)
}

fn bench_quantized_kernel(c: &mut Criterion) {
    let (qh, phi, events) = setup();
    let words = qh.raw_words();
    let hoisted = f64_reference::hoist(&qh, &phi);

    // All three paths must agree on the workload before being compared: the
    // kernel rounds the exact rational where the reference rounded an `f64`
    // quotient, so allow only tie-breaking slack (none occurs here), and the
    // batched tiers are bit-identical to the scalar kernel by contract.
    let ref_votes = f64_reference::frame_votes(&hoisted, &events);
    let int_votes = kernel_frame_votes(&words, &phi, &events);
    let mut canon = Vec::new();
    let mut idx = Vec::new();
    let batched_votes = batched_frame_votes(&words, &phi, &events, &mut canon, &mut idx);
    assert_eq!(
        ref_votes, int_votes,
        "kernel and f64 reference disagree on the benchmark workload"
    );
    assert_eq!(
        int_votes, batched_votes,
        "batched kernel and scalar kernel disagree on the benchmark workload"
    );
    assert!(ref_votes > 0, "degenerate workload");

    let mut group = c.benchmark_group("quantized_kernel");
    group.throughput(Throughput::Elements((NUM_EVENTS * NUM_PLANES) as u64));
    // Record which dispatch tier the batched row actually exercised; panics
    // here (unknown/unsupported EVENTOR_KERNEL_DISPATCH) are the same typed
    // errors the engine would raise, surfaced before any timing runs.
    group.context("dispatch_tier", batch::active().name());

    group.bench_function("f64_hoisted_reference", |b| {
        b.iter(|| black_box(f64_reference::frame_votes(&hoisted, black_box(&events))))
    });
    group.bench_function("integer_kernel", |b| {
        b.iter(|| black_box(kernel_frame_votes(&words, &phi, black_box(&events))))
    });
    group.bench_function("batched_kernel", |b| {
        b.iter(|| {
            black_box(batched_frame_votes(
                &words,
                &phi,
                black_box(&events),
                &mut canon,
                &mut idx,
            ))
        })
    });
    group.throughput(Throughput::Elements(NUM_EVENTS as u64));
    group.bench_function("project_z0_1024", |b| {
        b.iter(|| {
            batch::project_z0_batch(&words, black_box(&events), &mut canon);
            black_box(canon.len())
        })
    });
    group.finish();

    // Local runs only report, so contributors on unusual hosts are never
    // blocked by a wall-clock ratio; CI opts into hard enforcement with
    // EVENTOR_ENFORCE_BENCH=1 because the recorded margins (~12x vs the
    // 2.5x bar on AVX2, ~3x vs the 1.2x scalar bar) dwarf runner noise
    // (docs/BENCHMARKS.md). The readback, the verdict line and the
    // never-silently-skipped rule live in the shared helper.
    eventor_bench::enforce::enforce_speedup_bar(
        "quantized_kernel",
        "f64_hoisted_reference",
        "integer_kernel",
        eventor_bench::enforce::SpeedupBar::Fixed(1.2),
    );
    eventor_bench::enforce::enforce_speedup_bar(
        "quantized_kernel",
        "f64_hoisted_reference",
        "batched_kernel",
        eventor_bench::enforce::SpeedupBar::Fixed(2.5),
    );
}

criterion_group!(benches, bench_quantized_kernel);
criterion_main!(benches);

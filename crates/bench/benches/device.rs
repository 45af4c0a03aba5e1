//! Benchmarks of the functional device model: the frame pass (the `PE_Z0`
//! projection, then plane by plane the `PE_Zi` transfers and the Vote
//! Execute Unit's deposits, fused in one kernel face) into a DSI that keeps
//! its scores, and a complete frame on a fresh device and DSI.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use eventor_dsi::{DepthPlanes, DsiVolume};
use eventor_fixed::kernel::{self, PhiWords};
use eventor_fixed::PackedCoord;
use eventor_hwsim::{AcceleratorConfig, EventorDevice, FrameJob, FrameKind};
use std::hint::black_box;

fn event_words(n: usize) -> Vec<u32> {
    (0..n)
        .map(|i| PackedCoord::from_f64((i % 240) as f64, (i % 180) as f64).to_word())
        .collect()
}

fn near_identity_homography() -> [i32; 9] {
    kernel::quantize_homography(&[
        [1.001, 0.0002, -0.4],
        [-0.0001, 0.999, 0.3],
        [1e-5, -2e-5, 1.0],
    ])
}

fn phi_words(planes: usize) -> Vec<PhiWords> {
    (0..planes)
        .map(|i| {
            let r = 1.0 - 0.002 * i as f64;
            PhiWords::from_f64(r, (1.0 - r) * 120.0, (1.0 - r) * 90.0)
        })
        .collect()
}

/// A zeroed 240×180×100 DSI, the default configuration's.
fn paper_scale_dsi() -> DsiVolume<u16> {
    let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 100).expect("100 planes");
    DsiVolume::new(240, 180, planes).expect("a 240x180 DSI")
}

/// A normal 1024-event, 100-plane frame under the near-identity homography.
fn normal_frame() -> FrameJob {
    FrameJob {
        event_words: event_words(1024),
        homography_words: near_identity_homography(),
        phi_words: phi_words(100),
        kind: FrameKind::Normal,
    }
}

fn bench_device(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");

    // The frame pass: every event projected, every survivor transferred to
    // each of 100 planes and its in-sensor vote deposited, into one DSI
    // that keeps its scores. One untimed frame first faults the DSI's pages
    // in, so the row times the pass alone.
    group.bench_function("frame_pass_1024x100", |b| {
        let job = normal_frame();
        let mut device = EventorDevice::new(AcceleratorConfig::default());
        let mut dsi = paper_scale_dsi();
        device.run_frame(&job, &mut dsi).expect("a valid job");
        b.iter(|| black_box(device.run_frame(&job, &mut dsi)))
    });

    // One frame on a fresh device and a fresh DSI, whose pages the frame
    // faults in.
    group.bench_function("fresh_dsi_frame_1024x100", |b| {
        let config = AcceleratorConfig::default();
        let job = normal_frame();
        b.iter_batched(
            || (EventorDevice::new(config.clone()), paper_scale_dsi()),
            |(mut device, mut dsi)| black_box(device.run_frame(&job, &mut dsi)),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_device);
criterion_main!(benches);

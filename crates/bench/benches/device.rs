//! Benchmarks of the functional device model: the bit-accurate `PE_Z0`
//! projection, the plane-by-plane frame pass of the `PE_Zi` array and the
//! Vote Execute Unit (whole, and its DSI deposit alone), the DMA descriptor
//! engine and a complete frame executed through the register interface.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use eventor_fixed::{kernel, PackedCoord};
use eventor_hwsim::{
    AcceleratorConfig, DmaEngine, DsiDram, EventorDevice, FrameJob, FrameKind, HomographyRegisters,
    PeZ0Datapath, PeZiArrayDatapath, PhiEntry,
};
use std::hint::black_box;

fn event_words(n: usize) -> Vec<u32> {
    (0..n)
        .map(|i| PackedCoord::from_f64((i % 240) as f64, (i % 180) as f64).to_word())
        .collect()
}

fn near_identity_homography() -> HomographyRegisters {
    HomographyRegisters::from_matrix(&[
        [1.001, 0.0002, -0.4],
        [-0.0001, 0.999, 0.3],
        [1e-5, -2e-5, 1.0],
    ])
}

fn phi_words(planes: usize) -> Vec<PhiEntry> {
    (0..planes)
        .map(|i| {
            let r = 1.0 - 0.002 * i as f64;
            PhiEntry::from_f64(r, (1.0 - r) * 120.0, (1.0 - r) * 90.0)
        })
        .collect()
}

/// The `Buf_I` bank of a 1024-event frame under the near-identity
/// homography.
fn canonical_survivors(n: usize) -> Vec<PackedCoord> {
    let mut survivors = Vec::new();
    PeZ0Datapath::new().project_frame(&near_identity_homography(), &event_words(n), &mut survivors);
    survivors
}

fn bench_device(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");

    group.bench_function("pe_z0_project_1024_events", |b| {
        let h = near_identity_homography();
        let words = event_words(1024);
        let mut survivors = Vec::with_capacity(words.len());
        b.iter(|| {
            let mut pe = PeZ0Datapath::new();
            pe.project_frame(&h, &words, &mut survivors);
            black_box(survivors.len())
        })
    });

    // The frame pass: every survivor transferred to each of 100 planes and
    // its in-sensor vote deposited, into one DSI that keeps its scores.
    group.bench_function("pe_zi_vote_frame_1024x100", |b| {
        let canonical = canonical_survivors(1024);
        let phi = phi_words(100);
        let mut dram = DsiDram::new(240, 180, 100);
        b.iter(|| {
            let mut array = PeZiArrayDatapath::new(phi.clone(), 2, 240, 180);
            black_box(array.vote_frame(&canonical, &mut dram))
        })
    });

    // The Vote Execute Unit's share of the frame pass: the same frame's
    // votes, transferred beforehand, deposited plane by plane.
    group.bench_function("dsi_vote_plane_102400_votes", |b| {
        let canonical = canonical_survivors(1024);
        let planes: Vec<Vec<(u16, u16)>> = phi_words(100)
            .iter()
            .map(|phi| {
                canonical
                    .iter()
                    .filter_map(|&c| kernel::transfer_nearest(&phi.words(), c, 240, 180).address())
                    .collect()
            })
            .collect();
        let mut dram = DsiDram::new(240, 180, 100);
        b.iter(|| {
            let applied: u64 = planes
                .iter()
                .enumerate()
                .map(|(plane, votes)| dram.vote_plane(plane, votes.iter().copied()))
                .sum();
            black_box(applied)
        })
    });

    group.bench_function("dma_frame_chain", |b| {
        let config = AcceleratorConfig::default();
        let chain = DmaEngine::frame_descriptors(&config);
        b.iter(|| {
            let mut dma = DmaEngine::new(&config);
            black_box(dma.execute_chain(&chain))
        })
    });

    group.bench_function("full_frame_through_register_interface", |b| {
        let config = AcceleratorConfig::default();
        let job = FrameJob {
            event_words: event_words(1024),
            homography_words: near_identity_homography().raw_words(),
            phi_words: phi_words(100).iter().map(PhiEntry::raw_words).collect(),
            kind: FrameKind::Normal,
        };
        b.iter_batched(
            || EventorDevice::new(config.clone()),
            |mut device| black_box(device.run_frame(job.clone())),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_device);
criterion_main!(benches);

//! Micro-benchmarks of DSI voting: bilinear versus nearest (the paper's
//! approximate-computing ablation), f32 versus quantized u16 scores, and
//! vote windows of the accelerator datapath through the kernel's fused
//! transfer-and-vote face, one on words without a tie coordinate and one on
//! a slider's words, which have one; and of structure detection, which
//! retires every key frame's DSI.

use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion, Throughput,
};
use eventor_dsi::{
    confidence_map, detect_structure, DepthPlanes, DetectionConfig, DsiVolume, VoteArena,
    VoxelScore,
};
use eventor_fixed::kernel::PhiWords;
use eventor_fixed::PackedCoord;
use std::hint::black_box;

fn targets(n: usize) -> Vec<(f64, f64, usize)> {
    (0..n)
        .map(|i| {
            (
                (i * 37 % 2400) as f64 / 10.0,
                (i * 53 % 1800) as f64 / 10.0,
                i % 100,
            )
        })
        .collect()
}

fn bench_voting(c: &mut Criterion) {
    let planes = DepthPlanes::uniform_inverse_depth(0.6, 6.0, 100).unwrap();
    let votes = targets(102_400); // one 1024-event frame's worth of votes
    let mut group = c.benchmark_group("voting");
    group.throughput(Throughput::Elements(votes.len() as u64));
    group.sample_size(20);

    group.bench_function("bilinear_f32_frame", |b| {
        b.iter_batched(
            || DsiVolume::<f32>::new(240, 180, planes.clone()).unwrap(),
            |mut dsi| {
                for &(x, y, p) in &votes {
                    dsi.vote_bilinear(x, y, p, 1.0);
                }
                black_box(dsi.total_score())
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("nearest_f32_frame", |b| {
        b.iter_batched(
            || DsiVolume::<f32>::new(240, 180, planes.clone()).unwrap(),
            |mut dsi| {
                for &(x, y, p) in &votes {
                    dsi.vote_nearest(x, y, p, 1.0);
                }
                black_box(dsi.total_score())
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("nearest_u16_frame", |b| {
        b.iter_batched(
            || DsiVolume::<u16>::new(240, 180, planes.clone()).unwrap(),
            |mut dsi| {
                for &(x, y, p) in &votes {
                    dsi.vote_nearest(x, y, p, 1.0);
                }
                black_box(dsi.total_score())
            },
            BatchSize::LargeInput,
        )
    });

    bench_vote_window(&mut group, "vote_window_32k_u16_240x180x100", converging);
    bench_vote_window(
        &mut group,
        "vote_window_32k_u16_slider_240x180x100",
        sideways,
    );
    group.finish();
}

/// One vote window of the accelerator datapath: 32 frames of 1024
/// canonical survivors spread over a 240×180 sensor, each frame with its
/// own 100 `φ` words, `phi(frame, plane)`.
fn window_frames(phi: impl Fn(usize, usize) -> PhiWords) -> Vec<(Vec<PackedCoord>, Vec<PhiWords>)> {
    (0..32)
        .map(|k| {
            let canon = (0..1024)
                .map(|i| {
                    let x = ((i * 37 + k * 11) % 2400) as f64 / 10.0;
                    let y = ((i * 53 + k * 7) % 1800) as f64 / 10.0;
                    PackedCoord::from_f64(x, y)
                })
                .collect();
            (canon, (0..100).map(|p| phi(k, p)).collect())
        })
        .collect()
}

/// Near-identity words, so most transfers land on the sensor. All but the
/// identity (frame 0, plane 0) lack a tie coordinate: the kernel's transfer
/// body without a tie test.
fn converging(k: usize, p: usize) -> PhiWords {
    let r = 1.0 - 0.002 * p as f64;
    let shift = 0.3 * k as f64;
    PhiWords::from_f64(r, (1.0 - r) * 120.0 + shift, (1.0 - r) * 90.0 - shift)
}

/// A slider's words: sideways motion transfers with `scale` exactly 1.0
/// and `offset_y` 0, so every plane's `y` axis ties at raw −64 (−0.5 px):
/// the kernel's transfer body with the tie test.
fn sideways(k: usize, p: usize) -> PhiWords {
    PhiWords::from_f64(1.0, 0.3 * k as f64 - 0.4 * p as f64, 0.0)
}

/// A 32 K-survivor window through `DsiVolume`'s vote path, plane by plane,
/// into a 240×180×100 DSI that keeps its scores; the throughput is the
/// window's votes, so the row reads as time per vote.
fn bench_vote_window(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    phi: impl Fn(usize, usize) -> PhiWords,
) {
    let frames = window_frames(phi);
    let window: Vec<(&[PackedCoord], &[PhiWords])> = frames
        .iter()
        .map(|(canon, phi)| (canon.as_slice(), phi.as_slice()))
        .collect();
    let planes = DepthPlanes::uniform_inverse_depth(0.6, 6.0, 100).unwrap();
    let mut dsi = DsiVolume::<u16>::new(240, 180, planes).unwrap();
    let mut arena = VoteArena::new();
    let mut vote = |dsi: &mut DsiVolume<u16>| {
        let mut view = dsi.plane_ranges_mut(1).next().expect("one plane range");
        view.vote_batch(window.iter().copied(), &mut arena);
        view.votes_cast()
    };
    let votes = vote(&mut dsi);
    group.throughput(Throughput::Elements(votes));
    group.bench_function(name, |b| b.iter(|| black_box(vote(&mut dsi))));
}

/// A deterministic voted DSI in the shape a key frame leaves: scattered
/// single votes on every fourth voxel, and on every fourth column a
/// slanted surface that gathers 20 votes a pixel.
fn voted<S: VoxelScore>(width: usize, height: usize, planes: usize) -> DsiVolume<S> {
    let depths = DepthPlanes::uniform_inverse_depth(0.6, 6.0, planes).unwrap();
    let mut dsi = DsiVolume::<S>::new(width, height, depths).unwrap();
    for i in 0..width * height * planes / 4 {
        let (x, y, p) = (i * 37 % width, i * 53 % height, i * 101 % planes);
        dsi.vote_nearest(x as f64, y as f64, p, 1.0);
    }
    for y in 0..height {
        for x in (0..width).step_by(4) {
            let p = (x + y) * planes / (width + height);
            for _ in 0..20 {
                dsi.vote_nearest(x as f64, y as f64, p, 1.0);
            }
        }
    }
    dsi
}

fn bench_detection(c: &mut Criterion) {
    let config = DetectionConfig::default();
    let mut group = c.benchmark_group("detection");
    group.sample_size(20);

    let small = voted::<u16>(80, 60, 50);
    let large = voted::<u16>(240, 180, 100);
    let large_f32 = voted::<f32>(240, 180, 100);

    group.throughput(Throughput::Elements(large.voxel_count() as u64));
    group.bench_function("confidence_map_u16_240x180x100", |b| {
        b.iter(|| black_box(confidence_map(black_box(&large))))
    });
    group.throughput(Throughput::Elements(small.voxel_count() as u64));
    group.bench_function("detect_structure_u16_80x60x50", |b| {
        b.iter(|| black_box(detect_structure(black_box(&small), &config)))
    });
    group.throughput(Throughput::Elements(large.voxel_count() as u64));
    group.bench_function("detect_structure_u16_240x180x100", |b| {
        b.iter(|| black_box(detect_structure(black_box(&large), &config)))
    });
    group.bench_function("detect_structure_f32_240x180x100", |b| {
        b.iter(|| black_box(detect_structure(black_box(&large_f32), &config)))
    });

    group.finish();
}

criterion_group!(benches, bench_voting, bench_detection);
criterion_main!(benches);

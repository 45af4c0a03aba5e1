//! Micro-benchmarks of the event back-projection stages (the per-event cost
//! behind the Table 3 runtime rows): per-frame geometry computation,
//! canonical projection `P{Z0}` and proportional transfer `P{Z0;Zi}`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use eventor_core::{QuantizedCoefficients, QuantizedHomography};
use eventor_dsi::DepthPlanes;
use eventor_emvs::FrameGeometry;
use eventor_fixed::{kernel, PackedCoord};
use eventor_geom::{CameraIntrinsics, Pose, Vec2, Vec3};
use std::hint::black_box;

fn setup() -> (FrameGeometry, Vec<Vec2>) {
    let intrinsics = CameraIntrinsics::davis240_default();
    let planes = DepthPlanes::uniform_inverse_depth(0.6, 6.0, 100).unwrap();
    let reference = Pose::identity();
    let frame_pose = Pose::from_translation(Vec3::new(0.08, -0.01, 0.02));
    let geometry = FrameGeometry::compute(&reference, &frame_pose, &intrinsics, &planes).unwrap();
    let events: Vec<Vec2> = (0..1024)
        .map(|i| Vec2::new((i * 7 % 240) as f64, (i * 13 % 180) as f64))
        .collect();
    (geometry, events)
}

fn bench_backprojection(c: &mut Criterion) {
    let (geometry, events) = setup();
    let mut group = c.benchmark_group("backprojection");
    group.throughput(Throughput::Elements(events.len() as u64));

    group.bench_function("frame_geometry_compute", |b| {
        let intrinsics = CameraIntrinsics::davis240_default();
        let planes = DepthPlanes::uniform_inverse_depth(0.6, 6.0, 100).unwrap();
        let reference = Pose::identity();
        let frame_pose = Pose::from_translation(Vec3::new(0.08, -0.01, 0.02));
        b.iter(|| {
            black_box(
                FrameGeometry::compute(&reference, &frame_pose, &intrinsics, &planes).unwrap(),
            )
        })
    });

    group.bench_function("canonical_projection_1024_events", |b| {
        b.iter(|| {
            for e in &events {
                black_box(geometry.canonical(*e));
            }
        })
    });

    group.bench_function("proportional_transfer_1024x100", |b| {
        let canonical: Vec<Vec2> = events
            .iter()
            .filter_map(|&e| geometry.canonical(e))
            .collect();
        b.iter(|| {
            for c in &canonical {
                for i in 0..geometry.num_planes() {
                    black_box(geometry.transfer(*c, i));
                }
            }
        })
    });

    group.bench_function("quantized_canonical_1024_events", |b| {
        let qh = QuantizedHomography::from_homography(&geometry.homography).raw_words();
        let packed: Vec<PackedCoord> = events
            .iter()
            .map(|e| PackedCoord::from_f64(e.x, e.y))
            .collect();
        b.iter(|| {
            for p in &packed {
                black_box(kernel::project_z0(&qh, *p));
            }
        })
    });

    group.bench_function("quantized_transfer_1024x100", |b| {
        let qh = QuantizedHomography::from_homography(&geometry.homography).raw_words();
        let qphi = QuantizedCoefficients::from_coefficients(&geometry.coefficients);
        let packed: Vec<PackedCoord> = events
            .iter()
            .filter_map(|e| kernel::project_z0(&qh, PackedCoord::from_f64(e.x, e.y)))
            .collect();
        b.iter_batched(
            || packed.clone(),
            |packed| {
                for c in &packed {
                    for phi in qphi.words() {
                        black_box(kernel::transfer_nearest(phi, *c, 240, 180));
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_backprojection);
criterion_main!(benches);

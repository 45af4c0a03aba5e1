//! Micro-benchmarks of the fixed-point quantization layer (Table 1 formats).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use eventor_fixed::{PackedCoord, Q11p21, Q9p7};
use std::hint::black_box;

fn bench_quantization(c: &mut Criterion) {
    let values: Vec<f64> = (0..4096)
        .map(|i| (i as f64 * 0.0571).sin() * 200.0)
        .collect();
    let mut group = c.benchmark_group("quantization");
    group.throughput(Throughput::Elements(values.len() as u64));

    group.bench_function("q9_7_round_trip", |b| {
        b.iter(|| {
            for &v in &values {
                black_box(Q9p7::from_f64(v).to_f64());
            }
        })
    });

    group.bench_function("q11_21_round_trip", |b| {
        b.iter(|| {
            for &v in &values {
                black_box(Q11p21::from_f64(v).to_f64());
            }
        })
    });

    group.bench_function("packed_coord_bus_round_trip", |b| {
        b.iter(|| {
            for i in 0..2048usize {
                let p = PackedCoord::from_f64((i % 240) as f64 + 0.5, (i % 180) as f64 + 0.25);
                black_box(PackedCoord::from_word(p.to_word()));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_quantization);
criterion_main!(benches);

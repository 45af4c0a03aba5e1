//! End-to-end benchmarks: the baseline EMVS datapath versus the reformulated
//! Eventor datapath on a cached synthetic sequence (the software side of the
//! Table 3 comparison).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use eventor_core::{config_for_sequence, EventorOptions, EventorSession};
use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    // A reduced-scale sequence keeps the bench runtime reasonable while still
    // exercising the full pipeline.
    let seq = SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())
        .expect("fast_test sequence generates");
    let config = config_for_sequence(&seq, 50);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(seq.events.len() as u64));

    for (id, options) in [
        ("baseline_bilinear_full_sequence", EventorOptions::exact()),
        (
            "eventor_reformulated_full_sequence",
            EventorOptions::accelerator(),
        ),
        (
            "eventor_nearest_only_full_sequence",
            EventorOptions::nearest_only(),
        ),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                black_box(
                    EventorSession::builder(seq.camera, config.clone())
                        .software(options)
                        .reconstruct(&seq.events, &seq.trajectory)
                        .unwrap(),
                )
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);

//! Throughput of the parallel sharded voting engine versus the sequential
//! golden path, on the full reformulated (accelerator) reconstruction of the
//! `ThreePlanes` sequence.
//!
//! Rows:
//!
//! * `sequential_baseline` — the single-threaded golden path
//!   (`ParallelConfig::sequential`): every vote window voted on the calling
//!   thread,
//! * `engine_{2,4,8}_shards` — the same vote windows voted into the one DSI
//!   split into 2/4/8 depth-plane ranges. On a multi-core host these rows
//!   measure the thread scaling of the vote phase; on a single-core host,
//!   the buffering and spawn overhead.
//!
//! Throughput is reported in events per second across the whole
//! reconstruction (undistortion, aggregation, planning, voting, detection).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use eventor_core::{config_for_sequence, EventorOptions, EventorSession, ParallelConfig};
use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
use std::hint::black_box;

fn bench_parallel_voting(c: &mut Criterion) {
    let seq = SyntheticSequence::generate(SequenceKind::ThreePlanes, &DatasetConfig::fast_test())
        .expect("fast_test sequences generate");
    let config = config_for_sequence(&seq, 100);

    let mut group = c.benchmark_group("parallel_voting");
    group.throughput(Throughput::Elements(seq.events.len() as u64));
    group.sample_size(10);

    let run = |parallel: ParallelConfig| {
        let seq = &seq;
        let config = &config;
        move |b: &mut criterion::Bencher| {
            b.iter(|| {
                let out = EventorSession::builder(seq.camera, config.clone())
                    .sharded(EventorOptions::accelerator(), parallel)
                    .reconstruct(black_box(&seq.events), &seq.trajectory)
                    .expect("reconstruction succeeds");
                black_box(out.output.keyframes.len())
            })
        }
    };

    group.bench_function("sequential_baseline", run(ParallelConfig::sequential()));
    for shards in [2usize, 4, 8] {
        // The DSI always splits into `shards` plane ranges; only the OS
        // thread count is capped at the host's hardware threads. Label each
        // row with the concurrency that actually backed it.
        let threads = ParallelConfig::with_shards(shards).worker_threads();
        if threads != shards {
            println!(
                "note: engine_{shards}_shards partition executes on {threads} worker thread(s) on this host"
            );
        }
        group.bench_function(
            format!("engine_{shards}_shards"),
            run(ParallelConfig::with_shards(shards)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_voting);
criterion_main!(benches);

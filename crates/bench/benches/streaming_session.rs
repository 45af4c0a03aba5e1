//! Throughput of the streaming `EventorSession` push/poll ingestion versus
//! the batch `SessionBuilder::reconstruct`, per execution backend, on the
//! full `ThreePlanes` reconstruction.
//!
//! Rows:
//!
//! * `batch_software` — `SessionBuilder::reconstruct` on the one-shard
//!   engine (one session fed the whole stream at once): the baseline the
//!   streaming rows are compared against,
//! * `push_poll_software` — push/poll ingestion in 1024-event packets on the
//!   sequential software backend: measures the ingestion machinery's
//!   overhead (buffering, readiness checks, lifecycle events) on top of the
//!   same datapath,
//! * `push_poll_sharded_4` — the same feed on the 4-shard parallel voting
//!   engine,
//! * `push_poll_cosim` — the same feed driving the functional device model.
//!
//! Throughput is events per second across the whole reconstruction; the
//! session rows should stay within a few percent of `batch_software`
//! (ingestion is O(events), the datapath dominates).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use eventor_core::{config_for_sequence, EventorOptions, EventorSession, ParallelConfig};
use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
use eventor_hwsim::AcceleratorConfig;
use std::hint::black_box;

fn bench_streaming_session(c: &mut Criterion) {
    let seq = SyntheticSequence::generate(SequenceKind::ThreePlanes, &DatasetConfig::fast_test())
        .expect("fast_test sequences generate");
    let config = config_for_sequence(&seq, 100);

    let mut group = c.benchmark_group("streaming_session");
    group.throughput(Throughput::Elements(seq.events.len() as u64));
    group.sample_size(10);

    group.bench_function("batch_software", |b| {
        b.iter(|| {
            let out = EventorSession::builder(seq.camera, config.clone())
                .software(EventorOptions::accelerator())
                .reconstruct(black_box(&seq.events), &seq.trajectory)
                .expect("reconstruction succeeds");
            black_box(out.output.keyframes.len())
        })
    });

    let stream = |session: EventorSession, seq: &SyntheticSequence| {
        let mut session = session;
        session
            .push_trajectory(&seq.trajectory)
            .expect("trajectory pushes");
        for packet in seq.events.packets(1024) {
            session.push_events(packet).expect("packet pushes");
            black_box(session.poll().expect("poll succeeds").len());
        }
        let finished = session.finish().expect("session finishes");
        finished.output.keyframes.len()
    };

    {
        let (seq, config) = (&seq, &config);
        group.bench_function("push_poll_software", move |b| {
            b.iter(|| {
                let session = EventorSession::builder(seq.camera, config.clone())
                    .software(EventorOptions::accelerator())
                    .build()
                    .expect("session builds");
                black_box(stream(session, seq))
            })
        });
    }

    {
        let (seq, config) = (&seq, &config);
        group.bench_function("push_poll_sharded_4", move |b| {
            b.iter(|| {
                let session = EventorSession::builder(seq.camera, config.clone())
                    .sharded(
                        EventorOptions::accelerator(),
                        ParallelConfig::with_shards(4),
                    )
                    .build()
                    .expect("session builds");
                black_box(stream(session, seq))
            })
        });
    }

    {
        let (seq, config) = (&seq, &config);
        group.bench_function("push_poll_cosim", move |b| {
            b.iter(|| {
                let session = EventorSession::builder(seq.camera, config.clone())
                    .cosim(AcceleratorConfig::default())
                    .build()
                    .expect("session builds");
                black_box(stream(session, seq))
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_streaming_session);
criterion_main!(benches);

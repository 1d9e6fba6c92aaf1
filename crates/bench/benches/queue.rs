//! Throughput of the lock-free GPU→host record queue (paper §4.2: multiple
//! queues "achieve orders of magnitude better throughput than using a
//! single queue").

use barracuda_trace::ops::{AccessKind, Event, MemSpace};
use barracuda_trace::record::Record;
use barracuda_trace::{Queue, QueueSet};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

fn sample_record(warp: u64) -> Record {
    Record::encode(&Event::Access {
        warp,
        kind: AccessKind::Write,
        space: MemSpace::Global,
        mask: u32::MAX,
        addrs: [warp * 128; 32],
        size: 4,
    })
}

fn bench_single_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue/single_thread");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("push_pop_1024", |b| {
        let q = Queue::new(2048);
        let rec = sample_record(1);
        b.iter(|| {
            for _ in 0..1024 {
                assert!(q.push_bounded(rec, u64::MAX));
            }
            let mut n = 0;
            while q.try_pop().is_some() {
                n += 1;
            }
            assert_eq!(n, 1024);
        });
    });
    g.finish();
}

fn bench_producer_consumer(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue/producer_consumer");
    for producers in [1usize, 2, 4] {
        g.throughput(Throughput::Elements(8 * 1024));
        g.bench_with_input(
            BenchmarkId::from_parameter(producers),
            &producers,
            |b, &np| {
                b.iter(|| {
                    let q = Arc::new(Queue::new(4096));
                    let per = 8 * 1024 / np as u64;
                    let handles: Vec<_> = (0..np)
                        .map(|p| {
                            let q = Arc::clone(&q);
                            std::thread::spawn(move || {
                                let rec = sample_record(p as u64);
                                for _ in 0..per {
                                    assert!(q.push_bounded(rec, u64::MAX));
                                }
                            })
                        })
                        .collect();
                    let mut got = 0u64;
                    while got < per * np as u64 {
                        if q.try_pop().is_some() {
                            got += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    for h in handles {
                        h.join().unwrap();
                    }
                });
            },
        );
    }
    g.finish();
}

/// One queue vs several: the §4.2 multi-queue observation. Producers
/// route by `(launch epoch, block)` as the runtime does.
fn bench_queue_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue/multi_queue_scaling");
    let total = 16 * 1024u64;
    const EPOCH: u32 = 1;
    for queues in [1usize, 4, 8] {
        g.throughput(Throughput::Elements(total));
        g.bench_with_input(BenchmarkId::from_parameter(queues), &queues, |b, &nq| {
            b.iter(|| {
                let qs = QueueSet::new(nq, 2048);
                let producer_blocks = 8u64;
                let per = total / producer_blocks;
                std::thread::scope(|scope| {
                    for blk in 0..producer_blocks {
                        let qs = &qs;
                        scope.spawn(move || {
                            let rec = sample_record(blk);
                            for _ in 0..per {
                                let q = qs.queue(qs.index_for(EPOCH, blk));
                                assert!(q.push_bounded(rec, u64::MAX));
                            }
                        });
                    }
                    for qi in 0..nq {
                        let qs = &qs;
                        scope.spawn(move || {
                            let q = qs.queue(qi);
                            // Blocks mapped to this queue.
                            let mine = (0..producer_blocks)
                                .filter(|&b| qs.index_for(EPOCH, b) == qi)
                                .count() as u64
                                * per;
                            let mut got = 0;
                            while got < mine {
                                if q.try_pop().is_some() {
                                    got += 1;
                                } else {
                                    std::thread::yield_now();
                                }
                            }
                        });
                    }
                });
            });
        });
    }
    g.finish();
}

/// The push with a finite stall budget (the runtime's setting, hardened
/// against a dead consumer) against the unbounded `push_pop_1024` case:
/// the budget must be free when the consumer keeps up.
fn bench_resilient_push(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue/resilient_push");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("push_bounded_1024", |b| {
        let q = Queue::new(2048);
        let rec = sample_record(1);
        b.iter(|| {
            for _ in 0..1024 {
                assert!(q.push_bounded(rec, 1 << 16));
            }
            let mut n = 0;
            while q.try_pop().is_some() {
                n += 1;
            }
            assert_eq!(n, 1024);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_single_thread,
    bench_producer_consumer,
    bench_queue_scaling,
    bench_resilient_push
);
criterion_main!(benches);

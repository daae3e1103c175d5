//! Microbenchmarks of the LRU strawman pool — the baseline the MQ
//! pool's overhead is judged against.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use zssd_core::{DeadValuePool, LruDeadValuePool};
use zssd_types::{Fingerprint, Lpn, PopularityDegree, Ppn, ValueId, WriteClock};

fn filled_pool(entries: usize) -> LruDeadValuePool {
    let mut pool = LruDeadValuePool::new(entries);
    for i in 0..entries as u64 {
        pool.insert_dead(
            Fingerprint::of_value(ValueId::new(i)),
            Ppn::new(i),
            Lpn::new(i),
            PopularityDegree::ZERO,
            WriteClock::from_count(i + 1),
        );
    }
    pool
}

fn bench_insert(c: &mut Criterion) {
    // Steady state: every insert offers a fresh value to the same full
    // pool and evicts one entry, as a long replay does. (Timing the
    // first insert into a freshly cloned pool measured a one-off
    // ~1.5–2 ms instead.)
    c.bench_function("lru_pool/insert_dead_into_full_200k", |b| {
        let mut pool = filled_pool(200_000);
        let mut i = 1_000_000u64;
        b.iter(|| {
            i += 1;
            pool.insert_dead(
                Fingerprint::of_value(ValueId::new(i)),
                Ppn::new(i),
                Lpn::new(i),
                PopularityDegree::ZERO,
                WriteClock::from_count(i),
            );
            black_box(pool.len())
        });
    });
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_pool");
    group.bench_function("lookup_miss_200k", |b| {
        let mut pool = filled_pool(200_000);
        let fp = Fingerprint::of_value(ValueId::new(u64::MAX));
        b.iter(|| black_box(pool.take_match(black_box(fp), WriteClock::from_count(1))));
    });
    group.bench_function("hit_then_reinsert_200k", |b| {
        let mut pool = filled_pool(200_000);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 200_000;
            let fp = Fingerprint::of_value(ValueId::new(i));
            let now = WriteClock::from_count(1_000_000 + i);
            if let Some(ppn) = pool.take_match(fp, now) {
                pool.insert_dead(fp, ppn, Lpn::new(i), PopularityDegree::ZERO, now);
            }
            black_box(pool.len())
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // Keep `cargo bench --workspace` to a few minutes: fewer
    // samples and shorter windows than criterion's defaults.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_insert, bench_lookup
}
criterion_main!(benches);

//! Microbenchmarks for the memcached storage engine and key hashing —
//! the hot path of every MCD in the bank.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imca_memcached::{crc32, McConfig, Memcached, Selector, ServerMap};

fn bench_set_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("memcached");
    for &value_size in &[64usize, 2048, 65536] {
        let mc = Memcached::new(McConfig::with_mem_limit(256 << 20));
        let value = Bytes::from(vec![0xAB; value_size]);
        // Pre-populate so gets hit.
        for i in 0..1024 {
            let key = format!("/bench/f{i}:0");
            mc.set(key.as_bytes(), value.clone(), 0, None, 0).unwrap();
        }
        group.throughput(Throughput::Bytes(value_size as u64));
        group.bench_with_input(BenchmarkId::new("set", value_size), &value_size, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                let key = format!("/bench/f{}:0", i % 1024);
                mc.set(key.as_bytes(), value.clone(), 0, None, 0).unwrap();
                i += 1;
            });
        });
        group.bench_with_input(
            BenchmarkId::new("get_hit", value_size),
            &value_size,
            |b, _| {
                let mut i = 0u64;
                b.iter(|| {
                    let key = format!("/bench/f{}:0", i % 1024);
                    black_box(mc.get(key.as_bytes(), 0));
                    i += 1;
                });
            },
        );
    }
    group.bench_function("get_miss", |b| {
        let mc = Memcached::new(McConfig::default());
        b.iter(|| black_box(mc.get(b"/never/stored:0", 0)));
    });
    group.finish();
}

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashing");
    let key = b"/some/fairly/long/path/to/a/file.dat:1048576";
    group.throughput(Throughput::Bytes(key.len() as u64));
    group.bench_function("crc32", |b| b.iter(|| black_box(crc32(black_box(key)))));
    for sel in [Selector::Crc32, Selector::Modulo, Selector::Ketama] {
        let map = ServerMap::new(sel, 8);
        group.bench_function(format!("select_{sel:?}"), |b| {
            b.iter(|| black_box(map.select(black_box(key), Some(512))))
        });
    }
    group.finish();
}

fn bench_eviction_pressure(c: &mut Criterion) {
    c.bench_function("memcached/set_with_eviction", |b| {
        // 1 MB limit, 100 KB values: every set after the first page evicts.
        let mc = Memcached::new(McConfig::with_mem_limit(1 << 20));
        let value = Bytes::from(vec![0u8; 100_000]);
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("k{i}");
            mc.set(key.as_bytes(), value.clone(), 0, None, 0).unwrap();
            i += 1;
        });
    });
}

/// `abs_path:offset` keys the way the bank sees them: `files` files of
/// `blocks` 2 KB blocks each.
fn bank_keys(files: usize, blocks: usize) -> Vec<Vec<u8>> {
    (0..files * blocks)
        .map(|i| {
            format!(
                "/bank/dir{}/f{:03}.dat:{}",
                i / blocks % 8,
                i / blocks,
                i % blocks * 2048
            )
        })
        .map(String::into_bytes)
        .collect()
}

/// The store at the size a daemon of the bank holds, where every probe
/// misses the CPU cache (`get_hit` above re-reads 1 024 hot keys and
/// cannot show that): hits over 32 768 resident 2 KB items in a seeded
/// random order, and 2 KB sets of new keys into a full 4 MB store, each
/// evicting the coldest item (`cold_stream`'s regime). Keys are built
/// outside the timed loop.
fn bench_bank_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("memcached");
    let mut x = 42u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as usize
    };

    let keys = bank_keys(64, 512);
    let mc = Memcached::new(McConfig::with_mem_limit(256 << 20));
    for key in &keys {
        mc.set(key, Bytes::from(vec![0xAB; 2048]), 0, None, 0)
            .unwrap();
    }
    let order: Vec<usize> = (0..1 << 16).map(|_| next() % keys.len()).collect();
    group.bench_function("get_hit_bank", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % order.len();
            black_box(mc.get(&keys[order[i]], 0))
        });
    });

    let keys = bank_keys(128, 512);
    let mc = Memcached::new(McConfig::with_mem_limit(4 << 20));
    let value = Bytes::from(vec![0xCD; 2048]);
    group.bench_function("set_evicting_2k", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            mc.set(&keys[i], value.clone(), 0, None, 0).unwrap();
        });
    });
    assert!(mc.stats().evictions > 0, "the 4 MB store never filled");
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_set_get, bench_bank_size, bench_hashing, bench_eviction_pressure
}
criterion_main!(benches);

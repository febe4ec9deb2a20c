//! Microbenchmarks for the memcached ASCII protocol codec.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imca_memcached::protocol::{
    encode_command, encode_response, parse_command, parse_response, Command, Response, StoreVerb,
    Value,
};

fn bench_commands(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/command");
    for &size in &[0usize, 2048, 65536] {
        let cmd = Command::Store {
            verb: StoreVerb::Set,
            key: b"/bench/file:4096".to_vec(),
            flags: 0,
            exptime: 0,
            data: Bytes::from(vec![0u8; size]),
            with_cas: false,
            noreply: false,
        };
        let wire = encode_command(&cmd);
        group.throughput(Throughput::Bytes(wire.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode_set", size), &cmd, |b, cmd| {
            b.iter(|| black_box(encode_command(black_box(cmd))))
        });
        group.bench_with_input(BenchmarkId::new("parse_set", size), &wire, |b, wire| {
            b.iter(|| black_box(parse_command(black_box(wire)).unwrap()))
        });
    }
    let get = encode_command(&Command::Get {
        keys: vec![b"/bench/file:0".to_vec(), b"/bench/file:2048".to_vec()],
        with_cas: false,
    });
    group.bench_function("parse_get", |b| {
        b.iter(|| black_box(parse_command(black_box(&get)).unwrap()))
    });
    group.finish();
}

fn bench_responses(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/response");
    let resp = Response::Values(vec![Value {
        key: b"/bench/file:2048".to_vec(),
        flags: 0,
        cas: None,
        data: Bytes::from(vec![0u8; 2048]),
    }]);
    let wire = encode_response(&resp);
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("encode_value_2k", |b| {
        b.iter(|| black_box(encode_response(black_box(&resp))))
    });
    group.bench_function("parse_value_2k", |b| {
        b.iter(|| black_box(parse_response(black_box(&wire)).unwrap()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_commands, bench_responses
}
criterion_main!(benches);

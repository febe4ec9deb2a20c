//! Microbenchmarks for the discrete-event engine itself: how many
//! simulated events per second the reproduction can push. This bounds how
//! large a cluster/workload the figure binaries can simulate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imca_sim::sync::{Barrier, Queue, Resource};
use imca_sim::{timeout, yield_now, Sim, SimDuration};

fn bench_timer_wheel(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/timers");
    for &tasks in &[100usize, 1000] {
        group.throughput(Throughput::Elements((tasks * 100) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, &tasks| {
            b.iter(|| {
                let mut sim = Sim::new(1);
                for i in 0..tasks {
                    let h = sim.handle();
                    sim.spawn(async move {
                        for _ in 0..100 {
                            h.sleep(SimDuration::nanos(1 + i as u64)).await;
                        }
                    });
                }
                black_box(sim.run())
            });
        });
    }
    group.finish();
}

fn bench_queue_ping_pong(c: &mut Criterion) {
    c.bench_function("sim/queue_ping_pong_10k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            let q: Queue<u32> = Queue::new();
            let q2 = q.clone();
            sim.spawn(async move {
                while let Some(v) = q2.recv().await {
                    black_box(v);
                }
            });
            sim.spawn(async move {
                for i in 0..10_000 {
                    q.push(i);
                }
                q.close();
            });
            black_box(sim.run())
        })
    });
}

fn bench_resource_contention(c: &mut Criterion) {
    c.bench_function("sim/resource_64_clients", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            let res = Resource::new(2);
            for _ in 0..64 {
                let res = res.clone();
                let h = sim.handle();
                sim.spawn(async move {
                    for _ in 0..20 {
                        res.serve(&h, SimDuration::micros(1)).await;
                    }
                });
            }
            black_box(sim.run())
        })
    });
}

fn bench_barrier_rounds(c: &mut Criterion) {
    c.bench_function("sim/barrier_32x100", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            let barrier = Barrier::new(32);
            for _ in 0..32 {
                let barrier = barrier.clone();
                sim.spawn(async move {
                    for _ in 0..100 {
                        barrier.wait().await;
                    }
                });
            }
            black_box(sim.run())
        })
    });
}

/// The bank RPC's shape (`Wire::call`): every op races a short sleep,
/// run as its own task, against a deadline that is cancelled every time.
fn bench_timeout_race(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/timeout_race");
    group.throughput(Throughput::Elements(64 * 100));
    group.bench_function("64x100", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            for _ in 0..64 {
                let h = sim.handle();
                sim.spawn(async move {
                    for _ in 0..100 {
                        let hc = h.clone();
                        let call = async move { hc.sleep(SimDuration::micros(2)).await };
                        black_box(timeout(&h, SimDuration::millis(1), call).await);
                    }
                });
            }
            black_box(sim.run())
        })
    });
    group.finish();
}

/// Short-lived tasks, each done before the next is spawned, so every
/// spawn takes the slab slot the last one freed.
fn bench_spawn_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/spawn_churn");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("10k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            let h = sim.handle();
            sim.spawn(async move {
                for i in 0..10_000u32 {
                    h.spawn(async move {
                        black_box(i);
                    });
                    yield_now().await;
                }
            });
            black_box(sim.run())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_timer_wheel, bench_queue_ping_pong, bench_resource_contention, bench_barrier_rounds,
        bench_timeout_race, bench_spawn_churn
}
criterion_main!(benches);

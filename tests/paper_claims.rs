//! Small-scale checks that each figure's *direction* reproduces — the
//! quick versions of the claims EXPERIMENTS.md records at full scale.
//! These run the actual benchmark drivers the fig binaries use.

use std::rc::Rc;

use imca_repro::fabric::Transport;
use imca_repro::imca::{Cluster, ClusterConfig, ImcaConfig, RetryPolicy};
use imca_repro::memcached::{McConfig, Selector};
use imca_repro::sim::{Sim, SimDuration};
use imca_repro::workloads::iozone::{run as iozone, run_nfs, IozoneBench, NfsIozoneBench};
use imca_repro::workloads::latbench::{run as latbench, LatencyBench};
use imca_repro::workloads::statbench::{run as statbench, StatBench};
use imca_repro::workloads::SystemSpec;

fn imca_spec(mcds: usize) -> SystemSpec {
    SystemSpec::Imca(ImcaConfig {
        mcd_count: mcds,
        mcd_config: McConfig::with_mem_limit(1 << 30),
        ..ImcaConfig::default()
    })
}

/// Fig 1: NFS read bandwidth orders RDMA > IPoIB > GigE while the set fits
/// in memory, and collapses once it does not.
#[test]
fn fig1_direction() {
    let run_one = |transport: Transport, mem: u64| {
        run_nfs(&NfsIozoneBench {
            transport,
            server_memory: mem,
            clients: 3,
            file_size: 2 << 20,
            record_size: 64 << 10,
            pipeline: 4,
            seed: 1,
        })
        .read_mb_s
    };
    let rdma = run_one(Transport::rdma_ddr(), 64 << 20);
    let ipoib = run_one(Transport::ipoib_ddr(), 64 << 20);
    let gige = run_one(Transport::gige(), 64 << 20);
    assert!(
        rdma > ipoib && ipoib > gige,
        "{rdma:.0} {ipoib:.0} {gige:.0}"
    );
    let thrash = run_one(Transport::rdma_ddr(), 2 << 20);
    assert!(
        rdma > 2.0 * thrash,
        "no memory knee: fit={rdma:.0} thrash={thrash:.0}"
    );
}

/// Fig 5: IMCa cuts multi-client stat time vs both NoCache and Lustre-4DS,
/// and more daemons help.
#[test]
fn fig5_direction() {
    let bench = |spec: SystemSpec| {
        statbench(&StatBench {
            files: 160,
            clients: 8,
            spec,
            seed: 2,
        })
        .max_node_secs
    };
    let nocache = bench(SystemSpec::GlusterNoCache);
    let one = bench(imca_spec(1));
    let four = bench(imca_spec(4));
    let lustre = bench(SystemSpec::Lustre {
        osts: 4,
        warm: false,
    });
    assert!(one < nocache, "MCD(1)={one} NoCache={nocache}");
    assert!(four <= one * 1.05, "MCD(4)={four} MCD(1)={one}");
    assert!(four < lustre, "MCD(4)={four} Lustre={lustre}");
}

/// Fig 6(a): at 1-byte records the block-size ordering holds — smaller
/// blocks win small reads; all IMCa variants beat NoCache.
#[test]
fn fig6a_direction() {
    // `batched: false` reproduces the paper's per-block bank RPCs; the
    // Fig 6(a) crossover exists *because* of those round trips.
    let bench = |block_size: u64, batched: bool| {
        let spec = SystemSpec::Imca(ImcaConfig {
            block_size,
            mcd_config: McConfig::with_mem_limit(1 << 30),
            batching: batched,
            ..ImcaConfig::default()
        });
        latbench(&LatencyBench {
            spec,
            clients: 1,
            // 64-byte records over 64 records: the file is large enough
            // that each block size caches a *full* block, so the small-
            // record penalty of large blocks is visible.
            record_sizes: vec![64, 16384],
            records: 64,
            warmup: false,
            shared_file: false,
            seed: 3,
        })
    };
    let nocache = latbench(&LatencyBench {
        spec: SystemSpec::GlusterNoCache,
        clients: 1,
        record_sizes: vec![64, 16384],
        records: 64,
        warmup: false,
        shared_file: false,
        seed: 3,
    });
    let b256 = bench(256, false);
    let b2k = bench(2048, false);
    let b8k = bench(8192, false);
    let n1 = nocache.read_at(64).unwrap();
    assert!(b256.read_at(64).unwrap() < b2k.read_at(64).unwrap());
    assert!(b2k.read_at(64).unwrap() < b8k.read_at(64).unwrap());
    assert!(b8k.read_at(64).unwrap() < n1);
    // Crossover: at 16K records, tiny blocks need many MCD trips and lose
    // to NoCache (the Fig 6(a) crossover beyond 8K records).
    let n16k = nocache.read_at(16384).unwrap();
    assert!(
        b256.read_at(16384).unwrap() > n16k,
        "256B blocks should lose at 16K records: {} vs {}",
        b256.read_at(16384).unwrap(),
        n16k
    );
    // The batched data path collapses those per-block trips into one
    // multi-key get, so the same configuration no longer loses — the
    // crossover was an artifact of per-block RPCs, not of small blocks.
    let b256_batched = bench(256, true);
    assert!(
        b256_batched.read_at(16384).unwrap() < n16k,
        "batched 256B blocks should beat NoCache at 16K records: {} vs {}",
        b256_batched.read_at(16384).unwrap(),
        n16k
    );
}

/// Fig 6(c): write latency — sync IMCa > NoCache; threaded ≈ NoCache.
#[test]
fn fig6c_direction() {
    let bench = |spec: SystemSpec| {
        latbench(&LatencyBench {
            spec,
            clients: 1,
            record_sizes: vec![2048],
            records: 48,
            warmup: false,
            shared_file: false,
            seed: 4,
        })
        .write_at(2048)
        .unwrap()
    };
    let nocache = bench(SystemSpec::GlusterNoCache);
    let sync = bench(imca_spec(1));
    let threaded = bench(SystemSpec::Imca(ImcaConfig {
        threaded_updates: true,
        mcd_config: McConfig::with_mem_limit(1 << 30),
        ..ImcaConfig::default()
    }));
    assert!(sync > nocache * 1.1, "sync={sync:.1} nocache={nocache:.1}");
    assert!(
        threaded < nocache * 1.25,
        "threaded={threaded:.1} nocache={nocache:.1}"
    );
}

/// §4.4: CMCache forwards a read that misses the bank to the server, so
/// a cold miss costs more than NoCache. After a close and reopen purges
/// the file's blocks (§4.3.2), the first 2 KB IMCa read costs more than
/// the NoCache read of the same range; the refilled bank then serves the
/// second read for less.
#[test]
fn cold_miss_costs_more_than_nocache_warm_hit_less() {
    const LEN: usize = 2048;
    // Nanoseconds of the first and second read of one range after the
    // reopen.
    fn reads_after_reopen(config: ClusterConfig) -> (u64, u64) {
        let mut sim = Sim::new(8);
        let cluster = Rc::new(Cluster::build(sim.handle(), config));
        let h = sim.handle();
        sim.run_main(async move {
            let m = cluster.mount();
            m.create("/claims/miss").await.unwrap();
            let fd = m.open("/claims/miss").await.unwrap();
            m.write(fd, 0, &[7; LEN]).await.unwrap();
            // Warm the bank, so that only the reopen's purge leaves it
            // cold.
            m.read(fd, 0, LEN as u64).await.unwrap();
            m.close(fd).await.unwrap();
            let fd = m.open("/claims/miss").await.unwrap();
            let read = || async {
                let t0 = h.now();
                let got = m.read(fd, 0, LEN as u64).await.unwrap();
                assert_eq!(got, [7; LEN]);
                h.now().since(t0).as_nanos()
            };
            (read().await, read().await)
        })
    }
    let (nocache, _) = reads_after_reopen(ClusterConfig::nocache());
    let (cold, warm) = reads_after_reopen(ClusterConfig::imca(ImcaConfig::default()));
    assert!(
        cold > nocache,
        "cold miss {cold} ns vs NoCache {nocache} ns"
    );
    assert!(warm < nocache, "warm hit {warm} ns vs NoCache {nocache} ns");
}

/// §4.4: a threaded write returns owing its bank update, and the window
/// closes the moment SMCache owes nothing (`Cluster::pending_updates`):
/// another client's CMCache lookup, sent then, reads the write.
#[test]
fn delayed_updates_are_seen_once_nothing_is_owed() {
    let mut cfg = ClusterConfig::imca(ImcaConfig::default());
    cfg.imca.as_mut().unwrap().threaded_updates = true;
    let mut sim = Sim::new(3);
    let (c, h) = (Rc::new(Cluster::build(sim.handle(), cfg)), sim.handle());
    sim.run_main(async move {
        let (writer, (_, reader)) = (c.mount(), c.mount_with_meta());
        writer.create("/claims/w").await.unwrap();
        let fd = writer.open("/claims/w").await.unwrap();
        // The writer's stat miss leaves the bank an entry to be stale.
        writer.stat("/claims/w").await.unwrap();
        let issued = h.now().as_nanos();
        writer.write(fd, 0, &[5; 4096]).await.unwrap();
        assert!(c.pending_updates() > 0, "no window");
        while c.pending_updates() > 0 {
            assert!(h.now().as_nanos() < issued + 10_000_000, "never drained");
            h.sleep(SimDuration::nanos(1)).await;
        }
        let st = reader.unwrap().stat("/claims/w".into()).await.stat.unwrap();
        assert_eq!((st.size, st.mtime_ns >= issued), (4096, true), "stale");
    });
}

/// Fig 9: read throughput scales with the MCD count and beats NoCache.
#[test]
fn fig9_direction() {
    let bench = |spec: SystemSpec| {
        iozone(&IozoneBench {
            spec,
            threads: 4,
            file_size: 1 << 20,
            record_size: 2048,
            pipeline: 8,
            seed: 5,
        })
        .read_mb_s
    };
    let modulo = |mcds: usize| {
        SystemSpec::Imca(ImcaConfig {
            mcd_count: mcds,
            selector: Selector::Modulo,
            mcd_config: McConfig::with_mem_limit(1 << 30),
            ..ImcaConfig::default()
        })
    };
    let nocache = bench(SystemSpec::GlusterNoCache);
    let one = bench(modulo(1));
    let four = bench(modulo(4));
    assert!(four > one, "MCD(4)={four:.0} MCD(1)={one:.0}");
    assert!(
        four > 1.5 * nocache,
        "MCD(4)={four:.0} NoCache={nocache:.0}"
    );
}

/// Fig 10: shared-file reads with one MCD beat NoCache at scale.
#[test]
fn fig10_direction() {
    let bench = |spec: SystemSpec| {
        latbench(&LatencyBench {
            spec,
            clients: 16,
            record_sizes: vec![2048],
            records: 96,
            warmup: false,
            shared_file: true,
            seed: 6,
        })
        .read_at(2048)
        .unwrap()
    };
    let nocache = bench(SystemSpec::GlusterNoCache);
    let imca = bench(imca_spec(1));
    assert!(imca < nocache, "imca={imca:.1} nocache={nocache:.1}");
}

/// Graceful degradation (ISSUE 3): partitioning 1 of 8 MCDs costs a warm
/// stat workload no more than the ~1/8 of files whose stat entries live
/// on the lost daemon — each now a server-forwarded miss — plus a bounded
/// number of RPC deadlines while the circuit and quarantine latch. It
/// must never collapse the remaining 7/8 of the bank.
#[test]
fn partitioning_one_of_eight_mcds_degrades_stats_by_the_miss_fraction() {
    const N: usize = 96;
    const MCDS: usize = 8;
    let deadline = SimDuration::micros(500);
    let mut sim = Sim::new(7);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: MCDS,
            mcd_config: McConfig::with_mem_limit(32 << 20),
            retry: RetryPolicy {
                deadline,
                retries: 0,
                backoff_base: SimDuration::micros(10),
                backoff_cap: SimDuration::micros(40),
                // Longer than the whole degraded phase: exactly one
                // client-side timeout latches the shed path.
                circuit_cooldown: SimDuration::secs(600),
            },
            ..ImcaConfig::default()
        }),
    ));
    let c = Rc::clone(&cluster);
    let h = sim.handle();
    let (cold_total, warm_total, degraded_total, affected) = sim.run_main(async move {
        let m = c.mount();
        for i in 0..N {
            m.create(&format!("/claims/{i}")).await.unwrap();
        }
        // Cold pass: every stat forwards and repopulates the bank — this
        // *measures* the per-file miss cost the bound is stated in.
        let t0 = h.now();
        for i in 0..N {
            m.stat(&format!("/claims/{i}")).await.unwrap();
        }
        let cold_total = h.now().since(t0).as_nanos();

        // Warm pass: all bank hits.
        let t0 = h.now();
        for i in 0..N {
            m.stat(&format!("/claims/{i}")).await.unwrap();
        }
        let warm_total = h.now().since(t0).as_nanos();
        let before = c.metrics();

        c.partition_mcd(0);
        let t0 = h.now();
        for i in 0..N {
            m.stat(&format!("/claims/{i}")).await.unwrap();
        }
        let degraded_total = h.now().since(t0).as_nanos();
        let after = c.metrics();

        let affected = after.counter("cmcache.0.stat_misses").unwrap()
            - before.counter("cmcache.0.stat_misses").unwrap();
        (cold_total, warm_total, degraded_total, affected)
    });

    // The lost daemon held roughly 1/8 of the stat entries (CRC-32
    // placement: allow generous binomial spread, but never a collapse).
    assert!(affected >= 1, "partition affected no stats");
    assert!(
        (affected as f64) <= 2.0 * N as f64 / MCDS as f64,
        "far more than 1/8 of stats degraded: {affected}/{N}"
    );

    // Latency bound: the warm pass plus `affected` forwarded misses (at
    // the measured cold per-file cost, with 50% modelling slack) plus a
    // handful of RPC deadlines — one client-side timeout before the
    // circuit latches, one server-side push timeout before quarantine
    // latches, with room for stragglers.
    let cold_avg = cold_total as f64 / N as f64;
    let allowed =
        warm_total as f64 + 1.5 * cold_avg * affected as f64 + 8.0 * deadline.as_nanos() as f64;
    assert!(
        (degraded_total as f64) <= allowed,
        "degraded stat pass blew the 1/8-miss-fraction bound: \
         degraded={degraded_total} warm={warm_total} cold_avg={cold_avg:.0} \
         affected={affected} allowed={allowed:.0}"
    );
    // …and the degradation is real: strictly slower than fully warm.
    assert!(degraded_total > warm_total);
}

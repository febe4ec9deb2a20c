//! Cross-crate integration: drive the complete stacks (client translators →
//! fabric → server translators → storage) and verify data integrity,
//! determinism, and the headline cache behaviours.

use std::rc::Rc;

use imca_repro::imca::{Cluster, ClusterConfig, ImcaConfig};
use imca_repro::memcached::{McConfig, Selector};
use imca_repro::sim::{join_all, Sim};

fn imca_config(mcds: usize) -> ClusterConfig {
    ClusterConfig::imca(ImcaConfig {
        mcd_count: mcds,
        mcd_config: McConfig::with_mem_limit(32 << 20),
        ..ImcaConfig::default()
    })
}

#[test]
fn large_file_round_trip_through_every_layer() {
    let mut sim = Sim::new(1);
    let cluster = Rc::new(Cluster::build(sim.handle(), imca_config(4)));
    let c = Rc::clone(&cluster);
    sim.run_main(async move {
        let m = c.mount();
        m.create("/it/large.bin").await.unwrap();
        let fd = m.open("/it/large.bin").await.unwrap();
        // 1 MB of patterned data written in odd-sized chunks.
        let data: Vec<u8> = (0..1 << 20)
            .map(|i| ((i * 2654435761u64 as usize) >> 13) as u8)
            .collect();
        let mut off = 0usize;
        for chunk in data.chunks(23_456) {
            m.write(fd, off as u64, chunk).await.unwrap();
            off += chunk.len();
        }
        // Read back with completely different (unaligned) chunking.
        let mut out = Vec::new();
        let mut off = 0u64;
        while out.len() < data.len() {
            let got = m.read(fd, off, 31_337).await.unwrap();
            if got.is_empty() {
                break;
            }
            off += got.len() as u64;
            out.extend(got);
        }
        assert_eq!(out.len(), data.len());
        assert_eq!(out, data);
        m.close(fd).await.unwrap();
    });
}

#[test]
fn imca_and_nocache_return_identical_bytes() {
    // Timing differs; data must not.
    fn collect(cfg: ClusterConfig) -> Vec<u8> {
        let mut sim = Sim::new(9);
        let cluster = Rc::new(Cluster::build(sim.handle(), cfg));
        let c = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = c.mount();
            m.create("/same").await.unwrap();
            let fd = m.open("/same").await.unwrap();
            for k in 0..64u64 {
                m.write(fd, k * 777, &vec![(k % 251) as u8; 777])
                    .await
                    .unwrap();
            }
            // Overwrite a middle region.
            m.write(fd, 10_000, &vec![0xEE; 5_000]).await.unwrap();
            m.read(fd, 0, 64 * 777).await.unwrap()
        })
    }
    let a = collect(ClusterConfig::nocache());
    let b = collect(imca_config(2));
    assert_eq!(a.len(), 64 * 777);
    assert_eq!(a, b);
}

#[test]
fn sixteen_concurrent_clients_on_separate_files() {
    let mut sim = Sim::new(5);
    let cluster = Rc::new(Cluster::build(sim.handle(), imca_config(2)));
    let h = sim.handle();
    let mut clients = Vec::new();
    for id in 0..16u64 {
        let c = Rc::clone(&cluster);
        clients.push(async move {
            let m = c.mount();
            let path = format!("/it/client{id}");
            m.create(&path).await.unwrap();
            let fd = m.open(&path).await.unwrap();
            for k in 0..32u64 {
                m.write(fd, k * 1000, &vec![(id + k) as u8; 1000])
                    .await
                    .unwrap();
            }
            for k in (0..32u64).rev() {
                let got = m.read(fd, k * 1000, 1000).await.unwrap();
                assert_eq!(got, vec![(id + k) as u8; 1000]);
            }
            m.close(fd).await.unwrap();
        });
    }
    sim.run_main(async move { join_all(&h, clients).await });
}

#[test]
fn whole_deployment_is_deterministic() {
    fn trace() -> (u64, u64, u64, u64) {
        let mut sim = Sim::new(1234);
        let cluster = Rc::new(Cluster::build(sim.handle(), imca_config(3)));
        let h = sim.handle();
        let mut clients = Vec::new();
        for id in 0..4u64 {
            let c = Rc::clone(&cluster);
            clients.push(async move {
                let m = c.mount();
                let path = format!("/det/{id}");
                m.create(&path).await.unwrap();
                let fd = m.open(&path).await.unwrap();
                for k in 0..20u64 {
                    m.write(fd, k * 512, &vec![k as u8; 512]).await.unwrap();
                    m.read(fd, (k / 2) * 512, 512).await.unwrap();
                    m.stat(&path).await.unwrap();
                }
            });
        }
        sim.run_main(async move { join_all(&h, clients).await });
        let summary = sim.run();
        let snap = cluster.metrics();
        (
            summary.end_time.as_nanos(),
            summary.events,
            snap.counter_sum("cmcache.*.read_hits"),
            snap.counter_sum("cmcache.*.stat_hits"),
        )
    }
    assert_eq!(trace(), trace());
}

#[test]
fn modulo_selector_spreads_file_blocks_evenly() {
    let mut sim = Sim::new(3);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 4,
            selector: Selector::Modulo,
            mcd_config: McConfig::with_mem_limit(32 << 20),
            ..ImcaConfig::default()
        }),
    ));
    let c = Rc::clone(&cluster);
    sim.run_main(async move {
        let m = c.mount();
        m.create("/spread").await.unwrap();
        let fd = m.open("/spread").await.unwrap();
        m.write(fd, 0, &vec![1u8; 64 * 2048]).await.unwrap();
    });
    let per_mcd: Vec<u64> = cluster
        .mcds()
        .iter()
        .map(|n| n.stats().curr_items)
        .collect();
    let min = per_mcd.iter().min().unwrap();
    let max = per_mcd.iter().max().unwrap();
    assert!(
        max - min <= 2,
        "round-robin distribution skewed: {per_mcd:?}"
    );
}

#[test]
fn eof_and_sparse_semantics_through_the_cache() {
    let mut sim = Sim::new(4);
    let cluster = Rc::new(Cluster::build(sim.handle(), imca_config(1)));
    let c = Rc::clone(&cluster);
    sim.run_main(async move {
        let m = c.mount();
        m.create("/sparse").await.unwrap();
        let fd = m.open("/sparse").await.unwrap();
        // Write at an offset, leaving a hole.
        m.write(fd, 10_000, b"tail").await.unwrap();
        // Hole reads as zeros (twice: miss then cached).
        for _ in 0..2 {
            let hole = m.read(fd, 4_000, 100).await.unwrap();
            assert_eq!(hole, vec![0u8; 100]);
        }
        // Read spanning the EOF is short.
        for _ in 0..2 {
            let tail = m.read(fd, 9_998, 100).await.unwrap();
            assert_eq!(tail.len(), 6);
            assert_eq!(&tail[2..], b"tail");
        }
        // Read entirely past EOF is empty.
        for _ in 0..2 {
            assert!(m.read(fd, 20_000, 10).await.unwrap().is_empty());
        }
        // Extending the file must invalidate the cached short state.
        m.write(fd, 10_004, b"-more").await.unwrap();
        let tail = m.read(fd, 10_000, 100).await.unwrap();
        assert_eq!(tail, b"tail-more");
    });
}

/// The batched data path's wire contract, end to end: a warm read
/// covering many blocks costs at most one bank RPC per daemon (the
/// multi-key get), not one per block.
#[test]
fn warm_read_costs_at_most_one_rpc_per_daemon() {
    let mut sim = Sim::new(11);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 4,
            selector: Selector::Modulo,
            mcd_config: McConfig::with_mem_limit(32 << 20),
            ..ImcaConfig::default()
        }),
    ));
    let c = Rc::clone(&cluster);
    let before: Vec<u64> = sim.run_main(async move {
        let m = c.mount();
        m.create("/warm").await.unwrap();
        let fd = m.open("/warm").await.unwrap();
        // One write covering 8 blocks populates the bank.
        m.write(fd, 0, &vec![0xAB; 8 * 2048]).await.unwrap();
        let before = (0..4)
            .map(|i| {
                c.metrics()
                    .counter(&format!("bank.mcd.{i}.requests"))
                    .unwrap_or(0)
            })
            .collect();
        // The warm read: 8 covering blocks, modulo-spread over 4 daemons.
        let got = m.read(fd, 0, 8 * 2048).await.unwrap();
        assert_eq!(got, vec![0xAB; 8 * 2048]);
        before
    });

    let snap = cluster.metrics();
    assert_eq!(
        snap.counter_sum("cmcache.*.read_hits"),
        1,
        "warm read must hit"
    );
    for (i, before) in before.iter().enumerate() {
        let after = snap.counter(&format!("bank.mcd.{i}.requests")).unwrap_or(0);
        assert!(
            after - before <= 1,
            "daemon {i} saw {} RPCs for one warm read; the batched path \
             allows at most one",
            after - before
        );
    }
    // And the batching instrumentation accounts for it: one multi-get per
    // contacted daemon, two keys per daemon on average (8 blocks over 4).
    assert_eq!(snap.counter("cmcache.0.bank.multi_gets"), Some(4));
    let h = snap.histogram("cmcache.0.bank.keys_per_multi_get").unwrap();
    assert_eq!(h.count, 4);
    assert_eq!(h.sum, 8);
}

/// Failover counter semantics across the whole deployment: killing a
/// daemon mid-run increments exactly one `bank.mcd_failovers`, the
/// client-observed failure counters in the same snapshot pick up the
/// degraded window, and reviving the daemon is likewise counted once.
#[test]
fn failover_counters_agree_with_bank_stats() {
    let mut sim = Sim::new(9);
    let cluster = Rc::new(Cluster::build(sim.handle(), imca_config(2)));
    let c = Rc::clone(&cluster);
    let hits_before_kill = sim.run_main(async move {
        let m = c.mount();
        m.create("/fo").await.unwrap();
        let fd = m.open("/fo").await.unwrap();
        for k in 0..32u64 {
            m.write(fd, k * 2048, &vec![(k % 251) as u8; 2048])
                .await
                .unwrap();
        }
        // Warm pass: every read is served by the bank.
        for k in 0..32u64 {
            m.read(fd, k * 2048, 2048).await.unwrap();
        }
        let hits_before_kill = c.metrics().counter_sum("cmcache.*.read_hits");
        // Kill one daemon mid-run; idempotent second kill must not
        // double-count.
        c.kill_mcd(0);
        c.kill_mcd(0);
        for k in 0..32u64 {
            let got = m.read(fd, k * 2048, 2048).await.unwrap();
            assert_eq!(got, vec![(k % 251) as u8; 2048], "corruption after kill");
        }
        c.revive_mcd(0);
        c.revive_mcd(0);
        hits_before_kill
    });

    let bank = cluster.bank().expect("imca deployment has a bank");
    assert_eq!(bank.failovers(), 1, "one daemon died once");

    let snap = cluster.metrics();
    assert_eq!(snap.counter("bank.mcd_failovers"), Some(1));
    assert_eq!(snap.counter("bank.mcd_revivals"), Some(1));
    assert!(
        hits_before_kill == 32,
        "warm pass should hit the bank on every read"
    );
    // The degraded window: blocks homed on the dead daemon turn into bank
    // misses (routed around client-side, never daemon traffic), and every
    // one of those forwards to the server as a CMCache read miss.
    let bank_misses = snap.counter("cmcache.0.bank.misses").unwrap_or(0);
    assert!(
        bank_misses > 0,
        "the degraded window produced no bank misses"
    );
    assert_eq!(
        Some(bank_misses),
        snap.counter("cmcache.0.read_misses"),
        "every bank miss must forward to the server"
    );
}

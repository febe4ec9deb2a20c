//! Coherency semantics across clients (§4.2–§4.4): the bank must never
//! serve stale data in the paper's protocol — serialization happens at the
//! server, updates propagate to the MCDs when writes complete, and
//! open/close/delete purge.

use std::rc::Rc;

use imca_repro::imca::{Cluster, ClusterConfig, ImcaConfig, RetryPolicy};
use imca_repro::memcached::{McConfig, Selector};
use imca_repro::sim::{Sim, SimDuration};

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig::imca(ImcaConfig {
        mcd_count: 2,
        mcd_config: McConfig::with_mem_limit(32 << 20),
        ..ImcaConfig::default()
    })
}

#[test]
fn reader_sees_writers_update_after_write_completes() {
    let mut sim = Sim::new(11);
    let cluster = Rc::new(Cluster::build(sim.handle(), cluster_cfg()));
    let h = sim.handle();
    {
        let c = Rc::clone(&cluster);
        let h = h.clone();
        sim.run_main(async move {
            let writer = c.mount();
            let reader = c.mount();
            writer.create("/coh/file").await.unwrap();
            let wfd = writer.open("/coh/file").await.unwrap();
            let rfd = reader.open("/coh/file").await.unwrap();

            writer.write(wfd, 0, &vec![1u8; 4096]).await.unwrap();
            // Reader caches version 1 through the bank.
            assert_eq!(reader.read(rfd, 0, 4096).await.unwrap(), vec![1u8; 4096]);

            // Writer overwrites; write is persistent at the server and the
            // bank is refreshed before the write returns (sync mode).
            writer.write(wfd, 0, &vec![2u8; 4096]).await.unwrap();
            h.sleep(SimDuration::micros(1)).await;
            assert_eq!(
                reader.read(rfd, 0, 4096).await.unwrap(),
                vec![2u8; 4096],
                "reader served stale cache blocks"
            );
        });
    }
}

#[test]
fn stat_mtime_monotonically_tracks_producer() {
    let mut sim = Sim::new(12);
    let cluster = Rc::new(Cluster::build(sim.handle(), cluster_cfg()));
    let h = sim.handle();
    {
        let c = Rc::clone(&cluster);
        sim.run_main(async move {
            let producer = c.mount();
            let consumer = c.mount();
            producer.create("/coh/feed").await.unwrap();
            let pfd = producer.open("/coh/feed").await.unwrap();
            let mut last_mtime = 0;
            let mut last_size = 0;
            for k in 0..10u64 {
                producer.write(pfd, k * 100, &[k as u8; 100]).await.unwrap();
                h.sleep(SimDuration::micros(50)).await;
                let st = consumer.stat("/coh/feed").await.unwrap();
                assert!(st.mtime_ns >= last_mtime, "mtime went backwards");
                assert!(st.size >= last_size, "size went backwards");
                assert_eq!(st.size, (k + 1) * 100, "stat did not reflect the append");
                last_mtime = st.mtime_ns;
                last_size = st.size;
            }
        });
    }
    // Most consumer stats should have been served by the bank.
    let stat_hits = cluster.metrics().counter_sum("cmcache.*.stat_hits");
    assert!(stat_hits > 0, "{stat_hits}");
}

#[test]
fn unlink_purges_no_false_positives() {
    // §4.2: "When delete operations are encountered, we remove the data
    // elements from the cache to avoid false positives for requests from
    // clients."
    let mut sim = Sim::new(13);
    let cluster = Rc::new(Cluster::build(sim.handle(), cluster_cfg()));
    {
        let c = Rc::clone(&cluster);
        sim.run_main(async move {
            let a = c.mount();
            let b = c.mount();
            a.create("/coh/reborn").await.unwrap();
            let fd = a.open("/coh/reborn").await.unwrap();
            a.write(fd, 0, b"old incarnation").await.unwrap();
            // Warm the bank via another client.
            let bfd = b.open("/coh/reborn").await.unwrap();
            assert_eq!(b.read(bfd, 0, 15).await.unwrap(), b"old incarnation");
            // Delete, recreate with different contents.
            a.unlink("/coh/reborn").await.unwrap();
            a.create("/coh/reborn").await.unwrap();
            let fd2 = a.open("/coh/reborn").await.unwrap();
            a.write(fd2, 0, b"new incarnation").await.unwrap();
            // The other client must never see the old bytes.
            let got = b.read(bfd, 0, 15).await.unwrap();
            assert_eq!(got, b"new incarnation", "stale cache after unlink");
        });
    }
}

#[test]
fn open_purge_forces_fresh_view() {
    let mut sim = Sim::new(14);
    let cluster = Rc::new(Cluster::build(sim.handle(), cluster_cfg()));
    {
        let c = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = c.mount();
            m.create("/coh/reopened").await.unwrap();
            let fd = m.open("/coh/reopened").await.unwrap();
            m.write(fd, 0, &vec![7u8; 2048]).await.unwrap();
            m.read(fd, 0, 2048).await.unwrap(); // bank warm
            m.close(fd).await.unwrap(); // purge
            let fd = m.open("/coh/reopened").await.unwrap(); // purge again
                                                             // First read must repopulate from the server and stay correct.
            assert_eq!(m.read(fd, 0, 2048).await.unwrap(), vec![7u8; 2048]);
        });
    }
    // The post-reopen read was a miss (the purge worked).
    let read_misses = cluster.metrics().counter_sum("cmcache.*.read_misses");
    assert!(read_misses >= 1, "{read_misses}");
}

#[test]
fn threaded_updates_eventually_converge() {
    let mut sim = Sim::new(15);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            threaded_updates: true,
            mcd_config: McConfig::with_mem_limit(32 << 20),
            ..ImcaConfig::default()
        }),
    ));
    let h = sim.handle();
    {
        let c = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = c.mount();
            m.create("/coh/async").await.unwrap();
            let fd = m.open("/coh/async").await.unwrap();
            m.write(fd, 0, &vec![9u8; 8192]).await.unwrap();
            // Give the background updater time to drain, then verify the
            // bank serves reads without touching the server.
            h.sleep(SimDuration::millis(5)).await;
            assert_eq!(m.read(fd, 0, 8192).await.unwrap(), vec![9u8; 8192]);
        });
    }
    let snap = cluster.metrics();
    let read_misses = snap.counter_sum("cmcache.*.read_misses");
    assert_eq!(
        read_misses, 0,
        "threaded update did not land: {read_misses}"
    );
    assert!(snap.counter("smcache.deferred_jobs").unwrap() >= 1);
}

/// Regression (ISSUE 3 satellite): an RPC deadline expiring in the middle
/// of a batched `get_multi` must fail the *whole* per-daemon group — the
/// read is forwarded to the server intact (no block assembled from a
/// partial multi-get response) and the group still counts exactly one
/// `bank.multi_gets`, not one per retry attempt.
#[test]
fn deadline_mid_multi_get_fails_the_group_and_forwards_intact() {
    let mut sim = Sim::new(16);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            // Round-robin placement: blocks 0,2 on daemon 0 and 1,3 on
            // daemon 1, so partitioning daemon 0 splits every 4-block read.
            selector: Selector::Modulo,
            mcd_config: McConfig::with_mem_limit(32 << 20),
            retry: RetryPolicy {
                deadline: SimDuration::micros(200),
                retries: 1,
                backoff_base: SimDuration::micros(10),
                backoff_cap: SimDuration::micros(40),
                circuit_cooldown: SimDuration::millis(1),
            },
            ..ImcaConfig::default()
        }),
    ));
    let c = Rc::clone(&cluster);
    sim.run_main(async move {
        let m = c.mount();
        m.create("/coh/multi").await.unwrap();
        let fd = m.open("/coh/multi").await.unwrap();
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        m.write(fd, 0, &payload).await.unwrap();
        // Warm pass: every block served from the bank via one multi-get.
        assert_eq!(m.read(fd, 0, 8192).await.unwrap(), payload);
        let warm = c.metrics();

        c.partition_mcd(0);
        let got = m.read(fd, 0, 8192).await.unwrap();
        assert_eq!(got, payload, "degraded read assembled wrong bytes");
        let degraded = c.metrics();

        let delta =
            |name: &str| degraded.counter(name).unwrap_or(0) - warm.counter(name).unwrap_or(0);
        // One read = one multi-get RPC per daemon group (2 daemons), and
        // the timed-out group's retry must NOT count a third one.
        assert_eq!(
            delta("cmcache.0.bank.multi_gets"),
            2,
            "multi_gets double-counted"
        );
        // The partitioned daemon's group timed out (initial try + 1 retry)
        // and every one of its keys was shed as a degraded miss…
        assert_eq!(delta("cmcache.0.bank.rpc_timeouts"), 2);
        assert_eq!(delta("cmcache.0.bank.retries"), 1);
        assert_eq!(delta("cmcache.0.bank.degraded_misses"), 2);
        // None of the group's keys is known to have landed: both count.
        assert_eq!(delta("cmcache.0.bank.failures"), 2);
        // …while the whole 4-block read stayed miss/hit-consistent: the
        // healthy daemon's 2 blocks hit, the partitioned daemon's 2 missed.
        assert_eq!(delta("cmcache.0.bank.gets"), 4);
        assert_eq!(delta("cmcache.0.bank.hits"), 2);
        assert_eq!(delta("cmcache.0.bank.misses"), 2);

        // After healing + revival the same read is fully bank-served again.
        c.heal_mcd(0);
        c.revive_mcd(0);
        c.handle().sleep(SimDuration::millis(2)).await;
        assert_eq!(m.read(fd, 0, 8192).await.unwrap(), payload);
    });
}

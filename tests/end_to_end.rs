//! Cross-crate integration: drive the complete stacks (client translators →
//! fabric → server translators → storage) and verify data integrity and
//! the headline cache behaviours by their counters. Equivalence with
//! NoCache, coherence across clients and replay determinism are the one
//! storm's (`tests/common/mod.rs`).

use std::rc::Rc;

use imca_repro::imca::{
    keys, Cluster, ClusterConfig, ImcaConfig, MetaConfig, Replication, RetryPolicy,
};
use imca_repro::memcached::{McConfig, Selector};
use imca_repro::sim::{join_all, Sim, SimDuration};

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

/// Regression: an RPC deadline expiring in the middle of a batched
/// `get_multi` must fail the *whole* per-daemon group — the read is
/// forwarded to the server intact (no block assembled from a partial
/// multi-get response) and the group still counts exactly one
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

/// Wait until SMCache owes the bank nothing.
async fn drained(c: &Cluster) {
    while c.pending_updates() > 0 {
        c.handle().sleep(SimDuration::micros(1)).await;
    }
}

/// `smcache.<name>` from a fresh snapshot.
fn smcache(c: &Cluster, name: &str) -> u64 {
    c.metrics().counter(&format!("smcache.{name}")).unwrap()
}

/// Four writers overwrite one warm block at once. Each write's update
/// waits for the one wound before it on that block, so every wave's
/// kept tokens are current: none conflicts, none falls back, and the
/// bank ends with the disk's bytes.
#[test]
fn racing_writers_of_one_block_take_turns() {
    for factor in [1, 2] {
        let mut sim = Sim::new(5);
        let cluster = Rc::new(Cluster::build(
            sim.handle(),
            ClusterConfig::imca(ImcaConfig {
                mcd_count: 2,
                mcd_config: McConfig::with_mem_limit(32 << 20),
                replication: Replication { factor },
                ..ImcaConfig::default()
            }),
        ));
        let c = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = c.mount();
            m.create("/race").await.unwrap();
            let fd = m.open("/race").await.unwrap();
            m.write(fd, 0, &[1u8; 6144]).await.unwrap();
            drained(&c).await;
            let writers = (2..6u8).map(|fill| {
                let m = Rc::clone(&m);
                async move { m.write(fd, 0, &[fill; 2048]).await.unwrap() }
            });
            join_all(c.handle(), writers.collect()).await;
            drained(&c).await;
            let cached = m.read(fd, 0, 6144).await.unwrap();
            assert_eq!(smcache(&c, "cas_conflicts"), 0, "R={factor}");
            assert_eq!(smcache(&c, "cas_fallback_purges"), 0, "R={factor}");
            // The open purges the bank: this read comes from the disk.
            m.close(fd).await.unwrap();
            let fd = m.open("/race").await.unwrap();
            assert_eq!(m.read(fd, 0, 6144).await.unwrap(), cached, "R={factor}");
        });
    }
}

/// A read fill's `set`s take no place in the write order, so a write
/// whose wave a fill may race waits for its verdicts before it replies.
/// The bank loses `/fill` while SMCache still keeps its blocks' tokens;
/// a second client's read misses and refills 600 blocks, one daemon's
/// three frames; the write to block 0 goes once the fill's first frame
/// has landed, so its kept token is stale: its `cas` conflicts and the
/// write falls back before it replies.
#[test]
fn a_write_beside_a_read_fill_waits_for_its_verdicts() {
    const BLOCKS: usize = 600;
    let mut sim = Sim::new(5);
    let cluster = Rc::new(Cluster::build(sim.handle(), imca_config(1)));
    let c = Rc::clone(&cluster);
    sim.run_main(async move {
        let (writer, reader) = (c.mount(), c.mount());
        writer.create("/fill").await.unwrap();
        let fd = writer.open("/fill").await.unwrap();
        let rfd = reader.open("/fill").await.unwrap();
        writer
            .write(fd, 0, &vec![1u8; BLOCKS * 2048])
            .await
            .unwrap();
        drained(&c).await;
        let engine = c.mcds()[0].server().store();
        engine.flush_all();
        let (tx, read) = imca_repro::sim::sync::oneshot();
        let r = Rc::clone(&reader);
        c.handle().spawn(async move {
            tx.send(r.read(rfd, 0, (BLOCKS * 2048) as u64).await);
        });
        let block0 = keys::block_key("/fill", 0);
        while engine.get(&block0, 0).is_none() {
            c.handle().sleep(SimDuration::micros(1)).await;
        }
        writer.write(fd, 0, &[2u8; 2048]).await.unwrap();
        assert_eq!(
            smcache(&c, "cas_fallback_purges"),
            1,
            "the write replied before its wave's verdicts"
        );
        assert!(read.await.unwrap().is_ok());
        drained(&c).await;
        let mut want = vec![1u8; BLOCKS * 2048];
        want[..2048].fill(2);
        assert_eq!(reader.read(rfd, 0, want.len() as u64).await.unwrap(), want);
    });
}

/// What the first client does to `/g` while a second client, holding a
/// lease on it, stats it.
#[derive(Clone, Copy, Debug)]
enum Change {
    /// `/g` is absent; the second client holds a negative lease.
    Create,
    /// `/g` holds 100 bytes; the write makes it 200.
    Write,
    /// `/g` exists; the unlink removes it.
    Unlink,
}

/// One lag of the lease-window sweep: the second client stats `/g`
/// `lag_us` after the first client's `change` begins, and once more
/// after both are done. Whether either stat answered what `/g` was
/// before the change, at or after the change had returned.
fn stale_after_return(change: Change, lag_us: u64) -> bool {
    let mut sim = Sim::new(1);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            mcd_config: McConfig::with_mem_limit(32 << 20),
            meta: MetaConfig::lease(),
            ..ImcaConfig::default()
        }),
    ));
    let c = Rc::clone(&cluster);
    sim.run_main(async move {
        let first = c.mount();
        let (_, second) = c.mount_with_meta();
        let second = second.expect("imca mount has a cmcache");
        let fd = match change {
            Change::Create => None,
            Change::Write | Change::Unlink => {
                first.create("/g").await.unwrap();
                let fd = first.open("/g").await.unwrap();
                first.write(fd, 0, &[1u8; 100]).await.unwrap();
                Some(fd)
            }
        };
        drained(&c).await;
        // The second client's lease on what `/g` is before the change.
        let before = second.stat("/g".into()).await.stat;
        let h = c.handle().clone();
        let (tx, racing) = imca_repro::sim::sync::oneshot();
        let (s, hs) = (Rc::clone(&second), h.clone());
        h.spawn(async move {
            hs.sleep(SimDuration::micros(lag_us)).await;
            let r = s.stat("/g".into()).await;
            tx.send((r.stat, hs.now()));
        });
        match change {
            Change::Create => first.create("/g").await.unwrap(),
            Change::Write => {
                let fd = fd.expect("opened above");
                first.write(fd, 0, &[2u8; 200]).await.unwrap();
            }
            Change::Unlink => first.unlink("/g").await.unwrap(),
        }
        let returned = h.now();
        let (answer, at) = racing.await.unwrap();
        let after = second.stat("/g".into()).await.stat;
        (answer == before && at >= returned) || after == before
    })
}

/// The second client's stat, `0..400` µs into the change, one lag per
/// µs: the lags at which it saw the old `/g` after the change returned.
fn lease_window(change: Change) -> Vec<u64> {
    (0..400)
        .filter(|&lag| stale_after_return(change, lag))
        .collect()
}

/// A create revokes leases only once its stat has landed, so no lookup
/// installs a negative lease nothing revokes: no stat answers ENOENT
/// once the create has returned, whenever it was issued. Revoking
/// before the bank's entry changes leaves a window of lags (80-100 µs
/// here) in which a lookup reads the marker after the revocation and
/// leases it past the create's reply.
#[test]
fn no_stat_answers_enoent_once_a_create_returned() {
    assert_eq!(lease_window(Change::Create), Vec::<u64>::new());
}

#[test]
#[ignore = "write window open: ROADMAP 3(a)"]
fn no_stat_answers_the_old_size_once_a_write_returned() {
    assert_eq!(lease_window(Change::Write), Vec::<u64>::new());
}

#[test]
#[ignore = "unlink window open: ROADMAP 3(a)"]
fn no_stat_answers_a_file_once_its_unlink_returned() {
    assert_eq!(lease_window(Change::Unlink), Vec::<u64>::new());
}

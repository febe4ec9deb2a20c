//! Shared chaos drivers for the integration suites.
//!
//! The "full storm" — fractional storage error rates, a controller
//! brown-out window, a gray-failure slow disk, bank packet loss and
//! jitter, an MCD kill/revive, and a server crash/restart — lives here so
//! that `random_ops.rs` (fixed-seed replay properties) and
//! `determinism.rs` (the same storm under both timer back-ends) drive
//! the byte-for-byte identical scenario.

use std::rc::Rc;

use imca_repro::fabric::FaultPlan;
use imca_repro::glusterfs::FsError;
use imca_repro::imca::{Cluster, ClusterConfig, ImcaConfig, MetaConfig, Replication};
use imca_repro::memcached::McConfig;
use imca_repro::metrics::Snapshot;
use imca_repro::sim::{Scheduler, Sim, SimDuration, SimHandle, SimTime};
use imca_repro::storage::StorageFaultPlan;

/// Build the storm's cluster: 2 MCDs, 8 KB blocks over a 4 KB backend
/// page size (a small write warms only its own pages, so SMCache's
/// covering re-read must fetch the rest of the block from the sick
/// media — the path that produces dropped pushes), and a lossy jittery
/// bank fabric.
pub fn build_chaos_cluster(
    h: SimHandle,
    seed: u64,
    replication: usize,
    meta: MetaConfig,
) -> Rc<Cluster> {
    let cluster = Rc::new(Cluster::build(
        h,
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            block_size: 8192,
            mcd_config: McConfig::with_mem_limit(8 << 20),
            replication: Replication {
                factor: replication,
            },
            meta,
            ..ImcaConfig::default()
        }),
    ));
    cluster.install_bank_faults(FaultPlan {
        loss: 0.03,
        jitter: SimDuration::micros(2),
        ..FaultPlan::seeded(seed)
    });
    cluster
}

/// Drive one cluster through *everything at once*. Returns the number of
/// client-visible I/O errors the storm surfaced (always > 0 — asserted,
/// because a storm that never bites proves nothing).
pub async fn chaos_storm(c: Rc<Cluster>, h: SimHandle, seed: u64) -> u32 {
    let m = c.mount();
    let mut fds = Vec::new();
    for f in 0..3 {
        let p = format!("/chaos/{f}");
        m.create(&p).await.unwrap();
        fds.push(m.open(&p).await.unwrap());
    }
    // Seed data while everything is healthy.
    for (i, &fd) in fds.iter().enumerate() {
        m.write(fd, 0, &vec![i as u8; 8192]).await.unwrap();
    }
    // Storage turns hostile: fractional error rates (a successful
    // write whose covering bank re-read fails is what drops pushes),
    // a brown-out window, and one slow member.
    c.install_storage_faults(StorageFaultPlan {
        read_error: 0.3,
        write_error: 0.2,
        error_windows: vec![(
            SimTime(h.now().as_nanos() + 2_000_000),
            SimTime(h.now().as_nanos() + 3_000_000),
        )],
        slow_disks: vec![0],
        slow_factor: 6.0,
        ..StorageFaultPlan::seeded(seed ^ 0xD15C)
    });
    let mut io_errors_seen = 0u32;
    for round in 0..30u64 {
        let fd = fds[(round % 3) as usize];
        let off = (round * 1111) % 8192;
        if round % 4 == 0 {
            // Memory pressure: a cold page cache forces SMCache's
            // covering re-read to the sick media, so a successful
            // write's push can die (`smcache.dropped_pushes`). Under
            // the default `Coherence::Cas` a write into an
            // already-tracked block replaces it in place without
            // touching the disk, so every other pressure-write lands
            // in a frontier block the tracker has never seen (or that
            // a failed fill just evicted) — that keeps the covering
            // fill read, and with it the dropped-push path, in play:
            // each pressure write extends the file into a block the
            // tracker has never seen.
            c.backend().drop_caches();
            let woff = 8192 * (1 + round / 4) + off % 4096;
            if m.write(fd, woff, &vec![round as u8; 1500]).await.is_err() {
                io_errors_seen += 1;
            }
        } else if m.read(fd, off, 2000).await.is_err() {
            io_errors_seen += 1;
        }
        if round == 10 {
            c.kill_mcd(0);
        }
        if round == 14 {
            c.revive_mcd(0);
        }
        if round == 18 {
            let from = h.now();
            c.network()
                .add_drop_window(from, SimTime(from.as_nanos() + 200_000));
        }
    }
    // The daemon dies mid-storm; writes now fail fast client-side.
    c.crash_server();
    for &fd in &fds {
        assert_eq!(m.write(fd, 0, b"lost").await, Err(FsError::Io));
    }
    c.restart_server().await;
    // Calm after the storm: with a benign plan every region reads
    // cleanly again (miss pass repopulating the purged bank, then a
    // hit pass).
    c.install_storage_faults(StorageFaultPlan::default());
    for _pass in 0..2 {
        for &fd in &fds {
            m.read(fd, 0, 8192).await.unwrap();
        }
    }
    assert!(io_errors_seen > 0, "the storm never surfaced an I/O error");
    io_errors_seen
}

/// The storm on a fresh `Sim` with the given timer back-end. Returns
/// everything the run exposes — virtual end time (ns), event count, and
/// the full metrics snapshot; two runs are "the same" iff these are equal.
pub fn run_full_chaos(
    seed: u64,
    replication: usize,
    meta: MetaConfig,
    scheduler: Scheduler,
) -> (u64, u64, Snapshot) {
    let mut sim = Sim::with_scheduler(seed, scheduler);
    let cluster = build_chaos_cluster(sim.handle(), seed, replication, meta);
    let c = Rc::clone(&cluster);
    let h = sim.handle();
    sim.spawn(async move {
        chaos_storm(c, h, seed).await;
    });
    let s = sim.run();
    (s.end_time.as_nanos(), s.events, cluster.metrics())
}

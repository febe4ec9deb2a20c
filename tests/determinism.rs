//! Replay and timer-back-end determinism of the full IMCa stack
//! (DESIGN.md §7).
//!
//! `Scheduler::Heap` is the reference model for the hierarchical timer
//! wheel: both must drive fault schedules, lease TTLs, watchdog timeouts
//! and all through the identical trace. The first half holds them to
//! that on the one storm's canonical schedule ([`common::canonical`])
//! under every row of its configuration table; the second half drives
//! one cluster with concurrent clients and a concurrent fault schedule,
//! and requires a bit-identical replay as well as agreement between the
//! back-ends. It is the end-to-end companion to the engine-level
//! property tests in `crates/sim/tests/wheel_props.rs`.

mod common;

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use common::{canonical, Config};
use imca_repro::fabric::FaultPlan;
use imca_repro::imca::{Cluster, ClusterConfig, MetaConfig};
use imca_repro::metrics::Snapshot;
use imca_repro::sim::{join_all, Scheduler, Sim, SimDuration, SimHandle, SimTime};
use imca_repro::storage::StorageFaultPlan;

/// The canonical schedule under both timer back-ends, on every
/// configuration the storm runs.
#[test]
fn chaos_fleet_agrees_across_schedulers() {
    for config in Config::ALL {
        let heap = config.storm(Scheduler::Heap, 1973, canonical());
        // The storm actually stormed — guards against the back-ends
        // being vacuously equal.
        heap.assert_ran_every_variant();
        let leased = config.build().0.meta == MetaConfig::lease();
        let revoked = heap.metrics.counter_sum("leases.revocations_sent") > 0;
        let io_errors = heap.metrics.counter_sum("storage.io_errors");
        assert!(io_errors > 0, "{config:?}: no storage errors");
        assert!(heap.sick_errors > 0, "{config:?}: sick storage never bit");
        assert!(revoked || !leased, "{config:?}: never revoked a lease");
        let wheel = config.storm(Scheduler::Wheel, 1973, canonical());
        assert_eq!(heap, wheel, "{config:?}: diverged between timer back-ends");
    }
}

// ---------------------------------------------------------------------
// The concurrent storm: ONE cluster, two clients and a fault driver all
// running at once, so every fault class — bank packet loss, a network
// drop window, an MCD kill/revive, a partition/heal, fractional storage
// errors with a brown-out window and a slow disk, and a server
// crash/restart — lands mid-traffic instead of between a single
// client's ops. The trace must replay exactly and must not depend on
// the timer back-end.
// ---------------------------------------------------------------------

const STORM_SEED: u64 = 0x5707;
const STORM_CLIENTS: usize = 2;

/// Everything the storm exposes; two runs are "the same" iff this is equal.
#[derive(Debug, PartialEq)]
struct StormTrace {
    end_time: u64,
    /// Io errors seen by each client, in client order.
    client_errors: Vec<u64>,
    metrics: Snapshot,
}

/// One client's side of the storm: seed a file, then interleave
/// extending writes (through cold backend pages — the dropped-push
/// path) with reads while the fault driver tears the cluster apart.
async fn client_storm(cluster: Rc<Cluster>, h: SimHandle, j: usize) -> u64 {
    let m = cluster.mount();
    let path = format!("/chaos/{j}");
    let mut errs = 0u64;
    // Seed under fire: the storm is already blowing, so every setup op
    // retries (deterministically) until it lands.
    while m.create(&path).await.is_err() {
        errs += 1;
        h.sleep(SimDuration::micros(500)).await;
    }
    let fd = loop {
        match m.open(&path).await {
            Ok(fd) => break fd,
            Err(_) => {
                errs += 1;
                h.sleep(SimDuration::micros(500)).await;
            }
        }
    };
    if m.write(fd, 0, &vec![j as u8; 8192]).await.is_err() {
        errs += 1;
    }
    for round in 0..40u64 {
        h.sleep(SimDuration::micros(120 + 30 * j as u64)).await;
        let off = (round * 1111) % 8192;
        if round % 4 == j as u64 % 2 {
            let woff = 8192 * (1 + round / 4) + off % 4096;
            if m.write(fd, woff, &vec![round as u8; 1500]).await.is_err() {
                errs += 1;
            }
        } else {
            // Alternate the warm seeded block with the cold write
            // frontier, so reads reach the faulted disks too.
            let roff = if round % 2 == 0 {
                off
            } else {
                8192 * (1 + round / 4)
            };
            if m.read(fd, roff, 2000).await.is_err() {
                errs += 1;
            }
        }
    }
    errs
}

/// The fault schedule, paced on virtual time across the clients' traffic.
async fn fault_driver(cluster: Rc<Cluster>, h: SimHandle, bank: FaultPlan, seed: u64) {
    cluster.install_bank_faults(FaultPlan { seed, ..bank });
    h.sleep(SimDuration::micros(400)).await;
    let now = h.now().as_nanos();
    // Client rounds take 10–45 ms each under packet loss (RPC timeouts
    // dominate), so the whole storm spans ~0.5 s of virtual time — the
    // schedule below paces the faults across that window.
    cluster.install_storage_faults(StorageFaultPlan {
        read_error: 0.5,
        write_error: 0.4,
        error_windows: vec![(SimTime(now + 1_000_000), SimTime(now + 300_000_000))],
        slow_disks: vec![0],
        slow_factor: 6.0,
        ..StorageFaultPlan::seeded(seed ^ 0xD15C)
    });
    // A cold page cache forces every server read/flush to the sick
    // media — without this the page cache absorbs the whole storm.
    for _ in 0..10 {
        h.sleep(SimDuration::millis(10)).await;
        cluster.backend().drop_caches();
    }
    cluster.kill_mcd(0);
    h.sleep(SimDuration::millis(50)).await;
    cluster.revive_mcd(0);
    h.sleep(SimDuration::millis(50)).await;
    cluster.partition_mcd(1);
    h.sleep(SimDuration::millis(50)).await;
    cluster.heal_mcd(1);
    let from = h.now();
    cluster
        .network()
        .add_drop_window(from, SimTime(from.as_nanos() + 5_000_000));
    h.sleep(SimDuration::millis(50)).await;
    cluster.crash_server();
    h.sleep(SimDuration::millis(60)).await;
    cluster.restart_server().await;
    cluster.install_storage_faults(StorageFaultPlan::default());
}

/// The storm on one `Sim` with the given timer back-end: the clients,
/// then the fault driver, each its own task, and every one of them
/// joined before the trace is read.
fn run_storm(scheduler: Scheduler) -> StormTrace {
    let mut sim = Sim::with_scheduler(STORM_SEED, scheduler);
    let h = sim.handle();
    // The full-chaos R=2 row of the storm's table: 8 KB blocks, a lossy,
    // jittery bank fabric.
    let (cfg, bank) = Config::ChaosR2.build();
    let cluster = Rc::new(Cluster::build(h.clone(), ClusterConfig::imca(cfg)));
    let c = Rc::clone(&cluster);
    let client_errors = sim.run_main(async move {
        let mut tasks: Vec<Pin<Box<dyn Future<Output = Option<u64>>>>> = (0..STORM_CLIENTS)
            .map(|j| {
                let (c, h2) = (Rc::clone(&c), h.clone());
                Box::pin(async move { Some(client_storm(c, h2, j).await) }) as Pin<Box<_>>
            })
            .collect();
        let h2 = h.clone();
        tasks.push(Box::pin(async move {
            fault_driver(c, h2, bank, STORM_SEED).await;
            None
        }));
        join_all(&h, tasks).await.into_iter().flatten().collect()
    });
    StormTrace {
        end_time: sim.now().as_nanos(),
        client_errors,
        metrics: cluster.metrics(),
    }
}

/// The storm actually bit — guards against vacuous equality.
fn assert_storm_bit(trace: &StormTrace) {
    assert!(
        trace.client_errors.iter().sum::<u64>() > 0,
        "the storm never surfaced a client I/O error: {:?}",
        trace.client_errors
    );
    assert!(
        trace.metrics.counter("storage.io_errors").unwrap_or(0) > 0,
        "no storage errors"
    );
    assert_eq!(trace.metrics.counter("server.crashes"), Some(1));
    assert_eq!(trace.metrics.counter("server.restarts"), Some(1));
    assert_eq!(trace.metrics.counter("bank.mcd_failovers"), Some(1));
    assert_eq!(trace.metrics.counter("bank.mcd_revivals"), Some(1));
}

#[test]
fn cluster_storm_replays_bit_identically_and_across_schedulers() {
    let base = run_storm(Scheduler::Wheel);
    assert_storm_bit(&base);
    assert_eq!(
        base,
        run_storm(Scheduler::Wheel),
        "the storm diverged between two runs of one seed"
    );
    assert_eq!(
        base,
        run_storm(Scheduler::Heap),
        "the storm diverged between timer back-ends"
    );
}

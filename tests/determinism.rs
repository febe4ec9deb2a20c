//! Cross-worker-count determinism for the sharded engine (DESIGN.md §7).
//!
//! The same full-chaos storm `tests/random_ops.rs` replays on a single
//! `Sim` runs here as a *fleet*: three independent IMCa clusters (R=1,
//! R=2, R=2+leases) on their own `ParSim` shards, each reporting its
//! storm verdict to a fourth collector shard over the cross-shard
//! fabric. The conservative epoch scheme plus the canonical handoff sort
//! promise that the worker count is invisible to the model — so every
//! observable (virtual end time, per-shard event counts, epoch count,
//! three full metrics snapshots, and the collector's arrival log) must
//! be bit-identical for workers ∈ {1, 2, 8}, for the env-selected count
//! CI pins via `IMCA_SIM_WORKERS`, and across both timer back-ends.
//!
//! The second half drives one cluster with concurrent clients and a
//! concurrent fault schedule, and holds it to the same three promises.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use imca_repro::fabric::FaultPlan;
use imca_repro::imca::{Cluster, ClusterConfig, ImcaConfig, MetaConfig, Replication};
use imca_repro::memcached::McConfig;
use imca_repro::metrics::Snapshot;
use imca_repro::sim::{ParSim, Scheduler, Sim, SimDuration, SimHandle, SimTime};
use imca_repro::storage::StorageFaultPlan;

const SEED: u64 = 1973;
const COLLECTOR: usize = 3;

/// Everything the run exposes; two runs are "the same" iff this is equal.
#[derive(Debug, PartialEq)]
struct FleetTrace {
    end_time: u64,
    events: u64,
    epochs: u64,
    shard_events: Vec<u64>,
    /// (reporting shard, virtual arrival at the collector, io errors).
    collector_log: Vec<(u64, u64, u64)>,
    snapshots: Vec<Snapshot>,
}

/// Run the storm fleet. `workers = None` defers to `IMCA_SIM_WORKERS`
/// (default 1) — the knob `scripts/tier1.sh --strict` sets to pin the
/// genuinely parallel path in CI.
fn run_fleet(workers: Option<usize>, scheduler: Scheduler) -> FleetTrace {
    let mut par = ParSim::new(SEED)
        .lookahead(SimDuration::micros(5))
        .scheduler(scheduler);
    par = match workers {
        Some(w) => par.workers(w),
        None => par.workers_from_env(1),
    };
    let configs = [
        (1usize, MetaConfig::default()),
        (2, MetaConfig::default()),
        (2, MetaConfig::lease()),
    ];
    for (shard, (replication, meta)) in configs.into_iter().enumerate() {
        par.add_shard(move |ctx| {
            let h = ctx.handle();
            let comms = ctx.comms();
            let seed = SEED ^ shard as u64;
            let cluster = common::build_chaos_cluster(h.clone(), seed, replication, meta);
            let c = Rc::clone(&cluster);
            let h2 = h.clone();
            h.spawn(async move {
                let io_errors = common::chaos_storm(c, h2, seed).await;
                comms.send(COLLECTOR, (shard as u64, io_errors as u64));
            });
            move || cluster.metrics()
        });
    }
    par.add_shard(|ctx| {
        let h = ctx.handle();
        let comms = ctx.comms();
        let log = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        h.spawn(async move {
            for _ in 0..3 {
                let env = comms.recv().await.unwrap();
                let at = env.at.as_nanos();
                let (src, io_errors) = env.open::<(u64, u64)>();
                log2.borrow_mut().push((src, at, io_errors));
            }
        });
        move || log.borrow().clone()
    });
    let mut s = par.run();
    FleetTrace {
        end_time: s.end_time.as_nanos(),
        events: s.events,
        epochs: s.epochs,
        shard_events: s.shards.iter().map(|r| r.events).collect(),
        collector_log: s.take::<Vec<(u64, u64, u64)>>(COLLECTOR),
        snapshots: (0..3).map(|i| s.take::<Snapshot>(i)).collect(),
    }
}

/// The storm actually stormed, in every configuration, and the collector
/// heard every shard — guards against the replays being vacuously equal.
fn assert_fleet_bit(trace: &FleetTrace) {
    assert_eq!(trace.collector_log.len(), 3, "collector missed a shard");
    assert!(
        trace.collector_log.iter().all(|&(_, _, io)| io > 0),
        "a shard's storm surfaced no I/O errors: {:?}",
        trace.collector_log
    );
    for (i, snap) in trace.snapshots.iter().enumerate() {
        assert!(
            snap.counter("storage.io_errors").unwrap_or(0) > 0,
            "shard {i}: no storage errors"
        );
        assert_eq!(snap.counter("server.crashes"), Some(1), "shard {i}");
        assert_eq!(snap.counter("server.restarts"), Some(1), "shard {i}");
    }
    // The leased shard exercised the lease machinery, the replicated
    // shards the fan-out (R=2 shards push to the second replica).
    assert!(
        trace.snapshots[2]
            .counter("leases.revocations_sent")
            .unwrap_or(0)
            > 0,
        "the leased shard never revoked a lease"
    );
}

#[test]
fn chaos_fleet_replays_bit_identically_across_worker_counts() {
    let base = run_fleet(Some(1), Scheduler::default());
    assert_fleet_bit(&base);
    for workers in [2usize, 8] {
        let w = run_fleet(Some(workers), Scheduler::default());
        assert_eq!(
            base, w,
            "fleet trace diverged between workers=1 and workers={workers}"
        );
    }
}

/// The CI variant: `IMCA_SIM_WORKERS=2 cargo test --test determinism`
/// must see exactly the single-worker trace. Without the env var this
/// degenerates to 1-vs-1 (still a replay check, never vacuous).
#[test]
fn chaos_fleet_matches_under_env_selected_workers() {
    let base = run_fleet(Some(1), Scheduler::default());
    let env = run_fleet(None, Scheduler::default());
    assert_eq!(
        base,
        env,
        "fleet trace diverged under IMCA_SIM_WORKERS={:?}",
        std::env::var("IMCA_SIM_WORKERS").ok()
    );
}

// ---------------------------------------------------------------------
// The concurrent storm: ONE cluster, two clients and a fault driver all
// running at once, so every fault class — bank packet loss, a network
// drop window, an MCD kill/revive, a partition/heal, fractional storage
// errors with a brown-out window and a slow disk, and a server
// crash/restart — lands mid-traffic instead of between a single
// client's ops. The trace must replay exactly, must not depend on the
// timer back-end, and — run as shards of a `ParSim` — must not depend
// on the worker count.
// ---------------------------------------------------------------------

const STORM_SEED: u64 = 0x5707;
const STORM_CLIENTS: usize = 2;

fn storm_config() -> ClusterConfig {
    ClusterConfig::imca(ImcaConfig {
        mcd_count: 2,
        block_size: 8192,
        mcd_config: McConfig::with_mem_limit(8 << 20),
        replication: Replication { factor: 2 },
        ..ImcaConfig::default()
    })
}

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
async fn fault_driver(cluster: Rc<Cluster>, h: SimHandle, seed: u64) {
    cluster.install_bank_faults(FaultPlan {
        loss: 0.03,
        jitter: SimDuration::micros(2),
        ..FaultPlan::seeded(seed)
    });
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

/// Build the storm's cluster on `h` and set the clients and the fault
/// driver going. The returned closure harvests the trace once the
/// simulation that owns `h` has run.
fn wire_storm(h: SimHandle) -> impl FnOnce() -> StormTrace {
    let cluster = Rc::new(Cluster::build(h.clone(), storm_config()));
    let errs: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
    for j in 0..STORM_CLIENTS {
        let c = Rc::clone(&cluster);
        let h2 = h.clone();
        let errs2 = Rc::clone(&errs);
        h.spawn(async move {
            let e = client_storm(c, h2, j).await;
            errs2.borrow_mut().push((j, e));
        });
    }
    let c = Rc::clone(&cluster);
    let h2 = h.clone();
    h.spawn(async move {
        fault_driver(c, h2, STORM_SEED).await;
    });
    move || {
        let mut v = errs.borrow().clone();
        v.sort_unstable();
        StormTrace {
            end_time: h.now().as_nanos(),
            client_errors: v.into_iter().map(|(_, e)| e).collect(),
            metrics: cluster.metrics(),
        }
    }
}

/// The storm on one plain `Sim`.
fn run_storm_plain(scheduler: Scheduler) -> StormTrace {
    let mut sim = Sim::with_scheduler(STORM_SEED, scheduler);
    let finish = wire_storm(sim.handle());
    sim.run();
    finish()
}

/// Three independent copies of the storm, one per `ParSim` shard. A
/// shard's `Sim` is seeded from `(seed, shard index)`, so these traces
/// compare fleet to fleet, not against [`run_storm_plain`]. Also returns
/// the engine bookkeeping (events, epochs).
fn run_storm_fleet(workers: usize) -> (Vec<StormTrace>, u64, u64) {
    const SHARDS: usize = 3;
    let mut par = ParSim::new(STORM_SEED)
        .lookahead(SimDuration::micros(5))
        .workers(workers);
    for _ in 0..SHARDS {
        par.add_shard(|ctx| wire_storm(ctx.handle()));
    }
    let mut s = par.run();
    let traces = (0..SHARDS).map(|i| s.take::<StormTrace>(i)).collect();
    (traces, s.events, s.epochs)
}

/// The storm actually bit — guards against vacuous equality.
fn assert_storm_bit(trace: &StormTrace) {
    assert_eq!(trace.client_errors.len(), STORM_CLIENTS);
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
    let base = run_storm_plain(Scheduler::Wheel);
    assert_storm_bit(&base);
    assert_eq!(
        base,
        run_storm_plain(Scheduler::Wheel),
        "the storm diverged between two runs of one seed"
    );
    assert_eq!(
        base,
        run_storm_plain(Scheduler::Heap),
        "the storm diverged between timer back-ends"
    );
}

#[test]
fn cluster_storm_shards_replay_bit_identically_across_worker_counts() {
    let (base, events, epochs) = run_storm_fleet(1);
    for trace in &base {
        assert_storm_bit(trace);
    }
    for workers in [2usize, 8] {
        let (w, ev, ep) = run_storm_fleet(workers);
        assert_eq!(
            base, w,
            "storm fleet diverged between workers=1 and workers={workers}"
        );
        assert_eq!(
            (events, epochs),
            (ev, ep),
            "engine bookkeeping diverged at workers={workers}"
        );
    }
}

/// The timer back-end is as invisible as the worker count: the heap
/// baseline and the hierarchical wheel must drive the full IMCa stack —
/// fault schedules, lease TTLs, watchdog timeouts and all — through the
/// identical trace (the end-to-end companion to the engine-level
/// property tests in `crates/sim/tests/wheel_props.rs`).
#[test]
fn chaos_fleet_agrees_across_schedulers() {
    let heap = run_fleet(Some(2), Scheduler::Heap);
    let wheel = run_fleet(Some(2), Scheduler::Wheel);
    assert_fleet_bit(&heap);
    assert_eq!(heap, wheel, "fleet trace diverged between timer back-ends");
}

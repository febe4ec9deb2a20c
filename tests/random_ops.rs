//! Property-based end-to-end integrity: arbitrary programs of the one
//! storm's ops ([`common::Op`]) — data ops, file churn, bank, network,
//! storage and server faults — checked by its one oracle under every
//! row of the [`common::Config`] table (DESIGN.md §6), then the fixed
//! replays of the canonical schedule and the replication placement
//! invariants.

mod common;

use std::rc::Rc;

use proptest::prelude::*;

use common::{canonical, Config, Op, Plan, Trace, FILES, MCDS};
use imca_repro::imca::{keys, Cluster, ClusterConfig, ImcaConfig, Replication};
use imca_repro::memcached::McConfig;
use imca_repro::sim::{Scheduler, Sim};

/// The one op strategy, drawing one step of a program: a single op, or
/// a `Stat(f), Toggle(f), Stat(f)` triple. The triple is what reaches a
/// negative entry the create's purge must take out (a stat of an absent
/// path plants an ENOENT marker under `:m.stat`, the toggle creates it,
/// the second stat must see the file); single ops almost never line up
/// that way.
fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop_oneof![
        26 => single_op().prop_map(|op| vec![op]),
        2 => (0..FILES).prop_map(|f| vec![Op::Stat(f), Op::Toggle(f), Op::Stat(f)]),
    ]
}

/// A single op: every variant, data ops weighted up, and so are
/// restarts, because only writes run while the server is down, and
/// switches, so both clients hold descriptors and leases. Half the
/// data ops land on file 0, so one file sees long chains of EOF moves
/// and overwrites; toggles pick any file.
fn single_op() -> impl Strategy<Value = Op> {
    let file = || prop_oneof![Just(0u8), 0..FILES];
    let idx = || 0..MCDS;
    let plan = prop::sample::select(vec![Plan::Healthy, Plan::WriteErrors, Plan::Sick]);
    prop_oneof![
        5 => (file(), 0u32..12_000, 1u16..5_000, any::<u8>())
            .prop_map(|(f, offset, len, fill)| Op::Write(f, offset, len, fill)),
        4 => (file(), 0u32..16_000, 1u16..6_000)
            .prop_map(|(f, offset, len)| Op::Read(f, offset, len)),
        2 => file().prop_map(Op::Stat),
        1 => Just(Op::List),
        1 => file().prop_map(Op::Reopen),
        1 => (file(), any::<u16>()).prop_map(|(f, offset)| Op::Burst(f, offset)),
        1 => (file(), any::<u16>()).prop_map(|(f, offset)| Op::Race(f, offset)),
        1 => (0..FILES).prop_map(Op::Toggle),
        1 => idx().prop_map(Op::Kill),
        1 => idx().prop_map(Op::Revive),
        1 => idx().prop_map(Op::Partition),
        1 => idx().prop_map(Op::Heal),
        1 => (50u16..500).prop_map(Op::DropWindow),
        1 => (50u16..500, 1u16..1000).prop_map(|(us, extra)| Op::LatencySpike(us, extra)),
        1 => plan.prop_map(Op::Storage),
        1 => Just(Op::DropCaches),
        1 => Just(Op::Crash),
        1 => (file(), 0u32..12_000, 1u16..5_000, any::<u8>(), 0u16..300).prop_map(
            |(f, offset, len, fill, us)| Op::CrashMidWrite(f, offset, len, fill, us)
        ),
        3 => Just(Op::Restart),
        2 => Just(Op::Switch),
    ]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op_strategy(), 1..40).prop_map(|steps| steps.concat())
}

/// One property per row of the configuration table, in table order:
/// any op program, from any seed, passes the storm's oracle.
macro_rules! storm_properties {
    ($($(#[$doc:meta])* $name:ident: $config:ident,)*) => {
        proptest! {
            $(
                $(#[$doc])*
                #[test]
                fn $name(ops in ops(), seed in 0u64..1000) {
                    Config::$config.storm(Scheduler::default(), seed, ops);
                }
            )*
        }

        #[test]
        fn every_configuration_has_a_property() {
            assert_eq!([$(Config::$config),*], Config::ALL);
        }
    };
}

storm_properties! {
    random_ops_match_reference_sync_2k: TwoKb,
    random_ops_match_reference_small_blocks: SmallBlocks,
    /// §4.4 "Overhead and Delayed Updates": threaded updates trade a
    /// staleness window for write latency, so the driver drains the
    /// update queue after every mutation and a stat may lag.
    random_ops_match_reference_threaded: Threaded,
    /// Replication may turn misses into warm hits, never into stale bytes.
    random_ops_match_reference_replicated: R2,
    /// Every stat the lease table answers locally must still be exact:
    /// writes and unlinks revoke before the bank's stat entry moves.
    random_ops_match_reference_leased: Leases,
    random_ops_match_reference_leased_replicated: R2Leases,
    /// Reads that cross EOF are short, blocks past it are cached empty:
    /// both passes must match, and a recreate must drop the old tail.
    eof_short_reads_match_nocache_batched: EofBatched,
    eof_short_reads_match_nocache_per_key: EofPerKey,
    /// Sheds, replica failovers and cold rewarms may change *where* a
    /// read is served from, never *what* it returns.
    overload_matches_nocache: Overload,
    storage_and_server_chaos_matches_nocache: ChaosR1,
    /// Held leases, negative ENOENT entries and the create revalidation
    /// under sick storage and server crashes: every verdict must match
    /// plain GlusterFS, which the revoke-before-update order guarantees.
    storage_and_server_chaos_matches_nocache_leased: ChaosR1Leases,
    storage_and_server_chaos_matches_nocache_replicated: ChaosR2,
    /// A CAS replacement or fallback purge must land on every replica
    /// *and* revoke every lease before the writer's ack.
    storage_and_server_chaos_matches_nocache_leased_replicated: ChaosR2Leases,
    /// The paper's purge + repush protocol under the same chaos: a push
    /// whose covering re-read fails is dropped and the file purged.
    storage_and_server_chaos_matches_nocache_purge: ChaosPurge,
}

/// Run `run` twice: a fixed seed must replay to the same end time, event
/// count, snapshot and op counts — the property that makes any failure
/// reproducible. Then every counter pattern in `moved` (a `*` segment
/// sums over instances) must be non-zero: a replay that never exercised
/// its machinery proves nothing.
fn assert_replays(run: impl Fn() -> Trace, moved: &[&str]) -> Trace {
    let a = run();
    let b = run();
    assert_eq!(a, b, "the trace diverged between replays");
    for pattern in moved {
        assert!(a.metrics.counter_sum(pattern) > 0, "{pattern} never moved");
    }
    a
}

/// One fixed replay per named row: the canonical schedule replays, runs
/// every op variant, surfaces I/O errors to the client under sick
/// storage (a storm that never bites proves nothing), leaves cached
/// blocks for the bank check, and moves the row's counters.
macro_rules! canonical_replays {
    ($($(#[$doc:meta])* $name:ident: $config:ident, [$($moved:literal),*];)*) => {$(
        $(#[$doc])*
        #[test]
        fn $name() {
            let trace = assert_replays(
                || Config::$config.storm(Scheduler::default(), 1973, canonical()),
                &[$($moved),*],
            );
            trace.assert_ran_every_variant();
            assert!(trace.sick_errors > 0, "the sick storage never bit");
            assert!(trace.cached_copies > 0, "the bank check compared nothing");
        }
    )*};
}

canonical_replays! {
    fixed_seed_fault_schedule_replays_identically: TwoKb,
        ["cmcache.*.bank.rpc_timeouts", "cmcache.*.stat_hits"];
    /// The threaded worker runs the update jobs: bank fills and pushes
    /// that no verdict needs, so only its counters can tell.
    fixed_seed_threaded_replays_identically: Threaded,
        ["smcache.deferred_jobs", "smcache.blocks_pushed", "cmcache.*.read_hits"];
    fixed_seed_fault_schedule_replays_identically_leased: Leases,
        ["cmcache.0.meta.lease_hits", "cmcache.1.meta.lease_hits", "leases.revocations_sent"];
    fixed_seed_fault_schedule_replays_identically_replicated: R2,
        ["cmcache.*.bank.replica_failovers", "smcache.cas_replacements",
         "smcache.cas_conflicts", "smcache.cas_fallback_purges"];
    fixed_seed_full_chaos_replays_identically: ChaosR1,
        ["storage.io_errors", "smcache.dropped_pushes", "bank.mcd_revivals"];
    fixed_seed_full_chaos_replays_identically_replicated: ChaosR2, ["storage.io_errors"];
    fixed_seed_full_chaos_replays_identically_leased_replicated: ChaosR2Leases,
        ["storage.io_errors", "leases.revocations_sent"];
    fixed_seed_full_chaos_replays_identically_purge: ChaosPurge,
        ["storage.io_errors", "smcache.dropped_pushes"];
    fixed_seed_overload_replays_identically_with_sheds: Overload,
        ["bank.per_daemon.*.sheds", "smcache.rewarm_suppressed", "leases.revocations_sent"];
}

/// Under threaded updates, a dark bank — a partitioned daemon, or a drop
/// window open as a write begins — makes the update worker wait out the
/// bank client's retry budget before a block cached empty ahead of the
/// write is replaced, once per job queued since the last settle (here a
/// read fill ahead of the write's job): the driver's settle must cover
/// them all.
#[test]
fn threaded_window_outlasts_a_dark_bank_retry_budget() {
    use Op::*;
    let storm = |seed, ops| Config::Threaded.storm(Scheduler::default(), seed, ops);
    storm(
        816,
        vec![
            Burst(0, 49417),
            Partition(0),
            Write(0, 3127, 4013, 71),
            Burst(0, 4844),
        ],
    );
    storm(
        781,
        vec![
            Burst(0, 18109),
            DropWindow(116),
            Write(0, 8609, 3978, 65),
            Burst(0, 16125),
        ],
    );
    let queued_fill = vec![
        Kill(0),
        Partition(0),
        Read(0, 5505, 3156),
        DropWindow(341),
        Revive(0),
        Write(0, 3010, 4311, 41),
        Heal(0),
        Burst(0, 58021),
    ];
    storm(460, queued_fill);
}

/// Two writers racing: bytes read, or a stat taken, before the other
/// writer's write returned must not land in the bank after its update.
/// The shortest programs a soak found: an older stat refresh landing
/// last on a benign fabric (seed 0); on a lossy one, a retried covering
/// re-read (seed 2) or stat refresh (seed 27).
#[test]
fn racing_writers_leave_no_older_stat_or_block() {
    use Op::*;
    Config::SmallBlocks.storm(Scheduler::default(), 0, vec![Race(0, 975), Stat(0)]);
    let reread = vec![Race(0, 5982), Burst(0, 47684)];
    Config::EofBatched.storm(Scheduler::default(), 2, reread);
    Config::EofBatched.storm(Scheduler::default(), 27, vec![Race(1, 46099), Stat(1)]);
}

// ---------------------------------------------------------------------------
// Replication placement invariants (DESIGN.md §4d).
// ---------------------------------------------------------------------------

/// After a warm-up read pass, every cached block must live on exactly
/// `min(R, live_daemons)` daemons; killing one replica must leave reads
/// warm (served from the survivor, `replica_failovers` ticking, no new
/// `degraded_misses`); and an unlink must purge the key from all replicas.
#[test]
fn replication_places_blocks_on_exactly_r_daemons_and_purges_all() {
    for (mcds, r) in [(2usize, 2usize), (3, 2), (2, 1)] {
        let mut sim = Sim::new(7);
        let cluster = Rc::new(Cluster::build(
            sim.handle(),
            ClusterConfig::imca(ImcaConfig {
                mcd_count: mcds,
                block_size: 2048,
                mcd_config: McConfig::with_mem_limit(8 << 20),
                replication: Replication { factor: r },
                ..ImcaConfig::default()
            }),
        ));
        let c = Rc::clone(&cluster);
        sim.run_main(async move {
            let holders = |key: &[u8]| -> usize {
                c.mcds()
                    .iter()
                    .filter(|n| n.server().store().get(key, 0).is_some())
                    .count()
            };
            let m = c.mount();
            m.create("/inv/f").await.unwrap();
            let fd = m.open("/inv/f").await.unwrap();
            let content = vec![0xAB; 6144];
            m.write(fd, 0, &content).await.unwrap();
            // Warm-up: the read pass populates the bank through the
            // replicated client.
            m.read(fd, 0, 6144).await.unwrap();
            for block in [0u64, 2048, 4096] {
                assert_eq!(
                    holders(&keys::block_key("/inv/f", block)),
                    r.min(mcds),
                    "block {block} not on exactly min(R={r}, live={mcds}) daemons"
                );
            }
            if r > 1 {
                // One replica dies: reads stay warm off the survivor.
                let before = c.metrics();
                c.kill_mcd(0);
                assert_eq!(m.read(fd, 0, 6144).await.unwrap(), content);
                let after = c.metrics();
                assert!(
                    after.counter("cmcache.0.bank.replica_failovers").unwrap()
                        > before.counter("cmcache.0.bank.replica_failovers").unwrap(),
                    "kill produced no warm failover (R={r}, mcds={mcds})"
                );
                assert_eq!(
                    after.counter("cmcache.0.bank.degraded_misses"),
                    before.counter("cmcache.0.bank.degraded_misses"),
                    "warm failover must not count as a degraded miss"
                );
                c.revive_mcd(0);
            }
            // Unlink purges the stat entry and every data replica.
            m.close(fd).await.unwrap();
            m.unlink("/inv/f").await.unwrap();
            for block in [0u64, 2048, 4096] {
                assert_eq!(
                    holders(&keys::block_key("/inv/f", block)),
                    0,
                    "unlink left block {block} on a replica (R={r}, mcds={mcds})"
                );
            }
            assert_eq!(holders(&keys::stat_key("/inv/f")), 0);
        });
    }
}

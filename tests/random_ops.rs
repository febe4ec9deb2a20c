// `HashMap::entry` cannot be used where the inserted value is produced by
// an `await` while the map is borrowed, so contains/insert is deliberate.
#![allow(clippy::map_entry)]
//! Property-based end-to-end integrity: arbitrary interleavings of
//! create/open/write/read/stat/close/unlink through the full IMCa stack
//! must behave exactly like a plain in-memory reference filesystem —
//! regardless of block size, bank size, update mode, or injected MCD
//! failures (DESIGN.md §6).

mod common;

use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;

use imca_repro::fabric::FaultPlan;
use imca_repro::glusterfs::FsError;
use imca_repro::imca::{
    keys, Cluster, ClusterConfig, ImcaConfig, McdCosts, MetaConfig, Replication, RetryPolicy,
};
use imca_repro::memcached::McConfig;
use imca_repro::metrics::Snapshot;
use imca_repro::sim::{join_all, Scheduler, Sim, SimDuration, SimHandle, SimTime};
use imca_repro::storage::StorageFaultPlan;

#[derive(Debug, Clone)]
enum Op {
    Write {
        file: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Read {
        file: u8,
        offset: u16,
        len: u16,
    },
    Stat {
        file: u8,
    },
    Reopen {
        file: u8,
    },
    Unlink {
        file: u8,
    },
    KillMcd {
        idx: u8,
    },
    ReviveMcd {
        idx: u8,
    },
    /// Sever one MCD from the fabric — unlike `KillMcd` the daemon keeps
    /// its memory, so the bank client must *time out*, shed, and treat it
    /// as a miss rather than seeing a clean connection reset.
    Partition {
        idx: u8,
    },
    /// Undo a partition and revive the daemon (a healed daemon may have
    /// been quarantined by a failed purge; revival restarts it empty,
    /// which is the only safe way to let it serve again).
    Heal {
        idx: u8,
    },
    /// Total packet loss on the bank links for the next `dur_us` µs.
    DropWindow {
        dur_us: u16,
    },
    /// Extra one-way latency on the bank links for the next `dur_us` µs.
    LatencySpike {
        dur_us: u16,
        extra_us: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..3, 0u16..12_000, 1u16..5_000, any::<u8>())
            .prop_map(|(file, offset, len, fill)| Op::Write { file, offset, len, fill }),
        4 => (0u8..3, 0u16..16_000, 1u16..6_000)
            .prop_map(|(file, offset, len)| Op::Read { file, offset, len }),
        2 => (0u8..3).prop_map(|file| Op::Stat { file }),
        1 => (0u8..3).prop_map(|file| Op::Reopen { file }),
        1 => (0u8..3).prop_map(|file| Op::Unlink { file }),
        1 => (0u8..2).prop_map(|idx| Op::KillMcd { idx }),
        1 => (0u8..2).prop_map(|idx| Op::ReviveMcd { idx }),
        1 => (0u8..2).prop_map(|idx| Op::Partition { idx }),
        1 => (0u8..2).prop_map(|idx| Op::Heal { idx }),
        1 => (50u16..500).prop_map(|dur_us| Op::DropWindow { dur_us }),
        1 => (50u16..500, 1u16..1000)
            .prop_map(|(dur_us, extra_us)| Op::LatencySpike { dur_us, extra_us }),
    ]
}

/// Plain reference model: files are growable byte vectors.
#[derive(Default)]
struct Reference {
    files: HashMap<u8, Vec<u8>>,
}

impl Reference {
    fn write(&mut self, file: u8, offset: usize, data: &[u8]) {
        let buf = self.files.entry(file).or_default();
        if buf.len() < offset + data.len() {
            buf.resize(offset + data.len(), 0);
        }
        buf[offset..offset + data.len()].copy_from_slice(data);
    }

    fn read(&self, file: u8, offset: usize, len: usize) -> Vec<u8> {
        match self.files.get(&file) {
            None => Vec::new(),
            Some(buf) => {
                let start = offset.min(buf.len());
                let end = (offset + len).min(buf.len());
                buf[start..end].to_vec()
            }
        }
    }
}

fn run_scenario(
    ops: Vec<Op>,
    block_size: u64,
    threaded: bool,
    seed: u64,
    replication: usize,
    meta: MetaConfig,
) -> (u64, u64, imca_repro::metrics::Snapshot) {
    let mut sim = Sim::new(seed);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            block_size,
            threaded_updates: threaded,
            mcd_config: McConfig::with_mem_limit(8 << 20),
            replication: Replication {
                factor: replication,
            },
            meta,
            ..ImcaConfig::default()
        }),
    ));
    // A benign plan scoped to the bank nodes, so the Partition / DropWindow /
    // LatencySpike ops below only ever disturb IMCa traffic — the GlusterFS
    // client↔server path has no retransmit layer and must stay reliable.
    cluster.install_bank_faults(FaultPlan::seeded(seed));
    let c = Rc::clone(&cluster);
    let h = sim.handle();
    sim.spawn(async move {
        let m = c.mount();
        let mut reference = Reference::default();
        let mut fds = HashMap::new();
        for op in ops {
            match op {
                Op::Write {
                    file,
                    offset,
                    len,
                    fill,
                } => {
                    if !fds.contains_key(&file) {
                        let path = format!("/prop/{file}");
                        if reference.files.contains_key(&file) {
                            fds.insert(file, m.open(&path).await.unwrap());
                        } else {
                            m.create(&path).await.unwrap();
                            reference.files.insert(file, Vec::new());
                            fds.insert(file, m.open(&path).await.unwrap());
                        }
                    }
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    m.write(fds[&file], offset as u64, &data).await.unwrap();
                    reference.write(file, offset as usize, &data);
                    if threaded {
                        // §4.4 "Overhead and Delayed Updates": the threaded
                        // mode trades a staleness window for write latency.
                        // The property here is *eventual* agreement, so
                        // drain the update queue before the next op. 10 ms
                        // also covers a background purge giving up against a
                        // partitioned daemon (fail-fast retransmit, not the
                        // full RPC deadline) and quarantining it.
                        h.sleep(SimDuration::millis(10)).await;
                    }
                }
                Op::Read { file, offset, len } => {
                    if let Some(&fd) = fds.get(&file) {
                        let got = m.read(fd, offset as u64, len as u64).await.unwrap();
                        let want = reference.read(file, offset as usize, len as usize);
                        assert_eq!(
                            got, want,
                            "read mismatch: file {file} off {offset} len {len} \
                             (block_size={block_size}, threaded={threaded})"
                        );
                    }
                }
                Op::Stat { file } => {
                    if reference.files.contains_key(&file) {
                        let st = m.stat(&format!("/prop/{file}")).await.unwrap();
                        // stat may lag behind a threaded update, but must
                        // never overstate the size.
                        let want = reference.files[&file].len() as u64;
                        if !threaded {
                            assert_eq!(st.size, want, "stat size mismatch on file {file}");
                        } else {
                            assert!(st.size <= want);
                        }
                    }
                }
                Op::Reopen { file } => {
                    if let Some(fd) = fds.remove(&file) {
                        m.close(fd).await.unwrap();
                        fds.insert(file, m.open(&format!("/prop/{file}")).await.unwrap());
                    }
                }
                Op::Unlink { file } => {
                    if reference.files.contains_key(&file) && !fds.contains_key(&file) {
                        m.unlink(&format!("/prop/{file}")).await.unwrap();
                        reference.files.remove(&file);
                    }
                }
                Op::KillMcd { idx } => c.kill_mcd(idx as usize),
                Op::ReviveMcd { idx } => c.revive_mcd(idx as usize),
                Op::Partition { idx } => c.partition_mcd(idx as usize),
                Op::Heal { idx } => {
                    c.heal_mcd(idx as usize);
                    // A partition may have quarantined the daemon (failed
                    // purge); revival restarts it empty, which is the only
                    // state a healed daemon may serve from.
                    c.revive_mcd(idx as usize);
                }
                Op::DropWindow { dur_us } => {
                    let from = h.now();
                    let until = SimTime(from.as_nanos() + u64::from(dur_us) * 1_000);
                    c.network().add_drop_window(from, until);
                }
                Op::LatencySpike { dur_us, extra_us } => {
                    let from = h.now();
                    let until = SimTime(from.as_nanos() + u64::from(dur_us) * 1_000);
                    c.network().add_latency_spike(
                        from,
                        until,
                        SimDuration::micros(u64::from(extra_us)),
                    );
                }
            }
        }
    });
    let s = sim.run();
    (s.end_time.as_nanos(), s.events, cluster.metrics())
}

/// Ops for the EOF-focused coherence property: a single file, writes and
/// reads straddling the end of file, plus `Recreate` — the stack has no
/// truncate fop, so shrinking a file is emulated the way applications do
/// it: close + unlink + create + open.
#[derive(Debug, Clone)]
enum EofOp {
    Write { offset: u16, len: u16, fill: u8 },
    Read { offset: u16, len: u16 },
    Recreate,
}

fn eof_op_strategy() -> impl Strategy<Value = EofOp> {
    prop_oneof![
        3 => (0u16..6_000, 1u16..3_000, any::<u8>())
            .prop_map(|(offset, len, fill)| EofOp::Write { offset, len, fill }),
        4 => (0u16..16_000, 1u16..6_000)
            .prop_map(|(offset, len)| EofOp::Read { offset, len }),
        1 => Just(EofOp::Recreate),
    ]
}

/// Reads that cross EOF are short; blocks that straddle or sit past EOF
/// are cached as partial/empty ("known empty"). A cached read of such a
/// region must return the same short result as NoCache GlusterFS — both
/// on the populating pass and on the cache-hit pass — and a recreate
/// (the truncate idiom) must invalidate the old tail.
fn run_eof_scenario(ops: Vec<EofOp>, batched: bool, seed: u64) {
    let mut sim = Sim::new(seed);
    let imca = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            block_size: 1024,
            batching: batched,
            mcd_config: McConfig::with_mem_limit(8 << 20),
            ..ImcaConfig::default()
        }),
    ));
    let nocache = Rc::new(Cluster::build(sim.handle(), ClusterConfig::nocache()));
    // The two deployments live on separate fabrics; a lossy, duplicating,
    // jittery plan on the IMCa bank links must leave every byte the client
    // sees identical to the untouched NoCache run.
    imca.install_bank_faults(FaultPlan {
        loss: 0.05,
        duplicate: 0.05,
        jitter: SimDuration::micros(3),
        ..FaultPlan::seeded(seed)
    });
    let (c, n) = (Rc::clone(&imca), Rc::clone(&nocache));
    sim.spawn(async move {
        let (mi, mn) = (c.mount(), n.mount());
        mi.create("/eof").await.unwrap();
        mn.create("/eof").await.unwrap();
        let mut fdi = mi.open("/eof").await.unwrap();
        let mut fdn = mn.open("/eof").await.unwrap();
        for op in ops {
            match op {
                EofOp::Write { offset, len, fill } => {
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    mi.write(fdi, offset as u64, &data).await.unwrap();
                    mn.write(fdn, offset as u64, &data).await.unwrap();
                }
                EofOp::Read { offset, len } => {
                    let want = mn.read(fdn, offset as u64, len as u64).await.unwrap();
                    // Pass 1 populates the bank (short tail blocks included);
                    // pass 2 is served from it. Both must match NoCache.
                    for pass in 1..=2 {
                        let got = mi.read(fdi, offset as u64, len as u64).await.unwrap();
                        assert_eq!(
                            got, want,
                            "EOF read mismatch: off {offset} len {len} pass {pass} \
                             (batched={batched})"
                        );
                    }
                }
                EofOp::Recreate => {
                    mi.close(fdi).await.unwrap();
                    mn.close(fdn).await.unwrap();
                    mi.unlink("/eof").await.unwrap();
                    mn.unlink("/eof").await.unwrap();
                    mi.create("/eof").await.unwrap();
                    mn.create("/eof").await.unwrap();
                    fdi = mi.open("/eof").await.unwrap();
                    fdn = mn.open("/eof").await.unwrap();
                }
            }
        }
    });
    sim.run();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_ops_match_reference_sync_2k(
        ops in prop::collection::vec(op_strategy(), 1..40),
        seed in 0u64..1000,
    ) {
        run_scenario(ops, 2048, false, seed, 1, MetaConfig::default());
    }

    #[test]
    fn random_ops_match_reference_small_blocks(
        ops in prop::collection::vec(op_strategy(), 1..30),
        seed in 0u64..1000,
    ) {
        run_scenario(ops, 256, false, seed, 1, MetaConfig::default());
    }

    #[test]
    fn random_ops_match_reference_threaded(
        ops in prop::collection::vec(op_strategy(), 1..30),
        seed in 0u64..1000,
    ) {
        run_scenario(ops, 2048, true, seed, 1, MetaConfig::default());
    }

    /// Replicated bank (R=2 over both daemons): the same kill / partition /
    /// drop-window schedules must still agree with the reference model —
    /// replication may turn misses into warm hits, never into stale bytes.
    #[test]
    fn random_ops_match_reference_replicated(
        ops in prop::collection::vec(op_strategy(), 1..40),
        seed in 0u64..1000,
    ) {
        run_scenario(ops, 2048, false, seed, 2, MetaConfig::default());
    }

    /// Stat leases + negative caching under the same kill / partition /
    /// drop-window schedules: every stat the lease table answers locally
    /// must still be exact (the sync-mode assertion), because writes and
    /// unlinks revoke before the bank's stat entry moves.
    #[test]
    fn random_ops_match_reference_leased(
        ops in prop::collection::vec(op_strategy(), 1..40),
        seed in 0u64..1000,
    ) {
        run_scenario(ops, 2048, false, seed, 1, MetaConfig::lease());
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn eof_short_reads_match_nocache_batched(
        ops in prop::collection::vec(eof_op_strategy(), 1..25),
        seed in 0u64..1000,
    ) {
        run_eof_scenario(ops, true, seed);
    }

    #[test]
    fn eof_short_reads_match_nocache_per_key(
        ops in prop::collection::vec(eof_op_strategy(), 1..25),
        seed in 0u64..1000,
    ) {
        run_eof_scenario(ops, false, seed);
    }
}

/// A fixed seed must replay the exact same op + fault trace: same end
/// time, same event count, and a bit-identical metrics snapshot — the
/// property that makes any fault-schedule failure reproducible.
#[test]
fn fixed_seed_fault_schedule_replays_identically() {
    fn schedule() -> Vec<Op> {
        vec![
            Op::Write {
                file: 0,
                offset: 0,
                len: 4000,
                fill: 7,
            },
            Op::Write {
                file: 1,
                offset: 100,
                len: 3000,
                fill: 99,
            },
            Op::Read {
                file: 0,
                offset: 0,
                len: 4000,
            },
            Op::LatencySpike {
                dur_us: 400,
                extra_us: 30,
            },
            Op::Read {
                file: 1,
                offset: 0,
                len: 3100,
            },
            Op::Partition { idx: 0 },
            Op::Read {
                file: 0,
                offset: 500,
                len: 2000,
            },
            Op::Write {
                file: 0,
                offset: 2000,
                len: 2000,
                fill: 3,
            },
            Op::Heal { idx: 0 },
            Op::DropWindow { dur_us: 300 },
            Op::Read {
                file: 0,
                offset: 0,
                len: 4000,
            },
            Op::Stat { file: 1 },
            Op::Read {
                file: 1,
                offset: 200,
                len: 1000,
            },
        ]
    }
    let a = run_scenario(schedule(), 2048, false, 42, 1, MetaConfig::default());
    let b = run_scenario(schedule(), 2048, false, 42, 1, MetaConfig::default());
    assert_eq!(a.0, b.0, "end time diverged between replays");
    assert_eq!(a.1, b.1, "event count diverged between replays");
    assert_eq!(a.2, b.2, "metrics snapshot diverged between replays");
    // The schedule actually exercised the fault machinery.
    assert!(
        a.2.counter("cmcache.0.bank.rpc_timeouts").unwrap_or(0) > 0
            || a.2.counter("cmcache.0.bank.degraded_misses").unwrap_or(0) > 0,
        "partition produced no timeouts or sheds: {:?}",
        a.2.metrics.keys().collect::<Vec<_>>()
    );
}

/// The replay property must survive the lease-based metadata path: lease
/// fills, the revocation fan-out ahead of every purge and stat refresh,
/// and TTL expiries all run on simulated time and seeded state only, so a
/// fixed seed replays bit-identically with the Lease policy too.
#[test]
fn fixed_seed_fault_schedule_replays_identically_leased() {
    fn schedule() -> Vec<Op> {
        vec![
            Op::Write {
                file: 0,
                offset: 0,
                len: 4000,
                fill: 7,
            },
            Op::Stat { file: 0 },
            // Served from the lease the first stat installed.
            Op::Stat { file: 0 },
            Op::LatencySpike {
                dur_us: 400,
                extra_us: 30,
            },
            // Revokes the lease before the bank's stat entry moves.
            Op::Write {
                file: 0,
                offset: 2000,
                len: 2000,
                fill: 3,
            },
            Op::Stat { file: 0 },
            Op::Partition { idx: 0 },
            Op::Stat { file: 0 },
            Op::Read {
                file: 0,
                offset: 0,
                len: 4000,
            },
            Op::Heal { idx: 0 },
            Op::DropWindow { dur_us: 300 },
            Op::Stat { file: 0 },
            Op::Stat { file: 0 },
        ]
    }
    let a = run_scenario(schedule(), 2048, false, 42, 1, MetaConfig::lease());
    let b = run_scenario(schedule(), 2048, false, 42, 1, MetaConfig::lease());
    assert_eq!(a.0, b.0, "end time diverged between leased replays");
    assert_eq!(a.1, b.1, "event count diverged between leased replays");
    assert_eq!(a.2, b.2, "metrics snapshot diverged between leased replays");
    // The schedule exercised the lease machinery, not just the bank path.
    assert!(
        a.2.counter("cmcache.0.meta.lease_hits").unwrap_or(0) > 0,
        "no stat was served from a lease"
    );
    assert!(
        a.2.counter("leases.revocations_sent").unwrap_or(0) > 0,
        "no write revoked a lease"
    );
}

/// The replay property must survive replication: the fan-out writes, P2C
/// read routing, and failover re-routes all draw from seeded state only.
#[test]
fn fixed_seed_fault_schedule_replays_identically_replicated() {
    fn schedule() -> Vec<Op> {
        vec![
            Op::Write {
                file: 0,
                offset: 0,
                len: 4000,
                fill: 7,
            },
            Op::Read {
                file: 0,
                offset: 0,
                len: 4000,
            },
            Op::Partition { idx: 0 },
            Op::Read {
                file: 0,
                offset: 500,
                len: 2000,
            },
            Op::KillMcd { idx: 1 },
            Op::Read {
                file: 0,
                offset: 0,
                len: 4000,
            },
            Op::Heal { idx: 0 },
            Op::ReviveMcd { idx: 1 },
            Op::DropWindow { dur_us: 300 },
            Op::Write {
                file: 0,
                offset: 2000,
                len: 2000,
                fill: 3,
            },
            Op::Read {
                file: 0,
                offset: 0,
                len: 4000,
            },
        ]
    }
    let a = run_scenario(schedule(), 2048, false, 42, 2, MetaConfig::default());
    let b = run_scenario(schedule(), 2048, false, 42, 2, MetaConfig::default());
    assert_eq!(a.0, b.0, "end time diverged between replicated replays");
    assert_eq!(a.1, b.1, "event count diverged between replicated replays");
    assert_eq!(
        a.2, b.2,
        "metrics snapshot diverged between replicated replays"
    );
}

// ---------------------------------------------------------------------------
// Chaos layer: storage-tier faults and server crashes composed with the
// MCD/network faults above (DESIGN.md §6c).
// ---------------------------------------------------------------------------

/// Ops for the error-for-error equivalence property. Storage write errors
/// are toggled between the draw-free rates 0.0 and 1.0 so both clusters
/// reach the same deterministic verdict for every logical op without
/// consuming any randomness — the two deployments issue different disk
/// access sequences (IMCa adds covering re-reads), so a fractional rate
/// could never stay in lockstep.
#[derive(Debug, Clone)]
enum ChaosOp {
    Write {
        file: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Read {
        file: u8,
        offset: u16,
        len: u16,
    },
    Stat {
        file: u8,
    },
    /// Toggle a hard storage write-error mode (rate 1.0 / 0.0) on both
    /// arrays. Reads keep working: only the media's write path is sick.
    MediaErrors(bool),
    /// `kill -9` both glusterfsd daemons. Subsequent writes must fail
    /// fast with `FsError::Io` on both clusters.
    CrashServer,
    /// Restart both daemons; the IMCa one purges its bank (cold restart).
    RestartServer,
    /// Create or unlink a fourth file that `Stat` also probes: the churn
    /// that makes a cached ENOENT go stale, so the negative-caching path
    /// must revalidate on create to stay verdict-equivalent.
    ToggleGhost,
}

fn chaos_op_strategy() -> impl Strategy<Value = ChaosOp> {
    prop_oneof![
        5 => (0u8..3, 0u16..12_000, 1u16..5_000, any::<u8>())
            .prop_map(|(file, offset, len, fill)| ChaosOp::Write { file, offset, len, fill }),
        4 => (0u8..3, 0u16..16_000, 1u16..6_000)
            .prop_map(|(file, offset, len)| ChaosOp::Read { file, offset, len }),
        2 => (0u8..4).prop_map(|file| ChaosOp::Stat { file }),
        2 => any::<bool>().prop_map(ChaosOp::MediaErrors),
        1 => Just(ChaosOp::CrashServer),
        1 => Just(ChaosOp::RestartServer),
        1 => Just(ChaosOp::ToggleGhost),
    ]
}

/// Error-for-error NoCache equivalence under storage faults and server
/// crashes: every client-visible verdict (success, byte content, or
/// `FsError::Io`) from the IMCa deployment must match the plain GlusterFS
/// one op for op, and the surviving state must match the reference model
/// once the chaos ends.
///
/// Two driver rules keep the comparison honest rather than vacuous:
/// * while the server is down only writes run — IMCa would (correctly)
///   keep serving bank hits for reads, which is a feature, not an
///   equivalence;
/// * media error mode only breaks writes, so reads and stats stay
///   comparable throughout.
fn run_chaos_equivalence(ops: Vec<ChaosOp>, seed: u64, replication: usize, meta: MetaConfig) {
    let mut sim = Sim::new(seed);
    let imca = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            block_size: 2048,
            mcd_config: McConfig::with_mem_limit(8 << 20),
            replication: Replication {
                factor: replication,
            },
            meta,
            ..ImcaConfig::default()
        }),
    ));
    let nocache = Rc::new(Cluster::build(sim.handle(), ClusterConfig::nocache()));
    imca.install_bank_faults(FaultPlan::seeded(seed));
    let (c, n) = (Rc::clone(&imca), Rc::clone(&nocache));
    sim.spawn(async move {
        let (mi, mn) = (c.mount(), n.mount());
        let mut reference = Reference::default();
        let mut fdi = HashMap::new();
        let mut fdn = HashMap::new();
        for f in 0u8..3 {
            let p = format!("/chaos/{f}");
            mi.create(&p).await.unwrap();
            mn.create(&p).await.unwrap();
            fdi.insert(f, mi.open(&p).await.unwrap());
            fdn.insert(f, mn.open(&p).await.unwrap());
            reference.files.insert(f, Vec::new());
        }
        let mut media_errors = false;
        for op in ops {
            match op {
                ChaosOp::Write {
                    file,
                    offset,
                    len,
                    fill,
                } => {
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    let ri = mi.write(fdi[&file], offset as u64, &data).await;
                    let rn = mn.write(fdn[&file], offset as u64, &data).await;
                    assert_eq!(
                        ri,
                        rn,
                        "write verdict diverged: file {file} off {offset} len {len} \
                         (media_errors={media_errors}, alive={})",
                        c.server_alive()
                    );
                    match ri {
                        Ok(_) => reference.write(file, offset as usize, &data),
                        Err(e) => {
                            assert_eq!(e, FsError::Io);
                            assert!(
                                media_errors || !c.server_alive(),
                                "spurious write error with healthy media and live server"
                            );
                        }
                    }
                }
                ChaosOp::Read { file, offset, len } => {
                    if !c.server_alive() {
                        continue;
                    }
                    let ri = mi.read(fdi[&file], offset as u64, len as u64).await;
                    let rn = mn.read(fdn[&file], offset as u64, len as u64).await;
                    assert_eq!(ri, rn, "read diverged: file {file} off {offset} len {len}");
                    let want = reference.read(file, offset as usize, len as usize);
                    assert_eq!(ri.unwrap(), want, "read strayed from reference");
                }
                ChaosOp::Stat { file } => {
                    if !c.server_alive() {
                        continue;
                    }
                    let p = format!("/chaos/{file}");
                    let sti = mi.stat(&p).await;
                    let stn = mn.stat(&p).await;
                    assert_eq!(
                        sti.as_ref().map(|s| s.size).map_err(|e| *e),
                        stn.as_ref().map(|s| s.size).map_err(|e| *e),
                        "stat verdict diverged on file {file}"
                    );
                    match reference.files.get(&file) {
                        Some(buf) => assert_eq!(sti.unwrap().size, buf.len() as u64),
                        None => assert_eq!(sti.unwrap_err(), FsError::NotFound),
                    }
                }
                ChaosOp::MediaErrors(on) => {
                    media_errors = on;
                    let plan = StorageFaultPlan {
                        write_error: if on { 1.0 } else { 0.0 },
                        ..StorageFaultPlan::seeded(seed)
                    };
                    c.install_storage_faults(plan.clone());
                    n.install_storage_faults(plan);
                }
                ChaosOp::CrashServer => {
                    if c.server_alive() {
                        c.crash_server();
                        n.crash_server();
                    }
                }
                ChaosOp::RestartServer => {
                    if !c.server_alive() {
                        c.restart_server().await;
                        n.restart_server().await;
                    }
                }
                ChaosOp::ToggleGhost => {
                    let p = "/chaos/3".to_string();
                    let exists = reference.files.contains_key(&3);
                    let (ri, rn) = if exists {
                        (mi.unlink(&p).await, mn.unlink(&p).await)
                    } else {
                        (mi.create(&p).await, mn.create(&p).await)
                    };
                    assert_eq!(ri, rn, "ghost churn verdict diverged (exists={exists})");
                    if ri.is_ok() {
                        if exists {
                            reference.files.remove(&3);
                        } else {
                            reference.files.insert(3, Vec::new());
                        }
                    }
                }
            }
        }
        // End of chaos: recover both clusters and check that everything the
        // reference believes durable reads back identically on both.
        if !c.server_alive() {
            c.restart_server().await;
            n.restart_server().await;
        }
        c.install_storage_faults(StorageFaultPlan::default());
        n.install_storage_faults(StorageFaultPlan::default());
        for f in 0u8..3 {
            let want = reference.files[&f].clone();
            let len = want.len().max(1) as u64;
            let ri = mi.read(fdi[&f], 0, len).await.unwrap();
            let rn = mn.read(fdn[&f], 0, len).await.unwrap();
            assert_eq!(ri, want, "post-chaos IMCa content diverged on file {f}");
            assert_eq!(rn, want, "post-chaos NoCache content diverged on file {f}");
        }
    });
    sim.run();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn storage_and_server_chaos_matches_nocache(
        ops in prop::collection::vec(chaos_op_strategy(), 1..35),
        seed in 0u64..1000,
    ) {
        run_chaos_equivalence(ops, seed, 1, MetaConfig::default());
    }

    /// The same error-for-error contract with the bank replicated (R=2):
    /// fan-out writes and warm failover must not change a single
    /// client-visible verdict under storage faults and server crashes.
    #[test]
    fn storage_and_server_chaos_matches_nocache_replicated(
        ops in prop::collection::vec(chaos_op_strategy(), 1..35),
        seed in 0u64..1000,
    ) {
        run_chaos_equivalence(ops, seed, 2, MetaConfig::default());
    }

    /// The lease-based metadata path under the same composed chaos:
    /// locally-served stats, negative ENOENT entries, and the create
    /// revalidation must leave every client-visible verdict identical to
    /// plain GlusterFS — the revoke-before-update ordering is what makes
    /// a held lease indistinguishable from a fresh server stat.
    #[test]
    fn storage_and_server_chaos_matches_nocache_leased(
        ops in prop::collection::vec(chaos_op_strategy(), 1..35),
        seed in 0u64..1000,
    ) {
        run_chaos_equivalence(ops, seed, 1, MetaConfig::lease());
    }

    /// Everything at once on the metadata side: stat leases *and* a
    /// replicated bank (R=2) under the same storage faults and server
    /// crashes. This is the composition the CAS write path makes
    /// interesting — an in-place replacement has to land on every
    /// replica *and* revoke every lease before the writer's ack, and a
    /// conflict-driven fallback purge must do the same, or one of the
    /// verdicts below diverges from plain GlusterFS.
    #[test]
    fn storage_and_server_chaos_matches_nocache_leased_replicated(
        ops in prop::collection::vec(chaos_op_strategy(), 1..35),
        seed in 0u64..1000,
    ) {
        run_chaos_equivalence(ops, seed, 2, MetaConfig::lease());
    }
}

/// One IMCa cluster under *everything at once* ([`common::run_full_chaos`]),
/// driven twice from the same seed, must replay to the same end time,
/// event count, and bit-identical metrics snapshot.
#[test]
fn fixed_seed_full_chaos_replays_identically() {
    let a = common::run_full_chaos(1973, 1, MetaConfig::default(), Scheduler::default());
    let b = common::run_full_chaos(1973, 1, MetaConfig::default(), Scheduler::default());
    assert_eq!(a.0, b.0, "end time diverged between chaos replays");
    assert_eq!(a.1, b.1, "event count diverged between chaos replays");
    assert_eq!(a.2, b.2, "metrics snapshot diverged between chaos replays");
    // Every fault family actually fired.
    assert!(a.2.counter("storage.io_errors").unwrap_or(0) > 0);
    assert!(a.2.counter("smcache.dropped_pushes").unwrap_or(0) > 0);
    assert_eq!(a.2.counter("server.crashes"), Some(1));
    assert_eq!(a.2.counter("server.restarts"), Some(1));
    assert!(a.2.counter("bank.mcd_revivals").unwrap_or(0) > 0);
}

/// Full-storm determinism with the bank replicated: the replicated write
/// fan-out, P2C routing RNG, and failover re-routes are all seeded, so a
/// fixed seed must still replay bit-identically with R=2.
#[test]
fn fixed_seed_full_chaos_replays_identically_replicated() {
    let a = common::run_full_chaos(1973, 2, MetaConfig::default(), Scheduler::default());
    let b = common::run_full_chaos(1973, 2, MetaConfig::default(), Scheduler::default());
    assert_eq!(
        a.0, b.0,
        "end time diverged between replicated chaos replays"
    );
    assert_eq!(
        a.1, b.1,
        "event count diverged between replicated chaos replays"
    );
    assert_eq!(
        a.2, b.2,
        "metrics snapshot diverged between replicated chaos replays"
    );
    assert!(a.2.counter("storage.io_errors").unwrap_or(0) > 0);
    assert_eq!(a.2.counter("server.crashes"), Some(1));
}

/// Full-storm determinism with stat leases *and* a replicated bank at
/// once: the lease fills, the revocation fan-out every CAS wave and
/// fallback purge runs before acking a write, the replicated fan-out,
/// and the failover re-routes all draw on simulated time and seeded
/// state only, so the richest configuration the stack supports must
/// still replay bit-identically.
#[test]
fn fixed_seed_full_chaos_replays_identically_leased_replicated() {
    let a = common::run_full_chaos(1973, 2, MetaConfig::lease(), Scheduler::default());
    let b = common::run_full_chaos(1973, 2, MetaConfig::lease(), Scheduler::default());
    assert_eq!(
        a.0, b.0,
        "end time diverged between leased replicated chaos replays"
    );
    assert_eq!(
        a.1, b.1,
        "event count diverged between leased replicated chaos replays"
    );
    assert_eq!(
        a.2, b.2,
        "metrics snapshot diverged between leased replicated chaos replays"
    );
    assert!(a.2.counter("storage.io_errors").unwrap_or(0) > 0);
    assert_eq!(a.2.counter("server.crashes"), Some(1));
}

// ---------------------------------------------------------------------------
// CAS writer races (DESIGN.md §4f).
// ---------------------------------------------------------------------------

/// Two clients racing overlapping writes to the same warm file, through
/// the replicated bank. A writer that loses the `gets` → `cas` window
/// sees `Conflict`, falls back to purge + repush, and the loop repeats —
/// all of it on simulated time and seeded state, so a fixed seed must
/// replay bit-identically *and* actually provoke conflicts (a race test
/// that never races proves nothing).
fn run_cas_writer_race(seed: u64) -> (u64, u64, imca_repro::metrics::Snapshot) {
    let mut sim = Sim::new(seed);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            block_size: 2048,
            mcd_config: McConfig::with_mem_limit(8 << 20),
            replication: Replication { factor: 2 },
            ..ImcaConfig::default()
        }),
    ));
    let c = Rc::clone(&cluster);
    let h = sim.handle();
    sim.spawn(async move {
        let m = c.mount();
        m.create("/race/f").await.unwrap();
        let fd = m.open("/race/f").await.unwrap();
        // The racers open *before* the warm-up: SMCache purges on open,
        // and the point here is that every racing write finds its blocks
        // tracked and takes the in-place CAS wave, not the cold fill.
        let (ma, mb) = (c.mount(), c.mount());
        let fda = ma.open("/race/f").await.unwrap();
        let fdb = mb.open("/race/f").await.unwrap();
        m.write(fd, 0, &vec![1u8; 4096]).await.unwrap();
        m.read(fd, 0, 4096).await.unwrap();
        let mut writers = Vec::new();
        for (w, (mw, fdw)) in [(ma, fda), (mb, fdb)].into_iter().enumerate() {
            writers.push(async move {
                for round in 0..8u64 {
                    let off = (w as u64 * 128 + round * 511) % 3000;
                    let fill = (w as u64 * 16 + round) as u8;
                    mw.write(fdw, off, &vec![fill; 600]).await.unwrap();
                }
            });
        }
        imca_repro::sim::join_all(&h, writers).await;
        // Whatever interleaving the race settled on, the bank must be
        // left coherent: every surviving replica of every block holds the
        // same bytes the client now reads back.
        let view = m.read(fd, 0, 4096).await.unwrap();
        assert_eq!(view.len(), 4096);
        for block in [0u64, 2048] {
            let key = keys::block_key("/race/f", block);
            for node in c.mcds().iter() {
                if let Some(v) = node.server().store().get(&key, 0) {
                    assert_eq!(
                        &v.value[..],
                        &view[block as usize..block as usize + v.value.len()],
                        "replica of block {block} diverged from the read-back view"
                    );
                }
            }
        }
    });
    let s = sim.run();
    (s.end_time.as_nanos(), s.events, cluster.metrics())
}

#[test]
fn fixed_seed_cas_writer_race_replays_identically_with_conflicts() {
    let a = run_cas_writer_race(2008);
    let b = run_cas_writer_race(2008);
    assert_eq!(a.0, b.0, "end time diverged between CAS race replays");
    assert_eq!(a.1, b.1, "event count diverged between CAS race replays");
    assert_eq!(
        a.2, b.2,
        "metrics snapshot diverged between CAS race replays"
    );
    // The race actually raced: some waves replaced blocks in place, at
    // least one writer lost its window and saw a conflict, and the loser
    // fell back to the purge + repush path.
    assert!(
        a.2.counter("smcache.cas_replacements").unwrap_or(0) > 0,
        "no write took the in-place CAS path"
    );
    assert!(
        a.2.counter("smcache.cas_conflicts").unwrap_or(0) > 0,
        "the racing writers never conflicted"
    );
    assert!(
        a.2.counter("smcache.cas_fallback_purges").unwrap_or(0) > 0,
        "no conflict fell back to purge + repush"
    );
}

// ---------------------------------------------------------------------------
// Overload protection under chaos (DESIGN.md §8): queue-limit sheds and
// R=2 read failover composed with the partition / drop-window / crash
// storm.
// ---------------------------------------------------------------------------

const OV_FILES: u8 = 2;
const OV_BLOCKS: u64 = 6;
const OV_BS: u64 = 2048;
const OV_READERS: u64 = 8;

/// Ops for the overload storm. `Burst` is what the other suites don't
/// have: a genuinely concurrent read fan-out, wide enough to overflow
/// the 1-deep daemon admission queues (busy sheds), so shed reads fail
/// over to the key's other replica or degrade to a backend forward.
#[derive(Debug, Clone)]
enum OvOp {
    /// Fan [`OV_READERS`] concurrent readers over distinct blocks.
    Burst {
        file: u8,
        offset: u16,
    },
    Partition {
        idx: u8,
    },
    Heal {
        idx: u8,
    },
    DropWindow {
        dur_us: u16,
    },
    LatencySpike {
        dur_us: u16,
        extra_us: u16,
    },
    /// Crash both servers, check writes fail fast identically, restart
    /// (the IMCa restart is cold: the bank is purged and must rewarm).
    CrashRestart,
}

fn ov_op_strategy() -> impl Strategy<Value = OvOp> {
    prop_oneof![
        6 => (0u8..OV_FILES, any::<u16>())
            .prop_map(|(file, offset)| OvOp::Burst { file, offset }),
        1 => (0u8..2).prop_map(|idx| OvOp::Partition { idx }),
        1 => (0u8..2).prop_map(|idx| OvOp::Heal { idx }),
        1 => (50u16..400).prop_map(|dur_us| OvOp::DropWindow { dur_us }),
        1 => (50u16..400, 1u16..500)
            .prop_map(|(dur_us, extra_us)| OvOp::LatencySpike { dur_us, extra_us }),
        1 => Just(OvOp::CrashRestart),
    ]
}

fn ov_fill(file: u8, i: u64) -> u8 {
    ((file as u64 * 167 + i * 13) % 251) as u8
}

/// The protected cluster: a deliberately tiny bank — 200 µs of service
/// per GET behind a 1-deep admission queue — at R=2. An 8-wide burst
/// *must* shed, on every run of the canonical schedule.
fn build_overload_cluster(h: SimHandle, seed: u64) -> Rc<Cluster> {
    let cluster = Rc::new(Cluster::build(
        h,
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            block_size: OV_BS,
            mcd_config: McConfig::with_mem_limit(8 << 20),
            replication: Replication { factor: 2 },
            mcd_costs: McdCosts {
                per_op: SimDuration::micros(200),
                queue_limit: Some(1),
            },
            // SMCache's push/sync pipeline shares the drowning queues
            // (writes are always admitted, but wait their turn); a
            // read-tuned deadline would falsely abandon them.
            server_retry: Some(RetryPolicy {
                deadline: SimDuration::millis(500),
                retries: 0,
                ..RetryPolicy::default()
            }),
            ..ImcaConfig::default()
        }),
    ));
    cluster.install_bank_faults(FaultPlan {
        loss: 0.01,
        jitter: SimDuration::micros(2),
        ..FaultPlan::seeded(seed)
    });
    cluster
}

/// Drive the protected cluster and a NoCache twin through one schedule.
/// Every burst read is compared byte-for-byte against the NoCache read
/// of the same range — sheds, replica failovers and cold rewarms may
/// change *where* a read is served from, never *what* it returns.
async fn overload_storm(c: Rc<Cluster>, n: Rc<Cluster>, h: SimHandle, ops: Vec<OvOp>) {
    let (mi, mn) = (c.mount(), n.mount());
    let mut fdi = Vec::new();
    let mut fdn = Vec::new();
    for f in 0..OV_FILES {
        let p = format!("/ov/{f}");
        mi.create(&p).await.unwrap();
        mn.create(&p).await.unwrap();
        // Open before the warm-up writes: the opens purge an empty bank,
        // and the write-path pushes then warm both replicas.
        fdi.push(mi.open(&p).await.unwrap());
        fdn.push(mn.open(&p).await.unwrap());
        let content: Vec<u8> = (0..OV_BLOCKS * OV_BS).map(|i| ov_fill(f, i)).collect();
        mi.write(fdi[f as usize], 0, &content).await.unwrap();
        mn.write(fdn[f as usize], 0, &content).await.unwrap();
    }
    let mut partitioned = [false; 2];
    for op in ops {
        match op {
            OvOp::Burst { file, offset } => {
                let mut readers = Vec::new();
                for k in 0..OV_READERS {
                    let (mi, mn) = (Rc::clone(&mi), Rc::clone(&mn));
                    let (fda, fdb) = (fdi[file as usize], fdn[file as usize]);
                    readers.push(async move {
                        // Distinct blocks per reader, reads within one
                        // block.
                        let block = (offset as u64 / OV_BS + k) % OV_BLOCKS;
                        let off = block * OV_BS + offset as u64 % (OV_BS - 1000);
                        let got = mi.read(fda, off, 1000).await.unwrap();
                        let want = mn.read(fdb, off, 1000).await.unwrap();
                        assert_eq!(got, want, "burst read diverged at offset {off}");
                    });
                }
                join_all(&h, readers).await;
            }
            OvOp::Partition { idx } => {
                if !partitioned[idx as usize] {
                    partitioned[idx as usize] = true;
                    c.partition_mcd(idx as usize);
                }
            }
            OvOp::Heal { idx } => {
                if partitioned[idx as usize] {
                    partitioned[idx as usize] = false;
                    c.heal_mcd(idx as usize);
                    c.revive_mcd(idx as usize);
                }
            }
            OvOp::DropWindow { dur_us } => {
                let from = h.now();
                let until = SimTime(from.as_nanos() + u64::from(dur_us) * 1_000);
                c.network().add_drop_window(from, until);
            }
            OvOp::LatencySpike { dur_us, extra_us } => {
                let from = h.now();
                let until = SimTime(from.as_nanos() + u64::from(dur_us) * 1_000);
                c.network().add_latency_spike(
                    from,
                    until,
                    SimDuration::micros(u64::from(extra_us)),
                );
            }
            OvOp::CrashRestart => {
                c.crash_server();
                n.crash_server();
                assert_eq!(mi.write(fdi[0], 0, b"lost").await, Err(FsError::Io));
                assert_eq!(mn.write(fdn[0], 0, b"lost").await, Err(FsError::Io));
                c.restart_server().await;
                n.restart_server().await;
            }
        }
    }
    // Calm after the storm: heal everything, then a miss pass (refilling
    // whatever the storm shed, purged, or quarantined) and a hit pass
    // must both still match NoCache byte-for-byte.
    for (idx, cut) in partitioned.into_iter().enumerate() {
        if cut {
            c.heal_mcd(idx);
            c.revive_mcd(idx);
        }
    }
    for f in 0..OV_FILES {
        for pass in 1..=2 {
            let got = mi
                .read(fdi[f as usize], 0, OV_BLOCKS * OV_BS)
                .await
                .unwrap();
            let want = mn
                .read(fdn[f as usize], 0, OV_BLOCKS * OV_BS)
                .await
                .unwrap();
            assert_eq!(
                got, want,
                "post-storm content diverged on file {f} pass {pass}"
            );
        }
    }
}

fn run_overload_storm(ops: Vec<OvOp>, seed: u64) -> (u64, u64, Snapshot) {
    let mut sim = Sim::new(seed);
    let cluster = build_overload_cluster(sim.handle(), seed);
    let nocache = Rc::new(Cluster::build(sim.handle(), ClusterConfig::nocache()));
    let c = Rc::clone(&cluster);
    let h = sim.handle();
    sim.spawn(async move {
        overload_storm(c, nocache, h, ops).await;
    });
    let s = sim.run();
    (s.end_time.as_nanos(), s.events, cluster.metrics())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    /// Queue-limit sheds and replica failovers under composed
    /// network/crash chaos are invisible to the bytes: whatever mix of
    /// bursts, partitions, drop windows, and cold restarts the schedule
    /// draws, every read the protected stack answers — from the bank, a
    /// failover replica, or a degraded backend forward — matches plain
    /// GlusterFS.
    #[test]
    fn overload_storm_matches_nocache(
        ops in prop::collection::vec(ov_op_strategy(), 1..16),
        seed in 0u64..500,
    ) {
        run_overload_storm(ops, seed);
    }
}

/// The canonical schedule the replay tests pin: enough bursts to shed
/// through every chaos phase, with the partition, drop window,
/// and server crash all landing between bursts.
fn overload_schedule() -> Vec<OvOp> {
    vec![
        OvOp::Burst { file: 0, offset: 0 },
        OvOp::Burst {
            file: 1,
            offset: 700,
        },
        OvOp::LatencySpike {
            dur_us: 300,
            extra_us: 40,
        },
        OvOp::Burst {
            file: 0,
            offset: 3000,
        },
        OvOp::Partition { idx: 0 },
        OvOp::Burst {
            file: 1,
            offset: 5000,
        },
        OvOp::Heal { idx: 0 },
        OvOp::DropWindow { dur_us: 250 },
        OvOp::Burst {
            file: 0,
            offset: 9000,
        },
        OvOp::CrashRestart,
        OvOp::Burst {
            file: 1,
            offset: 11000,
        },
        OvOp::Burst {
            file: 0,
            offset: 2000,
        },
    ]
}

fn ov_sheds(snap: &Snapshot) -> u64 {
    snap.counter("bank.per_daemon.0.sheds").unwrap_or(0)
        + snap.counter("bank.per_daemon.1.sheds").unwrap_or(0)
}

/// A fixed seed replays the whole overload storm — concurrent bursts,
/// sheds, partition timeouts, and the cold restart — to the same end
/// time, event count, and bit-identical metrics, and the storm actually
/// overflowed the admission queues.
#[test]
fn fixed_seed_overload_storm_replays_identically_with_sheds() {
    let a = run_overload_storm(overload_schedule(), 4242);
    let b = run_overload_storm(overload_schedule(), 4242);
    assert_eq!(a.0, b.0, "end time diverged between overload replays");
    assert_eq!(a.1, b.1, "event count diverged between overload replays");
    assert_eq!(
        a.2, b.2,
        "metrics snapshot diverged between overload replays"
    );
    assert!(
        ov_sheds(&a.2) > 0,
        "the bursts never overflowed a daemon admission queue"
    );
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
        let done = Rc::new(std::cell::Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
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
            d.set(true);
        });
        sim.run();
        assert!(done.get(), "invariant scenario did not run to completion");
    }
}

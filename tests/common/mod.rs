//! The one storm of the root suites (DESIGN.md §6): one op language
//! ([`Op`]), one driver ([`Config::storm`]) and one oracle.
//!
//! The driver runs an IMCa deployment beside a NoCache twin in one `Sim`,
//! each with two clients mounted, and checks every op the current client
//! ([`Op::Switch`] moves to the other) issues against a plain in-memory
//! reference filesystem:
//! * a successful read equals the reference bytes, on a first pass and
//!   on a second, bank-served one; a reader that raced writers may end
//!   where the file ended before them, and each byte inside a racing
//!   write's range may be the byte from before the race;
//! * a write a crash caught in flight reads back new once the restart
//!   has let its work end if it was acknowledged, and entirely old or
//!   entirely new if not; the reference and the twin take what it reads;
//! * a stat equals the reference size, or is `NotFound` exactly when the
//!   file is absent, and its mtime is no earlier than the moment IMCa's
//!   latest landed write or create of the file was issued, so a consumer
//!   polling mtime sees every update (§4.2); so does each answer of a
//!   listing's batched stat, and
//!   while the server is down every path the listing forwards answers
//!   `Io` and installs no lease;
//! * an error is `FsError::Io`, and only while a storage fault or a
//!   server crash is in force; while the server is down only writes are
//!   issued, and each one fails fast;
//! * under `threaded_updates` all of this holds once SMCache owes no
//!   bank work, which the driver waits for after every mutation (§4.4);
//! * while the installed storage plan draws no randomness and leaves
//!   reads healthy, every verdict equals the twin's. Otherwise the twin
//!   follows IMCa's successes only, so it stays equal to the reference.
//!
//! A row on a benign bank fabric installs no bank fault plan until its
//! first cut, drop window or latency spike (then the benign plan, scoped
//! to the bank's links). Until then the bank lands stores in issue
//! order, so SMCache posts its metadata stores and its CAS waves
//! (DESIGN.md §4f) and the oracle checks the posted path; a posted wave
//! that conflicts trips SMCache's `debug_assert!`.
//!
//! After the ops a calm phase heals, revives, restarts and clears every
//! fault, the bank links' loss too; two full-file passes through each
//! client of both clusters must then equal the reference, and every block
//! a live,
//! non-quarantined daemon holds must equal that block's current bytes
//! ([`assert_bank_holds`]).
//!
//! `random_ops.rs` draws op lists for every row of the [`Config`] table
//! and replays [`canonical`] from a fixed seed; `determinism.rs` runs
//! [`canonical`] on every row under both timer back-ends.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use imca_repro::fabric::FaultPlan;
use imca_repro::glusterfs::{Fd, FileStat, FsError, GlusterMount};
use imca_repro::imca::{
    keys, Cluster, ClusterConfig, CmCache, Coherence, ImcaConfig, McdCosts, MetaConfig,
    Replication, RetryPolicy, RewarmLimit, StatSource,
};
use imca_repro::memcached::McConfig;
use imca_repro::metrics::{collect_from, Snapshot};
use imca_repro::sim::{join_all, Scheduler, Sim, SimDuration, SimHandle, SimTime};
use imca_repro::storage::StorageFaultPlan;

/// Paths the storm touches: `/storm/0` … `/storm/3`. The first three
/// exist (empty, open) when the ops start; the last does not.
pub const FILES: u8 = 4;
/// Bank daemons in every configuration.
pub const MCDS: u8 = 2;
/// Concurrent readers in one [`Op::Burst`], each reading this many bytes.
const BURST_READERS: u64 = 8;
const BURST_LEN: u64 = 1000;
/// Each of an [`Op::Race`]'s writers writes this many bytes, the second
/// this far past the first: byte-disjoint, inside the first readers' span.
const RACE_LEN: u64 = 600;
const RACE_GAP: u64 = 700;

/// Declares [`Op`] from one list of variants, with `Op::NAMES` and
/// `Op::name` generated from it: a new variant cannot be missed by
/// either.
macro_rules! op_language {
    ($($(#[$doc:meta])* $variant:ident $(($($field:ty),*))?,)*) => {
        /// One step of a storm. Files are `0..FILES`, daemons `0..MCDS`.
        #[derive(Debug, Clone)]
        pub enum Op {
            $($(#[$doc])* $variant $(($($field),*))?,)*
        }

        impl Op {
            /// Every variant's name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($variant)),*];

            fn name(&self) -> &'static str {
                match self {
                    $(Op::$variant { .. } => stringify!($variant),)*
                }
            }
        }
    };
}

op_language! {
    /// (file, offset, len, fill): `len` bytes counting up from `fill`.
    Write(u8, u32, u16, u8),
    /// (file, offset, len), twice: the first pass may fill the bank, the
    /// second is served from it.
    Read(u8, u32, u16),
    /// (file)
    Stat(u8),
    /// Every storm file at once, as `ls -l` would: one batched stat
    /// (`CmCache::stat_multi`) on IMCa, one stat per path on the twin.
    /// Runs while the server is down too.
    List,
    /// (file): close and open again; SMCache purges the file on both.
    Reopen(u8),
    /// (file, offset): [`BURST_READERS`] concurrent readers, 2 KB apart
    /// in a 12 KB span, wide enough to overflow a 1-deep daemon
    /// admission queue.
    Burst(u8, u16),
    /// (file, offset): the [`Op::Burst`] readers, raced by two writers
    /// through the same descriptor, each writing [`RACE_LEN`] bytes into
    /// the blocks the first readers read, in byte-disjoint ranges.
    Race(u8, u16),
    /// (file, offset, µs): a daemon evicts the block at `offset`, as
    /// memcached's LRU does, while SMCache keeps its tokens; a reader of
    /// the block misses and fills it, and a writer `µs` behind overwrites
    /// the block whole. The fill's `set` may land between the write's
    /// token read and its `cas`: the write must wait for its verdicts,
    /// and fall back if its `cas` lost.
    FillRace(u8, u16, u8),
    /// (file): close the current client's descriptor and unlink a file
    /// that exists; create one that does not, left unopened until an op
    /// needs a descriptor. Twice in a row is the truncate idiom. The other
    /// client's descriptor names the path, so it reads the new file.
    Toggle(u8),
    /// (daemon): `kill -9`; its clients see connection resets.
    Kill(u8),
    /// (daemon): restart it empty, which also lifts its quarantine.
    Revive(u8),
    /// (daemon): sever it from the fabric. It keeps its memory, so the
    /// bank client must time out and shed rather than see a reset.
    Partition(u8),
    /// (daemon): undo a partition and revive: a failed purge may have
    /// quarantined the daemon, and restarting empty is the only state a
    /// healed daemon may serve from.
    Heal(u8),
    /// (µs): total packet loss on the bank links.
    DropWindow(u16),
    /// (µs, extra µs): extra one-way latency on the bank links.
    LatencySpike(u16, u16),
    Storage(Plan),
    /// Empty the server's page cache: the next reads and SMCache's
    /// covering re-reads go to the media.
    DropCaches,
    /// `kill -9` both servers.
    Crash,
    /// (file, offset, len, fill, µs): an [`Op::Write`] on IMCa that both
    /// servers' crash, `µs` after it is issued, catches in flight. The
    /// restart settles its bytes.
    CrashMidWrite(u8, u32, u16, u8, u16),
    /// Restart both servers; the IMCa one starts with a purged bank.
    Restart,
    /// The other client issues the ops that follow, through its own
    /// descriptors.
    Switch,
}

/// The storage fault plans a storm installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    Healthy,
    /// Every write fails (rate 1.0), reads are healthy: draw-free, so the
    /// twin reaches the same verdicts.
    WriteErrors,
    /// Every read that reaches the media fails (rate 1.0), writes are
    /// healthy: a write lands, and the covering re-read of a block it
    /// only partly wrote is refused unless the page cache holds it.
    ReadErrors,
    /// Fractional read and write error rates, a 1 ms brown-out 2 ms from
    /// now, and one member disk 6× slow.
    Sick,
}

impl Plan {
    fn install(self, seed: u64, now: SimTime) -> StorageFaultPlan {
        let at = |ms: u64| SimTime(now.as_nanos() + ms * 1_000_000);
        match self {
            Plan::Healthy => StorageFaultPlan::default(),
            Plan::WriteErrors => StorageFaultPlan {
                write_error: 1.0,
                ..StorageFaultPlan::default()
            },
            Plan::ReadErrors => StorageFaultPlan {
                read_error: 1.0,
                ..StorageFaultPlan::default()
            },
            Plan::Sick => StorageFaultPlan {
                read_error: 0.3,
                write_error: 0.2,
                error_windows: vec![(at(2), at(3))],
                slow_disks: vec![0],
                slow_factor: 6.0,
                ..StorageFaultPlan::seeded(seed ^ 0xD15C)
            },
        }
    }
}

/// The configurations the storm runs under: one table of
/// `(ImcaConfig, FaultPlan)`, the plan scoped to the bank's links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// 2 KB blocks, R=1, a benign bank fabric: no bank fault plan until
    /// a cut, window or spike.
    TwoKb,
    SmallBlocks,
    Threaded,
    R2,
    Leases,
    R2Leases,
    /// 1 KB blocks on a lossy, duplicating, jittery bank fabric.
    EofBatched,
    EofPerKey,
    /// R=2 and leases behind daemons that take 200 µs per op with a
    /// 1-deep admission queue, so a burst sheds, and a rewarm throttle
    /// that skips most of a burst's fills.
    Overload,
    /// 8 KB blocks over the backend's 4 KB pages, so a small write
    /// leaves SMCache a covering re-read the sick media can refuse.
    ChaosR1,
    ChaosR1Leases,
    ChaosR2,
    ChaosR2Leases,
    /// [`Config::ChaosR1`] under the paper's purge + repush protocol.
    ChaosPurge,
}

impl Config {
    pub const ALL: [Config; 14] = [
        Config::TwoKb,
        Config::SmallBlocks,
        Config::Threaded,
        Config::R2,
        Config::Leases,
        Config::R2Leases,
        Config::EofBatched,
        Config::EofPerKey,
        Config::Overload,
        Config::ChaosR1,
        Config::ChaosR1Leases,
        Config::ChaosR2,
        Config::ChaosR2Leases,
        Config::ChaosPurge,
    ];

    pub fn build(self) -> (ImcaConfig, Option<FaultPlan>) {
        let (plain, lease) = (MetaConfig::default(), MetaConfig::lease());
        let imca = |block_size, factor, meta| ImcaConfig {
            mcd_count: MCDS.into(),
            block_size,
            mcd_config: McConfig::with_mem_limit(8 << 20),
            replication: Replication { factor },
            meta,
            ..ImcaConfig::default()
        };
        let lossy = |loss, duplicate, jitter_us| {
            Some(FaultPlan {
                loss,
                duplicate,
                jitter: SimDuration::micros(jitter_us),
                ..FaultPlan::default()
            })
        };
        let benign = None;
        match self {
            Config::TwoKb => (imca(2048, 1, plain), benign),
            Config::SmallBlocks => (imca(256, 1, plain), benign),
            Config::Threaded => {
                let mut cfg = imca(2048, 1, plain);
                cfg.threaded_updates = true;
                (cfg, benign)
            }
            Config::R2 => (imca(2048, 2, plain), benign),
            Config::Leases => (imca(2048, 1, lease), benign),
            Config::R2Leases => (imca(2048, 2, lease), benign),
            Config::EofBatched => (imca(1024, 1, plain), lossy(0.05, 0.05, 3)),
            Config::EofPerKey => {
                let mut cfg = imca(1024, 1, plain);
                cfg.batching = false;
                (cfg, lossy(0.05, 0.05, 3))
            }
            Config::Overload => {
                let cfg = ImcaConfig {
                    mcd_costs: McdCosts {
                        per_op: SimDuration::micros(200),
                        queue_limit: Some(1),
                    },
                    // SMCache's pushes share the drowning queues (writes
                    // are always admitted, but wait their turn); a
                    // read-tuned deadline would falsely abandon them.
                    server_retry: Some(RetryPolicy {
                        deadline: SimDuration::millis(500),
                        retries: 0,
                        ..RetryPolicy::default()
                    }),
                    rewarm: Some(RewarmLimit {
                        rate_per_sec: 1_000.0,
                        burst: 4.0,
                    }),
                    ..imca(2048, 2, lease)
                };
                (cfg, lossy(0.01, 0.0, 2))
            }
            Config::ChaosR1 => (imca(8192, 1, plain), lossy(0.03, 0.0, 2)),
            Config::ChaosR1Leases => (imca(8192, 1, lease), lossy(0.03, 0.0, 2)),
            Config::ChaosR2 => (imca(8192, 2, plain), lossy(0.03, 0.0, 2)),
            Config::ChaosR2Leases => (imca(8192, 2, lease), lossy(0.03, 0.0, 2)),
            Config::ChaosPurge => {
                let mut cfg = imca(8192, 1, plain);
                cfg.coherence = Coherence::Purge;
                (cfg, lossy(0.03, 0.0, 2))
            }
        }
    }

    /// Run `ops` against IMCa under this row (its bank links reseeded
    /// with `seed`) beside a NoCache twin on one `Sim`, checking every op
    /// and the calm that follows (see the module docs).
    pub fn storm(self, scheduler: Scheduler, seed: u64, ops: Vec<Op>) -> Trace {
        let (cfg, bank) = self.build();
        let mut sim = Sim::with_scheduler(seed, scheduler);
        let h = sim.handle();
        let imca = Rc::new(Cluster::build(h.clone(), ClusterConfig::imca(cfg.clone())));
        let twin = Rc::new(Cluster::build(h.clone(), ClusterConfig::nocache()));
        if let Some(bank) = bank {
            imca.install_bank_faults(FaultPlan { seed, ..bank });
        }
        let (c, n) = (Rc::clone(&imca), Rc::clone(&twin));
        let server_retry = cfg.server_retry.as_ref().unwrap_or(&cfg.retry);
        let cooldown = cfg
            .retry
            .circuit_cooldown
            .max(server_retry.circuit_cooldown);
        let (files, reach, ran, sick_errors) = sim.run_main(async move {
            let client = || {
                let (mi, cm) = c.mount_with_meta();
                let (cm, mn) = (cm.expect("an IMCa mount has a CMCache"), n.mount());
                let fds = HashMap::new();
                Client { mi, cm, mn, fds }
            };
            let mut d = Driver {
                me: client(),
                other: client(),
                at: 0,
                c,
                n,
                h,
                seed,
                threaded: cfg.threaded_updates,
                block_size: cfg.block_size,
                cooldown,
                files: BTreeMap::new(),
                floor: HashMap::new(),
                plan: StorageFaultPlan::default(),
                cut: [false; MCDS as usize],
                reach: 0,
                ran: BTreeMap::new(),
                sick_errors: Cell::new(0),
                crashed_write: None,
                here: "setup".into(),
            };
            for file in 0..FILES - 1 {
                d.toggle(file).await;
            }
            for (i, op) in ops.into_iter().enumerate() {
                d.here = format!("op {i} {op:?} (seed {seed})");
                let name = op.name();
                if d.apply(op).await.is_some() {
                    *d.ran.entry(name).or_default() += 1;
                }
            }
            d.calm().await;
            (d.files, d.reach, d.ran, d.sick_errors.get())
        });
        let s = sim.run();
        let metrics = imca.metrics();
        let ran_of = |name| u64::from(ran.get(name).copied().unwrap_or(0));
        let crashes = ran_of("Crash") + ran_of("CrashMidWrite");
        assert_eq!(metrics.counter("server.crashes"), Some(crashes));
        assert_eq!(metrics.counter("server.restarts"), Some(crashes));
        let cached_copies = (0..FILES)
            .map(|f| {
                let want = files.get(&f).map(Vec::as_slice);
                assert_bank_holds(&imca, cfg.block_size, &path(f), want, reach)
            })
            .sum();
        Trace {
            end_ns: s.end_time.as_nanos(),
            events: s.events,
            metrics,
            ran,
            sick_errors,
            cached_copies,
        }
    }
}

/// Everything a storm exposes; two runs are "the same" iff this is equal.
#[derive(Debug, PartialEq)]
pub struct Trace {
    pub end_ns: u64,
    pub events: u64,
    /// The IMCa cluster's snapshot, taken before the bank check.
    pub metrics: Snapshot,
    /// How many ops of each variant ran (an op whose file is absent, or
    /// that needs a live server while it is down, is skipped).
    pub ran: BTreeMap<&'static str, u32>,
    /// Client-visible `FsError::Io` results while a live server ran a
    /// storage plan that draws ([`Plan::Sick`]): the bite of the chaos.
    pub sick_errors: u32,
    /// Cached block copies the end-of-storm bank check compared.
    pub cached_copies: u64,
}

impl Trace {
    pub fn assert_ran_every_variant(&self) {
        let missing: Vec<_> = Op::NAMES
            .iter()
            .filter(|&name| !self.ran.contains_key(name))
            .collect();
        assert!(missing.is_empty(), "never ran: {missing:?}");
    }
}

/// The canonical schedule: every [`Op`] variant, including writers racing
/// readers, a crash with a write in flight, and a second client that
/// holds leases, reads another's writes, and keeps a descriptor across an
/// unlink and a re-create; then the full chaos program — sick storage
/// under page-cache pressure, a daemon kill, a drop window, and a crash
/// whose writes must fail fast.
pub fn canonical() -> Vec<Op> {
    use Op::*;
    let mut ops = vec![
        // On a healthy bank: a stat of an absent file plants its negative
        // entry, the create replaces it with the file's stat, and the
        // stat after must find the file, with no open in between to seed
        // its stat entry. Then the file goes again, for the program below.
        Stat(3),
        Toggle(3),
        Stat(3),
        Toggle(3),
        // A listing whose window holds the absent path: one batched
        // fop for all four, which plants its negative entry.
        List,
        Write(0, 0, 8192, 7),
        Write(1, 100, 3000, 99),
        Write(2, 0, 12288, 2),
        Burst(2, 0),
        // Two writers inside one warm block race the readers: their CAS
        // waves collide, and on a shedding bank the readers keep the
        // writers' token fetches queued behind them.
        Race(2, 300),
        Read(2, 0, 4000),
        Read(0, 0, 4000),
        // A lease fill, then a lease hit, on each client; the other one
        // reads first, through its own descriptor.
        Stat(0),
        Stat(0),
        Switch,
        Read(0, 0, 4000),
        Stat(0),
        Stat(0),
        // An overwrite that keeps the size: the revocation must reach the
        // other client, whose stat must show the new mtime and whose read
        // the new bytes.
        Switch,
        Write(0, 100, 500, 40),
        Switch,
        Stat(0),
        Read(0, 0, 4000),
        Switch,
        LatencySpike(400, 30),
        Burst(2, 700),
        Partition(0),
        Read(0, 500, 2000),
        // Revokes the lease before the bank's stat entry moves.
        Write(0, 2000, 2000, 3),
        Stat(0),
        Burst(2, 5000),
        Heal(0),
        Kill(1),
        Read(1, 0, 3100),
        Revive(1),
        DropWindow(300),
        Stat(3),
        Toggle(3),
        Write(3, 0, 1500, 5),
        Reopen(3),
        Read(3, 1000, 3000),
        // The other client opens the file and warms its blocks; it is
        // unlinked and created again, with a hole where they were.
        Switch,
        Read(3, 0, 1500),
        Switch,
        Toggle(3),
        Toggle(3),
        Write(3, 10000, 4, 9),
        // Through the other client's old descriptor: a hole, a read
        // across EOF, which caches the short EOF block and empty ones
        // past it, and one wholly past EOF.
        Switch,
        Read(3, 0, 100),
        Read(3, 9998, 4000),
        Read(3, 20000, 10),
        Switch,
        // An extension past the short EOF block and the empty ones: none
        // may end the other client's read early.
        Write(3, 12500, 5, 13),
        Switch,
        Read(3, 9000, 4000),
        Switch,
        Toggle(3),
        Stat(3),
        Storage(Plan::WriteErrors),
        Write(1, 0, 100, 1),
        Storage(Plan::Healthy),
        // The crash lands after the write reached the disk and before its
        // ack: the restart must read it back new on every row.
        CrashMidWrite(1, 1000, 3000, 11, 60),
        Restart,
        Storage(Plan::Sick),
    ];
    for round in 0..30u32 {
        let (file, offset, fill) = ((round % 3) as u8, (round * 1111) % 8192, round as u8);
        let frontier = 8192 * (1 + round / 4) + offset % 4096;
        let overwrite = Write(file, offset, 600, fill);
        match round % 4 {
            // Each pressure write extends the file into a block SMCache
            // has never tracked, so its push needs the covering re-read
            // that the cold page cache sends to the sick media.
            0 => ops.extend([DropCaches, Write(file, frontier, 1500, fill)]),
            // An overwrite of a warm block: the purge protocol's covering
            // re-read goes to the sick media too, and a refused one must
            // leave no pre-write copy behind for the read after.
            1 => ops.extend([DropCaches, overwrite, Read(file, offset, 2000)]),
            // An overwrite of a block the reopen took out of the bank:
            // the CAS protocol re-reads it from the sick media.
            2 => ops.extend([Reopen(file), DropCaches, overwrite]),
            _ => ops.push(Read(file, offset, 2000)),
        }
        match round {
            10 => ops.push(Kill(0)),
            // A listing on sick media may answer `Io` for any path.
            13 => ops.push(List),
            14 => ops.push(Revive(0)),
            18 => ops.push(DropWindow(200)),
            _ => {}
        }
    }
    // Every path the listing forwards to the crashed server is `Io`.
    ops.extend([Crash, List]);
    ops.extend((0..3).map(|file| Write(file, 0, 4, 0)));
    ops.push(Restart);
    // On healthy media again, a write that covers one page of a warm
    // block: on the 8 KB rows the other page comes from the dropped page
    // cache, so the purge protocol's covering re-read is refused. Its
    // purge went first, so the read after must not find the pre-write
    // block in the bank.
    ops.extend([
        Storage(Plan::Healthy),
        Write(0, 0, 8192, 7),
        Read(0, 0, 4000),
        DropCaches,
        Storage(Plan::ReadErrors),
        Write(0, 100, 500, 40),
        Storage(Plan::Healthy),
        Read(0, 0, 4000),
        // A daemon evicts a warm block under SMCache's kept tokens; a
        // reader refills it and an overwrite of the whole block goes out
        // beside the fill, whose `set` wins the token: the write's wave
        // is awaited, its `cas` conflicts and it falls back. Here most
        // rows' banks may reorder, so the fill also takes its own blocks
        // out; a fill that stays, on a FIFO bank, is the property
        // `a_fill_racing_an_overwrite_matches_reference`'s. Last, so the
        // schedule before it replays as it did without it.
        FillRace(0, 2048, 20),
        Read(0, 0, 4000),
    ]);
    ops
}

/// The end-of-storm bank check: every block of `path` below `reach`
/// that a live, non-quarantined daemon holds equals that block's current
/// bytes in `want` — short at EOF, empty past it — and a file that no
/// longer exists has no block held at all. Returns the copies compared.
fn assert_bank_holds(
    c: &Cluster,
    block_size: u64,
    path: &str,
    want: Option<&[u8]>,
    reach: u64,
) -> u64 {
    let mut copies = 0;
    let serving = c
        .mcds()
        .iter()
        .filter(|n| n.is_alive() && !n.is_quarantined());
    for node in serving {
        for start in (0..reach).step_by(block_size as usize) {
            let Some(held) = node.server().store().get(&keys::block_key(path, start), 0) else {
                continue;
            };
            let want = want.unwrap_or_else(|| panic!("{path} is gone, block {start} is cached"));
            let len = want.len() as u64;
            let (lo, hi) = (start.min(len), (start + block_size).min(len));
            assert_eq!(
                &held.value[..],
                &want[lo as usize..hi as usize],
                "a daemon holds a stale block {start} of {path}"
            );
            copies += 1;
        }
    }
    copies
}

/// One lane of a burst: its result on IMCa and on the twin (`None`
/// when the twin did not follow); a writer's bytes are empty.
type Lane =
    Pin<Box<dyn Future<Output = (Result<Vec<u8>, FsError>, Option<Result<Vec<u8>, FsError>>)>>>;

/// The bytes before a race and the writes that raced, by offset.
type Raced<'a> = Option<(&'a [u8], &'a [(u64, Vec<u8>)])>;

fn path(file: u8) -> String {
    format!("/storm/{file}")
}

/// `len` bytes counting up from `fill`.
fn counting(len: u16, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

/// One client of each cluster, and the descriptors it holds.
struct Client {
    mi: Rc<GlusterMount>,
    /// The IMCa mount's CMCache, which lists.
    cm: Rc<CmCache>,
    mn: Rc<GlusterMount>,
    /// Open descriptors, IMCa's and the twin's.
    fds: HashMap<u8, (Fd, Fd)>,
}

struct Driver {
    c: Rc<Cluster>,
    n: Rc<Cluster>,
    /// The client issuing ops, and the other one.
    me: Client,
    other: Client,
    /// Which client `me` is, 0 or 1.
    at: usize,
    h: SimHandle,
    seed: u64,
    threaded: bool,
    block_size: u64,
    /// The longest circuit cooldown of a bank client.
    cooldown: SimDuration,
    /// The reference filesystem: every file that exists, by content.
    files: BTreeMap<u8, Vec<u8>>,
    /// Per existing file, when IMCa's latest landed write or create of it
    /// was issued: no stat shows an earlier mtime.
    floor: HashMap<u8, SimTime>,
    /// The storage plan installed on IMCa.
    plan: StorageFaultPlan,
    cut: [bool; MCDS as usize],
    /// One past the highest byte any op has touched.
    reach: u64,
    ran: BTreeMap<&'static str, u32>,
    sick_errors: Cell<u32>,
    /// The write a crash caught in flight, until the restart settles it:
    /// (file, offset, bytes, acknowledged, issued at, issuing client).
    crashed_write: Option<(u8, u64, Vec<u8>, bool, SimTime, usize)>,
    /// The op being checked, for failure messages.
    here: String,
}

impl Driver {
    /// Before a cut, window or spike on a row with no bank plan: install
    /// the benign plan scoped to the bank's links, so the fault reaches
    /// no GlusterFS link (which has no retransmit). From here on the bank
    /// may reorder stores, so SMCache posts nothing.
    fn scope_bank_faults(&self) {
        if !self.c.network().has_faults() {
            let plan = FaultPlan {
                seed: self.seed,
                ..FaultPlan::default()
            };
            self.c.install_bank_faults(plan);
        }
    }

    /// Issue one op; `None` if it was skipped.
    async fn apply(&mut self, op: Op) -> Option<()> {
        let (c, now) = (Rc::clone(&self.c), self.h.now());
        let until = |us: u16| SimTime(now.as_nanos() + u64::from(us) * 1_000);
        match op {
            Op::Write(file, offset, len, fill) => {
                return self.write(file, offset.into(), &counting(len, fill)).await;
            }
            Op::Read(file, offset, len) => return self.read(file, offset.into(), len.into()).await,
            Op::Stat(file) => return self.stat(file).await,
            Op::List => self.list().await,
            Op::Reopen(file) => return self.reopen(file).await,
            Op::Burst(file, offset) => return self.burst(file, offset.into(), 0).await,
            Op::Race(file, offset) => return self.burst(file, offset.into(), 2).await,
            Op::FillRace(file, offset, us) => return self.fill_race(file, offset.into(), us).await,
            Op::Toggle(file) => return self.toggle(file).await,
            Op::Kill(i) => c.kill_mcd(i.into()),
            Op::Revive(i) => c.revive_mcd(i.into()),
            Op::Partition(i) => {
                self.scope_bank_faults();
                c.partition_mcd(i.into());
                self.cut[usize::from(i)] = true;
            }
            Op::Heal(i) => {
                c.heal_mcd(i.into());
                c.revive_mcd(i.into());
                self.cut[usize::from(i)] = false;
            }
            Op::DropWindow(us) => {
                self.scope_bank_faults();
                c.network().add_drop_window(now, until(us));
            }
            Op::LatencySpike(us, extra) => {
                self.scope_bank_faults();
                let extra = SimDuration::micros(extra.into());
                c.network().add_latency_spike(now, until(us), extra);
            }
            Op::Storage(plan) => {
                self.plan = plan.install(self.seed, now);
                c.install_storage_faults(self.plan.clone());
                // The twin shares only a plan both can judge alike.
                let twin = self.twinned().then(|| self.plan.clone());
                self.n.install_storage_faults(twin.unwrap_or_default());
            }
            Op::DropCaches => {
                c.backend().drop_caches();
                self.n.backend().drop_caches();
            }
            Op::Crash => {
                self.alive()?;
                c.crash_server();
                self.n.crash_server();
            }
            Op::CrashMidWrite(file, offset, len, fill, us) => {
                let (at, data) = (offset.into(), counting(len, fill));
                return self.crash_mid_write(file, at, data, us).await;
            }
            Op::Restart if c.server_alive() => return None,
            Op::Restart => self.restart().await,
            Op::Switch => self.switch(),
        }
        Some(())
    }

    fn switch(&mut self) {
        std::mem::swap(&mut self.me, &mut self.other);
        self.at ^= 1;
    }

    /// Calm after the storm: heal, revive, restart and clear every
    /// fault, let every bank client's circuit close, then two full-file
    /// passes through each client of both clusters, which refill the bank
    /// for its check.
    async fn calm(&mut self) {
        for (i, node) in self.c.mcds().iter().enumerate() {
            if self.cut[i] || !node.is_alive() || node.is_quarantined() {
                self.c.heal_mcd(i);
                self.c.revive_mcd(i);
            }
        }
        if !self.c.server_alive() {
            self.restart().await;
        }
        self.c.install_bank_faults(FaultPlan::default());
        self.plan = StorageFaultPlan::default();
        self.c.install_storage_faults(StorageFaultPlan::default());
        self.n.install_storage_faults(StorageFaultPlan::default());
        self.h.sleep(self.cooldown).await;
        self.here = "calm".into();
        for _client in 0..2 {
            for file in self.files.keys().copied().collect::<Vec<_>>() {
                let len = self.files[&file].len() as u64;
                let read = self.read(file, 0, len.max(1)).await;
                assert!(read.is_some(), "calm: /storm/{file} could not be read");
            }
            self.switch();
        }
    }

    fn alive(&self) -> Option<()> {
        self.c.server_alive().then_some(())
    }

    /// Whether the twin reaches IMCa's verdicts: the installed storage
    /// plan draws no randomness and leaves reads healthy.
    fn twinned(&self) -> bool {
        let w = self.plan.write_error;
        !self.reads_may_fail() && (w == 0.0 || w == 1.0)
    }

    fn reads_may_fail(&self) -> bool {
        let p = &self.plan;
        p.read_error > 0.0 || !p.error_windows.is_empty() || !p.failed_disks.is_empty()
    }

    /// An error is `FsError::Io`, and only while a fault that can cause
    /// it is in force: sick reads for a read or stat; any storage fault,
    /// or a crashed server, for anything that mutates.
    fn check_err(&self, e: FsError, read: bool) {
        assert_eq!(e, FsError::Io, "{}", self.here);
        let writes_may_fail = self.plan.write_error > 0.0 || !self.c.server_alive();
        let may_fail = self.reads_may_fail() || (!read && writes_may_fail);
        assert!(may_fail, "{}: an error with no fault in force", self.here);
        if self.c.server_alive() && !self.twinned() {
            self.sick_errors.set(self.sick_errors.get() + 1);
        }
    }

    /// The twin's half of an op IMCa answered with `ri`. While twinned
    /// the verdicts must agree; otherwise the twin follows IMCa's
    /// successes only. Returns the twin's result when it ran.
    async fn follow<T>(
        &self,
        ri: &Result<T, FsError>,
        twin: impl Future<Output = Result<T, FsError>>,
    ) -> Option<Result<T, FsError>> {
        if self.twinned() {
            let rn = twin.await;
            let (ei, en) = (ri.as_ref().err(), rn.as_ref().err());
            assert_eq!(ei, en, "{}: the twin's verdict differs", self.here);
            Some(rn)
        } else if ri.is_ok() {
            let rn = twin.await;
            assert!(rn.is_ok(), "{}: the twin failed what IMCa did", self.here);
            Some(rn)
        } else {
            None
        }
    }

    /// The current client's descriptors of `file`, opening it on both
    /// clusters if needed; `None` if it does not exist, the server is
    /// down, or the open failed.
    async fn fd(&mut self, file: u8) -> Option<(Fd, Fd)> {
        self.files.get(&file)?;
        if let Some(&fds) = self.me.fds.get(&file) {
            return Some(fds);
        }
        self.alive()?;
        let p = path(file);
        let ri = self.me.mi.open(&p).await;
        let rn = self.follow(&ri, self.me.mn.open(&p)).await;
        match ri {
            Ok(fi) => {
                let fds = (fi, rn.unwrap().unwrap());
                self.me.fds.insert(file, fds);
                Some(fds)
            }
            Err(e) => {
                self.check_err(e, false);
                None
            }
        }
    }

    /// §4.4's staleness window: under threaded updates the reference
    /// holds once SMCache owes no bank work (`Cluster::pending_updates`):
    /// every job queued since, read fills too, has run and landed.
    async fn settle(&self) {
        if self.threaded {
            self.idle(Cluster::pending_updates, "work still owed").await;
        }
    }

    /// Poll `busy` every 50 µs until 0; fail as `stuck` a virtual second on.
    async fn idle(&self, busy: impl Fn(&Cluster) -> u64, stuck: &str) {
        let give_up = self.h.now() + SimDuration::secs(1);
        while busy(&self.c) > 0 {
            assert!(self.h.now() < give_up, "{}: {stuck}", self.here);
            self.h.sleep(SimDuration::micros(50)).await;
        }
    }

    async fn write(&mut self, file: u8, offset: u64, data: &[u8]) -> Option<()> {
        if !self.c.server_alive() && !self.me.fds.contains_key(&file) {
            return None;
        }
        let (fi, fd_n) = self.fd(file).await?;
        let t0 = self.h.now();
        let ri = self.me.mi.write(fi, offset, data).await;
        let hung = self.h.now().since(t0) >= SimDuration::millis(10);
        assert!(
            self.c.server_alive() || !hung,
            "{}: a dead server hung",
            self.here
        );
        self.follow(&ri, self.me.mn.write(fd_n, offset, data)).await;
        match ri {
            Ok(_) => self.land(file, offset, data, t0),
            Err(e) => self.check_err(e, false),
        }
        self.settle().await;
        Some(())
    }

    /// A write of `data` at `offset`, issued `at`, landed: the reference
    /// takes it.
    fn land(&mut self, file: u8, offset: u64, data: &[u8], at: SimTime) {
        self.floor.insert(file, at);
        let buf = self.files.get_mut(&file).unwrap();
        let end = offset as usize + data.len();
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf[offset as usize..end].copy_from_slice(data);
        self.reach = self.reach.max(end as u64);
    }

    /// Crash both servers `us` after IMCa's write of `data` is issued.
    /// The twin is not written: the restart settles the write
    /// ([`Driver::restart`]) and brings the twin to what IMCa holds.
    async fn crash_mid_write(&mut self, file: u8, at: u64, data: Vec<u8>, us: u16) -> Option<()> {
        self.alive()?;
        let (fi, _) = self.fd(file).await?;
        let (c, n, h) = (Rc::clone(&self.c), Rc::clone(&self.n), self.h.clone());
        let crash_at = self.h.now() + SimDuration::micros(us.into());
        self.h.spawn(async move {
            h.sleep_until(crash_at).await;
            c.crash_server();
            n.crash_server();
        });
        let issued = self.h.now();
        let ri = self.me.mi.write(fi, at, &data).await;
        // The crash's timer was set first, so it fires first.
        self.h.sleep_until(crash_at).await;
        if let Err(e) = ri {
            self.check_err(e, false);
        }
        self.reach = self.reach.max(at + data.len() as u64);
        self.crashed_write = Some((file, at, data, ri.is_ok(), issued, self.at));
        Some(())
    }

    /// Restart both servers, then settle the write a crash caught in
    /// flight by the module doc's rule, through the client that issued it.
    async fn restart(&mut self) {
        self.c.restart_server().await;
        self.n.restart_server().await;
        let Some((file, offset, data, acked, issued, client)) = self.crashed_write.take() else {
            return;
        };
        let away = client != self.at;
        if away {
            self.switch();
        }
        // Crashed work is not cancelled (DESIGN.md §6c): wait for its end.
        self.idle(Cluster::server_queue_depth, "crashed work never ended")
            .await;
        let (fi, fd_n) = self.me.fds[&file];
        let len = data.len() as u64;
        let old = self.want(file, offset, len).to_vec();
        let got = loop {
            match self.me.mi.read(fi, offset, len).await {
                Ok(got) => break got,
                Err(e) => self.check_err(e, true),
            }
        };
        if acked || got != old {
            self.land(file, offset, &data, issued);
            // The twin takes the bytes under any plan: no verdict is asked.
            self.n.install_storage_faults(StorageFaultPlan::default());
            let rn = self.me.mn.write(fd_n, offset, &data).await;
            assert!(rn.is_ok(), "{}: the twin refused it", self.here);
            let twin = self.twinned().then(|| self.plan.clone());
            self.n.install_storage_faults(twin.unwrap_or_default());
        }
        let settled = self.want(file, offset, len);
        assert!(got == settled, "{}: torn (acked: {acked})", self.here);
        if away {
            self.switch();
        }
    }

    /// The reference bytes of `[offset, offset + len)`, short at EOF.
    fn want(&self, file: u8, offset: u64, len: u64) -> &[u8] {
        let buf = &self.files[&file];
        let end = ((offset + len) as usize).min(buf.len());
        &buf[(offset as usize).min(end)..end]
    }

    /// A read of `[offset, offset + len)` equals the reference or, if
    /// `raced` writes ran beside it, may be behind them: it ends where the
    /// file ended `before` them or later, and each byte inside one of
    /// their ranges may be the byte from `before`.
    fn check_read(
        &self,
        r: Result<Vec<u8>, FsError>,
        file: u8,
        offset: u64,
        len: u64,
        raced: Raced,
    ) {
        let got = match r {
            Ok(got) => got,
            Err(e) => return self.check_err(e, true),
        };
        let (o, want) = (offset as usize, self.want(file, offset, len));
        if got == want {
            return;
        }
        let stray = format!("{}: read {o}+{len} of file {file} strayed", self.here);
        let (before, writes) = raced.expect(&stray);
        let least = before.len().saturating_sub(o).min(len as usize);
        assert!((least..=want.len()).contains(&got.len()), "{stray}: short");
        for (i, (&b, &now)) in (o..).zip(got.iter().zip(want)) {
            let inside =
                |&(at, ref w): &(u64, Vec<u8>)| (at as usize..at as usize + w.len()).contains(&i);
            let old = before.get(i).copied().unwrap_or(0);
            assert!(
                b == now || (writes.iter().any(inside) && b == old),
                "{stray} at {i}"
            );
        }
    }

    async fn read(&mut self, file: u8, offset: u64, len: u64) -> Option<()> {
        self.alive()?;
        let (fi, fd_n) = self.fd(file).await?;
        self.reach = self.reach.max(offset + len);
        for pass in 1..=2 {
            let ri = self.me.mi.read(fi, offset, len).await;
            if pass == 1 {
                if let Some(rn) = self.follow(&ri, self.me.mn.read(fd_n, offset, len)).await {
                    self.check_read(rn, file, offset, len, None);
                }
            }
            self.check_read(ri, file, offset, len, None);
        }
        Some(())
    }

    /// [`BURST_READERS`] concurrent readers, 2 KB apart in a 12 KB span,
    /// and `writers` racing them through the same descriptor, each lane
    /// on IMCa, then on the twin. Writer `w` writes [`RACE_LEN`] bytes at
    /// `w * RACE_GAP` into the span: byte-disjoint, so the reference after
    /// the race has one value whatever order the servers pick.
    async fn burst(&mut self, file: u8, offset: u64, writers: u64) -> Option<()> {
        let writes = (0..writers)
            .map(|w| {
                let at = offset % 12288 + w * RACE_GAP;
                (at, counting(RACE_LEN as u16, at as u8 ^ 0x5A))
            })
            .collect();
        let reads = (0..BURST_READERS)
            .map(|k| ((offset + k * 2048) % 12288, BURST_LEN))
            .collect();
        self.race(file, writes, reads, 0).await
    }

    /// [`Op::FillRace`]: evict the block at `offset` (in the 12 KB span)
    /// from every daemon, then read it and, `us` later, overwrite it
    /// whole.
    async fn fill_race(&mut self, file: u8, offset: u64, us: u8) -> Option<()> {
        self.alive()?;
        self.fd(file).await?;
        let start = offset % 12288 / self.block_size * self.block_size;
        let key = keys::block_key(&path(file), start);
        for node in self.c.mcds() {
            node.server().store().delete(&key, 0);
        }
        let data = counting(self.block_size as u16, us);
        let reads = vec![(start, self.block_size)];
        self.race(file, vec![(start, data)], reads, us.into()).await
    }

    /// Readers of `reads` (offset, len) and writers of `writes` (offset,
    /// bytes) at once, each writer `lag_us` behind the readers, each lane
    /// on IMCa, then on the twin.
    async fn race(
        &mut self,
        file: u8,
        writes: Vec<(u64, Vec<u8>)>,
        reads: Vec<(u64, u64)>,
        lag_us: u64,
    ) -> Option<()> {
        self.alive()?;
        let (fi, fd_n) = self.fd(file).await?;
        let (twinned, before, t0) = (self.twinned(), self.files[&file].clone(), self.h.now());
        let mut lanes: Vec<Lane> = Vec::new();
        for (at, data) in writes.clone() {
            let (mi, mn, h) = (
                Rc::clone(&self.me.mi),
                Rc::clone(&self.me.mn),
                self.h.clone(),
            );
            lanes.push(Box::pin(async move {
                // No lag, no yield: a burst's writers go out first.
                if lag_us > 0 {
                    h.sleep(SimDuration::micros(lag_us)).await;
                }
                let ri = mi.write(fi, at, &data).await.map(|_| Vec::new());
                // The twin follows as in `Driver::follow`.
                let rn = if twinned || ri.is_ok() {
                    Some(mn.write(fd_n, at, &data).await.map(|_| Vec::new()))
                } else {
                    None
                };
                (ri, rn)
            }));
        }
        for &(off, len) in &reads {
            let (mi, mn) = (Rc::clone(&self.me.mi), Rc::clone(&self.me.mn));
            lanes.push(Box::pin(async move {
                let ri = mi.read(fi, off, len).await;
                (ri, Some(mn.read(fd_n, off, len).await))
            }));
        }
        let mut done = join_all(&self.h, lanes).await;
        let answers = done.split_off(writes.len());
        for ((at, data), (ri, rn)) in writes.iter().zip(done) {
            if let Some(rn) = rn {
                let (ei, en) = (ri.as_ref().err(), rn.as_ref().err());
                assert_eq!(ei, en, "{}: the twin's verdict differs", self.here);
            }
            match ri {
                Ok(_) => self.land(file, *at, data, t0),
                Err(e) => self.check_err(e, false),
            }
        }
        for (&(off, len), (ri, rn)) in reads.iter().zip(answers) {
            self.reach = self.reach.max(off + len);
            let raced = (!writes.is_empty()).then_some((&before[..], &writes[..]));
            self.check_read(ri, file, off, len, raced);
            // Twinned or not, the twin holds the reference bytes.
            let rn = rn.unwrap();
            assert!(rn.is_ok(), "{}: the twin's burst read failed", self.here);
            self.check_read(rn, file, off, len, raced);
        }
        if !writes.is_empty() {
            self.settle().await;
        }
        Some(())
    }

    async fn stat(&mut self, file: u8) -> Option<()> {
        self.alive()?;
        let p = path(file);
        let ri = self.me.mi.stat(&p).await;
        if let Some(rn) = self.follow(&ri, self.me.mn.stat(&p)).await {
            self.check_stat(rn, file);
        }
        self.check_stat(ri, file);
        Some(())
    }

    /// One batched stat over every storm file on IMCa, each answer
    /// checked like [`Driver::stat`]'s, then one stat per path on the
    /// twin. While the server is down, what no lease or bank entry
    /// answers is `Io` and installs no lease, and a stat that a crashed
    /// write's unfinished work pushed may already show that write.
    async fn list(&mut self) {
        let installed = |cm: &CmCache| collect_from(&**cm.meta(), "").counter("leases_installed");
        let before = installed(&self.me.cm);
        let paths = (0..FILES).map(path).collect();
        let answers = self.me.cm.stat_multi(paths).await;
        let alive = self.c.server_alive();
        let from_bank = answers
            .iter()
            .filter(|r| matches!(r.source, StatSource::Bank | StatSource::Negative))
            .count();
        for (file, r) in (0..FILES).zip(answers) {
            if !alive && r.source == StatSource::Backend {
                assert_eq!(r.stat, Err(FsError::Io), "{}: /storm/{file}", self.here);
                continue;
            }
            if let Some((_, at, data, ..)) = self.crashed_write.as_ref().filter(|w| w.0 == file) {
                let written = (self.files[&file].len() as u64).max(at + data.len() as u64);
                if r.stat.map(|st| st.size) == Ok(written) {
                    continue;
                }
            }
            if alive {
                if let Some(rn) = self.follow(&r.stat, self.me.mn.stat(&path(file))).await {
                    self.check_stat(rn, file);
                }
            }
            self.check_stat(r.stat, file);
        }
        if !alive {
            let new = installed(&self.me.cm).unwrap() - before.unwrap();
            assert!(
                new <= from_bank as u64,
                "{}: a dead server's answer installed",
                self.here
            );
        }
    }

    fn check_stat(&self, r: Result<FileStat, FsError>, file: u8) {
        let want = self.files.get(&file).map(|b| b.len() as u64);
        match (r, want) {
            (Ok(st), Some(size)) => {
                assert_eq!(st.size, size, "{}", self.here);
                let floor = self.floor[&file].as_nanos();
                assert!(st.mtime_ns >= floor, "{}: mtime under {floor}", self.here);
            }
            (Err(FsError::NotFound), None) => {}
            (Err(FsError::Io), _) => self.check_err(FsError::Io, true),
            (r, want) => panic!("{}: stat {r:?} of a file sized {want:?}", self.here),
        }
    }

    async fn reopen(&mut self, file: u8) -> Option<()> {
        self.alive()?;
        self.close(file).await;
        self.fd(file).await.map(drop)
    }

    async fn close(&mut self, file: u8) {
        if let Some((fi, fd_n)) = self.me.fds.remove(&file) {
            let ri = self.me.mi.close(fi).await;
            self.follow(&ri, self.me.mn.close(fd_n)).await;
            if let Err(e) = ri {
                self.check_err(e, false);
            }
        }
    }

    async fn toggle(&mut self, file: u8) -> Option<()> {
        self.alive()?;
        let p = path(file);
        if self.files.contains_key(&file) {
            self.close(file).await;
            let ri = self.me.mi.unlink(&p).await;
            self.follow(&ri, self.me.mn.unlink(&p)).await;
            match ri {
                Ok(()) => drop(self.files.remove(&file)),
                Err(e) => self.check_err(e, false),
            }
        } else {
            let t0 = self.h.now();
            let ri = self.me.mi.create(&p).await;
            self.follow(&ri, self.me.mn.create(&p)).await;
            match ri {
                Ok(()) => {
                    self.files.insert(file, Vec::new());
                    self.floor.insert(file, t0);
                }
                Err(e) => self.check_err(e, false),
            }
        }
        self.settle().await;
        Some(())
    }
}

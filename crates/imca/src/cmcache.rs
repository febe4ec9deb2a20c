//! CMCache — the Client Memory Cache translator (§4.1).
//!
//! Intercepts fops on the GlusterFS client:
//!
//! * **stat**: delegated to the metadata tier ([`MetaEngine`], see
//!   `crate::meta`): a lease, the bank's `<path>:m.stat` entry, or a
//!   negative entry answers locally; otherwise the request propagates to
//!   the server (whose SMCache repopulates the entry). The legacy
//!   behaviour — one bank round trip, forward on a miss — is the
//!   default [`MetaConfig`].
//! * **read**: generate the block keys covering the request ("CMCache will
//!   generate keys that consist of the absolute pathname for the file ...
//!   and the offsets from the Read request, taking into account the IMCa
//!   blocksize"), fetch them from the MCDs, and assemble. In the default
//!   batched mode the covering keys travel as one multi-key `get` per
//!   routed daemon ([`BankClient::get_multi`]); the per-key mode (one RPC
//!   per block, as the paper's client does it) is kept for the batching
//!   ablation. Either way, "if there is a miss for any one of the keys,
//!   CMCache will forward the Read request to the GlusterFS server" —
//!   making cold misses strictly more expensive than NoCache (§4.4).
//! * **write / create / delete / open / close**: not intercepted (§4.2,
//!   §4.3.2); they flow straight to the server.
//!
//! Replication (DESIGN.md §4d) is transparent at this layer: the bank
//! client routes each GET to one of the key's replicas (power-of-two-
//! choices on observed load, warm failover past dead daemons) and
//! coalesces concurrent same-key GETs into one RPC, so CMCache's hit
//! and miss semantics — and the "any block miss forwards the read"
//! rule — are byte-identical at every replication factor.
//!
//! Write coherence (DESIGN.md §4f) is likewise invisible here: writes
//! pass through untouched either way, and the server-side SMCache
//! decides whether a write's covering blocks are CAS-replaced in place
//! (the default — this cache's post-write reads stay bank hits) or
//! purged and repushed (the paper's protocol, whose cold window shows
//! up here as post-write `read_misses`).

use std::cell::Cell;
use std::rc::Rc;

use imca_glusterfs::{Fop, FopReply, Translator, Xlator};
use imca_metrics::{prefixed, Counter, Histogram, MetricSource, Registry, Snapshot};
use imca_sim::join_all;
use imca_sim::SimHandle;

use crate::block::{assemble, cover};
use crate::cluster::ImcaConfig;
use crate::keys::block_key;
use crate::mcd::BankClient;
use crate::meta::{MetaCache, MetaEngine, StatFuture, StatMultiFuture, StatResult, StatSource};

/// Client-side cache interception counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmStats {
    /// Stats answered from the bank.
    pub stat_hits: u64,
    /// Stats that fell through to the server.
    pub stat_misses: u64,
    /// Reads fully assembled from cached blocks.
    pub read_hits: u64,
    /// Reads forwarded to the server after one or more block misses.
    pub read_misses: u64,
}

/// The graceful-degradation ladder (DESIGN.md §8): when a read's bank
/// round comes back `busy`-shed by a daemon's admission control, the
/// translator steps down into *degraded* mode — subsequent reads skip
/// the bank entirely and go straight to GlusterFS as local misses
/// (`degraded_reads`), sparing the overloaded bank even the refused
/// RPCs. Each degraded read instead *probes* the bank with probability
/// `probe_probability`; the first probe whose round completes without
/// a shed steps back up (`readmissions`). The probabilistic probe keeps
/// clients from re-admitting in lockstep and re-melting the bank.
///
/// Measured net-negative on the overload drive (EXPERIMENTS.md A12) and
/// enabled by no drive; removal is pending a benchmark re-baseline.
#[derive(Debug, Clone, Copy)]
pub struct DegradationLadder {
    /// Per-read probability that a degraded client probes the bank.
    pub probe_probability: f64,
}

impl Default for DegradationLadder {
    fn default() -> DegradationLadder {
        DegradationLadder {
            probe_probability: 0.1,
        }
    }
}

/// The CMCache translator.
pub struct CmCache {
    child: Xlator,
    bank: Rc<BankClient>,
    meta: Rc<MetaEngine>,
    block_size: u64,
    batched: bool,
    registry: Registry,
    stat_hits: Counter,
    stat_misses: Counter,
    read_hits: Counter,
    read_misses: Counter,
    /// Client-observed stat / read latency through this translator,
    /// virtual ns.
    stat_ns: Histogram,
    read_ns: Histogram,
    /// Overload ladder config; `None` (the default) disables the
    /// degraded mode entirely and replays bit-identically.
    ladder: Option<DegradationLadder>,
    /// Whether this client is currently degraded (sheds observed, not
    /// yet re-admitted).
    degraded: Cell<bool>,
    /// xorshift64 state for the re-admission roll, seeded per client.
    ladder_rng: Cell<u64>,
    /// Reads served straight from GlusterFS while degraded (no bank
    /// traffic at all).
    degraded_reads: Counter,
    /// Successful re-admission probes (degraded → normal transitions).
    readmissions: Counter,
    handle: SimHandle,
}

impl CmCache {
    /// Stack CMCache above `child` (normally `protocol/client`), talking
    /// to `bank`, the way `cfg` describes the deployment: `batching`
    /// selects one multi-get RPC per daemon for reads (`false` falls back
    /// to one RPC per covering block, the ablation); `meta` picks the
    /// stat policy (see `crate::meta`); `ladder` the overload ladder.
    /// `ladder_seed` seeds the client-local re-admission RNG — give every
    /// client a distinct seed (the cluster uses the mount index) so
    /// degraded clients don't probe the recovering bank in lockstep.
    pub fn new(
        handle: SimHandle,
        child: Xlator,
        bank: Rc<BankClient>,
        cfg: &ImcaConfig,
        ladder_seed: u64,
    ) -> Rc<CmCache> {
        let block_size = cfg.block_size;
        assert!(block_size > 0, "IMCa block size must be positive");
        let registry = Registry::new();
        let meta = MetaEngine::new(
            handle.clone(),
            Rc::clone(&child),
            Rc::clone(&bank),
            cfg.meta,
        );
        Rc::new(CmCache {
            child,
            bank,
            meta,
            block_size,
            batched: cfg.batching,
            stat_hits: registry.counter("stat_hits"),
            stat_misses: registry.counter("stat_misses"),
            read_hits: registry.counter("read_hits"),
            read_misses: registry.counter("read_misses"),
            stat_ns: registry.histogram("stat_ns"),
            read_ns: registry.histogram("read_ns"),
            ladder: cfg.ladder,
            degraded: Cell::new(false),
            // Golden-ratio constant XOR an odd term: nonzero whatever
            // the seed.
            ladder_rng: Cell::new(0x9E37_79B9_7F4A_7C15 ^ ((ladder_seed << 1) | 1)),
            degraded_reads: registry.counter("degraded_reads"),
            readmissions: registry.counter("readmissions"),
            registry,
            handle,
        })
    }

    /// Interception counters (a derived view over the metric registry).
    pub fn stats(&self) -> CmStats {
        CmStats {
            stat_hits: self.stat_hits.get(),
            stat_misses: self.stat_misses.get(),
            read_hits: self.read_hits.get(),
            read_misses: self.read_misses.get(),
        }
    }

    /// The bank this translator reads from.
    pub fn bank(&self) -> &Rc<BankClient> {
        &self.bank
    }

    /// The metadata engine behind this translator's stat path.
    pub fn meta(&self) -> &Rc<MetaEngine> {
        &self.meta
    }

    /// One stat through the metadata tier, with this translator's
    /// hit/miss accounting: anything answered without the server (lease,
    /// bank, negative) is a hit; a backend forward is a miss.
    async fn stat_counted(self: Rc<Self>, path: String) -> StatResult {
        let t0 = self.handle.now();
        let r = Rc::clone(&self.meta).stat(path).await;
        match r.source {
            StatSource::Backend => self.stat_misses.inc(),
            _ => self.stat_hits.inc(),
        }
        self.stat_ns.record_duration(self.handle.now().since(t0));
        r
    }

    /// Whether the degradation ladder currently has this client stepped
    /// down (tests and the overload bench read this).
    pub fn is_degraded(&self) -> bool {
        self.degraded.get()
    }

    /// Roll the re-admission die: `true` = this degraded read probes the
    /// bank. xorshift64 on client-local state — deterministic, and
    /// de-synchronised across clients by the per-client seed.
    fn roll_readmit(&self) -> bool {
        let p = self.ladder.map(|l| l.probe_probability).unwrap_or_default();
        let mut x = self.ladder_rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.ladder_rng.set(x);
        ((x >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl MetricSource for CmCache {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        snap.set_gauge(prefixed(prefix, "degraded"), self.degraded.get() as i64);
        self.meta.collect(&prefixed(prefix, "meta"), snap);
        self.bank.collect(&prefixed(prefix, "bank"), snap);
    }
}

impl MetaCache for CmCache {
    fn stat(self: Rc<Self>, path: String) -> StatFuture {
        Box::pin(self.stat_counted(path))
    }

    /// Batched lookups bypass the per-op FUSE crossing entirely —
    /// readdirplus-style: the workload hands CMCache a directory window
    /// and gets every stat back in one engine pass.
    fn stat_multi(self: Rc<Self>, paths: Vec<String>) -> StatMultiFuture {
        Box::pin(async move {
            let t0 = self.handle.now();
            let rs = Rc::clone(&self.meta).stat_multi(paths).await;
            for r in &rs {
                match r.source {
                    StatSource::Backend => self.stat_misses.inc(),
                    _ => self.stat_hits.inc(),
                }
            }
            self.stat_ns.record_duration(self.handle.now().since(t0));
            rs
        })
    }
}

impl Translator for CmCache {
    fn name(&self) -> &'static str {
        "imca/cmcache"
    }

    fn handle(self: Rc<Self>, fop: Fop) -> imca_glusterfs::FopFuture {
        Box::pin(async move {
            match fop {
                Fop::Stat { path } => {
                    let r = Rc::clone(&self).stat_counted(path).await;
                    FopReply::Stat(r.stat)
                }
                Fop::Read { path, offset, len } => {
                    if len == 0 {
                        return FopReply::Read(Ok(Vec::new()));
                    }
                    let t0 = self.handle.now();
                    // Degradation ladder: while stepped down, reads skip
                    // the bank entirely and go straight to GlusterFS — no
                    // MCD round-trips added to an already-overloaded bank.
                    // A random `probe_probability` fraction of reads
                    // still probe the bank; one clean probe re-admits.
                    let probing = if self.ladder.is_some() && self.degraded.get() {
                        if !self.roll_readmit() {
                            self.degraded_reads.inc();
                            self.read_misses.inc();
                            let reply = Rc::clone(&self.child)
                                .handle(Fop::Read { path, offset, len })
                                .await;
                            self.read_ns.record_duration(self.handle.now().since(t0));
                            return reply;
                        }
                        true
                    } else {
                        false
                    };
                    let sheds0 = self.bank.busy_shed_count();
                    let blocks = cover(offset, len, self.block_size);
                    // Fetch every covering block from the bank: batched as
                    // one multi-get per routed daemon, or (ablation) as
                    // one RPC per block in parallel.
                    let fetched: Vec<Option<bytes::Bytes>> = if self.batched {
                        let keys: Vec<(Vec<u8>, Option<u64>)> = blocks
                            .iter()
                            .map(|b| (block_key(&path, b.start), Some(b.index)))
                            .collect();
                        self.bank.get_multi(&keys).await
                    } else {
                        let futs: Vec<_> = blocks
                            .iter()
                            .map(|b| {
                                let bank = Rc::clone(&self.bank);
                                let key = block_key(&path, b.start);
                                let hint = b.index;
                                async move { bank.get(&key, Some(hint)).await }
                            })
                            .collect();
                        join_all(&self.handle, futs).await
                    };
                    // Step the ladder on what this round observed. The
                    // shed counter is client-wide, so a concurrent read's
                    // shed can be attributed to this one — over-detection
                    // only steps down earlier, which is the safe direction.
                    if self.ladder.is_some() {
                        if self.bank.busy_shed_count() > sheds0 {
                            self.degraded.set(true);
                        } else if probing {
                            self.degraded.set(false);
                            self.readmissions.inc();
                        }
                    }
                    if fetched.iter().all(|f| f.is_some()) {
                        let owned: Vec<(u64, bytes::Bytes)> = blocks
                            .iter()
                            .zip(&fetched)
                            .map(|(b, f)| (b.start, f.clone().expect("checked Some")))
                            .collect();
                        let refs: Vec<(u64, &[u8])> =
                            owned.iter().map(|(s, d)| (*s, d.as_ref())).collect();
                        if let Some(data) = assemble(offset, len, self.block_size, &refs) {
                            self.read_hits.inc();
                            self.read_ns.record_duration(self.handle.now().since(t0));
                            return FopReply::Read(Ok(data));
                        }
                    }
                    // "The cost of a miss is more expensive in the case of
                    // IMCa, since it includes one or more round-trips to
                    // the MCD, before determining that there might be a
                    // miss" — we already paid those; now pay the server.
                    self.read_misses.inc();
                    let reply = Rc::clone(&self.child)
                        .handle(Fop::Read { path, offset, len })
                        .await;
                    self.read_ns.record_duration(self.handle.now().since(t0));
                    reply
                }
                // Everything else passes straight through.
                other => Rc::clone(&self.child).handle(other).await,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::stat_key;
    use crate::mcd::{Bank, BankClient, McdCosts};
    use crate::meta::MetaConfig;
    use bytes::Bytes;
    use imca_fabric::{Network, Transport};
    use imca_glusterfs::FileStat;
    use imca_memcached::McConfig;
    use imca_sim::{Sim, SimDuration};
    use std::cell::RefCell as StdRefCell;

    /// A child translator that records what reached the server side.
    struct Recorder {
        log: StdRefCell<Vec<Fop>>,
        file: Vec<u8>,
    }

    impl Translator for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn handle(self: Rc<Self>, fop: Fop) -> imca_glusterfs::FopFuture {
            self.log.borrow_mut().push(fop.clone());
            Box::pin(async move {
                match fop {
                    Fop::Stat { .. } => FopReply::Stat(Ok(FileStat {
                        size: self.file.len() as u64,
                        mtime_ns: 5,
                        ctime_ns: 5,
                    })),
                    Fop::Read { offset, len, .. } => {
                        let s = (offset as usize).min(self.file.len());
                        let e = ((offset + len) as usize).min(self.file.len());
                        FopReply::Read(Ok(self.file[s..e].to_vec()))
                    }
                    _ => FopReply::Close(Ok(())),
                }
            })
        }
    }

    fn setup(
        sim: &Sim,
        file: Vec<u8>,
        bs: u64,
        batched: bool,
    ) -> (Rc<CmCache>, Rc<Recorder>, Rc<BankClient>) {
        setup_with_meta(sim, file, bs, batched, MetaConfig::default())
    }

    fn setup_with_meta(
        sim: &Sim,
        file: Vec<u8>,
        bs: u64,
        batched: bool,
        meta: MetaConfig,
    ) -> (Rc<CmCache>, Rc<Recorder>, Rc<BankClient>) {
        let cfg = ImcaConfig {
            block_size: bs,
            batching: batched,
            mcd_count: 2,
            mcd_config: McConfig::default(),
            meta,
            ..ImcaConfig::default()
        };
        rig(sim, file, &cfg)
    }

    /// A rig with daemon-side admission control and the client ladder on.
    fn setup_overload(
        sim: &Sim,
        file: Vec<u8>,
        costs: McdCosts,
        ladder: DegradationLadder,
    ) -> (Rc<CmCache>, Rc<Recorder>, Rc<BankClient>) {
        let cfg = ImcaConfig {
            mcd_config: McConfig::default(),
            mcd_costs: costs,
            ladder: Some(ladder),
            ..ImcaConfig::default()
        };
        rig(sim, file, &cfg)
    }

    /// The bank and one CMCache over a recording child, as `cfg`
    /// describes them.
    fn rig(
        sim: &Sim,
        file: Vec<u8>,
        cfg: &ImcaConfig,
    ) -> (Rc<CmCache>, Rc<Recorder>, Rc<BankClient>) {
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let mcds = Bank::start(&net, cfg.mcd_count, &cfg.mcd_config, &cfg.mcd_costs);
        let bank = Rc::new(mcds.client(net.add_node(), cfg, cfg.retry.clone()));
        let rec = Rc::new(Recorder {
            log: StdRefCell::new(Vec::new()),
            file,
        });
        let cm = CmCache::new(
            sim.handle(),
            Rc::clone(&rec) as Xlator,
            Rc::clone(&bank),
            cfg,
            0,
        );
        // Leak the bank into a task so the daemon actors stay alive.
        sim.handle().spawn(async move {
            let _keepalive = mcds;
            std::future::pending::<()>().await;
        });
        (cm, rec, bank)
    }

    #[test]
    fn degraded_reads_skip_the_bank_entirely() {
        let mut sim = Sim::new(0);
        // queue_limit 0: the daemon sheds every read, unconditionally.
        // probe_probability 0: once degraded, the client never probes.
        let (cm, rec, bank) = setup_overload(
            &sim,
            vec![7u8; 2048],
            McdCosts {
                queue_limit: Some(0),
                ..McdCosts::default()
            },
            DegradationLadder {
                probe_probability: 0.0,
            },
        );
        let cm2 = Rc::clone(&cm);
        sim.spawn(async move {
            for _ in 0..4 {
                let FopReply::Read(Ok(data)) = Rc::clone(&(cm2.clone() as Xlator))
                    .handle(Fop::Read {
                        path: "/f".into(),
                        offset: 0,
                        len: 2048,
                    })
                    .await
                else {
                    panic!()
                };
                assert_eq!(data, vec![7u8; 2048]);
            }
        });
        sim.run();
        // Read 1 paid the shed bank round and stepped the ladder down;
        // reads 2-4 went straight to the server without a bank RPC.
        assert!(cm.is_degraded());
        assert_eq!(rec.log.borrow().len(), 4, "every read forwarded");
        assert_eq!(
            bank.stats().gets,
            1,
            "degraded reads must not touch the bank"
        );
        let snap = imca_metrics::collect_from(&*cm, "cmcache");
        assert_eq!(snap.counter("cmcache.degraded_reads"), Some(3));
        assert_eq!(snap.counter("cmcache.readmissions"), Some(0));
        assert_eq!(snap.gauge("cmcache.degraded"), Some(1));
        assert_eq!(cm.stats().read_misses, 4);
    }

    #[test]
    fn ladder_steps_down_on_sheds_and_probes_back_up() {
        let mut sim = Sim::new(0);
        // Transient overload: a 1-deep queue on a slow daemon sheds only
        // under concurrency. probe_probability 1 probes every time.
        let file: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let (cm, _rec, bank) = setup_overload(
            &sim,
            file.clone(),
            McdCosts {
                per_op: SimDuration::micros(300),
                queue_limit: Some(1),
                ..McdCosts::default()
            },
            DegradationLadder {
                probe_probability: 1.0,
            },
        );
        let cm2 = Rc::clone(&cm);
        let h = sim.handle();
        sim.spawn(async move {
            // Seed both blocks as SMCache would.
            for b in 0..2u64 {
                let s = (b * 2048) as usize;
                bank.set(
                    &block_key("/f", b * 2048),
                    Bytes::from(file[s..s + 2048].to_vec()),
                    Some(b),
                )
                .await;
            }
            // Two concurrent reads of different blocks: one occupies the
            // daemon's queue slot, the other is shed → the ladder steps
            // down.
            let futs: Vec<_> = (0..2u64)
                .map(|b| {
                    let cm = Rc::clone(&cm2) as Xlator;
                    async move {
                        cm.handle(Fop::Read {
                            path: "/f".into(),
                            offset: b * 2048,
                            len: 2048,
                        })
                        .await
                    }
                })
                .collect();
            imca_sim::join_all(&h, futs).await;
            assert!(cm2.is_degraded(), "shed round must step the ladder down");
            // The overload is gone (no concurrency). The next read is a
            // re-admission probe: it reaches the bank, comes back clean,
            // and the ladder steps back up — with a warm hit to show for it.
            let FopReply::Read(Ok(data)) = Rc::clone(&(cm2.clone() as Xlator))
                .handle(Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 2048,
                })
                .await
            else {
                panic!()
            };
            assert_eq!(data, file[..2048].to_vec());
            assert!(!cm2.is_degraded(), "clean probe must re-admit");
        });
        sim.run();
        let snap = imca_metrics::collect_from(&*cm, "cmcache");
        assert_eq!(snap.counter("cmcache.readmissions"), Some(1));
        assert_eq!(snap.gauge("cmcache.degraded"), Some(0));
    }

    #[test]
    fn stat_hit_skips_the_server() {
        let mut sim = Sim::new(0);
        let (cm, rec, bank) = setup(&sim, vec![0; 100], 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.spawn(async move {
            // Seed the bank the way SMCache would.
            let st = FileStat {
                size: 100,
                mtime_ns: 9,
                ctime_ns: 9,
            };
            bank.set(&stat_key("/f"), Bytes::from(st.to_bytes()), None)
                .await;
            let FopReply::Stat(Ok(got)) = Rc::clone(&(cm2 as Xlator))
                .handle(Fop::Stat { path: "/f".into() })
                .await
            else {
                panic!()
            };
            assert_eq!(got, st);
        });
        sim.run();
        assert!(rec.log.borrow().is_empty(), "server was contacted on a hit");
        assert_eq!(cm.stats().stat_hits, 1);
    }

    #[test]
    fn stat_miss_propagates() {
        let mut sim = Sim::new(0);
        let (cm, rec, _bank) = setup(&sim, vec![0; 100], 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.spawn(async move {
            let FopReply::Stat(Ok(st)) = Rc::clone(&(cm2 as Xlator))
                .handle(Fop::Stat { path: "/f".into() })
                .await
            else {
                panic!()
            };
            assert_eq!(st.size, 100);
        });
        sim.run();
        assert_eq!(rec.log.borrow().len(), 1);
        assert_eq!(cm.stats().stat_misses, 1);
    }

    #[test]
    fn read_hit_assembles_from_blocks() {
        let mut sim = Sim::new(0);
        let file: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        let (cm, rec, bank) = setup(&sim, file.clone(), 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.spawn(async move {
            // Seed blocks 0..4 as SMCache would.
            for b in 0..4u64 {
                let s = (b * 2048) as usize;
                bank.set(
                    &block_key("/f", b * 2048),
                    Bytes::from(file[s..s + 2048].to_vec()),
                    Some(b),
                )
                .await;
            }
            // Unaligned read straddling blocks 1 and 2.
            let FopReply::Read(Ok(data)) = Rc::clone(&(cm2 as Xlator))
                .handle(Fop::Read {
                    path: "/f".into(),
                    offset: 3000,
                    len: 2000,
                })
                .await
            else {
                panic!()
            };
            assert_eq!(data, file[3000..5000].to_vec());
        });
        sim.run();
        assert!(rec.log.borrow().is_empty());
        assert_eq!(cm.stats().read_hits, 1);
    }

    fn miss_forwards_whole_read(batched: bool) {
        let mut sim = Sim::new(0);
        let file: Vec<u8> = vec![7; 8192];
        let (cm, rec, bank) = setup(&sim, file.clone(), 2048, batched);
        let cm2 = Rc::clone(&cm);
        sim.spawn(async move {
            // Seed only the first of the two covering blocks.
            bank.set(
                &block_key("/f", 2048),
                Bytes::from(file[2048..4096].to_vec()),
                Some(1),
            )
            .await;
            let FopReply::Read(Ok(data)) = Rc::clone(&(cm2 as Xlator))
                .handle(Fop::Read {
                    path: "/f".into(),
                    offset: 3000,
                    len: 2000,
                })
                .await
            else {
                panic!()
            };
            assert_eq!(data.len(), 2000);
        });
        sim.run();
        assert_eq!(rec.log.borrow().len(), 1, "read must reach the server");
        assert_eq!(cm.stats().read_misses, 1);
    }

    #[test]
    fn any_block_miss_forwards_whole_read() {
        miss_forwards_whole_read(true);
    }

    #[test]
    fn any_block_miss_forwards_whole_read_per_key() {
        miss_forwards_whole_read(false);
    }

    /// Under the lease policy, the second stat never reaches the bank or
    /// the server — and the translator still counts it as a stat hit.
    #[test]
    fn leased_stat_counts_as_hit_without_touching_the_server() {
        let mut sim = Sim::new(0);
        let (cm, rec, _bank) = setup_with_meta(&sim, vec![0; 100], 2048, true, MetaConfig::lease());
        let cm2 = Rc::clone(&cm);
        sim.spawn(async move {
            for _ in 0..3 {
                let FopReply::Stat(Ok(st)) = Rc::clone(&(Rc::clone(&cm2) as Xlator))
                    .handle(Fop::Stat { path: "/f".into() })
                    .await
                else {
                    panic!()
                };
                assert_eq!(st.size, 100);
            }
        });
        sim.run();
        assert_eq!(rec.log.borrow().len(), 1, "only the fill may forward");
        let s = cm.stats();
        assert_eq!((s.stat_misses, s.stat_hits), (1, 2));
    }

    /// `stat_multi` on the translator: provenance-visible, counted, and
    /// one engine pass for the whole directory window.
    #[test]
    fn stat_multi_counts_hits_and_misses() {
        let mut sim = Sim::new(0);
        let (cm, _rec, bank) =
            setup_with_meta(&sim, vec![0; 100], 2048, true, MetaConfig::default());
        let cm2 = Rc::clone(&cm);
        sim.spawn(async move {
            let st = FileStat {
                size: 7,
                mtime_ns: 1,
                ctime_ns: 1,
            };
            bank.set(&stat_key("/d/b"), Bytes::from(st.to_bytes()), None)
                .await;
            let rs = Rc::clone(&cm2)
                .stat_multi(vec!["/d/a".into(), "/d/b".into()])
                .await;
            assert_eq!(rs[0].source, StatSource::Backend);
            assert_eq!(rs[1].source, StatSource::Bank);
        });
        sim.run();
        let s = cm.stats();
        assert_eq!((s.stat_hits, s.stat_misses), (1, 1));
    }

    #[test]
    fn writes_are_not_intercepted() {
        let mut sim = Sim::new(0);
        let (cm, rec, _bank) = setup(&sim, vec![], 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.spawn(async move {
            Rc::clone(&(cm2 as Xlator))
                .handle(Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![1, 2, 3],
                })
                .await;
        });
        sim.run();
        assert_eq!(rec.log.borrow().len(), 1);
        let s = cm.stats();
        assert_eq!((s.read_hits, s.read_misses, s.stat_hits), (0, 0, 0));
    }

    #[test]
    fn zero_length_read_short_circuits() {
        let mut sim = Sim::new(0);
        let (cm, rec, _bank) = setup(&sim, vec![1; 100], 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.spawn(async move {
            let FopReply::Read(Ok(data)) = Rc::clone(&(cm2 as Xlator))
                .handle(Fop::Read {
                    path: "/f".into(),
                    offset: 50,
                    len: 0,
                })
                .await
            else {
                panic!()
            };
            assert!(data.is_empty());
        });
        sim.run();
        assert!(rec.log.borrow().is_empty());
    }
}

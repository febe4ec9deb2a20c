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
//!   blocksize"), fetch them from the MCDs
//!   ([`BankClient::fetch_blocks`], which alone knows whether they travel
//!   as one multi-key `get` per routed daemon or, for the batching
//!   ablation, one RPC per block as the paper's client does it), and
//!   assemble. Either way, "if there is a miss for any one of the keys,
//!   CMCache will forward the Read request to the GlusterFS server" —
//!   making cold misses strictly more expensive than NoCache (§4.4).
//! * **write / create / delete / open / close**: not intercepted (§4.2,
//!   §4.3.2); they flow straight to the server.
//!
//! Replication (DESIGN.md §4d) is transparent at this layer: the bank
//! client routes each GET to one of the key's replicas (power-of-two-
//! choices on observed load, warm failover past dead daemons), so
//! CMCache's hit and miss semantics — and the "any block miss forwards
//! the read" rule — are byte-identical at every replication factor.
//!
//! Write coherence (DESIGN.md §4f) is likewise invisible here: writes
//! pass through untouched either way, and the server-side SMCache
//! decides whether a write's covering blocks are CAS-replaced in place
//! (the default — this cache's post-write reads stay bank hits) or
//! purged and repushed (the paper's protocol, whose cold window shows
//! up here as post-write `read_misses`).

use std::rc::Rc;

use imca_glusterfs::{Fop, FopReply, Translator, Xlator};
use imca_metrics::{prefixed, Counter, Histogram, MetricSource, Registry, Snapshot};
use imca_sim::{SimHandle, SimTime};

use crate::block::{assemble, cover};
use crate::cluster::ImcaConfig;
use crate::keys::block_key;
use crate::mcd::BankClient;
use crate::meta::{MetaEngine, StatResult, StatSource};

/// The CMCache translator.
pub struct CmCache {
    child: Xlator,
    bank: Rc<BankClient>,
    meta: Rc<MetaEngine>,
    block_size: u64,
    registry: Registry,
    stat_hits: Counter,
    stat_misses: Counter,
    read_hits: Counter,
    read_misses: Counter,
    /// Client-observed stat / read latency through this translator,
    /// virtual ns.
    stat_ns: Histogram,
    read_ns: Histogram,
    handle: SimHandle,
}

impl CmCache {
    /// Stack CMCache above `child` (normally `protocol/client`), talking
    /// to `bank`, the way `cfg` describes the deployment: `block_size`
    /// cuts reads into covering blocks and `meta` picks the stat policy
    /// (see `crate::meta`).
    pub fn new(
        handle: SimHandle,
        child: Xlator,
        bank: Rc<BankClient>,
        cfg: &ImcaConfig,
    ) -> Rc<CmCache> {
        let block_size = cfg.block_size;
        assert!(block_size > 0, "IMCa block size must be positive");
        let registry = Registry::new();
        // The degradation ladder is deleted (EXPERIMENTS.md A12); the
        // benchmark baseline still counts its three series.
        registry.counter("degraded_reads"); // constant 0, leaves with the next re-baseline
        registry.counter("readmissions"); // constant 0, leaves with the next re-baseline
        registry.gauge("degraded"); // constant 0, leaves with the next re-baseline
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
            stat_hits: registry.counter("stat_hits"),
            stat_misses: registry.counter("stat_misses"),
            read_hits: registry.counter("read_hits"),
            read_misses: registry.counter("read_misses"),
            stat_ns: registry.histogram("stat_ns"),
            read_ns: registry.histogram("read_ns"),
            registry,
            handle,
        })
    }

    /// The bank this translator reads from.
    pub fn bank(&self) -> &Rc<BankClient> {
        &self.bank
    }

    /// The metadata engine behind this translator's stat path.
    pub fn meta(&self) -> &Rc<MetaEngine> {
        &self.meta
    }

    /// Count each answer by provenance — anything answered without the
    /// server (lease, bank, negative) is a hit; a backend forward is a
    /// miss — and the engine pass that produced them as one latency.
    fn count_stats(&self, t0: SimTime, answers: &[StatResult]) {
        for r in answers {
            match r.source {
                StatSource::Backend => self.stat_misses.inc(),
                _ => self.stat_hits.inc(),
            }
        }
        self.stat_ns.record_duration(self.handle.now().since(t0));
    }

    /// One stat through the metadata tier, provenance-visible and with
    /// this translator's hit/miss accounting.
    pub async fn stat(&self, path: String) -> StatResult {
        let t0 = self.handle.now();
        let r = self.meta.stat(path).await;
        self.count_stats(t0, &[r]);
        r
    }

    /// Batched lookup — the readdir+stat prefetch hook. It bypasses the
    /// per-op FUSE crossing entirely, readdirplus-style: the workload
    /// hands CMCache a directory window and gets every stat back in one
    /// engine pass ([`MetaEngine::stat_multi`]).
    pub async fn stat_multi(&self, paths: Vec<String>) -> Vec<StatResult> {
        let t0 = self.handle.now();
        let rs = self.meta.stat_multi(paths).await;
        self.count_stats(t0, &rs);
        rs
    }
}

impl MetricSource for CmCache {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        self.meta.collect(&prefixed(prefix, "meta"), snap);
        self.bank.collect(&prefixed(prefix, "bank"), snap);
    }
}

impl Translator for CmCache {
    fn name(&self) -> &'static str {
        "imca/cmcache"
    }

    fn handle(self: Rc<Self>, fop: Fop) -> imca_glusterfs::FopFuture {
        Box::pin(async move {
            match fop {
                Fop::Stat { path } => FopReply::Stat(self.stat(path).await.stat),
                Fop::Read { path, offset, len } => {
                    if len == 0 {
                        return FopReply::Read(Ok(Vec::new()));
                    }
                    let t0 = self.handle.now();
                    let blocks = cover(offset, len, self.block_size);
                    let keys = blocks.iter().map(|b| block_key(&path, b.start)).collect();
                    let fetched = self.bank.fetch_blocks(keys).await;
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
    use crate::counters;
    use crate::keys::stat_key;
    use crate::mcd::{Bank, BankClient};
    use crate::meta::MetaConfig;
    use bytes::Bytes;
    use imca_fabric::{Network, Transport};
    use imca_glusterfs::FileStat;
    use imca_memcached::McConfig;
    use imca_sim::Sim;
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
                let stat = FileStat {
                    size: self.file.len() as u64,
                    mtime_ns: 5,
                    ctime_ns: 5,
                };
                match fop {
                    Fop::Stat { .. } => FopReply::Stat(Ok(stat)),
                    Fop::StatMulti { paths } => FopReply::StatMulti(vec![Ok(stat); paths.len()]),
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

    /// The bank and one CMCache over a recording child, as `cfg`
    /// describes them.
    fn rig(
        sim: &Sim,
        file: Vec<u8>,
        cfg: &ImcaConfig,
    ) -> (Rc<CmCache>, Rc<Recorder>, Rc<BankClient>) {
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let mcds = Bank::start(&net, cfg);
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
        );
        // Leak the bank into a task so the daemon actors stay alive.
        sim.handle().spawn(async move {
            let _keepalive = mcds;
            std::future::pending::<()>().await;
        });
        (cm, rec, bank)
    }

    #[test]
    fn stat_hit_skips_the_server() {
        let mut sim = Sim::new(0);
        let (cm, rec, bank) = setup(&sim, vec![0; 100], 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.run_main(async move {
            // Seed the bank the way SMCache would.
            let st = FileStat {
                size: 100,
                mtime_ns: 9,
                ctime_ns: 9,
            };
            bank.set(&stat_key("/f"), Bytes::from(st.to_bytes())).await;
            let FopReply::Stat(Ok(got)) = Rc::clone(&(cm2 as Xlator))
                .handle(Fop::Stat { path: "/f".into() })
                .await
            else {
                panic!()
            };
            assert_eq!(got, st);
        });
        assert!(rec.log.borrow().is_empty(), "server was contacted on a hit");
        assert_eq!(counters(&*cm, ["stat_hits"]), [1]);
    }

    #[test]
    fn stat_miss_propagates() {
        let mut sim = Sim::new(0);
        let (cm, rec, _bank) = setup(&sim, vec![0; 100], 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.run_main(async move {
            let FopReply::Stat(Ok(st)) = Rc::clone(&(cm2 as Xlator))
                .handle(Fop::Stat { path: "/f".into() })
                .await
            else {
                panic!()
            };
            assert_eq!(st.size, 100);
        });
        assert_eq!(rec.log.borrow().len(), 1);
        assert_eq!(counters(&*cm, ["stat_misses"]), [1]);
    }

    #[test]
    fn read_hit_assembles_from_blocks() {
        let mut sim = Sim::new(0);
        let file: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        let (cm, rec, bank) = setup(&sim, file.clone(), 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.run_main(async move {
            // Seed blocks 0..4 as SMCache would.
            for b in 0..4u64 {
                let s = (b * 2048) as usize;
                bank.set(
                    &block_key("/f", b * 2048),
                    Bytes::from(file[s..s + 2048].to_vec()),
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
        assert!(rec.log.borrow().is_empty());
        assert_eq!(counters(&*cm, ["read_hits"]), [1]);
    }

    fn miss_forwards_whole_read(batched: bool) {
        let mut sim = Sim::new(0);
        let file: Vec<u8> = vec![7; 8192];
        let (cm, rec, bank) = setup(&sim, file.clone(), 2048, batched);
        let cm2 = Rc::clone(&cm);
        sim.run_main(async move {
            // Seed only the first of the two covering blocks.
            bank.set(
                &block_key("/f", 2048),
                Bytes::from(file[2048..4096].to_vec()),
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
        assert_eq!(rec.log.borrow().len(), 1, "read must reach the server");
        assert_eq!(counters(&*cm, ["read_misses"]), [1]);
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
        sim.run_main(async move {
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
        assert_eq!(rec.log.borrow().len(), 1, "only the fill may forward");
        assert_eq!(counters(&*cm, ["stat_misses", "stat_hits"]), [1, 2]);
    }

    /// `stat_multi` on the translator: provenance-visible, counted, and
    /// one engine pass for the whole directory window.
    #[test]
    fn stat_multi_counts_hits_and_misses() {
        let mut sim = Sim::new(0);
        let (cm, _rec, bank) =
            setup_with_meta(&sim, vec![0; 100], 2048, true, MetaConfig::default());
        let cm2 = Rc::clone(&cm);
        sim.run_main(async move {
            let st = FileStat {
                size: 7,
                mtime_ns: 1,
                ctime_ns: 1,
            };
            bank.set(&stat_key("/d/b"), Bytes::from(st.to_bytes()))
                .await;
            let rs = Rc::clone(&cm2)
                .stat_multi(vec!["/d/a".into(), "/d/b".into()])
                .await;
            assert_eq!(rs[0].source, StatSource::Backend);
            assert_eq!(rs[1].source, StatSource::Bank);
        });
        assert_eq!(counters(&*cm, ["stat_hits", "stat_misses"]), [1, 1]);
    }

    #[test]
    fn writes_are_not_intercepted() {
        let mut sim = Sim::new(0);
        let (cm, rec, _bank) = setup(&sim, vec![], 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.run_main(async move {
            Rc::clone(&(cm2 as Xlator))
                .handle(Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![1, 2, 3],
                })
                .await;
        });
        assert_eq!(rec.log.borrow().len(), 1);
        assert_eq!(
            counters(&*cm, ["read_hits", "read_misses", "stat_hits"]),
            [0, 0, 0]
        );
    }

    #[test]
    fn zero_length_read_short_circuits() {
        let mut sim = Sim::new(0);
        let (cm, rec, _bank) = setup(&sim, vec![1; 100], 2048, true);
        let cm2 = Rc::clone(&cm);
        sim.run_main(async move {
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
        assert!(rec.log.borrow().is_empty());
    }
}

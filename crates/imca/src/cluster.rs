//! Whole-deployment builder: GlusterFS server + MCD bank + clients, wired
//! the way Fig 2 draws it. This is the entry point used by the examples,
//! the integration tests, and every benchmark harness.

use std::cell::RefCell;
use std::rc::Rc;

use imca_fabric::{Daemon, FaultPlan, Network, NodeId, Service, Transport};
use imca_glusterfs::{
    start_server, ClientProtocol, Fop, FopReply, FuseBridge, GlusterMount, IoCache, Posix,
    ReadAhead, ServerParams, WriteBehind, Xlator,
};
use imca_memcached::{McConfig, Selector};
use imca_metrics::{prefixed, Counter, MetricSource, Registry, Snapshot};
use imca_sim::{SimDuration, SimHandle};
use imca_storage::{BackendParams, StorageBackend, StorageFaultPlan};

use crate::block::DEFAULT_BLOCK_SIZE;
use crate::cmcache::CmCache;
use crate::mcd::{Bank, McdCosts, McdNode, Replication, RetryPolicy};
use crate::meta::{serve_revocations, LeaseAck, LeaseHub, LeaseRevoke, MetaConfig, MetaPolicy};
use crate::smcache::{Coherence, RewarmLimit, SmCache};

/// IMCa-layer configuration (§5.1 defaults).
#[derive(Debug, Clone)]
pub struct ImcaConfig {
    /// Fixed cache block size; 2 KB in most of the paper's experiments.
    pub block_size: u64,
    /// Key→MCD placement (CRC-32 default; modulo for the IOzone run).
    pub selector: Selector,
    /// Move server-side MCD updates to a background thread (§4.3.2).
    pub threaded_updates: bool,
    /// Batch the bank data path: multi-key `get`s on the client read path,
    /// and one frame per daemon for each server-side push, purge and CAS
    /// wave. On by default; off reverts to one awaited RPC
    /// per key (the ablation baseline). Read by the bank client alone
    /// (`BankClient`'s five bulk operations); metadata lookups are
    /// batched either way.
    pub batching: bool,
    /// Number of MemCached daemons in the bank.
    pub mcd_count: usize,
    /// Per-daemon configuration (memory limit etc.).
    pub mcd_config: McConfig,
    /// Per-daemon service-time model.
    pub mcd_costs: McdCosts,
    /// The transport the bank's daemons are placed on, so every request
    /// and reply of the bank travels on it (the RDMA ablation); `None`
    /// leaves them on the fabric's.
    pub bank_transport: Option<Transport>,
    /// Per-RPC deadline / retry / circuit policy for every bank client —
    /// static: one deadline per attempt, a fixed retry count. Defaults
    /// are generous enough that a healthy deployment never trips them;
    /// fault-injection tests and benches tighten them (EXPERIMENTS.md A3).
    pub retry: RetryPolicy,
    /// Optional separate policy for the server-side SMCache client. The
    /// updater sends frames of many stores whose answer legitimately
    /// waits for every one of them, so it usually wants a much longer
    /// deadline than the client-side read path — a read-tuned deadline
    /// here falsely fails healthy frames and quarantines daemons. `None`
    /// = same as `retry`.
    pub server_retry: Option<RetryPolicy>,
    /// Replica placement for bank entries (DESIGN.md §4d): `factor`
    /// daemons per key, write/purge fan-out, P2C read spreading, and warm
    /// read failover. The default factor 1 is the paper's single-home
    /// bank.
    pub replication: Replication,
    /// Write-coherence protocol (DESIGN.md §4f). The default
    /// [`Coherence::Cas`] replaces a write's covering blocks in place
    /// via versioned CAS stores, keeping replicas warm across writes;
    /// [`Coherence::Purge`] is the paper's delete-then-repush protocol,
    /// kept as the ablation baseline.
    pub coherence: Coherence,
    /// Metadata-tier policy (stat leases, negative caching, batched
    /// lookups — see `crate::meta`). The default reproduces the paper's
    /// bank round-trip stat path; [`MetaConfig::lease`] turns on the
    /// full tier; [`MetaConfig::nocache`] is the stat-path ablation
    /// baseline on an otherwise unchanged IMCa deployment.
    pub meta: MetaConfig,
    /// Server-side read-path rewarm throttle (DESIGN.md §8): bounds how
    /// fast read-path fills repopulate the bank. With
    /// [`McdCosts::queue_limit`] it is the overload-protection layer —
    /// the two work only as a pair (EXPERIMENTS.md A12). `None`
    /// (default) is unlimited.
    pub rewarm: Option<RewarmLimit>,
}

impl Default for ImcaConfig {
    fn default() -> ImcaConfig {
        ImcaConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            selector: Selector::Crc32,
            threaded_updates: false,
            batching: true,
            mcd_count: 1,
            mcd_config: McConfig::paper_mcd(),
            mcd_costs: McdCosts::default(),
            bank_transport: None,
            retry: RetryPolicy::default(),
            server_retry: None,
            replication: Replication::default(),
            coherence: Coherence::default(),
            meta: MetaConfig::default(),
            rewarm: None,
        }
    }
}

impl ImcaConfig {
    /// `n` daemons, other settings at paper defaults.
    pub fn with_mcds(n: usize) -> ImcaConfig {
        ImcaConfig {
            mcd_count: n,
            ..ImcaConfig::default()
        }
    }
}

/// Full-deployment configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fabric transport between all components (IPoIB-RC in the paper).
    pub transport: Transport,
    /// GlusterFS server processing parameters.
    pub server_params: ServerParams,
    /// Server storage (RAID + page cache).
    pub backend: BackendParams,
    /// `Some` = IMCa deployment; `None` = the paper's "NoCache" GlusterFS.
    pub imca: Option<ImcaConfig>,
    /// Stack GlusterFS's io-cache translator on each client
    /// (`IO_CACHE_BYTES`, revalidated after `IO_CACHE_TIMEOUT`). Off
    /// in every paper configuration; used by the client-cache ablation.
    pub client_io_cache: bool,
    /// Stack the read-ahead translator on each client
    /// (`READ_AHEAD_WINDOW`). Off in the paper's configuration.
    pub client_read_ahead: bool,
    /// Stack the write-behind translator on each client
    /// (`WRITE_BEHIND_WINDOW`). Off in the paper's configuration.
    pub client_write_behind: bool,
}

/// Capacity of a client's io-cache translator.
const IO_CACHE_BYTES: u64 = 256 << 20;
/// How long an io-cache entry is served before it is revalidated.
const IO_CACHE_TIMEOUT: SimDuration = SimDuration::secs(1);
/// Prefetch window of a client's read-ahead translator.
const READ_AHEAD_WINDOW: u64 = 128 << 10;
/// Aggregation window of a client's write-behind translator.
const WRITE_BEHIND_WINDOW: usize = 64 << 10;

impl ClusterConfig {
    /// The paper's native GlusterFS baseline (legend *NoCache*).
    pub fn nocache() -> ClusterConfig {
        ClusterConfig {
            transport: Transport::ipoib_ddr(),
            server_params: ServerParams::default(),
            backend: BackendParams::paper_server(),
            imca: None,
            client_io_cache: false,
            client_read_ahead: false,
            client_write_behind: false,
        }
    }

    /// GlusterFS with the IMCa layer (legend *MCD (x)*).
    pub fn imca(cfg: ImcaConfig) -> ClusterConfig {
        ClusterConfig {
            imca: Some(cfg),
            ..ClusterConfig::nocache()
        }
    }
}

/// A built deployment.
pub struct Cluster {
    handle: SimHandle,
    net: Network,
    svc: Service<Fop, FopReply>,
    bank: Option<Bank>,
    smcache: Option<Rc<SmCache>>,
    /// Server-side lease revocation fan-out; `Some` only under
    /// [`MetaPolicy::Lease`]. Every mounted client registers its
    /// revocation endpoint here.
    lease_hub: Option<Rc<LeaseHub>>,
    posix: Rc<Posix>,
    backend: StorageBackend,
    cfg: ClusterConfig,
    cmcaches: RefCell<Vec<Rc<CmCache>>>,
    io_caches: RefCell<Vec<Rc<IoCache>>>,
    read_aheads: RefCell<Vec<Rc<ReadAhead>>>,
    write_behinds: RefCell<Vec<Rc<WriteBehind>>>,
    server_node: NodeId,
    /// The GlusterFS server daemon: crashed and restarted through
    /// [`Cluster::crash_server`] and [`Cluster::restart_server`].
    server: Daemon,
    server_registry: Registry,
    server_crashes: Counter,
    server_restarts: Counter,
}

/// The IMCa-only pieces of a freshly built server stack, `None`s for a
/// NoCache deployment.
type ServerStack = (
    Option<Bank>,
    Option<Rc<SmCache>>,
    Option<Rc<LeaseHub>>,
    Xlator,
);

impl Cluster {
    /// Build a deployment on a fresh network.
    pub fn build(handle: SimHandle, cfg: ClusterConfig) -> Cluster {
        let net = Network::new(handle.clone(), cfg.transport.clone());
        let server_node = net.add_node();
        let backend = StorageBackend::new(handle.clone(), cfg.backend.clone());
        let posix = Posix::new(backend.clone());

        let (bank, smcache, lease_hub, server_child): ServerStack = match &cfg.imca {
            Some(imca) => {
                let bank = Bank::start(&net, imca);
                let server_retry = imca.server_retry.as_ref().unwrap_or(&imca.retry);
                let client = Rc::new(bank.client(server_node, imca, server_retry.clone()));
                let hub =
                    (imca.meta.policy == MetaPolicy::Lease).then(|| LeaseHub::new(handle.clone()));
                let sm = SmCache::new(
                    handle.clone(),
                    Rc::clone(&posix) as Xlator,
                    client,
                    imca,
                    hub.clone(),
                );
                (Some(bank), Some(Rc::clone(&sm)), hub, sm as Xlator)
            }
            None => (None, None, None, Rc::clone(&posix) as Xlator),
        };

        let (svc, server) =
            start_server(&net, server_node, server_child, cfg.server_params.clone());
        let server_registry = Registry::new();
        Cluster {
            handle,
            net,
            svc,
            bank,
            smcache,
            lease_hub,
            posix,
            backend,
            cfg,
            cmcaches: RefCell::new(Vec::new()),
            io_caches: RefCell::new(Vec::new()),
            read_aheads: RefCell::new(Vec::new()),
            write_behinds: RefCell::new(Vec::new()),
            server_node,
            server,
            server_crashes: server_registry.counter("crashes"),
            server_restarts: server_registry.counter("restarts"),
            server_registry,
        }
    }

    /// Mount a new client on its own fabric node:
    /// `GlusterMount → FuseBridge → [CMCache] → protocol/client`.
    pub fn mount(&self) -> Rc<GlusterMount> {
        self.mount_with_meta().0
    }

    /// [`Cluster::mount`], also returning the client's CMCache (`None`
    /// on NoCache deployments). The CMCache is the client's metadata
    /// surface — workloads use it for `stat_multi` (readdirplus-style
    /// batched lookups that skip the per-op FUSE crossing) and for
    /// provenance-visible stats.
    pub fn mount_with_meta(&self) -> (Rc<GlusterMount>, Option<Rc<CmCache>>) {
        let client_node = self.net.add_node();
        let proto = ClientProtocol::connect(&self.svc, client_node) as Xlator;
        let mut mounted_cm = None;
        let stack: Xlator = match &self.cfg.imca {
            Some(imca) => {
                let bank = self.bank.as_ref().expect("imca config implies a bank");
                let bank = Rc::new(bank.client(client_node, imca, imca.retry.clone()));
                let cm = CmCache::new(self.handle.clone(), proto, bank, imca);
                if let Some(hub) = &self.lease_hub {
                    // The client's revocation endpoint: SMCache's purge /
                    // stat-refresh fan-out revokes through it before any
                    // bank entry changes.
                    let svc: Service<LeaseRevoke, LeaseAck> = Service::bind(&self.net, client_node);
                    serve_revocations(cm.meta(), &svc);
                    hub.register(svc.client(self.server_node));
                }
                self.cmcaches.borrow_mut().push(Rc::clone(&cm));
                mounted_cm = Some(Rc::clone(&cm));
                cm as Xlator
            }
            None => proto,
        };
        let stack = if self.cfg.client_io_cache {
            let ioc = IoCache::new(self.handle.clone(), stack, IO_CACHE_BYTES, IO_CACHE_TIMEOUT);
            self.io_caches.borrow_mut().push(Rc::clone(&ioc));
            ioc as Xlator
        } else {
            stack
        };
        let stack = if self.cfg.client_read_ahead {
            let ra = ReadAhead::new(stack, READ_AHEAD_WINDOW);
            self.read_aheads.borrow_mut().push(Rc::clone(&ra));
            ra as Xlator
        } else {
            stack
        };
        let stack = if self.cfg.client_write_behind {
            let wb = WriteBehind::new(stack, WRITE_BEHIND_WINDOW);
            self.write_behinds.borrow_mut().push(Rc::clone(&wb));
            wb as Xlator
        } else {
            stack
        };
        let fuse = FuseBridge::new(self.handle.clone(), stack);
        (GlusterMount::new(fuse as Xlator), mounted_cm)
    }

    /// The MCD bank handle (`None` for NoCache deployments).
    pub fn bank(&self) -> Option<&Bank> {
        self.bank.as_ref()
    }

    /// The bank's daemons (empty for NoCache deployments).
    pub fn mcds(&self) -> &[McdNode] {
        self.bank.as_ref().map(|b| b.nodes()).unwrap_or(&[])
    }

    /// Kill bank daemon `i` (failover experiments, §4.4).
    pub fn kill_mcd(&self, i: usize) {
        self.bank
            .as_ref()
            .expect("no bank in this deployment")
            .kill(i);
    }

    /// Revive bank daemon `i` (restarts empty).
    pub fn revive_mcd(&self, i: usize) {
        self.bank
            .as_ref()
            .expect("no bank in this deployment")
            .revive(i);
    }

    /// Sever bank daemon `i` from every other node (a network partition,
    /// not a crash: the daemon keeps its memory and its `alive` flag).
    /// Undo with [`Cluster::heal_mcd`].
    pub fn partition_mcd(&self, i: usize) {
        let node = self.mcds()[i].node;
        self.net.isolate(format!("mcd-{i}"), [node]);
    }

    /// Heal the partition installed by [`Cluster::partition_mcd`].
    pub fn heal_mcd(&self, i: usize) {
        self.net.heal(&format!("mcd-{i}"));
    }

    /// Install a fault plan scoped to the bank's daemon nodes, so loss /
    /// duplication / jitter hit only IMCa's memcached traffic and the
    /// GlusterFS client↔server path stays reliable. (The GlusterFS
    /// protocol here has no retransmit layer — an unscoped lossy plan
    /// would wedge it, which is exactly the NoCache-equivalence property
    /// the fault tests rely on.) Partitions and drop windows added later
    /// through [`Network`] still apply to whatever links they name.
    pub fn install_bank_faults(&self, mut plan: FaultPlan) {
        let scope: Vec<NodeId> = self.mcds().iter().map(|m| m.node).collect();
        plan.scope = Some(scope);
        self.net.install_faults(plan);
    }

    /// Install a fault plan on the server's storage array (disk-tier
    /// mirror of [`Cluster::install_bank_faults`]): seeded I/O error
    /// rates, error windows, slow members, failed members. Replaces any
    /// previous plan and reseeds its RNG.
    pub fn install_storage_faults(&self, plan: StorageFaultPlan) {
        self.backend.install_faults(plan);
    }

    /// Crash the GlusterFS server daemon. Takes effect immediately:
    /// requests already accepted die before replying (the client sees
    /// `FsError::Io`), and the ones still waiting for an io-thread never
    /// reach the stack, not even after a restart. New requests are
    /// discarded on arrival, and any threaded SMCache job that survives
    /// into the restart is fenced off by the bank-wide purge there.
    /// Storage and MCDs keep running — only the daemon process dies, as
    /// in a `kill -9` of `glusterfsd`.
    pub fn crash_server(&self) {
        self.server.crash();
        self.server_crashes.inc();
    }

    /// Whether the server daemon is currently accepting requests.
    pub fn server_alive(&self) -> bool {
        self.server.is_up()
    }

    /// Requests the server daemon admitted and has not yet finished or
    /// dropped, over all its incarnations: work a crash caught started
    /// is not cancelled, and counts here until it ends.
    pub fn server_queue_depth(&self) -> u64 {
        self.server.queue_depth()
    }

    /// Bank work SMCache still owes after the fops that caused it returned
    /// ([`SmCache::pending`]: threaded jobs, posted stores); 0 without an
    /// SMCache. A driver that needs a quiescent bank waits for 0.
    pub fn pending_updates(&self) -> u64 {
        self.smcache.as_ref().map_or(0, |sm| sm.pending())
    }

    /// Restart a crashed server daemon. The restarted daemon cannot trust
    /// that pre-crash bank pushes still match the disk (a write may have
    /// landed after its covering push died with the daemon), so an IMCa
    /// deployment purges the whole bank before serving again — the cold
    /// restart the `ablate_failure` sweep measures.
    pub async fn restart_server(&self) {
        self.server.restart();
        self.server_restarts.inc();
        if let Some(sm) = &self.smcache {
            sm.purge_all().await;
        }
    }

    /// One structured snapshot of every instrumented tier, named
    /// `tier.component[.instance].metric` — this is what the bench
    /// binaries serialise next to their results.
    pub fn metrics(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.server_registry.collect("server", &mut snap);
        snap.set_gauge("server.alive", self.server.is_up() as i64);
        self.net.collect("fabric", &mut snap);
        self.backend.collect("storage", &mut snap);
        self.posix.collect("glusterfs.posix", &mut snap);
        if let Some(bank) = &self.bank {
            bank.collect("bank", &mut snap);
        }
        if let Some(sm) = &self.smcache {
            sm.collect("smcache", &mut snap);
        }
        if let Some(hub) = &self.lease_hub {
            hub.collect("leases", &mut snap);
        }
        for (i, cm) in self.cmcaches.borrow().iter().enumerate() {
            cm.collect(&format!("cmcache.{i}"), &mut snap);
        }
        for (i, ioc) in self.io_caches.borrow().iter().enumerate() {
            ioc.collect(&prefixed("glusterfs.iocache", &i.to_string()), &mut snap);
        }
        for (i, ra) in self.read_aheads.borrow().iter().enumerate() {
            ra.collect(&prefixed("glusterfs.readahead", &i.to_string()), &mut snap);
        }
        for (i, wb) in self.write_behinds.borrow().iter().enumerate() {
            wb.collect(
                &prefixed("glusterfs.writebehind", &i.to_string()),
                &mut snap,
            );
        }
        snap
    }

    /// The server's storage backend (page-cache stats, `drop_caches`).
    pub fn backend(&self) -> &StorageBackend {
        &self.backend
    }

    /// The underlying network (NIC counters).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The simulation handle this cluster schedules on.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::StatSource;
    use imca_metrics::json::Json;
    use imca_sim::Sim;

    fn small_imca(n_mcds: usize) -> ClusterConfig {
        ClusterConfig::imca(ImcaConfig {
            mcd_count: n_mcds,
            mcd_config: McConfig::with_mem_limit(8 << 20),
            ..ImcaConfig::default()
        })
    }

    #[test]
    fn end_to_end_data_integrity_through_the_full_stack() {
        let mut sim = Sim::new(1);
        let cluster = Rc::new(Cluster::build(sim.handle(), small_imca(2)));
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = c2.mount();
            m.create("/vol/data.bin").await.unwrap();
            let fd = m.open("/vol/data.bin").await.unwrap();
            let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
            m.write(fd, 0, &payload).await.unwrap();
            // First read: server path (blocks get populated).
            let r1 = m.read(fd, 1000, 5000).await.unwrap();
            assert_eq!(r1, payload[1000..6000].to_vec());
            // Second read: should now hit the bank, same bytes.
            let r2 = m.read(fd, 1000, 5000).await.unwrap();
            assert_eq!(r2, r1);
            m.close(fd).await.unwrap();
        });
        let hits = cluster.metrics().counter_sum("cmcache.*.read_hits");
        assert!(hits >= 1, "no cached read");
    }

    #[test]
    fn cached_read_is_faster_than_server_read() {
        let mut sim = Sim::new(1);
        let cluster = Rc::new(Cluster::build(sim.handle(), small_imca(1)));
        let c2 = Rc::clone(&cluster);
        let h = sim.handle();
        let (miss, hit) = sim.run_main(async move {
            let m = c2.mount();
            m.create("/f").await.unwrap();
            let fd = m.open("/f").await.unwrap();
            m.write(fd, 0, &vec![9u8; 8192]).await.unwrap();
            // Write populated the bank already; but measure an uncached
            // region first by invalidating via open (purge) …
            m.close(fd).await.unwrap(); // purge
            let fd = m.open("/f").await.unwrap(); // purge again (no data)
            let t0 = h.now();
            m.read(fd, 0, 2048).await.unwrap(); // miss: MCD trip + server
            let miss = h.now().since(t0);
            let t1 = h.now();
            m.read(fd, 0, 2048).await.unwrap(); // hit: MCD only
            let hit = h.now().since(t1);
            (miss.as_nanos(), hit.as_nanos())
        });
        assert!(hit < miss, "hit={hit} miss={miss}");
    }

    #[test]
    fn nocache_cluster_has_no_bank() {
        let mut sim = Sim::new(1);
        let cluster = Rc::new(Cluster::build(sim.handle(), ClusterConfig::nocache()));
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = c2.mount();
            m.create("/f").await.unwrap();
            let fd = m.open("/f").await.unwrap();
            m.write(fd, 0, b"plain gluster").await.unwrap();
            assert_eq!(m.read(fd, 6, 7).await.unwrap(), b"gluster");
            let st = m.stat("/f").await.unwrap();
            assert_eq!(st.size, 13);
        });
        assert!(cluster.mcds().is_empty());
        let snap = cluster.metrics();
        for tier in ["bank.", "smcache.", "cmcache."] {
            assert!(!snap.metrics.keys().any(|n| n.starts_with(tier)), "{tier}");
        }
    }

    #[test]
    fn two_clients_share_one_file_through_the_bank() {
        // The read/write sharing scenario (§5.6): the producer writes, the
        // consumer's stat + reads are served from the MCDs.
        let mut sim = Sim::new(1);
        let cluster = Rc::new(Cluster::build(sim.handle(), small_imca(1)));
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let producer = c2.mount();
            let consumer = c2.mount();
            producer.create("/shared").await.unwrap();
            let pfd = producer.open("/shared").await.unwrap();
            producer.write(pfd, 0, &vec![0x5A; 4096]).await.unwrap();
            // Consumer stats (producer-consumer mtime polling, §4.2).
            let st = consumer.stat("/shared").await.unwrap();
            assert_eq!(st.size, 4096);
            // Consumer reads the shared data.
            let cfd = consumer.open("/shared").await.unwrap();
            let data = consumer.read(cfd, 0, 4096).await.unwrap();
            assert_eq!(data, vec![0x5A; 4096]);
        });
        let hits = cluster.metrics().counter_sum("cmcache.*.stat_hits");
        assert!(hits >= 1, "consumer stat not served from bank");
    }

    #[test]
    fn metrics_snapshot_covers_every_tier() {
        let mut sim = Sim::new(1);
        let cluster = Rc::new(Cluster::build(sim.handle(), small_imca(2)));
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = c2.mount();
            m.create("/obs").await.unwrap();
            let fd = m.open("/obs").await.unwrap();
            m.write(fd, 0, &vec![3u8; 8192]).await.unwrap();
            m.read(fd, 0, 4096).await.unwrap();
            m.read(fd, 0, 4096).await.unwrap();
            m.stat("/obs").await.unwrap();
            m.close(fd).await.unwrap();
        });
        let snap = cluster.metrics();
        // Every tier is present under its `tier.component.metric` name.
        for name in [
            "fabric.rpc.call_ns",
            "storage.pagecache.hits",
            "glusterfs.posix.fop_ns",
            "bank.mcd_failovers",
            "bank.mcd.0.store.cmd_get",
            "smcache.blocks_pushed",
            "cmcache.0.read_hits",
            "cmcache.0.bank.get_ns",
        ] {
            assert!(
                snap.metrics.contains_key(name),
                "missing {name}; have: {:?}",
                snap.metrics.keys().collect::<Vec<_>>()
            );
        }
        // At least one latency histogram per tier.
        let hists = snap.histogram_names();
        for tier in ["fabric.", "storage.", "glusterfs.", "bank.", "cmcache."] {
            assert!(
                hists.iter().any(|n| n.starts_with(tier)),
                "no latency histogram under {tier}: {hists:?}"
            );
        }
        // The document round-trips through JSON.
        let back = Json::parse(&snap.to_json()).expect("parse back");
        assert_eq!(back, snap.to_json_value());
    }

    #[test]
    fn leases_serve_locally_and_fall_before_the_write_lands() {
        // Two clients under the lease policy: the consumer's repeated
        // stats are served from its lease; the producer's write revokes
        // that lease *before* the refreshed stat reaches the bank, so the
        // consumer's next stat sees the new size — never a stale one.
        let mut sim = Sim::new(1);
        let cluster = Rc::new(Cluster::build(
            sim.handle(),
            ClusterConfig::imca(ImcaConfig {
                mcd_count: 1,
                mcd_config: McConfig::with_mem_limit(8 << 20),
                meta: MetaConfig::lease(),
                ..ImcaConfig::default()
            }),
        ));
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let producer = c2.mount();
            let (consumer, cm) = c2.mount_with_meta();
            let cm = cm.expect("imca mount has a cmcache");
            producer.create("/shared").await.unwrap();
            let pfd = producer.open("/shared").await.unwrap();
            producer.write(pfd, 0, &vec![1u8; 1000]).await.unwrap();
            // Fill + lease, then lease-served polls.
            assert_eq!(consumer.stat("/shared").await.unwrap().size, 1000);
            for _ in 0..4 {
                assert_eq!(consumer.stat("/shared").await.unwrap().size, 1000);
            }
            assert_eq!(cm.meta().held_leases(), 1);
            // The write's stat refresh revokes the consumer's lease…
            producer.write(pfd, 1000, &vec![2u8; 500]).await.unwrap();
            assert_eq!(cm.meta().held_leases(), 0, "lease outlived the write");
            // …and the next poll sees the new size.
            assert_eq!(consumer.stat("/shared").await.unwrap().size, 1500);
        });
        let snap = cluster.metrics();
        assert!(snap.counter("leases.revocations_sent").unwrap() >= 1);
        assert_eq!(snap.counter("leases.failed_revocations"), Some(0));
        assert!(snap.counter_sum("cmcache.*.meta.lease_hits") >= 4);
        let hits = snap.counter_sum("cmcache.*.stat_hits");
        assert!(hits >= 4, "leased polls must count as hits: {hits}");
    }

    #[test]
    fn server_restart_drops_every_client_lease() {
        // `restart_server` purges the whole bank; each purge revokes
        // leases first, so a restarted server leaves no client serving
        // pre-crash metadata.
        let mut sim = Sim::new(1);
        let cluster = Rc::new(Cluster::build(
            sim.handle(),
            ClusterConfig::imca(ImcaConfig {
                mcd_count: 1,
                mcd_config: McConfig::with_mem_limit(8 << 20),
                meta: MetaConfig::lease(),
                ..ImcaConfig::default()
            }),
        ));
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let (m, cm) = c2.mount_with_meta();
            let cm = cm.unwrap();
            m.create("/f").await.unwrap();
            let fd = m.open("/f").await.unwrap();
            m.write(fd, 0, &[7u8; 100]).await.unwrap();
            m.stat("/f").await.unwrap();
            assert_eq!(cm.meta().held_leases(), 1);
            c2.crash_server();
            c2.restart_server().await;
            assert_eq!(
                cm.meta().held_leases(),
                0,
                "restart left a client holding a pre-crash lease"
            );
            // The next stat refills from the recovered server.
            let misses = || c2.metrics().counter("cmcache.0.stat_misses").unwrap();
            let misses_before = misses();
            assert_eq!(m.stat("/f").await.unwrap().size, 100);
            assert_eq!(misses(), misses_before + 1);
        });
    }

    #[test]
    fn server_crash_fails_writes_and_restart_purges_the_bank() {
        let mut sim = Sim::new(1);
        let cluster = Rc::new(Cluster::build(sim.handle(), small_imca(2)));
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = c2.mount();
            m.create("/f").await.unwrap();
            let fd = m.open("/f").await.unwrap();
            m.write(fd, 0, &vec![5u8; 4096]).await.unwrap();
            assert!(c2.metrics().counter("smcache.blocks_pushed").unwrap() >= 2);
            c2.crash_server();
            assert!(!c2.server_alive());
            // Writes die fast with EIO…
            assert_eq!(m.write(fd, 0, b"x").await, Err(imca_glusterfs::FsError::Io));
            // …but the MCDs outlive the daemon: a bank hit still serves.
            assert_eq!(m.read(fd, 0, 2048).await.unwrap(), vec![5u8; 2048]);
            let read_hits = || c2.metrics().counter("cmcache.0.read_hits").unwrap();
            let hits_through_crash = read_hits();
            assert!(hits_through_crash >= 1);
            c2.restart_server().await;
            assert!(c2.server_alive());
            // The cold restart purged every pre-crash entry: the same read
            // now misses to the (recovered) server, and still agrees with
            // the disk — the crashed-away write really didn't land.
            assert_eq!(m.read(fd, 0, 2048).await.unwrap(), vec![5u8; 2048]);
            assert_eq!(
                read_hits(),
                hits_through_crash,
                "restart must leave the bank cold"
            );
        });
        let snap = cluster.metrics();
        assert_eq!(snap.counter("server.crashes"), Some(1));
        assert_eq!(snap.counter("server.restarts"), Some(1));
        assert!(snap.counter("smcache.purges").unwrap() >= 1);
    }

    #[test]
    fn storage_faults_reach_clients_through_the_full_stack() {
        let mut sim = Sim::new(1);
        let cluster = Rc::new(Cluster::build(sim.handle(), small_imca(1)));
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = c2.mount();
            m.create("/f").await.unwrap();
            let fd = m.open("/f").await.unwrap();
            c2.install_storage_faults(StorageFaultPlan {
                write_error: 1.0,
                ..StorageFaultPlan::seeded(7)
            });
            assert_eq!(
                m.write(fd, 0, b"nope").await,
                Err(imca_glusterfs::FsError::Io)
            );
            c2.install_storage_faults(StorageFaultPlan::seeded(7));
            m.write(fd, 0, b"yes!").await.unwrap();
            assert_eq!(m.read(fd, 0, 4).await.unwrap(), b"yes!");
        });
        let snap = cluster.metrics();
        assert!(snap.counter("storage.io_errors").unwrap() >= 1);
    }

    #[test]
    fn dropped_push_revokes_leases_and_purges_meta_under_both_coherences() {
        // Regression (satellite of the CAS PR): a dropped push — the
        // write committed but the covering fill re-read died on sick
        // media — must not leave clients holding live stat leases or the
        // bank serving the pre-write stat entry. Composed: media faults ×
        // MetaPolicy::Lease × both coherence modes.
        for coherence in [Coherence::Cas, Coherence::Purge] {
            let mut sim = Sim::new(1);
            let cluster = Rc::new(Cluster::build(
                sim.handle(),
                ClusterConfig::imca(ImcaConfig {
                    mcd_count: 1,
                    mcd_config: McConfig::with_mem_limit(8 << 20),
                    // Block (8 KB) > page (4 KB): the fill re-read must
                    // touch the media, where the fault plan can kill it.
                    block_size: 8192,
                    coherence,
                    meta: MetaConfig::lease(),
                    ..ImcaConfig::default()
                }),
            ));
            let c2 = Rc::clone(&cluster);
            sim.run_main(async move {
                let producer = c2.mount();
                let (consumer, cm) = c2.mount_with_meta();
                let cm = cm.expect("imca mount has a cmcache");
                producer.create("/f").await.unwrap();
                let fd = producer.open("/f").await.unwrap();
                producer.write(fd, 0, &vec![1u8; 8192]).await.unwrap();
                // The consumer takes a lease on the current size.
                assert_eq!(consumer.stat("/f").await.unwrap().size, 8192);
                assert_eq!(cm.meta().held_leases(), 1);
                // The next write commits on disk, but its covering fill
                // re-read (an untracked block past EOF) dies on the media.
                c2.backend().drop_caches();
                c2.install_storage_faults(StorageFaultPlan {
                    read_error: 1.0,
                    ..StorageFaultPlan::default()
                });
                producer.write(fd, 8192, &[2u8; 100]).await.unwrap();
                // The dropped-push purge revoked the consumer's lease: no
                // client may keep serving the pre-write size.
                assert_eq!(
                    cm.meta().held_leases(),
                    0,
                    "lease survived a dropped push ({coherence:?})"
                );
            });
            let snap = cluster.metrics();
            let dropped = snap.counter("smcache.dropped_pushes").unwrap();
            assert!(dropped >= 1, "{coherence:?}");
            assert!(
                snap.counter("leases.revocations_sent").unwrap() >= 1,
                "{coherence:?}"
            );
            assert_eq!(snap.counter("leases.failed_revocations"), Some(0));
        }
    }

    /// The bank layouts a posted store's order is pinned at: one and two
    /// replicas, each with the daemons on the fabric's transport and on
    /// RDMA (only bank daemons can sit on another transport), each with
    /// synchronous and with threaded updates.
    fn posting_layouts(meta: MetaConfig) -> Vec<ClusterConfig> {
        let mut layouts = Vec::new();
        for factor in [1, 2] {
            for bank_transport in [None, Some(Transport::rdma_ddr())] {
                for threaded_updates in [false, true] {
                    layouts.push(ClusterConfig::imca(ImcaConfig {
                        mcd_count: 2,
                        mcd_config: McConfig::with_mem_limit(8 << 20),
                        replication: Replication { factor },
                        bank_transport: bank_transport.clone(),
                        threaded_updates,
                        meta,
                        ..ImcaConfig::default()
                    }));
                }
            }
        }
        layouts
    }

    /// `(stat_hits, stat_misses, read_hits, read_misses)` of client `i`.
    fn client_counts(cluster: &Cluster, i: usize) -> [u64; 4] {
        let snap = cluster.metrics();
        ["stat_hits", "stat_misses", "read_hits", "read_misses"]
            .map(|name| snap.counter(&format!("cmcache.{i}.{name}")).unwrap())
    }

    #[test]
    fn a_second_clients_lookup_after_a_reply_sees_what_the_reply_posted() {
        for cfg in posting_layouts(MetaConfig::default()) {
            let threaded = cfg.imca.as_ref().unwrap().threaded_updates;
            let layout = format!("{:?}", cfg.imca);
            let mut sim = Sim::new(1);
            let h = sim.handle();
            let cluster = Rc::new(Cluster::build(sim.handle(), cfg));
            let c2 = Rc::clone(&cluster);
            sim.run_main(async move {
                let first = c2.mount();
                let (_, second) = c2.mount_with_meta();
                let second = second.expect("imca mount has a cmcache");
                // Threaded, the lookup goes the moment nothing is owed.
                let settled = || async {
                    let give_up = h.now() + SimDuration::millis(10);
                    while threaded && c2.pending_updates() > 0 {
                        assert!(h.now() < give_up, "never drained");
                        h.sleep(SimDuration::nanos(1)).await;
                    }
                };
                first.create("/f").await.unwrap();
                let fd = first.open("/f").await.unwrap();
                // A stat miss: the reply leaves behind the stat's push, so
                // the second client's lookup, sent once it is back, hits.
                first.stat("/f").await.unwrap();
                let r = second.stat("/f".into()).await;
                assert_eq!(
                    (r.source, r.stat.map(|st| st.size)),
                    (StatSource::Bank, Ok(0)),
                    "{layout}"
                );
                // A write: its new stat is posted before the reply (threaded: by its job).
                for (i, len) in [(0u64, 3000usize), (3000, 5000)] {
                    let issued = h.now().as_nanos();
                    first.write(fd, i, &vec![7u8; len]).await.unwrap();
                    settled().await;
                    let r = second.stat("/f".into()).await;
                    let st = r.stat.as_ref().unwrap();
                    let want = (StatSource::Bank, i + len as u64, true);
                    let got = (r.source, st.size, st.mtime_ns >= issued);
                    assert_eq!(got, want, "{layout}");
                }
                // A read fill: the open purged the blocks, the first
                // client's read refills them (threaded: its job does), the
                // second one's hits.
                first.close(fd).await.unwrap();
                let fd = first.open("/f").await.unwrap();
                assert_eq!(first.read(fd, 0, 6000).await.unwrap(), vec![7u8; 6000]);
                settled().await;
                let [_, _, hits, misses] = client_counts(&c2, 1);
                let read = Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 6000,
                };
                let reply = (Rc::clone(&second) as Xlator).handle(read).await;
                assert_eq!(reply, FopReply::Read(Ok(vec![7u8; 6000])), "{layout}");
                let [_, _, hits_after, misses_after] = client_counts(&c2, 1);
                assert!(hits_after > hits, "{layout}: the filled blocks missed");
                assert_eq!(misses_after, misses, "{layout}: a filled block missed");
            });
        }
    }

    #[test]
    fn a_second_clients_read_and_stat_after_a_posted_wave_see_the_write() {
        let synchronous = posting_layouts(MetaConfig::default())
            .into_iter()
            .filter(|cfg| !cfg.imca.as_ref().unwrap().threaded_updates);
        for cfg in synchronous {
            let layout = format!("{:?}", cfg.imca);
            let copies = cfg.imca.as_ref().unwrap().replication.factor as u64;
            let rdma = cfg.imca.as_ref().unwrap().bank_transport.is_some();
            let mut sim = Sim::new(1);
            let h = sim.handle();
            let cluster = Rc::new(Cluster::build(sim.handle(), cfg));
            let c2 = Rc::clone(&cluster);
            sim.run_main(async move {
                let first = c2.mount();
                let (_, second) = c2.mount_with_meta();
                let second = second.expect("imca mount has a cmcache");
                let replaced = || c2.metrics().counter("smcache.cas_replacements").unwrap();
                first.create("/f").await.unwrap();
                let fd = first.open("/f").await.unwrap();
                // Cold: the covering re-read's stores keep their tokens, so
                // every later overwrite's wave goes out with no `gets`.
                first.write(fd, 0, &[1u8; 6000]).await.unwrap();
                for fill in 2..5u8 {
                    let issued = h.now().as_nanos();
                    first.write(fd, 0, &[fill; 6000]).await.unwrap();
                    // Posted: on IPoIB daemons the wave's verdicts are not
                    // in when the reply reaches the client (over RDMA they
                    // outrun the reply, and the count cannot tell). The
                    // earlier overwrites' are: this write's update waited
                    // for them.
                    let earlier = 3 * copies * u64::from(fill - 2);
                    if !rdma {
                        assert_eq!(replaced(), earlier, "{layout}: the wave was awaited");
                    }
                    // The stat and the read leave together, the moment the
                    // write has returned.
                    let (tx, stat) = imca_sim::sync::oneshot();
                    let looker = Rc::clone(&second);
                    h.spawn(async move { tx.send(looker.stat("/f".into()).await) });
                    let [_, _, hits, misses] = client_counts(&c2, 1);
                    let read = Fop::Read {
                        path: "/f".into(),
                        offset: 0,
                        len: 6000,
                    };
                    let reply = (Rc::clone(&second) as Xlator).handle(read).await;
                    assert_eq!(reply, FopReply::Read(Ok(vec![fill; 6000])), "{layout}");
                    let [_, _, hits_after, misses_after] = client_counts(&c2, 1);
                    assert!(hits_after > hits, "{layout}: the read missed the bank");
                    assert_eq!(misses_after, misses, "{layout}: a replaced block missed");
                    let r = stat.await.unwrap();
                    let st = r.stat.as_ref().unwrap();
                    let got = (r.source, st.size, st.mtime_ns >= issued);
                    assert_eq!(got, (StatSource::Bank, 6000, true), "{layout}");
                }
                while c2.pending_updates() > 0 {
                    h.sleep(SimDuration::micros(1)).await;
                }
                let snap = c2.metrics();
                assert_eq!(snap.counter("smcache.cas_conflicts"), Some(0), "{layout}");
                // Three overwrites of three blocks, on every copy.
                assert_eq!(replaced(), 3 * 3 * copies, "{layout}");
            });
        }
    }

    #[test]
    fn a_second_clients_lookup_after_an_enoent_sees_the_marker() {
        for cfg in posting_layouts(MetaConfig::lease()) {
            let mut sim = Sim::new(1);
            let cluster = Rc::new(Cluster::build(sim.handle(), cfg));
            let c2 = Rc::clone(&cluster);
            sim.run_main(async move {
                let first = c2.mount();
                let (_, second) = c2.mount_with_meta();
                let second = second.expect("imca mount has a cmcache");
                assert_eq!(
                    first.stat("/ghost").await,
                    Err(imca_glusterfs::FsError::NotFound)
                );
                let r = second.stat("/ghost".into()).await;
                assert_eq!(r.source, StatSource::Negative);
                // A create revalidates before its reply: its stat has
                // replaced the marker, and the second client's negative
                // lease is revoked.
                first.create("/ghost").await.unwrap();
                let r = second.stat("/ghost".into()).await;
                assert_eq!(
                    (r.source, r.stat.map(|st| st.size)),
                    (StatSource::Bank, Ok(0))
                );
            });
        }
    }

    #[test]
    fn under_a_fault_plan_the_reply_waits_for_what_it_posted() {
        for faults in [false, true] {
            let mut sim = Sim::new(1);
            let cluster = Rc::new(Cluster::build(sim.handle(), small_imca(2)));
            if faults {
                // Benign, but installed: the bank may reorder stores.
                cluster.install_bank_faults(FaultPlan::seeded(3));
            }
            let c2 = Rc::clone(&cluster);
            let owed = sim.run_main(async move {
                let m = c2.mount();
                m.create("/f").await.unwrap();
                let fd = m.open("/f").await.unwrap();
                let opened = c2.pending_updates();
                m.stat("/f").await.unwrap();
                let stated = c2.pending_updates();
                m.write(fd, 0, &[1u8; 5000]).await.unwrap();
                let written = c2.pending_updates();
                m.close(fd).await.unwrap();
                let fd = m.open("/f").await.unwrap();
                m.read(fd, 0, 5000).await.unwrap();
                [opened, stated, written, c2.pending_updates()]
            });
            if faults {
                assert_eq!(owed, [0; 4], "a fop returned before what it posted");
            } else {
                assert_ne!(owed, [0; 4], "nothing was posted");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        fn run() -> (u64, u64) {
            let mut sim = Sim::new(42);
            let cluster = Rc::new(Cluster::build(sim.handle(), small_imca(2)));
            let c2 = Rc::clone(&cluster);
            sim.run_main(async move {
                let m = c2.mount();
                m.create("/d").await.unwrap();
                let fd = m.open("/d").await.unwrap();
                for i in 0..20u64 {
                    m.write(fd, i * 100, &[i as u8; 100]).await.unwrap();
                    m.read(fd, i * 50, 100).await.unwrap();
                }
            });
            let s = sim.run();
            (s.end_time.as_nanos(), s.events)
        }
        assert_eq!(run(), run());
    }
}

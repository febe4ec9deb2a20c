//! The metadata tier: one engine over three stat policies.
//!
//! The stat path is the paper's headline win (Fig 5), and this module is
//! its dedicated engine. Every client-facing metadata lookup — single
//! stats ([`MetaEngine::stat`]) and batched readdir+stat prefetches
//! ([`MetaEngine::stat_multi`]), both reached through `CmCache`'s
//! counting wrappers of the same names — returns results with explicit
//! provenance ([`StatSource`]): the caller always knows whether an answer
//! came from a client-held lease, the MCD bank, the GlusterFS backend, or
//! a negative (ENOENT) entry. The three policies live behind the one
//! engine, selected by [`MetaConfig::policy`] — the ablation baseline is
//! a config flag, not a code fork:
//!
//! * [`MetaPolicy::NoCache`] — every stat forwards to the server
//!   (provenance `Backend`). The NoCache baseline on an otherwise
//!   unchanged IMCa deployment.
//! * [`MetaPolicy::Bank`] — the paper's behaviour: try the bank's stat
//!   entry, forward on a miss. One bank round trip per stat.
//! * [`MetaPolicy::Lease`] — bounded-TTL client leases on top of the
//!   bank path: a stat answered from the bank or the backend installs a
//!   local lease, and further stats are served with *zero* network
//!   rounds until the lease expires ([`MetaEngine::LEASE_TTL`]) or the
//!   server revokes it. Negative caching (below) is part of this policy.
//!
//! # Lease protocol
//!
//! SMCache already owns every mutation point (open/close/unlink purge,
//! write repopulation, create), so revocation rides the existing purge /
//! push fan-out: each lease-holding client runs a tiny revocation
//! service ([`serve_revocations`]) on its own fabric node, and the
//! server-side [`LeaseHub`] fans a [`LeaseRevoke`] out to every
//! registered client — and *waits for the acks* — **before** the bank's
//! stat entry is deleted or updated. A client can therefore never serve
//! a leased stat that is older than what the bank would have answered,
//! which is what keeps the lease path NoCache-equivalent. A create is
//! the exception: it revokes *after* its stat has landed (below). A
//! revocation lost to the fabric (counted in
//! `leases.failed_revocations`) is bounded by the lease TTL.
//!
//! Two client-side guards close the in-flight races:
//!
//! * **Revocation epoch**: the engine bumps an epoch on every incoming
//!   revoke; a lease is only installed if the epoch did not move while
//!   the fill (bank get or backend stat) was in flight. Otherwise a
//!   reply carrying a pre-revocation value could re-install a stale
//!   lease *after* the revocation was acked.
//! * **TTL**: expired entries are dropped on lookup, never served.
//!
//! # Negative entries
//!
//! Under the lease policy a backend ENOENT plants a marker as the value
//! of the path's own `:m.stat` key — one metadata key per path, so every
//! lookup fetches one key from one daemon — and repeated lookups of
//! missing paths are answered from a local negative lease or the bank
//! marker, with provenance `Negative`. SMCache stores the marker with
//! memcached `add`, so it never replaces a stat, while a stat's `set`
//! replaces a marker. A create revalidates: SMCache stores the new
//! file's stat from the create's reply (bumping the generation fence,
//! and replacing the marker), then revokes leases, all before
//! acknowledging, so no client sees ENOENT for a file whose create
//! completed, and the file starts warm. The revocation goes last: a
//! lookup between a revocation and the store would read the marker and
//! install a negative lease that nothing revokes.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use imca_fabric::{RpcClient, Service, WireSize, Workers};
use imca_glusterfs::{FileStat, Fop, FopReply, FsError, Xlator};
use imca_metrics::{Counter, MetricSource, Registry, Snapshot};
use imca_sim::{join_all, timeout, SimDuration, SimHandle, SimTime};

use crate::keys::stat_key;
use crate::mcd::BankClient;

/// The value of a `:m.stat` key that marks its path absent (ENOENT). It
/// is one byte, so it can never be mis-decoded as a 24-byte `FileStat`.
pub const NEG_MARKER: &[u8] = b"!";

/// Which stat path the metadata tier uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaPolicy {
    /// Forward every stat to the server — the ablation baseline.
    NoCache,
    /// One bank round trip per stat (the paper's CMCache behaviour).
    Bank,
    /// The full metadata tier: client-held bounded-TTL leases over the
    /// bank path, revoked by SMCache before any stat entry changes, plus
    /// negative (ENOENT) caching as bank markers and negative leases.
    Lease,
}

/// Metadata-tier configuration: the stat policy, nothing else. The
/// default (`Bank`) reproduces the legacy CMCache stat path
/// event-for-event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaConfig {
    /// Stat policy.
    pub policy: MetaPolicy,
}

impl Default for MetaConfig {
    fn default() -> MetaConfig {
        MetaConfig {
            policy: MetaPolicy::Bank,
        }
    }
}

impl MetaConfig {
    /// The full metadata tier: leases + negative caching.
    pub fn lease() -> MetaConfig {
        MetaConfig {
            policy: MetaPolicy::Lease,
        }
    }

    /// The ablation baseline: every stat forwards to the server.
    pub fn nocache() -> MetaConfig {
        MetaConfig {
            policy: MetaPolicy::NoCache,
        }
    }

    /// Whether ENOENT results are cached: exactly under the lease policy.
    /// Every other deployment replays the legacy paths bit-identically.
    pub fn negative(&self) -> bool {
        self.policy == MetaPolicy::Lease
    }
}

/// Where a stat answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatSource {
    /// Served from a client-held lease: zero network rounds.
    Lease,
    /// Served from the MCD bank's stat entry.
    Bank,
    /// Forwarded to the GlusterFS server (a metadata miss).
    Backend,
    /// Answered ENOENT from a negative entry (bank marker or local
    /// negative lease).
    Negative,
}

/// A stat verdict with explicit provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatResult {
    /// The stat itself, or the error the backend would have returned.
    pub stat: Result<FileStat, FsError>,
    /// Which tier produced the answer.
    pub source: StatSource,
}

struct LeaseEntry {
    /// `Some` = a positive stat lease; `None` = a negative (ENOENT) one.
    stat: Option<FileStat>,
    expires: SimTime,
}

/// The per-client metadata engine.
pub struct MetaEngine {
    handle: SimHandle,
    child: Xlator,
    bank: Rc<BankClient>,
    cfg: MetaConfig,
    leases: RefCell<HashMap<String, LeaseEntry>>,
    /// Bumped on every incoming revocation; fills started under an older
    /// epoch must not install a lease (their value may pre-date the
    /// revocation that just completed).
    epoch: Cell<u64>,
    registry: Registry,
    lease_hits: Counter,
    bank_hits: Counter,
    backend_fills: Counter,
    negative_hits: Counter,
    leases_installed: Counter,
    lease_expiries: Counter,
    revocations: Counter,
    install_races: Counter,
    multi_lookups: Counter,
    multi_paths: Counter,
}

impl MetaEngine {
    /// Lease lifetime; bounds staleness when a revocation is lost.
    pub const LEASE_TTL: SimDuration = SimDuration::millis(250);

    /// An engine over `child` (the path to the server) and `bank`.
    pub fn new(
        handle: SimHandle,
        child: Xlator,
        bank: Rc<BankClient>,
        cfg: MetaConfig,
    ) -> Rc<MetaEngine> {
        let registry = Registry::new();
        Rc::new(MetaEngine {
            handle,
            child,
            bank,
            cfg,
            leases: RefCell::new(HashMap::new()),
            epoch: Cell::new(0),
            lease_hits: registry.counter("lease_hits"),
            bank_hits: registry.counter("bank_hits"),
            backend_fills: registry.counter("backend_fills"),
            negative_hits: registry.counter("negative_hits"),
            leases_installed: registry.counter("leases_installed"),
            lease_expiries: registry.counter("lease_expiries"),
            revocations: registry.counter("revocations"),
            install_races: registry.counter("install_races"),
            multi_lookups: registry.counter("batched_lookups"),
            multi_paths: registry.counter("batched_paths"),
            registry,
        })
    }

    /// Leases currently held (positive + negative), for tests.
    pub fn held_leases(&self) -> usize {
        self.leases.borrow().len()
    }

    /// Drop the lease on `path` (the revocation service calls this).
    /// Bumps the epoch even when no lease is held, so an in-flight fill
    /// cannot install a value from before this revocation.
    pub fn revoke(&self, path: &str) {
        self.epoch.set(self.epoch.get() + 1);
        self.revocations.inc();
        self.leases.borrow_mut().remove(path);
    }

    /// Serve a fresh lease locally, dropping it if expired.
    fn lease_lookup(&self, path: &str) -> Option<StatResult> {
        let mut leases = self.leases.borrow_mut();
        let entry = leases.get(path)?;
        if self.handle.now() >= entry.expires {
            leases.remove(path);
            self.lease_expiries.inc();
            return None;
        }
        Some(match entry.stat {
            Some(st) => {
                self.lease_hits.inc();
                StatResult {
                    stat: Ok(st),
                    source: StatSource::Lease,
                }
            }
            None => {
                self.negative_hits.inc();
                StatResult {
                    stat: Err(FsError::NotFound),
                    source: StatSource::Negative,
                }
            }
        })
    }

    /// Install a lease from a fill that started at `epoch_at_start`.
    fn install(&self, path: &str, stat: Option<FileStat>, epoch_at_start: u64) {
        if self.cfg.policy != MetaPolicy::Lease {
            return;
        }
        if self.epoch.get() != epoch_at_start {
            // A revocation landed while this fill was in flight: its
            // value may pre-date the mutation that triggered the revoke.
            self.install_races.inc();
            return;
        }
        let expires = self.handle.now() + Self::LEASE_TTL;
        self.leases
            .borrow_mut()
            .insert(path.to_string(), LeaseEntry { stat, expires });
        self.leases_installed.inc();
    }

    /// Forward the stat to the server (provenance `Backend`) and install
    /// a lease from the authoritative reply. Installing here is safe for
    /// the same reason the bank path is: any later mutation revokes
    /// before its stat entry changes, and the epoch guard covers the
    /// in-flight window.
    async fn backend_stat(&self, path: String, epoch_at_start: u64) -> StatResult {
        self.backend_fills.inc();
        let reply = Rc::clone(&self.child)
            .handle(Fop::Stat { path: path.clone() })
            .await;
        let stat = match reply {
            FopReply::Stat(r) => r,
            other => panic!("mismatched reply to stat: {other:?}"),
        };
        self.backend_answer(&path, stat, epoch_at_start)
    }

    /// Forward `paths` to the server as one [`Fop::StatMulti`], the way
    /// readdirplus fetches a directory window, and install each answer
    /// by [`MetaEngine::backend_stat`]'s rules under the one epoch read
    /// before the fop: a revocation of any path voids every install.
    async fn backend_stat_multi(&self, paths: Vec<String>, epoch_at_start: u64) -> Vec<StatResult> {
        self.backend_fills.add(paths.len() as u64);
        let reply = Rc::clone(&self.child)
            .handle(Fop::StatMulti {
                paths: paths.clone(),
            })
            .await;
        let stats = match reply {
            FopReply::StatMulti(stats) if stats.len() == paths.len() => stats,
            other => panic!("mismatched reply to stat_multi: {other:?}"),
        };
        paths
            .iter()
            .zip(stats)
            .map(|(path, stat)| self.backend_answer(path, stat, epoch_at_start))
            .collect()
    }

    /// The server's answer for `path`: a stat or ENOENT installs a lease
    /// (positive or negative), an I/O error installs nothing.
    fn backend_answer(
        &self,
        path: &str,
        stat: Result<FileStat, FsError>,
        epoch_at_start: u64,
    ) -> StatResult {
        match stat {
            Ok(st) => self.install(path, Some(st), epoch_at_start),
            Err(FsError::NotFound) => self.install(path, None, epoch_at_start),
            Err(_) => {}
        }
        StatResult {
            stat,
            source: StatSource::Backend,
        }
    }

    /// Decode `path`'s `:m.stat` value from one bank round: a stat, or
    /// (under negative caching) an ENOENT marker. Anything else — no
    /// value, a corrupt one — is a miss.
    fn decode_bank_round(
        &self,
        path: &str,
        raw: Option<&bytes::Bytes>,
        epoch_at_start: u64,
    ) -> Option<StatResult> {
        let raw = raw?;
        if let Some(st) = FileStat::from_bytes(raw) {
            self.bank_hits.inc();
            self.install(path, Some(st), epoch_at_start);
            return Some(StatResult {
                stat: Ok(st),
                source: StatSource::Bank,
            });
        }
        if self.cfg.negative() && raw[..] == *NEG_MARKER {
            self.negative_hits.inc();
            self.install(path, None, epoch_at_start);
            return Some(StatResult {
                stat: Err(FsError::NotFound),
                source: StatSource::Negative,
            });
        }
        None
    }

    /// One metadata lookup through the configured policy.
    pub async fn stat(&self, path: String) -> StatResult {
        if self.cfg.policy == MetaPolicy::NoCache {
            // NoCache never installs anything, so the epoch is moot.
            return self.backend_stat(path, self.epoch.get()).await;
        }
        if self.cfg.policy == MetaPolicy::Lease {
            if let Some(r) = self.lease_lookup(&path) {
                return r;
            }
        }
        let epoch = self.epoch.get();
        let raw = self.bank.get(&stat_key(&path)).await;
        if let Some(r) = self.decode_bank_round(&path, raw.as_ref(), epoch) {
            return r;
        }
        self.backend_stat(path, epoch).await
    }

    /// Batched lookup — the readdir+stat prefetch hook. Local leases are
    /// served first, the remainder rides one multi-key bank `get`
    /// ([`BankClient::get_multi`], batched whatever the data path's
    /// framing), and only paths missing everywhere forward to the server,
    /// together in one [`Fop::StatMulti`].
    pub async fn stat_multi(&self, paths: Vec<String>) -> Vec<StatResult> {
        self.multi_lookups.inc();
        self.multi_paths.add(paths.len() as u64);
        let mut out: Vec<Option<StatResult>> = vec![None; paths.len()];
        if self.cfg.policy == MetaPolicy::NoCache {
            // The baseline has nothing to batch: `ls -l` stats one entry
            // at a time.
            for (i, path) in paths.iter().enumerate() {
                let epoch = self.epoch.get();
                out[i] = Some(self.backend_stat(path.clone(), epoch).await);
            }
            return out.into_iter().map(|r| r.expect("filled")).collect();
        }
        // 1. Local leases answer for free.
        if self.cfg.policy == MetaPolicy::Lease {
            for (i, path) in paths.iter().enumerate() {
                out[i] = self.lease_lookup(path);
            }
        }
        // 2. One multi-key bank round covers every remaining path.
        let epoch = self.epoch.get();
        let missing: Vec<usize> = (0..paths.len()).filter(|&i| out[i].is_none()).collect();
        if !missing.is_empty() {
            let keys: Vec<Vec<u8>> = missing.iter().map(|&i| stat_key(&paths[i])).collect();
            let got = self.bank.get_multi(&keys).await;
            for (&i, raw) in missing.iter().zip(&got) {
                out[i] = self.decode_bank_round(&paths[i], raw.as_ref(), epoch);
            }
        }
        // 3. Whatever is still unanswered forwards to the server in one
        // fop, which repopulates the bank (SMCache's batched stat hook)
        // for the next batch.
        let rest: Vec<usize> = (0..paths.len()).filter(|&i| out[i].is_none()).collect();
        if !rest.is_empty() {
            let epoch = self.epoch.get();
            let ask = rest.iter().map(|&i| paths[i].clone()).collect();
            let answers = self.backend_stat_multi(ask, epoch).await;
            for (i, r) in rest.into_iter().zip(answers) {
                out[i] = Some(r);
            }
        }
        out.into_iter().map(|r| r.expect("filled")).collect()
    }
}

impl MetricSource for MetaEngine {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        snap.set_gauge(
            imca_metrics::prefixed(prefix, "held_leases"),
            self.leases.borrow().len() as i64,
        );
    }
}

// ---------------------------------------------------------------------------
// Revocation plumbing.
// ---------------------------------------------------------------------------

/// Server→client lease revocation for one path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRevoke {
    /// The path whose lease must be dropped.
    pub path: String,
}

/// Acknowledgement: the lease is gone and the server may proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseAck;

const REVOKE_HDR: usize = 64;

impl WireSize for LeaseRevoke {
    fn wire_bytes(&self) -> usize {
        REVOKE_HDR + self.path.len()
    }
}

impl WireSize for LeaseAck {
    fn wire_bytes(&self) -> usize {
        REVOKE_HDR
    }
}

/// Run `engine`'s revocation service: every incoming [`LeaseRevoke`]
/// drops the lease (and bumps the fill epoch) before the ack goes back,
/// so the server's purge/push fan-out can wait for all holders.
pub fn serve_revocations(engine: &Rc<MetaEngine>, svc: &Service<LeaseRevoke, LeaseAck>) {
    let eng = Rc::clone(engine);
    svc.serve(Workers::Inline, move |msg: LeaseRevoke| {
        eng.revoke(&msg.path);
        async { LeaseAck }
    });
}

/// One registered client endpoint plus its revocation health.
struct LeasePeer {
    client: RpcClient<LeaseRevoke, LeaseAck>,
    /// Failed revocations since the last ack; reset on any success.
    consecutive_failures: Cell<u32>,
    /// Quarantined peers are dropped from the fan-out entirely.
    quarantined: Cell<bool>,
}

/// The server-side fan-out half of the lease protocol: SMCache calls
/// [`LeaseHub::revoke`] at every mutation point, and the hub broadcasts
/// to every registered client and waits for the acks. With no clients
/// registered (every non-lease deployment) a revoke is a synchronous
/// no-op, so legacy configurations replay bit-identically.
///
/// A client that fails [`LeaseHub::QUARANTINE_AFTER`] *consecutive*
/// revocations (dead, partitioned, or persistently past the deadline) is
/// quarantined: removed from the fan-out so every mutation stops paying
/// its [`LeaseHub::REVOKE_DEADLINE`] stall. That is safe — the client's
/// own lease TTL already bounds how long it may serve a leaked lease,
/// and quarantine does not extend that bound — it only stops the server
/// from burning a deadline per mutation on a peer that never answers.
/// A quarantined client rejoins by re-registering (the remount path),
/// which starts a fresh healthy entry.
pub struct LeaseHub {
    handle: SimHandle,
    peers: RefCell<Vec<Rc<LeasePeer>>>,
    deadline: SimDuration,
    registry: Registry,
    revocations_sent: Counter,
    failed_revocations: Counter,
    quarantines: Counter,
}

impl LeaseHub {
    /// Per-revocation deadline: a lost revoke must not wedge the mutation
    /// that triggered it (`RpcClient::post` blackholes under fault plans). The
    /// lease TTL bounds the staleness of the leaked lease.
    pub const REVOKE_DEADLINE: SimDuration = SimDuration::millis(2);

    /// Consecutive failed revocations before a client is quarantined.
    pub const QUARANTINE_AFTER: u32 = 3;

    /// An empty hub.
    pub fn new(handle: SimHandle) -> Rc<LeaseHub> {
        let registry = Registry::new();
        Rc::new(LeaseHub {
            handle,
            peers: RefCell::new(Vec::new()),
            deadline: Self::REVOKE_DEADLINE,
            revocations_sent: registry.counter("revocations_sent"),
            failed_revocations: registry.counter("failed_revocations"),
            quarantines: registry.counter("quarantines"),
            registry,
        })
    }

    /// Register one client's revocation endpoint. Re-registration after
    /// quarantine is just another call: the new entry starts healthy.
    pub fn register(&self, peer: RpcClient<LeaseRevoke, LeaseAck>) {
        self.peers.borrow_mut().push(Rc::new(LeasePeer {
            client: peer,
            consecutive_failures: Cell::new(0),
            quarantined: Cell::new(false),
        }));
    }

    /// Number of registered clients (quarantined ones included).
    pub fn peer_count(&self) -> usize {
        self.peers.borrow().len()
    }

    /// Number of currently quarantined clients.
    pub fn quarantined_count(&self) -> usize {
        self.peers
            .borrow()
            .iter()
            .filter(|p| p.quarantined.get())
            .count()
    }

    /// Revoke `path` on every registered client, waiting for the acks
    /// (or the per-peer deadline). Callers must invoke this *before*
    /// deleting or updating the path's stat entry — the invalidation
    /// ordering rule that keeps leases NoCache-equivalent. Quarantined
    /// clients are skipped entirely.
    pub async fn revoke(&self, path: &str) {
        let peers: Vec<Rc<LeasePeer>> = self
            .peers
            .borrow()
            .iter()
            .filter(|p| !p.quarantined.get())
            .cloned()
            .collect();
        if peers.is_empty() {
            return;
        }
        let futs: Vec<_> = peers
            .iter()
            .map(|peer| {
                let (h, deadline) = (self.handle.clone(), self.deadline);
                let sent = peer.client.post(LeaseRevoke {
                    path: path.to_string(),
                });
                async move { matches!(timeout(&h, deadline, sent).await, Some(Some(LeaseAck))) }
            })
            .collect();
        let acked = join_all(&self.handle, futs).await;
        self.revocations_sent.add(acked.len() as u64);
        for (peer, ok) in peers.iter().zip(&acked) {
            if *ok {
                peer.consecutive_failures.set(0);
            } else {
                self.failed_revocations.inc();
                let n = peer.consecutive_failures.get() + 1;
                peer.consecutive_failures.set(n);
                if n >= Self::QUARANTINE_AFTER {
                    peer.quarantined.set(true);
                    self.quarantines.inc();
                }
            }
        }
    }
}

impl MetricSource for LeaseHub {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        snap.set_gauge(
            imca_metrics::prefixed(prefix, "registered_clients"),
            self.peers.borrow().len() as i64,
        );
        snap.set_gauge(
            imca_metrics::prefixed(prefix, "quarantined_clients"),
            self.quarantined_count() as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ImcaConfig;
    use crate::mcd::{Bank, RetryPolicy};
    use bytes::Bytes;
    use imca_fabric::{Network, Transport};
    use imca_glusterfs::Translator;
    use imca_memcached::McConfig;
    use imca_sim::Sim;

    /// A server-side stand-in with a configurable file table, answering
    /// each fop after `delay` (none by default).
    struct FakeServer {
        files: RefCell<HashMap<String, FileStat>>,
        /// Paths statted, batched or not.
        stats_served: Cell<u64>,
        /// Fops served: a batched stat is one.
        fops_served: Cell<u64>,
        delay: Option<(SimHandle, SimDuration)>,
    }

    impl FakeServer {
        fn with_files(paths: &[&str], size: u64) -> FakeServer {
            let stat = FileStat {
                size,
                mtime_ns: 1,
                ctime_ns: 1,
            };
            FakeServer {
                files: RefCell::new(paths.iter().map(|p| (p.to_string(), stat)).collect()),
                stats_served: Cell::new(0),
                fops_served: Cell::new(0),
                delay: None,
            }
        }

        fn with_file(path: &str, size: u64) -> Rc<FakeServer> {
            Rc::new(FakeServer::with_files(&[path], size))
        }

        fn stat(&self, path: &str) -> Result<FileStat, FsError> {
            self.stats_served.set(self.stats_served.get() + 1);
            self.files
                .borrow()
                .get(path)
                .copied()
                .ok_or(FsError::NotFound)
        }
    }

    impl Translator for FakeServer {
        fn name(&self) -> &'static str {
            "fake-server"
        }
        fn handle(self: Rc<Self>, fop: Fop) -> imca_glusterfs::FopFuture {
            Box::pin(async move {
                self.fops_served.set(self.fops_served.get() + 1);
                if let Some((h, delay)) = &self.delay {
                    h.sleep(*delay).await;
                }
                match fop {
                    Fop::Stat { path } => FopReply::Stat(self.stat(&path)),
                    Fop::StatMulti { paths } => {
                        FopReply::StatMulti(paths.iter().map(|p| self.stat(p)).collect())
                    }
                    other => other.err_reply(FsError::Io),
                }
            })
        }
    }

    /// A bank of `n` default-sized daemons.
    fn bank_of(n: usize) -> ImcaConfig {
        ImcaConfig {
            mcd_count: n,
            mcd_config: McConfig::default(),
            ..ImcaConfig::default()
        }
    }

    fn rig(sim: &Sim, cfg: MetaConfig, server: Rc<FakeServer>) -> (Rc<MetaEngine>, Rc<BankClient>) {
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank_cfg = bank_of(2);
        let mcds = Bank::start(&net, &bank_cfg);
        let bank = Rc::new(mcds.client(net.add_node(), &bank_cfg, RetryPolicy::default()));
        let child: Xlator = server;
        let eng = MetaEngine::new(sim.handle(), child, Rc::clone(&bank), cfg);
        sim.handle().spawn(async move {
            let _keepalive = mcds;
            std::future::pending::<()>().await;
        });
        (eng, bank)
    }

    #[test]
    fn nocache_policy_always_forwards() {
        let mut sim = Sim::new(0);
        let server = FakeServer::with_file("/f", 10);
        let (eng, _bank) = rig(&sim, MetaConfig::nocache(), Rc::clone(&server));
        sim.run_main(async move {
            for _ in 0..3 {
                let r = Rc::clone(&eng).stat("/f".into()).await;
                assert_eq!(r.source, StatSource::Backend);
                assert_eq!(r.stat.unwrap().size, 10);
            }
            assert_eq!(eng.held_leases(), 0, "NoCache must not install leases");
        });
        assert_eq!(server.stats_served.get(), 3);
    }

    #[test]
    fn bank_policy_hits_after_seed_and_misses_to_backend() {
        let mut sim = Sim::new(0);
        let server = FakeServer::with_file("/f", 10);
        let (eng, bank) = rig(&sim, MetaConfig::default(), Rc::clone(&server));
        sim.run_main(async move {
            // Miss: forwards.
            let r = Rc::clone(&eng).stat("/f".into()).await;
            assert_eq!(r.source, StatSource::Backend);
            // Seed the bank the way SMCache would.
            let st = FileStat {
                size: 10,
                mtime_ns: 1,
                ctime_ns: 1,
            };
            bank.set(&stat_key("/f"), Bytes::from(st.to_bytes())).await;
            let r = Rc::clone(&eng).stat("/f".into()).await;
            assert_eq!(r.source, StatSource::Bank);
            assert_eq!(eng.held_leases(), 0, "Bank policy holds no leases");
        });
    }

    #[test]
    fn lease_serves_locally_until_revoked() {
        let mut sim = Sim::new(0);
        let server = FakeServer::with_file("/f", 10);
        let (eng, _bank) = rig(&sim, MetaConfig::lease(), Rc::clone(&server));
        sim.run_main(async move {
            // First stat: backend fill installs a lease.
            let r = Rc::clone(&eng).stat("/f".into()).await;
            assert_eq!(r.source, StatSource::Backend);
            assert_eq!(eng.held_leases(), 1);
            // Subsequent stats never leave the client.
            for _ in 0..5 {
                let r = Rc::clone(&eng).stat("/f".into()).await;
                assert_eq!(r.source, StatSource::Lease);
                assert_eq!(r.stat.unwrap().size, 10);
            }
            // Revoke → next stat refills from the server.
            eng.revoke("/f");
            assert_eq!(eng.held_leases(), 0);
            let r = Rc::clone(&eng).stat("/f".into()).await;
            assert_eq!(r.source, StatSource::Backend);
        });
        assert_eq!(server.stats_served.get(), 2, "only the two fills forward");
    }

    #[test]
    fn lease_expires_after_ttl() {
        let mut sim = Sim::new(0);
        let server = FakeServer::with_file("/f", 10);
        let (eng, _bank) = rig(&sim, MetaConfig::lease(), Rc::clone(&server));
        let h = sim.handle();
        sim.run_main(async move {
            Rc::clone(&eng).stat("/f".into()).await;
            assert_eq!(
                Rc::clone(&eng).stat("/f".into()).await.source,
                StatSource::Lease
            );
            h.sleep(MetaEngine::LEASE_TTL).await;
            let r = Rc::clone(&eng).stat("/f".into()).await;
            assert_ne!(r.source, StatSource::Lease, "expired lease served");
        });
    }

    #[test]
    fn negative_entries_answer_repeated_enoent() {
        let mut sim = Sim::new(0);
        let server = FakeServer::with_file("/exists", 1);
        let (eng, bank) = rig(&sim, MetaConfig::lease(), Rc::clone(&server));
        sim.run_main(async move {
            // First lookup forwards and gets ENOENT.
            let r = Rc::clone(&eng).stat("/ghost".into()).await;
            assert_eq!(r.source, StatSource::Backend);
            assert_eq!(r.stat, Err(FsError::NotFound));
            // Plant the marker the way SMCache would, and drop the
            // negative lease so the next lookup has to ask the bank.
            bank.set(&stat_key("/ghost"), Bytes::from_static(NEG_MARKER))
                .await;
            eng.revoke("/ghost");
            let r = Rc::clone(&eng).stat("/ghost".into()).await;
            assert_eq!(r.source, StatSource::Negative);
            assert_eq!(r.stat, Err(FsError::NotFound));
        });
        assert_eq!(server.stats_served.get(), 1);
    }

    #[test]
    fn negative_lease_is_held_and_revoked_like_a_positive_one() {
        let mut sim = Sim::new(0);
        let server = FakeServer::with_file("/exists", 1);
        let (eng, _bank) = rig(&sim, MetaConfig::lease(), Rc::clone(&server));
        sim.run_main(async move {
            // ENOENT from the backend installs a negative lease.
            Rc::clone(&eng).stat("/ghost".into()).await;
            assert_eq!(eng.held_leases(), 1);
            let r = Rc::clone(&eng).stat("/ghost".into()).await;
            assert_eq!(r.source, StatSource::Negative);
            // The create-side revoke drops it.
            eng.revoke("/ghost");
            let r = Rc::clone(&eng).stat("/ghost".into()).await;
            assert_eq!(r.source, StatSource::Backend);
        });
        assert_eq!(server.stats_served.get(), 2);
    }

    #[test]
    fn revocation_during_fill_blocks_the_install() {
        // The epoch guard: a revoke that lands while a fill is in flight
        // must prevent the (possibly stale) reply from installing.
        let mut sim = Sim::new(0);
        let server = FakeServer::with_file("/f", 10);
        let (eng, _bank) = rig(&sim, MetaConfig::lease(), Rc::clone(&server));
        let h = sim.handle();
        let e2 = Rc::clone(&eng);
        sim.run_main(async move {
            let filler = Rc::clone(&e2);
            h.spawn(async move {
                let _ = filler.stat("/f".into()).await;
            });
            // Revoke while the fill's RPCs are in flight.
            h.sleep(SimDuration::micros(1)).await;
            e2.revoke("/f");
            h.sleep(SimDuration::millis(5)).await;
            assert_eq!(e2.held_leases(), 0, "stale fill installed a lease");
        });
    }

    #[test]
    fn stat_multi_batches_the_bank_round() {
        let mut sim = Sim::new(0);
        // /d/0 … /d/3 live at the server only; /d/b is seeded in the
        // bank below; /d/ghost exists nowhere.
        let at_server = ["/d/0", "/d/1", "/d/2", "/d/3"];
        let server = Rc::new(FakeServer::with_files(&at_server, 1));
        let (eng, bank) = rig(&sim, MetaConfig::lease(), Rc::clone(&server));
        let window: Vec<String> = ["/d/0", "/d/b", "/d/1", "/d/2", "/d/ghost", "/d/3"]
            .map(String::from)
            .into();
        let e2 = Rc::clone(&eng);
        sim.run_main(async move {
            let st = FileStat {
                size: 2,
                mtime_ns: 1,
                ctime_ns: 1,
            };
            bank.set(&stat_key("/d/b"), Bytes::from(st.to_bytes()))
                .await;
            let rs = Rc::clone(&e2).stat_multi(window.clone()).await;
            for (path, r) in window.iter().zip(&rs) {
                let want = match path.as_str() {
                    "/d/b" => (Ok(2), StatSource::Bank),
                    "/d/ghost" => (Err(FsError::NotFound), StatSource::Backend),
                    _ => (Ok(1), StatSource::Backend),
                };
                assert_eq!((r.stat.map(|st| st.size), r.source), want, "{path}");
            }
            // The five misses cost one server fop and hold five leases,
            // beside the bank hit's.
            assert_eq!(e2.held_leases(), 6);
            // Second batch: everything is leased now (incl. the negative).
            let rs = Rc::clone(&e2).stat_multi(window).await;
            let sources: Vec<_> = rs.iter().map(|r| r.source).collect();
            let mut want = [StatSource::Lease; 6];
            want[4] = StatSource::Negative;
            assert_eq!(sources, want);
        });
        assert_eq!(server.fops_served.get(), 1);
        assert_eq!(server.stats_served.get(), 5);
        // The fill count is per path, not per fop.
        let snap = imca_metrics::collect_from(&*eng, "meta");
        assert_eq!(snap.counter("meta.backend_fills"), Some(5));
        assert_eq!(snap.counter("meta.leases_installed"), Some(6));
    }

    #[test]
    fn a_revocation_mid_batch_installs_none_of_it() {
        // The epoch guard over a batch: a revoke of any path while the
        // one fop is at the server voids every install it would make,
        // whichever path it named.
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let server = Rc::new(FakeServer {
            delay: Some((h.clone(), SimDuration::millis(1))),
            ..FakeServer::with_files(&["/d/a", "/d/b"], 3)
        });
        let (eng, _bank) = rig(&sim, MetaConfig::lease(), Rc::clone(&server));
        let e2 = Rc::clone(&eng);
        sim.run_main(async move {
            let filler = Rc::clone(&e2);
            let (tx, batch) = imca_sim::sync::oneshot();
            h.spawn(async move {
                let window = vec!["/d/a".into(), "/d/b".into(), "/d/ghost".into()];
                tx.send(filler.stat_multi(window).await);
            });
            // The bank round is long over; the fop is at the server.
            h.sleep(SimDuration::micros(500)).await;
            assert_eq!(
                server.fops_served.get(),
                1,
                "the batch is not at the server"
            );
            e2.revoke("/d/elsewhere");
            let rs = batch.await.expect("the batch finished");
            assert!(rs.iter().all(|r| r.source == StatSource::Backend));
            assert_eq!(rs[1].stat.map(|st| st.size), Ok(3));
            assert_eq!(e2.held_leases(), 0, "a stale batch installed a lease");
        });
        let snap = imca_metrics::collect_from(&*eng, "meta");
        assert_eq!(snap.counter("meta.install_races"), Some(3));
    }

    #[test]
    fn hub_revokes_before_returning_and_counts_peers() {
        let mut sim = Sim::new(0);
        let server = FakeServer::with_file("/f", 10);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank_cfg = bank_of(1);
        let mcds = Bank::start(&net, &bank_cfg);
        let client_node = net.add_node();
        let server_node = net.add_node();
        let bank = Rc::new(mcds.client(client_node, &bank_cfg, RetryPolicy::default()));
        let child: Xlator = server;
        let eng = MetaEngine::new(sim.handle(), child, Rc::clone(&bank), MetaConfig::lease());
        let hub = LeaseHub::new(sim.handle());
        let svc: Service<LeaseRevoke, LeaseAck> = Service::bind(&net, client_node);
        serve_revocations(&eng, &svc);
        hub.register(svc.client(server_node));
        assert_eq!(hub.peer_count(), 1);
        sim.handle().spawn(async move {
            let _keepalive = mcds;
            std::future::pending::<()>().await;
        });
        let e2 = Rc::clone(&eng);
        sim.run_main(async move {
            Rc::clone(&e2).stat("/f".into()).await;
            assert_eq!(e2.held_leases(), 1);
            // The hub's revoke must complete synchronously w.r.t. the
            // caller: when it returns, the lease is gone.
            hub.revoke("/f").await;
            assert_eq!(e2.held_leases(), 0);
        });
    }

    #[test]
    fn hub_quarantines_a_mute_client_and_readmits_on_reregister() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server_node = net.add_node();
        let hub = LeaseHub::new(sim.handle());
        // Client A acks every revoke.
        let a_node = net.add_node();
        let a_svc: Service<LeaseRevoke, LeaseAck> = Service::bind(&net, a_node);
        a_svc.serve(Workers::Inline, |_: LeaseRevoke| async { LeaseAck });
        hub.register(a_svc.client(server_node));
        // Client B is mute: its endpoint exists but nothing serves it, so
        // every revoke to it runs out the 2ms deadline.
        let b_node = net.add_node();
        let b_svc: Service<LeaseRevoke, LeaseAck> = Service::bind(&net, b_node);
        hub.register(b_svc.client(server_node));
        let hub2 = Rc::clone(&hub);
        let h = sim.handle();
        sim.run_main(async move {
            for round in 0..LeaseHub::QUARANTINE_AFTER {
                assert_eq!(hub2.quarantined_count(), 0, "round {round}");
                hub2.revoke("/f").await;
            }
            // K consecutive failures: B is out of the fan-out…
            assert_eq!(hub2.quarantined_count(), 1);
            // …so the next revoke no longer pays B's deadline stall.
            let t0 = h.now();
            hub2.revoke("/f").await;
            assert!(
                h.now().since(t0) < LeaseHub::REVOKE_DEADLINE,
                "quarantined peer still stalls the fan-out"
            );
            // B remounts: a fresh registration starts healthy and serves.
            b_svc.serve(Workers::Inline, |_: LeaseRevoke| async { LeaseAck });
            hub2.register(b_svc.client(server_node));
            hub2.revoke("/f").await;
            // The revived B acked; only the dead entry stays quarantined.
            assert_eq!(hub2.quarantined_count(), 1);
        });
        let snap = imca_metrics::collect_from(&*hub, "leases");
        assert_eq!(snap.counter("leases.failed_revocations"), Some(3));
        assert_eq!(snap.counter("leases.quarantines"), Some(1));
        assert_eq!(snap.gauge("leases.quarantined_clients"), Some(1));
        assert_eq!(snap.gauge("leases.registered_clients"), Some(3));
        // 3 rounds × 2 peers + 1 round × 1 peer + 1 round × 2 peers.
        assert_eq!(snap.counter("leases.revocations_sent"), Some(9));
    }
}

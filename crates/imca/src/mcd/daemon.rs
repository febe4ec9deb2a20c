//! The daemon side of the bank: the wire messages, one MCD node's actor
//! and service-time model, and the [`Bank`] handle that owns the array.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use imca_fabric::{Daemon, Handler, Network, NodeId, Service, WireSize, Workers};
use imca_memcached::protocol::{Command, Response, StoreVerb};
use imca_memcached::{McConfig, McServer, McStats};
use imca_metrics::{prefixed, Counter, Histogram, MetricSource, Registry, Snapshot};
use imca_sim::{SimDuration, SimHandle};

use super::client::BankClient;
use super::policy::RetryPolicy;
use crate::cluster::ImcaConfig;

/// One frame to a daemon: the commands a client sends it in one message,
/// applied in order (DESIGN.md §4c). A batched bank round puts each
/// daemon's whole share in one frame, the way libmemcached's buffered
/// requests go out in one write; a single-key call is a one-command
/// frame.
#[derive(Debug, Clone)]
pub struct McdReq(pub Vec<Command>);

/// The reply frame: one entry per command, in command order (`None` for
/// a `noreply` command, which puts no bytes on the wire).
#[derive(Debug, Clone)]
pub struct McdResp(pub Vec<Option<Response>>);

impl McdReq {
    /// A frame of one command.
    pub(super) fn one(cmd: Command) -> McdReq {
        McdReq(vec![cmd])
    }
}

impl McdResp {
    /// The answer to the frame's command at `pos`, if it produced one.
    pub(super) fn at(&self, pos: usize) -> Option<&Response> {
        self.0.get(pos).and_then(Option::as_ref)
    }
}

/// Text-protocol size of one command, without paying for an actual
/// encode.
fn command_bytes(cmd: &Command) -> usize {
    match cmd {
        Command::Store {
            verb, key, data, ..
        } => {
            // A `cas` line additionally carries the decimal token.
            let token = match verb {
                StoreVerb::Cas(_) => 21,
                _ => 0,
            };
            24 + token + key.len() + data.len()
        }
        Command::Get { keys, with_cas } => {
            // `gets` vs `get`: one extra command byte.
            6 + usize::from(*with_cas) + keys.iter().map(|k| k.len() + 1).sum::<usize>()
        }
        Command::Delete { key, .. } => 9 + key.len(),
        Command::Version => 9,
    }
}

/// Text-protocol size of one answer; a `noreply` command sends none.
fn response_bytes(resp: &Option<Response>) -> usize {
    match resp {
        // A store that asked for its token carries it in decimal, as a
        // `gets` value does.
        Some(Response::StoredCas(_)) => 16 + 21,
        Some(Response::Values(values)) => {
            // A `gets` reply carries the decimal CAS token per value.
            5 + values
                .iter()
                .map(|v| 24 + v.key.len() + v.data.len() + v.cas.map_or(0, |_| 21))
                .sum::<usize>()
        }
        Some(_) => 16,
        None => 0,
    }
}

impl WireSize for McdReq {
    /// The sum of the frame's command sizes.
    fn wire_bytes(&self) -> usize {
        self.0.iter().map(command_bytes).sum()
    }
}

impl WireSize for McdResp {
    /// The sum of the frame's answer sizes.
    fn wire_bytes(&self) -> usize {
        self.0.iter().map(response_bytes).sum()
    }
}

/// Value copy bandwidth of a daemon, bytes/s.
const MEMCPY_BPS: f64 = 3e9;

/// Service-time model for one daemon: event-loop CPU per command plus a
/// memcpy of the value bytes touched at 3 GB/s.
#[derive(Debug, Clone)]
pub struct McdCosts {
    /// Fixed per-command processing (hash, LRU, slab bookkeeping).
    pub per_op: SimDuration,
    /// Admission control: commands admitted onto the event loop at once
    /// (serving + queued), each command of a frame counted. When full, a
    /// frame that is one plain *read* is refused immediately with `SERVER_ERROR busy` instead of queueing
    /// unboundedly — the client treats the shed as a miss and falls
    /// through to the backend. Frames of writes, deletes, sync barriers
    /// and the write path's token fetch (`gets`) are always admitted:
    /// shedding a purge or store would leave replicas stale, which the
    /// coherence machinery only knows how to handle via quarantine, and a
    /// refused token fetch would read as "nothing cached here to
    /// replace". `None` (the default) leaves the queue unbounded.
    pub queue_limit: Option<usize>,
}

impl Default for McdCosts {
    fn default() -> McdCosts {
        McdCosts {
            per_op: SimDuration::micros(3),
            queue_limit: None,
        }
    }
}

/// A running MCD node.
pub struct McdNode {
    /// Fabric node the daemon runs on.
    pub node: NodeId,
    pub(super) service: Service<McdReq, McdResp>,
    server: Rc<McServer>,
    /// The daemon's liveness and admission queue: killed and revived
    /// through [`Bank`], read by every [`BankClient`] (libmemcache
    /// notices connect failures immediately).
    pub(super) daemon: Daemon,
    /// Sticky write-safety flag, shared by every [`BankClient`]: set when
    /// any client's *write* to this daemon fails (a timed-out or reset
    /// frame, store or delete), because the daemon may hold state that a
    /// failed purge or push left stale. A quarantined daemon is a local
    /// miss for everyone until [`Bank::revive`] — which restarts it empty
    /// — clears the flag. Unlike the per-client circuit breaker this never
    /// auto-expires: time cannot prove the stale data went away.
    pub(super) quarantined: Rc<Cell<bool>>,
    /// Reads refused with `busy` by admission control (also in the
    /// registry; kept here so [`Bank::collect`] can publish the
    /// `per_daemon.{i}.sheds` imbalance view).
    sheds: Counter,
    registry: Registry,
}

impl McdNode {
    /// Scrape this daemon's `stats` (out-of-band, like the paper's
    /// "statistics taken from the MCDs").
    pub fn stats(&self) -> McStats {
        self.server.store().stats()
    }

    /// Direct access to the engine (tests).
    pub fn server(&self) -> &McServer {
        &self.server
    }

    /// Whether the daemon is accepting requests.
    pub fn is_alive(&self) -> bool {
        self.daemon.is_up()
    }

    /// Whether a failed write has quarantined this daemon (see the field
    /// docs — cleared only by [`Bank::revive`]).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.get()
    }
}

impl MetricSource for McdNode {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        self.server
            .store()
            .collect(&prefixed(prefix, "store"), snap);
        let mut gauge = |name, v: u64| snap.set_gauge(prefixed(prefix, name), v as i64);
        gauge("alive", self.daemon.is_up().into());
        gauge("quarantined", self.quarantined.get().into());
        gauge("queue_depth", self.daemon.queue_depth());
        gauge("queue_peak", self.daemon.queue_peak());
    }
}

/// One daemon's request handling on the fabric's server actor: admission
/// control, the engine under its service-time model, and the daemon's
/// request series.
struct McdHandler {
    server: Rc<McServer>,
    costs: McdCosts,
    h: SimHandle,
    requests: Counter,
    dropped: Counter,
    sheds: Counter,
    /// Sojourn time: queueing on the event loop included.
    service_ns: Histogram,
}

impl Handler<McdReq, McdResp> for McdHandler {
    /// Apply the frame's commands in order, then hold the event loop for
    /// the sum of their service times: each command its `per_op` plus a
    /// memcpy of the value bytes it stores or returns.
    fn work(&self, req: McdReq) -> impl Future<Output = McdResp> + 'static {
        let now_secs = self.h.now().as_nanos() / 1_000_000_000;
        let mut service = SimDuration::ZERO;
        let resps = req
            .0
            .iter()
            .map(|cmd| {
                let resp = self.server.apply(cmd, now_secs);
                let touched = match (cmd, &resp) {
                    (Command::Store { data, .. }, _) => data.len(),
                    (_, Some(Response::Values(vals))) => vals.iter().map(|v| v.data.len()).sum(),
                    _ => 0,
                };
                service +=
                    self.costs.per_op + SimDuration::from_secs_f64(touched as f64 / MEMCPY_BPS);
                resp
            })
            .collect();
        let sleep = self.h.sleep(service);
        async move {
            sleep.await;
            McdResp(resps)
        }
    }

    /// A full queue sheds reads with an explicit `busy` before they touch
    /// the event loop. Only a frame that is one plain read — a `gets` is
    /// the write path fetching its tokens, and a longer frame carries
    /// writes or a sync; see the `queue_limit` docs. `depth` counts the
    /// commands queued ahead (`McdHandler::weight`).
    fn admit(&self, req: &McdReq, depth: u64) -> Option<McdResp> {
        let read = matches!(req.0[..], [Command::Get { with_cas, .. }] if !with_cas);
        if read && self.costs.queue_limit.is_some_and(|l| depth >= l as u64) {
            self.sheds.inc();
            return Some(McdResp(vec![Some(Response::busy())]));
        }
        self.requests.inc();
        None
    }

    /// A frame holds the queue for each of its commands, as many
    /// one-command requests would.
    fn weight(&self, req: &McdReq) -> u64 {
        req.0.len() as u64
    }

    fn dropped(&self) {
        self.dropped.inc();
    }

    fn answered(&self, sojourn: SimDuration) {
        self.service_ns.record_duration(sojourn);
    }
}

/// Start a memcached daemon at `node`. `cfg` is the `-m` style config;
/// `costs` its service-time model. The daemon holds its single event
/// loop for a whole frame, apply plus service time, so concurrent frames
/// queue behind each other in arrival order, and a frame's trailing
/// `version` answers only after every `noreply` command before it has
/// applied.
pub fn start_mcd(net: &Network, node: NodeId, cfg: McConfig, costs: McdCosts) -> McdNode {
    let service = Service::bind(net, node);
    let server = Rc::new(McServer::new(cfg));
    let registry = Registry::new();
    let sheds = registry.counter("sheds");
    let daemon = service.serve(
        Workers::Held,
        McdHandler {
            server: Rc::clone(&server),
            costs,
            h: net.handle(),
            requests: registry.counter("requests"),
            dropped: registry.counter("dropped"),
            sheds: sheds.clone(),
            service_ns: registry.histogram("service_ns"),
        },
    );
    McdNode {
        node,
        service,
        server,
        daemon,
        quarantined: Rc::new(Cell::new(false)),
        sheds,
        registry,
    }
}

/// The MCD bank as an owned, administrable unit: failure injection goes
/// through [`Bank::kill`] / [`Bank::revive`] (which also maintain the
/// `mcd_failovers` / `mcd_revivals` metrics), its counters are read
/// through its [`MetricSource`], and consumers connect with
/// [`Bank::client`].
pub struct Bank {
    nodes: Vec<McdNode>,
    registry: Registry,
    mcd_failovers: Counter,
    mcd_revivals: Counter,
}

impl Bank {
    /// Spin up the `cfg.mcd_count` daemons `cfg` describes (`mcd_config`,
    /// `mcd_costs`) on fresh fabric nodes, placed on `cfg.bank_transport`
    /// when it is set (the RDMA ablation), so every request and reply of
    /// the bank travels on it while the file server stays on the network
    /// default.
    pub fn start(net: &Network, cfg: &ImcaConfig) -> Bank {
        let registry = Registry::new();
        let node = || match &cfg.bank_transport {
            Some(transport) => net.add_node_on(transport.clone()),
            None => net.add_node(),
        };
        Bank {
            nodes: (0..cfg.mcd_count)
                .map(|_| start_mcd(net, node(), cfg.mcd_config.clone(), cfg.mcd_costs.clone()))
                .collect(),
            mcd_failovers: registry.counter("mcd_failovers"),
            mcd_revivals: registry.counter("mcd_revivals"),
            registry,
        }
    }

    /// The daemons, in bank order (index = routing slot).
    pub fn nodes(&self) -> &[McdNode] {
        &self.nodes
    }

    /// Kill daemon `i`: it stops answering; in-flight requests are
    /// dropped. Stored items stay in memory (they are unreachable until
    /// revival, like a partitioned daemon). Counts one failover on the
    /// alive→dead transition.
    pub fn kill(&self, i: usize) {
        if self.nodes[i].daemon.crash() {
            self.mcd_failovers.inc();
        }
    }

    /// Revive daemon `i`. The daemon restarts *empty*, as a crashed
    /// memcached would — rejoining with old memory intact is the
    /// stale-resurfacing hazard [`BankClient`]'s routing exists to avoid.
    /// A revived daemon begins a new incarnation, so nothing its killed
    /// one had queued lands in it. Restarting empty is also why revival
    /// is the one operation allowed to lift a write-failure quarantine:
    /// there is provably nothing stale left to serve. Reviving a daemon
    /// that is up flushes it and lifts the quarantine too, but keeps its
    /// incarnation and the requests it is serving.
    pub fn revive(&self, i: usize) {
        let node = &self.nodes[i];
        node.server.store().flush_all();
        node.quarantined.set(false);
        if node.daemon.restart() {
            self.mcd_revivals.inc();
        }
    }

    /// Daemons killed through this handle so far (dead→alive transitions
    /// not counted back).
    pub fn failovers(&self) -> u64 {
        self.mcd_failovers.get()
    }

    /// Connect a consumer at `from` to every daemon, the way `cfg`
    /// describes the deployment: its selector, block size and replica
    /// placement. `policy` is the one setting that
    /// differs by side — `cfg.retry` for a client, `cfg.server_retry` for
    /// the server's SMCache.
    pub fn client(&self, from: NodeId, cfg: &ImcaConfig, policy: RetryPolicy) -> BankClient {
        BankClient::connect(&self.nodes, from, cfg, policy)
    }
}

impl MetricSource for Bank {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        let mut max_gets = 0u64;
        let mut total_gets = 0u64;
        for (i, node) in self.nodes.iter().enumerate() {
            node.collect(&prefixed(prefix, &format!("mcd.{i}")), snap);
            let gets = node.stats().cmd_get;
            snap.set_counter(prefixed(prefix, &format!("per_daemon.{i}.gets")), gets);
            snap.set_counter(
                prefixed(prefix, &format!("per_daemon.{i}.sheds")),
                node.sheds.get(),
            );
            max_gets = max_gets.max(gets);
            total_gets += gets;
        }
        // Load-imbalance summary: a perfectly spread bank has max == mean;
        // the Fig 10 shared-file pattern at R=1 pushes max toward the
        // whole-bank total because every client's GETs for a given block
        // land on one daemon.
        snap.set_counter(prefixed(prefix, "per_daemon.max_gets"), max_gets);
        snap.set_gauge(
            prefixed(prefix, "per_daemon.mean_gets"),
            (total_gets as f64 / self.nodes.len().max(1) as f64).round() as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_fabric::Transport;
    use imca_sim::Sim;

    /// A one-daemon bank with `costs` and a default-sized store.
    fn one_mcd(costs: McdCosts) -> ImcaConfig {
        ImcaConfig {
            mcd_config: McConfig::default(),
            mcd_costs: costs,
            ..ImcaConfig::default()
        }
    }

    #[test]
    fn concurrent_ops_queue_on_the_single_event_loop() {
        // The daemon models memcached's single event loop: two
        // simultaneous commands must be serviced one after the other, so
        // the makespan is at least twice the per-op service time (a
        // parallel server would overlap them and finish in ~one).
        fn makespan(nops: usize) -> u64 {
            let mut sim = Sim::new(0);
            let net = Network::new(sim.handle(), Transport::ipoib_ddr());
            let costs = McdCosts {
                per_op: SimDuration::micros(500),
                ..McdCosts::default()
            };
            let cfg = one_mcd(costs);
            let bank = Rc::new(Bank::start(&net, &cfg));
            let gets: Vec<_> = (0..nops)
                .map(|_| {
                    // Each op from its own node, so the NICs don't serialise
                    // the requests before they reach the daemon.
                    let client = bank.client(net.add_node(), &cfg, RetryPolicy::default());
                    async move { client.get(b"/k:stat").await }
                })
                .collect();
            let h = sim.handle();
            sim.run_main(async move { imca_sim::join_all(&h, gets).await });
            sim.now().as_nanos()
        }
        let one = makespan(1);
        let two = makespan(2);
        assert!(
            two >= 2 * SimDuration::micros(500).as_nanos(),
            "two concurrent ops did not queue on the CPU: one={one} two={two}"
        );
        assert!(two > one, "one={one} two={two}");
    }

    #[test]
    fn queue_limit_bounds_depth_under_concurrency() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        // Slow daemon + four simultaneous readers from distinct nodes:
        // one occupies the queue slot, the rest bounce off it.
        let costs = McdCosts {
            per_op: SimDuration::micros(500),
            queue_limit: Some(1),
        };
        let cfg = one_mcd(costs);
        let bank = Rc::new(Bank::start(&net, &cfg));
        let gets: Vec<_> = (0..4)
            .map(|_| {
                let client = bank.client(net.add_node(), &cfg, RetryPolicy::default());
                async move { client.get(b"/k:stat").await }
            })
            .collect();
        let h = sim.handle();
        sim.run_main(async move { imca_sim::join_all(&h, gets).await });
        let snap = imca_metrics::collect_from(&*bank, "bank");
        let sheds = snap.counter("bank.mcd.0.sheds").unwrap();
        assert!((1..=3).contains(&sheds), "sheds={sheds}");
        assert_eq!(snap.gauge("bank.mcd.0.queue_peak"), Some(1));
        assert_eq!(snap.gauge("bank.mcd.0.queue_depth"), Some(0), "drained");
    }

    #[test]
    fn a_frame_holds_the_queue_for_each_of_its_commands() {
        // A purge of three keys is one frame of four commands (three
        // deletes and the sync). With a limit of four, a read that
        // arrives while that frame is served finds the queue full, as it
        // would behind four one-command requests.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let cfg = one_mcd(McdCosts {
            per_op: SimDuration::micros(500),
            queue_limit: Some(4),
        });
        let bank = Rc::new(Bank::start(&net, &cfg));
        let purger = Rc::new(bank.client(net.add_node(), &cfg, RetryPolicy::default()));
        let reader = bank.client(net.add_node(), &cfg, RetryPolicy::default());
        let h = sim.handle();
        let got = sim.run_main(async move {
            let keys = [b"a", b"b", b"c"].map(|k| k.to_vec()).into();
            h.spawn(async move { purger.remove_keys(keys).await });
            h.sleep(SimDuration::micros(200)).await;
            let got = reader.get(b"a").await;
            // The frame holds the event loop for 2 ms.
            h.sleep(SimDuration::millis(3)).await;
            got
        });
        assert!(got.is_none());
        let snap = imca_metrics::collect_from(&*bank, "bank");
        assert_eq!(snap.counter("bank.mcd.0.sheds"), Some(1));
        assert_eq!(snap.counter("bank.mcd.0.requests"), Some(1), "one frame");
        assert_eq!(snap.gauge("bank.mcd.0.queue_peak"), Some(4));
        assert_eq!(snap.gauge("bank.mcd.0.queue_depth"), Some(0), "drained");
    }

    #[test]
    fn a_revived_daemon_starts_empty_of_its_killed_life_s_queue() {
        // Two sets from two nodes reach a 500 µs-per-op daemon together:
        // `a` holds the event loop and `b` waits for it. Killed and
        // revived at 100 µs, the daemon must come back empty: `a` dies
        // mid-service, and `b`, queued by the killed life, never lands.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let cfg = one_mcd(McdCosts {
            per_op: SimDuration::micros(500),
            ..McdCosts::default()
        });
        let bank = Rc::new(Bank::start(&net, &cfg));
        let sets: Vec<_> = [b"a", b"b"]
            .map(|key| {
                let client = Rc::new(bank.client(net.add_node(), &cfg, RetryPolicy::default()));
                async move { client.set(key, bytes::Bytes::from_static(b"v")).await }
            })
            .into();
        let h = sim.handle();
        let b2 = Rc::clone(&bank);
        h.spawn({
            let h = h.clone();
            async move {
                h.sleep(SimDuration::micros(100)).await;
                b2.kill(0);
                b2.revive(0);
            }
        });
        sim.run_main(async move { imca_sim::join_all(&h, sets).await });
        let store = bank.nodes()[0].server().store();
        for key in [b"a", b"b"] {
            assert!(store.get(key, 0).is_none(), "{:?} outlived the kill", key);
        }
        let snap = imca_metrics::collect_from(&*bank, "bank");
        assert_eq!(snap.counter("bank.mcd.0.dropped"), Some(2));
    }
}

//! The daemon side of the bank: the wire messages, one MCD node's actor
//! and service-time model, and the [`Bank`] handle that owns the array.

use std::cell::Cell;
use std::rc::Rc;

use imca_fabric::{Network, NodeId, Service, WireSize};
use imca_memcached::protocol::{Command, Response, StoreVerb};
use imca_memcached::{McConfig, McServer, McStats};
use imca_metrics::{prefixed, Counter, MetricSource, Registry, Snapshot};
use imca_sim::sync::Resource;
use imca_sim::SimDuration;

use super::client::BankClient;
use super::policy::RetryPolicy;
use crate::cluster::ImcaConfig;

/// Request wrapper carrying a memcached protocol command across the fabric.
#[derive(Debug, Clone)]
pub struct McdReq(pub Command);

/// Response wrapper (None = noreply command, which produces no frame).
#[derive(Debug, Clone)]
pub struct McdResp(pub Option<Response>);

impl WireSize for McdReq {
    fn wire_bytes(&self) -> usize {
        // Text-protocol framing without paying for an actual encode.
        match &self.0 {
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
}

impl WireSize for McdResp {
    fn wire_bytes(&self) -> usize {
        match &self.0 {
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
    /// (serving + queued). When full, *reads* are refused immediately
    /// with `SERVER_ERROR busy` instead of queueing unboundedly — the
    /// client treats the shed as a miss and falls through to the
    /// backend. Writes, deletes, sync barriers and the write path's token
    /// fetch (`gets`) are always admitted: shedding a purge or store would
    /// leave replicas stale, which the coherence machinery only knows how
    /// to handle via quarantine, and a refused token fetch would read as
    /// "nothing cached here to replace". `None` (the default) leaves the
    /// queue unbounded.
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

impl McdCosts {
    fn service_time(&self, touched_bytes: usize) -> SimDuration {
        self.per_op + SimDuration::from_secs_f64(touched_bytes as f64 / MEMCPY_BPS)
    }
}

/// A running MCD node.
pub struct McdNode {
    /// Fabric node the daemon runs on.
    pub node: NodeId,
    pub(super) service: Service<McdReq, McdResp>,
    server: Rc<McServer>,
    pub(super) alive: Rc<Cell<bool>>,
    /// Sticky write-safety flag, shared by every [`BankClient`]: set when
    /// any client's *write* to this daemon fails (timed-out pipeline sync,
    /// retransmit give-up, reset store/delete), because the daemon may
    /// hold state that a failed purge or push left stale. A quarantined
    /// daemon is a local miss for everyone until [`Bank::revive`] — which
    /// restarts it empty — clears the flag. Unlike the per-client circuit
    /// breaker this never auto-expires: time cannot prove the stale data
    /// went away.
    pub(super) quarantined: Rc<Cell<bool>>,
    /// Commands admitted onto the event loop right now (serving +
    /// queued) — what `McdCosts::queue_limit` bounds.
    queue_depth: Rc<Cell<u64>>,
    /// High-water mark of `queue_depth` over the daemon's lifetime.
    queue_peak: Rc<Cell<u64>>,
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
        self.alive.get()
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
        snap.set_gauge(prefixed(prefix, "alive"), self.alive.get() as i64);
        snap.set_gauge(
            prefixed(prefix, "quarantined"),
            self.quarantined.get() as i64,
        );
        snap.set_gauge(
            prefixed(prefix, "queue_depth"),
            self.queue_depth.get() as i64,
        );
        snap.set_gauge(prefixed(prefix, "queue_peak"), self.queue_peak.get() as i64);
    }
}

/// Decrements an occupancy counter when dropped — a daemon's
/// admission-control depth when the serving task ends, however it ends
/// (reply sent, killed mid-queue, or killed mid-service); a client's
/// per-daemon in-flight count when the read RPC does.
pub(super) struct DecrOnDrop(Rc<Cell<u64>>);

impl DecrOnDrop {
    /// Count one more occupant of `cell` until the guard drops.
    pub(super) fn enter(cell: &Rc<Cell<u64>>) -> DecrOnDrop {
        cell.set(cell.get() + 1);
        DecrOnDrop(Rc::clone(cell))
    }
}

impl Drop for DecrOnDrop {
    fn drop(&mut self) {
        self.0.set(self.0.get().saturating_sub(1));
    }
}

/// Start a memcached daemon at `node`. `cfg` is the `-m` style config;
/// `costs` its service-time model.
pub fn start_mcd(net: &Network, node: NodeId, cfg: McConfig, costs: McdCosts) -> McdNode {
    let service: Service<McdReq, McdResp> = Service::bind(net, node);
    let server = Rc::new(McServer::new(cfg));
    let alive = Rc::new(Cell::new(true));
    let registry = Registry::new();
    let requests = registry.counter("requests");
    let dropped = registry.counter("dropped");
    let sheds = registry.counter("sheds");
    let service_ns = registry.histogram("service_ns");
    let h = net.handle();
    let cpu = Resource::new(1); // the daemon's single event loop
                                // Commands admitted onto the event loop right now (serving + queued)
                                // — the quantity `queue_limit` bounds — plus its high-water mark.
    let queue_depth = Rc::new(Cell::new(0u64));
    let queue_peak = Rc::new(Cell::new(0u64));
    {
        let service = service.clone();
        let server = Rc::clone(&server);
        let alive = Rc::clone(&alive);
        let queue_depth = Rc::clone(&queue_depth);
        let queue_peak = Rc::clone(&queue_peak);
        let sheds = sheds.clone();
        let h2 = h.clone();
        h.spawn(async move {
            // Dispatcher: take requests off the wire immediately (the NIC
            // does not block on the event loop) and hand each one to a
            // task that holds the single-slot CPU for the *whole* command
            // — apply plus service time — so concurrent requests queue
            // behind each other instead of being serviced in parallel.
            // The resource's FIFO ticketing preserves arrival order,
            // which is what makes a trailing `version` call a sync
            // barrier for pipelined `noreply` commands.
            while let Some(incoming) = service.recv().await {
                if !alive.get() {
                    // Dead daemon: drop the request (client sees a reset).
                    dropped.inc();
                    continue;
                }
                if let Some(limit) = costs.queue_limit {
                    // Admission control: a full queue sheds reads with an
                    // explicit `busy` before they touch the event loop.
                    // Only plain reads — a `gets` is the write path
                    // fetching its tokens; see the `queue_limit` docs.
                    if queue_depth.get() >= limit as u64
                        && matches!(
                            incoming.req.0,
                            Command::Get {
                                with_cas: false,
                                ..
                            }
                        )
                    {
                        sheds.inc();
                        incoming.respond(McdResp(Some(Response::busy())));
                        continue;
                    }
                }
                requests.inc();
                queue_depth.set(queue_depth.get() + 1);
                queue_peak.set(queue_peak.get().max(queue_depth.get()));
                let t0 = h2.now();
                let server = Rc::clone(&server);
                let alive = Rc::clone(&alive);
                let cpu = cpu.clone();
                let costs = costs.clone();
                let service_ns = service_ns.clone();
                let dropped = dropped.clone();
                let queue_depth = Rc::clone(&queue_depth);
                let h3 = h2.clone();
                h2.spawn(async move {
                    let (req, replier) = incoming.into_parts();
                    let _depth = DecrOnDrop(queue_depth);
                    let _slot = cpu.acquire().await;
                    if !alive.get() {
                        // Killed while queued on the event loop.
                        dropped.inc();
                        return;
                    }
                    let touched = match &req.0 {
                        Command::Store { data, .. } => data.len(),
                        _ => 0,
                    };
                    let now_secs = h3.now().as_nanos() / 1_000_000_000;
                    let resp = server.apply(&req.0, now_secs);
                    // Response value bytes also cross the daemon's memcpy.
                    let resp_touched = match &resp {
                        Some(Response::Values(vals)) => {
                            vals.iter().map(|v| v.data.len()).sum::<usize>()
                        }
                        _ => 0,
                    };
                    h3.sleep(costs.service_time(touched + resp_touched)).await;
                    if !alive.get() {
                        // Killed mid-service: the process died before the
                        // response hit the socket.
                        dropped.inc();
                        return;
                    }
                    // Sojourn time: queueing on the event loop included.
                    service_ns.record_duration(h3.now().since(t0));
                    replier.reply(McdResp(resp));
                });
            }
        });
    }
    McdNode {
        node,
        service,
        server,
        alive,
        quarantined: Rc::new(Cell::new(false)),
        queue_depth,
        queue_peak,
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

    /// Number of daemons in the bank.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the bank has no daemons.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Kill daemon `i`: it stops answering; in-flight requests are
    /// dropped. Stored items stay in memory (they are unreachable until
    /// revival, like a partitioned daemon). Counts one failover on the
    /// alive→dead transition.
    pub fn kill(&self, i: usize) {
        if self.nodes[i].alive.replace(false) {
            self.mcd_failovers.inc();
        }
    }

    /// Revive daemon `i`. The daemon restarts *empty*, as a crashed
    /// memcached would — rejoining with old memory intact is the
    /// stale-resurfacing hazard [`BankClient`]'s routing exists to avoid.
    /// Restarting empty is also why revival is the one operation allowed
    /// to lift a write-failure quarantine: there is provably nothing stale
    /// left to serve.
    pub fn revive(&self, i: usize) {
        let node = &self.nodes[i];
        node.server.store().flush_all();
        node.quarantined.set(false);
        if !node.alive.replace(true) {
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
}

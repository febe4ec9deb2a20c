//! The switched network connecting simulated nodes.
//!
//! Every node owns a NIC modelled as a pair of FIFO stations (transmit and
//! receive). Sending a message:
//!
//! 1. holds the sender's TX station for `host_cpu_send + serialise(bytes)`,
//! 2. waits the transport's propagation latency (switch fabric is assumed
//!    non-blocking, as InfiniBand crossbars effectively are at this scale),
//! 3. holds the receiver's RX station for `host_cpu_recv + serialise(bytes)`.
//!
//! Contention therefore appears exactly where it does on real clusters: a
//! single hot server saturates its RX station, while a bank of cache nodes
//! spreads load across many stations — the effect IMCa exploits.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::future::Future;
use std::rc::Rc;

use imca_metrics::{Counter, MetricSource, Registry, Snapshot};
use imca_sim::fault::{self, FaultRng};
use imca_sim::sync::{Acquire, Resource};
use imca_sim::{SimDuration, SimHandle, SimTime};

use crate::fault::{Cut, Delivery, FaultPlan};
use crate::transport::Transport;

/// Identifies a node on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

struct Nic {
    /// The transport this node was placed on ([`Network::add_node_on`]);
    /// `None` leaves its links to the other end or the network default.
    placed_on: Option<Transport>,
    tx: Resource,
    rx: Resource,
    bytes_tx: Counter,
    bytes_rx: Counter,
    msgs_tx: Counter,
    msgs_rx: Counter,
}

impl Nic {
    /// Counters live in the network's [`Registry`] under
    /// `nic.<id>.<metric>`, so one snapshot covers every node's traffic.
    fn new(registry: &Registry, id: NodeId, placed_on: Option<Transport>) -> Nic {
        Nic {
            placed_on,
            tx: Resource::new(1),
            rx: Resource::new(1),
            bytes_tx: registry.counter(format!("nic.{}.bytes_tx", id.0)),
            bytes_rx: registry.counter(format!("nic.{}.bytes_rx", id.0)),
            msgs_tx: registry.counter(format!("nic.{}.msgs_tx", id.0)),
            msgs_rx: registry.counter(format!("nic.{}.msgs_rx", id.0)),
        }
    }
}

/// Installed fault machinery. Holds its own RNG (seeded from the plan)
/// so fault draws never perturb the simulation's main random stream.
struct FaultState {
    plan: FaultPlan,
    rng: FaultRng,
    scope: Option<BTreeSet<NodeId>>,
    cuts: Vec<Cut>,
}

impl FaultState {
    fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            rng: FaultRng::seeded(plan.seed),
            scope: plan.scope.as_ref().map(|s| s.iter().copied().collect()),
            cuts: Vec::new(),
            plan,
        }
    }

    fn in_scope(&self, src: NodeId, dst: NodeId) -> bool {
        match &self.scope {
            None => true,
            Some(scope) => scope.contains(&src) || scope.contains(&dst),
        }
    }
}

struct Inner {
    handle: SimHandle,
    transport: Transport,
    nics: RefCell<Vec<Rc<Nic>>>,
    registry: Registry,
    faults: RefCell<Option<FaultState>>,
    dropped: Counter,
    duplicated: Counter,
}

/// A message [`Network::send`] sent: its fate judged and its place in
/// the sender's TX queue taken, still to be carried
/// ([`Network::carry`]). Every message the sender sends later waits
/// behind it until it is carried; dropped uncarried, it gives its place
/// up.
pub struct Message {
    src: NodeId,
    dst: NodeId,
    bytes: usize,
    fate: Delivery,
    extra: SimDuration,
    leg: Option<Leg>,
}

/// A message's NICs, sender's first, and its place in the sender's TX
/// queue.
type Leg = (Rc<Nic>, Rc<Nic>, Acquire);

/// Handle to the simulated network. Cloning is cheap and refers to the same
/// network.
#[derive(Clone)]
pub struct Network {
    inner: Rc<Inner>,
}

impl Network {
    /// A network where all links use `transport`.
    pub fn new(handle: SimHandle, transport: Transport) -> Network {
        let registry = Registry::new();
        Network {
            inner: Rc::new(Inner {
                handle,
                transport,
                nics: RefCell::new(Vec::new()),
                dropped: registry.counter("dropped"),
                duplicated: registry.counter("duplicated"),
                registry,
                faults: RefCell::new(None),
            }),
        }
    }

    /// Register a new node on the network's default transport and return
    /// its id.
    pub fn add_node(&self) -> NodeId {
        self.register(None)
    }

    /// Register a new node placed on `transport` (the RDMA-for-the-bank
    /// ablation puts the daemons on RDMA) and return its id. A message
    /// travels on its destination's transport, else on its source's,
    /// else on the network default; see [`Network::carry`].
    pub fn add_node_on(&self, transport: Transport) -> NodeId {
        self.register(Some(transport))
    }

    fn register(&self, placed_on: Option<Transport>) -> NodeId {
        let mut nics = self.inner.nics.borrow_mut();
        let id = NodeId(nics.len() as u32);
        nics.push(Rc::new(Nic::new(&self.inner.registry, id, placed_on)));
        id
    }

    /// The simulation handle this network schedules on.
    pub fn handle(&self) -> SimHandle {
        self.inner.handle.clone()
    }

    fn nic(&self, node: NodeId) -> Rc<Nic> {
        let nics = self.inner.nics.borrow();
        Rc::clone(
            nics.get(node.0 as usize)
                .unwrap_or_else(|| panic!("{node} is not registered on this network")),
        )
    }

    /// Take `src`'s next place in its TX queue for a message to `dst`,
    /// with both NICs; `None` for loopback, which involves no NIC.
    fn leg(&self, src: NodeId, dst: NodeId) -> Option<Leg> {
        (src != dst).then(|| {
            let src_nic = self.nic(src);
            let tx = src_nic.tx.acquire();
            (src_nic, self.nic(dst), tx)
        })
    }

    /// The mechanics of one message: TX station (at the place `leg`
    /// holds), propagation (+`extra` fault latency), and — unless the
    /// message was dropped en route (`rx_side == false`) — the RX
    /// station.
    async fn travel(&self, leg: &mut Option<Leg>, bytes: usize, extra: SimDuration, rx_side: bool) {
        let h = &self.inner.handle;
        let Some((src_nic, dst_nic, tx)) = leg else {
            // Loopback: just a memcpy through the loopback interface.
            let t = SimDuration::from_secs_f64(bytes as f64 / 6e9) + SimDuration::nanos(500);
            h.sleep(t).await;
            return;
        };
        let placed = dst_nic.placed_on.as_ref().or(src_nic.placed_on.as_ref());
        let tp = placed.unwrap_or(&self.inner.transport);

        // 1. Sender-side CPU + serialisation, holding the TX station.
        let slot = tx.await;
        h.sleep(tp.host_cpu_send + tp.serialize_time(bytes)).await;
        drop(slot);
        src_nic.bytes_tx.add(bytes as u64);
        src_nic.msgs_tx.inc();

        // 2. Propagation through the (non-blocking) switch, plus any
        // fault-injected jitter/spike latency.
        h.sleep(tp.one_way_latency + extra).await;
        if !rx_side {
            // Dropped en route: the receiver never sees it.
            return;
        }

        // 3. Receiver-side serialisation + CPU, holding the RX station.
        dst_nic
            .rx
            .serve(h, tp.serialize_time(bytes) + tp.host_cpu_recv)
            .await;
        dst_nic.bytes_rx.add(bytes as u64);
        dst_nic.msgs_rx.inc();
    }

    /// Send `bytes` from `src` to `dst` under the installed [`FaultPlan`]
    /// (if any): the message's fate is judged, and its place in `src`'s
    /// TX queue taken, now. A message sent before the caller yields
    /// leaves `src` ahead of every message sent later, however late it
    /// is carried. [`Network::carry`] moves it.
    pub fn send(&self, src: NodeId, dst: NodeId, bytes: usize) -> Message {
        let (fate, extra) = self.judge(src, dst);
        match fate {
            Delivery::Ok => {}
            Delivery::Duplicated => self.inner.duplicated.inc(),
            Delivery::Dropped => self.inner.dropped.inc(),
        }
        Message {
            src,
            dst,
            bytes,
            fate,
            extra,
            leg: self.leg(src, dst),
        }
    }

    /// Carry a sent message, modelling NIC contention on both sides, and
    /// report its fate. Completes when the last byte has been received
    /// (or, for a dropped message, has left the wire). The message
    /// travels on `dst`'s transport if it was placed on one
    /// ([`Network::add_node_on`]), else on `src`'s, else on the network
    /// default. This is the one path every message takes.
    ///
    /// With no plan installed every message is [`Delivery::Ok`] and an
    /// uncontended one costs exactly [`Transport::unloaded_one_way`].
    ///
    /// * Dropped messages pay the sender-side cost and propagation but
    ///   never occupy the receiver.
    /// * Duplicated messages are delivered normally, then a second copy is
    ///   charged to the wire in the background; the caller is told so it
    ///   can deliver the payload twice.
    /// * Jitter and latency-spike windows stretch propagation.
    ///
    /// Loopback messages (`src == dst`) are never faulted.
    pub fn carry(&self, mut msg: Message) -> impl Future<Output = Delivery> + '_ {
        let (bytes, extra, fate) = (msg.bytes, msg.extra, msg.fate);
        // A block, not an `async fn`, so that it holds `msg` once.
        async move {
            self.travel(&mut msg.leg, bytes, extra, fate.arrived())
                .await;
            if fate == Delivery::Duplicated {
                // The duplicate's wire cost accrues in the background so
                // the original is not delayed behind its own echo.
                let (net, src, dst) = (self.clone(), msg.src, msg.dst);
                self.inner.handle.spawn(async move {
                    let mut leg = net.leg(src, dst);
                    net.travel(&mut leg, bytes, extra, true).await;
                });
            }
            fate
        }
    }

    /// Decide the fate of one `src → dst` message under the installed
    /// plan. Cuts are deterministic and scope-independent; loss,
    /// duplication, jitter, and windows apply only inside the scope.
    fn judge(&self, src: NodeId, dst: NodeId) -> (Delivery, SimDuration) {
        let mut faults = self.inner.faults.borrow_mut();
        let Some(fs) = faults.as_mut() else {
            return (Delivery::Ok, SimDuration::ZERO);
        };
        if src == dst {
            return (Delivery::Ok, SimDuration::ZERO);
        }
        if fs.cuts.iter().any(|c| c.severs(src, dst)) {
            return (Delivery::Dropped, SimDuration::ZERO);
        }
        if !fs.in_scope(src, dst) {
            return (Delivery::Ok, SimDuration::ZERO);
        }
        let now = self.inner.handle.now();
        if fault::in_window(&fs.plan.drop_windows, now) {
            return (Delivery::Dropped, SimDuration::ZERO);
        }
        let mut extra = fault::spike_extra(&fs.plan.latency_spikes, now);
        extra += fs.rng.jitter(fs.plan.jitter);
        if fs.rng.chance(fs.plan.loss) {
            return (Delivery::Dropped, extra);
        }
        if fs.rng.chance(fs.plan.duplicate) {
            return (Delivery::Duplicated, extra);
        }
        (Delivery::Ok, extra)
    }

    /// Install a fault plan. Replaces any previous plan (and clears its
    /// cuts); the plan's RNG is reseeded from `plan.seed`, so
    /// installing the same plan twice replays the same fault schedule.
    pub fn install_faults(&self, plan: FaultPlan) {
        *self.inner.faults.borrow_mut() = Some(FaultState::new(plan));
    }

    /// Whether a fault plan is installed ([`Network::install_faults`],
    /// or the benign one a cut installs). Until then every
    /// link is FIFO and loses nothing; from then on a message may be
    /// lost, or overtaken on its link by a later one (jitter, latency
    /// spikes).
    pub fn has_faults(&self) -> bool {
        self.inner.faults.borrow().is_some()
    }

    /// Apply `f` to the installed plan. A window or spike applies to the
    /// plan's scope, and a default plan's scope is every node — the
    /// GlusterFS links too, which have no retransmit — so there must be
    /// a plan whose scope was chosen.
    fn with_plan(&self, what: &str, f: impl FnOnce(&mut FaultPlan)) {
        let mut faults = self.inner.faults.borrow_mut();
        let fs = faults.as_mut().unwrap_or_else(|| {
            panic!("{what} on a network with no fault plan: call install_faults first")
        });
        f(&mut fs.plan);
    }

    /// Sever all traffic between `nodes` and every *other* node (including
    /// ones registered later) under `name`, until
    /// [`Network::heal`]\(`name`\) is called. Installs a benign default
    /// plan if none is installed yet. Cuts apply regardless of the plan's
    /// scope.
    pub fn isolate(&self, name: impl Into<String>, nodes: impl IntoIterator<Item = NodeId>) {
        let cut = Cut {
            name: name.into(),
            nodes: nodes.into_iter().collect(),
        };
        let mut faults = self.inner.faults.borrow_mut();
        let fs = faults.get_or_insert_with(|| FaultState::new(FaultPlan::default()));
        fs.cuts.push(cut);
    }

    /// Remove every cut named `name`. Unknown names are a no-op.
    pub fn heal(&self, name: &str) {
        if let Some(fs) = self.inner.faults.borrow_mut().as_mut() {
            fs.cuts.retain(|c| c.name != name);
        }
    }

    /// Schedule a `[from, until)` window during which every message in the
    /// installed plan's scope is dropped.
    ///
    /// # Panics
    ///
    /// If no plan is installed ([`Network::install_faults`]).
    pub fn add_drop_window(&self, from: SimTime, until: SimTime) {
        self.with_plan("a drop window", |plan| {
            plan.drop_windows.push((from, until))
        });
    }

    /// Schedule a `[from, until)` window during which messages in the
    /// installed plan's scope pay `extra` one-way latency.
    ///
    /// # Panics
    ///
    /// If no plan is installed ([`Network::install_faults`]).
    pub fn add_latency_spike(&self, from: SimTime, until: SimTime, extra: SimDuration) {
        self.with_plan("a latency spike", |plan| {
            plan.latency_spikes.push((from, until, extra))
        });
    }

    /// The network's metric registry (per-NIC traffic counters under
    /// `nic.<id>.*` plus whatever fabric layers above register, e.g. the
    /// RPC latency histogram).
    pub fn registry(&self) -> Registry {
        self.inner.registry.clone()
    }
}

impl MetricSource for Network {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.inner.registry.collect(prefix, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_sim::{Sim, SimTime};

    /// Deliver `bytes` on every flow `flows` registers, all at once, and
    /// return the makespan.
    fn makespan(bytes: usize, flows: impl FnOnce(&Network) -> Vec<(NodeId, NodeId)>) -> SimTime {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let h = sim.handle();
        let deliveries: Vec<_> = flows(&net)
            .into_iter()
            .map(|(src, dst)| {
                let net = net.clone();
                async move { net.carry(net.send(src, dst, bytes)).await }
            })
            .collect();
        let fates = sim.run_main(async move { imca_sim::join_all(&h, deliveries).await });
        assert!(fates.iter().all(|f| *f == Delivery::Ok), "{fates:?}");
        sim.now()
    }

    #[test]
    fn loopback_bypasses_nics() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let a = net.add_node();
        let net2 = net.clone();
        sim.run_main(async move {
            assert_eq!(net2.carry(net2.send(a, a, 1 << 20)).await, Delivery::Ok);
        });
        let end = sim.now();
        // Far faster than the wire would allow...
        assert!(end.as_nanos() < Transport::ipoib_ddr().unloaded_one_way(1 << 20).as_nanos());
        // ...and neither of the node's NIC stations saw the message.
        let snap = net.registry().snapshot();
        for metric in ["bytes_tx", "bytes_rx", "msgs_tx", "msgs_rx"] {
            assert_eq!(
                snap.counter(&format!("nic.{}.{metric}", a.0)),
                Some(0),
                "{metric}"
            );
        }
    }

    #[test]
    fn receiver_contention_serialises_flows() {
        // Two senders to one receiver: RX serialisation must make the
        // makespan ~2x a single flow's RX time for large messages.
        let tp = Transport::ipoib_ddr();
        let bytes = 1 << 20;
        let end = makespan(bytes, |net| {
            let s1 = net.add_node();
            let s2 = net.add_node();
            let dst = net.add_node();
            vec![(s1, dst), (s2, dst)]
        });
        let one_flow = tp.unloaded_one_way(bytes).as_nanos();
        let rx_time = (tp.serialize_time(bytes) + tp.host_cpu_recv).as_nanos();
        assert!(
            end.as_nanos() >= one_flow + rx_time,
            "no rx contention seen"
        );
    }

    #[test]
    fn distinct_receivers_do_not_contend() {
        let tp = Transport::ipoib_ddr();
        let bytes = 1 << 20;
        let end = makespan(bytes, |net| {
            let s1 = net.add_node();
            let s2 = net.add_node();
            let d1 = net.add_node();
            let d2 = net.add_node();
            vec![(s1, d1), (s2, d2)]
        });
        assert_eq!(end.as_nanos(), tp.unloaded_one_way(bytes).as_nanos());
    }

    #[test]
    fn nic_counters_count_traffic() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let a = net.add_node();
        let b = net.add_node();
        let net2 = net.clone();
        sim.run_main(async move {
            assert_eq!(net2.carry(net2.send(a, b, 1000)).await, Delivery::Ok);
            assert_eq!(net2.carry(net2.send(a, b, 500)).await, Delivery::Ok);
        });
        let snap = net.registry().snapshot();
        let nic = |node: NodeId, metric: &str| snap.counter(&format!("nic.{}.{metric}", node.0));
        assert_eq!(nic(a, "bytes_tx"), Some(1500));
        assert_eq!(nic(a, "msgs_tx"), Some(2));
        assert_eq!(nic(a, "bytes_rx"), Some(0));
        assert_eq!(nic(b, "bytes_rx"), Some(1500));
        assert_eq!(nic(b, "msgs_rx"), Some(2));
    }

    #[test]
    fn a_send_holds_its_tx_place_from_the_call() {
        let tp = Transport::ipoib_ddr();
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), tp.clone());
        let (a, b, c) = (net.add_node(), net.add_node(), net.add_node());
        let big = 1 << 16;
        // Sent first, carried last: the small message sent later still
        // leaves `a` behind it.
        let sent = net.send(a, b, big);
        let (net2, h) = (net.clone(), sim.handle());
        let (tx, small) = imca_sim::sync::oneshot();
        sim.spawn(async move {
            let fate = net2.carry(net2.send(a, c, 64)).await;
            tx.send((fate, h.now()));
        });
        let (small_fate, small_done) = sim.run_main(async move {
            assert_eq!(net.carry(sent).await, Delivery::Ok);
            small.await.unwrap()
        });
        assert_eq!(small_fate, Delivery::Ok);
        let big_tx = tp.host_cpu_send + tp.serialize_time(big);
        assert_eq!(
            small_done.as_nanos(),
            (big_tx + tp.unloaded_one_way(64)).as_nanos()
        );
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_node_panics() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let a = net.add_node();
        sim.run_main(async move {
            net.carry(net.send(a, NodeId(99), 1)).await;
        });
    }

    /// Run `n` deliveries a→b under `plan` and report each fate plus the
    /// final (dropped, duplicated) counters.
    fn fates_under(plan: FaultPlan, n: usize) -> (Vec<Delivery>, u64, u64) {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        net.install_faults(plan);
        let a = net.add_node();
        let b = net.add_node();
        let net2 = net.clone();
        let fates = sim.run_main(async move {
            let mut fates = Vec::new();
            for _ in 0..n {
                fates.push(net2.carry(net2.send(a, b, 128)).await);
            }
            fates
        });
        let dropped = net.registry().snapshot().counter("dropped").unwrap();
        let duplicated = net.registry().snapshot().counter("duplicated").unwrap();
        (fates, dropped, duplicated)
    }

    #[test]
    fn no_plan_delivers_everything() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let a = net.add_node();
        let b = net.add_node();
        let net2 = net.clone();
        sim.run_main(async move {
            assert_eq!(net2.carry(net2.send(a, b, 4096)).await, Delivery::Ok);
        });
        let end = sim.now();
        // Without faults, an uncontended message costs exactly the
        // unloaded model.
        let tp = Transport::ipoib_ddr();
        assert_eq!(end.as_nanos(), tp.unloaded_one_way(4096).as_nanos());
    }

    #[test]
    fn loss_drops_some_and_counts_them() {
        let plan = FaultPlan {
            loss: 0.3,
            ..FaultPlan::seeded(7)
        };
        let (fates, dropped, duplicated) = fates_under(plan, 100);
        let drops = fates.iter().filter(|f| !f.arrived()).count();
        assert_eq!(drops as u64, dropped);
        assert_eq!(duplicated, 0);
        // With loss=0.3 over 100 messages, both outcomes must occur.
        assert!(drops > 0 && drops < 100, "drops={drops}");
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let plan = FaultPlan {
            loss: 0.2,
            duplicate: 0.1,
            jitter: SimDuration::micros(5),
            ..FaultPlan::seeded(42)
        };
        let run1 = fates_under(plan.clone(), 200);
        let run2 = fates_under(plan, 200);
        assert_eq!(run1, run2);
        let other = fates_under(
            FaultPlan {
                loss: 0.2,
                duplicate: 0.1,
                jitter: SimDuration::micros(5),
                ..FaultPlan::seeded(43)
            },
            200,
        );
        assert_ne!(run1.0, other.0, "different seeds should diverge");
    }

    #[test]
    fn duplication_delivers_and_counts() {
        let plan = FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::seeded(1)
        };
        let (fates, dropped, duplicated) = fates_under(plan, 10);
        assert!(fates.iter().all(|f| *f == Delivery::Duplicated));
        assert_eq!(dropped, 0);
        assert_eq!(duplicated, 10);
    }

    #[test]
    fn isolate_cuts_off_later_nodes_too() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let a = net.add_node();
        let b = net.add_node();
        net.isolate("quarantine", [a]);
        // Registered after the cut — still severed from `a`.
        let late = net.add_node();
        let net2 = net.clone();
        sim.run_main(async move {
            assert_eq!(net2.carry(net2.send(late, a, 64)).await, Delivery::Dropped);
            assert_eq!(net2.carry(net2.send(b, late, 64)).await, Delivery::Ok);
            net2.heal("quarantine");
            assert_eq!(net2.carry(net2.send(late, a, 64)).await, Delivery::Ok);
        });
    }

    #[test]
    fn scope_shields_out_of_scope_links_from_loss() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let a = net.add_node();
        let b = net.add_node();
        let c = net.add_node();
        let d = net.add_node();
        net.install_faults(FaultPlan {
            loss: 1.0,
            scope: Some(vec![a]),
            ..FaultPlan::seeded(5)
        });
        let net2 = net.clone();
        sim.run_main(async move {
            // Any link touching `a` loses everything...
            assert_eq!(net2.carry(net2.send(a, b, 64)).await, Delivery::Dropped);
            assert_eq!(net2.carry(net2.send(c, a, 64)).await, Delivery::Dropped);
            // ...but links not touching the scope are untouched.
            assert_eq!(net2.carry(net2.send(c, d, 64)).await, Delivery::Ok);
        });
    }

    #[test]
    fn drop_window_is_total_and_bounded() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let a = net.add_node();
        let b = net.add_node();
        net.install_faults(FaultPlan::default());
        // One 64-byte delivery takes ~21us; keep the window clear of it.
        net.add_drop_window(SimTime(50_000), SimTime(100_000));
        let net2 = net.clone();
        let h = sim.handle();
        sim.run_main(async move {
            assert_eq!(net2.carry(net2.send(a, b, 64)).await, Delivery::Ok);
            h.sleep_until(SimTime(60_000)).await;
            assert_eq!(net2.carry(net2.send(a, b, 64)).await, Delivery::Dropped);
            h.sleep_until(SimTime(100_000)).await;
            assert_eq!(net2.carry(net2.send(a, b, 64)).await, Delivery::Ok);
        });
    }

    #[test]
    fn latency_spike_stretches_delivery() {
        let tp = Transport::ipoib_ddr();
        let spike = SimDuration::micros(100);
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let a = net.add_node();
        let b = net.add_node();
        net.install_faults(FaultPlan::default());
        net.add_latency_spike(SimTime::ZERO, SimTime(u64::MAX), spike);
        sim.run_main(async move {
            assert_eq!(net.carry(net.send(a, b, 4096)).await, Delivery::Ok);
        });
        let end = sim.now();
        assert_eq!(
            end.as_nanos(),
            (tp.unloaded_one_way(4096) + spike).as_nanos()
        );
    }

    #[test]
    #[should_panic(expected = "call install_faults first")]
    fn a_drop_window_without_a_plan_panics() {
        let sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        net.add_drop_window(SimTime(50_000), SimTime(100_000));
    }

    #[test]
    #[should_panic(expected = "call install_faults first")]
    fn a_latency_spike_without_a_plan_panics() {
        let sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        net.add_latency_spike(SimTime::ZERO, SimTime(1_000), SimDuration::micros(1));
    }

    #[test]
    fn dropped_message_still_pays_the_sender_side() {
        let tp = Transport::ipoib_ddr();
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let a = net.add_node();
        let b = net.add_node();
        net.install_faults(FaultPlan {
            loss: 1.0,
            ..FaultPlan::seeded(3)
        });
        let net2 = net.clone();
        sim.run_main(async move {
            assert_eq!(net2.carry(net2.send(a, b, 4096)).await, Delivery::Dropped);
        });
        let end = sim.now();
        // TX + propagation but no RX side.
        let expect = tp.host_cpu_send + tp.serialize_time(4096) + tp.one_way_latency;
        assert_eq!(end.as_nanos(), expect.as_nanos());
        let snap = net.registry().snapshot();
        assert_eq!(
            snap.counter(&format!("nic.{}.msgs_rx", b.0)),
            Some(0),
            "receiver must never see a dropped message"
        );
    }
}

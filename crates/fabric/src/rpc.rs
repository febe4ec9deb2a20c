//! Typed request/response endpoints over the [`Network`], and the one
//! server actor every simulated daemon runs on.
//!
//! A [`Service`] is a mailbox bound to one node. Clients created from it
//! send a request (charged to the network), the server process takes the
//! [`Incoming`] message, does its work (consuming virtual time however it
//! likes), and [`Incoming::respond`]s; the response transfer is charged on
//! the way back and the client's `call` future resolves when the last byte
//! arrives.
//!
//! [`Service::serve`] is that server process, written once: it takes each
//! request off the mailbox, admits or refuses it, waits for one of its
//! [`Workers`], runs the [`Handler`] and answers, and it drops a request
//! whose [`Daemon`] incarnation ended on the way.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use imca_metrics::Histogram;
use imca_sim::sync::{oneshot, OneshotSender, Queue, Resource};
use imca_sim::SimDuration;

use crate::fault::Delivery;
use crate::network::{Network, NodeId};
use crate::transport::WireSize;

/// Metric name of the RPC round-trip latency histogram, registered in the
/// owning [`Network`]'s registry and recorded on every completed call.
pub const RPC_CALL_NS: &str = "rpc.call_ns";

/// A request that arrived at a [`Service`].
pub struct Incoming<Req, Resp> {
    /// The request payload.
    pub req: Req,
    replier: Replier<Resp>,
}

impl<Req, Resp: WireSize + 'static> Incoming<Req, Resp> {
    /// Send `resp` back to the caller. The reply transfer runs as its own
    /// process so the server can continue with the next request while its
    /// NIC clocks the response out.
    pub fn respond(self, resp: Resp) {
        self.replier.reply(resp);
    }
}

/// The reply half of an [`Incoming`] request.
pub(crate) struct Replier<Resp> {
    net: Network,
    from: NodeId,
    to: NodeId,
    tx: OneshotSender<Resp>,
}

impl<Resp: WireSize + 'static> Replier<Resp> {
    /// Deliver the response across the network (fire-and-forget from the
    /// server's point of view).
    ///
    /// The response leg is subject to the network's installed
    /// [`crate::FaultPlan`]: a dropped response blackholes the caller (it
    /// resolves only via its own deadline, exactly as if the request had
    /// been lost), and a duplicated response's second copy arrives at a
    /// caller that already has its value and is discarded.
    pub(crate) fn reply(self, resp: Resp) {
        let Replier { net, from, to, tx } = self;
        let h = net.handle();
        h.spawn(async move {
            let bytes = resp.wire_bytes();
            let fate = net.deliver(from, to, bytes).await;
            if fate.arrived() {
                tx.send(resp);
            } else {
                // A lost response gives the caller no TCP-level signal:
                // keep the sender half alive forever so the pending call
                // resolves only via the caller's own deadline.
                std::mem::forget(tx);
            }
        });
    }
}

/// A service endpoint bound to a node. Cloning shares the same mailbox
/// (multiple worker processes may `recv` concurrently).
pub struct Service<Req, Resp> {
    net: Network,
    node: NodeId,
    queue: Queue<Incoming<Req, Resp>>,
}

impl<Req, Resp> Clone for Service<Req, Resp> {
    fn clone(&self) -> Self {
        Service {
            net: self.net.clone(),
            node: self.node,
            queue: self.queue.clone(),
        }
    }
}

impl<Req: WireSize + 'static, Resp: WireSize + 'static> Service<Req, Resp> {
    /// Bind a new service mailbox at `node`.
    pub fn bind(net: &Network, node: NodeId) -> Service<Req, Resp> {
        Service {
            net: net.clone(),
            node,
            queue: Queue::new(),
        }
    }

    /// The network this service is bound to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Wait for the next request; `None` after [`Service::close`].
    pub async fn recv(&self) -> Option<Incoming<Req, Resp>> {
        self.queue.recv().await
    }

    /// Stop accepting requests; pending `recv`s resolve `None` after the
    /// backlog drains.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Create a client stub that calls this service from `src`.
    pub fn client(&self, src: NodeId) -> RpcClient<Req, Resp> {
        RpcClient {
            call_ns: self.net.registry().histogram(RPC_CALL_NS),
            net: self.net.clone(),
            src,
            dst: self.node,
            queue: self.queue.clone(),
        }
    }

    /// Run this mailbox's server actor, the one daemon loop every
    /// simulated server uses, and return the daemon's handle.
    ///
    /// The actor takes each request as it arrives; the NIC never waits
    /// for a worker. A request that arrives while the daemon is down is
    /// dropped. Otherwise [`Handler::admit`] may refuse it with an
    /// immediate answer. An admitted request waits for one of `workers`,
    /// runs [`Handler::work`] and is answered. It is dropped unanswered
    /// if its incarnation ended before a worker took it or before its
    /// answer was ready. A dropped request resolves the caller's
    /// [`RpcClient::try_call`] to `None`, the TCP reset of a dead
    /// process. Workers are granted in arrival order.
    pub fn serve<H: Handler<Req, Resp>>(&self, workers: Workers, handler: H) -> Daemon {
        let daemon = Daemon::default();
        let (svc, d, h) = (self.clone(), daemon.clone(), self.net.handle());
        let handler = Rc::new(handler);
        let cpu = match workers {
            Workers::Cpu(n, _) => Some(Resource::new(n)),
            Workers::Held => Some(Resource::new(1)),
            Workers::Inline => None,
        };
        h.clone().spawn(async move {
            while let Some(incoming) = svc.recv().await {
                if !d.is_up() {
                    handler.dropped();
                    continue;
                }
                if let Some(refusal) = handler.admit(&incoming.req, d.queue_depth()) {
                    incoming.respond(refusal);
                    continue;
                }
                let weight = handler.weight(&incoming.req);
                let (life, admitted, d, h2) = (d.enter(weight), h.now(), d.clone(), h.clone());
                let Incoming { req, replier } = incoming;
                let handler = Rc::clone(&handler);
                let job = async move {
                    if d.lives(life) {
                        let resp = handler.work(req).await;
                        if d.lives(life) {
                            handler.answered(h2.now().since(admitted));
                            replier.reply(resp);
                            return d.leave(weight);
                        }
                    }
                    handler.dropped();
                    d.leave(weight);
                };
                let h2 = h.clone();
                match (workers, cpu.clone()) {
                    // A CPU worker gives its context back after the fixed
                    // cost; a held one keeps it until the job is done.
                    (Workers::Cpu(_, cost), Some(cpu)) => h.spawn(async move {
                        cpu.serve(&h2, cost).await;
                        job.await;
                    }),
                    (Workers::Held, Some(cpu)) => h.spawn(async move {
                        let _slot = cpu.acquire().await;
                        job.await;
                    }),
                    _ => job.await,
                }
            }
        });
        daemon
    }
}

/// What a served request holds while it is worked on, and how many such
/// requests a daemon works on at once ([`Service::serve`]).
#[derive(Debug, Clone, Copy)]
pub enum Workers {
    /// `n` contexts, each held for a fixed CPU cost before the work
    /// starts; the work runs outside them (GlusterFS io-threads, NFSD,
    /// an OST).
    Cpu(usize, SimDuration),
    /// One context, held through the whole work (memcached's single
    /// event loop).
    Held,
    /// The mailbox's own task: one request at a time, in arrival order
    /// (a serial metadata server, a lease endpoint).
    Inline,
}

/// A served daemon's work ([`Service::serve`]). Any `Fn(Req) -> impl
/// Future<Output = Resp>` is one; its hooks admit every request and count
/// nothing.
pub trait Handler<Req, Resp>: 'static {
    /// Start `req`'s work, once a worker has taken it.
    fn work(&self, req: Req) -> impl Future<Output = Resp> + 'static;

    /// Admission, with `depth` ([`Handler::weight`]s of the requests
    /// admitted and not yet finished) ahead: `Some(answer)` refuses `req`
    /// with an immediate answer.
    fn admit(&self, _req: &Req, _depth: u64) -> Option<Resp> {
        None
    }

    /// How much of the daemon's queue depth `req` holds while admitted:
    /// one by default; a daemon that takes several commands in one
    /// request counts each of them.
    fn weight(&self, _req: &Req) -> u64 {
        1
    }

    /// A request was dropped unanswered: the daemon was down when it
    /// arrived, or its incarnation ended before it was answered.
    fn dropped(&self) {}

    /// A request's answer is ready, `sojourn` after it was admitted.
    fn answered(&self, _sojourn: SimDuration) {}
}

impl<Req, Resp, F, W> Handler<Req, Resp> for F
where
    F: Fn(Req) -> W + 'static,
    W: Future<Output = Resp> + 'static,
{
    fn work(&self, req: Req) -> impl Future<Output = Resp> + 'static {
        self(req)
    }
}

/// A served daemon's handle ([`Service::serve`]): its liveness and its
/// queue. Liveness runs in incarnations. [`Daemon::crash`] ends one,
/// [`Daemon::restart`] begins the next, and a request admitted in one
/// incarnation never starts or answers in another. Clones share the
/// daemon.
#[derive(Clone, Default)]
pub struct Daemon(Rc<DaemonState>);

#[derive(Default)]
struct DaemonState {
    /// Incarnations begun and ended: even while up, odd while down.
    lives: Cell<u64>,
    /// Weights of the requests admitted and not yet finished or dropped.
    depth: Cell<u64>,
    /// High-water mark of `depth`.
    peak: Cell<u64>,
}

impl Daemon {
    /// Whether the daemon is up: accepting, serving and answering.
    pub fn is_up(&self) -> bool {
        self.0.lives.get().is_multiple_of(2)
    }

    /// End the current incarnation: the daemon drops every request from
    /// now on, and every request it admitted dies unanswered. Returns
    /// whether it was up.
    pub fn crash(&self) -> bool {
        self.turn(true)
    }

    /// Begin the next incarnation, with nothing of the last one queued.
    /// A daemon that is up keeps its incarnation. Returns whether it was
    /// down.
    pub fn restart(&self) -> bool {
        self.turn(false)
    }

    /// End or begin an incarnation if the daemon's liveness is `up`;
    /// returns whether it was.
    fn turn(&self, up: bool) -> bool {
        let turns = self.is_up() == up;
        self.0.lives.set(self.0.lives.get() + u64::from(turns));
        turns
    }

    /// The [`Handler::weight`]s of the requests admitted and not yet
    /// answered or dropped: one per request unless the handler says
    /// otherwise.
    pub fn queue_depth(&self) -> u64 {
        self.0.depth.get()
    }

    /// High-water mark of [`Daemon::queue_depth`] over all incarnations.
    pub fn queue_peak(&self) -> u64 {
        self.0.peak.get()
    }

    /// Whether incarnation `life` is still the running one.
    fn lives(&self, life: u64) -> bool {
        self.0.lives.get() == life
    }

    /// Admit one more request, of `weight`, into the running
    /// incarnation, which it returns.
    fn enter(&self, weight: u64) -> u64 {
        let depth = self.0.depth.get() + weight;
        self.0.depth.set(depth);
        self.0.peak.set(self.0.peak.get().max(depth));
        self.0.lives.get()
    }

    /// An admitted request of `weight` was answered or dropped.
    fn leave(&self, weight: u64) {
        self.0.depth.set(self.0.depth.get() - weight);
    }
}

/// Client stub for a [`Service`].
pub struct RpcClient<Req, Resp> {
    net: Network,
    src: NodeId,
    dst: NodeId,
    queue: Queue<Incoming<Req, Resp>>,
    call_ns: Histogram,
}

impl<Req, Resp> Clone for RpcClient<Req, Resp> {
    fn clone(&self) -> Self {
        RpcClient {
            net: self.net.clone(),
            src: self.src,
            dst: self.dst,
            queue: self.queue.clone(),
            call_ns: self.call_ns.clone(),
        }
    }
}

impl<Req: WireSize + Clone + 'static, Resp: WireSize + 'static> RpcClient<Req, Resp> {
    /// Perform one RPC: ship the request, wait for the service to respond,
    /// ship the response back.
    ///
    /// # Panics
    /// Panics if the service closes (drops the request) mid-call — in these
    /// simulations that is a model bug, not an expected runtime condition.
    /// Use [`RpcClient::try_call`] when talking to a server that may be
    /// deliberately failed (fault-injection experiments).
    pub async fn call(&self, req: Req) -> Resp {
        self.try_call(req)
            .await
            .expect("RPC service dropped the request")
    }

    /// Like [`RpcClient::call`] but resolves to `None` if the service drops
    /// the request (e.g. the server was killed mid-flight) — the TCP-reset
    /// path a real client observes.
    ///
    /// Under an installed [`crate::FaultPlan`] the request leg may also be
    /// dropped or duplicated. A *dropped* request (loss, drop window, or
    /// partition) blackholes the call — TCP gives the sender no signal, so
    /// the future stays pending forever and the caller learns only through
    /// its own deadline (see `imca_sim::timeout`). A *duplicated* request
    /// is delivered twice back-to-back; the server answers both, the second
    /// response is discarded on arrival.
    pub async fn try_call(&self, req: Req) -> Option<Resp> {
        self.post(req).await
    }

    /// [`RpcClient::try_call`], with the request sent at the call: its
    /// fate is judged and its place in the caller's TX queue taken before
    /// `post` returns ([`Network::send`]), so a request posted before the
    /// caller yields leaves the node ahead of every message asked for
    /// later. The returned future resolves to the answer.
    pub fn post(&self, req: Req) -> impl Future<Output = Option<Resp>> + 'static {
        let t0 = self.net.handle().now();
        let sent = self.net.send(self.src, self.dst, req.wire_bytes());
        let this = self.clone();
        async move {
            let fate = this.net.carry(sent).await;
            let (tx, rx) = oneshot();
            if fate.arrived() {
                this.enqueue(req, tx, fate);
            } else {
                // The server never sees the request and the sender gets
                // no TCP-level signal: keep the sender half alive forever
                // so the call resolves only via the caller's own deadline.
                std::mem::forget(tx);
            }
            let resp = rx.await.ok();
            if resp.is_some() {
                this.call_ns
                    .record_duration(this.net.handle().now().since(t0));
            }
            resp
        }
    }

    /// Hand a request that reached the server to the service's mailbox,
    /// with a reply handle that answers through `tx`. A duplicated request
    /// leg queues a second copy right behind it: the server answers it
    /// too, but that response has nowhere to land.
    fn enqueue(&self, req: Req, tx: OneshotSender<Resp>, fate: Delivery) {
        let envelope = |req, tx| Incoming {
            req,
            replier: Replier {
                net: self.net.clone(),
                from: self.dst,
                to: self.src,
                tx,
            },
        };
        let dup = (fate == Delivery::Duplicated).then(|| req.clone());
        self.queue.push(envelope(req, tx));
        if let Some(copy) = dup {
            self.queue.push(envelope(copy, oneshot().0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use imca_sim::Sim;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u32);
    #[derive(Debug, Clone, PartialEq)]
    struct Pong(u32);

    impl WireSize for Ping {
        fn wire_bytes(&self) -> usize {
            64
        }
    }
    impl WireSize for Pong {
        fn wire_bytes(&self) -> usize {
            64
        }
    }

    #[test]
    fn request_response_round_trip() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server = net.add_node();
        let client_node = net.add_node();
        let svc: Service<Ping, Pong> = Service::bind(&net, server);
        let cli = svc.client(client_node);

        // Echo server.
        let svc2 = svc.clone();
        sim.spawn(async move {
            while let Some(msg) = svc2.recv().await {
                let v = msg.req.0;
                msg.respond(Pong(v + 1));
            }
        });

        let pong = sim.run_main(async move { cli.call(Ping(41)).await });
        let end = sim.now();
        assert_eq!(pong.0, 42);
        // Zero-service-time echo: end == unloaded RTT for 64B each way.
        let tp = Transport::ipoib_ddr();
        assert_eq!(end.as_nanos(), tp.unloaded_rtt(64, 64).as_nanos());
    }

    #[test]
    fn rpc_to_a_node_placed_on_rdma_costs_rdma_both_ways() {
        // The server's node is placed on RDMA, the caller's on the
        // network default: request and reply both travel on RDMA. A
        // second caller's link to a default node stays on IPoIB.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let (rdma_node, ipoib_node) = (net.add_node_on(Transport::rdma_ddr()), net.add_node());
        let h = sim.handle();
        let mut callers = Vec::new();
        for server in [rdma_node, ipoib_node] {
            let svc: Service<Ping, Pong> = Service::bind(&net, server);
            let cli = svc.client(net.add_node());
            sim.spawn(async move {
                while let Some(msg) = svc.recv().await {
                    msg.respond(Pong(0));
                }
            });
            let h = h.clone();
            callers.push(async move {
                let t0 = h.now();
                cli.call(Ping(0)).await;
                (server, h.now().since(t0))
            });
        }
        let rtts = sim.run_main(async move { imca_sim::join_all(&h, callers).await });
        for (server, rtt) in rtts {
            let expect = if server == rdma_node {
                Transport::rdma_ddr()
            } else {
                Transport::ipoib_ddr()
            };
            assert_eq!(rtt, expect.unloaded_rtt(64, 64));
        }
    }

    #[test]
    fn server_service_time_adds_to_latency() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server = net.add_node();
        let client_node = net.add_node();
        let svc: Service<Ping, Pong> = Service::bind(&net, server);
        let cli = svc.client(client_node);
        let h = sim.handle();

        let svc2 = svc.clone();
        sim.spawn(async move {
            while let Some(msg) = svc2.recv().await {
                h.sleep(SimDuration::micros(100)).await;
                msg.respond(Pong(0));
            }
        });
        sim.run_main(async move {
            cli.call(Ping(0)).await;
        });
        let end = sim.now();
        let tp = Transport::ipoib_ddr();
        assert_eq!(
            end.as_nanos(),
            tp.unloaded_rtt(64, 64).as_nanos() + SimDuration::micros(100).as_nanos()
        );
    }

    #[test]
    fn single_server_serialises_many_clients() {
        // 8 clients call a server whose service time is 50us. The server
        // processes one at a time, so the makespan grows ~linearly.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server = net.add_node();
        let svc: Service<Ping, Pong> = Service::bind(&net, server);
        let h = sim.handle();
        let svc2 = svc.clone();
        sim.spawn(async move {
            while let Some(msg) = svc2.recv().await {
                h.sleep(SimDuration::micros(50)).await;
                msg.respond(Pong(0));
            }
        });
        let calls: Vec<_> = (0..8)
            .map(|_| {
                let cli = svc.client(net.add_node());
                async move { cli.call(Ping(0)).await }
            })
            .collect();
        let h = sim.handle();
        sim.run_main(async move { imca_sim::join_all(&h, calls).await });
        let end = sim.now();
        assert!(
            end.as_nanos() >= 8 * SimDuration::micros(50).as_nanos(),
            "server did not serialise: {end:?}"
        );
    }

    #[test]
    fn request_the_service_drops_resolves_try_call_to_none() {
        // A server that takes a request and drops it unanswered (a killed
        // daemon) must surface as `None`, not hang or panic.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server = net.add_node();
        let client_node = net.add_node();
        let svc: Service<Ping, Pong> = Service::bind(&net, server);
        let cli = svc.client(client_node);
        let svc2 = svc.clone();
        sim.spawn(async move { while svc2.recv().await.is_some() {} });
        let got = sim.run_main(async move { cli.try_call(Ping(1)).await });
        assert_eq!(got, None, "dropped request must surface as None");
        assert_eq!(
            sim.run().tasks_leaked,
            1,
            "only the idle server stays blocked"
        );
    }

    #[test]
    fn dropped_request_blackholes_until_the_deadline() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server = net.add_node();
        let client_node = net.add_node();
        net.install_faults(FaultPlan {
            loss: 1.0,
            ..FaultPlan::seeded(9)
        });
        let svc: Service<Ping, Pong> = Service::bind(&net, server);
        let cli = svc.client(client_node);
        let svc2 = svc.clone();
        sim.spawn(async move {
            while let Some(msg) = svc2.recv().await {
                let v = msg.req.0;
                msg.respond(Pong(v));
            }
        });
        let h = sim.handle();
        let deadline = SimDuration::millis(1);
        sim.run_main(async move {
            let t0 = h.now();
            let got =
                imca_sim::timeout(&h, deadline, async move { cli.try_call(Ping(1)).await }).await;
            // The inner call never resolved: the race itself timed out.
            assert_eq!(got, None);
            assert_eq!(h.now().since(t0).as_nanos(), deadline.as_nanos());
        });
        assert_eq!(net.registry().snapshot().counter("dropped"), Some(1));
    }

    #[test]
    fn duplicated_call_is_answered_once() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server = net.add_node();
        let client_node = net.add_node();
        net.install_faults(FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::seeded(2)
        });
        let svc: Service<Ping, Pong> = Service::bind(&net, server);
        let cli = svc.client(client_node);
        let served = Rc::new(Cell::new(0u32));
        let served2 = Rc::clone(&served);
        let svc2 = svc.clone();
        sim.spawn(async move {
            while let Some(msg) = svc2.recv().await {
                served2.set(served2.get() + 1);
                let v = msg.req.0;
                msg.respond(Pong(v + 1));
            }
        });
        sim.run_main(async move {
            // The caller sees exactly one answer despite the echo.
            assert_eq!(cli.try_call(Ping(1)).await, Some(Pong(2)));
        });
        // The server processed the request twice (request + duplicate);
        // the duplicate's discarded response wedged nothing.
        assert_eq!(served.get(), 2);
    }

    /// Counts what the actor does with each request: the ones whose work
    /// started and the ones it dropped. The work takes `work`.
    struct Counting {
        h: imca_sim::SimHandle,
        work: SimDuration,
        started: Rc<Cell<u32>>,
        dropped: Rc<Cell<u32>>,
    }

    impl Handler<Ping, Pong> for Counting {
        fn work(&self, req: Ping) -> impl Future<Output = Pong> + 'static {
            self.started.set(self.started.get() + 1);
            let sleep = self.h.sleep(self.work);
            async move {
                sleep.await;
                Pong(req.0)
            }
        }

        fn dropped(&self) {
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    /// What [`drive`] saw: each call's answer, the requests whose work
    /// started and the ones the actor dropped, the instant the last call
    /// resolved, and the daemon.
    struct Driven {
        answers: Vec<Option<Pong>>,
        started: u32,
        dropped: u32,
        end_ns: u64,
        daemon: Daemon,
    }

    /// A daemon on `workers` whose work takes `work`, crashed at `crash`
    /// and, if `restart`, restarted at the same instant. Sends `calls`
    /// calls at once, each from its own node.
    fn drive(
        workers: Workers,
        work: SimDuration,
        crash: SimDuration,
        restart: bool,
        calls: u32,
    ) -> Driven {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let svc: Service<Ping, Pong> = Service::bind(&net, net.add_node());
        let h = sim.handle();
        let (started, dropped) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let daemon = svc.serve(
            workers,
            Counting {
                h: h.clone(),
                work,
                started: Rc::clone(&started),
                dropped: Rc::clone(&dropped),
            },
        );
        let d = daemon.clone();
        let h2 = h.clone();
        h.spawn(async move {
            h2.sleep(crash).await;
            d.crash();
            if restart {
                d.restart();
            }
        });
        let pending: Vec<_> = (0..calls)
            .map(|i| {
                let cli = svc.client(net.add_node());
                async move { cli.try_call(Ping(i)).await }
            })
            .collect();
        let answers = sim.run_main(async move { imca_sim::join_all(&h, pending).await });
        Driven {
            answers,
            started: started.get(),
            dropped: dropped.get(),
            end_ns: sim.now().as_nanos(),
            daemon,
        }
    }

    #[test]
    fn a_request_that_arrives_at_a_down_daemon_is_dropped_unqueued() {
        // Crashed at t = 0, before the request lands: it is dropped on
        // arrival, never queued for the 100 µs CPU, and the caller hears
        // the reset as soon as the request lands.
        let cpu = SimDuration::micros(100);
        let run = drive(Workers::Cpu(1, cpu), cpu, SimDuration::ZERO, false, 1);
        assert_eq!(run.answers, [None]);
        assert!(run.end_ns < cpu.as_nanos(), "dropped after a worker's cost");
        assert_eq!((run.started, run.dropped), (0, 1));
        assert_eq!(
            run.daemon.queue_peak(),
            0,
            "a dead daemon admitted the request"
        );
    }

    #[test]
    fn a_crash_before_a_worker_takes_the_request_drops_it_unstarted() {
        // The crash at 50 µs lands while the request holds the CPU for
        // its 100 µs decode: the work never starts.
        let cpu = SimDuration::micros(100);
        let run = drive(Workers::Cpu(1, cpu), cpu, SimDuration::micros(50), false, 1);
        assert_eq!(run.answers, [None]);
        assert_eq!((run.started, run.dropped), (0, 1));
        assert_eq!(
            run.daemon.queue_depth(),
            0,
            "the dropped request left the queue"
        );
    }

    #[test]
    fn a_crash_before_the_answer_is_ready_drops_the_answer() {
        // The work runs 100 µs on the mailbox's own task; the crash at
        // 50 µs lands mid-work, so the finished work is never answered.
        let work = SimDuration::micros(100);
        let run = drive(Workers::Inline, work, SimDuration::micros(50), false, 1);
        assert_eq!(run.answers, [None]);
        assert_eq!((run.started, run.dropped), (1, 1));
    }

    #[test]
    fn a_restart_serves_nothing_its_crashed_incarnation_queued() {
        // Two requests on one held context, 500 µs of work each; a crash
        // and restart at 100 µs. The first dies mid-work, the second was
        // queued by the dead incarnation and must not start in the new
        // one.
        let work = SimDuration::micros(500);
        let run = drive(Workers::Held, work, SimDuration::micros(100), true, 2);
        assert_eq!(run.answers, [None, None]);
        assert_eq!((run.started, run.dropped), (1, 2));
        assert!(run.daemon.is_up());
        assert_eq!(run.daemon.queue_depth(), 0);
    }

    #[test]
    fn a_restarted_daemon_serves_and_restarting_one_that_is_up_keeps_its_work() {
        // Crash and restart at t = 0, then one request: the new
        // incarnation answers it. A restart of a daemon that is up is not
        // a crash: the request it is serving is still answered.
        let work = SimDuration::micros(100);
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let svc: Service<Ping, Pong> = Service::bind(&net, net.add_node());
        let h = sim.handle();
        let h2 = h.clone();
        let daemon = svc.serve(Workers::Inline, move |req: Ping| {
            let sleep = h2.sleep(work);
            async move {
                sleep.await;
                Pong(req.0)
            }
        });
        assert!(
            daemon.crash() && !daemon.crash(),
            "only an up daemon crashes"
        );
        assert!(
            daemon.restart() && !daemon.restart(),
            "only a down daemon restarts"
        );
        let cli = svc.client(net.add_node());
        let d = daemon.clone();
        h.spawn({
            let h = h.clone();
            async move {
                h.sleep(SimDuration::micros(50)).await;
                assert!(!d.restart(), "the daemon is up mid-work");
            }
        });
        let answer = sim.run_main(async move { cli.try_call(Ping(7)).await });
        assert_eq!(answer, Some(Pong(7)));
        assert_eq!(daemon.queue_peak(), 1);
    }

    #[test]
    fn concurrent_workers_share_one_mailbox() {
        // Same load as above but the service runs 8 worker processes, so
        // service times overlap and the makespan collapses.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server = net.add_node();
        let svc: Service<Ping, Pong> = Service::bind(&net, server);
        let h = sim.handle();
        for _ in 0..8 {
            let svc2 = svc.clone();
            let h = h.clone();
            sim.spawn(async move {
                while let Some(msg) = svc2.recv().await {
                    h.sleep(SimDuration::micros(50)).await;
                    msg.respond(Pong(0));
                }
            });
        }
        let calls: Vec<_> = (0..8)
            .map(|_| {
                let cli = svc.client(net.add_node());
                async move { cli.call(Ping(0)).await }
            })
            .collect();
        sim.run_main(async move { imca_sim::join_all(&h, calls).await });
        let end = sim.now();
        assert!(
            end.as_nanos() < 3 * SimDuration::micros(50).as_nanos() + 200_000,
            "workers did not overlap: {end:?}"
        );
    }
}

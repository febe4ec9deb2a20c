//! Typed request/response endpoints over the [`Network`].
//!
//! A [`Service`] is a mailbox bound to one node. Clients created from it
//! send a request (charged to the network), the server process takes the
//! [`Incoming`] message, does its work (consuming virtual time however it
//! likes), and [`Incoming::respond`]s; the response transfer is charged on
//! the way back and the client's `call` future resolves when the last byte
//! arrives.

use imca_metrics::Histogram;
use imca_sim::sync::{oneshot, OneshotSender, Queue};

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

    /// Split into request and reply handle, for servers that finish the
    /// request asynchronously.
    pub fn into_parts(self) -> (Req, Replier<Resp>) {
        (self.req, self.replier)
    }
}

/// The reply half of an [`Incoming`] request.
pub struct Replier<Resp> {
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
    pub fn reply(self, resp: Resp) {
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
        let t0 = self.net.handle().now();
        let bytes = req.wire_bytes();
        let fate = self.net.deliver(self.src, self.dst, bytes).await;
        let (tx, rx) = oneshot();
        if fate.arrived() {
            self.enqueue(req, tx, fate);
        } else {
            // The server never sees the request and the sender gets no
            // TCP-level signal: keep the sender half alive forever so the
            // call resolves only via the caller's own deadline.
            std::mem::forget(tx);
        }
        let resp = rx.await.ok();
        if resp.is_some() {
            self.call_ns
                .record_duration(self.net.handle().now().since(t0));
        }
        resp
    }

    /// One-way, pipelined send (`noreply` style): ship the request and
    /// return once its last byte is on the wire, without waiting for the
    /// service to answer. Any response the server does produce is still
    /// charged to the network on the way back, then discarded (a true
    /// `noreply` command produces a zero-byte frame). Back-to-back posts
    /// from one caller serialise on the sender's NIC exactly like a
    /// streamed pipeline and arrive in send order, so a trailing
    /// [`RpcClient::try_call`] acts as a sync barrier for everything
    /// posted before it on a FIFO server.
    ///
    /// Returns whether the request reached the server. `false` means the
    /// installed [`crate::FaultPlan`] dropped it — the local TCP stack
    /// knows the segment was never acknowledged, so a pipelined sender can
    /// retransmit or declare the connection dead. Healthy networks always
    /// return `true`.
    pub async fn post(&self, req: Req) -> bool {
        let bytes = req.wire_bytes();
        let fate = self.net.deliver(self.src, self.dst, bytes).await;
        if !fate.arrived() {
            return false;
        }
        // The receiver half is dropped up front: the reply has nowhere to
        // land and nobody blocks on it.
        self.enqueue(req, oneshot().0, fate);
        true
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
    use imca_sim::{Sim, SimDuration};
    use std::cell::Cell;
    use std::rc::Rc;

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
    fn posts_pipeline_and_a_trailing_call_syncs_them() {
        // Four posted (noreply-style) pings followed by one normal call:
        // a FIFO server must apply every posted request before answering
        // the call, so the call doubles as a pipeline sync barrier.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server = net.add_node();
        let client_node = net.add_node();
        let svc: Service<Ping, Pong> = Service::bind(&net, server);
        let cli = svc.client(client_node);
        let h = sim.handle();
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let svc2 = svc.clone();
        let seen2 = Rc::clone(&seen);
        sim.spawn(async move {
            while let Some(msg) = svc2.recv().await {
                h.sleep(SimDuration::micros(10)).await;
                let v = msg.req.0;
                seen2.borrow_mut().push(v);
                msg.respond(Pong(v));
            }
        });
        sim.run_main(async move {
            for i in 0..4 {
                cli.post(Ping(i)).await;
            }
            let pong = cli.call(Ping(99)).await;
            assert_eq!(pong.0, 99);
            assert_eq!(
                *seen.borrow(),
                vec![0, 1, 2, 3, 99],
                "posted requests must be applied, in order, before the sync"
            );
        });
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

    #[test]
    fn dropped_post_reports_false_so_the_pipeline_can_retransmit() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server = net.add_node();
        let client_node = net.add_node();
        // Half the messages vanish; the sender is told which.
        net.install_faults(FaultPlan {
            loss: 0.5,
            ..FaultPlan::seeded(11)
        });
        let svc: Service<Ping, Pong> = Service::bind(&net, server);
        let cli = svc.client(client_node);
        let seen = Rc::new(Cell::new(0u32));
        let seen2 = Rc::clone(&seen);
        let svc2 = svc.clone();
        sim.spawn(async move {
            while let Some(msg) = svc2.recv().await {
                seen2.set(seen2.get() + 1);
                let (_, _replier) = msg.into_parts();
                // noreply: never respond.
            }
        });
        let acked = sim.run_main(async move {
            let mut ok = 0;
            for i in 0..40 {
                // Retransmit until the wire accepts it.
                while !cli.post(Ping(i)).await {}
                ok += 1;
            }
            ok
        });
        assert_eq!(acked, 40);
        assert_eq!(seen.get(), 40, "every post must land exactly once");
        let dropped = net.registry().snapshot().counter("dropped").unwrap();
        assert!(dropped > 0, "loss=0.5 over 40 posts must drop some");
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

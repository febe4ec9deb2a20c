//! `protocol/client` and `protocol/server` — the translator pair that
//! carries fops across the fabric, plus the server dispatch loop.
//!
//! GlusterFS processes requests asynchronously: the server winds a fop into
//! its stack and a callback returns the result to the client later (§2.1,
//! §4.1). Here the server is the fabric's one server actor
//! ([`Service::serve`]): every admitted fop becomes its own simulation
//! process, with [`Workers::Cpu`] standing in for the io-threads.

use std::rc::Rc;

use imca_fabric::{Daemon, Network, NodeId, RpcClient, Service, Workers};
use imca_sim::SimDuration;

use crate::fops::{Fop, FopReply, FsError};
use crate::translator::{wind, FopFuture, Translator, Xlator};

/// Server-side processing parameters.
#[derive(Debug, Clone)]
pub struct ServerParams {
    /// Userspace CPU consumed per fop (protocol decode, stack traversal).
    pub fop_cpu: SimDuration,
    /// Concurrent fop execution contexts (the io-threads translator).
    pub io_threads: usize,
}

impl Default for ServerParams {
    fn default() -> ServerParams {
        // GlusterFS 1.x served fops from an (almost) single-threaded
        // userspace daemon, and the near-linear NoCache degradation in
        // Figs 5/8 needs a server that saturates early. These constants
        // cap the server at 2 contexts ÷ 25 µs = 80 000 fops/s, which at
        // Fig 9's 2 KB records is a 164 MB/s NoCache ceiling, not the
        // paper's 417 MB/s: see EXPERIMENTS.md, Known deviations 2 and 3.
        ServerParams {
            fop_cpu: SimDuration::micros(25),
            io_threads: 2,
        }
    }
}

/// Start a GlusterFS server at `node`, serving fops into `child` (the
/// server-side translator stack, e.g. SMCache → posix) on
/// `params.io_threads` contexts that each decode a fop for
/// `params.fop_cpu`. Returns the RPC service clients connect to and the
/// daemon's handle, which crashes and restarts it: a crashed daemon
/// answers nothing (the client sees `FsError::Io`), and a fop it had
/// wound into the stack may or may not have mutated state, exactly the
/// ambiguity a real crash leaves.
pub fn start_server(
    net: &Network,
    node: NodeId,
    child: Xlator,
    params: ServerParams,
) -> (Service<Fop, FopReply>, Daemon) {
    let svc = Service::bind(net, node);
    let workers = Workers::Cpu(params.io_threads.max(1), params.fop_cpu);
    let daemon = svc.serve(workers, move |fop: Fop| wind(&child, fop));
    (svc, daemon)
}

/// `protocol/client` — the translator at the bottom of every client stack;
/// ships fops to a server over the fabric.
pub struct ClientProtocol {
    rpc: RpcClient<Fop, FopReply>,
}

impl ClientProtocol {
    /// Connect `client_node` to a server service.
    pub fn connect(svc: &Service<Fop, FopReply>, client_node: NodeId) -> Rc<ClientProtocol> {
        Rc::new(ClientProtocol {
            rpc: svc.client(client_node),
        })
    }
}

impl Translator for ClientProtocol {
    fn name(&self) -> &'static str {
        "protocol/client"
    }

    fn handle(self: Rc<Self>, fop: Fop) -> FopFuture {
        // A crashed server drops the request on the floor; surface it
        // as EIO instead of hanging the application forever.
        let fallback = fop.err_reply(FsError::Io);
        let sent = self.rpc.post(fop);
        Box::pin(async move { sent.await.unwrap_or(fallback) })
    }
}

/// The FUSE crossing: a fixed user↔kernel↔user cost charged on every fop
/// that enters the client stack ("a small portion of GlusterFS is in the
/// kernel ... calls are translated from the kernel VFS to the userspace
/// daemon through FUSE", §2.1).
pub struct FuseBridge {
    child: Xlator,
    handle: imca_sim::SimHandle,
}

impl FuseBridge {
    /// Per-fop FUSE crossing cost.
    pub const DEFAULT_COST: SimDuration = SimDuration::micros(18);

    /// Wrap `child` with a FUSE crossing of [`FuseBridge::DEFAULT_COST`].
    pub fn new(handle: imca_sim::SimHandle, child: Xlator) -> Rc<FuseBridge> {
        Rc::new(FuseBridge { child, handle })
    }
}

impl Translator for FuseBridge {
    fn name(&self) -> &'static str {
        "mount/fuse"
    }

    fn handle(self: Rc<Self>, fop: Fop) -> FopFuture {
        Box::pin(async move {
            // Request crossing into userspace.
            self.handle.sleep(Self::DEFAULT_COST / 2).await;
            let reply = wind(&self.child, fop).await;
            // Reply crossing back to the kernel/applications.
            self.handle.sleep(Self::DEFAULT_COST / 2).await;
            reply
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posix::Posix;
    use imca_fabric::Transport;
    use imca_sim::Sim;
    use imca_storage::{BackendParams, StorageBackend};

    fn build(sim: &Sim) -> (Network, Xlator) {
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server_node = net.add_node();
        let client_node = net.add_node();
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be);
        let svc = start_server(&net, server_node, posix, ServerParams::default()).0;
        let proto = ClientProtocol::connect(&svc, client_node);
        let top = FuseBridge::new(sim.handle(), proto) as Xlator;
        (net, top)
    }

    #[test]
    fn fops_round_trip_over_the_network() {
        let mut sim = Sim::new(0);
        let (_net, top) = build(&sim);
        sim.run_main(async move {
            let p = "/vol/net_file".to_string();
            assert!(matches!(
                wind(&top, Fop::Create { path: p.clone() }).await,
                FopReply::Create(Ok(_))
            ));
            wind(
                &top,
                Fop::Write {
                    path: p.clone(),
                    offset: 0,
                    data: b"across the wire".to_vec(),
                },
            )
            .await;
            let FopReply::Read(Ok(data)) = wind(
                &top,
                Fop::Read {
                    path: p.clone(),
                    offset: 7,
                    len: 3,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(data, b"the");
        });
    }

    #[test]
    fn remote_fop_costs_at_least_one_rtt_plus_fuse() {
        let mut sim = Sim::new(0);
        let (_net, top) = build(&sim);
        let h = sim.handle();
        let elapsed = sim.run_main(async move {
            wind(&top, Fop::Create { path: "/f".into() }).await;
            let t0 = h.now();
            wind(&top, Fop::Stat { path: "/f".into() }).await;
            h.now().since(t0).as_nanos()
        });
        let floor = Transport::ipoib_ddr().unloaded_rtt(66, 208).as_nanos()
            + FuseBridge::DEFAULT_COST.as_nanos();
        assert!(elapsed >= floor, "{elapsed} < {floor}");
    }

    #[test]
    fn crashed_server_fails_fops_fast_until_restart() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server_node = net.add_node();
        let client_node = net.add_node();
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be);
        let (svc, server) = start_server(&net, server_node, posix, ServerParams::default());
        let top = ClientProtocol::connect(&svc, client_node) as Xlator;
        let h = sim.handle();
        sim.run_main(async move {
            let p = "/vol/f".to_string();
            wind(&top, Fop::Create { path: p.clone() }).await;
            server.crash();
            assert!(!server.is_up());
            // Every kind of fop fails with EIO, promptly (no hang): the
            // dead daemon's dropped replier is the TCP reset.
            let t0 = h.now();
            assert_eq!(
                wind(&top, Fop::Stat { path: p.clone() }).await,
                FopReply::Stat(Err(FsError::Io))
            );
            assert_eq!(
                wind(
                    &top,
                    Fop::Write {
                        path: p.clone(),
                        offset: 0,
                        data: vec![1; 64],
                    },
                )
                .await,
                FopReply::Write(Err(FsError::Io))
            );
            assert!(h.now().since(t0) < SimDuration::millis(10));
            server.restart();
            let FopReply::Stat(Ok(st)) = wind(&top, Fop::Stat { path: p }).await else {
                panic!("restarted server must serve again")
            };
            // The crashed-away write never landed.
            assert_eq!(st.size, 0);
        });
    }

    #[test]
    fn a_restart_drops_the_fops_its_crash_left_waiting_for_an_io_thread() {
        // One io-thread, 100 µs of decode per fop: `/a` holds the thread
        // when the server crashes and restarts at 50 µs, and `/b` waits
        // for it. Both fops belong to the crashed incarnation, so neither
        // reaches posix and both callers see EIO.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let server_node = net.add_node();
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let params = ServerParams {
            fop_cpu: SimDuration::micros(100),
            io_threads: 1,
        };
        let (svc, server) = start_server(&net, server_node, Posix::new(be), params);
        let h = sim.handle();
        h.spawn({
            let h = h.clone();
            async move {
                h.sleep(SimDuration::micros(50)).await;
                server.crash();
                server.restart();
            }
        });
        let fops: Vec<_> = ["/a", "/b"]
            .map(|p| {
                let proto = ClientProtocol::connect(&svc, net.add_node()) as Xlator;
                async move { wind(&proto, Fop::Create { path: p.into() }).await }
            })
            .into();
        let check = ClientProtocol::connect(&svc, net.add_node()) as Xlator;
        sim.run_main(async move {
            for reply in imca_sim::join_all(&h, fops).await {
                assert_eq!(reply, FopReply::Create(Err(FsError::Io)));
            }
            for p in ["/a", "/b"] {
                let stat = wind(&check, Fop::Stat { path: p.into() }).await;
                assert_eq!(stat, FopReply::Stat(Err(FsError::NotFound)), "{p}");
            }
        });
    }

    #[test]
    fn io_threads_bound_server_concurrency() {
        // 16 concurrent stats against a 1-thread server serialise on fop
        // CPU; with 8 threads they mostly overlap.
        fn run(io_threads: usize) -> u64 {
            let mut sim = Sim::new(0);
            let net = Network::new(sim.handle(), Transport::ipoib_ddr());
            let server_node = net.add_node();
            let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
            let posix = Posix::new(be);
            let params = ServerParams {
                fop_cpu: SimDuration::micros(100),
                io_threads,
            };
            let svc = start_server(&net, server_node, posix, params).0;
            // Seed the file, then hammer stats from 16 clients.
            let seed = ClientProtocol::connect(&svc, net.add_node());
            let svc2 = svc.clone();
            let net2 = net.clone();
            sim.run_main(async move {
                wind(&(seed as Xlator), Fop::Create { path: "/f".into() }).await;
                let stats: Vec<_> = (0..16)
                    .map(|_| {
                        let proto = ClientProtocol::connect(&svc2, net2.add_node()) as Xlator;
                        async move { wind(&proto, Fop::Stat { path: "/f".into() }).await }
                    })
                    .collect();
                imca_sim::join_all(&net2.handle(), stats).await;
            });
            sim.now().as_nanos()
        }
        let serial = run(1);
        let parallel = run(8);
        assert!(parallel * 2 < serial, "serial={serial} parallel={parallel}");
    }
}

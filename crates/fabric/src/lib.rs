//! # imca-fabric — simulated cluster interconnect
//!
//! Models the network of the paper's testbed: a 64-node cluster with
//! InfiniBand DDR HCAs, where IPoIB (TCP over IB, Reliable Connection) links
//! the GlusterFS client, server, and the MemCached daemons. Gigabit
//! Ethernet and native RDMA presets support the motivation experiment
//! (Fig 1) and the RDMA future-work ablation.
//!
//! The crate exposes four layers:
//!
//! * [`Transport`] — a cost model (latency / bandwidth / host CPU) preset,
//! * [`Network`] / [`NodeId`] — nodes with contended NIC stations,
//! * [`Service`] / [`RpcClient`] — typed request/response endpoints, the
//!   idiom every protocol in this workspace is written in,
//! * [`Service::serve`] — the one server actor every simulated daemon
//!   runs on: it takes, queues, serves and answers requests on its
//!   [`Workers`], and drops the ones a crash of its [`Daemon`] kills.
//!
//! ```
//! use imca_fabric::{Network, Service, Transport, WireSize, Workers};
//! use imca_sim::Sim;
//!
//! #[derive(Clone)]
//! struct Echo(u32);
//! impl WireSize for Echo {
//!     fn wire_bytes(&self) -> usize { 64 }
//! }
//!
//! let mut sim = Sim::new(0);
//! let net = Network::new(sim.handle(), Transport::ipoib_ddr());
//! let server = net.add_node();
//! let client = net.add_node();
//! let svc: Service<Echo, Echo> = Service::bind(&net, server);
//! let cli = svc.client(client);
//!
//! let daemon = svc.serve(Workers::Inline, |req: Echo| async move { Echo(req.0 + 1) });
//! assert!(daemon.is_up());
//! let reply = sim.run_main(async move { cli.call(Echo(41)).await });
//! assert_eq!(reply.0, 42);
//! let end = sim.now();
//! // One unloaded IPoIB round trip of 64-byte messages:
//! assert_eq!(end.as_nanos(), Transport::ipoib_ddr().unloaded_rtt(64, 64).as_nanos());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fault;
mod network;
mod rpc;
mod transport;

pub use fault::{Delivery, FaultPlan};
pub use network::{Network, NodeId};
pub use rpc::{Daemon, Handler, Incoming, RpcClient, Service, Workers};
pub use transport::{Transport, WireSize};

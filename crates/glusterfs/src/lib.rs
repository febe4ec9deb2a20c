//! # imca-glusterfs — a miniature GlusterFS
//!
//! A working reimplementation of the pieces of GlusterFS the paper builds
//! on (§2.1): the translator architecture, a POSIX storage translator over
//! the timed storage substrate, client/server protocol translators over the
//! simulated fabric, and the stock io-cache / read-ahead / write-behind
//! performance translators. Files hold real bytes end-to-end.
//!
//! IMCa's two translators (CMCache on the client, SMCache on the server —
//! see the `imca-core` crate) plug into exactly this stack, the same way
//! the paper describes (§4.1).
//!
//! ## Stacks
//!
//! ```text
//! client: GlusterMount → FuseBridge → [CMCache] → ClientProtocol ─┐ fabric
//! server:              [SMCache] → Posix → StorageBackend ◄───────┘
//! ```
//!
//! ```
//! use imca_fabric::{Network, Transport};
//! use imca_glusterfs::{start_server, ClientProtocol, FsError, FuseBridge,
//!                      GlusterMount, Posix, ServerParams, Xlator};
//! use imca_sim::Sim;
//! use imca_storage::{BackendParams, StorageBackend};
//!
//! let mut sim = Sim::new(0);
//! let net = Network::new(sim.handle(), Transport::ipoib_ddr());
//! // Server side: posix over the timed storage stack.
//! let server_node = net.add_node();
//! let backend = StorageBackend::new(sim.handle(), BackendParams::paper_server());
//! let (svc, daemon) = start_server(&net, server_node,
//!     Posix::new(backend) as Xlator, ServerParams::default());
//! // Client side: FUSE → protocol/client, then a POSIX-ish mount API.
//! let client_node = net.add_node();
//! let proto = ClientProtocol::connect(&svc, client_node) as Xlator;
//! let mount = GlusterMount::new(FuseBridge::new(sim.handle(), proto) as Xlator);
//!
//! sim.run_main(async move {
//!     mount.create("/doc/hello").await.unwrap();
//!     let fd = mount.open("/doc/hello").await.unwrap();
//!     mount.write(fd, 0, b"translator stacks").await.unwrap();
//!     assert_eq!(mount.read(fd, 0, 10).await.unwrap(), b"translator");
//!     assert_eq!(mount.stat("/doc/hello").await.unwrap().size, 17);
//!     mount.close(fd).await.unwrap();
//! });
//! // The daemon handle crashes the server: it answers nothing until its
//! // restart, so every fop fails with EIO.
//! daemon.crash();
//! let mount = GlusterMount::new(ClientProtocol::connect(&svc, net.add_node()) as Xlator);
//! sim.run_main(async move {
//!     assert_eq!(mount.stat("/doc/hello").await.unwrap_err(), FsError::Io);
//! });
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fops;
mod iocache;
mod mount;
mod posix;
mod protocol;
mod readahead;
mod translator;
mod writebehind;

pub use fops::{FileStat, Fop, FopReply, FsError};
pub use iocache::IoCache;
pub use mount::{Fd, GlusterMount};
pub use posix::Posix;
pub use protocol::{start_server, ClientProtocol, FuseBridge, ServerParams};
pub use readahead::ReadAhead;
pub use translator::{wind, FopFuture, Translator, Xlator};
pub use writebehind::WriteBehind;

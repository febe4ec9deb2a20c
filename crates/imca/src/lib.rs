//! # imca-core — the InterMediate Cache architecture
//!
//! The paper's contribution (§4): a bank of MemCached daemons between
//! GlusterFS clients and the GlusterFS server, maintained by two
//! translators:
//!
//! * [`CmCache`] — client-side: serves `stat` and block-assembled `read`s
//!   straight from the bank, forwarding to the server on any miss,
//! * [`SmCache`] — server-side: purges on open/close/unlink, seeds stat
//!   entries, and pushes block-aligned data after reads and (persistent)
//!   writes, synchronously or on a background update thread,
//! * [`Bank`] / [`BankClient`] — the MCD array itself, running the real
//!   storage engine from `imca-memcached` behind fabric RPC, with
//!   libmemcache-style CRC-32 / modulo routing and transparent failover,
//! * [`Cluster`] — deployment builder matching Fig 2.
//!
//! Block math lives in [`block`], the key schema in [`keys`].
//!
//! Every component doubles as an [`imca_metrics::MetricSource`];
//! [`Cluster::metrics`] composes them into one `tier.component.metric`
//! snapshot (see the workspace README's Observability section).
//!
//! ```
//! use std::rc::Rc;
//! use imca_core::{Cluster, ClusterConfig, ImcaConfig};
//! use imca_memcached::McConfig;
//! use imca_sim::Sim;
//!
//! let mut sim = Sim::new(42);
//! let cluster = Rc::new(Cluster::build(
//!     sim.handle(),
//!     ClusterConfig::imca(ImcaConfig {
//!         mcd_count: 2,
//!         mcd_config: McConfig::with_mem_limit(16 << 20),
//!         ..ImcaConfig::default()
//!     }),
//! ));
//! let c = Rc::clone(&cluster);
//! sim.run_main(async move {
//!     let mount = c.mount();
//!     mount.create("/demo").await.unwrap();
//!     let fd = mount.open("/demo").await.unwrap();
//!     mount.write(fd, 0, &vec![7u8; 4096]).await.unwrap();
//!     // The write populated the bank; this read never touches the server.
//!     assert_eq!(mount.read(fd, 0, 4096).await.unwrap(), vec![7u8; 4096]);
//! });
//! assert_eq!(cluster.metrics().counter("cmcache.0.read_hits"), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod keys;

mod cluster;
mod cmcache;
mod mcd;
mod meta;
mod smcache;

pub use cluster::{Cluster, ClusterConfig, ImcaConfig};
pub use cmcache::CmCache;
pub use mcd::{
    start_mcd, Bank, BankClient, CasToken, CasVerdict, Kept, McdCosts, McdNode, McdReq, McdResp,
    Replication, RetryPolicy, Sent, Store, KEPT_SLOTS,
};
pub use meta::{
    serve_revocations, LeaseAck, LeaseHub, LeaseRevoke, MetaConfig, MetaEngine, MetaPolicy,
    StatResult, StatSource, NEG_MARKER,
};
pub use smcache::{Coherence, RewarmLimit, SmCache};

/// The counters called `names` in `src`'s registry, in order.
#[cfg(test)]
fn counters<const N: usize>(src: &dyn imca_metrics::MetricSource, names: [&str; N]) -> [u64; N] {
    let snap = imca_metrics::collect_from(src, "");
    names.map(|name| snap.counter(name).expect("registered counter"))
}

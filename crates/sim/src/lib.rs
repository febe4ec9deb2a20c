//! # imca-sim — deterministic discrete-event simulation engine
//!
//! The substrate every other crate in this workspace runs on. It provides:
//!
//! * a virtual clock ([`SimTime`], [`SimDuration`]) with nanosecond
//!   fixed-point resolution,
//! * a single-threaded async executor ([`Sim`]) where model code is written
//!   as ordinary `async` processes, and [`Sim::run_main`] runs one of them
//!   to its answer,
//! * synchronisation primitives ([`sync::Queue`], [`sync::Resource`],
//!   [`sync::Barrier`], [`sync::oneshot`]) that suspend on *virtual* time,
//! * seeded, forkable randomness ([`SimHandle::fork_rng`]),
//! * shared plumbing for deterministic fault schedules ([`fault`]), used
//!   by both the network and the storage fault models.
//!
//! Determinism guarantee: given the same seed and model code, every run
//! produces an identical event trace. Simultaneous timers fire in
//! registration order; resources admit in strict FIFO order.
//!
//! ## Why a simulator?
//!
//! The IMCa paper was evaluated on a 64-node InfiniBand DDR cluster with a
//! RAID-backed GlusterFS server — hardware this reproduction does not have.
//! Instead of stubbing the network, we model the components whose *relative*
//! costs produce the paper's results (NIC latency/bandwidth/contention,
//! disks, page caches, host CPU per-message overheads) and run the real
//! cache/file-system logic on top.
//!
//! ```
//! use imca_sim::{Sim, SimDuration};
//! use imca_sim::sync::Queue;
//!
//! let mut sim = Sim::new(1);
//! let h = sim.handle();
//! let q: Queue<u32> = Queue::new();
//!
//! // A server process.
//! let qs = q.clone();
//! let hs = h.clone();
//! sim.spawn(async move {
//!     while let Some(req) = qs.recv().await {
//!         hs.sleep(SimDuration::micros(3)).await; // service time
//!         let _ = req;
//!     }
//! });
//!
//! // The client is the main task: the run's answer is its output.
//! let sent = sim.run_main(async move {
//!     for i in 0..10 {
//!         q.push(i);
//!         h.sleep(SimDuration::micros(1)).await;
//!     }
//!     q.close();
//!     h.now()
//! });
//! assert_eq!(sent.as_nanos(), 10_000);
//! // The server drains the last request after the client finished.
//! assert!(sim.now() > sent);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;
mod sim;
pub mod sync;
mod time;
mod util;
mod wheel;

pub use sim::{yield_now, Delay, RunSummary, Sim, SimHandle, YieldNow};
pub use time::{SimDuration, SimTime};
pub use util::{join_all, timeout, TokenBucket};
pub use wheel::Scheduler;

//! # imca-workloads — the paper's benchmarks as reusable drivers
//!
//! Each driver builds its own deterministic simulation, deploys a system
//! (NoCache GlusterFS, GlusterFS+IMCa, or Lustre — see [`SystemSpec`]),
//! runs the workload with the barriers the paper describes, and returns
//! the measurements the corresponding figure plots:
//!
//! * [`statbench`] — §5.2 / Fig 5: N nodes stat a large file set,
//! * [`latbench`] — §5.3, §5.4, §5.6 / Figs 6, 7, 8, 10: sequential
//!   write-then-read latency sweeps, per-node files or one shared file,
//! * [`iozone`] — §5.5 / Fig 9 and the Fig 1 NFS motivation: multi-stream
//!   sequential read throughput,
//! * [`lsstorm`] — the "ls -l storm": repeated readdir+stat walks with
//!   ghost probes, driving the metadata-tier ablation,
//! * [`overload`] — closed-loop readers against a prewarmed bank on the
//!   full stack: swept to the saturation knee at bank scale
//!   (`fig8_scale`) and driven 2–4× past it with the DESIGN.md §8
//!   protection pair (daemon admission control + the server's rewarm
//!   throttle) switchable as a whole or one mechanism at a time
//!   (`ablate_overload`),
//! * [`report`] — the table type the bench binaries print and serialise.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod iozone;
pub mod latbench;
pub mod lsstorm;
pub mod overload;
pub mod report;
pub mod statbench;
mod system;

pub use system::{Deployment, FsClient, FsHandle, SystemSpec};

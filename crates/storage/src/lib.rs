//! # imca-storage — disks, RAID, page cache, and real file bytes
//!
//! The storage substrate under every file server in this reproduction:
//!
//! * [`Disk`] — single-spindle model with sequential
//!   detection (the disk-seek wall the paper's caching tier exists to hide),
//! * [`Raid0`] — the server's 8-disk HighPoint array,
//! * [`PageCache`] — the bounded LRU server-side cache the paper contrasts
//!   IMCa against,
//! * [`ExtentStore`] — byte-accurate file contents, so correctness is
//!   testable end-to-end,
//! * [`StorageBackend`] — the timed combination used by GlusterFS POSIX
//!   translators, Lustre OSTs and the NFS server,
//! * [`StorageFaultPlan`] — seeded, deterministic fault injection for the
//!   disk tier (I/O error rates, error windows, slow and failed members).
//!
//! ```
//! use imca_sim::Sim;
//! use imca_storage::{BackendParams, FileId, StorageBackend};
//!
//! let mut sim = Sim::new(0);
//! let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
//! let be2 = be.clone();
//! let h = sim.handle();
//! sim.run_main(async move {
//!     be2.create(FileId(1)).await.unwrap();
//!     be2.write(FileId(1), 0, b"durable bytes").await.unwrap();
//!     be2.drop_caches(); // cold cache: the next read pays the disk
//!     let t0 = h.now();
//!     assert_eq!(be2.read(FileId(1), 0, 13).await.unwrap(), b"durable bytes");
//!     let cold = h.now().since(t0);
//!     let t1 = h.now();
//!     be2.read(FileId(1), 0, 13).await.unwrap(); // warm: page-cache memcpy
//!     assert!(h.now().since(t1) < cold);
//! });
//! let snap = imca_metrics::collect_from(&be, "storage");
//! assert!(snap.counter("storage.pagecache.misses") > Some(0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backend;
mod disk;
mod extent;
pub mod fault;
mod pagecache;
mod raid;

pub use backend::{BackendParams, StorageBackend};
pub use disk::Disk;
pub use extent::ExtentStore;
pub use fault::{IoError, StorageFaultPlan};
pub use pagecache::{Evicted, FileId, Lookup, PageCache};
pub use raid::Raid0;

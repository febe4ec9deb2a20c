//! # imca-repro — reproduction of IMCa (Noronha & Panda, 2008)
//!
//! *IMCa: A High Performance Caching Front-end for GlusterFS on InfiniBand*
//! proposed inserting a bank of memcached servers between file-system
//! clients and the GlusterFS server, intercepting `stat` and `read` at a
//! client-side translator (CMCache) and keeping the bank fresh from a
//! server-side translator (SMCache).
//!
//! This crate is the facade over the workspace: it re-exports every
//! subsystem so examples and integration tests can use one import. See
//! `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure.
//!
//! ## Crate map
//!
//! * [`sim`] — deterministic discrete-event simulation engine
//! * [`fabric`] — network models (GigE / IPoIB-DDR / RDMA)
//! * [`storage`] — disks, RAID, page cache, extent store
//! * [`memcached`] — a real memcached (slabs, LRU, text protocol, key placement)
//! * [`glusterfs`] — miniature GlusterFS with translator stacks
//! * [`lustre`] — Lustre-like baseline (MDS + striped OSTs)
//! * [`nfs`] — single-server NFS model (motivation, Fig 1)
//! * [`imca`] — the paper's contribution: CMCache / SMCache / MCD bank
//! * [`workloads`] — benchmark drivers and reporting

#![warn(rust_2018_idioms)]

pub use imca_core as imca;
pub use imca_fabric as fabric;
pub use imca_glusterfs as glusterfs;
pub use imca_lustre as lustre;
pub use imca_memcached as memcached;
pub use imca_metrics as metrics;
pub use imca_nfs as nfs;
pub use imca_sim as sim;
pub use imca_storage as storage;
pub use imca_workloads as workloads;

//! # imca-memcached — a working memcached
//!
//! The paper's cache bank is built from stock memcached daemons (§2.2):
//! slab-allocated memory with a ~1.25 growth factor between chunk classes,
//! per-class LRU eviction, lazy expiration, a 1 MB value cap and 250-byte
//! key cap, accessed over the ASCII protocol via libmemcache with CRC-32
//! key hashing.
//!
//! This crate implements all of that for real — the capacity behaviour in
//! the experiments (capacity misses with one MCD, zero misses with two,
//! §5.2) emerges from the actual algorithm rather than a model:
//!
//! * [`Memcached`] — the storage engine (`Rc` it inside a simulation),
//! * [`protocol`] — streaming ASCII-protocol codec for the commands the
//!   bank sends (`get`, `gets`, `set`, `cas`, `delete`, `version`),
//! * [`McServer`] — protocol dispatch over the engine,
//! * [`Selector`]/[`ServerMap`] — libmemcache-style key placement:
//!   CRC-32, static-modulo (the paper's IOzone variant), and ketama
//!   consistent hashing (future-work ablation), each with an `r`-wide
//!   replica set. Placement only: which daemons are alive, and what a
//!   dead one means for an op, is the bank client's business
//!   (`imca-core`'s `BankClient`).
//!
//! ```
//! use bytes::Bytes;
//! use imca_memcached::protocol::{encode_response, parse_command};
//! use imca_memcached::{McConfig, McServer};
//!
//! // The same engine + dispatch the simulated daemons run, driven over
//! // raw wire bytes:
//! let daemon = McServer::new(McConfig::with_mem_limit(8 << 20));
//! let (set, _) = parse_command(b"set k 0 0 5\r\nhello\r\n").unwrap();
//! let resp = daemon.apply(&set, 0).unwrap();
//! assert_eq!(encode_response(&resp), b"STORED\r\n");
//! let (get, _) = parse_command(b"get k\r\n").unwrap();
//! let resp = daemon.apply(&get, 0).unwrap();
//! assert_eq!(encode_response(&resp), b"VALUE k 0 5\r\nhello\r\nEND\r\n");
//!
//! // Or through the typed engine API:
//! let store = daemon.store();
//! store.set(b"n", Bytes::from_static(b"42"), 0, None, 0).unwrap();
//! assert_eq!(store.get(b"n", 0).unwrap().value, &b"42"[..]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod hash;
pub mod protocol;
mod server;
mod store;

pub use hash::{crc32, crc32_bucket, Selector, ServerMap};
pub use server::{absolute_expiry, McServer};
pub use store::{
    CasResult, GetValue, McConfig, McError, McStats, Memcached, MAX_ITEM_SIZE, MAX_KEY_LEN,
};

//! The MCD array (§4.1): MemCached daemons on dedicated nodes, and the
//! client side of the bank that CMCache and SMCache talk to.
//!
//! Each daemon node runs the *real* storage engine from `imca-memcached`
//! behind an RPC service; the bank client does libmemcache-style key
//! distribution (CRC-32 or static-modulo, §5.1/§5.5) and handles daemon
//! failures transparently (§4.4) by treating a dead daemon as a miss —
//! deliberately *not* rehashing to another daemon, which can serve stale
//! data once daemons come and go (see [`BankClient`]).
//!
//! A call names only its key: placement comes from the key itself (modulo
//! reads a block key's offset back, `crate::keys::block_offset`), the
//! transport from the daemons' nodes (`Bank::start` places them on
//! `ImcaConfig::bank_transport`, and every request and reply to a daemon
//! travels on it), and deadlines and retries from the client.
//!
//! The bank is owned and administered through a [`Bank`] handle:
//! `Bank::start` brings the daemons up, `bank.kill(i)` / `bank.revive(i)`
//! drive the failover experiments, its `MetricSource` publishes every
//! daemon's counters, and `bank.client(..)` connects a consumer from an
//! `ImcaConfig`.
//!
//! Every key lives on its [`Replication`] `factor` daemons (DESIGN.md
//! §4d) — its selector primary and the next `R − 1` after it; the paper's
//! single-home bank is simply `R = 1`. [`BankClient`] does each of its
//! jobs one way at every factor:
//!
//! * **one read loop** behind [`BankClient::get`] and
//!   [`BankClient::get_multi`]: route each key to one usable replica
//!   (power-of-two-choices on the client's own in-flight counts), send —
//!   one multi-key `get` RPC per daemon for a batch, the way libmemcache
//!   batches (DESIGN.md §4c); a direct RPC for a single key — settle the
//!   reply, and fail over past a replica that is dead, shed or failed in
//!   flight until one answers or none is left (a local miss);
//! * **one write fan-out** behind [`BankClient::set`],
//!   [`BankClient::delete`] and the private `cas`: the request goes to
//!   every usable target, and a daemon whose write fails is quarantined;
//! * **one frame per daemon** behind the private `set_pipeline`,
//!   `delete_pipeline`, `set_kept_pipeline` and `cas_pipeline`: each
//!   daemon's whole share of a bulk call travels as one request message
//!   ([`McdReq`] carries every command) and comes back as one reply
//!   ([`McdResp`], an answer per command) — `noreply` commands behind a
//!   trailing `version` as the sync, or answering stores read back by
//!   position (DESIGN.md §4c).
//!
//! The translators reach the bulk forms through five entry points —
//! [`BankClient::fetch_blocks`], [`BankClient::store_blocks`],
//! [`BankClient::store_kept`], [`BankClient::remove_keys`],
//! [`BankClient::cas_blocks`] — each of which picks the batched form or
//! one task per key from `ImcaConfig::batching`; no other module reads
//! that switch.
//!
//! **Posted stores** (DESIGN.md §4f): [`BankClient::post_stores`] and
//! [`BankClient::post_store`] send a push — `set`s, and `add`s that store
//! only where a key is absent — at the call, so its frames leave the
//! node ahead of anything asked for later, and hand back its answer as
//! a [`Sent`] to await whenever the caller likes. Where
//! [`BankClient::may_reorder`] holds, or a round might take a daemon
//! more than one frame, nothing is sent at the call.
//!
//! **Kept tokens** (DESIGN.md §4f): a store that asks for its token (meta
//! `ms … c`) is answered with the item's new CAS unique.
//! [`BankClient::store_kept`]'s `set`s and every `cas` ask, and hand the
//! tokens back per replica position ([`Kept`], [`CasVerdict::Stored`]);
//! [`BankClient::kept_tokens`] turns what a writer kept into `cas` tokens
//! for the key's usable targets, so a write that needs no old bytes skips
//! [`BankClient::gets_for_update`].
//!
//! All three reach the daemons through one `Wire`: the deadline,
//! retry and backoff loop around a single RPC, which holds the client's
//! one static [`RetryPolicy`]. A retried frame re-applies every command
//! in it.

mod client;
mod daemon;
mod policy;

pub use client::{BankClient, Sent, Store};
pub use daemon::{start_mcd, Bank, McdCosts, McdNode, McdReq, McdResp};
pub use policy::{CasToken, CasVerdict, Kept, Replication, RetryPolicy, KEPT_SLOTS};

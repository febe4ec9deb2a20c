//! What a bank client is configured with and speaks in: the retry
//! policy, replica placement, CAS tokens, kept tokens and verdicts, and
//! the [`Wire`] — one deadline-guarded RPC loop to every daemon.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::Bytes;
use imca_fabric::RpcClient;
use imca_memcached::protocol::{Command, Response, StoreVerb};
use imca_metrics::Counter;
use imca_sim::{timeout, SimDuration, SimHandle};

use super::daemon::{McdReq, McdResp};

/// Per-RPC deadline, retry, and fail-fast behaviour of a
/// [`BankClient`](super::BankClient).
///
/// The defaults are deliberately generous: on a healthy fabric the bank
/// never comes close to them (a frame can legitimately wait a couple of
/// milliseconds behind hundreds of stores), so healthy
/// simulations behave exactly as if no deadline existed. Fault-injection
/// experiments pass tighter policies explicitly.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Per-attempt RPC deadline. An attempt that has not answered by then
    /// is abandoned (the late response, if any, is discarded).
    pub deadline: SimDuration,
    /// Retries after the first timed-out attempt. Note that a *reset*
    /// (daemon killed mid-flight) is never retried — the connection is
    /// dead and libmemcache fails the op immediately.
    pub retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff_base: SimDuration,
    /// Backoff ceiling for the exponential doubling.
    pub backoff_cap: SimDuration,
    /// After all retries time out, the daemon's circuit opens for this
    /// long: ops route as local misses with no wire traffic, then the
    /// next op after expiry probes the daemon again.
    pub circuit_cooldown: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            deadline: SimDuration::millis(50),
            retries: 2,
            backoff_base: SimDuration::micros(100),
            backoff_cap: SimDuration::millis(1),
            circuit_cooldown: SimDuration::millis(100),
        }
    }
}

/// Replica placement for bank entries (DESIGN.md §4d).
///
/// `factor: R` places every key on its selector primary plus the next
/// `R − 1` distinct daemons in placement order — ring successors under
/// ketama, linear successors under CRC-32/modulo. Writes and purges fan
/// out to the whole replica set; reads pick one live replica per request
/// by power-of-two-choices on the client's own in-flight load and fail
/// over to the next live replica when a daemon is dead or shed (a warm
/// hit where the single-home bank takes a miss). `factor: 1` (the
/// default) is the paper's single-home bank: the same code over a
/// one-entry replica set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replication {
    /// Daemons each key lives on, clamped to the bank size.
    pub factor: usize,
}

impl Default for Replication {
    fn default() -> Replication {
        Replication { factor: 1 }
    }
}

/// A CAS token as the bank client hands it out: the engine's `gets`
/// token *tagged with the daemon whose token space it belongs to*.
///
/// Every daemon numbers its stores from its own monotonic counter, so
/// two daemons' token spaces overlap numerically: a bare `u64` read from
/// replica A would happily "match" an unrelated store on replica B. With
/// replication a failover re-route answers a retry round from a
/// *different* daemon than the original primary, which is exactly the
/// situation where an untagged token silently crosses spaces. Tagging
/// makes the confusion unrepresentable — a `cas` store always goes back
/// to `daemon`, and only to `daemon` (DESIGN.md §4f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CasToken {
    /// The daemon whose token space `token` lives in — the one that
    /// answered the `gets`, or the store the token was kept from.
    pub daemon: usize,
    /// `daemon`'s position in the key's replica set (placement order):
    /// where a [`Kept`] holds the token the `cas` answers with.
    pub slot: usize,
    /// The engine token from that daemon's reply.
    pub token: u64,
}

/// The replica positions a [`Kept`] holds tokens for. A key placed on
/// more daemons keeps none past them, so its writes fetch their tokens.
pub const KEPT_SLOTS: usize = 2;

/// The CAS uniques one key's last token-asking stores answered with
/// (DESIGN.md §4f), one per replica position in placement order; 0 where
/// none is kept (every daemon numbers its stores from 1). A key's
/// replica set is fixed, so a position names the same daemon for the
/// bank's whole life, dead or alive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Kept(pub [u64; KEPT_SLOTS]);

impl Kept {
    /// Keep `token` for replica position `slot`; a position past
    /// [`KEPT_SLOTS`] keeps nothing.
    pub fn keep(&mut self, slot: usize, token: u64) {
        if let Some(kept) = self.0.get_mut(slot) {
            *kept = token;
        }
    }

    /// The token kept for replica position `slot`, if any.
    pub fn at(&self, slot: usize) -> Option<u64> {
        self.0.get(slot).copied().filter(|&token| token != 0)
    }
}

/// One key's answer rows from [`BankClient::gets_for_update`]: for each
/// usable write-target replica, `(daemon, value + token)` — `None` when
/// that daemon answered but does not hold the key (cold replica).
pub type ReplicaRows = Vec<(usize, Option<(Bytes, CasToken)>)>;

/// Outcome of one compare-and-swap store (DESIGN.md §4f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasVerdict {
    /// The token still matched: the value was replaced in place, and the
    /// daemon answered with the item's new CAS unique.
    Stored(u64),
    /// The key exists with a newer token — someone updated it between
    /// the `gets` and the `cas`.
    Conflict,
    /// The key vanished between the `gets` and the `cas` (concurrent
    /// delete/purge or eviction).
    Missing,
    /// No definitive daemon answer: dead/shed at routing time, reset or
    /// timed out mid-flight (the daemon is then quarantined like any
    /// failed write — see `BankClient::settle_write` — so it cannot
    /// keep serving the possibly-stale old value).
    Failed,
}

/// What one deadline-guarded bank RPC resolved to.
pub(super) enum CallOutcome {
    /// The daemon answered within the deadline.
    Resp(McdResp),
    /// The daemon reset the connection (killed mid-flight). Fail fast; no
    /// retry — the op is already known lost.
    Dropped,
    /// Every attempt ran out its deadline (lost on the wire, partitioned,
    /// or the daemon is hopelessly slow).
    TimedOut,
}

/// Map the answer to the store at position `pos` of a frame to its
/// verdict. Anything that is not a definitive engine answer — transport
/// failure, or a non-store reply such as a `CLIENT_ERROR` — is
/// [`CasVerdict::Failed`]; the caller's settle step decides what that
/// means for the daemon.
pub(super) fn cas_verdict(outcome: &CallOutcome, pos: usize) -> CasVerdict {
    let CallOutcome::Resp(resp) = outcome else {
        return CasVerdict::Failed;
    };
    match resp.at(pos) {
        Some(Response::StoredCas(token)) => CasVerdict::Stored(*token),
        Some(Response::Exists) => CasVerdict::Conflict,
        Some(Response::NotFound) => CasVerdict::Missing,
        _ => CasVerdict::Failed,
    }
}

/// A `get` (or, `with_cas`, the write path's token-fetching `gets`).
pub(super) fn get_req(keys: Vec<Vec<u8>>, with_cas: bool) -> McdReq {
    McdReq::one(Command::Get { keys, with_cas })
}

/// The CAS unique the store at position `pos` of a frame answered
/// with: `Some` for a store that asked for it and landed.
pub(super) fn stored_token(outcome: &CallOutcome, pos: usize) -> Option<u64> {
    match outcome {
        CallOutcome::Resp(resp) => match resp.at(pos) {
            Some(Response::StoredCas(token)) => Some(*token),
            _ => None,
        },
        _ => None,
    }
}

/// What a store command answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Answer {
    /// Nothing (`noreply`): a frame's trailing `version` syncs it.
    Quiet,
    /// `STORED`, or why not.
    Status,
    /// The item's new CAS unique (meta `ms … c`), or why not.
    Token,
}

/// A `set`/`cas` store command with no flags and no expiry, answering
/// as `answer` says.
pub(super) fn store_cmd(verb: StoreVerb, key: Vec<u8>, data: Bytes, answer: Answer) -> Command {
    Command::Store {
        verb,
        key,
        flags: 0,
        exptime: 0,
        data,
        with_cas: answer == Answer::Token,
        noreply: answer == Answer::Quiet,
    }
}

/// The next retry backoff: doubled, up to the policy's cap.
fn doubled(backoff: SimDuration, policy: &RetryPolicy) -> SimDuration {
    SimDuration::nanos((backoff.as_nanos().saturating_mul(2)).min(policy.backoff_cap.as_nanos()))
}

/// The client's end of the wire to every daemon: everything a
/// deadline-guarded call needs besides its target and request, the
/// client's fixed [`RetryPolicy`] included.
/// Its calls are self-contained `'static` futures, so batched paths can
/// run them per daemon through `join_all`.
pub(super) struct Wire {
    pub(super) handle: SimHandle,
    pub(super) clients: Vec<RpcClient<McdReq, McdResp>>,
    /// The client's one deadline, retry and circuit policy.
    pub(super) policy: RetryPolicy,
    /// RPC attempts abandoned at their deadline.
    pub(super) rpc_timeouts: Counter,
    /// Retried attempts.
    pub(super) retries: Counter,
    /// Attempts abandoned at their deadline whose late answer or reset
    /// has not arrived: each may still land at its daemon, after what was
    /// issued behind it (`BankClient::may_reorder`).
    pub(super) in_doubt: Rc<Cell<u64>>,
}

impl Wire {
    /// One deadline-guarded attempt loop against daemon `idx`.
    pub(super) fn call(
        &self,
        idx: usize,
        req: McdReq,
    ) -> impl Future<Output = CallOutcome> + 'static {
        self.call_each(idx, std::iter::once(req))
    }

    /// Send `frames` to daemon `idx` one after another, each through the
    /// attempt loop once the one before it has answered, and return
    /// their answers joined in order. The first frame that fails ends the
    /// round: its outcome stands for all of it, and nothing after it is
    /// sent. `frames` is drawn lazily, so a long round holds one frame's
    /// commands at a time.
    pub(super) fn call_each(
        &self,
        idx: usize,
        frames: impl Iterator<Item = McdReq> + 'static,
    ) -> impl Future<Output = CallOutcome> + 'static {
        self.send_each(idx, frames, false)
    }

    /// [`Wire::call_each`] — or, with `post`, the same with the first
    /// frame's first attempt sent at the call ([`RpcClient::post`]): it
    /// leaves the node ahead of every message asked for after this call.
    /// Later frames and retries go out as the round reaches them.
    pub(super) fn send_each(
        &self,
        idx: usize,
        mut frames: impl Iterator<Item = McdReq> + 'static,
        post: bool,
    ) -> impl Future<Output = CallOutcome> + 'static {
        let policy = self.policy.clone();
        let handle = self.handle.clone();
        let client = self.clients[idx].clone();
        let rpc_timeouts = self.rpc_timeouts.clone();
        let retries = self.retries.clone();
        let in_doubt = Rc::clone(&self.in_doubt);
        // Boxed, so that a call not posted carries one pointer for it.
        let first = post.then(|| frames.next()).flatten().map(|req| {
            let sent: Pin<Box<dyn Future<Output = _>>> = Box::pin(client.post(req.clone()));
            (sent, req)
        });
        let (mut sent, first) = first.unzip();
        async move {
            let mut answers: Option<McdResp> = None;
            for req in first.into_iter().chain(frames) {
                let mut backoff = policy.backoff_base;
                let mut attempt = 0;
                let resp = loop {
                    let (c, r, posted) = (client.clone(), req.clone(), sent.take());
                    // The attempt runs on past its deadline (`timeout`);
                    // once abandoned it is in doubt until it ends.
                    let late = Rc::new(Cell::new(false));
                    let (ended_late, doubt) = (Rc::clone(&late), Rc::clone(&in_doubt));
                    let attempt_rpc = async move {
                        let resp = match posted {
                            Some(rpc) => rpc.await,
                            None => c.try_call(r).await,
                        };
                        if ended_late.get() {
                            doubt.set(doubt.get() - 1);
                        }
                        resp
                    };
                    match timeout(&handle, policy.deadline, attempt_rpc).await {
                        Some(Some(resp)) => break resp,
                        Some(None) => return CallOutcome::Dropped,
                        None => {
                            late.set(true);
                            in_doubt.set(in_doubt.get() + 1);
                            rpc_timeouts.inc();
                            if attempt >= policy.retries {
                                return CallOutcome::TimedOut;
                            }
                            attempt += 1;
                            retries.inc();
                            handle.sleep(backoff).await;
                            backoff = doubled(backoff, &policy);
                        }
                    }
                };
                match &mut answers {
                    Some(McdResp(joined)) => joined.extend(resp.0),
                    None => answers = Some(resp),
                }
            }
            CallOutcome::Resp(answers.unwrap_or(McdResp(Vec::new())))
        }
    }
}

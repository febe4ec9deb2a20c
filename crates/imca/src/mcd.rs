//! The MCD array (§4.1): MemCached daemons on dedicated nodes, and the
//! client side of the bank that CMCache and SMCache talk to.
//!
//! Each daemon node runs the *real* storage engine from `imca-memcached`
//! behind an RPC service; the bank client does libmemcache-style key
//! distribution (CRC-32 or static-modulo, §5.1/§5.5) and handles daemon
//! failures transparently (§4.4) by treating a dead primary as a miss —
//! deliberately *not* rehashing to another daemon, which can serve stale
//! data once daemons come and go (see [`BankClient`]).
//!
//! The bank is owned and administered through a [`Bank`] handle:
//! `Bank::start` brings the daemons up, `bank.kill(i)` / `bank.revive(i)`
//! drive the failover experiments, `bank.stats()` scrapes the daemons, and
//! `bank.client(..)` connects a consumer.
//!
//! The data path is batched the way libmemcache batches it (DESIGN.md
//! "Batched bank data path"): [`BankClient::get_multi`] groups keys by
//! routed daemon and issues one multi-key `get` RPC per daemon, and
//! [`BankClient::set_pipeline`] / [`BankClient::delete_pipeline`] stream
//! `noreply` stores/deletes with a single trailing `version` round trip
//! per daemon as the sync barrier.
//!
//! With [`Replication`] `factor > 1` (DESIGN.md §4d) every key also lives
//! on the next `R − 1` daemons after its primary: writes and purges fan
//! out to the whole replica set, reads pick one live replica per request
//! (power-of-two-choices on the client's own in-flight counts) and fail
//! over warm when a replica is dead or shed. A per-client single-flight
//! table additionally coalesces concurrent GETs for one key into a single
//! in-flight RPC.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use imca_fabric::{Network, NodeId, RpcClient, Service, Transport, WireSize};
use imca_memcached::protocol::{Command, Response, StoreVerb};
use imca_memcached::{ClientCore, McConfig, McServer, McStats, Selector};
use imca_metrics::{prefixed, Counter, Histogram, MetricSource, Registry, RttEstimator, Snapshot};
use imca_sim::sync::{oneshot, OneshotReceiver, OneshotSender, Queue, Resource};
use imca_sim::{join_all, timeout, SimDuration, SimHandle, SimTime, TokenBucket};

/// Request wrapper carrying a memcached protocol command across the fabric.
#[derive(Debug, Clone)]
pub struct McdReq(pub Command);

/// Response wrapper (None = noreply command, which produces no frame).
#[derive(Debug, Clone)]
pub struct McdResp(pub Option<Response>);

impl WireSize for McdReq {
    fn wire_bytes(&self) -> usize {
        // Text-protocol framing without paying for an actual encode.
        match &self.0 {
            Command::Store {
                verb, key, data, ..
            } => {
                // A `cas` line additionally carries the decimal token.
                let token = match verb {
                    StoreVerb::Cas(_) => 21,
                    _ => 0,
                };
                24 + token + key.len() + data.len()
            }
            Command::Get { keys, with_cas } => {
                // `gets` vs `get`: one extra command byte.
                6 + usize::from(*with_cas) + keys.iter().map(|k| k.len() + 1).sum::<usize>()
            }
            Command::Delete { key, .. } => 9 + key.len(),
            Command::Arith { key, .. } => 16 + key.len(),
            Command::Touch { key, .. } => 18 + key.len(),
            Command::FlushAll { .. } => 11,
            Command::Stats | Command::Version | Command::Quit => 9,
        }
    }
}

impl WireSize for McdResp {
    fn wire_bytes(&self) -> usize {
        match &self.0 {
            Some(Response::Values(values)) => {
                // A `gets` reply carries the decimal CAS token per value.
                5 + values
                    .iter()
                    .map(|v| 24 + v.key.len() + v.data.len() + v.cas.map_or(0, |_| 21))
                    .sum::<usize>()
            }
            Some(Response::Stats(pairs)) => {
                5 + pairs
                    .iter()
                    .map(|(k, v)| 7 + k.len() + v.len())
                    .sum::<usize>()
            }
            Some(_) => 16,
            None => 0,
        }
    }
}

/// Service-time model for one daemon: event-loop CPU per command plus a
/// memcpy proportional to the value bytes touched.
#[derive(Debug, Clone)]
pub struct McdCosts {
    /// Fixed per-command processing (hash, LRU, slab bookkeeping).
    pub per_op: SimDuration,
    /// Value copy bandwidth, bytes/s.
    pub memcpy_bps: f64,
    /// Admission control: commands admitted onto the event loop at once
    /// (serving + queued). When full, *reads* are refused immediately
    /// with `SERVER_ERROR busy` instead of queueing unboundedly — the
    /// client treats the shed as a miss and falls through to the
    /// backend. Writes, deletes, and sync barriers are always admitted:
    /// shedding a purge or store would leave replicas stale, which the
    /// coherence machinery only knows how to handle via quarantine.
    /// `None` (the default) keeps the PR-8 unbounded queue bit-for-bit.
    pub queue_limit: Option<usize>,
}

impl Default for McdCosts {
    fn default() -> McdCosts {
        McdCosts {
            per_op: SimDuration::micros(3),
            memcpy_bps: 3e9,
            queue_limit: None,
        }
    }
}

impl McdCosts {
    fn service_time(&self, touched_bytes: usize) -> SimDuration {
        self.per_op + SimDuration::from_secs_f64(touched_bytes as f64 / self.memcpy_bps)
    }
}

/// Per-RPC deadline, retry, and fail-fast behaviour of a [`BankClient`].
///
/// The defaults are deliberately generous: on a healthy fabric the bank
/// never comes close to them (a pipeline sync can legitimately wait a
/// couple of milliseconds behind hundreds of streamed stores), so healthy
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
    /// Replace the static `deadline` with a per-daemon RTT-tracked one
    /// (DESIGN.md §8). `None` (default) keeps the static deadline and
    /// replays bit-identically.
    pub adaptive: Option<AdaptiveDeadline>,
    /// Client-global token-bucket budget that every retry (and hedge)
    /// must spend from, so retries cannot amplify an overload into a
    /// retry storm. A denied retry fails the op fast, counted in
    /// `retry_budget_exhausted`. `None` (default) = unlimited retries,
    /// exactly the old behaviour.
    pub retry_budget: Option<RetryBudget>,
    /// Hedged reads at replication ≥ 2: a GET still unanswered past the
    /// primary's tracked tail latency fires one hedge to the next live
    /// replica; first answer wins. `None` (default) keeps the serial
    /// failover loop bit-identically.
    pub hedge: Option<HedgePolicy>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            deadline: SimDuration::millis(50),
            retries: 2,
            backoff_base: SimDuration::micros(100),
            backoff_cap: SimDuration::millis(1),
            circuit_cooldown: SimDuration::millis(100),
            adaptive: None,
            retry_budget: None,
            hedge: None,
        }
    }
}

/// Adaptive per-daemon deadline (DESIGN.md §8): once a daemon's
/// [`RttEstimator`] has `warmup` samples, each RPC's deadline becomes
/// `clamp(multiplier × (srtt + 4·rttvar), min, max)` instead of the
/// policy's static `deadline`. A healthy daemon thus gets abandoned in a
/// few hundred microseconds rather than 50ms — which is what turns an
/// overloaded daemon into a fast, bounded degraded miss instead of a
/// stalled client.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveDeadline {
    /// Deadline as a multiple of the tracked tail proxy.
    pub multiplier: f64,
    /// Deadline floor (spurious-timeout guard).
    pub min: SimDuration,
    /// Deadline ceiling (usually the old static deadline).
    pub max: SimDuration,
    /// RTT samples required per daemon before the estimate is trusted;
    /// below it the static deadline applies.
    pub warmup: u64,
}

impl Default for AdaptiveDeadline {
    fn default() -> AdaptiveDeadline {
        AdaptiveDeadline {
            multiplier: 3.0,
            min: SimDuration::micros(200),
            max: SimDuration::millis(50),
            warmup: 16,
        }
    }
}

/// Client-global retry/hedge token bucket (the SRE retry-budget shape):
/// tokens accrue at `refill_per_sec` up to `burst`, every retry attempt
/// and every fired hedge spends one, and an empty bucket means fail fast
/// — under overload the extra load a client may add on top of its
/// first-attempt traffic is bounded by the refill rate.
#[derive(Debug, Clone, Copy)]
pub struct RetryBudget {
    /// Sustained retries/hedges per second.
    pub refill_per_sec: f64,
    /// Bucket capacity (burst allowance).
    pub burst: f64,
}

impl Default for RetryBudget {
    fn default() -> RetryBudget {
        RetryBudget {
            refill_per_sec: 10.0,
            burst: 10.0,
        }
    }
}

/// Hedged-read policy (replication ≥ 2 only). The hedge delay for a GET
/// to daemon `d` is `clamp(tail(d), min_delay, max_delay)` — the tracked
/// p95 proxy — or `max_delay` before the estimator has `warmup` samples.
/// A hedge fires only if the primary has not answered by then, spends a
/// [`RetryBudget`] token when one is configured, and goes to the next
/// live replica in placement order; the first answer wins and the loser
/// is abandoned (its late result is discarded, never settled).
#[derive(Debug, Clone, Copy)]
pub struct HedgePolicy {
    /// Hedge-delay floor: never hedge earlier than this.
    pub min_delay: SimDuration,
    /// Hedge-delay ceiling, and the delay used before warmup.
    pub max_delay: SimDuration,
    /// RTT samples required before the tracked tail drives the delay.
    pub warmup: u64,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy {
            min_delay: SimDuration::micros(100),
            max_delay: SimDuration::millis(5),
            warmup: 16,
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
/// hit where the single-home bank takes a degraded miss). `factor: 1`
/// (the default) is the paper's single-home bank and leaves every code
/// path exactly as it was.
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
/// makes the confusion unrepresentable — a [`BankClient::cas`] always
/// goes back to `daemon`, and only to `daemon` (DESIGN.md §4f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CasToken {
    /// The daemon whose token space `token` lives in — the one that
    /// answered the `gets`.
    pub daemon: usize,
    /// The engine token from that daemon's reply.
    pub token: u64,
}

/// One key's answer rows from [`BankClient::gets_for_update`]: for each
/// usable write-target replica, `(daemon, value + token)` — `None` when
/// that daemon answered but does not hold the key (cold replica).
pub type ReplicaRows = Vec<(usize, Option<(Bytes, CasToken)>)>;

/// Outcome of one compare-and-swap store (DESIGN.md §4f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasVerdict {
    /// The token still matched: the value was replaced in place.
    Stored,
    /// The key exists with a newer token — someone updated it between
    /// the `gets` and the `cas`.
    Conflict,
    /// The key vanished between the `gets` and the `cas` (concurrent
    /// delete/purge or eviction).
    Missing,
    /// No definitive daemon answer: dead/shed at routing time, reset or
    /// timed out mid-flight (the daemon is then quarantined like any
    /// failed write — see [`BankClient::settle_write`] — so it cannot
    /// keep serving the possibly-stale old value).
    Failed,
}

/// What one deadline-guarded bank RPC resolved to.
enum CallOutcome {
    /// The daemon answered within the deadline.
    Resp(McdResp),
    /// The daemon reset the connection (killed mid-flight). Fail fast; no
    /// retry — the op is already known lost.
    Dropped,
    /// Every attempt ran out its deadline (lost on the wire, partitioned,
    /// or the daemon is hopelessly slow).
    TimedOut,
}

/// What one (possibly hedged) replicated-read round resolved to.
enum RoundVerdict {
    /// A replica answered with the value.
    Hit(Bytes),
    /// A live replica answered authoritatively without the value.
    Miss,
    /// Every contacted replica failed (busy, dropped, or timed out);
    /// `tried` has been extended and the caller routes the next round.
    Failed,
}

/// Map a `cas` store's RPC outcome to its verdict. Anything that is not
/// a definitive engine answer — transport failure, or a non-store reply
/// such as a `CLIENT_ERROR` — is [`CasVerdict::Failed`]; the caller's
/// settle step decides what that means for the daemon.
fn cas_verdict(outcome: &CallOutcome) -> CasVerdict {
    match outcome {
        CallOutcome::Resp(McdResp(Some(Response::Stored))) => CasVerdict::Stored,
        CallOutcome::Resp(McdResp(Some(Response::Exists))) => CasVerdict::Conflict,
        CallOutcome::Resp(McdResp(Some(Response::NotFound))) => CasVerdict::Missing,
        CallOutcome::Resp(_) | CallOutcome::Dropped | CallOutcome::TimedOut => CasVerdict::Failed,
    }
}

/// The shared retry/hedge token bucket plus its denial counter — one per
/// client, cloned into every [`retry_call`] so batched `'static` futures
/// can carry it (`None` = unlimited, the pre-budget behaviour).
#[derive(Clone)]
struct BudgetHandle {
    bucket: Rc<TokenBucket>,
    exhausted: Counter,
}

impl BudgetHandle {
    /// Spend one token; on denial count it and report `false`.
    fn spend(&self, now: SimTime) -> bool {
        if self.bucket.try_take(now) {
            true
        } else {
            self.exhausted.inc();
            false
        }
    }
}

/// One deadline-guarded attempt loop, self-contained so batched paths can
/// run it per daemon through `join_all` (which needs `'static` futures).
/// Every retry after the first attempt spends from `budget` when one is
/// configured; a denied retry fails fast as [`CallOutcome::TimedOut`].
async fn retry_call(
    handle: SimHandle,
    client: RpcClient<McdReq, McdResp>,
    policy: RetryPolicy,
    rpc_timeouts: Counter,
    retries: Counter,
    budget: Option<BudgetHandle>,
    req: McdReq,
) -> CallOutcome {
    let mut backoff = policy.backoff_base;
    let mut attempt = 0;
    loop {
        let c = client.clone();
        let r = req.clone();
        match timeout(&handle, policy.deadline, async move { c.try_call(r).await }).await {
            Some(Some(resp)) => return CallOutcome::Resp(resp),
            Some(None) => return CallOutcome::Dropped,
            None => {
                rpc_timeouts.inc();
                if attempt >= policy.retries {
                    return CallOutcome::TimedOut;
                }
                if let Some(b) = &budget {
                    if !b.spend(handle.now()) {
                        // Budget dry: retrying now would amplify the
                        // overload — fail fast instead.
                        return CallOutcome::TimedOut;
                    }
                }
                attempt += 1;
                retries.inc();
                handle.sleep(backoff).await;
                backoff = SimDuration::nanos(
                    (backoff.as_nanos().saturating_mul(2)).min(policy.backoff_cap.as_nanos()),
                );
            }
        }
    }
}

/// Retransmit a `noreply` post until the wire accepts it, with the same
/// capped backoff as [`retry_call`]. `true` once it lands; `false` when the
/// policy's retry budget is spent (the connection is declared dead).
async fn post_with_retransmit(
    handle: SimHandle,
    client: RpcClient<McdReq, McdResp>,
    policy: RetryPolicy,
    retries: Counter,
    req: McdReq,
) -> bool {
    let mut backoff = policy.backoff_base;
    let mut attempt = 0;
    loop {
        if client.post(req.clone()).await {
            return true;
        }
        if attempt >= policy.retries {
            return false;
        }
        attempt += 1;
        retries.inc();
        handle.sleep(backoff).await;
        backoff = SimDuration::nanos(
            (backoff.as_nanos().saturating_mul(2)).min(policy.backoff_cap.as_nanos()),
        );
    }
}

/// A running MCD node.
pub struct McdNode {
    /// Fabric node the daemon runs on.
    pub node: NodeId,
    service: Service<McdReq, McdResp>,
    server: Rc<McServer>,
    alive: Rc<Cell<bool>>,
    /// Sticky write-safety flag, shared by every [`BankClient`]: set when
    /// any client's *write* to this daemon fails (timed-out pipeline sync,
    /// retransmit give-up, reset store/delete), because the daemon may
    /// hold state that a failed purge or push left stale. A quarantined
    /// daemon is a local miss for everyone until [`Bank::revive`] — which
    /// restarts it empty — clears the flag. Unlike the per-client circuit
    /// breaker this never auto-expires: time cannot prove the stale data
    /// went away.
    quarantined: Rc<Cell<bool>>,
    /// Commands admitted onto the event loop right now (serving +
    /// queued) — what `McdCosts::queue_limit` bounds.
    queue_depth: Rc<Cell<u64>>,
    /// High-water mark of `queue_depth` over the daemon's lifetime.
    queue_peak: Rc<Cell<u64>>,
    /// Reads refused with `busy` by admission control (also in the
    /// registry; kept here so [`Bank::collect`] can publish the
    /// `per_daemon.{i}.sheds` imbalance view).
    sheds: Counter,
    registry: Registry,
}

impl McdNode {
    /// Scrape this daemon's `stats` (out-of-band, like the paper's
    /// "statistics taken from the MCDs").
    pub fn stats(&self) -> McStats {
        self.server.store().stats()
    }

    /// Direct access to the engine (tests).
    pub fn server(&self) -> &McServer {
        &self.server
    }

    /// Whether the daemon is accepting requests.
    pub fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// Whether a failed write has quarantined this daemon (see the field
    /// docs — cleared only by [`Bank::revive`]).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.get()
    }
}

impl MetricSource for McdNode {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        self.server
            .store()
            .collect(&prefixed(prefix, "store"), snap);
        snap.set_gauge(prefixed(prefix, "alive"), self.alive.get() as i64);
        snap.set_gauge(
            prefixed(prefix, "quarantined"),
            self.quarantined.get() as i64,
        );
        snap.set_gauge(
            prefixed(prefix, "queue_depth"),
            self.queue_depth.get() as i64,
        );
        snap.set_gauge(prefixed(prefix, "queue_peak"), self.queue_peak.get() as i64);
    }
}

/// Decrements a daemon's admission-control depth counter when the
/// serving task ends, however it ends (reply sent, killed mid-queue, or
/// killed mid-service).
struct DecrOnDrop(Rc<Cell<u64>>);

impl Drop for DecrOnDrop {
    fn drop(&mut self) {
        self.0.set(self.0.get().saturating_sub(1));
    }
}

/// Start a memcached daemon at `node`. `cfg` is the `-m` style config;
/// `costs` its service-time model.
pub fn start_mcd(net: &Network, node: NodeId, cfg: McConfig, costs: McdCosts) -> McdNode {
    let service: Service<McdReq, McdResp> = Service::bind(net, node);
    let server = Rc::new(McServer::new(cfg));
    let alive = Rc::new(Cell::new(true));
    let registry = Registry::new();
    let requests = registry.counter("requests");
    let dropped = registry.counter("dropped");
    let sheds = registry.counter("sheds");
    let service_ns = registry.histogram("service_ns");
    let h = net.handle();
    let cpu = Resource::new(1); // the daemon's single event loop
                                // Commands admitted onto the event loop right now (serving + queued)
                                // — the quantity `queue_limit` bounds — plus its high-water mark.
    let queue_depth = Rc::new(Cell::new(0u64));
    let queue_peak = Rc::new(Cell::new(0u64));
    {
        let service = service.clone();
        let server = Rc::clone(&server);
        let alive = Rc::clone(&alive);
        let queue_depth = Rc::clone(&queue_depth);
        let queue_peak = Rc::clone(&queue_peak);
        let sheds = sheds.clone();
        let h2 = h.clone();
        h.spawn(async move {
            // Dispatcher: take requests off the wire immediately (the NIC
            // does not block on the event loop) and hand each one to a
            // task that holds the single-slot CPU for the *whole* command
            // — apply plus service time — so concurrent requests queue
            // behind each other instead of being serviced in parallel.
            // The resource's FIFO ticketing preserves arrival order,
            // which is what makes a trailing `version` call a sync
            // barrier for pipelined `noreply` commands.
            while let Some(incoming) = service.recv().await {
                if !alive.get() {
                    // Dead daemon: drop the request (client sees a reset).
                    dropped.inc();
                    continue;
                }
                if let Some(limit) = costs.queue_limit {
                    // Admission control: a full queue sheds reads with an
                    // explicit `busy` before they touch the event loop.
                    // Only reads — see the `queue_limit` field docs.
                    if queue_depth.get() >= limit as u64
                        && matches!(incoming.req.0, Command::Get { .. })
                    {
                        sheds.inc();
                        incoming.respond(McdResp(Some(Response::busy())));
                        continue;
                    }
                }
                requests.inc();
                queue_depth.set(queue_depth.get() + 1);
                queue_peak.set(queue_peak.get().max(queue_depth.get()));
                let t0 = h2.now();
                let server = Rc::clone(&server);
                let alive = Rc::clone(&alive);
                let cpu = cpu.clone();
                let costs = costs.clone();
                let service_ns = service_ns.clone();
                let dropped = dropped.clone();
                let queue_depth = Rc::clone(&queue_depth);
                let h3 = h2.clone();
                h2.spawn(async move {
                    let (req, _src, replier) = incoming.into_parts();
                    let _depth = DecrOnDrop(queue_depth);
                    let _slot = cpu.acquire().await;
                    if !alive.get() {
                        // Killed while queued on the event loop.
                        dropped.inc();
                        return;
                    }
                    let touched = match &req.0 {
                        Command::Store { data, .. } => data.len(),
                        _ => 0,
                    };
                    let now_secs = h3.now().as_nanos() / 1_000_000_000;
                    let resp = server.apply(&req.0, now_secs);
                    // Response value bytes also cross the daemon's memcpy.
                    let resp_touched = match &resp {
                        Some(Response::Values(vals)) => {
                            vals.iter().map(|v| v.data.len()).sum::<usize>()
                        }
                        _ => 0,
                    };
                    h3.sleep(costs.service_time(touched + resp_touched)).await;
                    if !alive.get() {
                        // Killed mid-service: the process died before the
                        // response hit the socket.
                        dropped.inc();
                        return;
                    }
                    // Sojourn time: queueing on the event loop included.
                    service_ns.record_duration(h3.now().since(t0));
                    replier.reply(McdResp(resp));
                });
            }
        });
    }
    McdNode {
        node,
        service,
        server,
        alive,
        quarantined: Rc::new(Cell::new(false)),
        queue_depth,
        queue_peak,
        sheds,
        registry,
    }
}

/// The MCD bank as an owned, administrable unit.
///
/// Owning the daemons through one handle replaces the old loose
/// `Vec<McdNode>` + free-function style: failure injection goes through
/// [`Bank::kill`] / [`Bank::revive`] (which also maintain the
/// `mcd_failovers` / `mcd_revivals` metrics), aggregation through
/// [`Bank::stats`], and consumers connect with [`Bank::client`].
pub struct Bank {
    nodes: Vec<McdNode>,
    registry: Registry,
    mcd_failovers: Counter,
    mcd_revivals: Counter,
}

impl Bank {
    /// Spin up `count` daemons on fresh fabric nodes.
    pub fn start(net: &Network, count: usize, cfg: &McConfig, costs: &McdCosts) -> Bank {
        Bank::from_nodes(
            (0..count)
                .map(|_| {
                    let node = net.add_node();
                    start_mcd(net, node, cfg.clone(), costs.clone())
                })
                .collect(),
        )
    }

    /// Adopt already-running daemons (custom placement).
    pub fn from_nodes(nodes: Vec<McdNode>) -> Bank {
        let registry = Registry::new();
        Bank {
            nodes,
            mcd_failovers: registry.counter("mcd_failovers"),
            mcd_revivals: registry.counter("mcd_revivals"),
            registry,
        }
    }

    /// The daemons, in bank order (index = routing slot).
    pub fn nodes(&self) -> &[McdNode] {
        &self.nodes
    }

    /// Number of daemons in the bank.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the bank has no daemons.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Kill daemon `i`: it stops answering; in-flight requests are
    /// dropped. Stored items stay in memory (they are unreachable until
    /// revival, like a partitioned daemon). Counts one failover on the
    /// alive→dead transition.
    pub fn kill(&self, i: usize) {
        if self.nodes[i].alive.replace(false) {
            self.mcd_failovers.inc();
        }
    }

    /// Revive daemon `i`. The daemon restarts *empty*, as a crashed
    /// memcached would — rejoining with old memory intact is the
    /// stale-resurfacing hazard [`BankClient`]'s routing exists to avoid.
    /// Restarting empty is also why revival is the one operation allowed
    /// to lift a write-failure quarantine: there is provably nothing stale
    /// left to serve.
    pub fn revive(&self, i: usize) {
        let node = &self.nodes[i];
        node.server.store().flush_all();
        node.quarantined.set(false);
        if !node.alive.replace(true) {
            self.mcd_revivals.inc();
        }
    }

    /// Daemons killed through this handle so far (dead→alive transitions
    /// not counted back).
    pub fn failovers(&self) -> u64 {
        self.mcd_failovers.get()
    }

    /// Sum daemon-side stats across the bank ("statistics from the MCDs",
    /// §5.2).
    pub fn stats(&self) -> McStats {
        sum_mcd_stats(&self.nodes)
    }

    /// Connect a consumer at `from` to every daemon with the default
    /// [`RetryPolicy`]. `transport` optionally overrides the fabric
    /// default (RDMA ablation).
    pub fn client(
        &self,
        from: NodeId,
        selector: Selector,
        transport: Option<Transport>,
    ) -> BankClient {
        BankClient::connect(&self.nodes, from, selector, transport)
    }

    /// [`Bank::client`] with an explicit deadline/retry policy
    /// (fault-injection experiments pass tighter-than-default policies).
    pub fn client_with(
        &self,
        from: NodeId,
        selector: Selector,
        transport: Option<Transport>,
        policy: RetryPolicy,
    ) -> BankClient {
        BankClient::connect_with(&self.nodes, from, selector, transport, policy)
    }

    /// [`Bank::client_with`] plus a replica placement: `factor` daemons
    /// per key with warm read failover among them (see [`Replication`]).
    pub fn client_replicated(
        &self,
        from: NodeId,
        selector: Selector,
        transport: Option<Transport>,
        policy: RetryPolicy,
        replication: Replication,
    ) -> BankClient {
        BankClient::connect_replicated(&self.nodes, from, selector, transport, policy, replication)
    }
}

impl MetricSource for Bank {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        let mut max_gets = 0u64;
        let mut total_gets = 0u64;
        for (i, node) in self.nodes.iter().enumerate() {
            node.collect(&prefixed(prefix, &format!("mcd.{i}")), snap);
            let gets = node.stats().cmd_get;
            snap.set_counter(prefixed(prefix, &format!("per_daemon.{i}.gets")), gets);
            snap.set_counter(
                prefixed(prefix, &format!("per_daemon.{i}.sheds")),
                node.sheds.get(),
            );
            max_gets = max_gets.max(gets);
            total_gets += gets;
        }
        // Load-imbalance summary: a perfectly spread bank has max == mean;
        // the Fig 10 shared-file pattern at R=1 pushes max toward the
        // whole-bank total because every client's GETs for a given block
        // land on one daemon.
        snap.set_counter(prefixed(prefix, "per_daemon.max_gets"), max_gets);
        snap.set_gauge(
            prefixed(prefix, "per_daemon.mean_gets"),
            (total_gets as f64 / self.nodes.len().max(1) as f64).round() as i64,
        );
    }
}

fn sum_mcd_stats(nodes: &[McdNode]) -> McStats {
    let mut total = McStats::default();
    for n in nodes {
        let s = n.stats();
        total.cmd_get += s.cmd_get;
        total.cmd_set += s.cmd_set;
        total.get_hits += s.get_hits;
        total.get_misses += s.get_misses;
        total.evictions += s.evictions;
        total.expired += s.expired;
        total.curr_items += s.curr_items;
        total.bytes += s.bytes;
        total.total_items += s.total_items;
        total.allocated_bytes += s.allocated_bytes;
        total.limit_maxbytes += s.limit_maxbytes;
    }
    total
}

/// Aggregated client-observed counters for a [`BankClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Block/stat get attempts.
    pub gets: u64,
    /// Gets answered by a daemon.
    pub hits: u64,
    /// Gets that missed (or hit a dead daemon).
    pub misses: u64,
    /// Sets issued.
    pub sets: u64,
    /// Deletes issued.
    pub deletes: u64,
    /// Requests dropped because a daemon died mid-flight.
    pub failures: u64,
}

/// Where one key's op goes, after liveness, quarantine, and the circuit
/// breaker have had their say.
enum Route {
    /// Send to daemon `i`.
    Daemon(usize),
    /// Primary is dead (killed): local miss, no wire traffic, no retry —
    /// the pre-fault failover semantics.
    Dead,
    /// Primary is nominally alive but shed — quarantined by a failed
    /// write, or inside an open circuit window after repeated timeouts.
    /// Local miss, counted as a degraded miss.
    Shed,
}

/// GETs parked behind an in-flight leader GET for the same key; each
/// waiter wakes with a clone of the leader's result.
type SingleFlightWaiters = Vec<OneshotSender<Option<Bytes>>>;

/// One key's membership in a multi-get round: (position in the caller's
/// key list, routed-as-failover, replicas that already failed it).
type GroupMember = (usize, bool, Vec<usize>);

/// A multi-get hit: the value plus, when the fetch asked for tokens, the
/// daemon-tagged CAS token of the replica that answered.
type TaggedValue = (Bytes, Option<CasToken>);

/// The bank of MCDs as seen from one node (CMCache or SMCache side).
pub struct BankClient {
    clients: Vec<RpcClient<McdReq, McdResp>>,
    core: RefCell<ClientCore>,
    alive: Vec<Rc<Cell<bool>>>,
    quarantined: Vec<Rc<Cell<bool>>>,
    /// Per-daemon fail-fast circuit: ops shed (local miss) until the
    /// stored instant. Per *client*, unlike the shared quarantine flags.
    circuit_open_until: RefCell<Vec<SimTime>>,
    policy: RetryPolicy,
    handle: SimHandle,
    registry: Registry,
    gets: Counter,
    hits: Counter,
    misses: Counter,
    sets: Counter,
    deletes: Counter,
    failures: Counter,
    /// Client-observed round-trip per completed get, virtual ns.
    get_ns: Histogram,
    /// Multi-key `get` RPCs issued (one per daemon per batch).
    multi_gets: Counter,
    /// Keys carried by each multi-key `get` RPC.
    keys_per_multi_get: Histogram,
    /// Stores streamed through the `noreply` pipeline.
    pipelined_sets: Counter,
    /// Deletes streamed through the `noreply` pipeline.
    pipelined_deletes: Counter,
    /// Compare-and-swap stores issued (single and pipelined).
    cas_ops: Counter,
    /// CAS stores that travelled through [`BankClient::cas_pipeline`].
    pipelined_cas: Counter,
    /// RPC attempts abandoned at their deadline.
    rpc_timeouts: Counter,
    /// Retried attempts and retransmitted pipeline posts.
    retries: Counter,
    /// Ops answered locally (miss / dropped write) because the daemon was
    /// quarantined, circuit-open, or out of retry budget.
    degraded_misses: Counter,
    /// Replica placement factor, clamped to the bank size. 1 = the
    /// single-home bank; every replicated code path is gated on `> 1` so
    /// factor-1 runs replay bit-identically to the pre-replication code.
    replication: usize,
    /// Outstanding bank RPCs per daemon *from this client* — the load
    /// signal power-of-two-choices read routing balances on. `Rc` so
    /// hedge tasks (which outlive the borrow of `self`) can decrement.
    in_flight: Vec<Rc<Cell<u64>>>,
    /// Client-local xorshift64 state for P2C sampling and tie-breaking,
    /// seeded from the client's node id so different clients spread a hot
    /// block across its replicas. Never consulted at factor 1.
    route_rng: Cell<u64>,
    /// Single-flight table: key → waiters. The first GET for a key is the
    /// leader and does the RPC; concurrent GETs for the same key coalesce
    /// onto it and wake with a clone of its result.
    single_flight: RefCell<BTreeMap<Vec<u8>, SingleFlightWaiters>>,
    /// Reads completed on a fallback replica because an earlier-placed
    /// replica was dead, shed, or failed mid-flight (warm failover).
    replica_failovers: Counter,
    /// GETs that piggybacked on another in-flight GET for the same key.
    coalesced_gets: Counter,
    /// Per-daemon smoothed RTT state (DESIGN.md §8) — control state
    /// steering adaptive deadlines and hedge delays, not telemetry.
    rtt: RefCell<Vec<RttEstimator>>,
    /// Client-global retry/hedge token bucket, when the policy asks for
    /// one (`RetryPolicy::retry_budget`).
    budget: Option<BudgetHandle>,
    /// `SERVER_ERROR busy` replies — reads a daemon's admission control
    /// refused. Never retried on the same daemon: replicated reads fail
    /// over, single-home reads become degraded local misses (the
    /// degradation ladder's signal).
    busy_sheds: Counter,
    /// Read circuits tripped by exhausted per-op retries — so
    /// timeout-driven degradation is distinguishable from budget-driven
    /// (`retry_budget_exhausted`) and shed-driven (`busy_sheds`).
    circuit_opens: Counter,
    /// Hedge RPCs actually fired (replication ≥ 2, hedge policy on).
    hedged_gets: Counter,
    /// Hedged GETs where the hedge's answer arrived first.
    hedge_wins: Counter,
}

impl BankClient {
    /// Connect `from` to every daemon in `nodes` using `selector` routing.
    /// `transport` optionally overrides the fabric default (the RDMA
    /// ablation connects the bank over RDMA while the file server stays on
    /// IPoIB).
    pub fn connect(
        nodes: &[McdNode],
        from: NodeId,
        selector: Selector,
        transport: Option<Transport>,
    ) -> BankClient {
        BankClient::connect_with(nodes, from, selector, transport, RetryPolicy::default())
    }

    /// [`BankClient::connect`] with an explicit deadline/retry policy.
    pub fn connect_with(
        nodes: &[McdNode],
        from: NodeId,
        selector: Selector,
        transport: Option<Transport>,
        policy: RetryPolicy,
    ) -> BankClient {
        BankClient::connect_replicated(
            nodes,
            from,
            selector,
            transport,
            policy,
            Replication::default(),
        )
    }

    /// [`BankClient::connect_with`] plus a replica placement (see
    /// [`Replication`]).
    pub fn connect_replicated(
        nodes: &[McdNode],
        from: NodeId,
        selector: Selector,
        transport: Option<Transport>,
        policy: RetryPolicy,
        replication: Replication,
    ) -> BankClient {
        assert!(!nodes.is_empty(), "bank needs at least one MCD");
        let clients: Vec<_> = nodes
            .iter()
            .map(|n| match &transport {
                Some(t) => n.service.client_with_transport(from, t.clone()),
                None => n.service.client(from),
            })
            .collect();
        let handle = nodes[0].service.network().handle();
        let registry = Registry::new();
        let budget = policy.retry_budget.map(|b| BudgetHandle {
            bucket: Rc::new(TokenBucket::new(b.refill_per_sec, b.burst, handle.now())),
            exhausted: registry.counter("retry_budget_exhausted"),
        });
        BankClient {
            clients,
            core: RefCell::new(ClientCore::new(selector, nodes.len())),
            alive: nodes.iter().map(|n| Rc::clone(&n.alive)).collect(),
            quarantined: nodes.iter().map(|n| Rc::clone(&n.quarantined)).collect(),
            circuit_open_until: RefCell::new(vec![SimTime::ZERO; nodes.len()]),
            policy,
            handle,
            gets: registry.counter("gets"),
            hits: registry.counter("hits"),
            misses: registry.counter("misses"),
            sets: registry.counter("sets"),
            deletes: registry.counter("deletes"),
            failures: registry.counter("failures"),
            get_ns: registry.histogram("get_ns"),
            multi_gets: registry.counter("multi_gets"),
            keys_per_multi_get: registry.histogram("keys_per_multi_get"),
            pipelined_sets: registry.counter("pipelined_sets"),
            pipelined_deletes: registry.counter("pipelined_deletes"),
            cas_ops: registry.counter("cas_ops"),
            pipelined_cas: registry.counter("pipelined_cas"),
            rpc_timeouts: registry.counter("rpc_timeouts"),
            retries: registry.counter("retries"),
            degraded_misses: registry.counter("degraded_misses"),
            replication: replication.factor.clamp(1, nodes.len()),
            in_flight: (0..nodes.len()).map(|_| Rc::new(Cell::new(0))).collect(),
            // Golden-ratio constant XOR an odd per-node term: nonzero for
            // every node id, distinct per client.
            route_rng: Cell::new(0x9E37_79B9_7F4A_7C15 ^ ((u64::from(from.0) << 1) | 1)),
            single_flight: RefCell::new(BTreeMap::new()),
            replica_failovers: registry.counter("replica_failovers"),
            coalesced_gets: registry.counter("coalesced_gets"),
            rtt: RefCell::new(vec![RttEstimator::new(); nodes.len()]),
            budget,
            busy_sheds: registry.counter("busy_sheds"),
            circuit_opens: registry.counter("circuit_opens"),
            hedged_gets: registry.counter("hedged_gets"),
            hedge_wins: registry.counter("hedge_wins"),
            registry,
        }
    }

    /// Number of daemons configured.
    pub fn server_count(&self) -> usize {
        self.clients.len()
    }

    /// Total `SERVER_ERROR busy` replies this client has absorbed. The
    /// degradation ladder diffs this around a bank round to learn whether
    /// the round was shed by admission control.
    pub fn busy_shed_count(&self) -> u64 {
        self.busy_sheds.get()
    }

    /// Client-observed counters (a derived view over the metric registry).
    pub fn stats(&self) -> BankStats {
        BankStats {
            gets: self.gets.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            sets: self.sets.get(),
            deletes: self.deletes.get(),
            failures: self.failures.get(),
        }
    }

    /// Keep the router's liveness view in sync with the actual daemons
    /// (libmemcache notices connect failures immediately).
    fn refresh_liveness(&self) {
        let mut core = self.core.borrow_mut();
        for (i, alive) in self.alive.iter().enumerate() {
            if alive.get() {
                core.mark_alive(i);
            } else {
                core.mark_dead(i);
            }
        }
    }

    /// Primary-only routing: a dead primary means a miss, *not* a rehash
    /// to the next daemon. Rehash (libmemcache's default) can serve stale
    /// data once daemons come and go — an entry written to a secondary
    /// during an outage, or an old primary copy read after a second
    /// failover, resurfaces. Keyed to one daemon, every value has exactly
    /// one home and correctness never depends on bank membership history.
    ///
    /// On top of liveness, a reachable daemon may still be *shed*:
    /// quarantined by a failed write (sticky, until revival) or inside
    /// this client's open circuit window after repeated timeouts
    /// (transient). Both also resolve locally, but count as degraded
    /// misses so the fault accounting can explain a latency gap.
    fn route(&self, key: &[u8], hint: Option<u64>) -> Route {
        self.refresh_liveness();
        let primary = self.core.borrow().placement(key, hint, 1).primary;
        self.probe(primary)
    }

    /// Liveness/quarantine/circuit verdict for one daemon — the checks
    /// [`BankClient::route`] applies to the primary, reusable per replica.
    fn probe(&self, idx: usize) -> Route {
        if !self.alive[idx].get() {
            return Route::Dead;
        }
        if self.quarantined[idx].get() {
            return Route::Shed;
        }
        if self.handle.now() < self.circuit_open_until.borrow()[idx] {
            return Route::Shed;
        }
        Route::Daemon(idx)
    }

    /// The key's full replica set in placement order, liveness ignored.
    fn replica_set(&self, key: &[u8], hint: Option<u64>) -> Vec<usize> {
        self.core
            .borrow()
            .placement(key, hint, self.replication)
            .replicas
    }

    /// Next word of the client-local xorshift64 stream. Only the
    /// replicated read router draws from it, so factor-1 clients never
    /// advance the state.
    fn next_rand(&self) -> u64 {
        let mut x = self.route_rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.route_rng.set(x);
        x
    }

    /// Power-of-two-choices between daemons `a` and `b`: the less loaded
    /// by this client's in-flight counts wins; ties flip a deterministic
    /// coin from the client-local stream.
    fn p2c(&self, a: usize, b: usize) -> usize {
        let (la, lb) = (self.in_flight[a].get(), self.in_flight[b].get());
        if la < lb {
            a
        } else if lb < la {
            b
        } else if self.next_rand() & 1 == 0 {
            a
        } else {
            b
        }
    }

    /// Route one replicated read. The key's replica set is filtered down
    /// to live, unshed daemons minus `exclude` (replicas that already
    /// failed this op mid-flight); one survivor is picked by
    /// power-of-two-choices. With no survivor the read resolves locally
    /// with the same `Dead`/`Shed` classification as the single-home
    /// router (`Shed` — hence a degraded miss — if any replica was shed).
    /// The `bool` reports whether serving from the chosen daemon is a
    /// *failover*: the first-placed replica was unavailable. A healthy
    /// set routed to a secondary purely for load spreading is not one.
    fn route_read_replica(&self, candidates: &[usize], exclude: &[usize]) -> (Route, bool) {
        self.refresh_liveness();
        let mut live: Vec<usize> = Vec::with_capacity(candidates.len());
        let mut shed = false;
        for &idx in candidates {
            if exclude.contains(&idx) {
                continue;
            }
            match self.probe(idx) {
                Route::Daemon(_) => live.push(idx),
                Route::Shed => shed = true,
                Route::Dead => {}
            }
        }
        let failover = live.first() != Some(&candidates[0]);
        let chosen = match live.len() {
            0 => return (if shed { Route::Shed } else { Route::Dead }, false),
            1 => live[0],
            2 => self.p2c(live[0], live[1]),
            n => {
                // Sample two distinct survivors, then P2C between them.
                let i = (self.next_rand() % n as u64) as usize;
                let j = (i + 1 + (self.next_rand() % (n as u64 - 1)) as usize) % n;
                self.p2c(live[i], live[j])
            }
        };
        (Route::Daemon(chosen), failover)
    }

    /// Join an in-flight GET for `key` from this client, if any: `Some`
    /// hands back a receiver for the leader's result. `None` registers
    /// the caller as the leader, which must publish via
    /// [`BankClient::publish_single_flight`] once resolved.
    fn join_single_flight(&self, key: &[u8]) -> Option<OneshotReceiver<Option<Bytes>>> {
        let mut table = self.single_flight.borrow_mut();
        if let Some(waiters) = table.get_mut(key) {
            let (tx, rx) = oneshot();
            waiters.push(tx);
            Some(rx)
        } else {
            table.insert(key.to_vec(), Vec::new());
            None
        }
    }

    /// Resolve the single-flight entry for `key`, waking every coalesced
    /// follower with a clone of the leader's result.
    fn publish_single_flight(&self, key: &[u8], result: &Option<Bytes>) {
        let waiters = self
            .single_flight
            .borrow_mut()
            .remove(key)
            .expect("single-flight leader owns the entry");
        for tx in waiters {
            tx.send(result.clone());
        }
    }

    /// Open daemon `idx`'s circuit: shed its traffic for the policy's
    /// cooldown, then probe again.
    fn trip_circuit(&self, idx: usize) {
        self.circuit_opens.inc();
        self.circuit_open_until.borrow_mut()[idx] =
            self.handle.now() + self.policy.circuit_cooldown;
    }

    /// The policy for one RPC to daemon `idx`: the static policy, with
    /// the deadline swapped for the daemon's tracked
    /// `multiplier × (srtt + 4·rttvar)` once the estimator is warm
    /// (see [`AdaptiveDeadline`]).
    fn effective_policy(&self, idx: usize) -> RetryPolicy {
        let mut p = self.policy.clone();
        if let Some(a) = p.adaptive {
            let est = self.rtt.borrow()[idx];
            if est.samples() >= a.warmup {
                if let Some(tail) = est.tail() {
                    let d = (tail * a.multiplier) as u64;
                    p.deadline = SimDuration::nanos(d.clamp(a.min.as_nanos(), a.max.as_nanos()));
                }
            }
        }
        p
    }

    /// Fold one completed-RPC latency into daemon `idx`'s estimator.
    /// Only answered calls are observed (a timeout's duration is the
    /// deadline, not the daemon) — and the sample includes any retry
    /// backoff, which only biases the estimate *upward* under stress,
    /// the conservative direction for a deadline.
    fn observe_rtt(&self, idx: usize, elapsed: SimDuration) {
        if self.policy.adaptive.is_some() || self.policy.hedge.is_some() {
            self.rtt.borrow_mut()[idx].observe(elapsed.as_nanos() as f64);
        }
    }

    /// One deadline-guarded RPC to daemon `idx`, opening its circuit if
    /// the per-op retries run dry. The *write-path* variant: always the
    /// static policy and never the retry budget, because a write that
    /// fails fast gets quarantined — far too heavy a hammer for an
    /// adaptively-shortened deadline or a dry token bucket to swing.
    async fn call_daemon(&self, idx: usize, req: McdReq) -> CallOutcome {
        let outcome = retry_call(
            self.handle.clone(),
            self.clients[idx].clone(),
            self.policy.clone(),
            self.rpc_timeouts.clone(),
            self.retries.clone(),
            None,
            req,
        )
        .await;
        if matches!(outcome, CallOutcome::TimedOut) {
            self.trip_circuit(idx);
        }
        outcome
    }

    /// [`BankClient::call_daemon`] for the read path: the deadline adapts
    /// to the daemon's tracked RTT, retries spend from the budget, and an
    /// answered call feeds the estimator. A timed-out read costs a
    /// degraded miss, so failing fast here is cheap — which is exactly
    /// why the read path gets the aggressive policy and the write path
    /// does not.
    async fn call_daemon_read(&self, idx: usize, req: McdReq) -> CallOutcome {
        let t0 = self.handle.now();
        let outcome = retry_call(
            self.handle.clone(),
            self.clients[idx].clone(),
            self.effective_policy(idx),
            self.rpc_timeouts.clone(),
            self.retries.clone(),
            self.budget.clone(),
            req,
        )
        .await;
        match &outcome {
            CallOutcome::Resp(_) => self.observe_rtt(idx, self.handle.now().since(t0)),
            CallOutcome::TimedOut => self.trip_circuit(idx),
            CallOutcome::Dropped => {}
        }
        outcome
    }

    /// Fetch one value. `hint` is the block index for modulo distribution.
    ///
    /// If this client already has a GET for the same key in flight, the
    /// call coalesces onto it (single-flight): no second RPC, the result
    /// arrives with the leader's. Otherwise the call leads — single-home
    /// or replicated fetch depending on the factor — and wakes any
    /// followers that coalesced meanwhile.
    pub async fn get(&self, key: &[u8], hint: Option<u64>) -> Option<Bytes> {
        self.gets.inc();
        let t0 = self.handle.now();
        let result = match self.join_single_flight(key) {
            Some(rx) => {
                self.coalesced_gets.inc();
                // A torn-down leader (sim shutdown) counts as a miss.
                let r = rx.await.unwrap_or(None);
                if r.is_some() {
                    self.hits.inc();
                } else {
                    self.misses.inc();
                }
                r
            }
            None => {
                let r = if self.replication == 1 {
                    self.get_single_home(key, hint).await
                } else {
                    self.get_replicated(key, hint).await
                };
                self.publish_single_flight(key, &r);
                r
            }
        };
        // Client-observed completion latency for *every* get — dead-route
        // local misses, mid-flight failures, and coalesced waits included
        // — so the histogram count always equals the `gets` counter, with
        // or without fault injection.
        self.get_ns.record_duration(self.handle.now().since(t0));
        result
    }

    /// The factor-1 fetch: primary-only routing, dead primary = local
    /// miss (see [`BankClient::route`]). Kept verbatim from before
    /// replication existed so factor-1 runs replay bit-identically.
    async fn get_single_home(&self, key: &[u8], hint: Option<u64>) -> Option<Bytes> {
        match self.route(key, hint) {
            Route::Dead => {
                self.misses.inc();
                None
            }
            Route::Shed => {
                self.misses.inc();
                self.degraded_misses.inc();
                None
            }
            Route::Daemon(idx) => {
                let req = McdReq(Command::Get {
                    keys: vec![key.to_vec()],
                    with_cas: false,
                });
                match self.call_daemon_read(idx, req).await {
                    CallOutcome::Resp(McdResp(Some(Response::Values(mut vals))))
                        if !vals.is_empty() =>
                    {
                        self.hits.inc();
                        Some(vals.remove(0).data)
                    }
                    CallOutcome::Resp(McdResp(Some(r))) if r.is_busy() => {
                        // Admission control refused the read: a degraded
                        // local miss, never a retry (the daemon is
                        // healthy — just protecting itself).
                        self.busy_sheds.inc();
                        self.misses.inc();
                        self.degraded_misses.inc();
                        None
                    }
                    CallOutcome::Resp(_) => {
                        self.misses.inc();
                        None
                    }
                    CallOutcome::Dropped => {
                        // Daemon died mid-flight: treat as a miss and avoid it.
                        self.failures.inc();
                        self.misses.inc();
                        self.core.borrow_mut().mark_dead(idx);
                        None
                    }
                    CallOutcome::TimedOut => {
                        // Unreachable (lost/partitioned): the circuit is now
                        // open; resolve as a degraded local miss.
                        self.failures.inc();
                        self.misses.inc();
                        self.degraded_misses.inc();
                        None
                    }
                }
            }
        }
    }

    /// The replicated fetch (factor > 1): try live replicas in P2C order
    /// until one answers. A replica that drops or times out mid-flight is
    /// excluded and the next one tried — warm failover — and only when
    /// every replica is unusable does the read degrade to the local miss
    /// the single-home path would have taken immediately. With a
    /// [`HedgePolicy`] configured each round may additionally race a
    /// hedge against a slow primary (see [`BankClient::hedged_round`]).
    async fn get_replicated(&self, key: &[u8], hint: Option<u64>) -> Option<Bytes> {
        let candidates = self.replica_set(key, hint);
        let mut tried: Vec<usize> = Vec::new();
        loop {
            let (route, failover) = self.route_read_replica(&candidates, &tried);
            let idx = match route {
                Route::Daemon(idx) => idx,
                Route::Shed => {
                    self.misses.inc();
                    self.degraded_misses.inc();
                    return None;
                }
                Route::Dead => {
                    self.misses.inc();
                    return None;
                }
            };
            if let Some(hedge) = self.policy.hedge {
                match self
                    .hedged_round(key, &candidates, &mut tried, idx, hedge)
                    .await
                {
                    RoundVerdict::Hit(data) => {
                        if failover {
                            self.replica_failovers.inc();
                        }
                        self.hits.inc();
                        return Some(data);
                    }
                    RoundVerdict::Miss => {
                        if failover {
                            self.replica_failovers.inc();
                        }
                        self.misses.inc();
                        return None;
                    }
                    RoundVerdict::Failed => continue,
                }
            }
            let req = McdReq(Command::Get {
                keys: vec![key.to_vec()],
                with_cas: false,
            });
            self.in_flight[idx].set(self.in_flight[idx].get() + 1);
            let outcome = self.call_daemon_read(idx, req).await;
            self.in_flight[idx].set(self.in_flight[idx].get() - 1);
            match outcome {
                CallOutcome::Resp(McdResp(Some(Response::Values(mut vals))))
                    if !vals.is_empty() =>
                {
                    if failover {
                        self.replica_failovers.inc();
                    }
                    self.hits.inc();
                    return Some(vals.remove(0).data);
                }
                CallOutcome::Resp(McdResp(Some(r))) if r.is_busy() => {
                    // Shed by admission control: fail over warm to the
                    // next replica (the value may well be there).
                    self.busy_sheds.inc();
                    tried.push(idx);
                }
                CallOutcome::Resp(_) => {
                    if failover {
                        self.replica_failovers.inc();
                    }
                    self.misses.inc();
                    return None;
                }
                CallOutcome::Dropped => {
                    // Replica died mid-flight: exclude it and fail over.
                    self.failures.inc();
                    self.core.borrow_mut().mark_dead(idx);
                    tried.push(idx);
                }
                CallOutcome::TimedOut => {
                    // Circuit now open (call_daemon_read tripped it); the
                    // next route sees this replica as shed. Exclude and
                    // retry the rest of the set.
                    self.failures.inc();
                    tried.push(idx);
                }
            }
        }
    }

    /// Hedge delay for a GET to daemon `idx`: the tracked tail proxy
    /// clamped to the policy's window, or the ceiling before warmup.
    fn hedge_delay(&self, idx: usize, hedge: HedgePolicy) -> SimDuration {
        let est = self.rtt.borrow()[idx];
        if est.samples() >= hedge.warmup {
            if let Some(tail) = est.tail() {
                return SimDuration::nanos(
                    (tail as u64).clamp(hedge.min_delay.as_nanos(), hedge.max_delay.as_nanos()),
                );
            }
        }
        hedge.max_delay
    }

    /// One hedged replicated-read round (DESIGN.md §8): the GET to
    /// `primary` runs as its own task; if it has not answered within
    /// [`BankClient::hedge_delay`], one hedge fires to the next live
    /// replica in placement order (spending a retry-budget token when a
    /// budget is configured). The first *answer* wins; the loser keeps
    /// running but its late result is discarded unseen — it is never
    /// settled, so a loser's timeout cannot trip a circuit. Failures
    /// (busy / dropped / timed out) from both attempts are settled here
    /// and appended to `tried` so the caller's next round routes past
    /// them.
    async fn hedged_round(
        &self,
        key: &[u8],
        candidates: &[usize],
        tried: &mut Vec<usize>,
        primary: usize,
        hedge: HedgePolicy,
    ) -> RoundVerdict {
        // Each racing attempt reports (was-hedge, replica, outcome,
        // elapsed); a hedge that decides not to fire reports `None`.
        type RaceMsg = Option<(bool, usize, CallOutcome, SimDuration)>;
        let results: Queue<RaceMsg> = Queue::new();
        let decided = Rc::new(Cell::new(false));
        let spawn_attempt = |idx: usize, is_hedge: bool| {
            let handle = self.handle.clone();
            let client = self.clients[idx].clone();
            let policy = self.effective_policy(idx);
            let rpc_timeouts = self.rpc_timeouts.clone();
            let retries = self.retries.clone();
            let budget = self.budget.clone();
            let results = results.clone();
            let inflight = Rc::clone(&self.in_flight[idx]);
            let req = McdReq(Command::Get {
                keys: vec![key.to_vec()],
                with_cas: false,
            });
            inflight.set(inflight.get() + 1);
            self.handle.spawn(async move {
                let t0 = handle.now();
                let outcome = retry_call(
                    handle.clone(),
                    client,
                    policy,
                    rpc_timeouts,
                    retries,
                    budget,
                    req,
                )
                .await;
                inflight.set(inflight.get() - 1);
                results.push(Some((is_hedge, idx, outcome, handle.now().since(t0))));
            });
        };
        spawn_attempt(primary, false);
        // Hedge target: the next live, untried replica after the primary
        // in placement order. Without one the round is just the primary.
        let target = candidates.iter().copied().find(|&c| {
            c != primary && !tried.contains(&c) && matches!(self.probe(c), Route::Daemon(_))
        });
        let mut expected = 1;
        if let Some(hidx) = target {
            expected += 1;
            let delay = self.hedge_delay(primary, hedge);
            let handle = self.handle.clone();
            let decided = Rc::clone(&decided);
            let budget = self.budget.clone();
            let hedged_gets = self.hedged_gets.clone();
            let results = results.clone();
            let client = self.clients[hidx].clone();
            let policy = self.effective_policy(hidx);
            let rpc_timeouts = self.rpc_timeouts.clone();
            let retries = self.retries.clone();
            let inflight = Rc::clone(&self.in_flight[hidx]);
            let req = McdReq(Command::Get {
                keys: vec![key.to_vec()],
                with_cas: false,
            });
            // The firing decision runs at fire time in its own task: the
            // hedge is skipped when the primary already answered or the
            // budget is dry, and either way a message is posted so the
            // receive loop below always sees `expected` messages.
            self.handle.spawn(async move {
                handle.sleep(delay).await;
                if decided.get() {
                    results.push(None);
                    return;
                }
                if let Some(b) = &budget {
                    if !b.spend(handle.now()) {
                        results.push(None);
                        return;
                    }
                }
                hedged_gets.inc();
                inflight.set(inflight.get() + 1);
                let t0 = handle.now();
                let outcome = retry_call(
                    handle.clone(),
                    client,
                    policy,
                    rpc_timeouts,
                    retries,
                    budget,
                    req,
                )
                .await;
                inflight.set(inflight.get() - 1);
                results.push(Some((true, hidx, outcome, handle.now().since(t0))));
            });
        }
        let mut failed: Vec<usize> = Vec::new();
        for _ in 0..expected {
            let msg = results.recv().await.expect("race queue never closes");
            let Some((is_hedge, idx, outcome, elapsed)) = msg else {
                continue; // hedge declined
            };
            match outcome {
                CallOutcome::Resp(McdResp(Some(Response::Values(mut vals))))
                    if !vals.is_empty() =>
                {
                    decided.set(true);
                    if is_hedge {
                        self.hedge_wins.inc();
                    }
                    self.observe_rtt(idx, elapsed);
                    tried.extend(failed);
                    return RoundVerdict::Hit(vals.remove(0).data);
                }
                CallOutcome::Resp(McdResp(Some(r))) if r.is_busy() => {
                    self.busy_sheds.inc();
                    failed.push(idx);
                }
                CallOutcome::Resp(_) => {
                    // Authoritative "not here" from a live replica.
                    decided.set(true);
                    self.observe_rtt(idx, elapsed);
                    tried.extend(failed);
                    return RoundVerdict::Miss;
                }
                CallOutcome::Dropped => {
                    self.failures.inc();
                    self.core.borrow_mut().mark_dead(idx);
                    failed.push(idx);
                }
                CallOutcome::TimedOut => {
                    self.failures.inc();
                    self.trip_circuit(idx);
                    failed.push(idx);
                }
            }
        }
        decided.set(true);
        tried.extend(failed);
        RoundVerdict::Failed
    }

    /// Fetch many values with at most one RPC per (live) daemon: keys are
    /// grouped by their routed primary and each group travels as a single
    /// multi-key `get` — the batching real libmemcache applies that a
    /// one-RPC-per-block client forgoes. Results come back in request
    /// order. Routing semantics are identical to [`BankClient::get`]: a
    /// key whose primary is dead is a local miss with no wire traffic
    /// (never a rehash), and a daemon dying mid-flight fails every key
    /// grouped on it.
    pub async fn get_multi(&self, keys: &[(Vec<u8>, Option<u64>)]) -> Vec<Option<Bytes>> {
        // A one-key batch is just a get. Routing it through the
        // single-key path keeps hedged reads available to the batched
        // data path, whose commonest shape is one covering block — the
        // grouped multi-RPC rounds below have no hedge. Gated on the
        // hedge policy so legacy configurations replay bit-identically.
        if keys.len() == 1 && self.policy.hedge.is_some() && self.replication > 1 {
            let (key, hint) = &keys[0];
            return vec![self.get(key, *hint).await];
        }
        self.gets.add(keys.len() as u64);
        let t0 = self.handle.now();
        let mut out: Vec<Option<Bytes>> = vec![None; keys.len()];
        // Single-flight split: keys this client already has a GET in
        // flight for become followers of that leader; the rest are
        // fetched here.
        let mut followers: Vec<(usize, OneshotReceiver<Option<Bytes>>)> = Vec::new();
        let mut leaders: Vec<usize> = Vec::with_capacity(keys.len());
        for (pos, (key, _)) in keys.iter().enumerate() {
            match self.join_single_flight(key) {
                Some(rx) => {
                    self.coalesced_gets.inc();
                    followers.push((pos, rx));
                }
                None => leaders.push(pos),
            }
        }
        self.fetch_multi(keys, &leaders, &mut out).await;
        for &pos in &leaders {
            self.publish_single_flight(&keys[pos].0, &out[pos]);
        }
        for (pos, rx) in followers {
            let r = rx.await.unwrap_or(None);
            if r.is_some() {
                self.hits.inc();
            } else {
                self.misses.inc();
            }
            out[pos] = r;
        }
        // One latency sample per requested key (they completed together),
        // keeping the histogram count equal to `gets`.
        let dt = self.handle.now().since(t0);
        for _ in 0..keys.len() {
            self.get_ns.record_duration(dt);
        }
        out
    }

    /// [`BankClient::fetch_multi_inner`] without tokens: the plain
    /// `get_multi` fetch.
    async fn fetch_multi(
        &self,
        keys: &[(Vec<u8>, Option<u64>)],
        positions: &[usize],
        out: &mut [Option<Bytes>],
    ) {
        let mut tagged: Vec<Option<TaggedValue>> = vec![None; keys.len()];
        self.fetch_multi_inner(keys, positions, false, &mut tagged)
            .await;
        for (slot, hit) in out.iter_mut().zip(tagged) {
            if let Some((data, _)) = hit {
                *slot = Some(data);
            }
        }
    }

    /// Route and fetch the `positions` of `keys` this call leads, writing
    /// hits into `out`. One multi-key RPC per daemon per round; with
    /// replication, keys grouped on a daemon that fails mid-flight
    /// re-route to their next live replica in a follow-up round (warm
    /// failover) instead of failing the whole group. At factor 1 there is
    /// exactly one round and the single-home semantics above hold
    /// unchanged.
    ///
    /// With `with_cas` the daemons answer with their engine tokens, and
    /// each hit's token is tagged with the daemon *of the round that
    /// answered it* — not the key's original primary. The lockstep
    /// matching below runs per round, against that round's daemon, so a
    /// dead-primary re-route can never pair a retry round's tokens with
    /// the first round's token space (the [`CasToken`] tag is taken from
    /// the same `idx` the reply just came from).
    async fn fetch_multi_inner(
        &self,
        keys: &[(Vec<u8>, Option<u64>)],
        positions: &[usize],
        with_cas: bool,
        out: &mut [Option<TaggedValue>],
    ) {
        // Each pending key remembers the replicas that already failed it
        // mid-flight, so a failover round never retries one.
        let mut pending: Vec<(usize, Vec<usize>)> =
            positions.iter().map(|&p| (p, Vec::new())).collect();
        while !pending.is_empty() {
            // BTreeMap for a deterministic daemon visit order. Members
            // carry (position, routed-as-failover, failed replicas).
            let mut groups: BTreeMap<usize, Vec<GroupMember>> = BTreeMap::new();
            for (pos, tried) in pending.drain(..) {
                let (key, hint) = &keys[pos];
                let (route, failover) = if self.replication == 1 {
                    (self.route(key, *hint), false)
                } else {
                    self.route_read_replica(&self.replica_set(key, *hint), &tried)
                };
                match route {
                    Route::Daemon(idx) => {
                        groups.entry(idx).or_default().push((pos, failover, tried))
                    }
                    Route::Dead => self.misses.inc(),
                    Route::Shed => {
                        self.misses.inc();
                        self.degraded_misses.inc();
                    }
                }
            }
            let groups: Vec<(usize, Vec<GroupMember>)> = groups.into_iter().collect();
            let calls: Vec<_> = groups
                .iter()
                .map(|(idx, members)| {
                    self.multi_gets.inc();
                    self.keys_per_multi_get.record(members.len() as u64);
                    if self.replication > 1 {
                        self.in_flight[*idx].set(self.in_flight[*idx].get() + 1);
                    }
                    let req = McdReq(Command::Get {
                        keys: members.iter().map(|(p, _, _)| keys[*p].0.clone()).collect(),
                        with_cas,
                    });
                    // Pure reads get the adaptive deadline + budget;
                    // token reads are write-path prep and stay on the
                    // generous static policy (see `call_daemon`).
                    let (policy, budget) = if with_cas {
                        (self.policy.clone(), None)
                    } else {
                        (self.effective_policy(*idx), self.budget.clone())
                    };
                    retry_call(
                        self.handle.clone(),
                        self.clients[*idx].clone(),
                        policy,
                        self.rpc_timeouts.clone(),
                        self.retries.clone(),
                        budget,
                        req,
                    )
                })
                .collect();
            let outcomes = join_all(&self.handle, calls).await;
            for ((idx, members), outcome) in groups.into_iter().zip(outcomes) {
                if self.replication > 1 {
                    self.in_flight[idx].set(self.in_flight[idx].get() - 1);
                }
                match outcome {
                    CallOutcome::Resp(McdResp(Some(Response::Values(vals)))) => {
                        // The daemon returns only the found keys, in request
                        // order with the key echoed: walk both lists in
                        // lockstep to tell hits from per-key misses.
                        let mut vals = vals.into_iter().peekable();
                        for (p, failover, _) in members {
                            if failover {
                                self.replica_failovers.inc();
                            }
                            if vals.peek().is_some_and(|v| v.key == keys[p].0) {
                                self.hits.inc();
                                let v = vals.next().expect("peeked");
                                // The tag is this round's daemon: on a
                                // failover round that is the replica that
                                // actually answered, never the daemon the
                                // key was first grouped on.
                                let token = v.cas.map(|token| CasToken { daemon: idx, token });
                                out[p] = Some((v.data, token));
                            } else {
                                self.misses.inc();
                            }
                        }
                    }
                    CallOutcome::Resp(McdResp(Some(r))) if r.is_busy() => {
                        // The whole group was shed by admission control:
                        // replicated keys fail over warm next round,
                        // single-home keys degrade to local misses.
                        self.busy_sheds.inc();
                        if self.replication > 1 {
                            for (p, _, mut tried) in members {
                                tried.push(idx);
                                pending.push((p, tried));
                            }
                        } else {
                            self.misses.add(members.len() as u64);
                            self.degraded_misses.add(members.len() as u64);
                        }
                    }
                    CallOutcome::Resp(_) => {
                        for (_, failover, _) in &members {
                            if *failover {
                                self.replica_failovers.inc();
                            }
                        }
                        self.misses.add(members.len() as u64);
                    }
                    CallOutcome::Dropped => {
                        // Daemon died mid-flight: the whole group fails.
                        // With replicas each key re-routes warm next
                        // round; single-home keys are misses.
                        self.failures.add(members.len() as u64);
                        self.core.borrow_mut().mark_dead(idx);
                        if self.replication > 1 {
                            for (p, _, mut tried) in members {
                                tried.push(idx);
                                pending.push((p, tried));
                            }
                        } else {
                            self.misses.add(members.len() as u64);
                        }
                    }
                    CallOutcome::TimedOut => {
                        // Deadline expired mid-group: the whole group
                        // fails — never a partial block assembly — and
                        // the circuit opens so the next batch sheds
                        // locally. Replicated keys retry the rest of
                        // their set next round.
                        self.failures.add(members.len() as u64);
                        self.trip_circuit(idx);
                        if self.replication > 1 {
                            for (p, _, mut tried) in members {
                                tried.push(idx);
                                pending.push((p, tried));
                            }
                        } else {
                            self.misses.add(members.len() as u64);
                            self.degraded_misses.add(members.len() as u64);
                        }
                    }
                }
            }
        }
    }

    /// Fetch one value *with its CAS token* (`gets`). Routing is the same
    /// as [`BankClient::get`] — primary-only at factor 1, warm P2C
    /// failover at factor > 1 — and the token is tagged with the daemon
    /// that actually answered, so a failover hit hands back a token that
    /// can only ever be compared inside that replica's token space.
    ///
    /// Deliberately *not* single-flighted: a coalesced follower would
    /// receive the leader's value without a token of its own (tokens are
    /// per-RPC), so every `gets` leads its own request.
    pub async fn gets(&self, key: &[u8], hint: Option<u64>) -> Option<(Bytes, CasToken)> {
        self.gets.inc();
        let t0 = self.handle.now();
        let result = self.gets_lead(key, hint).await;
        self.get_ns.record_duration(self.handle.now().since(t0));
        result
    }

    /// The routing/fetch loop behind [`BankClient::gets`].
    async fn gets_lead(&self, key: &[u8], hint: Option<u64>) -> Option<(Bytes, CasToken)> {
        let candidates = self.replica_set(key, hint);
        let mut tried: Vec<usize> = Vec::new();
        loop {
            let (route, failover) = self.route_read_replica(&candidates, &tried);
            let idx = match route {
                Route::Daemon(idx) => idx,
                Route::Shed => {
                    self.misses.inc();
                    self.degraded_misses.inc();
                    return None;
                }
                Route::Dead => {
                    self.misses.inc();
                    return None;
                }
            };
            let req = McdReq(Command::Get {
                keys: vec![key.to_vec()],
                with_cas: true,
            });
            if self.replication > 1 {
                self.in_flight[idx].set(self.in_flight[idx].get() + 1);
            }
            let outcome = self.call_daemon(idx, req).await;
            if self.replication > 1 {
                self.in_flight[idx].set(self.in_flight[idx].get() - 1);
            }
            match outcome {
                CallOutcome::Resp(McdResp(Some(Response::Values(mut vals))))
                    if !vals.is_empty() =>
                {
                    if failover {
                        self.replica_failovers.inc();
                    }
                    self.hits.inc();
                    let v = vals.remove(0);
                    let token = v.cas.expect("gets reply carries a token");
                    return Some((v.data, CasToken { daemon: idx, token }));
                }
                CallOutcome::Resp(_) => {
                    if failover {
                        self.replica_failovers.inc();
                    }
                    self.misses.inc();
                    return None;
                }
                CallOutcome::Dropped => {
                    self.failures.inc();
                    self.core.borrow_mut().mark_dead(idx);
                    if self.replication == 1 {
                        self.misses.inc();
                        return None;
                    }
                    tried.push(idx);
                }
                CallOutcome::TimedOut => {
                    self.failures.inc();
                    if self.replication == 1 {
                        self.misses.inc();
                        self.degraded_misses.inc();
                        return None;
                    }
                    tried.push(idx);
                }
            }
        }
    }

    /// Batched `gets`: [`BankClient::get_multi`]'s grouping and warm
    /// re-route rounds, with every hit carrying its daemon-tagged token.
    /// Like [`BankClient::gets`] this bypasses the single-flight table —
    /// see there for why — but keys already being fetched by a concurrent
    /// plain GET are unaffected (this call simply leads its own RPCs).
    pub async fn gets_multi(
        &self,
        keys: &[(Vec<u8>, Option<u64>)],
    ) -> Vec<Option<(Bytes, CasToken)>> {
        self.gets.add(keys.len() as u64);
        let t0 = self.handle.now();
        let positions: Vec<usize> = (0..keys.len()).collect();
        let mut tagged: Vec<Option<TaggedValue>> = vec![None; keys.len()];
        self.fetch_multi_inner(keys, &positions, true, &mut tagged)
            .await;
        let dt = self.handle.now().since(t0);
        for _ in 0..keys.len() {
            self.get_ns.record_duration(dt);
        }
        tagged
            .into_iter()
            .map(|hit| hit.map(|(data, token)| (data, token.expect("gets round asked for tokens"))))
            .collect()
    }

    /// Per-replica `gets` for an in-place update wave (DESIGN.md §4f):
    /// see [`ReplicaRows`] for the per-key row shape.
    /// fetch `keys` from *every* usable replica — not one routed replica
    /// per key as [`BankClient::get_multi`] does — returning for each key
    /// the `(daemon, value-with-token)` rows that answered. The CAS
    /// update path needs every replica's own token, because tokens live
    /// in per-daemon spaces and must never cross them.
    ///
    /// One multi-key `gets` RPC per daemon. Write-path semantics
    /// throughout: the target set is [`BankClient::write_targets`] (dead
    /// replicas restart empty, shed replicas are already quarantined —
    /// both safe to skip), and a daemon that drops or times out
    /// mid-flight is **quarantined like a failed write**, because the
    /// in-place update it was about to receive can no longer be
    /// confirmed and it must not keep serving the old value. A row with
    /// `None` means the daemon answered and does not hold the key (cold
    /// replica — nothing to replace there).
    ///
    /// Not counted in `gets`/`hits`/`misses`: this is a write-path
    /// internal fetch, and folding it in would skew the read hit rate.
    pub async fn gets_for_update(&self, keys: &[(Vec<u8>, Option<u64>)]) -> Vec<ReplicaRows> {
        let mut out: Vec<ReplicaRows> = vec![Vec::new(); keys.len()];
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, (key, hint)) in keys.iter().enumerate() {
            for idx in self.write_targets(key, *hint) {
                groups.entry(idx).or_default().push(pos);
            }
        }
        let groups: Vec<(usize, Vec<usize>)> = groups.into_iter().collect();
        let calls: Vec<_> = groups
            .iter()
            .map(|(idx, members)| {
                self.multi_gets.inc();
                self.keys_per_multi_get.record(members.len() as u64);
                let req = McdReq(Command::Get {
                    keys: members.iter().map(|&p| keys[p].0.clone()).collect(),
                    with_cas: true,
                });
                retry_call(
                    self.handle.clone(),
                    self.clients[*idx].clone(),
                    self.policy.clone(),
                    self.rpc_timeouts.clone(),
                    self.retries.clone(),
                    None,
                    req,
                )
            })
            .collect();
        let outcomes = join_all(&self.handle, calls).await;
        for ((idx, members), outcome) in groups.into_iter().zip(outcomes) {
            match outcome {
                CallOutcome::Resp(McdResp(Some(Response::Values(vals)))) => {
                    let mut vals = vals.into_iter().peekable();
                    for p in members {
                        if vals.peek().is_some_and(|v| v.key == keys[p].0) {
                            let v = vals.next().expect("peeked");
                            let token = v.cas.expect("gets reply carries a token");
                            out[p].push((idx, Some((v.data, CasToken { daemon: idx, token }))));
                        } else {
                            out[p].push((idx, None));
                        }
                    }
                }
                CallOutcome::Resp(_) => {
                    for p in members {
                        out[p].push((idx, None));
                    }
                }
                CallOutcome::Dropped => {
                    self.failures.add(members.len() as u64);
                    self.quarantined[idx].set(true);
                    self.core.borrow_mut().mark_dead(idx);
                }
                CallOutcome::TimedOut => {
                    self.failures.add(members.len() as u64);
                    self.degraded_misses.add(members.len() as u64);
                    self.quarantined[idx].set(true);
                    self.trip_circuit(idx);
                }
            }
        }
        out
    }

    /// Compare-and-swap one value against the token's daemon. The store
    /// goes to `token.daemon` and nowhere else — the token is meaningless
    /// in any other daemon's token space, which is the invariant the tag
    /// exists to enforce. Any transport failure quarantines the daemon
    /// exactly like a failed set/delete: an unacknowledged `cas` may have
    /// left it holding a value now stale against the disk.
    pub async fn cas(&self, key: &[u8], value: Bytes, token: CasToken) -> CasVerdict {
        self.sets.inc();
        self.cas_ops.inc();
        self.refresh_liveness();
        let idx = match self.probe(token.daemon) {
            Route::Daemon(idx) => idx,
            Route::Dead => return CasVerdict::Failed,
            Route::Shed => {
                self.degraded_misses.inc();
                return CasVerdict::Failed;
            }
        };
        let req = McdReq(Command::Store {
            verb: StoreVerb::Cas(token.token),
            key: key.to_vec(),
            flags: 0,
            exptime: 0,
            data: value,
            noreply: false,
        });
        let outcome = self.call_daemon(idx, req).await;
        let verdict = cas_verdict(&outcome);
        self.settle_write(idx, outcome);
        verdict
    }

    /// Pipelined compare-and-swap with the same one-barrier-per-daemon
    /// discipline as [`BankClient::set_pipeline`]: items are grouped by
    /// their token's daemon and each group's stores go out back-to-back
    /// without waiting on each other. `cas` needs per-item replies (the
    /// verdicts), so instead of `noreply` + a trailing `version` the
    /// replies themselves subsume the barrier — the daemon's FIFO event
    /// loop answers a group's last `cas` only after every earlier one has
    /// applied, so the whole batch still costs one wall-clock round trip
    /// per daemon, not one per key.
    ///
    /// Items whose daemon is dead or shed come back [`CasVerdict::Failed`]
    /// without wire traffic; a daemon failing mid-batch fails its items
    /// and is quarantined like a failed pipeline sync.
    pub async fn cas_pipeline(&self, items: &[(Vec<u8>, Bytes, CasToken)]) -> Vec<CasVerdict> {
        self.sets.add(items.len() as u64);
        self.cas_ops.add(items.len() as u64);
        let mut verdicts = vec![CasVerdict::Failed; items.len()];
        self.refresh_liveness();
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, (_, _, token)) in items.iter().enumerate() {
            match self.probe(token.daemon) {
                Route::Daemon(idx) => groups.entry(idx).or_default().push(pos),
                Route::Dead => {}
                Route::Shed => self.degraded_misses.inc(),
            }
        }
        let groups: Vec<(usize, Vec<usize>)> = groups.into_iter().collect();
        let batches: Vec<_> = groups
            .iter()
            .map(|(idx, members)| {
                self.pipelined_cas.add(members.len() as u64);
                let futs: Vec<_> = members
                    .iter()
                    .map(|&pos| {
                        let (key, data, token) = &items[pos];
                        retry_call(
                            self.handle.clone(),
                            self.clients[*idx].clone(),
                            self.policy.clone(),
                            self.rpc_timeouts.clone(),
                            self.retries.clone(),
                            None,
                            McdReq(Command::Store {
                                verb: StoreVerb::Cas(token.token),
                                key: key.clone(),
                                flags: 0,
                                exptime: 0,
                                data: data.clone(),
                                noreply: false,
                            }),
                        )
                    })
                    .collect();
                let handle = self.handle.clone();
                async move { join_all(&handle, futs).await }
            })
            .collect();
        let outcomes = join_all(&self.handle, batches).await;
        for ((idx, members), batch) in groups.into_iter().zip(outcomes) {
            for (pos, outcome) in members.into_iter().zip(batch) {
                verdicts[pos] = cas_verdict(&outcome);
                if matches!(outcome, CallOutcome::TimedOut) {
                    self.trip_circuit(idx);
                }
                self.settle_write(idx, outcome);
            }
        }
        verdicts
    }

    /// Append `suffix` to an existing value on every usable replica.
    /// `true` only when every targeted replica confirmed the append (and
    /// at least one was targeted); a replica without the key answers
    /// `NOT_STORED`, which fails the call — append never creates.
    pub async fn append(&self, key: &[u8], suffix: Bytes, hint: Option<u64>) -> bool {
        self.sets.inc();
        let req = McdReq(Command::Store {
            verb: StoreVerb::Append,
            key: key.to_vec(),
            flags: 0,
            exptime: 0,
            data: suffix,
            noreply: false,
        });
        self.write_expect(key, hint, req, &Response::Stored).await
    }

    /// Refresh a key's expiry on every usable replica. `true` only when
    /// every targeted replica held the key and confirmed the touch.
    pub async fn touch(&self, key: &[u8], exptime: u32, hint: Option<u64>) -> bool {
        let req = McdReq(Command::Touch {
            key: key.to_vec(),
            exptime,
            noreply: false,
        });
        self.write_expect(key, hint, req, &Response::Touched).await
    }

    /// Fan `req` out to every usable replica and report whether *all* of
    /// them answered `want`. Failure accounting is the write fan-out's:
    /// each daemon settles independently and a reset/timeout quarantines
    /// it.
    async fn write_expect(
        &self,
        key: &[u8],
        hint: Option<u64>,
        req: McdReq,
        want: &Response,
    ) -> bool {
        let targets = self.write_targets(key, hint);
        if targets.is_empty() {
            return false;
        }
        let calls: Vec<_> = targets
            .iter()
            .map(|&idx| {
                retry_call(
                    self.handle.clone(),
                    self.clients[idx].clone(),
                    self.policy.clone(),
                    self.rpc_timeouts.clone(),
                    self.retries.clone(),
                    None,
                    req.clone(),
                )
            })
            .collect();
        let outcomes = join_all(&self.handle, calls).await;
        let mut all_confirmed = true;
        for (idx, outcome) in targets.into_iter().zip(outcomes) {
            if matches!(outcome, CallOutcome::TimedOut) {
                self.trip_circuit(idx);
            }
            all_confirmed &=
                matches!(&outcome, CallOutcome::Resp(McdResp(Some(resp))) if resp == want);
            self.settle_write(idx, outcome);
        }
        all_confirmed
    }

    /// Store many values using `noreply` pipelining: per routed daemon the
    /// stores are streamed back-to-back without individual
    /// acknowledgements, then a single `version` round trip flushes the
    /// daemon's FIFO event loop — every pipelined command completes
    /// before the sync answers. One trailing RTT per daemon instead of
    /// one per key.
    ///
    /// A key routed to a dead primary is skipped, exactly like
    /// [`BankClient::set`]. If a daemon dies mid-pipeline its sync fails
    /// and every key streamed to it counts as a failure, because none of
    /// them is known to have landed.
    pub async fn set_pipeline(&self, items: Vec<(Vec<u8>, Bytes, Option<u64>)>) {
        self.sets.add(items.len() as u64);
        let mut groups: BTreeMap<usize, Vec<(Vec<u8>, Bytes)>> = BTreeMap::new();
        if self.replication == 1 {
            for (key, value, hint) in items {
                match self.route(&key, hint) {
                    Route::Daemon(idx) => groups.entry(idx).or_default().push((key, value)),
                    Route::Dead => {}
                    Route::Shed => self.degraded_misses.inc(),
                }
            }
        } else {
            // Replicated: each item streams to every usable replica, so
            // one pipeline carries the whole fan-out with still just one
            // sync barrier per daemon.
            for (key, value, hint) in items {
                for idx in self.write_targets(&key, hint) {
                    groups
                        .entry(idx)
                        .or_default()
                        .push((key.clone(), value.clone()));
                }
            }
        }
        let mut daemons = Vec::with_capacity(groups.len());
        let mut pipelines = Vec::with_capacity(groups.len());
        for (idx, batch) in groups {
            self.pipelined_sets.add(batch.len() as u64);
            daemons.push((idx, batch.len() as u64));
            let client = self.clients[idx].clone();
            let handle = self.handle.clone();
            let policy = self.policy.clone();
            let rpc_timeouts = self.rpc_timeouts.clone();
            let retries = self.retries.clone();
            pipelines.push(async move {
                for (key, data) in batch {
                    let req = McdReq(Command::Store {
                        verb: StoreVerb::Set,
                        key,
                        flags: 0,
                        exptime: 0,
                        data,
                        noreply: true,
                    });
                    if !post_with_retransmit(
                        handle.clone(),
                        client.clone(),
                        policy.clone(),
                        retries.clone(),
                        req,
                    )
                    .await
                    {
                        // Connection declared dead mid-stream: nothing past
                        // this point is known to have landed.
                        return CallOutcome::TimedOut;
                    }
                }
                retry_call(
                    handle,
                    client,
                    policy,
                    rpc_timeouts,
                    retries,
                    None,
                    McdReq(Command::Version),
                )
                .await
            });
        }
        let syncs = join_all(&self.handle, pipelines).await;
        self.settle_pipeline(daemons, syncs);
    }

    /// Remove many keys using `noreply` pipelining with one trailing
    /// `version` sync per daemon — same grouping, ordering, and failure
    /// semantics as [`BankClient::set_pipeline`].
    pub async fn delete_pipeline(&self, items: Vec<(Vec<u8>, Option<u64>)>) {
        self.deletes.add(items.len() as u64);
        let mut groups: BTreeMap<usize, Vec<Vec<u8>>> = BTreeMap::new();
        if self.replication == 1 {
            for (key, hint) in items {
                match self.route(&key, hint) {
                    Route::Daemon(idx) => groups.entry(idx).or_default().push(key),
                    Route::Dead => {}
                    Route::Shed => self.degraded_misses.inc(),
                }
            }
        } else {
            // Replicated purge: the delete must reach every replica that
            // could still serve the value.
            for (key, hint) in items {
                for idx in self.write_targets(&key, hint) {
                    groups.entry(idx).or_default().push(key.clone());
                }
            }
        }
        let mut daemons = Vec::with_capacity(groups.len());
        let mut pipelines = Vec::with_capacity(groups.len());
        for (idx, batch) in groups {
            self.pipelined_deletes.add(batch.len() as u64);
            daemons.push((idx, batch.len() as u64));
            let client = self.clients[idx].clone();
            let handle = self.handle.clone();
            let policy = self.policy.clone();
            let rpc_timeouts = self.rpc_timeouts.clone();
            let retries = self.retries.clone();
            pipelines.push(async move {
                for key in batch {
                    let req = McdReq(Command::Delete { key, noreply: true });
                    if !post_with_retransmit(
                        handle.clone(),
                        client.clone(),
                        policy.clone(),
                        retries.clone(),
                        req,
                    )
                    .await
                    {
                        return CallOutcome::TimedOut;
                    }
                }
                retry_call(
                    handle,
                    client,
                    policy,
                    rpc_timeouts,
                    retries,
                    None,
                    McdReq(Command::Version),
                )
                .await
            });
        }
        let syncs = join_all(&self.handle, pipelines).await;
        self.settle_pipeline(daemons, syncs);
    }

    /// Account per-daemon pipeline outcomes. Any failed sync — reset or
    /// timed out — counts every store/delete streamed to that daemon as a
    /// failure (none is known to have landed) and *quarantines* the
    /// daemon: a dropped purge or push may have left it holding stale
    /// state, which must never be served again before a clean restart.
    fn settle_pipeline(&self, daemons: Vec<(usize, u64)>, syncs: Vec<CallOutcome>) {
        for ((idx, streamed), sync) in daemons.into_iter().zip(syncs) {
            match sync {
                CallOutcome::Resp(_) => {}
                CallOutcome::Dropped => {
                    self.failures.add(streamed);
                    self.quarantined[idx].set(true);
                    self.core.borrow_mut().mark_dead(idx);
                }
                CallOutcome::TimedOut => {
                    self.failures.add(streamed);
                    self.degraded_misses.add(streamed);
                    self.quarantined[idx].set(true);
                    self.trip_circuit(idx);
                }
            }
        }
    }

    /// Store one value. With replication the store fans out to every
    /// usable replica (see [`BankClient::write_targets`]).
    pub async fn set(&self, key: &[u8], value: Bytes, hint: Option<u64>) {
        self.sets.inc();
        let req = McdReq(Command::Store {
            verb: StoreVerb::Set,
            key: key.to_vec(),
            flags: 0,
            exptime: 0,
            data: value,
            noreply: false,
        });
        if self.replication == 1 {
            let idx = match self.route(key, hint) {
                Route::Dead => return,
                Route::Shed => {
                    self.degraded_misses.inc();
                    return;
                }
                Route::Daemon(idx) => idx,
            };
            self.settle_write(idx, self.call_daemon(idx, req).await);
        } else {
            self.write_fanout(key, hint, req).await;
        }
    }

    /// Remove one key. With replication the delete fans out to every
    /// usable replica — a purge is only complete once no replica can
    /// still serve the value.
    pub async fn delete(&self, key: &[u8], hint: Option<u64>) {
        self.deletes.inc();
        let req = McdReq(Command::Delete {
            key: key.to_vec(),
            noreply: false,
        });
        if self.replication == 1 {
            let idx = match self.route(key, hint) {
                Route::Dead => return,
                Route::Shed => {
                    self.degraded_misses.inc();
                    return;
                }
                Route::Daemon(idx) => idx,
            };
            self.settle_write(idx, self.call_daemon(idx, req).await);
        } else {
            self.write_fanout(key, hint, req).await;
        }
    }

    /// The key's usable write targets: every replica that is alive and
    /// unshed. Dead replicas are skipped — they restart *empty*, so a
    /// missed write cannot resurface — and shed replicas are skipped and
    /// counted degraded (they are already quarantined; nothing stale can
    /// be served from them before a clean restart).
    fn write_targets(&self, key: &[u8], hint: Option<u64>) -> Vec<usize> {
        self.refresh_liveness();
        let mut targets = Vec::new();
        for idx in self.replica_set(key, hint) {
            match self.probe(idx) {
                Route::Daemon(i) => targets.push(i),
                Route::Dead => {}
                Route::Shed => self.degraded_misses.inc(),
            }
        }
        targets
    }

    /// Fan one write out to every usable replica concurrently, settling
    /// each daemon's outcome independently — a replica whose write fails
    /// is quarantined exactly as in the single-home path, so no replica
    /// can ever serve a value its purge missed.
    async fn write_fanout(&self, key: &[u8], hint: Option<u64>, req: McdReq) {
        let targets = self.write_targets(key, hint);
        match targets.len() {
            0 => {}
            1 => {
                let idx = targets[0];
                self.settle_write(idx, self.call_daemon(idx, req).await);
            }
            _ => {
                let calls: Vec<_> = targets
                    .iter()
                    .map(|&idx| {
                        retry_call(
                            self.handle.clone(),
                            self.clients[idx].clone(),
                            self.policy.clone(),
                            self.rpc_timeouts.clone(),
                            self.retries.clone(),
                            None,
                            req.clone(),
                        )
                    })
                    .collect();
                let outcomes = join_all(&self.handle, calls).await;
                for (idx, outcome) in targets.into_iter().zip(outcomes) {
                    if matches!(outcome, CallOutcome::TimedOut) {
                        self.trip_circuit(idx);
                    }
                    self.settle_write(idx, outcome);
                }
            }
        }
    }

    /// Account a single-key write outcome. Like a failed pipeline sync,
    /// any failed write quarantines its daemon: a delete that never
    /// landed leaves a stale value that must not outlive the failure.
    fn settle_write(&self, idx: usize, outcome: CallOutcome) {
        match outcome {
            CallOutcome::Resp(_) => {}
            CallOutcome::Dropped => {
                self.failures.inc();
                self.quarantined[idx].set(true);
                self.core.borrow_mut().mark_dead(idx);
            }
            CallOutcome::TimedOut => {
                self.failures.inc();
                self.degraded_misses.inc();
                self.quarantined[idx].set(true);
            }
        }
    }
}

impl MetricSource for BankClient {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_sim::Sim;

    fn setup(sim: &Sim, n: usize) -> (Network, Rc<Bank>, BankClient) {
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            n,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client_node = net.add_node();
        let client = bank.client(client_node, Selector::Crc32, None);
        (net, bank, client)
    }

    #[test]
    fn set_get_across_the_bank() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = setup(&sim, 4);
        let client = Rc::new(client);
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            for i in 0..100u64 {
                let key = format!("/f/{i}:stat");
                c2.set(key.as_bytes(), Bytes::from(vec![i as u8; 24]), None)
                    .await;
            }
            for i in 0..100u64 {
                let key = format!("/f/{i}:stat");
                let v = c2.get(key.as_bytes(), None).await.unwrap();
                assert_eq!(v, vec![i as u8; 24]);
            }
        });
        sim.run();
        let s = client.stats();
        assert_eq!((s.gets, s.hits, s.misses, s.sets), (100, 100, 0, 100));
        // Items spread across multiple daemons.
        let occupied = bank
            .nodes()
            .iter()
            .filter(|n| n.stats().curr_items > 0)
            .count();
        assert!(occupied >= 2, "occupied={occupied}");
        // Daemon-side totals agree with the client's view.
        let agg = bank.stats();
        assert_eq!(agg.get_hits, 100);
        assert_eq!(agg.curr_items, 100);
    }

    #[test]
    fn miss_and_delete_paths() {
        let mut sim = Sim::new(0);
        let (_net, _bank, client) = setup(&sim, 2);
        let client = Rc::new(client);
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            assert!(c2.get(b"/nothing:stat", None).await.is_none());
            c2.set(b"/x:0", Bytes::from_static(b"data"), Some(0)).await;
            assert!(c2.get(b"/x:0", Some(0)).await.is_some());
            c2.delete(b"/x:0", Some(0)).await;
            assert!(c2.get(b"/x:0", Some(0)).await.is_none());
        });
        sim.run();
        let s = client.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.deletes, 1);
    }

    #[test]
    fn killed_daemon_degrades_to_misses_without_hanging() {
        let mut sim = Sim::new(0);
        // Modulo routing so hints pin keys to known daemons: hint 0 → MCD 0.
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            2,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client = Rc::new(bank.client(net.add_node(), Selector::Modulo, None));
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        sim.spawn(async move {
            c2.set(b"/k:0", Bytes::from_static(b"v"), Some(0)).await;
            assert!(c2.get(b"/k:0", Some(0)).await.is_some());
            b2.kill(0);
            // Dead primary: miss — no rehash to the survivor (stale-data
            // hazard, see BankClient::route).
            assert!(c2.get(b"/k:0", Some(0)).await.is_none());
            // Keys homed on the survivor are unaffected.
            c2.set(b"/k:1", Bytes::from_static(b"w"), Some(1)).await;
            assert!(c2.get(b"/k:1", Some(1)).await.is_some());
            // Sets to the dead primary are skipped, not redirected.
            c2.set(b"/k2:0", Bytes::from_static(b"x"), Some(0)).await;
            assert_eq!(b2.nodes()[1].stats().curr_items, 1, "set must not rehash");
            b2.revive(0);
            // A revived daemon restarts empty: still a miss, never stale.
            assert!(c2.get(b"/k:0", Some(0)).await.is_none());
            // And accepts fresh traffic again.
            c2.set(b"/k:0", Bytes::from_static(b"v2"), Some(0)).await;
            assert_eq!(
                c2.get(b"/k:0", Some(0)).await,
                Some(Bytes::from_static(b"v2"))
            );
        });
        sim.run();
        assert!(bank.nodes()[1].is_alive());
        assert_eq!(bank.failovers(), 1);
    }

    #[test]
    fn kill_mid_flight_counts_a_failure() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = setup(&sim, 1);
        let client = Rc::new(client);
        let h = net.handle();
        {
            let c = Rc::clone(&client);
            sim.spawn(async move {
                c.set(b"/k:0", Bytes::from_static(b"v"), None).await;
                // This get will be in flight when the daemon dies.
                let r = c.get(b"/k:0", None).await;
                assert!(r.is_none());
            });
        }
        {
            let b = Rc::clone(&bank);
            sim.spawn(async move {
                // Let the set land, then kill during the get's network leg.
                h.sleep(SimDuration::micros(60)).await;
                b.kill(0);
            });
        }
        sim.run();
        assert_eq!(client.stats().failures, 1);
        assert_eq!(bank.failovers(), 1);
    }

    #[test]
    fn modulo_selector_round_robins_blocks() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            4,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client = Rc::new(bank.client(net.add_node(), Selector::Modulo, None));
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            for blk in 0..16u64 {
                let key = format!("/file:{}", blk * 2048);
                c2.set(key.as_bytes(), Bytes::from_static(b"B"), Some(blk))
                    .await;
            }
        });
        sim.run();
        // Perfectly even distribution: 4 items per daemon.
        for n in bank.nodes() {
            assert_eq!(n.stats().curr_items, 4);
        }
    }

    #[test]
    fn bank_metrics_mirror_legacy_stats() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = setup(&sim, 2);
        let client = Rc::new(client);
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        let h = net.handle();
        let (kill_tx, kill_rx) = imca_sim::sync::oneshot::<()>();
        {
            // Mid-flight killer: takes *both* daemons down shortly after
            // the signal, while the driver's last get is on the wire.
            let b = Rc::clone(&bank);
            let h2 = h.clone();
            sim.spawn(async move {
                let _ = kill_rx.await;
                h2.sleep(SimDuration::micros(10)).await;
                b.kill(0);
                b.kill(1);
            });
        }
        sim.spawn(async move {
            for i in 0..20u64 {
                let key = format!("/m/{i}:stat");
                c2.set(key.as_bytes(), Bytes::from(vec![1u8; 32]), None)
                    .await;
            }
            for i in 0..25u64 {
                let key = format!("/m/{i}:stat");
                c2.get(key.as_bytes(), None).await;
            }
            // Fault injection must not skew the histogram/counter
            // agreement. First: dead-primary local misses.
            b2.kill(0);
            for i in 0..10u64 {
                let key = format!("/m/{i}:stat");
                c2.get(key.as_bytes(), None).await;
            }
            b2.revive(0);
            // Then: a get whose daemon dies mid-flight.
            kill_tx.send(());
            assert!(c2.get(b"/m/0:stat", None).await.is_none());
        });
        sim.run();
        // Client view: the registry and the BankStats struct are the same
        // atomics, so the snapshot must agree exactly.
        let snap = imca_metrics::collect_from(&*client, "bank");
        let s = client.stats();
        assert!(
            s.failures >= 1,
            "the mid-flight kill was not injected: {s:?}"
        );
        assert_eq!(snap.counter("bank.gets"), Some(s.gets));
        assert_eq!(snap.counter("bank.hits"), Some(s.hits));
        assert_eq!(snap.counter("bank.misses"), Some(s.misses));
        assert_eq!(snap.counter("bank.sets"), Some(s.sets));
        assert_eq!(snap.counter("bank.failures"), Some(s.failures));
        let hist = snap
            .histogram("bank.get_ns")
            .expect("get latency histogram");
        assert_eq!(
            hist.count, s.gets,
            "every get records a latency — hits, misses, and failures alike"
        );
        assert!(hist.mean() > 0.0);
        // Daemon view: summed store counters equal the aggregate stats.
        let snap = imca_metrics::collect_from(&*bank, "");
        let agg = bank.stats();
        assert_eq!(snap.counter_sum(".store.cmd_get"), agg.cmd_get);
        assert_eq!(snap.counter_sum(".store.get_hits"), agg.get_hits);
        assert!(snap
            .histogram_names()
            .iter()
            .any(|n| n.ends_with("service_ns")));
    }

    #[test]
    fn multi_get_issues_one_rpc_per_daemon() {
        let mut sim = Sim::new(0);
        // Modulo routing so block hints pin keys to known daemons.
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            4,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client = Rc::new(bank.client(net.add_node(), Selector::Modulo, None));
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            for blk in 0..8u64 {
                let key = format!("/f:{}", blk * 2048);
                c2.set(key.as_bytes(), Bytes::from(vec![blk as u8; 64]), Some(blk))
                    .await;
            }
            let keys: Vec<(Vec<u8>, Option<u64>)> = (0..8u64)
                .map(|blk| (format!("/f:{}", blk * 2048).into_bytes(), Some(blk)))
                .collect();
            let got = c2.get_multi(&keys).await;
            for (blk, v) in got.iter().enumerate() {
                assert_eq!(v.as_deref(), Some(&vec![blk as u8; 64][..]), "block {blk}");
            }
        });
        sim.run();
        let s = client.stats();
        assert_eq!((s.gets, s.hits, s.misses, s.failures), (8, 8, 0, 0));
        // 8 keys over 4 daemons: exactly one multi-get RPC per daemon,
        // carrying 2 keys each.
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.multi_gets"), Some(4));
        let per = snap
            .histogram("bank.keys_per_multi_get")
            .expect("batch-size histogram");
        assert_eq!(per.count, 4);
        assert_eq!(per.mean(), 2.0);
        assert_eq!(
            snap.histogram("bank.get_ns").expect("get latency").count,
            s.gets
        );
        // Daemon side: each of the 4 daemons saw 2 sets + 1 multi-get.
        let snap = imca_metrics::collect_from(&*bank, "bank");
        for i in 0..4 {
            assert_eq!(
                snap.counter(&format!("bank.mcd.{i}.requests")),
                Some(3),
                "daemon {i} must see one batched read RPC, not one per key"
            );
        }
    }

    #[test]
    fn multi_get_dead_primary_is_a_local_miss() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            2,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client = Rc::new(bank.client(net.add_node(), Selector::Modulo, None));
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        sim.spawn(async move {
            c2.set(b"/f:0", Bytes::from_static(b"a"), Some(0)).await;
            c2.set(b"/f:2048", Bytes::from_static(b"b"), Some(1)).await;
            b2.kill(0);
            let got = c2
                .get_multi(&[(b"/f:0".to_vec(), Some(0)), (b"/f:2048".to_vec(), Some(1))])
                .await;
            // Dead primary: miss without a rehash; the survivor still answers.
            assert_eq!(got[0], None);
            assert_eq!(got[1], Some(Bytes::from_static(b"b")));
        });
        sim.run();
        let s = client.stats();
        assert_eq!((s.gets, s.hits, s.misses), (2, 1, 1));
        // No wire traffic to the dead daemon: not a failure, a local miss.
        assert_eq!(s.failures, 0);
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.multi_gets"), Some(1));
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 2);
    }

    #[test]
    fn multi_get_kill_mid_flight_fails_the_whole_group() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = setup(&sim, 1);
        let client = Rc::new(client);
        let h = net.handle();
        let (armed_tx, armed_rx) = imca_sim::sync::oneshot::<()>();
        {
            let c = Rc::clone(&client);
            sim.spawn(async move {
                for i in 0..3u64 {
                    let key = format!("/g/{i}:stat");
                    c.set(key.as_bytes(), Bytes::from_static(b"v"), None).await;
                }
                let keys: Vec<(Vec<u8>, Option<u64>)> = (0..3u64)
                    .map(|i| (format!("/g/{i}:stat").into_bytes(), None))
                    .collect();
                // Arm the killer, then issue the multi-get: routing is
                // synchronous, so the RPC is on the wire before the killer
                // task gets to run.
                armed_tx.send(());
                let got = c.get_multi(&keys).await;
                assert!(got.iter().all(|v| v.is_none()));
            });
        }
        {
            let b = Rc::clone(&bank);
            sim.spawn(async move {
                armed_rx.await.unwrap();
                // The request is in flight; kill before it is served.
                h.sleep(SimDuration::nanos(1)).await;
                b.kill(0);
            });
        }
        sim.run();
        let s = client.stats();
        assert_eq!((s.gets, s.hits), (3, 0));
        assert_eq!(s.failures, 3, "every key in the dropped batch fails");
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 3);
    }

    #[test]
    fn pipelines_store_and_delete_with_one_sync_per_daemon() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            2,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client = Rc::new(bank.client(net.add_node(), Selector::Modulo, None));
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            let items: Vec<(Vec<u8>, Bytes, Option<u64>)> = (0..8u64)
                .map(|blk| {
                    (
                        format!("/p:{}", blk * 2048).into_bytes(),
                        Bytes::from(vec![blk as u8; 128]),
                        Some(blk),
                    )
                })
                .collect();
            c2.set_pipeline(items).await;
            // The trailing sync guarantees every store has landed.
            for blk in 0..8u64 {
                let key = format!("/p:{}", blk * 2048);
                let got = c2.get(key.as_bytes(), Some(blk)).await;
                assert_eq!(got.as_deref(), Some(&vec![blk as u8; 128][..]));
            }
            c2.delete_pipeline(
                (0..8u64)
                    .map(|blk| (format!("/p:{}", blk * 2048).into_bytes(), Some(blk)))
                    .collect(),
            )
            .await;
            for blk in 0..8u64 {
                let key = format!("/p:{}", blk * 2048);
                assert!(c2.get(key.as_bytes(), Some(blk)).await.is_none());
            }
        });
        sim.run();
        let s = client.stats();
        assert_eq!((s.sets, s.deletes, s.failures), (8, 8, 0));
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.pipelined_sets"), Some(8));
        assert_eq!(snap.counter("bank.pipelined_deletes"), Some(8));
        // Daemon side: 4 noreply stores + 4 noreply deletes + 2 version
        // syncs + 8 verification gets = 18 requests per daemon; the key
        // point is 1 sync per daemon per pipeline, not 1 RTT per key.
        let snap = imca_metrics::collect_from(&*bank, "bank");
        for i in 0..2 {
            assert_eq!(snap.counter(&format!("bank.mcd.{i}.requests")), Some(18));
        }
    }

    #[test]
    fn pipeline_sync_failure_counts_the_streamed_batch() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = setup(&sim, 1);
        let client = Rc::new(client);
        let h = net.handle();
        {
            let c = Rc::clone(&client);
            sim.spawn(async move {
                let items: Vec<(Vec<u8>, Bytes, Option<u64>)> = (0..4u64)
                    .map(|i| {
                        (
                            format!("/q/{i}:0").into_bytes(),
                            Bytes::from(vec![7u8; 2048]),
                            Some(i),
                        )
                    })
                    .collect();
                c.set_pipeline(items).await;
            });
        }
        {
            let b = Rc::clone(&bank);
            sim.spawn(async move {
                h.sleep(SimDuration::micros(30)).await;
                b.kill(0);
            });
        }
        sim.run();
        let s = client.stats();
        assert_eq!(s.sets, 4);
        assert_eq!(
            s.failures, 4,
            "a dead sync leaves every streamed store un-acknowledged"
        );
        assert_eq!(bank.failovers(), 1);
    }

    /// Tight policy for fault tests: one retry, sub-millisecond deadline.
    fn tight_policy() -> RetryPolicy {
        RetryPolicy {
            deadline: SimDuration::micros(200),
            retries: 1,
            backoff_base: SimDuration::micros(10),
            backoff_cap: SimDuration::micros(40),
            circuit_cooldown: SimDuration::millis(1),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn partitioned_daemon_times_out_then_the_circuit_sheds() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            1,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client =
            Rc::new(bank.client_with(net.add_node(), Selector::Crc32, None, tight_policy()));
        let c2 = Rc::clone(&client);
        let net2 = net.clone();
        let mcd_node = bank.nodes()[0].node;
        let h = sim.handle();
        sim.spawn(async move {
            c2.set(b"/k:stat", Bytes::from_static(b"v"), None).await;
            assert!(c2.get(b"/k:stat", None).await.is_some());
            net2.isolate("mcd-cut", [mcd_node]);
            // Both attempts run out their deadline; the read degrades to a
            // local miss and the circuit opens.
            assert!(c2.get(b"/k:stat", None).await.is_none());
            let timeouts_after_first = c2.stats().failures;
            assert_eq!(timeouts_after_first, 1);
            // Inside the cooldown: shed locally, no further wire attempts.
            assert!(c2.get(b"/k:stat", None).await.is_none());
            // Heal and let the circuit expire: the daemon answers again,
            // and since no *write* failed it was never quarantined — the
            // value survived the partition.
            net2.heal("mcd-cut");
            h.sleep(SimDuration::millis(2)).await;
            assert_eq!(
                c2.get(b"/k:stat", None).await,
                Some(Bytes::from_static(b"v"))
            );
        });
        sim.run();
        let s = client.stats();
        // get #2 timed out (1 attempt + 1 retry), get #3 was shed.
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.rpc_timeouts"), Some(2));
        assert_eq!(snap.counter("bank.retries"), Some(1));
        assert_eq!(snap.counter("bank.degraded_misses"), Some(2));
        assert_eq!((s.gets, s.hits, s.misses, s.failures), (4, 2, 2, 1));
        // The latency histogram still covers every get — timeouts and
        // circuit sheds included.
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, s.gets);
        assert!(!bank.nodes()[0].is_quarantined());
    }

    #[test]
    fn failed_purge_quarantines_until_revival() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            1,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client =
            Rc::new(bank.client_with(net.add_node(), Selector::Crc32, None, tight_policy()));
        let c2 = Rc::clone(&client);
        let net2 = net.clone();
        let b2 = Rc::clone(&bank);
        let mcd_node = bank.nodes()[0].node;
        let h = sim.handle();
        sim.spawn(async move {
            c2.set(b"/f:0", Bytes::from_static(b"stale"), Some(0)).await;
            net2.isolate("mcd-cut", [mcd_node]);
            // The purge never reaches the daemon: every retransmit of the
            // noreply delete fails and the pipeline gives up.
            c2.delete_pipeline(vec![(b"/f:0".to_vec(), Some(0))]).await;
            assert_eq!(c2.stats().failures, 1);
            assert!(b2.nodes()[0].is_quarantined());
            net2.heal("mcd-cut");
            h.sleep(SimDuration::millis(2)).await;
            // Healed, circuit expired — but the daemon still holds the
            // value the failed purge should have removed. Quarantine makes
            // this a miss, never a stale resurrection.
            assert!(c2.get(b"/f:0", Some(0)).await.is_none());
            // Revival restarts the daemon empty and lifts the quarantine.
            b2.revive(0);
            assert!(c2.get(b"/f:0", Some(0)).await.is_none());
            c2.set(b"/f:0", Bytes::from_static(b"fresh"), Some(0)).await;
            assert_eq!(
                c2.get(b"/f:0", Some(0)).await,
                Some(Bytes::from_static(b"fresh"))
            );
        });
        sim.run();
        assert!(!bank.nodes()[0].is_quarantined());
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert!(snap.counter("bank.degraded_misses").unwrap() >= 1);
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 3);
    }

    #[test]
    fn quarantine_is_shared_across_clients() {
        // Client A's failed write must shield client B from the stale
        // daemon: the flag lives on the node, not in the client.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            1,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let a = Rc::new(bank.client_with(net.add_node(), Selector::Crc32, None, tight_policy()));
        let b = Rc::new(bank.client_with(net.add_node(), Selector::Crc32, None, tight_policy()));
        let net2 = net.clone();
        let mcd_node = bank.nodes()[0].node;
        let h = sim.handle();
        sim.spawn(async move {
            a.set(b"/s:0", Bytes::from_static(b"old"), Some(0)).await;
            net2.isolate("cut", [mcd_node]);
            a.delete_pipeline(vec![(b"/s:0".to_vec(), Some(0))]).await;
            net2.heal("cut");
            h.sleep(SimDuration::millis(2)).await;
            // B never saw a failure, but the daemon is poisoned for it too.
            assert!(b.get(b"/s:0", Some(0)).await.is_none());
            let bs = b.stats();
            assert_eq!((bs.gets, bs.misses), (1, 1));
        });
        sim.run();
        assert!(bank.nodes()[0].is_quarantined());
    }

    #[test]
    fn duplicated_rpcs_are_idempotent_on_the_bank_path() {
        // 100% duplication: every request and response is delivered twice.
        // Sets double-apply (same value — idempotent), gets answer twice
        // (second copy discarded); results and counters stay exact.
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        net.install_faults(imca_fabric::FaultPlan {
            duplicate: 1.0,
            ..imca_fabric::FaultPlan::seeded(4)
        });
        let bank = Rc::new(Bank::start(
            &net,
            2,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client = Rc::new(bank.client(net.add_node(), Selector::Modulo, None));
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            for blk in 0..4u64 {
                let key = format!("/d:{}", blk * 2048);
                c2.set(key.as_bytes(), Bytes::from(vec![blk as u8; 32]), Some(blk))
                    .await;
            }
            let keys: Vec<(Vec<u8>, Option<u64>)> = (0..4u64)
                .map(|blk| (format!("/d:{}", blk * 2048).into_bytes(), Some(blk)))
                .collect();
            let got = c2.get_multi(&keys).await;
            for (blk, v) in got.iter().enumerate() {
                assert_eq!(v.as_deref(), Some(&vec![blk as u8; 32][..]), "block {blk}");
            }
        });
        sim.run();
        let s = client.stats();
        assert_eq!((s.gets, s.hits, s.misses, s.failures), (4, 4, 0, 0));
        assert!(net.registry().snapshot().counter("duplicated").unwrap() > 0);
        // Exactly one logical value per key despite the echoes.
        assert_eq!(bank.stats().curr_items, 4);
    }

    #[test]
    fn concurrent_ops_queue_on_the_single_event_loop() {
        // The daemon models memcached's single event loop: two
        // simultaneous commands must be serviced one after the other, so
        // the makespan is at least twice the per-op service time (a
        // parallel server would overlap them and finish in ~one).
        fn makespan(nops: usize) -> u64 {
            let mut sim = Sim::new(0);
            let net = Network::new(sim.handle(), Transport::ipoib_ddr());
            let costs = McdCosts {
                per_op: SimDuration::micros(500),
                memcpy_bps: 1e12,
                ..McdCosts::default()
            };
            let bank = Rc::new(Bank::start(&net, 1, &McConfig::default(), &costs));
            for _ in 0..nops {
                // Each op from its own node, so the NICs don't serialise
                // the requests before they reach the daemon.
                let client = bank.client(net.add_node(), Selector::Crc32, None);
                sim.spawn(async move {
                    client.get(b"/k:stat", None).await;
                });
            }
            sim.run().end_time.as_nanos()
        }
        let one = makespan(1);
        let two = makespan(2);
        assert!(
            two >= 2 * SimDuration::micros(500).as_nanos(),
            "two concurrent ops did not queue on the CPU: one={one} two={two}"
        );
        assert!(two > one, "one={one} two={two}");
    }

    /// A client with replication `r` over an `n`-daemon modulo bank, so
    /// hints pin replica sets: hint 0 → daemons {0, 1, … r−1}.
    fn replicated_setup(sim: &Sim, n: usize, r: usize) -> (Network, Rc<Bank>, Rc<BankClient>) {
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            n,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client = Rc::new(bank.client_replicated(
            net.add_node(),
            Selector::Modulo,
            None,
            RetryPolicy::default(),
            Replication { factor: r },
        ));
        (net, bank, client)
    }

    /// How many daemons currently hold `key` (direct engine probe).
    fn holders(bank: &Bank, key: &[u8]) -> usize {
        bank.nodes()
            .iter()
            .filter(|n| n.server().store().get(key, 0).is_some())
            .count()
    }

    #[test]
    fn replicated_writes_land_on_every_replica_and_purge_all() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 4, 2);
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            // Single-key writes fan out…
            c2.set(b"/a:0", Bytes::from_static(b"v"), Some(0)).await;
            // …and so do pipelined ones.
            c2.set_pipeline(vec![
                (b"/b:0".to_vec(), Bytes::from_static(b"w").clone(), Some(1)),
                (b"/c:0".to_vec(), Bytes::from_static(b"x").clone(), Some(2)),
            ])
            .await;
            // Purges must reach every replica: single delete and pipeline.
            c2.delete(b"/a:0", Some(0)).await;
            c2.delete_pipeline(vec![(b"/b:0".to_vec(), Some(1))]).await;
        });
        sim.run();
        // The surviving key lives on exactly R = 2 daemons…
        assert_eq!(holders(&bank, b"/c:0"), 2);
        // …and modulo placement pins which two.
        assert!(bank.nodes()[2].server().store().get(b"/c:0", 0).is_some());
        assert!(bank.nodes()[3].server().store().get(b"/c:0", 0).is_some());
        // Both purged keys are gone from the whole bank.
        assert_eq!(holders(&bank, b"/a:0"), 0);
        assert_eq!(holders(&bank, b"/b:0"), 0);
    }

    #[test]
    fn killed_primary_fails_over_warm_with_replication() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 2, 2);
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        sim.spawn(async move {
            c2.set(b"/k:0", Bytes::from_static(b"v"), Some(0)).await;
            b2.kill(0);
            // Dead primary, live replica: the read is a warm hit, not the
            // degraded miss the single-home bank takes here.
            assert_eq!(
                c2.get(b"/k:0", Some(0)).await,
                Some(Bytes::from_static(b"v"))
            );
            // And the batched path re-routes the group the same way
            // (dead-replica handling in get_multi).
            let got = c2.get_multi(&[(b"/k:0".to_vec(), Some(0))]).await;
            assert_eq!(got[0], Some(Bytes::from_static(b"v")));
        });
        sim.run();
        let s = client.stats();
        assert_eq!((s.gets, s.hits, s.misses, s.failures), (2, 2, 0, 0));
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert!(snap.counter("bank.replica_failovers").unwrap() >= 2);
        assert_eq!(snap.counter("bank.degraded_misses"), Some(0));
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, s.gets);
    }

    #[test]
    fn replica_dying_mid_flight_fails_over_to_the_survivor() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = replicated_setup(&sim, 2, 2);
        let h = net.handle();
        {
            let c = Rc::clone(&client);
            sim.spawn(async move {
                c.set(b"/k:0", Bytes::from_static(b"v"), Some(0)).await;
                // In flight when a daemon dies: the client excludes the
                // dropped replica and retries the other — still a hit.
                assert_eq!(
                    c.get(b"/k:0", Some(0)).await,
                    Some(Bytes::from_static(b"v"))
                );
            });
        }
        {
            let b = Rc::clone(&bank);
            sim.spawn(async move {
                h.sleep(SimDuration::micros(80)).await;
                b.kill(0);
            });
        }
        sim.run();
        let s = client.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        // Whichever replica the P2C router tried first, the get resolved
        // warm; if the dead one was hit mid-flight a failure is recorded.
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.degraded_misses"), Some(0));
    }

    #[test]
    fn p2c_spreads_a_hot_key_across_its_replicas() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 2, 2);
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            c2.set(b"/hot:0", Bytes::from_static(b"v"), Some(0)).await;
            for _ in 0..64 {
                assert!(c2.get(b"/hot:0", Some(0)).await.is_some());
            }
        });
        sim.run();
        // Sequential gets always tie on in-flight load (0 vs 0), so the
        // deterministic coin decides: both replicas must see real traffic
        // instead of daemon 0 eating all 64.
        let g0 = bank.nodes()[0].stats().cmd_get;
        let g1 = bank.nodes()[1].stats().cmd_get;
        assert_eq!(g0 + g1, 64);
        assert!(g0 >= 16 && g1 >= 16, "skewed spread: {g0}/{g1}");
    }

    #[test]
    fn single_flight_coalesces_concurrent_gets_for_one_key() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 1, 1);
        {
            let c = Rc::clone(&client);
            sim.spawn(async move {
                c.set(b"/sf:0", Bytes::from_static(b"v"), Some(0)).await;
                // Three concurrent gets from the same client: one leads,
                // two coalesce onto its RPC.
                let h = c.handle.clone();
                let futs: Vec<_> = (0..3)
                    .map(|_| {
                        let c = Rc::clone(&c);
                        async move { c.get(b"/sf:0", Some(0)).await }
                    })
                    .collect();
                let got = join_all(&h, futs).await;
                for v in got {
                    assert_eq!(v, Some(Bytes::from_static(b"v")));
                }
            });
        }
        sim.run();
        let s = client.stats();
        // Every caller is accounted a get and a hit…
        assert_eq!((s.gets, s.hits, s.misses), (3, 3, 0));
        // …but the daemon saw exactly one GET command.
        assert_eq!(bank.nodes()[0].stats().cmd_get, 1);
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.coalesced_gets"), Some(2));
        // Histogram still covers all three (followers included).
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 3);
    }

    #[test]
    fn per_daemon_get_counters_expose_load_imbalance() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 2, 1);
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            c2.set(b"/hot:0", Bytes::from_static(b"v"), Some(0)).await;
            // Single-home: all 10 GETs hammer daemon 0.
            for _ in 0..10 {
                c2.get(b"/hot:0", Some(0)).await;
            }
        });
        sim.run();
        let snap = imca_metrics::collect_from(&*bank, "bank");
        assert_eq!(snap.counter("bank.per_daemon.0.gets"), Some(10));
        assert_eq!(snap.counter("bank.per_daemon.1.gets"), Some(0));
        assert_eq!(snap.counter("bank.per_daemon.max_gets"), Some(10));
        assert_eq!(snap.gauge("bank.per_daemon.mean_gets"), Some(5));
    }

    #[test]
    fn gets_cas_roundtrip_conflict_and_missing() {
        let mut sim = Sim::new(0);
        let (_net, _bank, client) = setup(&sim, 1);
        let client = Rc::new(client);
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            c2.set(b"/k:0", Bytes::from_static(b"old"), Some(0)).await;
            let (v, tok) = c2.gets(b"/k:0", Some(0)).await.expect("warm key");
            assert_eq!(v, Bytes::from_static(b"old"));
            // Token still current → replaced in place.
            assert_eq!(
                c2.cas(b"/k:0", Bytes::from_static(b"new"), tok).await,
                CasVerdict::Stored
            );
            assert_eq!(c2.get(b"/k:0", Some(0)).await.unwrap(), &b"new"[..]);
            // The successful cas bumped the version: the same token is
            // now stale and must conflict, leaving the value untouched.
            assert_eq!(
                c2.cas(b"/k:0", Bytes::from_static(b"zzz"), tok).await,
                CasVerdict::Conflict
            );
            assert_eq!(c2.get(b"/k:0", Some(0)).await.unwrap(), &b"new"[..]);
            // An interleaved plain set also invalidates an issued token.
            let (_, tok2) = c2.gets(b"/k:0", Some(0)).await.unwrap();
            c2.set(b"/k:0", Bytes::from_static(b"set"), Some(0)).await;
            assert_eq!(
                c2.cas(b"/k:0", Bytes::from_static(b"zzz"), tok2).await,
                CasVerdict::Conflict
            );
            // A vanished key is Missing, not Conflict.
            let (_, tok3) = c2.gets(b"/k:0", Some(0)).await.unwrap();
            c2.delete(b"/k:0", Some(0)).await;
            assert_eq!(
                c2.cas(b"/k:0", Bytes::from_static(b"zzz"), tok3).await,
                CasVerdict::Missing
            );
            // gets on an absent key is a plain miss.
            assert!(c2.gets(b"/k:0", Some(0)).await.is_none());
        });
        sim.run();
        let s = client.stats();
        // Every gets counts as a get; every cas counts as a set.
        assert_eq!(s.gets, 6);
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.cas_ops"), Some(4));
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, s.gets);
    }

    #[test]
    fn append_and_touch_basics() {
        let mut sim = Sim::new(0);
        let (_net, _bank, client) = setup(&sim, 2);
        let client = Rc::new(client);
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            // Append to an absent key must fail (memcached semantics),
            // and plant nothing.
            assert!(!c2.append(b"/a:0", Bytes::from_static(b"x"), Some(0)).await);
            assert!(c2.get(b"/a:0", Some(0)).await.is_none());
            c2.set(b"/a:0", Bytes::from_static(b"head"), Some(0)).await;
            assert!(
                c2.append(b"/a:0", Bytes::from_static(b"+tail"), Some(0))
                    .await
            );
            assert_eq!(c2.get(b"/a:0", Some(0)).await.unwrap(), &b"head+tail"[..]);
            // Appending bumps the version like any store: an earlier
            // token must no longer match.
            let (_, tok) = c2.gets(b"/a:0", Some(0)).await.unwrap();
            assert!(c2.append(b"/a:0", Bytes::from_static(b"!"), Some(0)).await);
            assert_eq!(
                c2.cas(b"/a:0", Bytes::from_static(b"z"), tok).await,
                CasVerdict::Conflict
            );
            // Touch refreshes an existing key (and reports a missing one).
            assert!(c2.touch(b"/a:0", 60, Some(0)).await);
            assert!(!c2.touch(b"/gone:0", 60, Some(0)).await);
            assert!(c2.get(b"/a:0", Some(0)).await.is_some());
        });
        sim.run();
    }

    #[test]
    fn cas_pipeline_batches_with_one_sync_per_daemon() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            2,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let client = Rc::new(bank.client(net.add_node(), Selector::Modulo, None));
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            for blk in 0..8u64 {
                let key = format!("/c:{}", blk * 2048);
                c2.set(key.as_bytes(), Bytes::from(vec![0u8; 64]), Some(blk))
                    .await;
            }
            let keys: Vec<(Vec<u8>, Option<u64>)> = (0..8u64)
                .map(|blk| (format!("/c:{}", blk * 2048).into_bytes(), Some(blk)))
                .collect();
            let fetched = c2.gets_multi(&keys).await;
            let mut items: Vec<(Vec<u8>, Bytes, CasToken)> = Vec::new();
            for (blk, cell) in fetched.into_iter().enumerate() {
                let (_, tok) = cell.expect("warm key");
                items.push((
                    format!("/c:{}", blk as u64 * 2048).into_bytes(),
                    Bytes::from(vec![9u8; 64]),
                    tok,
                ));
            }
            // Poison one item with a stale token: re-set its key first.
            c2.set(b"/c:0", Bytes::from(vec![5u8; 64]), Some(0)).await;
            let verdicts = c2.cas_pipeline(&items).await;
            assert_eq!(verdicts[0], CasVerdict::Conflict, "stale token item");
            for (i, v) in verdicts.iter().enumerate().skip(1) {
                assert_eq!(*v, CasVerdict::Stored, "item {i}");
            }
            // The conflicted key kept the interleaved value; the others
            // carry the replacements.
            assert_eq!(c2.get(b"/c:0", Some(0)).await.unwrap(), &vec![5u8; 64][..]);
            assert_eq!(
                c2.get(b"/c:2048", Some(1)).await.unwrap(),
                &vec![9u8; 64][..]
            );
        });
        sim.run();
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.pipelined_cas"), Some(8));
        assert_eq!(snap.counter("bank.cas_ops"), Some(8));
    }

    #[test]
    fn gets_failover_tags_tokens_with_the_answering_daemon() {
        // Regression (token spaces are per daemon): a dead-primary
        // re-route must hand back a token minted by the *answering*
        // daemon, never one comparable against the original target. Skew
        // daemon 1's token counter first so a cross-space mixup cannot
        // pass by coincidence.
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 3, 2);
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        sim.spawn(async move {
            // Advance daemon 1's version counter (hint 1 → daemons {1,2}).
            for i in 0..5u64 {
                let key = format!("/skew/{i}:2048");
                c2.set(key.as_bytes(), Bytes::from_static(b"x"), Some(1))
                    .await;
            }
            // The key under test lives on daemons {0, 1}.
            c2.set(b"/k:0", Bytes::from_static(b"v"), Some(0)).await;
            b2.kill(0);
            // Single-key gets: answered by the surviving replica, token
            // tagged accordingly.
            let (v, tok) = c2.gets(b"/k:0", Some(0)).await.expect("warm failover");
            assert_eq!(v, Bytes::from_static(b"v"));
            assert_eq!(tok.daemon, 1, "token not tagged with the answerer");
            // The batched path re-routes the same way.
            let got = c2.gets_multi(&[(b"/k:0".to_vec(), Some(0))]).await;
            let (_, tok2) = got[0].clone().expect("warm failover via multi");
            assert_eq!(tok2.daemon, 1);
            // And the token is actually usable where it claims to be from.
            assert_eq!(
                c2.cas(b"/k:0", Bytes::from_static(b"w"), tok2).await,
                CasVerdict::Stored
            );
            assert_eq!(
                c2.get(b"/k:0", Some(0)).await,
                Some(Bytes::from_static(b"w"))
            );
        });
        sim.run();
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert!(snap.counter("bank.replica_failovers").unwrap() >= 2);
    }

    #[test]
    fn gets_replica_dying_mid_flight_fails_over_with_a_valid_token() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = replicated_setup(&sim, 2, 2);
        let h = net.handle();
        let (armed_tx, armed_rx) = imca_sim::sync::oneshot::<()>();
        {
            let c = Rc::clone(&client);
            sim.spawn(async move {
                c.set(b"/k:0", Bytes::from_static(b"v"), Some(0)).await;
                // Daemon 0 dies while the gets is on the wire: the retry
                // round must pair the surviving daemon's token with the
                // key, and the token must work.
                armed_tx.send(());
                let (v, tok) = c.gets(b"/k:0", Some(0)).await.expect("warm failover");
                assert_eq!(v, Bytes::from_static(b"v"));
                assert_eq!(tok.daemon, 1, "only daemon 1 survived");
                assert_eq!(
                    c.cas(b"/k:0", Bytes::from_static(b"w"), tok).await,
                    CasVerdict::Stored
                );
            });
        }
        {
            let b = Rc::clone(&bank);
            sim.spawn(async move {
                armed_rx.await.unwrap();
                // The request is in flight; kill before it can be served.
                h.sleep(SimDuration::nanos(1)).await;
                b.kill(0);
            });
        }
        sim.run();
        assert_eq!(client.stats().misses, 0);
    }

    #[test]
    fn gets_for_update_collects_tokens_per_replica_and_cas_updates_all() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 4, 2);
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            c2.set(b"/f:0", Bytes::from_static(b"aa"), Some(0)).await;
            let rows = c2.gets_for_update(&[(b"/f:0".to_vec(), Some(0))]).await;
            assert_eq!(rows.len(), 1);
            // Hint 0 → replica set {0, 1}; both hold a copy, each with a
            // token from its own space.
            let daemons: Vec<usize> = rows[0].iter().map(|(d, _)| *d).collect();
            assert_eq!(daemons, vec![0, 1]);
            let mut items: Vec<(Vec<u8>, Bytes, CasToken)> = Vec::new();
            for (daemon, cell) in &rows[0] {
                let (old, tok) = cell.clone().expect("replica holds the key");
                assert_eq!(old, Bytes::from_static(b"aa"));
                assert_eq!(tok.daemon, *daemon);
                items.push((b"/f:0".to_vec(), Bytes::from_static(b"bb"), tok));
            }
            let verdicts = c2.cas_pipeline(&items).await;
            assert!(verdicts.iter().all(|v| *v == CasVerdict::Stored));
        });
        sim.run();
        // Both replica engines hold the replacement.
        for i in 0..2 {
            assert_eq!(
                bank.nodes()[i]
                    .server()
                    .store()
                    .get(b"/f:0", 0)
                    .map(|v| v.value.clone()),
                Some(Bytes::from_static(b"bb")),
                "replica {i} not updated in place"
            );
        }
        assert_eq!(holders(&bank, b"/f:0"), 2);
    }

    #[test]
    fn full_queue_sheds_reads_but_admits_writes() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        // queue_limit 0: every read is shed at the door; writes always land.
        let costs = McdCosts {
            queue_limit: Some(0),
            ..McdCosts::default()
        };
        let bank = Rc::new(Bank::start(&net, 1, &McConfig::default(), &costs));
        let client = Rc::new(bank.client(net.add_node(), Selector::Crc32, None));
        let c2 = Rc::clone(&client);
        sim.spawn(async move {
            c2.set(b"/k:stat", Bytes::from_static(b"v"), None).await;
            assert!(
                c2.get(b"/k:stat", None).await.is_none(),
                "shed read must degrade to a local miss"
            );
        });
        sim.run();
        let s = client.stats();
        assert_eq!((s.sets, s.gets, s.hits, s.misses), (1, 1, 0, 1));
        // Not a timeout, not a failure: an explicit busy reply.
        assert_eq!(s.failures, 0);
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.busy_sheds"), Some(1));
        assert_eq!(snap.counter("bank.degraded_misses"), Some(1));
        assert_eq!(snap.counter("bank.rpc_timeouts"), Some(0));
        let snap = imca_metrics::collect_from(&*bank, "bank");
        assert_eq!(snap.counter("bank.mcd.0.sheds"), Some(1));
        assert_eq!(snap.counter("bank.per_daemon.0.sheds"), Some(1));
        // The value survived — admission control never sheds writes.
        assert!(bank.nodes()[0]
            .server()
            .store()
            .get(b"/k:stat", 0)
            .is_some());
        assert_eq!(client.busy_shed_count(), 1);
    }

    #[test]
    fn queue_limit_bounds_depth_under_concurrency() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        // Slow daemon + four simultaneous readers from distinct nodes:
        // one occupies the queue slot, the rest bounce off it.
        let costs = McdCosts {
            per_op: SimDuration::micros(500),
            queue_limit: Some(1),
            ..McdCosts::default()
        };
        let bank = Rc::new(Bank::start(&net, 1, &McConfig::default(), &costs));
        for _ in 0..4 {
            let client = bank.client(net.add_node(), Selector::Crc32, None);
            sim.spawn(async move {
                client.get(b"/k:stat", None).await;
            });
        }
        sim.run();
        let snap = imca_metrics::collect_from(&*bank, "bank");
        let sheds = snap.counter("bank.mcd.0.sheds").unwrap();
        assert!((1..=3).contains(&sheds), "sheds={sheds}");
        assert_eq!(snap.gauge("bank.mcd.0.queue_peak"), Some(1));
        assert_eq!(snap.gauge("bank.mcd.0.queue_depth"), Some(0), "drained");
    }

    #[test]
    fn adaptive_deadline_abandons_a_stalled_daemon_fast() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            1,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let policy = RetryPolicy {
            retries: 0,
            adaptive: Some(AdaptiveDeadline {
                warmup: 4,
                ..AdaptiveDeadline::default()
            }),
            ..RetryPolicy::default()
        };
        let client = Rc::new(bank.client_with(net.add_node(), Selector::Crc32, None, policy));
        let c2 = Rc::clone(&client);
        let net2 = net.clone();
        let mcd_node = bank.nodes()[0].node;
        let h = sim.handle();
        let elapsed = Rc::new(Cell::new(0u64));
        let e2 = Rc::clone(&elapsed);
        sim.spawn(async move {
            c2.set(b"/k:stat", Bytes::from_static(b"v"), None).await;
            // Warm the estimator past its threshold on healthy RPCs.
            for _ in 0..8 {
                assert!(c2.get(b"/k:stat", None).await.is_some());
            }
            net2.isolate("stall", [mcd_node]);
            let t0 = h.now();
            assert!(c2.get(b"/k:stat", None).await.is_none());
            e2.set(h.now().since(t0).as_nanos());
        });
        sim.run();
        // The tracked deadline is 3 × a tens-of-µs tail, clamped to the
        // 200µs floor — nowhere near the 50ms static deadline.
        let waited = elapsed.get();
        assert!(waited >= SimDuration::micros(200).as_nanos(), "{waited}ns");
        assert!(
            waited < SimDuration::millis(5).as_nanos(),
            "static deadline still in force: waited {waited}ns"
        );
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.rpc_timeouts"), Some(1));
        assert_eq!(snap.counter("bank.degraded_misses"), Some(1));
    }

    #[test]
    fn retry_budget_exhaustion_and_circuit_opens_count_separately() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            1,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        // One retry token, never refilled: the first timed-out GET spends
        // it, everything after fails fast on a dry bucket.
        let policy = RetryPolicy {
            deadline: SimDuration::micros(200),
            retries: 2,
            backoff_base: SimDuration::micros(10),
            backoff_cap: SimDuration::micros(20),
            circuit_cooldown: SimDuration::micros(300),
            retry_budget: Some(RetryBudget {
                refill_per_sec: 0.0,
                burst: 1.0,
            }),
            ..RetryPolicy::default()
        };
        let client = Rc::new(bank.client_with(net.add_node(), Selector::Crc32, None, policy));
        let c2 = Rc::clone(&client);
        let net2 = net.clone();
        let mcd_node = bank.nodes()[0].node;
        let h = sim.handle();
        sim.spawn(async move {
            net2.isolate("cut", [mcd_node]);
            // Attempt times out; the lone token pays for retry #1; retry
            // #2 finds the bucket dry and the op fails fast.
            assert!(c2.get(b"/k:stat", None).await.is_none());
            h.sleep(SimDuration::micros(500)).await; // circuit expires
                                                     // No tokens left at all: one attempt, then fail fast.
            assert!(c2.get(b"/k:stat", None).await.is_none());
        });
        sim.run();
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.retries"), Some(1));
        assert_eq!(snap.counter("bank.rpc_timeouts"), Some(3));
        // The two causes stay distinguishable in the snapshot.
        assert_eq!(snap.counter("bank.retry_budget_exhausted"), Some(2));
        assert_eq!(snap.counter("bank.circuit_opens"), Some(2));
    }

    #[test]
    fn hedged_read_beats_a_partitioned_primary() {
        let mut sim = Sim::new(0);
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let bank = Rc::new(Bank::start(
            &net,
            2,
            &McConfig::default(),
            &McdCosts::default(),
        ));
        let policy = RetryPolicy {
            hedge: Some(HedgePolicy {
                max_delay: SimDuration::micros(500),
                ..HedgePolicy::default()
            }),
            ..RetryPolicy::default()
        };
        let client = Rc::new(bank.client_replicated(
            net.add_node(),
            Selector::Modulo,
            None,
            policy,
            Replication { factor: 2 },
        ));
        let c2 = Rc::clone(&client);
        let net2 = net.clone();
        let mcd0 = bank.nodes()[0].node;
        sim.spawn(async move {
            for i in 0..8u64 {
                let key = format!("/h/{i}:0");
                c2.set(key.as_bytes(), Bytes::from(vec![i as u8; 32]), Some(0))
                    .await;
            }
            // Partition daemon 0: still alive to the router, so P2C keeps
            // routing reads at it and they stall — the case hedging
            // exists for. Every read must still resolve warm, via the
            // hedge to the healthy replica.
            net2.isolate("slow", [mcd0]);
            for i in 0..8u64 {
                let key = format!("/h/{i}:0");
                assert_eq!(
                    c2.get(key.as_bytes(), Some(0)).await.as_deref(),
                    Some(&vec![i as u8; 32][..]),
                    "key {i}"
                );
            }
        });
        sim.run();
        let s = client.stats();
        assert_eq!(
            (s.gets, s.hits, s.misses),
            (8, 8, 0),
            "a stalled-but-alive primary must not cost a single miss"
        );
        let snap = imca_metrics::collect_from(&*client, "bank");
        let hedged = snap.counter("bank.hedged_gets").unwrap();
        let wins = snap.counter("bank.hedge_wins").unwrap();
        assert!(hedged >= 1, "no hedge ever fired");
        assert!(wins >= 1 && wins <= hedged, "wins={wins} hedged={hedged}");
    }
}

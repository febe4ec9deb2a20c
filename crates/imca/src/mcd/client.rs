//! The client side of the bank: [`BankClient`], the bank of MCDs as
//! seen from one node.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use bytes::Bytes;
use imca_fabric::{Daemon, Network, NodeId};
use imca_memcached::protocol::{Command, Response, StoreVerb, Value};
use imca_memcached::ServerMap;
use imca_metrics::{Counter, Histogram, MetricSource, Registry, Snapshot};
use imca_sim::{join_all, SimTime};

use super::daemon::{McdNode, McdReq, McdResp};
use super::policy::{
    cas_verdict, get_req, store_cmd, stored_token, Answer, CallOutcome, CasToken, CasVerdict, Kept,
    ReplicaRows, RetryPolicy, Wire,
};
use crate::cluster::ImcaConfig;
use crate::keys::block_offset;

/// Liveness, quarantine and circuit-breaker verdict for one daemon.
enum Route {
    /// Usable: ops may be sent to it.
    Live,
    /// Dead (killed): no wire traffic, no retry. A dead daemon restarts
    /// empty, so skipping it can never resurface stale data.
    Dead,
    /// Nominally alive but shed — quarantined by a failed write, or
    /// inside an open circuit window after repeated timeouts. Skipped
    /// like a dead daemon, but counted as degraded.
    Shed,
}

/// Gives back a read's share of a client's per-daemon in-flight count
/// when the read RPC ends, however it ends.
struct DecrOnDrop(Rc<Cell<u64>>);

impl DecrOnDrop {
    /// Count one more occupant of `cell` until the guard drops.
    fn enter(cell: &Rc<Cell<u64>>) -> DecrOnDrop {
        cell.set(cell.get() + 1);
        DecrOnDrop(Rc::clone(cell))
    }
}

impl Drop for DecrOnDrop {
    fn drop(&mut self) {
        self.0.set(self.0.get().saturating_sub(1));
    }
}

/// One key's progress through [`BankClient::read`].
struct ReadKey {
    /// Position in the caller's key list.
    pos: usize,
    /// The key's replica set in placement order, liveness ignored.
    replicas: Vec<usize>,
    /// Replicas that already failed this read in flight; never retried.
    tried: Vec<usize>,
    /// A replica refused this read (`busy`) or timed out under it: if it
    /// ends as a local miss, that miss is a degraded one.
    degraded: bool,
    /// The daemon this round routed the key to.
    route: usize,
    /// The current route is a *failover*: the first-placed replica was
    /// unavailable. A healthy set routed to a secondary purely for load
    /// spreading is not one.
    failover: bool,
    /// A daemon answered for this key (hit or authoritative miss).
    answered: bool,
}

/// The bank of MCDs as seen from one node (CMCache or SMCache side).
///
/// Every value has exactly one home per replica slot: a key maps to its
/// [`ServerMap::replicas`] set and nowhere else. A dead daemon is a miss,
/// *not* a rehash to the next one — rehash (libmemcache's default) can
/// serve stale data once daemons come and go: an entry written to a
/// stand-in during an outage, or an old copy read after a second
/// failover, resurfaces. Keyed to fixed homes, correctness never depends
/// on bank membership history. Liveness is read straight off the daemons'
/// [`Daemon`] handles (libmemcache notices connect failures
/// immediately); on top of it a reachable daemon may be *shed* —
/// quarantined by a failed write (sticky, until revival) or inside this
/// client's open circuit window (transient).
///
/// The client does each of its three jobs one way, at every replication
/// factor:
///
/// * **Reads** ([`get`](BankClient::get), [`get_multi`](BankClient::get_multi))
///   run one loop (`BankClient::read`): route each key to one usable
///   replica, attempt, settle the reply, and either answer or route the
///   next round past the replica that failed — until a replica answers or
///   none is left and the read resolves as a local miss.
/// * **Writes** ([`set`](BankClient::set), [`delete`](BankClient::delete),
///   `BankClient::store_one`, `BankClient::cas`) go through one fan-out,
///   `BankClient::write_fanout`, to every usable replica; any write
///   that fails quarantines its daemon.
/// * **Bulk writes** (`BankClient::store_frames`,
///   `BankClient::delete_pipeline`, `BankClient::set_kept_pipeline`,
///   `BankClient::cas_pipeline`) send each daemon its whole share as one
///   frame and get one reply frame back: `noreply` commands with a
///   trailing `version` as the sync, or answering stores — `set`s that
///   ask for their tokens, `cas`es — whose answers are read back by
///   position (`BankClient::answered_frames`).
///
/// The data path's five bulk operations —
/// [`fetch_blocks`](BankClient::fetch_blocks),
/// [`store_blocks`](BankClient::store_blocks),
/// [`store_kept`](BankClient::store_kept),
/// [`remove_keys`](BankClient::remove_keys) and
/// [`cas_blocks`](BankClient::cas_blocks) — are the only place
/// [`ImcaConfig::batching`] is consulted: each travels batched (multi-key
/// `get`, one frame per daemon) or as one spawned task per key, and the
/// translators never know which (DESIGN.md §4c).
pub struct BankClient {
    wire: Wire,
    /// The fabric the links travel on ([`BankClient::may_reorder`]).
    net: Network,
    map: ServerMap,
    daemons: Vec<Daemon>,
    quarantined: Vec<Rc<Cell<bool>>>,
    /// Per-daemon fail-fast circuit: ops shed (local miss) until the
    /// stored instant. Per *client*, unlike the shared quarantine flags.
    circuit_open_until: RefCell<Vec<SimTime>>,
    /// [`ImcaConfig::block_size`]: modulo placement routes a block key
    /// by its offset over this.
    block_size: u64,
    /// [`ImcaConfig::batching`]: how the five bulk operations are framed.
    batched: bool,
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
    /// `noreply` stores sent in frames.
    pipelined_sets: Counter,
    /// `noreply` deletes sent in frames.
    pipelined_deletes: Counter,
    /// Compare-and-swap stores issued (single and framed).
    cas_ops: Counter,
    /// CAS stores that travelled in [`BankClient::cas_pipeline`]'s frames.
    pipelined_cas: Counter,
    /// Ops answered locally (miss / dropped write) because the daemon was
    /// quarantined, circuit-open or shedding load.
    degraded_misses: Counter,
    /// Replica placement factor, clamped to the bank size (1 = the
    /// paper's single-home bank).
    replication: usize,
    /// Outstanding read RPCs per daemon *from this client* — the load
    /// signal power-of-two-choices read routing balances on. `Rc` because
    /// the [`DecrOnDrop`] guard owns a handle to the cell it decrements.
    in_flight: Vec<Rc<Cell<u64>>>,
    /// Client-local xorshift64 state for P2C sampling and tie-breaking,
    /// seeded from the client's node id so different clients spread a hot
    /// block across its replicas. Drawn only to choose between two live
    /// replicas, so a factor-1 client never advances it.
    route_rng: Cell<u64>,
    /// Reads completed on a fallback replica because an earlier-placed
    /// replica was dead, shed, or failed mid-flight (warm failover).
    replica_failovers: Counter,
    /// `SERVER_ERROR busy` replies — reads a daemon's admission control
    /// refused. Never retried on the same daemon: the read fails over to
    /// another replica or becomes a degraded local miss.
    busy_sheds: Counter,
    /// Circuits tripped by exhausted per-op retries — so timeout-driven
    /// degradation is distinguishable from shed-driven (`busy_sheds`).
    circuit_opens: Counter,
}

impl BankClient {
    /// Connect `from` to every daemon in `nodes` ([`Bank::client`]):
    /// `cfg.selector` routing (by `cfg.block_size` under modulo),
    /// `cfg.replication` the replica placement (see [`Replication`]),
    /// `cfg.batching` the framing of the bulk operations; `policy` sets
    /// deadlines and retries. The links travel on whatever transport the
    /// daemons' nodes were placed on.
    pub(super) fn connect(
        nodes: &[McdNode],
        from: NodeId,
        cfg: &ImcaConfig,
        policy: RetryPolicy,
    ) -> BankClient {
        assert!(!nodes.is_empty(), "bank needs at least one MCD");
        let clients: Vec<_> = nodes.iter().map(|n| n.service.client(from)).collect();
        let net = nodes[0].service.network().clone();
        let handle = net.handle();
        let registry = Registry::new();
        // Hedged reads are deleted (EXPERIMENTS.md A12); the benchmark
        // baseline still counts their two series.
        registry.counter("hedged_gets"); // constant 0, leaves with the next re-baseline
        registry.counter("hedge_wins"); // constant 0, leaves with the next re-baseline
        registry.counter("coalesced_gets"); // single-flight is deleted; constant 0 likewise
        BankClient {
            wire: Wire {
                handle,
                clients,
                policy,
                rpc_timeouts: registry.counter("rpc_timeouts"),
                retries: registry.counter("retries"),
                in_doubt: Rc::new(Cell::new(0)),
            },
            net,
            map: ServerMap::new(cfg.selector, nodes.len()),
            daemons: nodes.iter().map(|n| n.daemon.clone()).collect(),
            quarantined: nodes.iter().map(|n| Rc::clone(&n.quarantined)).collect(),
            circuit_open_until: RefCell::new(vec![SimTime::ZERO; nodes.len()]),
            block_size: cfg.block_size,
            batched: cfg.batching,
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
            degraded_misses: registry.counter("degraded_misses"),
            replication: cfg.replication.factor.clamp(1, nodes.len()),
            in_flight: (0..nodes.len()).map(|_| Rc::new(Cell::new(0))).collect(),
            // Golden-ratio constant XOR an odd per-node term: nonzero for
            // every node id, distinct per client.
            route_rng: Cell::new(0x9E37_79B9_7F4A_7C15 ^ ((u64::from(from.0) << 1) | 1)),
            replica_failovers: registry.counter("replica_failovers"),
            busy_sheds: registry.counter("busy_sheds"),
            circuit_opens: registry.counter("circuit_opens"),
            registry,
        }
    }

    /// Whether a store this client issued may land after one it issued
    /// later. On a fault-free fabric every daemon link is FIFO and a
    /// daemon's event loop runs commands in arrival order, so stores land
    /// in issue order. That ends while a fault plan is installed (jitter
    /// and latency spikes reorder a link), and while an attempt abandoned
    /// at its deadline may still land after what was issued behind it:
    /// from its timeout until its late answer or reset arrives.
    pub fn may_reorder(&self) -> bool {
        self.net.has_faults() || self.wire.in_doubt.get() > 0
    }

    /// A mark to take just before a store whose landing order matters;
    /// ask [`BankClient::reordered_since`] once it has returned.
    pub fn reorder_mark(&self) -> u64 {
        self.wire.rpc_timeouts.get()
    }

    /// Whether a store issued at `mark` may have landed out of issue
    /// order: [`BankClient::may_reorder`], or an attempt timed out since
    /// `mark`. A retry re-sends its store after whatever was issued
    /// meanwhile, so the store may land last even once the attempt it
    /// replaced has answered.
    pub fn reordered_since(&self, mark: u64) -> bool {
        self.may_reorder() || self.wire.rpc_timeouts.get() != mark
    }

    /// Liveness/quarantine/circuit verdict for daemon `idx`.
    fn probe(&self, idx: usize) -> Route {
        if !self.daemons[idx].is_up() {
            return Route::Dead;
        }
        if self.quarantined[idx].get() {
            return Route::Shed;
        }
        if self.wire.handle.now() < self.circuit_open_until.borrow()[idx] {
            return Route::Shed;
        }
        Route::Live
    }

    /// The key's full replica set in placement order, liveness ignored;
    /// its first entry is the selector's primary. Modulo placement
    /// routes a block key by its block index, read off the key.
    fn replicas(&self, key: &[u8]) -> Vec<usize> {
        let index = block_offset(key).map(|offset| offset / self.block_size);
        self.map.replicas(key, index, self.replication)
    }

    /// Next word of the client-local xorshift64 stream.
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

    /// Route one read round for `k`: `true` with `k.route` and
    /// `k.failover` set, or `false` when the read ends here. Its replica
    /// set is filtered down to live, unshed daemons minus those that
    /// already failed it in flight, and one survivor is picked by
    /// power-of-two-choices. With no survivor the read is a local miss,
    /// counted *degraded* iff a replica was shed just now or refused /
    /// timed out in flight — the bank had the capacity to answer and
    /// protected itself instead. A replica set that is simply dead (or
    /// reset under the read) is a plain miss.
    fn route_read_replica(&self, k: &mut ReadKey) -> bool {
        // Replica sets are a handful of entries, so the survivors are
        // counted and then walked to, not collected: this runs once per
        // key per round and allocates nothing.
        let untried = || k.replicas.iter().copied().filter(|c| !k.tried.contains(c));
        let (mut live, mut shed) = (0, false);
        for c in untried() {
            match self.probe(c) {
                Route::Live => live += 1,
                Route::Shed => shed = true,
                Route::Dead => {}
            }
        }
        if live == 0 {
            self.misses.inc();
            if shed || k.degraded {
                self.degraded_misses.inc();
            }
            return false;
        }
        let nth = |i: usize| {
            untried()
                .filter(|&c| matches!(self.probe(c), Route::Live))
                .nth(i)
                .expect("within the live count")
        };
        let first = nth(0);
        let route = match live {
            1 => first,
            2 => self.p2c(first, nth(1)),
            n => {
                // Sample two distinct survivors, then P2C between them.
                let i = (self.next_rand() % n as u64) as usize;
                let j = (i + 1 + (self.next_rand() % (n as u64 - 1)) as usize) % n;
                self.p2c(nth(i), nth(j))
            }
        };
        k.failover = first != k.replicas[0];
        k.route = route;
        true
    }

    /// Open daemon `idx`'s circuit: shed its traffic for the policy's
    /// cooldown, then probe again.
    fn trip_circuit(&self, idx: usize) {
        self.circuit_opens.inc();
        self.circuit_open_until.borrow_mut()[idx] =
            self.wire.handle.now() + self.wire.policy.circuit_cooldown;
    }

    /// Fetch one value: one pass of the read loop, its RPC awaited
    /// directly.
    pub async fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.gets.inc();
        let t0 = self.wire.handle.now();
        let mut out = [None];
        self.read(&[key.to_vec()], false, &mut out).await;
        // Client-observed completion latency for *every* get — dead-route
        // local misses and mid-flight failures included — so the histogram
        // count always equals the `gets` counter, with or without fault
        // injection.
        self.get_ns
            .record_duration(self.wire.handle.now().since(t0));
        let [r] = out;
        r
    }

    /// Fetch many values with at most one RPC per (live) daemon per
    /// round: keys are grouped by their routed replica and each group
    /// travels as a single multi-key `get` — the batching real
    /// libmemcache applies that a one-RPC-per-block client forgoes.
    /// Results come back in request order. Routing semantics are those of
    /// [`BankClient::get`] — it is the same loop: a key with no usable
    /// replica is a local miss with no wire traffic (never a rehash), and
    /// a daemon failing mid-flight fails every key grouped on it over to
    /// their next replica, or to a miss.
    pub async fn get_multi(&self, keys: &[Vec<u8>]) -> Vec<Option<Bytes>> {
        self.gets.add(keys.len() as u64);
        let t0 = self.wire.handle.now();
        let mut out: Vec<Option<Bytes>> = vec![None; keys.len()];
        self.read(keys, true, &mut out).await;
        // One latency sample per requested key (they completed together),
        // keeping the histogram count equal to `gets`.
        let dt = self.wire.handle.now().since(t0);
        self.get_ns.record_n(dt.as_nanos(), keys.len() as u64);
        out
    }

    /// The read loop over `keys`, writing hits into `out`. Each round routes every pending key to one usable
    /// replica ([`BankClient::route_read_replica`], which also ends a key
    /// with no replica left as a local miss), sends one RPC per routed
    /// daemon, and settles each reply ([`BankClient::settle_read`]):
    /// answered keys resolve as hits or misses, keys on a daemon that
    /// failed go round again with that daemon excluded — warm failover at
    /// factor > 1, and at factor 1 a second pass that finds no candidate
    /// and resolves locally without another await.
    ///
    /// `batched` is how the round's RPCs travel: `get_multi` sends one
    /// multi-key RPC per daemon concurrently; `get`'s single key goes
    /// alone through [`BankClient::attempt`], awaited directly.
    async fn read(&self, keys: &[Vec<u8>], batched: bool, out: &mut [Option<Bytes>]) {
        let mut pending: Vec<ReadKey> = keys
            .iter()
            .enumerate()
            .map(|(pos, key)| ReadKey {
                pos,
                replicas: self.replicas(key),
                tried: Vec::new(),
                degraded: false,
                route: 0,
                failover: false,
                answered: false,
            })
            .collect();
        loop {
            pending.retain_mut(|k| !k.answered && self.route_read_replica(k));
            if pending.is_empty() {
                return;
            }
            // Group by routed daemon in place. The sort is stable, so
            // daemons are visited in index order and each one's keys keep
            // the order they were routed in.
            pending.sort_by_key(|k| k.route);
            let mut groups: Vec<&mut [ReadKey]> =
                pending.chunk_by_mut(|a, b| a.route == b.route).collect();
            let mut answers = Vec::with_capacity(groups.len());
            if batched {
                let (calls, load): (Vec<_>, Vec<_>) = groups
                    .iter()
                    .map(|members| {
                        let idx = members[0].route;
                        self.multi_gets.inc();
                        self.keys_per_multi_get.record(members.len() as u64);
                        let group_keys = members.iter().map(|k| keys[k.pos].clone()).collect();
                        (
                            self.wire.call(idx, get_req(group_keys, false)),
                            DecrOnDrop::enter(&self.in_flight[idx]),
                        )
                    })
                    .unzip();
                let outcomes = join_all(&self.wire.handle, calls).await;
                drop(load);
                for (members, outcome) in groups.iter_mut().zip(outcomes) {
                    answers.push(self.settle_read(members[0].route, outcome, members));
                }
            } else {
                for members in &mut groups {
                    answers.push(self.attempt(&keys[members[0].pos], members).await);
                }
            }
            for (members, answer) in groups.into_iter().zip(answers) {
                // An unanswered group stays pending and goes round again.
                let Some(vals) = answer else { continue };
                // The daemon returns only the found keys, in request
                // order with the key echoed: walk both lists in lockstep
                // to tell hits from per-key misses.
                let mut vals = vals.into_iter().peekable();
                for k in members {
                    k.answered = true;
                    if k.failover {
                        self.replica_failovers.inc();
                    }
                    match vals.next_if(|v| v.key == keys[k.pos]) {
                        Some(v) => {
                            self.hits.inc();
                            out[k.pos] = Some(v.data);
                        }
                        None => self.misses.inc(),
                    }
                }
            }
        }
    }

    /// Settle one read reply from daemon `idx` for the keys that rode on
    /// it. `Some(values)` when the daemon *answered* — the found values,
    /// possibly none (an authoritative "not here"). `None` when it did
    /// not, after recording the failure on every member so the next round
    /// routes past `idx`:
    ///
    /// * `busy` — admission control refused the read. Never a retry (the
    ///   daemon is healthy, just protecting itself): fail over.
    /// * reset — the daemon died mid-flight: the whole group fails.
    /// * timeout — deadline expired mid-group: the whole group fails —
    ///   never a partial block assembly — and the circuit opens so later
    ///   reads shed locally.
    fn settle_read(
        &self,
        idx: usize,
        outcome: CallOutcome,
        members: &mut [ReadKey],
    ) -> Option<Vec<Value>> {
        let n = members.len() as u64;
        let degraded = match outcome {
            CallOutcome::Resp(McdResp(resps)) => match resps.into_iter().next().flatten() {
                Some(Response::Values(vals)) => return Some(vals),
                Some(r) if r.is_busy() => {
                    self.busy_sheds.inc();
                    true
                }
                _ => return Some(Vec::new()),
            },
            CallOutcome::Dropped => {
                self.failures.add(n);
                false
            }
            CallOutcome::TimedOut => {
                self.failures.add(n);
                self.trip_circuit(idx);
                true
            }
        };
        for k in members {
            k.tried.push(idx);
            k.degraded |= degraded;
        }
        None
    }

    /// One single-key round: the GET for `key` to the daemon it was routed
    /// to, awaited directly and settled for its one `members` entry.
    async fn attempt(&self, key: &[u8], members: &mut [ReadKey]) -> Option<Vec<Value>> {
        let idx = members[0].route;
        let load = DecrOnDrop::enter(&self.in_flight[idx]);
        let outcome = self
            .wire
            .call(idx, get_req(vec![key.to_vec()], false))
            .await;
        drop(load);
        self.settle_read(idx, outcome, members)
    }

    /// Per-replica `gets` for an in-place update wave (DESIGN.md §4f) —
    /// the token fetch for what the writer holds no [`Kept`] tokens of
    /// ([`BankClient::kept_tokens`]). Fetches `keys` from *every* usable
    /// replica — not one routed replica per key as
    /// [`BankClient::get_multi`] does — returning for each key the
    /// `(daemon, value-with-token)` rows that answered (`ReplicaRows`).
    /// The CAS update path needs every replica's own token, because
    /// tokens live in per-daemon spaces and must never cross them; each
    /// token is tagged with the daemon whose reply it came out of.
    ///
    /// One multi-key `gets` RPC per daemon. Write-path semantics
    /// throughout: the daemons admit it like a write (admission control
    /// never sheds a token fetch — a refusal would read as "cold replica"
    /// and leave the old value cached), the target set is
    /// `BankClient::write_targets` (dead replicas restart empty, shed
    /// replicas are already quarantined — both safe to skip), and a
    /// daemon that drops or times out mid-flight is **quarantined like a
    /// failed write**, because the in-place update it was about to
    /// receive can no longer be confirmed and it must not keep serving
    /// the old value. A row with `None` means the daemon answered and
    /// does not hold the key (cold replica — nothing to replace there).
    ///
    /// Not counted in `gets`/`hits`/`misses`: this is a write-path
    /// internal fetch, and folding it in would skew the read hit rate.
    pub async fn gets_for_update(&self, keys: &[Vec<u8>]) -> Vec<ReplicaRows> {
        let mut out: Vec<ReplicaRows> = vec![Vec::new(); keys.len()];
        let mut groups: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (pos, key) in keys.iter().enumerate() {
            for (slot, idx) in self.write_slots(key) {
                groups.entry(idx).or_default().push((pos, slot));
            }
        }
        let groups: Vec<(usize, Vec<(usize, usize)>)> = groups.into_iter().collect();
        let calls: Vec<_> = groups
            .iter()
            .map(|(idx, members)| {
                self.multi_gets.inc();
                self.keys_per_multi_get.record(members.len() as u64);
                let group_keys = members.iter().map(|&(p, _)| keys[p].clone()).collect();
                self.wire.call(*idx, get_req(group_keys, true))
            })
            .collect();
        let outcomes = join_all(&self.wire.handle, calls).await;
        for ((idx, members), outcome) in groups.into_iter().zip(outcomes) {
            self.settle_write(idx, &outcome, members.len() as u64);
            let CallOutcome::Resp(McdResp(resps)) = outcome else {
                continue;
            };
            let vals = match resps.into_iter().next().flatten() {
                Some(Response::Values(vals)) => vals,
                _ => Vec::new(),
            };
            let mut vals = vals.into_iter().peekable();
            for (p, slot) in members {
                let row = vals.next_if(|v| v.key == keys[p]).map(|v| {
                    let token = v.cas.expect("gets reply carries a token");
                    (
                        v.data,
                        CasToken {
                            daemon: idx,
                            slot,
                            token,
                        },
                    )
                });
                out[p].push((idx, row));
            }
        }
        out
    }

    /// Per-key framing of a bulk operation: `op` on every item as its
    /// own spawned task, in item order — one awaited RPC per key, the
    /// paper's client and the batching ablation's baseline.
    async fn per_key<T, R: 'static, F: Future<Output = R> + 'static>(
        self: &Rc<Self>,
        items: Vec<T>,
        op: impl Fn(Rc<BankClient>, T) -> F,
    ) -> Vec<R> {
        let tasks = items.into_iter().map(|item| op(Rc::clone(self), item));
        join_all(&self.wire.handle, tasks.collect()).await
    }

    /// Fetch a read's covering blocks, in request order: one multi-key
    /// `get` per routed daemon ([`BankClient::get_multi`]), or per key.
    pub async fn fetch_blocks(self: &Rc<Self>, keys: Vec<Vec<u8>>) -> Vec<Option<Bytes>> {
        if self.batched {
            return self.get_multi(&keys).await;
        }
        self.per_key(keys, |bank, key| async move { bank.get(&key).await })
            .await
    }

    /// Store many values on every usable replica of their keys: one
    /// frame of `noreply` stores per daemon, or per key.
    pub async fn store_blocks(self: &Rc<Self>, items: Vec<(Vec<u8>, Bytes)>) {
        let stores = items
            .into_iter()
            .map(|(key, value)| (StoreVerb::Set, key, value));
        self.stores(stores.collect()).await
    }

    /// [`BankClient::store_blocks`] for stores of any verb.
    async fn stores(self: &Rc<Self>, stores: Vec<Store>) {
        if self.batched {
            let rounds = self.store_frames(stores, false).await;
            return self.settle_frames(rounds);
        }
        self.per_key(stores, |bank, (verb, key, value)| async move {
            bank.store_one(verb, &key, value, Answer::Status).await
        })
        .await;
    }

    /// Issue `stores` now, framed as [`BankClient::store_blocks`] frames
    /// them, and return the round's answer: every daemon's frame (or, per
    /// key, every store) takes its place in this node's TX queue before
    /// the call returns, so each leaves the node ahead of any message
    /// asked for after it — a reply included — and, the fabric and each
    /// daemon being FIFO, lands before anything this node sends that
    /// daemon later. Where that order would not hold, nothing is issued
    /// at the call: the stores go out once the answer is awaited, exactly
    /// as [`BankClient::store_blocks`] sends them ([`Sent::issued`]). So
    /// it is where the bank may reorder stores
    /// ([`BankClient::may_reorder`]), and where a daemon's share might
    /// take more than one frame (more than `MAX_FRAME`, 256, stores): a
    /// later frame goes out only once the one before it has answered.
    pub fn post_stores(self: &Rc<Self>, stores: Vec<Store>) -> Sent {
        let bank = Rc::clone(self);
        if self.may_reorder() || (self.batched && stores.len() > MAX_FRAME) {
            return Sent::later(async move { bank.stores(stores).await });
        }
        if self.batched {
            let rounds = self.store_frames(stores, true);
            return Sent::now(async move { bank.settle_frames(rounds.await) });
        }
        let each: Vec<Sent> = stores
            .into_iter()
            .map(|(verb, key, value)| self.post_store(verb, key, value))
            .collect();
        Sent::now(async move {
            join_all(&bank.wire.handle, each).await;
        })
    }

    /// [`BankClient::post_stores`] of one store, sent as
    /// [`BankClient::set`] sends it: one answering command to every usable
    /// replica of `key`.
    pub fn post_store(self: &Rc<Self>, verb: StoreVerb, key: Vec<u8>, value: Bytes) -> Sent {
        let bank = Rc::clone(self);
        if self.may_reorder() {
            return Sent::later(async move {
                bank.store_one(verb, &key, value, Answer::Status).await;
            });
        }
        self.sets.inc();
        let targets = self.write_targets(self.replicas(&key));
        let req = McdReq::one(store_cmd(verb, key, value, Answer::Status));
        let sent = self.fanout(&targets, req, true);
        Sent::now(async move {
            let outcomes = sent.await;
            for (&idx, outcome) in targets.iter().zip(&outcomes) {
                bank.settle_write(idx, outcome, 1);
            }
        })
    }

    /// Store many values like [`BankClient::store_blocks`], each store
    /// asking its daemon for the item's new CAS unique (meta `ms … c`),
    /// and return the tokens per item by replica position: one frame of
    /// answering stores per daemon, read back by position, or per key. A
    /// replica that was skipped or failed keeps no token.
    pub async fn store_kept(self: &Rc<Self>, items: Vec<(Vec<u8>, Bytes)>) -> Vec<Kept> {
        if self.batched {
            return self.set_kept_pipeline(&items).await;
        }
        self.per_key(items, |bank, (key, value)| async move {
            bank.store_one(StoreVerb::Set, &key, value, Answer::Token)
                .await
        })
        .await
    }

    /// The `cas` tokens that replace `key` without a `gets`, from the
    /// tokens `kept` for it: one per usable write target, or `None` when a
    /// usable target has no token kept, and only a `gets` can say what it
    /// holds. Dead and shed replicas are no targets, as for
    /// [`BankClient::gets_for_update`].
    pub fn kept_tokens(&self, key: &[u8], kept: &Kept) -> Option<Vec<CasToken>> {
        self.replicas(key)
            .into_iter()
            .enumerate()
            .filter(|&(_, daemon)| matches!(self.probe(daemon), Route::Live))
            .map(|(slot, daemon)| {
                let token = kept.at(slot)?;
                Some(CasToken {
                    daemon,
                    slot,
                    token,
                })
            })
            .collect()
    }

    /// Remove many keys from every replica that could still serve them:
    /// one frame of `noreply` deletes per daemon, or per key.
    pub async fn remove_keys(self: &Rc<Self>, keys: Vec<Vec<u8>>) {
        if self.batched {
            return self.delete_pipeline(keys).await;
        }
        self.per_key(keys, |bank, key| async move { bank.delete(&key).await })
            .await;
    }

    /// Compare-and-swap many values, each against its token's daemon,
    /// verdicts in item order: one frame per daemon
    /// (`BankClient::cas_pipeline`), or per key.
    pub async fn cas_blocks(
        self: &Rc<Self>,
        items: Vec<(Vec<u8>, Bytes, CasToken)>,
    ) -> Vec<CasVerdict> {
        if self.batched {
            return self.cas_pipeline(&items).await;
        }
        self.per_key(items, |bank, (key, value, token)| async move {
            bank.cas(&key, value, token).await
        })
        .await
    }

    /// Compare-and-swap one value against the token's daemon. The store
    /// goes to `token.daemon` and nowhere else — the token is meaningless
    /// in any other daemon's token space, which is the invariant the tag
    /// exists to enforce. Any transport failure quarantines the daemon
    /// exactly like a failed set/delete: an unacknowledged `cas` may have
    /// left it holding a value now stale against the disk.
    async fn cas(&self, key: &[u8], value: Bytes, token: CasToken) -> CasVerdict {
        self.sets.inc();
        self.cas_ops.inc();
        let req = McdReq::one(cas_cmd(key.to_vec(), value, token));
        let outcomes = self
            .write_fanout(self.write_targets(vec![token.daemon]), req)
            .await;
        outcomes
            .first()
            .map_or(CasVerdict::Failed, |outcome| cas_verdict(outcome, 0))
    }

    /// The batched compare-and-swap: items are grouped by their token's
    /// daemon, and each daemon gets one frame holding its items' `cas`
    /// commands in item order. It answers every command in one reply
    /// frame, so verdicts are read back by position, and the whole wave
    /// costs one round trip per daemon, not one per key.
    ///
    /// Items whose daemon is dead or shed come back [`CasVerdict::Failed`]
    /// without wire traffic; a daemon failing mid-frame fails exactly the
    /// items sent to it and is quarantined like a failed sync. A retried
    /// frame re-applies its commands: a `cas` that already landed answers
    /// EXISTS, which falls the update back.
    async fn cas_pipeline(&self, items: &[(Vec<u8>, Bytes, CasToken)]) -> Vec<CasVerdict> {
        self.sets.add(items.len() as u64);
        self.cas_ops.add(items.len() as u64);
        let mut verdicts = vec![CasVerdict::Failed; items.len()];
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, (_, _, token)) in items.iter().enumerate() {
            for idx in self.write_targets(vec![token.daemon]) {
                groups.entry(idx).or_default().push(pos);
            }
        }
        let command = |&pos: &usize| {
            let (key, data, token) = &items[pos];
            cas_cmd(key.clone(), data.clone(), *token)
        };
        let verdict = |pos, outcome: &CallOutcome, at| verdicts[pos] = cas_verdict(outcome, at);
        self.answered_frames(groups, command, &self.pipelined_cas, verdict)
            .await;
        verdicts
    }

    /// The batched token-asking store ([`BankClient::store_kept`]): each
    /// item goes to every usable replica of its key, each daemon gets its
    /// share as one frame of answering `set`s, and each answer's token is
    /// kept at the replica position it came from.
    async fn set_kept_pipeline(&self, items: &[(Vec<u8>, Bytes)]) -> Vec<Kept> {
        self.sets.add(items.len() as u64);
        let mut kept = vec![Kept::default(); items.len()];
        let mut groups: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (pos, (key, _)) in items.iter().enumerate() {
            for (slot, idx) in self.write_slots(key) {
                groups.entry(idx).or_default().push((pos, slot));
            }
        }
        let command = |&(pos, _): &(usize, usize)| {
            let (key, value) = &items[pos];
            store_cmd(StoreVerb::Set, key.clone(), value.clone(), Answer::Token)
        };
        let keep = |(pos, slot): (usize, usize), outcome: &CallOutcome, at| {
            if let Some(token) = stored_token(outcome, at) {
                kept[pos].keep(slot, token);
            }
        };
        self.answered_frames(groups, command, &self.pipelined_sets, keep)
            .await;
        kept
    }

    /// Send each daemon in `groups` one frame of answering commands (several
    /// past [`MAX_FRAME`]), `command` making each member's, all daemons
    /// concurrently; `streamed` counts the commands. Each daemon's outcome
    /// is settled as one write per command, and `read` is handed every
    /// member with its daemon's outcome and its position in that
    /// daemon's answers.
    async fn answered_frames<M>(
        &self,
        groups: BTreeMap<usize, Vec<M>>,
        command: impl Fn(&M) -> Command,
        streamed: &Counter,
        mut read: impl FnMut(M, &CallOutcome, usize),
    ) {
        let groups: Vec<(usize, Vec<M>)> = groups.into_iter().collect();
        let calls: Vec<_> = groups
            .iter()
            .map(|(idx, members)| {
                streamed.add(members.len() as u64);
                let frame: Vec<Command> = members.iter().map(&command).collect();
                self.wire.call_each(*idx, framed(frame, |cmd| cmd, false))
            })
            .collect();
        let outcomes = join_all(&self.wire.handle, calls).await;
        for ((idx, members), outcome) in groups.into_iter().zip(outcomes) {
            self.settle_write(idx, &outcome, members.len() as u64);
            for (at, member) in members.into_iter().enumerate() {
                read(member, &outcome, at);
            }
        }
    }

    /// Store many values in one frame per daemon: each item goes to
    /// every usable replica of its key, so one frame carries a daemon's
    /// whole share of the fan-out. With `post`, each daemon's first
    /// frame is sent at the call ([`BankClient::send_frames`]).
    fn store_frames(
        &self,
        stores: Vec<Store>,
        post: bool,
    ) -> impl Future<Output = Vec<Round>> + 'static {
        self.sets.add(stores.len() as u64);
        let mut groups = BTreeMap::new();
        for store in stores {
            let targets = self.write_targets(self.replicas(&store.1));
            enqueue(&mut groups, &targets, store);
        }
        let command = |(verb, key, value)| store_cmd(verb, key, value, Answer::Quiet);
        self.send_frames(groups, command, &self.pipelined_sets, post)
    }

    /// Remove many keys in one frame per daemon — same grouping,
    /// ordering, and failure semantics as [`BankClient::store_frames`].
    /// The purge reaches every replica that could still serve the value.
    async fn delete_pipeline(&self, keys: Vec<Vec<u8>>) {
        self.deletes.add(keys.len() as u64);
        let mut groups = BTreeMap::new();
        for key in keys {
            let targets = self.write_targets(self.replicas(&key));
            enqueue(&mut groups, &targets, key);
        }
        let command = |key| Command::Delete { key, noreply: true };
        self.frames(groups, command, &self.pipelined_deletes).await;
    }

    /// Send each daemon in `groups` its queue as one frame (several past
    /// [`MAX_FRAME`]), all daemons concurrently, and settle the round
    /// ([`BankClient::settle_frames`]).
    async fn frames<T: 'static>(
        &self,
        groups: BTreeMap<usize, Vec<T>>,
        command: fn(T) -> Command,
        streamed: &Counter,
    ) {
        let rounds = self.send_frames(groups, command, streamed, false).await;
        self.settle_frames(rounds);
    }

    /// Send each daemon in `groups` its queue as one frame (several past
    /// [`MAX_FRAME`]), all daemons concurrently: `command` makes each
    /// queued item its `noreply` command, and a trailing `version` makes
    /// the frame's reply the sync for all of them — the daemon answers it
    /// only after every command before it has applied.
    /// `streamed` counts the commands sent. A key with no usable replica
    /// was never queued — skipped, exactly like [`BankClient::set`]. With
    /// `post`, each daemon's first frame is sent at the call
    /// ([`Wire::send_each`]), otherwise once the round is awaited. The
    /// round resolves to each daemon's [`Round`].
    fn send_frames<T: 'static>(
        &self,
        groups: BTreeMap<usize, Vec<T>>,
        command: fn(T) -> Command,
        streamed: &Counter,
        post: bool,
    ) -> impl Future<Output = Vec<Round>> + 'static {
        let mut daemons = Vec::with_capacity(groups.len());
        let mut calls = Vec::with_capacity(groups.len());
        for (idx, batch) in groups {
            streamed.add(batch.len() as u64);
            daemons.push((idx, batch.len() as u64));
            let frames = framed(batch, command, true);
            calls.push(self.wire.send_each(idx, frames, post));
        }
        let handle = self.wire.handle.clone();
        async move {
            let syncs = join_all(&handle, calls).await;
            daemons
                .into_iter()
                .zip(syncs)
                .map(|((idx, sent), sync)| (idx, sent, sync))
                .collect()
        }
    }

    /// Settle a round of `noreply` frames: if a daemon's frame failed,
    /// every command in it counts as a failure, because none of them is
    /// known to have landed, and the daemon is quarantined.
    fn settle_frames(&self, rounds: Vec<Round>) {
        for (idx, sent, sync) in rounds {
            self.settle_write(idx, &sync, sent);
        }
    }

    /// Store one value on every usable replica of its key.
    pub async fn set(&self, key: &[u8], value: Bytes) {
        self.store_one(StoreVerb::Set, key, value, Answer::Status)
            .await;
    }

    /// Store one value by `verb` on every usable replica of its key,
    /// answering as `answer` says: the tokens the replicas answered with,
    /// by replica position (none unless `answer` asks for them).
    async fn store_one(&self, verb: StoreVerb, key: &[u8], value: Bytes, answer: Answer) -> Kept {
        self.sets.inc();
        let (slots, targets): (Vec<usize>, Vec<usize>) = self.write_slots(key).unzip();
        let req = McdReq::one(store_cmd(verb, key.to_vec(), value, answer));
        let outcomes = self.write_fanout(targets, req).await;
        let mut kept = Kept::default();
        for (slot, outcome) in slots.into_iter().zip(&outcomes) {
            if let Some(token) = stored_token(outcome, 0) {
                kept.keep(slot, token);
            }
        }
        kept
    }

    /// Remove one key from every usable replica — a purge is only
    /// complete once no replica can still serve the value.
    pub async fn delete(&self, key: &[u8]) {
        self.deletes.inc();
        let req = McdReq::one(Command::Delete {
            key: key.to_vec(),
            noreply: false,
        });
        self.write_fanout(self.write_targets(self.replicas(key)), req)
            .await;
    }

    /// The usable write targets among `replicas`: every one that is alive
    /// and unshed. Dead replicas are skipped — they restart *empty*, so a
    /// missed write cannot resurface — and shed replicas are skipped and
    /// counted degraded (they are quarantined, or will be probed again
    /// once their circuit closes; either way nothing this write makes
    /// stale is served from them meanwhile).
    fn write_targets(&self, mut replicas: Vec<usize>) -> Vec<usize> {
        replicas.retain(|&idx| self.writable(idx));
        replicas
    }

    /// [`BankClient::write_targets`] of `key`'s replica set, each with its
    /// position in the set: `(slot, daemon)`.
    fn write_slots(&self, key: &[u8]) -> impl Iterator<Item = (usize, usize)> + '_ {
        let replicas = self.replicas(key).into_iter().enumerate();
        replicas.filter(|&(_, idx)| self.writable(idx))
    }

    /// Whether a write may go to daemon `idx`, counting a shed one
    /// degraded.
    fn writable(&self, idx: usize) -> bool {
        match self.probe(idx) {
            Route::Live => true,
            Route::Dead => false,
            Route::Shed => {
                self.degraded_misses.inc();
                false
            }
        }
    }

    /// The write fan-out: send `req` to every target — awaited directly
    /// for one, concurrently for several — and settle each daemon's
    /// outcome independently, so no replica can ever serve a value its
    /// purge missed. Returns the outcomes in target order.
    async fn write_fanout(&self, targets: Vec<usize>, req: McdReq) -> Vec<CallOutcome> {
        let outcomes = self.fanout(&targets, req, false).await;
        for (&idx, outcome) in targets.iter().zip(&outcomes) {
            self.settle_write(idx, outcome, 1);
        }
        outcomes
    }

    /// Send `req` to every daemon in `targets` — at the call with `post`
    /// ([`Wire::send_each`]), otherwise once awaited — and resolve to
    /// their outcomes in target order, unsettled.
    fn fanout(
        &self,
        targets: &[usize],
        req: McdReq,
        post: bool,
    ) -> impl Future<Output = Vec<CallOutcome>> + 'static {
        let mut calls: Vec<_> = targets
            .iter()
            .map(|&idx| self.wire.send_each(idx, std::iter::once(req.clone()), post))
            .collect();
        let handle = self.wire.handle.clone();
        async move {
            match calls.len() {
                1 => vec![calls.remove(0).await],
                _ => join_all(&handle, calls).await,
            }
        }
    }

    /// Account the outcome of `writes` commands sent to daemon `idx` — a
    /// single store/delete/`cas`, a frame's reply standing for every
    /// command in it, or a token fetch. Any failure —
    /// reset or timed out — fails them all and *quarantines* the daemon:
    /// a dropped purge or push may have left it holding stale state,
    /// which must never be served again before a clean restart. A
    /// timeout additionally opens the circuit.
    fn settle_write(&self, idx: usize, outcome: &CallOutcome, writes: u64) {
        match outcome {
            CallOutcome::Resp(_) => return,
            CallOutcome::Dropped => {}
            CallOutcome::TimedOut => {
                self.degraded_misses.add(writes);
                self.trip_circuit(idx);
            }
        }
        self.failures.add(writes);
        self.quarantined[idx].set(true);
    }
}

/// One store of a bulk push ([`BankClient::post_stores`]): its verb —
/// `set`, or `add`, which stores only where the key is absent — key and
/// value.
pub type Store = (StoreVerb, Vec<u8>, Bytes);

/// One daemon's share of a round of `noreply` frames: the daemon, the
/// commands sent to it, and the outcome of its sync.
type Round = (usize, u64, CallOutcome);

/// The answer to a bank round [`BankClient::post_stores`] or
/// [`BankClient::post_store`] made: it resolves once every daemon of the
/// round has answered, or failed, and its outcome is settled.
pub struct Sent {
    issued: bool,
    answer: Pin<Box<dyn Future<Output = ()>>>,
}

impl Sent {
    /// A round whose requests went out at the call.
    fn now(answer: impl Future<Output = ()> + 'static) -> Sent {
        Sent {
            issued: true,
            answer: Box::pin(answer),
        }
    }

    /// A round that goes out once it is awaited.
    fn later(answer: impl Future<Output = ()> + 'static) -> Sent {
        Sent {
            issued: false,
            answer: Box::pin(answer),
        }
    }

    /// Whether the round's requests went out at the call: `false` where
    /// the bank may reorder stores, and nothing goes out before the
    /// answer is awaited.
    pub fn issued(&self) -> bool {
        self.issued
    }
}

impl Future for Sent {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.answer.as_mut().poll(cx)
    }
}

/// The most commands one frame carries. A daemon's share of a bigger
/// bank round (the purge of a large file) goes as several frames, each
/// sent once the one before it has answered (`Wire::call_each`), so a
/// frame holds the daemon's event loop for at most this many commands,
/// and no frame's deadline covers a queue of its own round's frames.
const MAX_FRAME: usize = 256;

/// `items` as frames of at most [`MAX_FRAME`] commands, each made only
/// when it is sent; `sync` closes each with the `version` a frame of
/// `noreply` commands needs for an answer that stands for them all.
fn framed<T: 'static>(
    items: Vec<T>,
    command: impl Fn(T) -> Command + 'static,
    sync: bool,
) -> impl Iterator<Item = McdReq> + 'static {
    let mut items = items.into_iter();
    std::iter::from_fn(move || {
        let n = items.len().min(MAX_FRAME);
        if n == 0 {
            return None;
        }
        let mut frame = Vec::with_capacity(n + usize::from(sync));
        frame.extend(items.by_ref().take(n).map(&command));
        if sync {
            frame.push(Command::Version);
        }
        Some(McdReq(frame))
    })
}

/// A `cas` of `data` under `key` against `token`; it answers with its
/// new token, so the verdict can be read and the token kept.
fn cas_cmd(key: Vec<u8>, data: Bytes, token: CasToken) -> Command {
    store_cmd(StoreVerb::Cas(token.token), key, data, Answer::Token)
}

/// Queue `item` for every daemon in `targets`, moving it into the last
/// so a single-target write clones nothing.
fn enqueue<T: Clone>(groups: &mut BTreeMap<usize, Vec<T>>, targets: &[usize], item: T) {
    if let Some((&last, rest)) = targets.split_last() {
        for &idx in rest {
            groups.entry(idx).or_default().push(item.clone());
        }
        groups.entry(last).or_default().push(item);
    }
}

impl MetricSource for BankClient {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::super::daemon::{Bank, McdCosts};
    use super::super::policy::Replication;
    use super::*;
    use crate::counters;
    use crate::keys::block_key;
    use imca_fabric::Network;
    use imca_fabric::Transport;
    use imca_memcached::McConfig;
    use imca_memcached::Selector;
    use imca_sim::{Sim, SimDuration};

    /// An `n`-daemon bank of default-sized stores and one client of it,
    /// as `cfg` describes them, retrying by `policy`.
    fn bank_over(
        sim: &Sim,
        n: usize,
        cfg: &ImcaConfig,
        policy: RetryPolicy,
    ) -> (Network, Rc<Bank>, Rc<BankClient>) {
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let cfg = ImcaConfig {
            mcd_count: n,
            mcd_config: McConfig::default(),
            ..cfg.clone()
        };
        let bank = Rc::new(Bank::start(&net, &cfg));
        let client = Rc::new(bank.client(net.add_node(), &cfg, policy));
        (net, bank, client)
    }

    /// [`bank_over`] with the default CRC-32 placement and policy.
    fn setup(sim: &Sim, n: usize) -> (Network, Rc<Bank>, Rc<BankClient>) {
        client_over(sim, n, &ImcaConfig::default())
    }

    /// [`bank_over`] with the default policy.
    fn client_over(sim: &Sim, n: usize, cfg: &ImcaConfig) -> (Network, Rc<Bank>, Rc<BankClient>) {
        bank_over(sim, n, cfg, RetryPolicy::default())
    }

    /// The key of block `index` of `path` at the default 2 KB block size:
    /// under [`modulo`] it lands on daemon `index % n`.
    fn block(path: &str, index: u64) -> Vec<u8> {
        block_key(path, index * 2048)
    }

    /// Which public read entry point a fault scenario drives: both run the
    /// same loop, so every scenario must count the same through either.
    #[derive(Clone, Copy, Debug)]
    enum Via {
        Get,
        /// A one-key `get_multi`.
        Multi,
    }

    async fn read_via(c: &BankClient, via: Via, key: &[u8]) -> Option<Bytes> {
        match via {
            Via::Get => c.get(key).await,
            Via::Multi => c.get_multi(&[key.to_vec()]).await.remove(0),
        }
    }

    /// The write path's token fetch, for a key with one usable replica.
    async fn fetch_token(c: &BankClient, key: &[u8]) -> Option<(Bytes, CasToken)> {
        let mut rows = c.gets_for_update(&[key.to_vec()]).await;
        rows.remove(0).remove(0).1
    }

    /// A deployment whose bank places block keys by modulo (block `i` of
    /// a file on daemon `i % n`) on `factor` replicas.
    fn modulo(factor: usize) -> ImcaConfig {
        ImcaConfig {
            selector: Selector::Modulo,
            replication: Replication { factor },
            ..ImcaConfig::default()
        }
    }

    fn counter(c: &BankClient, name: &str) -> u64 {
        counters(c, [name])[0]
    }

    /// Items stored across the bank's daemons.
    fn bank_items(bank: &Bank) -> u64 {
        bank.nodes().iter().map(|n| n.stats().curr_items).sum()
    }

    #[test]
    fn set_get_across_the_bank() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = setup(&sim, 4);
        let c2 = Rc::clone(&client);
        sim.run_main(async move {
            for i in 0..100u64 {
                let key = format!("/f/{i}:stat");
                c2.set(key.as_bytes(), Bytes::from(vec![i as u8; 24])).await;
            }
            for i in 0..100u64 {
                let key = format!("/f/{i}:stat");
                let v = c2.get(key.as_bytes()).await.unwrap();
                assert_eq!(v, vec![i as u8; 24]);
            }
        });
        assert_eq!(
            counters(&*client, ["gets", "hits", "misses", "sets"]),
            [100, 100, 0, 100]
        );
        // Items spread across multiple daemons.
        let occupied = bank
            .nodes()
            .iter()
            .filter(|n| n.stats().curr_items > 0)
            .count();
        assert!(occupied >= 2, "occupied={occupied}");
        // Daemon-side totals agree with the client's view.
        let snap = imca_metrics::collect_from(&*bank, "bank");
        assert_eq!(snap.counter_sum("bank.mcd.*.store.get_hits"), 100);
        assert_eq!(bank_items(&bank), 100);
    }

    #[test]
    fn a_round_past_one_frame_is_not_posted() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = setup(&sim, 1);
        let stores = |n: usize| -> Vec<Store> {
            let value = Bytes::from_static(b"x");
            let key = |i| block("/f", i as u64);
            (0..n)
                .map(|i| (StoreVerb::Set, key(i), value.clone()))
                .collect()
        };
        // One daemon: its share of the second round takes two frames.
        let one_frame = client.post_stores(stores(MAX_FRAME));
        let two_frames = client.post_stores(stores(MAX_FRAME + 1));
        assert!(one_frame.issued());
        assert!(!two_frames.issued());
        sim.run_main(async move {
            one_frame.await;
            two_frames.await;
        });
        assert_eq!(bank_items(&bank), MAX_FRAME as u64 + 1);
    }

    #[test]
    fn miss_and_delete_paths() {
        let mut sim = Sim::new(0);
        let (_net, _bank, client) = setup(&sim, 2);
        let c2 = Rc::clone(&client);
        sim.run_main(async move {
            assert!(c2.get(b"/nothing:stat").await.is_none());
            c2.set(b"/x:0", Bytes::from_static(b"data")).await;
            assert!(c2.get(b"/x:0").await.is_some());
            c2.delete(b"/x:0").await;
            assert!(c2.get(b"/x:0").await.is_none());
        });
        assert_eq!(counters(&*client, ["misses", "deletes"]), [2, 1]);
    }

    #[test]
    fn killed_daemon_degrades_to_misses_without_hanging() {
        for via in [Via::Get, Via::Multi] {
            let mut sim = Sim::new(0);
            // Modulo routing pins block keys to known daemons: block 0 of
            // a file → MCD 0, block 1 → MCD 1.
            let (_net, bank, client) = client_over(&sim, 2, &modulo(1));
            let c2 = Rc::clone(&client);
            let b2 = Rc::clone(&bank);
            sim.run_main(async move {
                c2.set(b"/k:0", Bytes::from_static(b"v")).await;
                assert!(read_via(&c2, via, b"/k:0").await.is_some());
                b2.kill(0);
                // Dead primary: miss — no rehash to the survivor (stale-data
                // hazard, see BankClient).
                assert!(read_via(&c2, via, b"/k:0").await.is_none());
                // Keys homed on the survivor are unaffected.
                c2.set(&block("/k", 1), Bytes::from_static(b"w")).await;
                assert!(read_via(&c2, via, &block("/k", 1)).await.is_some());
                // Sets to the dead primary are skipped, not redirected.
                c2.set(b"/k2:0", Bytes::from_static(b"x")).await;
                assert_eq!(b2.nodes()[1].stats().curr_items, 1, "set must not rehash");
                b2.revive(0);
                // A revived daemon restarts empty: still a miss, never stale.
                assert!(read_via(&c2, via, b"/k:0").await.is_none());
                // And accepts fresh traffic again.
                c2.set(b"/k:0", Bytes::from_static(b"v2")).await;
                assert_eq!(
                    read_via(&c2, via, b"/k:0").await,
                    Some(Bytes::from_static(b"v2"))
                );
            });
            assert!(bank.nodes()[1].is_alive());
            assert_eq!(bank.failovers(), 1);
            assert_eq!(
                counters(&*client, ["gets", "hits", "misses", "sets", "failures"]),
                [5, 3, 2, 4, 0],
                "{via:?}"
            );
            // A dead daemon is a plain miss: nothing degraded, nothing shed.
            assert_eq!(counter(&client, "degraded_misses"), 0, "{via:?}");
            assert_eq!(counter(&client, "busy_sheds"), 0, "{via:?}");
        }
    }

    #[test]
    fn kill_mid_flight_counts_a_failure() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = setup(&sim, 1);
        let h = net.handle();
        {
            let b = Rc::clone(&bank);
            sim.spawn(async move {
                // Let the set land, then kill during the get's network leg.
                h.sleep(SimDuration::micros(60)).await;
                b.kill(0);
            });
        }
        let c = Rc::clone(&client);
        sim.run_main(async move {
            c.set(b"/k:0", Bytes::from_static(b"v")).await;
            // This get will be in flight when the daemon dies.
            let r = c.get(b"/k:0").await;
            assert!(r.is_none());
        });
        assert_eq!(counter(&client, "failures"), 1);
        assert_eq!(bank.failovers(), 1);
    }

    #[test]
    fn modulo_places_a_block_key_by_its_index_and_replicas_follow() {
        // A block key carries its own placement: block `i` of a file lands
        // on daemon `i % n` and its replicas on the daemons after it — for
        // a short path, one folded past the key cap, and one with a colon.
        let paths = [
            "/file".to_string(),
            format!("/deep{}", "/x".repeat(200)),
            "/a:7/b".into(),
        ];
        for factor in [1u64, 2] {
            let mut sim = Sim::new(0);
            let (_net, bank, client) = client_over(&sim, 4, &modulo(factor as usize));
            let keys: Vec<(u64, Vec<u8>)> = paths
                .iter()
                .flat_map(|p| (0..8).map(move |i| (i, block(p, i))))
                .collect();
            let stored = keys.clone();
            sim.run_main(async move {
                for (_, key) in stored {
                    client.set(&key, Bytes::from_static(b"B")).await;
                }
            });
            for (i, key) in &keys {
                for (d, node) in bank.nodes().iter().enumerate() {
                    let home = (0..factor).any(|k| (i + k) % 4 == d as u64);
                    let held = node.server().store().get(key, 0).is_some();
                    assert_eq!(held, home, "block {i} on daemon {d} at R = {factor}");
                }
            }
        }
    }

    #[test]
    fn bank_metrics_count_every_get_under_faults() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = setup(&sim, 2);
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
        sim.run_main(async move {
            for i in 0..20u64 {
                let key = format!("/m/{i}:stat");
                c2.set(key.as_bytes(), Bytes::from(vec![1u8; 32])).await;
            }
            for i in 0..25u64 {
                let key = format!("/m/{i}:stat");
                c2.get(key.as_bytes()).await;
            }
            // Fault injection must not skew the histogram/counter
            // agreement. First: dead-primary local misses.
            b2.kill(0);
            for i in 0..10u64 {
                let key = format!("/m/{i}:stat");
                c2.get(key.as_bytes()).await;
            }
            b2.revive(0);
            // Then: a get whose daemon dies mid-flight.
            kill_tx.send(());
            assert!(c2.get(b"/m/0:stat").await.is_none());
        });
        let snap = imca_metrics::collect_from(&*client, "bank");
        let [gets, hits, misses, failures] =
            counters(&*client, ["gets", "hits", "misses", "failures"]);
        assert!(failures >= 1, "the mid-flight kill was not injected");
        assert_eq!((gets, hits + misses), (36, 36));
        let hist = snap
            .histogram("bank.get_ns")
            .expect("get latency histogram");
        assert_eq!(
            hist.count, gets,
            "every get records a latency — hits, misses, and failures alike"
        );
        assert!(hist.mean() > 0.0);
        // Daemon view: every client hit was a daemon hit (a daemon killed
        // mid-service may count one the client never received).
        let snap = imca_metrics::collect_from(&*bank, "");
        assert!(snap.counter_sum("mcd.*.store.get_hits") >= hits);
        assert!(snap
            .histogram_names()
            .iter()
            .any(|n| n.ends_with("service_ns")));
    }

    #[test]
    fn multi_get_issues_one_rpc_per_daemon() {
        // The covering-block fetch under both framings: batched, one
        // multi-key RPC per daemon; per key, one RPC per block.
        for batching in [true, false] {
            let mut sim = Sim::new(0);
            // Modulo routing pins block keys to known daemons.
            let cfg = ImcaConfig {
                batching,
                ..modulo(1)
            };
            let (_net, bank, client) = client_over(&sim, 4, &cfg);
            let c2 = Rc::clone(&client);
            sim.run_main(async move {
                for blk in 0..8u64 {
                    let key = format!("/f:{}", blk * 2048);
                    c2.set(key.as_bytes(), Bytes::from(vec![blk as u8; 64]))
                        .await;
                }
                let keys: Vec<Vec<u8>> = (0..8u64)
                    .map(|blk| format!("/f:{}", blk * 2048).into_bytes())
                    .collect();
                let got = c2.fetch_blocks(keys).await;
                for (blk, v) in got.iter().enumerate() {
                    assert_eq!(v.as_deref(), Some(&vec![blk as u8; 64][..]), "block {blk}");
                }
            });
            let gets = counter(&client, "gets");
            assert_eq!(
                counters(&*client, ["gets", "hits", "misses", "failures"]),
                [8, 8, 0, 0]
            );
            // 8 keys over 4 daemons: exactly one multi-get RPC per daemon,
            // carrying 2 keys each — or none at all per key.
            let snap = imca_metrics::collect_from(&*client, "bank");
            let rpcs = if batching { 4 } else { 0 };
            assert_eq!(snap.counter("bank.multi_gets"), Some(rpcs));
            let per = snap
                .histogram("bank.keys_per_multi_get")
                .expect("batch-size histogram");
            assert_eq!(per.count, rpcs);
            if batching {
                assert_eq!(per.mean(), 2.0);
            }
            assert_eq!(
                snap.histogram("bank.get_ns").expect("get latency").count,
                gets
            );
            // Daemon side: each of the 4 daemons saw 2 sets + 1 multi-get,
            // or 2 sets + its 2 keys' own gets.
            let snap = imca_metrics::collect_from(&*bank, "bank");
            for i in 0..4 {
                assert_eq!(
                    snap.counter(&format!("bank.mcd.{i}.requests")),
                    Some(if batching { 3 } else { 4 }),
                    "daemon {i}: one read RPC per batch, or one per key (batching {batching})"
                );
            }
        }
    }

    #[test]
    fn multi_get_dead_primary_is_a_local_miss() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = client_over(&sim, 2, &modulo(1));
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        sim.run_main(async move {
            c2.set(b"/f:0", Bytes::from_static(b"a")).await;
            c2.set(b"/f:2048", Bytes::from_static(b"b")).await;
            b2.kill(0);
            let got = c2.get_multi(&[b"/f:0".to_vec(), b"/f:2048".to_vec()]).await;
            // Dead primary: miss without a rehash; the survivor still answers.
            assert_eq!(got[0], None);
            assert_eq!(got[1], Some(Bytes::from_static(b"b")));
        });
        assert_eq!(counters(&*client, ["gets", "hits", "misses"]), [2, 1, 1]);
        // No wire traffic to the dead daemon: not a failure, a local miss.
        assert_eq!(counter(&client, "failures"), 0);
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.multi_gets"), Some(1));
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 2);
    }

    #[test]
    fn multi_get_kill_mid_flight_fails_the_whole_group() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = setup(&sim, 1);
        let h = net.handle();
        let (armed_tx, armed_rx) = imca_sim::sync::oneshot::<()>();
        {
            let b = Rc::clone(&bank);
            sim.spawn(async move {
                armed_rx.await.unwrap();
                // The request is in flight; kill before it is served.
                h.sleep(SimDuration::nanos(1)).await;
                b.kill(0);
            });
        }
        let c = Rc::clone(&client);
        sim.run_main(async move {
            for i in 0..3u64 {
                let key = format!("/g/{i}:stat");
                c.set(key.as_bytes(), Bytes::from_static(b"v")).await;
            }
            let keys: Vec<Vec<u8>> = (0..3u64)
                .map(|i| format!("/g/{i}:stat").into_bytes())
                .collect();
            // Arm the killer, then issue the multi-get: routing is
            // synchronous, so the RPC is on the wire before the killer
            // task gets to run.
            armed_tx.send(());
            let got = c.get_multi(&keys).await;
            assert!(got.iter().all(|v| v.is_none()));
        });
        assert_eq!(counters(&*client, ["gets", "hits"]), [3, 0]);
        assert_eq!(
            counter(&client, "failures"),
            3,
            "every key in the dropped batch fails"
        );
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 3);
    }

    #[test]
    fn bulk_store_and_delete_send_one_frame_per_daemon() {
        // Bulk store and remove under both framings: batched, one frame
        // of `noreply` commands and a trailing sync per daemon per call;
        // per key, one RPC per key and replica.
        for (factor, batching) in [(1u64, true), (2, true), (1, false), (2, false)] {
            let mut sim = Sim::new(0);
            let cfg = ImcaConfig {
                batching,
                ..modulo(factor as usize)
            };
            let (_net, bank, client) = client_over(&sim, 2, &cfg);
            let c2 = Rc::clone(&client);
            let b2 = Rc::clone(&bank);
            let frames = sim.run_main(async move {
                let items: Vec<(Vec<u8>, Bytes)> = (0..8u64)
                    .map(|blk| (block("/p", blk), Bytes::from(vec![blk as u8; 128])))
                    .collect();
                c2.store_blocks(items).await;
                let stored = requests(&b2);
                // The trailing sync (or each key's own reply) guarantees
                // every store has landed.
                for blk in 0..8u64 {
                    let got = c2.get(&block("/p", blk)).await;
                    assert_eq!(got.as_deref(), Some(&vec![blk as u8; 128][..]));
                }
                let read = requests(&b2);
                c2.remove_keys((0..8u64).map(|blk| block("/p", blk)).collect())
                    .await;
                let removed = requests(&b2);
                for blk in 0..8u64 {
                    assert!(c2.get(&block("/p", blk)).await.is_none());
                }
                [0, 1].map(|i| (stored[i], removed[i] - read[i]))
            });
            assert_eq!(
                counters(&*client, ["sets", "deletes", "failures"]),
                [8, 8, 0]
            );
            // Every item goes to each of its `factor` replicas.
            let streamed = if batching { 8 * factor } else { 0 };
            assert_eq!(counter(&client, "pipelined_sets"), streamed);
            assert_eq!(counter(&client, "pipelined_deletes"), streamed);
            // Per daemon and bulk call: one frame when batched, whatever
            // the factor; per key, one request per key it holds
            // (4·factor of the 8).
            let per_call = if batching { 1 } else { 4 * factor };
            assert_eq!(frames, [(per_call, per_call); 2], "factor {factor}");
            // The 16 verification gets went wherever they were routed.
            assert_eq!(requests(&bank).iter().sum::<u64>(), 4 * per_call + 16);
        }
    }

    #[test]
    fn a_round_past_max_frame_goes_as_several_frames() {
        // 600 deletes for one daemon: frames of 256, 256 and 88, each
        // closed by its own sync, and every key gone at the end.
        let mut sim = Sim::new(0);
        let (_net, bank, client) = client_over(&sim, 1, &ImcaConfig::default());
        let c2 = Rc::clone(&client);
        let keys: Vec<Vec<u8>> = (0..600u64).map(|i| block("/big", i)).collect();
        let items = keys.iter().map(|k| (k.clone(), Bytes::from_static(b"v")));
        let items: Vec<_> = items.collect();
        let b2 = Rc::clone(&bank);
        let stored = sim.run_main(async move {
            c2.store_blocks(items).await;
            let stored = bank_items(&b2);
            c2.remove_keys(keys).await;
            stored
        });
        assert_eq!(stored, 600);
        assert_eq!(requests(&bank), [6], "three frames per bulk call");
        assert_eq!(bank_items(&bank), 0);
        assert_eq!(counter(&client, "failures"), 0);
    }

    #[test]
    fn pipeline_sync_failure_counts_the_streamed_batch() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = setup(&sim, 1);
        let h = net.handle();
        {
            let b = Rc::clone(&bank);
            sim.spawn(async move {
                h.sleep(SimDuration::micros(30)).await;
                b.kill(0);
            });
        }
        let c = Rc::clone(&client);
        sim.run_main(async move {
            let items: Vec<(Vec<u8>, Bytes)> = (0..4u64)
                .map(|i| (block(&format!("/q/{i}"), 0), Bytes::from(vec![7u8; 2048])))
                .collect();
            c.store_blocks(items).await;
        });
        assert_eq!(
            counters(&*client, ["sets", "failures"]),
            [4, 4],
            "a dead frame leaves every store in it un-acknowledged"
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
        }
    }

    #[test]
    fn may_reorder_holds_only_while_a_timed_out_attempt_may_still_land() {
        // A seven-command purge frame holds a 500 µs-per-command daemon
        // for 3.5 ms. A set queued behind it passes its 3 ms deadline
        // once: its first attempt lands at 4 ms, the retry behind it.
        let mut sim = Sim::new(0);
        let cfg = ImcaConfig {
            mcd_costs: McdCosts {
                per_op: SimDuration::micros(500),
                ..McdCosts::default()
            },
            ..ImcaConfig::default()
        };
        let policy = RetryPolicy {
            deadline: SimDuration::millis(3),
            ..RetryPolicy::default()
        };
        let (net, bank, setter) = bank_over(&sim, 1, &cfg, policy);
        let purger = Rc::new(bank.client(net.add_node(), &cfg, RetryPolicy::default()));
        let h = sim.handle();
        let (s2, h2) = (Rc::clone(&setter), h.clone());
        let seen = Rc::new(RefCell::new(Vec::new()));
        let done = Rc::new(Cell::new(false));
        let (seen2, done2) = (Rc::clone(&seen), Rc::clone(&done));
        h.spawn(async move {
            while !done2.get() {
                let now = h2.now().as_nanos() / 1_000;
                seen2.borrow_mut().push((now, s2.may_reorder()));
                h2.sleep(SimDuration::micros(50)).await;
            }
        });
        let (s3, h3) = (Rc::clone(&setter), h.clone());
        let (mark, returned) = sim.run_main(async move {
            let keys = (0..6).map(|i| format!("/p:{i}").into_bytes()).collect();
            h3.spawn(async move { purger.remove_keys(keys).await });
            h3.sleep(SimDuration::micros(10)).await;
            let mark = s3.reorder_mark();
            s3.set(b"/k:0", Bytes::from_static(b"v")).await;
            done.set(true);
            (mark, h3.now().as_nanos() / 1_000)
        });
        assert_eq!(counter(&setter, "retries"), 1, "one attempt timed out");
        assert_eq!(counter(&setter, "failures"), 0);
        // In doubt from the deadline until the first attempt's answer.
        let doubt: Vec<u64> = seen
            .borrow()
            .iter()
            .filter(|&&(_, reorder)| reorder)
            .map(|&(t, _)| t)
            .collect();
        let (first, last) = (doubt[0], *doubt.last().unwrap());
        assert!((3_010..3_100).contains(&first), "in doubt from {first} µs");
        assert!((4_000..4_100).contains(&last), "in doubt until {last} µs");
        assert_eq!(doubt.len() as u64, (last - first) / 50 + 1, "one window");
        assert!(
            last < returned,
            "the retry answered after the first attempt"
        );
        assert!(!setter.may_reorder());
        // The retried store itself may still have landed last.
        assert!(setter.reordered_since(mark));
        assert!(!setter.reordered_since(setter.reorder_mark()));
    }

    #[test]
    fn partitioned_daemon_times_out_then_the_circuit_sheds() {
        for via in [Via::Get, Via::Multi] {
            let mut sim = Sim::new(0);
            let (net, bank, client) = bank_over(&sim, 1, &ImcaConfig::default(), tight_policy());
            let c2 = Rc::clone(&client);
            let net2 = net.clone();
            let mcd_node = bank.nodes()[0].node;
            let h = sim.handle();
            sim.run_main(async move {
                c2.set(b"/k:stat", Bytes::from_static(b"v")).await;
                assert!(read_via(&c2, via, b"/k:stat").await.is_some());
                net2.isolate("mcd-cut", [mcd_node]);
                // Both attempts run out their deadline; the read degrades to a
                // local miss and the circuit opens.
                assert!(read_via(&c2, via, b"/k:stat").await.is_none());
                let timeouts_after_first = counter(&c2, "failures");
                assert_eq!(timeouts_after_first, 1);
                // Inside the cooldown: shed locally, no further wire attempts.
                assert!(read_via(&c2, via, b"/k:stat").await.is_none());
                // Heal and let the circuit expire: the daemon answers again,
                // and since no *write* failed it was never quarantined — the
                // value survived the partition.
                net2.heal("mcd-cut");
                h.sleep(SimDuration::millis(2)).await;
                assert_eq!(
                    read_via(&c2, via, b"/k:stat").await,
                    Some(Bytes::from_static(b"v"))
                );
            });
            // get #2 timed out (1 attempt + 1 retry), get #3 was shed.
            let snap = imca_metrics::collect_from(&*client, "bank");
            assert_eq!(snap.counter("bank.rpc_timeouts"), Some(2), "{via:?}");
            assert_eq!(snap.counter("bank.retries"), Some(1), "{via:?}");
            assert_eq!(snap.counter("bank.degraded_misses"), Some(2), "{via:?}");
            assert_eq!(snap.counter("bank.circuit_opens"), Some(1), "{via:?}");
            assert_eq!(
                counters(&*client, ["gets", "hits", "misses", "failures"]),
                [4, 2, 2, 1],
                "{via:?}"
            );
            // The latency histogram still covers every get — timeouts and
            // circuit sheds included.
            assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 4);
            assert!(!bank.nodes()[0].is_quarantined());
        }
    }

    #[test]
    fn failed_purge_quarantines_until_revival() {
        for (via, factor) in [
            (Via::Get, 1),
            (Via::Multi, 1),
            (Via::Get, 2),
            (Via::Multi, 2),
        ] {
            let mut sim = Sim::new(0);
            // As many daemons as replicas: block 0 lives on all of them.
            let (net, bank, client) = bank_over(&sim, factor, &modulo(factor), tight_policy());
            let c2 = Rc::clone(&client);
            let net2 = net.clone();
            let b2 = Rc::clone(&bank);
            let mcd_nodes: Vec<NodeId> = bank.nodes().iter().map(|n| n.node).collect();
            let h = sim.handle();
            sim.run_main(async move {
                c2.set(b"/f:0", Bytes::from_static(b"stale")).await;
                net2.isolate("mcd-cut", mcd_nodes);
                // The purge never reaches a daemon: every attempt of each
                // daemon's frame times out and the frame gives up.
                c2.delete_pipeline(vec![b"/f:0".to_vec()]).await;
                assert_eq!(counter(&c2, "failures"), factor as u64);
                assert!(b2.nodes().iter().all(|n| n.is_quarantined()));
                net2.heal("mcd-cut");
                h.sleep(SimDuration::millis(2)).await;
                // Healed, circuits expired — but the daemons still hold the
                // value the failed purge should have removed. Quarantine
                // makes this a miss, never a stale resurrection.
                assert!(read_via(&c2, via, b"/f:0").await.is_none());
                // Revival restarts a daemon empty and lifts the quarantine.
                for i in 0..factor {
                    b2.revive(i);
                }
                assert!(read_via(&c2, via, b"/f:0").await.is_none());
                c2.set(b"/f:0", Bytes::from_static(b"fresh")).await;
                assert_eq!(
                    read_via(&c2, via, b"/f:0").await,
                    Some(Bytes::from_static(b"fresh"))
                );
            });
            let case = format!("{via:?} at factor {factor}");
            assert!(bank.nodes().iter().all(|n| !n.is_quarantined()), "{case}");
            assert_eq!(
                counters(
                    &*client,
                    ["gets", "hits", "misses", "sets", "deletes", "failures"]
                ),
                [3, 1, 2, 2, 1, factor as u64],
                "{case}"
            );
            // One degraded op per failed frame, one for the read that
            // found every replica quarantined.
            assert_eq!(
                counter(&client, "degraded_misses"),
                factor as u64 + 1,
                "{case}"
            );
            assert_eq!(counter(&client, "busy_sheds"), 0, "{case}");
            let snap = imca_metrics::collect_from(&*client, "bank");
            assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 3, "{case}");
        }
    }

    #[test]
    fn quarantine_is_shared_across_clients() {
        // Client A's failed write must shield client B from the stale
        // daemon: the flag lives on the node, not in the client.
        let mut sim = Sim::new(0);
        let cfg = ImcaConfig::default();
        let (net, bank, a) = bank_over(&sim, 1, &cfg, tight_policy());
        let b = Rc::new(bank.client(net.add_node(), &cfg, tight_policy()));
        let net2 = net.clone();
        let mcd_node = bank.nodes()[0].node;
        let h = sim.handle();
        sim.run_main(async move {
            a.set(b"/s:0", Bytes::from_static(b"old")).await;
            net2.isolate("cut", [mcd_node]);
            a.delete_pipeline(vec![b"/s:0".to_vec()]).await;
            net2.heal("cut");
            h.sleep(SimDuration::millis(2)).await;
            // B never saw a failure, but the daemon is poisoned for it too.
            assert!(b.get(b"/s:0").await.is_none());
            assert_eq!(counters(&*b, ["gets", "misses"]), [1, 1]);
        });
        assert!(bank.nodes()[0].is_quarantined());
    }

    #[test]
    fn duplicated_rpcs_are_idempotent_on_the_bank_path() {
        // 100% duplication: every request and response is delivered twice.
        // Sets double-apply (same value — idempotent), gets answer twice
        // (second copy discarded); results and counters stay exact.
        let mut sim = Sim::new(0);
        let (net, bank, client) = client_over(&sim, 2, &modulo(1));
        net.install_faults(imca_fabric::FaultPlan {
            duplicate: 1.0,
            ..imca_fabric::FaultPlan::seeded(4)
        });
        let c2 = Rc::clone(&client);
        sim.run_main(async move {
            for blk in 0..4u64 {
                let key = format!("/d:{}", blk * 2048);
                c2.set(key.as_bytes(), Bytes::from(vec![blk as u8; 32]))
                    .await;
            }
            let keys: Vec<Vec<u8>> = (0..4u64)
                .map(|blk| format!("/d:{}", blk * 2048).into_bytes())
                .collect();
            let got = c2.get_multi(&keys).await;
            for (blk, v) in got.iter().enumerate() {
                assert_eq!(v.as_deref(), Some(&vec![blk as u8; 32][..]), "block {blk}");
            }
        });
        assert_eq!(
            counters(&*client, ["gets", "hits", "misses", "failures"]),
            [4, 4, 0, 0]
        );
        assert!(net.registry().snapshot().counter("duplicated").unwrap() > 0);
        // Exactly one logical value per key despite the echoes.
        assert_eq!(bank_items(&bank), 4);
    }

    /// A client with replication `r` over an `n`-daemon modulo bank, so
    /// block `i` lives on daemons {i, i + 1, … i + r − 1} mod n.
    fn replicated_setup(sim: &Sim, n: usize, r: usize) -> (Network, Rc<Bank>, Rc<BankClient>) {
        client_over(sim, n, &modulo(r))
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
        sim.run_main(async move {
            // Single-key writes fan out…
            c2.set(b"/a:0", Bytes::from_static(b"v")).await;
            // …and so do framed ones.
            c2.store_blocks(vec![
                (block("/f", 1), Bytes::from_static(b"w")),
                (block("/f", 2), Bytes::from_static(b"x")),
            ])
            .await;
            // Purges must reach every replica: single delete and frame.
            c2.delete(b"/a:0").await;
            c2.delete_pipeline(vec![block("/f", 1)]).await;
        });
        // The surviving key lives on exactly R = 2 daemons…
        let kept = block("/f", 2);
        assert_eq!(holders(&bank, &kept), 2);
        // …and modulo placement pins which two.
        assert!(bank.nodes()[2].server().store().get(&kept, 0).is_some());
        assert!(bank.nodes()[3].server().store().get(&kept, 0).is_some());
        // Both purged keys are gone from the whole bank.
        assert_eq!(holders(&bank, b"/a:0"), 0);
        assert_eq!(holders(&bank, &block("/f", 1)), 0);
    }

    #[test]
    fn killed_primary_fails_over_warm_with_replication() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 2, 2);
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        sim.run_main(async move {
            c2.set(b"/k:0", Bytes::from_static(b"v")).await;
            b2.kill(0);
            // Dead primary, live replica: the read is a warm hit, not the
            // degraded miss the single-home bank takes here.
            assert_eq!(c2.get(b"/k:0").await, Some(Bytes::from_static(b"v")));
            // And the batched path re-routes the group the same way
            // (dead-replica handling in get_multi).
            let got = c2.get_multi(&[b"/k:0".to_vec()]).await;
            assert_eq!(got[0], Some(Bytes::from_static(b"v")));
        });
        assert_eq!(
            counters(&*client, ["gets", "hits", "misses", "failures"]),
            [2, 2, 0, 0]
        );
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert!(snap.counter("bank.replica_failovers").unwrap() >= 2);
        assert_eq!(snap.counter("bank.degraded_misses"), Some(0));
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 2);
    }

    #[test]
    fn replica_dying_mid_flight_fails_over_to_the_survivor() {
        let mut sim = Sim::new(0);
        let (net, bank, client) = replicated_setup(&sim, 2, 2);
        let h = net.handle();
        {
            let b = Rc::clone(&bank);
            sim.spawn(async move {
                h.sleep(SimDuration::micros(80)).await;
                b.kill(0);
            });
        }
        let c = Rc::clone(&client);
        sim.run_main(async move {
            c.set(b"/k:0", Bytes::from_static(b"v")).await;
            // In flight when a daemon dies: the client excludes the
            // dropped replica and retries the other — still a hit.
            assert_eq!(c.get(b"/k:0").await, Some(Bytes::from_static(b"v")));
        });
        assert_eq!(counters(&*client, ["hits", "misses"]), [1, 0]);
        // Whichever replica the P2C router tried first, the get resolved
        // warm; if the dead one was hit mid-flight a failure is recorded.
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.degraded_misses"), Some(0));
    }

    #[test]
    fn replicated_read_exhausting_its_replicas_in_flight_counts_as_degraded() {
        // Both replicas are reachable-looking but partitioned: each read
        // tries one, times out, fails over to the other, times out again
        // and resolves locally. It was answered locally because the bank
        // could not serve it in time — a degraded miss, exactly as the
        // same read counts at factor 1 — not a plain "nobody home" miss.
        let mut sim = Sim::new(0);
        let (net, bank, client) = bank_over(&sim, 2, &modulo(2), tight_policy());
        let c2 = Rc::clone(&client);
        let net2 = net.clone();
        let mcd_nodes: Vec<NodeId> = bank.nodes().iter().map(|n| n.node).collect();
        let h = sim.handle();
        sim.run_main(async move {
            net2.isolate("cut", mcd_nodes);
            assert!(c2.get(b"/r:0").await.is_none());
            assert_eq!(counter(&c2, "degraded_misses"), 1);
            // Let both circuits close so the batch is refused in flight
            // again rather than shed at the door.
            h.sleep(SimDuration::millis(2)).await;
            let got = c2.get_multi(&[b"/r:0".to_vec(), b"/r:2048".to_vec()]).await;
            assert_eq!(got, vec![None, None]);
            assert_eq!(counter(&c2, "degraded_misses"), 3);
        });
        assert_eq!(counters(&*client, ["gets", "hits", "misses"]), [3, 0, 3]);
    }

    #[test]
    fn p2c_spreads_a_hot_key_across_its_replicas() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 2, 2);
        let c2 = Rc::clone(&client);
        sim.run_main(async move {
            c2.set(b"/hot:0", Bytes::from_static(b"v")).await;
            for _ in 0..64 {
                assert!(c2.get(b"/hot:0").await.is_some());
            }
        });
        // Sequential gets always tie on in-flight load (0 vs 0), so the
        // deterministic coin decides: both replicas must see real traffic
        // instead of daemon 0 eating all 64.
        let g0 = bank.nodes()[0].stats().cmd_get;
        let g1 = bank.nodes()[1].stats().cmd_get;
        assert_eq!(g0 + g1, 64);
        assert!(g0 >= 16 && g1 >= 16, "skewed spread: {g0}/{g1}");
    }

    #[test]
    fn per_daemon_get_counters_expose_load_imbalance() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 2, 1);
        let c2 = Rc::clone(&client);
        sim.run_main(async move {
            c2.set(b"/hot:0", Bytes::from_static(b"v")).await;
            // Single-home: all 10 GETs hammer daemon 0.
            for _ in 0..10 {
                c2.get(b"/hot:0").await;
            }
        });
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
        let c2 = Rc::clone(&client);
        sim.run_main(async move {
            c2.set(b"/k:0", Bytes::from_static(b"old")).await;
            let (v, tok) = fetch_token(&c2, b"/k:0").await.expect("warm key");
            assert_eq!(v, Bytes::from_static(b"old"));
            // Token still current → replaced in place, answering the
            // item's new token.
            let CasVerdict::Stored(next) = c2.cas(b"/k:0", Bytes::from_static(b"new"), tok).await
            else {
                panic!("a current token must store")
            };
            assert_eq!(c2.get(b"/k:0").await.unwrap(), &b"new"[..]);
            // The successful cas bumped the version: the same token is
            // now stale and must conflict, leaving the value untouched.
            assert_eq!(
                c2.cas(b"/k:0", Bytes::from_static(b"zzz"), tok).await,
                CasVerdict::Conflict
            );
            assert_eq!(c2.get(b"/k:0").await.unwrap(), &b"new"[..]);
            // An interleaved plain set also invalidates an issued token.
            let (_, tok2) = fetch_token(&c2, b"/k:0").await.unwrap();
            assert_eq!(tok2.token, next, "the answered token is the held one");
            c2.set(b"/k:0", Bytes::from_static(b"set")).await;
            assert_eq!(
                c2.cas(b"/k:0", Bytes::from_static(b"zzz"), tok2).await,
                CasVerdict::Conflict
            );
            // A vanished key is Missing, not Conflict.
            let (_, tok3) = fetch_token(&c2, b"/k:0").await.unwrap();
            c2.delete(b"/k:0").await;
            assert_eq!(
                c2.cas(b"/k:0", Bytes::from_static(b"zzz"), tok3).await,
                CasVerdict::Missing
            );
            // A token fetch on an absent key is a cold row.
            assert!(fetch_token(&c2, b"/k:0").await.is_none());
        });
        // Token fetches are write-path prep, not gets; every cas counts
        // as a set.
        assert_eq!(counter(&client, "gets"), 2);
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.cas_ops"), Some(4));
        assert_eq!(snap.counter("bank.multi_gets"), Some(4));
        assert_eq!(snap.histogram("bank.get_ns").unwrap().count, 2);
    }

    /// The requests each daemon of `bank` has admitted so far.
    fn requests(bank: &Bank) -> Vec<u64> {
        let snap = imca_metrics::collect_from(bank, "bank");
        (0..bank.nodes().len())
            .map(|i| snap.counter(&format!("bank.mcd.{i}.requests")).unwrap())
            .collect()
    }

    /// `verdicts` with every `Stored` token zeroed: the outcomes alone.
    fn outcomes(verdicts: &[CasVerdict]) -> Vec<CasVerdict> {
        let zeroed = |v: &CasVerdict| match v {
            CasVerdict::Stored(_) => CasVerdict::Stored(0),
            other => *other,
        };
        verdicts.iter().map(zeroed).collect()
    }

    /// Store `0u8` blocks 0..8 of `path` (block `i` on daemon `i % 2` of
    /// a two-daemon modulo bank) and return one CAS item per block that
    /// replaces it with `9u8`, tokens fresh from `gets_for_update`.
    async fn warm_wave(c: &BankClient, path: &str) -> Vec<(Vec<u8>, Bytes, CasToken)> {
        let keys: Vec<Vec<u8>> = (0..8u64).map(|blk| block(path, blk)).collect();
        for key in &keys {
            c.set(key, Bytes::from(vec![0u8; 64])).await;
        }
        let rows = c.gets_for_update(&keys).await;
        keys.into_iter()
            .zip(rows)
            .map(|(key, mut rows)| {
                let (_, tok) = rows.remove(0).1.expect("warm key");
                (key, Bytes::from(vec![9u8; 64]), tok)
            })
            .collect()
    }

    #[test]
    fn cas_blocks_sends_one_frame_per_daemon_and_reads_verdicts_by_position() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = client_over(&sim, 2, &modulo(1));
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        sim.run_main(async move {
            // Items alternate daemons 0, 1, 0, 1, …
            let items = warm_wave(&c2, "/c").await;
            // Plant a conflict on item 2 (daemon 0): re-set its key.
            c2.set(&block("/c", 2), Bytes::from(vec![5u8; 64])).await;
            let before = requests(&b2);
            let verdicts = c2.cas_blocks(items).await;
            let after = requests(&b2);
            assert_eq!(
                [after[0] - before[0], after[1] - before[1]],
                [1, 1],
                "one frame per daemon"
            );
            let mut want = vec![CasVerdict::Stored(0); 8];
            want[2] = CasVerdict::Conflict;
            assert_eq!(outcomes(&verdicts), want, "verdicts in item order");
            // The conflicted key kept the interleaved value; the others
            // carry the replacements.
            assert_eq!(c2.get(&block("/c", 2)).await.unwrap(), &vec![5u8; 64][..]);
            assert_eq!(c2.get(&block("/c", 3)).await.unwrap(), &vec![9u8; 64][..]);
        });
        let snap = imca_metrics::collect_from(&*client, "bank");
        assert_eq!(snap.counter("bank.pipelined_cas"), Some(8));
        assert_eq!(snap.counter("bank.cas_ops"), Some(8));
        assert_eq!(snap.counter("bank.failures"), Some(0));
    }

    #[test]
    fn a_daemon_killed_mid_frame_fails_exactly_its_own_items() {
        // A 500 µs-per-command daemon holds a four-command frame for 2 ms;
        // daemon 1 dies 1 ms into the wave, while serving it.
        let mut sim = Sim::new(0);
        let cfg = ImcaConfig {
            mcd_costs: McdCosts {
                per_op: SimDuration::micros(500),
                ..McdCosts::default()
            },
            ..modulo(1)
        };
        let (net, bank, client) = client_over(&sim, 2, &cfg);
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        let h = net.handle();
        let verdicts = sim.run_main(async move {
            let items = warm_wave(&c2, "/k").await;
            h.spawn({
                let h = h.clone();
                async move {
                    h.sleep(SimDuration::millis(1)).await;
                    b2.kill(1);
                }
            });
            c2.cas_blocks(items).await
        });
        let want: Vec<CasVerdict> = (0..8)
            .map(|i| match i % 2 {
                0 => CasVerdict::Stored(0),
                _ => CasVerdict::Failed,
            })
            .collect();
        assert_eq!(outcomes(&verdicts), want);
        assert_eq!(counter(&client, "failures"), 4, "daemon 1's items only");
        assert!(bank.nodes()[1].is_quarantined());
        assert!(!bank.nodes()[0].is_quarantined());
    }

    #[test]
    fn gets_for_update_collects_tokens_per_replica_and_cas_updates_all() {
        let mut sim = Sim::new(0);
        let (_net, bank, client) = replicated_setup(&sim, 4, 2);
        let c2 = Rc::clone(&client);
        let b2 = Rc::clone(&bank);
        sim.run_main(async move {
            c2.set(b"/f:0", Bytes::from_static(b"aa")).await;
            let rows = c2.gets_for_update(&[b"/f:0".to_vec()]).await;
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
            // One frame to each token's daemon, none elsewhere.
            let before = requests(&b2);
            let verdicts = c2.cas_blocks(items.clone()).await;
            assert_eq!(outcomes(&verdicts), [CasVerdict::Stored(0); 2]);
            let after = requests(&b2);
            let sent: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            assert_eq!(sent, [1, 1, 0, 0]);
            // Replayed, the spent tokens conflict on both replicas.
            let verdicts = c2.cas_blocks(items).await;
            assert_eq!(verdicts, [CasVerdict::Conflict; 2]);
        });
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
        for via in [Via::Get, Via::Multi] {
            let mut sim = Sim::new(0);
            // queue_limit 0: every read is shed at the door; writes always land.
            let mcd_costs = McdCosts {
                queue_limit: Some(0),
                ..McdCosts::default()
            };
            let cfg = ImcaConfig {
                mcd_costs,
                ..ImcaConfig::default()
            };
            let (_net, bank, client) = client_over(&sim, 1, &cfg);
            let c2 = Rc::clone(&client);
            sim.run_main(async move {
                c2.set(b"/k:stat", Bytes::from_static(b"v")).await;
                assert!(
                    read_via(&c2, via, b"/k:stat").await.is_none(),
                    "shed read must degrade to a local miss"
                );
                // The write path's token fetch is admitted like a write: a
                // refusal would read as "nothing cached here to replace"
                // and leave the old block behind.
                let (v, tok) = fetch_token(&c2, b"/k:stat")
                    .await
                    .expect("admission control must not shed a token fetch");
                assert_eq!(v, Bytes::from_static(b"v"));
                let verdict = c2.cas(b"/k:stat", Bytes::from_static(b"w"), tok).await;
                assert!(matches!(verdict, CasVerdict::Stored(_)));
            });
            assert_eq!(
                counters(&*client, ["sets", "gets", "hits", "misses"]),
                [2, 1, 0, 1],
                "{via:?}"
            );
            // Not a timeout, not a failure: an explicit busy reply.
            assert_eq!(counter(&client, "failures"), 0);
            let snap = imca_metrics::collect_from(&*client, "bank");
            assert_eq!(snap.counter("bank.busy_sheds"), Some(1), "{via:?}");
            assert_eq!(snap.counter("bank.degraded_misses"), Some(1), "{via:?}");
            assert_eq!(snap.counter("bank.rpc_timeouts"), Some(0));
            let snap = imca_metrics::collect_from(&*bank, "bank");
            assert_eq!(snap.counter("bank.mcd.0.sheds"), Some(1));
            assert_eq!(snap.counter("bank.per_daemon.0.sheds"), Some(1));
            // The value survived — admission control never sheds writes.
            assert_eq!(
                bank.nodes()[0]
                    .server()
                    .store()
                    .get(b"/k:stat", 0)
                    .map(|v| v.value.clone()),
                Some(Bytes::from_static(b"w"))
            );
        }
    }
}

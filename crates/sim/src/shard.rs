//! Sharded parallel execution of deterministic simulations.
//!
//! [`ParSim`] partitions a simulation into shards — independent [`Sim`]
//! cores, each confined to one worker thread — that exchange messages only
//! through [`ShardComms`] with a fixed minimum latency (the *lookahead*).
//! Execution proceeds in barrier-synchronised epochs, the classic
//! conservative (Chandy–Misra style) scheme:
//!
//! 1. A coordinator computes `horizon = min(next event anywhere) + lookahead`.
//! 2. Cross-shard messages with `at < horizon` are handed to their
//!    destination shards, **sorted by the canonical key `(at, src, seq)`**.
//! 3. Every shard runs all its events in `[.., horizon)` in parallel.
//! 4. Newly sent messages are collected and the cycle repeats.
//!
//! Because a message sent at time `t` arrives no earlier than
//! `t + lookahead`, and every event executed in an epoch has `t ≥` the
//! global minimum, no message can arrive inside the epoch that produced
//! it — shards never see the past change. The canonical handoff sort is
//! what makes the result *bit-identical regardless of worker count*:
//! workers append their shards' outboxes to the coordinator's pending list
//! in whatever order threads finish, but `(src, seq)` is unique per
//! message, so the sort erases that scheduling noise before any shard can
//! observe it. `workers = 1` and `workers = 8` replay the same trace.
//!
//! Within a shard the ordinary engine rules apply (total event order
//! `(at, node, seq)`); delivery pumps run on the reserved node
//! [`NET_NODE`], which orders after every model node at the same instant.
//!
//! Models are built *on* their worker thread (shard state is `Rc`-based
//! and never crosses threads): [`ParSim::add_shard`] takes a `Send`
//! constructor closure that receives a [`ShardCtx`] and returns a
//! finisher closure producing the shard's output (any `Send` value, e.g.
//! a metrics snapshot), which is the only data that crosses back.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use crate::det;
use crate::sim::{RunSummary, Sim, SimHandle};
use crate::sync::Queue;
use crate::time::{SimDuration, SimTime};
use crate::wheel::Scheduler;

/// Node tag of the cross-shard delivery pumps. `u32::MAX` sorts after
/// every model node, so a delivery at tick `t` lands after model timers
/// at `t` — stable no matter how shards are assigned to workers.
pub const NET_NODE: u32 = u32::MAX;

type ShardOutput = Box<dyn Any + Send>;
type Finisher = Box<dyn FnOnce() -> ShardOutput>;
type ShardBuilder = Box<dyn FnOnce(&ShardCtx) -> Finisher + Send>;

/// A cross-shard message in flight.
struct Parcel {
    at: SimTime,
    dst: usize,
    src: usize,
    seq: u64,
    payload: Box<dyn Any + Send>,
}

/// A message delivered to a shard's inbox.
pub struct Envelope {
    /// Index of the sending shard.
    pub src: usize,
    /// Virtual time the message arrived (the receiver's `now`).
    pub at: SimTime,
    payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// Downcast the payload to its concrete type.
    ///
    /// # Panics
    /// Panics if the payload is not a `T`.
    pub fn open<T: Any>(self) -> T {
        *self
            .payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("envelope payload is not a {}", std::any::type_name::<T>()))
    }

    /// Whether the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.payload.is::<T>()
    }
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("src", &self.src)
            .field("at", &self.at)
            .finish()
    }
}

struct CommsInner {
    shard: usize,
    shards: usize,
    lookahead: SimDuration,
    handle: SimHandle,
    seq: Cell<u64>,
    /// Messages bound for other shards; drained by the epoch loop.
    outbox: RefCell<Vec<Parcel>>,
    /// Same-shard sends at exactly `now + lookahead`: arrival times are
    /// monotone in send order, so a FIFO pump preserves the canonical
    /// order without going through the coordinator.
    loopback: Queue<Parcel>,
    inbox: Queue<Envelope>,
}

/// A shard's endpoint for cross-shard messaging. Cloneable; all clones
/// share the shard's outbox and inbox.
#[derive(Clone)]
pub struct ShardComms {
    inner: Rc<CommsInner>,
}

impl ShardComms {
    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.inner.shard
    }

    /// Total number of shards in the simulation.
    pub fn shards(&self) -> usize {
        self.inner.shards
    }

    /// The minimum cross-shard latency.
    pub fn lookahead(&self) -> SimDuration {
        self.inner.lookahead
    }

    /// Send `payload` to shard `dst`, arriving after the lookahead.
    pub fn send<P: Any + Send>(&self, dst: usize, payload: P) {
        let at = self.inner.handle.now() + self.inner.lookahead;
        self.send_boxed(dst, at, Box::new(payload));
    }

    /// Send `payload` to shard `dst`, arriving at `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than `now + lookahead` — conservative
    /// synchronisation relies on that minimum latency.
    pub fn send_at<P: Any + Send>(&self, dst: usize, at: SimTime, payload: P) {
        self.send_boxed(dst, at, Box::new(payload));
    }

    fn send_boxed(&self, dst: usize, at: SimTime, payload: Box<dyn Any + Send>) {
        let inner = &self.inner;
        assert!(dst < inner.shards, "shard {dst} out of range");
        let earliest = inner.handle.now() + inner.lookahead;
        assert!(
            at >= earliest,
            "cross-shard send at {at} violates lookahead (earliest {earliest})"
        );
        let seq = inner.seq.get();
        inner.seq.set(seq + 1);
        let parcel = Parcel {
            at,
            dst,
            src: inner.shard,
            seq,
            payload,
        };
        if dst == inner.shard && at == earliest {
            inner.loopback.push(parcel);
        } else {
            inner.outbox.borrow_mut().push(parcel);
        }
    }

    /// Receive the next message. Resolves to `None` only if the inbox is
    /// closed (which `ParSim` never does — receiver loops simply remain
    /// blocked at the end of the run and are dropped).
    pub async fn recv(&self) -> Option<Envelope> {
        self.inner.inbox.recv().await
    }

    /// Number of messages waiting in the inbox.
    pub fn inbox_len(&self) -> usize {
        self.inner.inbox.len()
    }
}

impl std::fmt::Debug for ShardComms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardComms")
            .field("shard", &self.inner.shard)
            .field("shards", &self.inner.shards)
            .finish()
    }
}

/// What a shard constructor gets to work with: the shard's own simulation
/// handle and its comms endpoint.
pub struct ShardCtx {
    handle: SimHandle,
    comms: ShardComms,
}

impl ShardCtx {
    /// The shard's simulation handle (spawn, sleep, rng).
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// The shard's comms endpoint.
    pub fn comms(&self) -> ShardComms {
        self.comms.clone()
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.comms.shard()
    }

    /// Total number of shards.
    pub fn shards(&self) -> usize {
        self.comms.shards()
    }
}

/// Builder/runner for a sharded parallel simulation. See the module docs
/// for the synchronisation scheme.
///
/// ```
/// use imca_sim::{ParSim, SimDuration};
///
/// let mut par = ParSim::new(7).lookahead(SimDuration::micros(1)).workers(2);
/// for _ in 0..2 {
///     par.add_shard(|ctx| {
///         let h = ctx.handle();
///         let comms = ctx.comms();
///         let peer = (ctx.shard() + 1) % ctx.shards();
///         h.spawn(async move {
///             comms.send(peer, 42u32);
///             let got = comms.recv().await.unwrap().open::<u32>();
///             assert_eq!(got, 42);
///         });
///         let h2 = ctx.handle();
///         move || h2.now().as_nanos()
///     });
/// }
/// let mut summary = par.run();
/// assert_eq!(summary.take::<u64>(0), 1_000);
/// ```
pub struct ParSim {
    seed: u64,
    lookahead: SimDuration,
    workers: usize,
    scheduler: Scheduler,
    builders: Vec<ShardBuilder>,
}

/// Aggregated result of a [`ParSim`] run.
pub struct ParSummary {
    /// Latest virtual end time across shards.
    pub end_time: SimTime,
    /// Task polls summed over shards.
    pub events: u64,
    /// Tasks spawned, summed over shards.
    pub tasks_spawned: u64,
    /// Tasks still blocked at the end, summed over shards.
    pub tasks_leaked: u64,
    /// Number of barrier epochs executed.
    pub epochs: u64,
    /// Per-shard run summaries, indexed by shard.
    pub shards: Vec<RunSummary>,
    outputs: Vec<Option<ShardOutput>>,
}

impl ParSummary {
    /// Take shard `shard`'s output, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if already taken or if the output is not a `T`.
    pub fn take<T: Any>(&mut self, shard: usize) -> T {
        *self.outputs[shard]
            .take()
            .expect("shard output already taken")
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("shard output is not a {}", std::any::type_name::<T>()))
    }
}

impl std::fmt::Debug for ParSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParSummary")
            .field("end_time", &self.end_time)
            .field("events", &self.events)
            .field("epochs", &self.epochs)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// splitmix64-style mix so per-shard RNG streams are independent of shard
/// count and worker assignment.
fn mix_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Coordinator state shared by the workers (locked only between epochs).
struct Coord {
    pending: Vec<Parcel>,
    next_times: Vec<Option<u64>>,
    batches: Vec<Vec<Parcel>>,
    horizon: u64,
    done: bool,
    poisoned: bool,
    epochs: u64,
}

/// Recover from lock poisoning: a panicking worker already set the
/// `poisoned` flag, and hanging the barrier would turn one failed test
/// into a wedged suite.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ParSim {
    /// Create a builder. Defaults: 1 worker, 1 µs lookahead, the default
    /// scheduler.
    pub fn new(seed: u64) -> ParSim {
        ParSim {
            seed,
            lookahead: SimDuration::micros(1),
            workers: 1,
            scheduler: Scheduler::default(),
            builders: Vec::new(),
        }
    }

    /// Set the cross-shard lookahead (minimum message latency). Must be
    /// positive; larger values mean fewer barriers.
    pub fn lookahead(mut self, d: SimDuration) -> ParSim {
        assert!(d.as_nanos() > 0, "lookahead must be positive");
        self.lookahead = d;
        self
    }

    /// Set the number of worker threads. The trace is identical for every
    /// value; this only changes wall-clock behaviour.
    pub fn workers(mut self, workers: usize) -> ParSim {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Set the worker count from `IMCA_SIM_WORKERS` if present (used by CI
    /// to pin the parallel path), else `default`.
    ///
    /// # Panics
    /// Panics if the variable is set but is not a positive integer. A CI
    /// job that exports `IMCA_SIM_WORKERS=two` (or `0`) believes it pinned
    /// the parallel path; silently falling back to `default` would let the
    /// suite pass without ever exercising it.
    pub fn workers_from_env(self, default: usize) -> ParSim {
        let workers = match std::env::var("IMCA_SIM_WORKERS") {
            Err(std::env::VarError::NotPresent) => default,
            Err(e) => panic!("IMCA_SIM_WORKERS is not valid unicode: {e}"),
            Ok(v) => match v.parse::<usize>() {
                Ok(w) if w >= 1 => w,
                _ => panic!("IMCA_SIM_WORKERS must be a positive integer, got {v:?}"),
            },
        };
        self.workers(workers)
    }

    /// Set the timer back-end used by every shard.
    pub fn scheduler(mut self, scheduler: Scheduler) -> ParSim {
        self.scheduler = scheduler;
        self
    }

    /// Number of shards added so far.
    pub fn shards(&self) -> usize {
        self.builders.len()
    }

    /// Add a shard. `build` runs on the shard's worker thread with the
    /// shard's [`ShardCtx`]; it wires up the model (spawning processes on
    /// the shard's handle) and returns a finisher that produces the
    /// shard's output once the run is over. Returns the shard's index.
    pub fn add_shard<T, G, B>(&mut self, build: B) -> usize
    where
        T: Any + Send,
        G: FnOnce() -> T + 'static,
        B: FnOnce(&ShardCtx) -> G + Send + 'static,
    {
        let idx = self.builders.len();
        self.builders.push(Box::new(move |ctx| {
            let finish = build(ctx);
            Box::new(move || Box::new(finish()) as ShardOutput) as Finisher
        }));
        idx
    }

    /// Run the simulation to global quiescence.
    pub fn run(self) -> ParSummary {
        let shards = self.builders.len();
        assert!(shards > 0, "ParSim::run with no shards");
        let workers = self.workers.min(shards);
        let lookahead = self.lookahead;
        let seed = self.seed;
        let scheduler = self.scheduler;

        let coord = Mutex::new(Coord {
            pending: Vec::new(),
            next_times: vec![None; shards],
            batches: (0..shards).map(|_| Vec::new()).collect(),
            horizon: 0,
            done: false,
            poisoned: false,
            epochs: 0,
        });
        let barrier = Barrier::new(workers);
        type SlotResult = (usize, RunSummary, Option<ShardOutput>);
        let results: Mutex<Vec<SlotResult>> = Mutex::new(Vec::new());

        let mut per_worker: Vec<Vec<(usize, ShardBuilder)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (idx, builder) in self.builders.into_iter().enumerate() {
            per_worker[idx % workers].push((idx, builder));
        }

        std::thread::scope(|scope| {
            let handles: Vec<_> = per_worker
                .into_iter()
                .enumerate()
                .map(|(wid, own)| {
                    let coord = &coord;
                    let barrier = &barrier;
                    let results = &results;
                    scope.spawn(move || {
                        worker_main(
                            wid, own, shards, seed, scheduler, lookahead, coord, barrier, results,
                        )
                    })
                })
                .collect();
            // Join manually so the original panic payload (a model bug,
            // e.g. an assert in a task) surfaces instead of the generic
            // "a scoped thread panicked".
            let mut first_panic = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
        });

        let mut slots = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        slots.sort_by_key(|(idx, _, _)| *idx);
        let coord = coord.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut summary = ParSummary {
            end_time: SimTime::ZERO,
            events: 0,
            tasks_spawned: 0,
            tasks_leaked: 0,
            epochs: coord.epochs,
            shards: Vec::with_capacity(shards),
            outputs: Vec::with_capacity(shards),
        };
        for (_, s, out) in slots {
            summary.end_time = summary.end_time.max(s.end_time);
            summary.events += s.events;
            summary.tasks_spawned += s.tasks_spawned;
            summary.tasks_leaked += s.tasks_leaked;
            summary.shards.push(s);
            summary.outputs.push(out);
        }
        summary
    }
}

/// A shard's runtime state, confined to its worker thread.
struct ShardRt {
    idx: usize,
    sim: Sim,
    comms: ShardComms,
    finisher: Option<Finisher>,
}

fn build_shard(
    idx: usize,
    shards: usize,
    seed: u64,
    scheduler: Scheduler,
    lookahead: SimDuration,
    builder: ShardBuilder,
) -> ShardRt {
    let sim = Sim::with_scheduler(mix_seed(seed, idx as u64), scheduler);
    let handle = sim.handle();
    let comms = ShardComms {
        inner: Rc::new(CommsInner {
            shard: idx,
            shards,
            lookahead,
            handle: handle.clone(),
            seq: Cell::new(0),
            outbox: RefCell::new(Vec::new()),
            loopback: Queue::new(),
            inbox: Queue::new(),
        }),
    };
    // The loopback pump: same-shard sends arrive exactly one lookahead
    // later, so arrival times are monotone in send order and FIFO
    // delivery preserves the canonical order.
    let pump = comms.clone();
    let ph = handle.clone();
    handle.spawn_on(NET_NODE, async move {
        while let Some(p) = pump.inner.loopback.recv().await {
            ph.sleep_until(p.at).await;
            pump.inner.inbox.push(Envelope {
                src: p.src,
                at: p.at,
                payload: p.payload,
            });
        }
    });
    let finisher = builder(&ShardCtx {
        handle,
        comms: comms.clone(),
    });
    ShardRt {
        idx,
        sim,
        comms,
        finisher: Some(finisher),
    }
}

/// One shard's share of an epoch: inject this epoch's deliveries, run the
/// window, drain the outbox. Returns the shard's next event time and its
/// outgoing parcels.
fn run_epoch(shard: &mut ShardRt, batch: Vec<Parcel>, horizon: u64) -> (Option<u64>, Vec<Parcel>) {
    if !batch.is_empty() {
        det::debug_assert_canonical(&batch, |p| (p.at.0, p.src, p.seq));
        let inbox = shard.comms.clone();
        let handle = shard.sim.handle();
        let h2 = handle.clone();
        handle.spawn_on(NET_NODE, async move {
            for p in batch {
                h2.sleep_until(p.at).await;
                inbox.inner.inbox.push(Envelope {
                    src: p.src,
                    at: p.at,
                    payload: p.payload,
                });
            }
        });
    }
    shard.sim.run_window(SimTime(horizon));
    let outs = std::mem::take(&mut *shard.comms.inner.outbox.borrow_mut());
    (shard.sim.next_event_time().map(|t| t.0), outs)
}

/// Decide the next epoch (or the end of the run) from global state.
/// Runs on worker 0 between the epoch barriers.
fn compute_epoch(c: &mut Coord, lookahead: SimDuration) {
    if c.poisoned {
        c.done = true;
        return;
    }
    let min_next = c.next_times.iter().flatten().copied().min();
    let min_msg = c.pending.iter().map(|p| p.at.0).min();
    let m = match (min_next, min_msg) {
        (None, None) => {
            c.done = true;
            return;
        }
        (a, b) => a.into_iter().chain(b).min().unwrap(),
    };
    let horizon = m
        .checked_add(lookahead.as_nanos())
        .expect("virtual-time overflow computing epoch horizon");
    c.horizon = horizon;
    let pending = std::mem::take(&mut c.pending);
    for p in pending {
        if p.at.0 < horizon {
            c.batches[p.dst].push(p);
        } else {
            c.pending.push(p);
        }
    }
    for batch in &mut c.batches {
        // (src, seq) is unique per message, so this sort is total: the
        // thread-timing order in which workers appended to `pending`
        // cannot leak into what shards observe.
        batch.sort_unstable_by_key(|p| (p.at.0, p.src, p.seq));
    }
    c.epochs += 1;
}

#[allow(clippy::too_many_arguments)]
fn worker_main(
    wid: usize,
    own: Vec<(usize, ShardBuilder)>,
    shards: usize,
    seed: u64,
    scheduler: Scheduler,
    lookahead: SimDuration,
    coord: &Mutex<Coord>,
    barrier: &Barrier,
    results: &Mutex<Vec<(usize, RunSummary, Option<ShardOutput>)>>,
) {
    // Build on this thread (shard state never crosses threads). A panic
    // here or in an epoch must not strand peers at the barrier: record it,
    // poison the run, keep participating until everyone agrees to stop,
    // then re-raise.
    let mut panic_payload: Option<Box<dyn Any + Send>> = None;
    let mut my_shards: Vec<ShardRt> = match catch_unwind(AssertUnwindSafe(|| {
        own.into_iter()
            .map(|(idx, b)| build_shard(idx, shards, seed, scheduler, lookahead, b))
            .collect::<Vec<_>>()
    })) {
        Ok(built) => built,
        Err(payload) => {
            lock(coord).poisoned = true;
            panic_payload = Some(payload);
            Vec::new()
        }
    };
    {
        let mut c = lock(coord);
        for sh in &my_shards {
            c.next_times[sh.idx] = sh.sim.next_event_time().map(|t| t.0);
        }
    }

    loop {
        barrier.wait();
        if wid == 0 {
            compute_epoch(&mut lock(coord), lookahead);
        }
        barrier.wait();
        let (done, horizon, batches) = {
            let mut c = lock(coord);
            let batches: Vec<Vec<Parcel>> = my_shards
                .iter()
                .map(|sh| std::mem::take(&mut c.batches[sh.idx]))
                .collect();
            (c.done, c.horizon, batches)
        };
        if done {
            break;
        }
        if panic_payload.is_some() {
            continue; // already failed; just keep the barriers balanced
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut posts: Vec<(usize, Option<u64>)> = Vec::with_capacity(my_shards.len());
            let mut sent: Vec<Parcel> = Vec::new();
            for (sh, batch) in my_shards.iter_mut().zip(batches) {
                let (next, outs) = run_epoch(sh, batch, horizon);
                posts.push((sh.idx, next));
                sent.extend(outs);
            }
            (posts, sent)
        }));
        match outcome {
            Ok((posts, sent)) => {
                let mut c = lock(coord);
                for (idx, next) in posts {
                    c.next_times[idx] = next;
                }
                c.pending.extend(sent);
            }
            Err(payload) => {
                lock(coord).poisoned = true;
                panic_payload = Some(payload);
            }
        }
    }

    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    for mut sh in my_shards {
        let out = sh.finisher.take().map(|f| f());
        let summary = sh.sim.summary();
        lock(results).push((sh.idx, summary, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong between shards, returning a per-shard trace of
    /// (virtual time, payload) pairs.
    fn ping_pong(seed: u64, workers: usize, shards: usize) -> (Vec<Vec<(u64, u64)>>, ParSummary) {
        let mut par = ParSim::new(seed)
            .lookahead(SimDuration::micros(2))
            .workers(workers);
        for _ in 0..shards {
            par.add_shard(move |ctx| {
                let h = ctx.handle();
                let comms = ctx.comms();
                let me = ctx.shard();
                let n = ctx.shards();
                let log = Rc::new(RefCell::new(Vec::new()));
                let log2 = Rc::clone(&log);
                h.spawn(async move {
                    if me == 0 {
                        comms.send((me + 1) % n, 0u64);
                    }
                    while let Some(env) = comms.recv().await {
                        let at = env.at.0;
                        let v = env.open::<u64>();
                        log2.borrow_mut().push((at, v));
                        if v < 20 {
                            comms.send((me + 1) % n, v + 1);
                        }
                    }
                });
                // The receiver task is still blocked (and thus alive) when
                // the finisher runs, so clone rather than unwrap the Rc.
                move || log.borrow().clone()
            });
        }
        let mut summary = par.run();
        let traces = (0..shards)
            .map(|i| summary.take::<Vec<(u64, u64)>>(i))
            .collect();
        (traces, summary)
    }

    #[test]
    fn cross_shard_messages_respect_lookahead_timing() {
        let (traces, summary) = ping_pong(1, 1, 2);
        // 21 hops at 2 µs each.
        assert_eq!(summary.end_time.0, 21 * 2_000);
        let total: usize = traces.iter().map(Vec::len).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn worker_count_does_not_change_the_trace() {
        let (t1, s1) = ping_pong(42, 1, 4);
        for workers in [2, 4, 8] {
            let (tw, sw) = ping_pong(42, workers, 4);
            assert_eq!(t1, tw, "trace diverged at workers={workers}");
            assert_eq!(s1.end_time, sw.end_time);
            assert_eq!(s1.events, sw.events);
            assert_eq!(s1.shards, sw.shards);
        }
    }

    #[test]
    fn single_shard_loopback_delivers_in_order() {
        let mut par = ParSim::new(9).lookahead(SimDuration::micros(1));
        par.add_shard(|ctx| {
            let h = ctx.handle();
            let comms = ctx.comms();
            let seen = Rc::new(RefCell::new(Vec::new()));
            let seen2 = Rc::clone(&seen);
            let c2 = comms.clone();
            h.spawn(async move {
                for i in 0..5u64 {
                    c2.send(0, i);
                }
                while let Some(env) = c2.recv().await {
                    seen2.borrow_mut().push(env.open::<u64>());
                    if seen2.borrow().len() == 5 {
                        break;
                    }
                }
            });
            move || seen.borrow().clone()
        });
        let mut s = par.run();
        assert_eq!(s.take::<Vec<u64>>(0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn send_below_lookahead_is_rejected() {
        let mut par = ParSim::new(0).lookahead(SimDuration::micros(5));
        par.add_shard(|ctx| {
            let h = ctx.handle();
            let comms = ctx.comms();
            h.spawn(async move {
                comms.send_at(0, SimTime(10), ()); // < lookahead
            });
            || ()
        });
        par.run();
    }

    #[test]
    fn per_shard_rngs_are_independent_of_worker_count() {
        fn draws(workers: usize) -> Vec<u64> {
            let mut par = ParSim::new(5).workers(workers);
            for _ in 0..3 {
                par.add_shard(|ctx| {
                    let h = ctx.handle();
                    move || (0..4).map(|_| h.rng_u64()).collect::<Vec<u64>>()
                });
            }
            let mut s = par.run();
            (0..3).flat_map(|i| s.take::<Vec<u64>>(i)).collect()
        }
        assert_eq!(draws(1), draws(3));
    }

    /// One test covers every `IMCA_SIM_WORKERS` shape because the process
    /// environment is shared mutable state — splitting the cases into
    /// separate `#[test]`s would race under the parallel test runner.
    #[test]
    fn workers_from_env_is_strict_about_malformed_values() {
        const VAR: &str = "IMCA_SIM_WORKERS";
        // Unset: fall back to the explicit default.
        std::env::remove_var(VAR);
        assert_eq!(ParSim::new(0).workers_from_env(3).workers, 3);
        // Well-formed: the variable wins.
        std::env::set_var(VAR, "2");
        assert_eq!(ParSim::new(0).workers_from_env(3).workers, 2);
        // Malformed or zero: refuse loudly instead of silently running the
        // serial path CI believed it had overridden.
        for bad in ["two", "0", "-1", "1.5", ""] {
            std::env::set_var(VAR, bad);
            let got = catch_unwind(AssertUnwindSafe(|| {
                ParSim::new(0).workers_from_env(3);
            }));
            assert!(got.is_err(), "value {bad:?} must panic");
        }
        std::env::remove_var(VAR);
    }
}

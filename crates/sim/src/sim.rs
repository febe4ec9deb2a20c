//! The discrete-event simulation core: a deterministic, single-threaded
//! async executor whose notion of time is a virtual clock.
//!
//! Model code is written as ordinary `async` functions ("processes" in DES
//! terminology). A process suspends either on a timer ([`SimHandle::sleep`])
//! or on a synchronisation primitive from [`crate::sync`]; the executor runs
//! whichever process is ready, and when nothing is ready it advances the
//! virtual clock to the next pending timer. Two runs with the same seed and
//! the same model code produce bit-identical traces.
//!
//! Events have a total order `(at, seq)`: virtual time first, then the
//! order in which the timers were registered.
//!
//! Timers are stored in a hierarchical timer wheel by default; the global
//! `BinaryHeap` remains available via [`Sim::with_scheduler`] as the
//! wheel's reference model (see [`crate::Scheduler`]).
//!
//! The simulation ends when no task is runnable and no timer is pending.
//! Tasks still blocked at that point (e.g. server actors waiting for
//! requests that will never come) are simply dropped — this is the normal
//! way a simulation terminates.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use rand::rngs::SmallRng;
use rand::{Rng as _, RngCore, SeedableRng};

use crate::time::{SimDuration, SimTime};
use crate::wheel::{Scheduler, TimerId, TimerQueue};

type TaskId = u64;
type BoxedTask = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// Where a simulation's wakes queue up for polling.
///
/// A wake made on the thread that is running this simulation's loop —
/// every spawn, timer fire and waker wake inside a run — goes to the
/// thread's [`LocalQueue`], with no lock. Every other wake (from another
/// thread, or between runs) goes to `queue` behind a real lock, because
/// `std::task::Waker` must be `Send + Sync` by contract; the run loop
/// takes those first.
#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<TaskId>>,
    /// Whether `queue` holds anything, written under its lock. It lets the
    /// drain that finds nothing — nearly every one — skip the lock.
    /// `Relaxed` is enough: the flag publishes no data (the ids are read
    /// under the lock), and a wake that happens-before a drain is seen by
    /// it under any ordering.
    non_empty: AtomicBool,
}

const POISONED: &str = "ready queue lock poisoned by a panicking waker";

impl ReadyQueue {
    /// Which simulation this queue belongs to, as [`LocalQueue::owner`].
    fn key(&self) -> usize {
        self as *const ReadyQueue as usize
    }

    /// Queue `id` for polling.
    fn push(&self, id: TaskId) {
        let key = self.key();
        let queued_locally = LOCAL
            .try_with(|local| {
                let mut local = local.borrow_mut();
                let mine = local.owner == key;
                if mine {
                    local.ids.push_back(id);
                }
                mine
            })
            .unwrap_or(false);
        if !queued_locally {
            let mut queue = self.queue.lock().expect(POISONED);
            queue.push_back(id);
            self.non_empty.store(true, Ordering::Relaxed);
        }
    }

    fn pop(&self) -> Option<TaskId> {
        let mut queue = self.queue.lock().expect(POISONED);
        let id = queue.pop_front();
        self.non_empty.store(!queue.is_empty(), Ordering::Relaxed);
        id
    }

    /// Exchange the locked queue's contents with `batch` (which must be
    /// empty): one lock acquisition hands the whole set to the caller.
    fn swap_into(&self, batch: &mut VecDeque<TaskId>) {
        debug_assert!(batch.is_empty());
        if !self.non_empty.load(Ordering::Relaxed) {
            return;
        }
        let mut queue = self.queue.lock().expect(POISONED);
        std::mem::swap(&mut *queue, batch);
        self.non_empty.store(false, Ordering::Relaxed);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalQueue> = const {
        RefCell::new(LocalQueue {
            owner: 0,
            ids: VecDeque::new(),
        })
    };
}

/// The lock-free run queue of the simulation whose run loop is on this
/// thread: the usual local run queue of a single-threaded executor.
#[derive(Default)]
struct LocalQueue {
    /// [`ReadyQueue::key`] of the running simulation; 0 when none runs.
    owner: usize,
    ids: VecDeque<TaskId>,
}

/// A run in progress: makes `core`'s simulation the thread's running one
/// for as long as it lives, lending it `core.idle` as the local queue,
/// and restores what ran before (a simulation run from inside another's
/// task) when dropped.
struct Running<'a> {
    core: &'a Core,
    outer: LocalQueue,
}

impl<'a> Running<'a> {
    fn enter(core: &'a Core) -> Running<'a> {
        let mine = LocalQueue {
            owner: core.ready.key(),
            ids: core.idle.take(),
        };
        Running {
            core,
            outer: LOCAL.with(|local| local.replace(mine)),
        }
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let mine = LOCAL.with(|local| local.replace(std::mem::take(&mut self.outer)));
        self.core.idle.replace(mine.ids);
    }
}

/// Waker target: wakes one task by id. A slot's waker is re-aimed at the
/// slot's next task when no clone of it is left (see [`Slab::insert`]).
struct TaskWaker {
    /// `Relaxed` is enough: it publishes no other data, and it is written
    /// only while the slab holds the sole reference, so no wake can race
    /// the write.
    id: AtomicU64,
    ready: Arc<ReadyQueue>,
}

impl std::task::Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id.load(Ordering::Relaxed));
    }
}

/// A stored task with the waker it is polled with.
struct SlabTask {
    fut: BoxedTask,
    waker: Waker,
}

/// A generation-checked slab slot. `gen` is bumped when the occupying
/// task completes, so a stale wake carrying the old id misses without a
/// hash lookup: the id encodes `(gen << 32) | slot` and a mismatch means
/// "already gone".
struct Slot {
    gen: u32,
    task: Option<SlabTask>,
    /// The target of the slot's waker, kept after its task completes.
    waker: Option<Arc<TaskWaker>>,
}

/// The executor's task store: O(1) index-based take/put per poll, plus a
/// free list so task ids stay dense and slot memory is reused.
#[derive(Default)]
struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: u64,
}

impl Slab {
    /// Store a new task and return its id. A reissued slot re-aims its
    /// waker when the previous task left no clone of it behind (a clone
    /// would then wake the new task); otherwise the slot gets a new one.
    fn insert(&mut self, fut: BoxedTask, ready: &Arc<ReadyQueue>) -> TaskId {
        let index = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    task: None,
                    waker: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[index as usize];
        let id = ((slot.gen as u64) << 32) | index as u64;
        let target = match &slot.waker {
            Some(w) if Arc::strong_count(w) == 1 => {
                w.id.store(id, Ordering::Relaxed);
                Arc::clone(w)
            }
            _ => {
                let w = Arc::new(TaskWaker {
                    id: AtomicU64::new(id),
                    ready: Arc::clone(ready),
                });
                slot.waker = Some(Arc::clone(&w));
                w
            }
        };
        debug_assert!(slot.task.is_none(), "double fill");
        slot.task = Some(SlabTask {
            fut,
            waker: Waker::from(target),
        });
        self.live += 1;
        id
    }

    /// Take the task out for polling; `None` for stale ids (generation
    /// mismatch or already-completed slot).
    #[inline]
    fn take(&mut self, id: TaskId) -> Option<SlabTask> {
        let slot = self.slots.get_mut((id & 0xffff_ffff) as usize)?;
        if slot.gen as u64 != id >> 32 {
            return None;
        }
        slot.task.take()
    }

    #[inline]
    fn put_back(&mut self, id: TaskId, task: SlabTask) {
        self.slots[(id & 0xffff_ffff) as usize].task = Some(task);
    }

    /// Retire a completed task's slot: bump the generation (invalidating
    /// any queued wakes for the old id) and recycle the index.
    fn release(&mut self, id: TaskId) {
        let slot_idx = (id & 0xffff_ffff) as u32;
        let slot = &mut self.slots[slot_idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.live -= 1;
        self.free.push(slot_idx);
    }
}

pub(crate) struct Core {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    timers: RefCell<TimerQueue>,
    ready: Arc<ReadyQueue>,
    slab: RefCell<Slab>,
    /// The task being polled: the one a `Delay` registers its timer for.
    current: Cell<TaskId>,
    /// The batched ready drain's buffer. It trades buffers with the
    /// local queue, and both keep their capacity, so waking never
    /// allocates in steady state.
    batch: RefCell<VecDeque<TaskId>>,
    /// The local queue's buffer while this simulation is not running.
    idle: RefCell<VecDeque<TaskId>>,
    rng: RefCell<SmallRng>,
    events: Cell<u64>,
    spawned_total: Cell<u64>,
}

impl Core {
    fn drain_ready(&self) {
        // Polls (and the task drops they may trigger) run with the slab
        // unborrowed — take the task out by index, poll, put it back — so
        // model code can spawn mid-poll and insert directly.
        let mut batch = self.batch.borrow_mut();
        loop {
            // Wakes from before this run or from other threads first, then
            // this thread's. A batch is a prefix snapshot: wakes made while
            // it drains land behind it, in the order one FIFO would give.
            self.ready.swap_into(&mut batch);
            LOCAL.with(|local| {
                let ids = &mut local.borrow_mut().ids;
                if batch.is_empty() {
                    std::mem::swap(ids, &mut batch);
                } else {
                    batch.append(ids);
                }
            });
            if batch.is_empty() {
                break;
            }
            while let Some(id) = batch.pop_front() {
                let task = self.slab.borrow_mut().take(id);
                let Some(mut task) = task else {
                    continue; // stale wake
                };
                self.events.set(self.events.get() + 1);
                self.current.set(id);
                let mut cx = Context::from_waker(&task.waker);
                let still_pending = task.fut.as_mut().poll(&mut cx).is_pending();
                let mut slab = self.slab.borrow_mut();
                if still_pending {
                    slab.put_back(id, task);
                } else {
                    slab.release(id);
                }
            }
        }
    }

    /// Run until quiescence or until the next timer would pass `deadline`
    /// (inclusive: timers at exactly `deadline` do fire).
    fn run_to(&self, deadline: SimTime) {
        let _running = Running::enter(self);
        loop {
            self.drain_ready();
            // Advance the clock to the next timer.
            let entry = self.timers.borrow_mut().pop_next(deadline);
            match entry {
                Some(entry) => {
                    debug_assert!(entry.at >= self.now.get());
                    self.now.set(entry.at);
                    self.ready.push(entry.task);
                }
                None => break,
            }
        }
    }

    fn summary(&self) -> RunSummary {
        RunSummary {
            end_time: self.now.get(),
            events: self.events.get(),
            tasks_spawned: self.spawned_total.get(),
            tasks_leaked: self.slab.borrow().live,
        }
    }
}

/// Summary statistics for a completed simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Virtual clock value when the run went quiescent.
    pub end_time: SimTime,
    /// Number of task polls executed.
    pub events: u64,
    /// Total number of tasks ever spawned.
    pub tasks_spawned: u64,
    /// Tasks still blocked (and dropped) at quiescence.
    pub tasks_leaked: u64,
}

/// A deterministic discrete-event simulation.
///
/// ```
/// use imca_sim::{Sim, SimDuration};
///
/// let mut sim = Sim::new(42);
/// let h = sim.handle();
/// let woke_at = sim.run_main(async move {
///     h.sleep(SimDuration::micros(10)).await;
///     h.now()
/// });
/// assert_eq!(woke_at.as_nanos(), 10_000);
/// assert_eq!(sim.now(), woke_at);
/// ```
pub struct Sim {
    core: Rc<Core>,
}

impl Sim {
    /// Create a simulation whose internal RNG is seeded with `seed`,
    /// using the default timer back-end ([`Scheduler::Wheel`]).
    pub fn new(seed: u64) -> Sim {
        Sim::with_scheduler(seed, Scheduler::default())
    }

    /// Create a simulation with an explicit timer back-end. Both replay
    /// the same model bit-identically; see `tests/wheel_props.rs`.
    pub fn with_scheduler(seed: u64, scheduler: Scheduler) -> Sim {
        Sim {
            core: Rc::new(Core {
                now: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                timers: RefCell::new(TimerQueue::new(scheduler)),
                ready: Arc::new(ReadyQueue::default()),
                slab: RefCell::new(Slab::default()),
                current: Cell::new(TaskId::MAX),
                batch: RefCell::new(VecDeque::new()),
                idle: RefCell::new(VecDeque::new()),
                rng: RefCell::new(SmallRng::seed_from_u64(seed)),
                events: Cell::new(0),
                spawned_total: Cell::new(0),
            }),
        }
    }

    /// A cloneable handle for use inside processes.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            core: Rc::clone(&self.core),
        }
    }

    /// Spawn a root process.
    pub fn spawn<F: Future<Output = ()> + 'static>(&mut self, fut: F) {
        self.handle().spawn(fut);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Run until quiescence (no runnable tasks, no pending timers).
    pub fn run(&mut self) -> RunSummary {
        self.run_until(SimTime(u64::MAX))
    }

    /// Spawn `main`, run until quiescence exactly as [`Sim::run`] does, and
    /// return `main`'s output: the one way to run a simulation to an
    /// answer. Background actors may stay blocked (they are dropped as
    /// usual); [`Sim::run`] afterwards returns the run's [`RunSummary`]
    /// without polling anything.
    ///
    /// # Panics
    /// Panics if `main` is still pending when the simulation goes quiet: a
    /// run that stops before its main task finishes has no answer.
    pub fn run_main<T: 'static>(&mut self, main: impl Future<Output = T> + 'static) -> T {
        let out = Rc::new(Cell::new(None));
        let slot = Rc::clone(&out);
        self.spawn(async move { slot.set(Some(main.await)) });
        let summary = self.run();
        out.take().unwrap_or_else(|| {
            panic!(
                "the main task never finished: the simulation went quiet at {} \
                 with {} tasks left blocked, the main task among them",
                summary.end_time, summary.tasks_leaked
            )
        })
    }

    /// Run until quiescence or until the clock would pass `deadline`,
    /// whichever comes first. Timers at exactly `deadline` do fire.
    pub fn run_until(&mut self, deadline: SimTime) -> RunSummary {
        self.core.run_to(deadline);
        self.core.summary()
    }

    /// Drop every task (pending or blocked). Called automatically on drop to
    /// break `Rc` cycles between the core and task-held handles.
    pub fn clear(&mut self) {
        // Drop task futures outside the borrow: a dropping task may
        // legally spawn (landing in the freshly reset slab), so loop until
        // the store is genuinely empty.
        loop {
            let mut slab = self.core.slab.borrow_mut();
            if slab.live == 0 && slab.slots.is_empty() {
                break;
            }
            let slots = std::mem::take(&mut slab.slots);
            slab.free.clear();
            slab.live = 0;
            drop(slab);
            drop(slots);
        }
        self.core.timers.borrow_mut().clear();
        while self.core.ready.pop().is_some() {}
        self.core.idle.borrow_mut().clear();
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Cloneable handle to the simulation, used by processes to sleep, spawn,
/// read the clock, and draw random numbers.
#[derive(Clone)]
pub struct SimHandle {
    core: Rc<Core>,
}

impl SimHandle {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Spawn a new process. Safe to call from inside a running process.
    pub fn spawn<F: Future<Output = ()> + 'static>(&self, fut: F) {
        self.core
            .spawned_total
            .set(self.core.spawned_total.get() + 1);
        // The slab is never borrowed while model code runs (polls and task
        // drops happen with the task taken out), so a direct insert is
        // always safe here.
        let id = self
            .core
            .slab
            .borrow_mut()
            .insert(Box::pin(fut), &self.core.ready);
        self.core.ready.push(id);
    }

    /// Suspend the calling process for `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Delay {
        self.sleep_until(self.now() + d)
    }

    /// Suspend until the virtual clock reaches `at` (no-op if already past).
    pub fn sleep_until(&self, at: SimTime) -> Delay {
        Delay {
            core: Rc::clone(&self.core),
            at,
            timer: None,
        }
    }

    /// A uniformly distributed `u64`.
    pub fn rng_u64(&self) -> u64 {
        self.core.rng.borrow_mut().next_u64()
    }

    /// A uniformly distributed float in `[0, 1)`.
    pub fn rng_f64(&self) -> f64 {
        self.core.rng.borrow_mut().gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn rng_range(&self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "rng_range: empty range {lo}..{hi}");
        self.core.rng.borrow_mut().gen_range(lo..hi)
    }

    /// Fork an independent deterministic RNG, e.g. one per simulated node,
    /// so that adding draws in one process does not perturb another.
    pub fn fork_rng(&self) -> SmallRng {
        SmallRng::seed_from_u64(self.rng_u64())
    }
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.now())
            .finish()
    }
}

/// Future returned by [`SimHandle::sleep`] / [`SimHandle::sleep_until`].
///
/// The first pending poll registers a timer for the task being polled;
/// the timer wakes that task by id, so a `Delay` is awaited by the task
/// that polls it. Dropping a `Delay` before it fires cancels its timer:
/// the pending entry goes dead and the run loop discards it without
/// advancing the virtual clock. This is what lets [`crate::timeout`] race
/// a sleep against another future without the losing sleep stretching
/// the simulation's end time. Dropping it later is a no-op.
pub struct Delay {
    core: Rc<Core>,
    at: SimTime,
    timer: Option<TimerId>,
}

impl Future for Delay {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.core.now.get() >= self.at {
            return Poll::Ready(());
        }
        if self.timer.is_none() {
            let core = &self.core;
            let seq = core.seq.get();
            core.seq.set(seq + 1);
            let timer = core
                .timers
                .borrow_mut()
                .push(self.at, seq, core.current.get());
            self.timer = Some(timer);
        }
        Poll::Pending
    }
}

impl Drop for Delay {
    fn drop(&mut self) {
        if let Some(timer) = self.timer {
            self.core.timers.borrow_mut().cancel(timer);
        }
    }
}

/// Yield once to the executor, letting other ready tasks run at the same
/// virtual instant.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;
    use std::future::poll_fn;

    /// Poll `fut` once from the calling task, registering whatever it
    /// waits on, and move on whatever it returned.
    async fn poll_once<F: Future + Unpin>(fut: &mut F) {
        poll_fn(|cx| {
            let _ = Pin::new(&mut *fut).poll(cx);
            Poll::Ready(())
        })
        .await
    }

    #[test]
    fn empty_sim_finishes_at_time_zero() {
        let mut sim = Sim::new(0);
        let s = sim.run();
        assert_eq!(s.end_time, SimTime::ZERO);
        assert_eq!(s.events, 0);
    }

    #[test]
    fn sleep_advances_virtual_clock() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = Rc::new(Cell::new(0u64));
        let out2 = Rc::clone(&out);
        sim.spawn(async move {
            h.sleep(SimDuration::micros(7)).await;
            out2.set(h.now().as_nanos());
        });
        let s = sim.run();
        assert_eq!(out.get(), 7_000);
        assert_eq!(s.end_time.as_nanos(), 7_000);
        assert_eq!(s.tasks_leaked, 0);
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            let mut sim = Sim::with_scheduler(0, scheduler);
            let order = Rc::new(StdRefCell::new(Vec::new()));
            for i in 0..10 {
                let h = sim.handle();
                let order = Rc::clone(&order);
                sim.spawn(async move {
                    h.sleep(SimDuration::micros(5)).await;
                    order.borrow_mut().push(i);
                });
            }
            sim.run();
            assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_spawn_runs() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let hit = Rc::new(Cell::new(false));
        let hit2 = Rc::clone(&hit);
        sim.spawn(async move {
            let h2 = h.clone();
            let hit3 = Rc::clone(&hit2);
            h.spawn(async move {
                h2.sleep(SimDuration::nanos(1)).await;
                hit3.set(true);
            });
        });
        sim.run();
        assert!(hit.get());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            let mut sim = Sim::with_scheduler(0, scheduler);
            let h = sim.handle();
            let count = Rc::new(Cell::new(0u32));
            let c2 = Rc::clone(&count);
            sim.spawn(async move {
                loop {
                    h.sleep(SimDuration::secs(1)).await;
                    c2.set(c2.get() + 1);
                }
            });
            let s = sim.run_until(SimTime(SimDuration::secs(5).as_nanos()));
            assert_eq!(count.get(), 5);
            assert_eq!(s.end_time.as_nanos(), SimDuration::secs(5).as_nanos());
            assert_eq!(s.tasks_leaked, 1); // the infinite looper is still blocked
        }
    }

    #[test]
    fn wake_between_two_runs_is_drained() {
        // The ready flag's hard case: the executor went idle (its last
        // drain found nothing), then a wake arrives from outside any poll.
        let mut sim = Sim::new(0);
        let (tx, rx) = crate::sync::oneshot();
        let got = Rc::new(Cell::new(None));
        let g2 = Rc::clone(&got);
        sim.spawn(async move { g2.set(rx.await.ok()) });
        let s = sim.run_until(SimTime(1_000));
        assert_eq!((got.get(), s.tasks_leaked), (None, 1));
        tx.send(7u32);
        let s = sim.run_until(SimTime(2_000));
        assert_eq!((got.get(), s.tasks_leaked), (Some(7), 0));
    }

    #[test]
    fn ready_flag_follows_the_queue_through_pop() {
        let (q, mut batch) = (ReadyQueue::default(), VecDeque::new());
        q.push(1);
        q.push(2);
        assert_eq!(q.pop(), Some(1));
        q.swap_into(&mut batch); // one id left: the flag must still say so
        assert_eq!(batch, [2]);
        batch.clear();
        q.push(3);
        assert_eq!((q.pop(), q.pop()), (Some(3), None));
        q.swap_into(&mut batch);
        assert!(batch.is_empty());
        q.push(4);
        q.swap_into(&mut batch);
        assert_eq!(batch, [4]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> (u64, u64) {
            let mut sim = Sim::new(seed);
            let h = sim.handle();
            sim.spawn(async move {
                for _ in 0..100 {
                    let d = h.rng_range(1, 1000);
                    h.sleep(SimDuration::nanos(d)).await;
                }
            });
            let s = sim.run();
            (s.end_time.as_nanos(), s.events)
        }
        assert_eq!(run_once(7), run_once(7));
        assert_ne!(run_once(7).0, run_once(8).0);
    }

    #[test]
    fn yield_now_interleaves_at_same_instant() {
        let mut sim = Sim::new(0);
        let log = Rc::new(StdRefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let log = Rc::clone(&log);
            sim.spawn(async move {
                log.borrow_mut().push(format!("{name}:1"));
                yield_now().await;
                log.borrow_mut().push(format!("{name}:2"));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["a:1", "b:1", "a:2", "b:2"]);
    }

    #[test]
    fn dropped_delay_does_not_advance_the_clock() {
        // The cancellation path: a Delay raced against a faster future and
        // dropped. End time must stay at the fast future's time.
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            let mut sim = Sim::with_scheduler(0, scheduler);
            let h = sim.handle();
            sim.spawn(async move {
                let fast = async {};
                let n = crate::util::timeout(&h, SimDuration::secs(5), fast).await;
                assert!(n.is_some());
                h.sleep(SimDuration::micros(3)).await;
            });
            let s = sim.run();
            assert_eq!(
                s.end_time.as_nanos(),
                3_000,
                "a cancelled deadline timer must not stretch the run"
            );
        }
    }

    #[test]
    fn sleep_until_past_time_is_noop() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimDuration::micros(10)).await;
            h.sleep_until(SimTime(5)).await; // already past
            assert_eq!(h.now().as_nanos(), 10_000);
        });
        sim.run();
    }

    #[test]
    fn wheel_handles_far_future_and_overflow_migration() {
        // Deadlines beyond the wheel's 2^36 ns span live in the overflow
        // heap and must still fire in exact order as the base advances.
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            let mut sim = Sim::with_scheduler(0, scheduler);
            let order = Rc::new(StdRefCell::new(Vec::new()));
            // A spread crossing several 2^36 blocks, registered shuffled.
            let times = [1u64 << 40, 3, (1 << 36) + 17, 1 << 20, (1 << 37) + 5];
            for (i, &t) in times.iter().enumerate() {
                let h = sim.handle();
                let order = Rc::clone(&order);
                sim.spawn(async move {
                    h.sleep_until(SimTime(t)).await;
                    order.borrow_mut().push(i);
                });
            }
            let s = sim.run();
            assert_eq!(*order.borrow(), vec![1, 3, 2, 4, 0]);
            assert_eq!(s.end_time.0, 1 << 40);
        }
    }

    #[test]
    fn wheel_accepts_registration_below_prepared_base() {
        // run_until can leave the wheel's base beyond `now` (the next
        // pending fire was past the deadline). A timer registered in the
        // gap must still fire first, and one registered at exactly the
        // prepared base joins that tick behind the timer already there.
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            let mut sim = Sim::with_scheduler(0, scheduler);
            let order = Rc::new(StdRefCell::new(Vec::new()));
            let fire_at = |sim: &mut Sim, t: u64, name: &'static str| {
                let (h, order) = (sim.handle(), Rc::clone(&order));
                sim.spawn(async move {
                    h.sleep_until(SimTime(t)).await;
                    order.borrow_mut().push(name);
                });
            };
            fire_at(&mut sim, 10_000, "base-before");
            sim.run_until(SimTime(1_000)); // base prepared up to 10_000
            fire_at(&mut sim, 2_000, "early");
            fire_at(&mut sim, 10_000, "base-after");
            let s = sim.run();
            assert_eq!(
                *order.borrow(),
                vec!["early", "base-before", "base-after"],
                "{scheduler:?}"
            );
            assert_eq!(s.end_time.0, 10_000);
        }
    }

    #[test]
    fn delay_dropped_after_firing_spares_its_slots_next_timer() {
        // `fired` releases its slot when it fires, `newer` takes that
        // slot, and only then is `fired` dropped: the drop must find a
        // different owner and leave `newer` pending.
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            let mut sim = Sim::with_scheduler(0, scheduler);
            let h = sim.handle();
            let woke = Rc::new(Cell::new(0));
            let w2 = Rc::clone(&woke);
            sim.spawn(async move {
                let mut fired = h.sleep(SimDuration::nanos(10));
                (&mut fired).await;
                let mut newer = h.sleep(SimDuration::nanos(10));
                poll_once(&mut newer).await;
                drop(fired);
                newer.await;
                w2.set(h.now().as_nanos());
            });
            let s = sim.run();
            assert_eq!((woke.get(), s.tasks_leaked), (20, 0), "{scheduler:?}");
        }
    }

    #[test]
    fn delay_dropped_after_clear_spares_its_slots_next_timer() {
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            let mut sim = Sim::with_scheduler(0, scheduler);
            let stash = Rc::new(StdRefCell::new(None));
            let (h, s2) = (sim.handle(), Rc::clone(&stash));
            sim.spawn(async move {
                let mut d = h.sleep(SimDuration::nanos(100));
                poll_once(&mut d).await;
                *s2.borrow_mut() = Some(d); // outlives its task and the clear
            });
            sim.run_until(SimTime(10));
            sim.clear();
            let (h, woke) = (sim.handle(), Rc::new(Cell::new(0)));
            let w2 = Rc::clone(&woke);
            sim.spawn(async move {
                h.sleep_until(SimTime(50)).await; // the cleared table's first slot
                w2.set(h.now().as_nanos());
            });
            sim.run_until(SimTime(20));
            drop(stash.borrow_mut().take());
            let s = sim.run();
            assert_eq!((woke.get(), s.tasks_leaked), (50, 0), "{scheduler:?}");
        }
    }

    #[test]
    fn finished_slot_reuses_its_waker() {
        let mut sim = Sim::new(0);
        let target =
            |sim: &Sim| Arc::as_ptr(sim.core.slab.borrow().slots[0].waker.as_ref().unwrap());
        sim.spawn(async {});
        sim.run();
        let first = target(&sim);
        sim.spawn(async {});
        sim.run();
        assert_eq!(target(&sim), first);
    }

    #[test]
    fn kept_waker_clone_never_wakes_its_slots_next_task() {
        // The clone outlives its task, so the slot's next task must get a
        // waker of its own: waking the clone is a stale wake.
        let mut sim = Sim::new(0);
        let kept = Rc::new(StdRefCell::new(None::<Waker>));
        let k2 = Rc::clone(&kept);
        sim.spawn(poll_fn(move |cx| {
            *k2.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        let (tx, rx) = crate::sync::oneshot();
        sim.spawn(async move {
            let _ = rx.await;
        });
        let before = sim.run().events;
        kept.borrow().as_ref().unwrap().wake_by_ref();
        assert_eq!(
            sim.run().events,
            before,
            "the stale clone polled the new task"
        );
        tx.send(());
        let s = sim.run();
        assert_eq!((s.events, s.tasks_leaked), (before + 1, 0));
    }

    #[test]
    fn waker_woken_on_another_thread_polls_its_task_on_the_next_run() {
        let mut sim = Sim::new(0);
        let flag = Arc::new(AtomicBool::new(false));
        let slot = Rc::new(StdRefCell::new(None::<Waker>));
        let done = Rc::new(Cell::new(false));
        let (f2, s2, d2) = (Arc::clone(&flag), Rc::clone(&slot), Rc::clone(&done));
        sim.spawn(async move {
            poll_fn(|cx| {
                if f2.load(Ordering::Relaxed) {
                    return Poll::Ready(());
                }
                *s2.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            })
            .await;
            d2.set(true);
        });
        assert_eq!(sim.run().tasks_leaked, 1);
        let waker = slot.borrow_mut().take().unwrap();
        std::thread::spawn(move || {
            flag.store(true, Ordering::Relaxed);
            waker.wake();
        })
        .join()
        .unwrap();
        let s = sim.run();
        assert!(done.get());
        assert_eq!(s.tasks_leaked, 0);
    }

    /// A server actor and a client that asks it three things: the model
    /// `run_main_equals_spawn_and_run` runs both ways.
    fn echo_model(h: &SimHandle) -> impl Future<Output = u64> + 'static {
        let q: crate::sync::Queue<(u64, crate::sync::OneshotSender<u64>)> =
            crate::sync::Queue::new();
        let (qs, hs) = (q.clone(), h.clone());
        h.spawn(async move {
            while let Some((v, tx)) = qs.recv().await {
                hs.sleep(SimDuration::micros(v)).await;
                tx.send(v * 10);
            }
        });
        let h = h.clone();
        async move {
            let mut sum = 0;
            for v in 1..=3 {
                let (tx, rx) = crate::sync::oneshot();
                q.push((v, tx));
                h.sleep(SimDuration::nanos(500)).await;
                sum += rx.await.unwrap();
            }
            sum
        }
    }

    #[test]
    fn run_main_equals_spawn_and_run() {
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            let mut spawned = Sim::with_scheduler(0, scheduler);
            let main = echo_model(&spawned.handle());
            spawned.spawn(async move {
                main.await;
            });
            let want = spawned.run();

            let mut sim = Sim::with_scheduler(0, scheduler);
            let main = echo_model(&sim.handle());
            assert_eq!(sim.run_main(main), 60);
            assert_eq!(sim.run(), want, "{scheduler:?}");
            assert_eq!(want.end_time.as_nanos(), 6_000);
        }
    }

    #[test]
    #[should_panic(expected = "with 2 tasks left blocked, the main task among them")]
    fn run_main_panics_when_main_is_still_pending() {
        let mut sim = Sim::new(0);
        let (tx, rx) = crate::sync::oneshot::<u32>();
        let idle: crate::sync::Queue<()> = crate::sync::Queue::new();
        // The sender lives in a task that never sends and never finishes.
        sim.spawn(async move {
            idle.recv().await;
            tx.send(1);
        });
        sim.run_main(async move { rx.await.unwrap() });
    }

    #[test]
    fn run_main_leaves_background_actors_blocked() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let q: crate::sync::Queue<u32> = crate::sync::Queue::new();
        let daemon = q.clone();
        sim.spawn(async move { while daemon.recv().await.is_some() {} });
        let at = sim.run_main(async move {
            q.push(7);
            h.sleep(SimDuration::micros(2)).await;
            h.now()
        });
        assert_eq!(at.as_nanos(), 2_000);
        assert_eq!(sim.run().tasks_leaked, 1, "only the daemon stays blocked");
    }
}

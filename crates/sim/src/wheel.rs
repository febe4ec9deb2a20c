//! Timer storage for the executor: the hierarchical timer wheel and the
//! global `BinaryHeap` it is checked against.
//!
//! Both back-ends enforce the same total event order `(at, seq)`:
//! earlier virtual time first, then registration order. The heap gets
//! this directly from [`TimerEntry`]'s `Ord`; the wheel sorts each fired
//! tick. [`Scheduler`] picks the back-end per simulation — the heap stays
//! available as the reference model for the wheel's property tests.
//!
//! ## Cancellation
//!
//! Every pending timer owns a slot of its queue's owner table, which
//! records the `seq` of the timer holding each slot. An entry is live
//! while it still owns its slot; firing and cancelling (dropping the
//! `Delay`) both release the slot for reuse. A dead entry is discarded
//! wherever it is found, without touching the clock. Because `seq` never
//! repeats, releasing through a stale handle — a timer that already fired,
//! whose slot another timer now owns, or that `clear` swept away — finds
//! a different owner and does nothing.
//!
//! ## Wheel layout
//!
//! Six levels of 64 slots each, level `l` spanning `64^(l+1)` ns, so the
//! wheel directly addresses `2^36` ns (~68.7 simulated seconds) past its
//! `base`. An entry lives at the level of the highest 6-bit group in
//! which its deadline differs from `base` (so slot indices at that level
//! differ by < 64 and decode unambiguously). Per-level occupancy bitmaps
//! make "next occupied slot" one `rotate_right` + `trailing_zeros`.
//! Deadlines beyond the span wait in an overflow heap and migrate into
//! the wheel as `base` advances; deadlines registered *below* `base`
//! (possible when a paused `run_until` resumes) wait in a small front
//! heap that always fires first.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Which timer back-end a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The global binary-heap event queue (the wheel's reference model).
    Heap,
    /// The hierarchical timer wheel (default).
    #[default]
    Wheel,
}

/// A timer waiting to fire: the task to wake at `at`. Ordered by
/// `(at, seq)` — the engine's total event order — so simultaneous timers
/// fire in registration order. This is what makes runs reproducible.
///
/// The entry is live while its `id` still owns its slot of the queue's
/// owner table (see the module docs); a dead one is discarded *without
/// advancing the clock*, so racing a sleep against another future (see
/// [`crate::timeout`]) does not stretch the simulation's end time.
pub(crate) struct TimerEntry {
    pub(crate) at: SimTime,
    id: TimerId,
    pub(crate) task: u64,
}

impl TimerEntry {
    fn key(&self) -> (u64, u64) {
        (self.at.0, self.id.seq)
    }
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A registered timer's name: its `seq` and its slot of the owner table.
/// A `Delay` keeps it to cancel the timer.
#[derive(Clone, Copy)]
pub(crate) struct TimerId {
    seq: u64,
    slot: u32,
}

/// The owner table: `seq[slot]` is the pending timer holding `slot`, or
/// [`Owners::FREE`].
#[derive(Default)]
struct Owners {
    seq: Vec<u64>,
    free: Vec<u32>,
}

impl Owners {
    /// No timer holds the slot (`seq` counts up from 0 and never gets here).
    const FREE: u64 = u64::MAX;

    fn claim(&mut self, seq: u64) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.seq[slot as usize] = seq;
                slot
            }
            None => {
                self.seq.push(seq);
                (self.seq.len() - 1) as u32
            }
        }
    }

    fn live(&self, e: &TimerEntry) -> bool {
        self.seq[e.id.slot as usize] == e.id.seq
    }

    /// Free `slot` if `seq` still owns it; a stale handle does nothing.
    fn release(&mut self, TimerId { seq, slot }: TimerId) {
        if let Some(owner) = self.seq.get_mut(slot as usize) {
            if *owner == seq {
                *owner = Owners::FREE;
                self.free.push(slot);
            }
        }
    }
}

/// Pending-timer storage behind [`Scheduler`].
pub(crate) struct TimerQueue {
    owners: Owners,
    pending: Pending,
}

enum Pending {
    Heap(BinaryHeap<Reverse<TimerEntry>>),
    Wheel(Box<TimerWheel>),
}

impl TimerQueue {
    pub(crate) fn new(scheduler: Scheduler) -> TimerQueue {
        TimerQueue {
            owners: Owners::default(),
            pending: match scheduler {
                Scheduler::Heap => Pending::Heap(BinaryHeap::new()),
                Scheduler::Wheel => Pending::Wheel(Box::new(TimerWheel::new())),
            },
        }
    }

    /// Register a timer waking `task` at `at`; `seq` must exceed every
    /// `seq` registered before.
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, task: u64) -> TimerId {
        let id = TimerId {
            seq,
            slot: self.owners.claim(seq),
        };
        let entry = TimerEntry { at, id, task };
        match &mut self.pending {
            Pending::Heap(heap) => heap.push(Reverse(entry)),
            Pending::Wheel(wheel) => wheel.push(entry),
        }
        id
    }

    /// Cancel a pending timer; a no-op once it fired or was cleared.
    pub(crate) fn cancel(&mut self, id: TimerId) {
        self.owners.release(id);
    }

    /// Remove and return the earliest live entry with `at <= deadline`,
    /// discarding dead entries encountered along the way.
    pub(crate) fn pop_next(&mut self, deadline: SimTime) -> Option<TimerEntry> {
        let owners = &self.owners;
        let entry = match &mut self.pending {
            Pending::Heap(heap) => loop {
                match heap.peek() {
                    Some(Reverse(e)) if e.at <= deadline => {
                        let Reverse(e) = heap.pop().unwrap();
                        if owners.live(&e) {
                            break Some(e);
                        }
                    }
                    _ => break None,
                }
            },
            Pending::Wheel(wheel) => wheel.pop_next(deadline.0, owners),
        }?;
        self.owners.release(entry.id);
        Some(entry)
    }

    pub(crate) fn clear(&mut self) {
        self.owners = Owners::default();
        match &mut self.pending {
            Pending::Heap(heap) => heap.clear(),
            Pending::Wheel(wheel) => wheel.clear(),
        }
    }
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 6; // 64^6 ns ≈ 68.7 s of direct span

/// The hierarchical timer wheel.
struct TimerWheel {
    /// All entries in the slots are at `base` or later; `base` never
    /// decreases. Entries registered below `base` go to `front`.
    base: u64,
    /// Per-level occupancy bitmaps: bit `s` set ⇔ `slots[l][s]` non-empty.
    occ: [u64; LEVELS],
    slots: Vec<Vec<TimerEntry>>,
    /// Deadlines beyond the wheel's span (top 6-bit group differs).
    overflow: BinaryHeap<Reverse<TimerEntry>>,
    /// Deadlines below `base`; always fire before anything in the slots.
    front: BinaryHeap<Reverse<TimerEntry>>,
    /// The tick currently being fired: entries with `at == base`, sorted
    /// by `seq`.
    current: VecDeque<TimerEntry>,
    len: usize,
}

/// The level at which `t`'s slot index differs from `base`'s by < 64:
/// the highest differing 6-bit group. `None` when even the top group
/// differs (beyond the wheel's span → overflow).
fn level_for(base: u64, t: u64) -> Option<usize> {
    let x = base ^ t;
    if x == 0 {
        return Some(0);
    }
    let level = ((63 - x.leading_zeros()) / SLOT_BITS) as usize;
    (level < LEVELS).then_some(level)
}

impl TimerWheel {
    fn new() -> TimerWheel {
        TimerWheel {
            base: 0,
            occ: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            front: BinaryHeap::new(),
            current: VecDeque::new(),
            len: 0,
        }
    }

    fn push(&mut self, e: TimerEntry) {
        self.len += 1;
        let t = e.at.0;
        if t == self.base && !self.current.is_empty() {
            // The tick being fired: `seq` only grows, so a same-tick
            // registration is the last of its tick.
            self.current.push_back(e);
            return;
        }
        self.place(e);
    }

    /// File an entry into front / slots / overflow relative to `base`.
    fn place(&mut self, e: TimerEntry) {
        let t = e.at.0;
        if t < self.base {
            self.front.push(Reverse(e));
            return;
        }
        match level_for(self.base, t) {
            Some(level) => {
                let bits = SLOT_BITS * level as u32;
                let slot = ((t >> bits) & (SLOTS as u64 - 1)) as usize;
                self.occ[level] |= 1 << slot;
                self.slots[level * SLOTS + slot].push(e);
            }
            None => self.overflow.push(Reverse(e)),
        }
    }

    /// The first occupied slot of `level` at or after `base`, with the
    /// absolute time its span starts at.
    fn first_occupied(&self, level: usize) -> Option<(usize, u64)> {
        let occ = self.occ[level];
        if occ == 0 {
            return None;
        }
        let bits = SLOT_BITS * level as u32;
        let base_idx = (self.base >> bits) & (SLOTS as u64 - 1);
        let d = occ.rotate_right(base_idx as u32).trailing_zeros() as u64;
        let slot = ((base_idx + d) & (SLOTS as u64 - 1)) as usize;
        let start = ((self.base >> bits) + d) << bits;
        Some((slot, start))
    }

    /// Advance internal state until the earliest live deadline is directly
    /// poppable, and return it. Cascades higher-level slots and migrates
    /// overflow entries as needed; prunes dead entries (never advancing
    /// past a live one).
    fn prepare_next(&mut self, owners: &Owners) -> Option<u64> {
        loop {
            // Drop dead entries at both candidate heads.
            while self.current.front().is_some_and(|e| !owners.live(e)) {
                self.current.pop_front();
                self.len -= 1;
            }
            while self.front.peek().is_some_and(|Reverse(e)| !owners.live(e)) {
                self.front.pop();
                self.len -= 1;
            }
            // Entries below `base` always precede slot/current entries.
            if let Some(Reverse(e)) = self.front.peek() {
                return Some(e.at.0);
            }
            if !self.current.is_empty() {
                return Some(self.base);
            }
            if self.len == 0 {
                return None;
            }
            if self.occ.iter().all(|&b| b == 0) {
                // Nothing in the slots: jump to the overflow's head.
                match self.overflow.peek() {
                    Some(Reverse(e)) if !owners.live(e) => {
                        self.overflow.pop();
                        self.len -= 1;
                        continue;
                    }
                    Some(Reverse(e)) => {
                        self.base = e.at.0;
                        let Reverse(e) = self.overflow.pop().unwrap();
                        self.place(e);
                        continue;
                    }
                    None => return None,
                }
            }
            // Slots are live: overflow entries are all in a later 2^36
            // block, so they only matter once they fit the wheel again.
            while self
                .overflow
                .peek()
                .is_some_and(|Reverse(e)| level_for(self.base, e.at.0).is_some())
            {
                let Reverse(e) = self.overflow.pop().unwrap();
                if owners.live(&e) {
                    self.place(e);
                } else {
                    self.len -= 1;
                }
            }
            // The earliest candidate across levels (level 0 is exact; a
            // higher level's span start is a lower bound, so processing
            // the minimum is always safe).
            let mut best: Option<(u64, usize, usize)> = None;
            for level in 0..LEVELS {
                if let Some((slot, start)) = self.first_occupied(level) {
                    let bound = start.max(self.base);
                    if best.is_none_or(|(b, _, _)| bound < b) {
                        best = Some((bound, level, slot));
                    }
                }
            }
            let Some((bound, level, slot)) = best else {
                continue; // everything was in overflow; migrated above
            };
            // Take the slot's buffer, process it, and hand it back with
            // its capacity intact — draining by value would cost an
            // allocation per fired tick on the hottest path.
            let mut drained = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            self.occ[level] &= !(1 << slot);
            if level == 0 {
                // A level-0 slot holds exactly one deadline: fire it.
                self.base = bound;
                let before = drained.len();
                drained.retain(|e| {
                    debug_assert_eq!(e.at.0, bound);
                    owners.live(e)
                });
                self.len -= before - drained.len();
                drained.sort_unstable_by_key(|e| e.id.seq);
                self.current.extend(drained.drain(..));
            } else {
                // Cascade: with `base` at the slot's span start, every
                // entry re-files at a strictly lower level — never back
                // into the slot whose buffer we are holding.
                self.base = bound;
                for e in drained.drain(..) {
                    if owners.live(&e) {
                        self.place(e);
                    } else {
                        self.len -= 1;
                    }
                }
            }
            self.slots[level * SLOTS + slot] = drained;
        }
    }

    fn pop_next(&mut self, deadline: u64, owners: &Owners) -> Option<TimerEntry> {
        let t = self.prepare_next(owners)?;
        if t > deadline {
            return None;
        }
        self.len -= 1;
        // `front` strictly precedes `current` (front holds at < base,
        // current holds at == base), so no tie-break is needed.
        if self.front.peek().is_some_and(|Reverse(e)| e.at.0 == t) {
            let Reverse(e) = self.front.pop().unwrap();
            return Some(e);
        }
        self.current.pop_front()
    }

    fn clear(&mut self) {
        self.occ = [0; LEVELS];
        for s in &mut self.slots {
            s.clear();
        }
        self.overflow.clear();
        self.front.clear();
        self.current.clear();
        self.len = 0;
    }
}

//! Timer storage for the executor: the hierarchical timer wheel and the
//! global `BinaryHeap` it is checked against.
//!
//! Both back-ends enforce the same total event order `(at, seq)`:
//! earlier virtual time first, then registration order. The heap gets
//! this directly from [`TimerEntry`]'s `Ord`; the wheel sorts each fired
//! tick. [`Scheduler`] picks the back-end per simulation — the heap stays
//! available as the reference model for the wheel's property tests.
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
//! heap that always fires first. Cancelled entries (dropped `Delay`s)
//! are discarded wherever they are found, without touching the clock.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::task::Waker;

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

/// A timer waiting to fire. Ordered by `(at, seq)` — the engine's total
/// event order — so simultaneous timers fire in registration order. This
/// is what makes runs reproducible.
///
/// `cancelled` (set when the owning `Delay` is dropped before firing)
/// makes the entry inert: the run loop discards it *without advancing the
/// clock*, so racing a sleep against another future (see
/// [`crate::timeout`]) does not stretch the simulation's end time.
pub(crate) struct TimerEntry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) waker: Waker,
    pub(crate) cancelled: Option<Rc<Cell<bool>>>,
}

impl TimerEntry {
    fn key(&self) -> (u64, u64) {
        (self.at.0, self.seq)
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.as_ref().is_some_and(|c| c.get())
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

/// Pending-timer storage behind [`Scheduler`].
pub(crate) enum TimerQueue {
    Heap(BinaryHeap<Reverse<TimerEntry>>),
    Wheel(Box<TimerWheel>),
}

impl TimerQueue {
    pub(crate) fn new(scheduler: Scheduler) -> TimerQueue {
        match scheduler {
            Scheduler::Heap => TimerQueue::Heap(BinaryHeap::new()),
            Scheduler::Wheel => TimerQueue::Wheel(Box::new(TimerWheel::new())),
        }
    }

    pub(crate) fn push(&mut self, entry: TimerEntry) {
        match self {
            TimerQueue::Heap(heap) => heap.push(Reverse(entry)),
            TimerQueue::Wheel(wheel) => wheel.push(entry),
        }
    }

    /// Remove and return the earliest live entry with `at <= deadline`,
    /// discarding cancelled entries encountered along the way.
    pub(crate) fn pop_next(&mut self, deadline: SimTime) -> Option<TimerEntry> {
        match self {
            TimerQueue::Heap(heap) => loop {
                match heap.peek() {
                    Some(Reverse(e)) if e.at <= deadline => {
                        let Reverse(e) = heap.pop().unwrap();
                        if e.is_cancelled() {
                            continue;
                        }
                        break Some(e);
                    }
                    _ => break None,
                }
            },
            TimerQueue::Wheel(wheel) => wheel.pop_next(deadline.0),
        }
    }

    pub(crate) fn clear(&mut self) {
        match self {
            TimerQueue::Heap(heap) => heap.clear(),
            TimerQueue::Wheel(wheel) => wheel.clear(),
        }
    }
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 6; // 64^6 ns ≈ 68.7 s of direct span

/// The hierarchical timer wheel.
pub(crate) struct TimerWheel {
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
    pub(crate) fn new() -> TimerWheel {
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

    pub(crate) fn push(&mut self, e: TimerEntry) {
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
    /// overflow entries as needed; prunes cancelled entries (never
    /// advancing past a live one).
    fn prepare_next(&mut self) -> Option<u64> {
        loop {
            // Drop cancelled entries at both candidate heads.
            while self.current.front().is_some_and(|e| e.is_cancelled()) {
                self.current.pop_front();
                self.len -= 1;
            }
            while self.front.peek().is_some_and(|Reverse(e)| e.is_cancelled()) {
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
                    Some(Reverse(e)) if e.is_cancelled() => {
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
                if e.is_cancelled() {
                    self.len -= 1;
                } else {
                    self.place(e);
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
                    !e.is_cancelled()
                });
                self.len -= before - drained.len();
                drained.sort_unstable_by_key(|e| e.seq);
                self.current.extend(drained.drain(..));
            } else {
                // Cascade: with `base` at the slot's span start, every
                // entry re-files at a strictly lower level — never back
                // into the slot whose buffer we are holding.
                self.base = bound;
                for e in drained.drain(..) {
                    if e.is_cancelled() {
                        self.len -= 1;
                    } else {
                        self.place(e);
                    }
                }
            }
            self.slots[level * SLOTS + slot] = drained;
        }
    }

    pub(crate) fn pop_next(&mut self, deadline: u64) -> Option<TimerEntry> {
        let t = self.prepare_next()?;
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

    pub(crate) fn clear(&mut self) {
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

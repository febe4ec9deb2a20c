//! Property tests for the hierarchical timer wheel against the
//! `BinaryHeap` reference model.
//!
//! Both back-ends must agree on *everything* observable: fire order
//! (including same-tick collisions resolved by the `(at, seq)` total
//! order), cancellation semantics (the `timeout` combinator drops
//! one of its two timers on every run, and a bare dropped `Delay` hands
//! its slot straight to the next timer), far-future deadlines beyond the
//! wheel's direct span, and paused `run_until` runs that register timers
//! below the wheel's already-prepared base.

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use imca_sim::{timeout, Scheduler, Sim, SimDuration, SimTime};
use proptest::prelude::*;

/// A scheduled unit of work; generated programs are replayed under both
/// timer back-ends and the full traces compared.
#[derive(Debug, Clone)]
enum Op {
    /// Spawn a task sleeping to an absolute deadline.
    Sleep { at: u64 },
    /// Two chained sleeps: the second registers mid-run.
    Chain { at: u64, extra: u64 },
    /// The timeout combinator: one of its two timers is always cancelled.
    Timeout { dur: u64, work: u64 },
    /// A bare sleep polled once and dropped before it fires, then a sleep
    /// that registers at once: it takes the slot the drop released.
    Abandon { at: u64, then: u64 },
}

/// Deadlines concentrated where the wheel's edge cases live: dense
/// low-value ticks (same-tick collisions), the 2^36 span boundary, and
/// far-future times that sit in the overflow heap.
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..64,
        3 => 0u64..100_000,
        1 => (1u64 << 36) - 64..(1u64 << 36) + 64,
        1 => (1u64 << 40)..(1u64 << 40) + 4096,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => time_strategy().prop_map(|at| Op::Sleep { at }),
        2 => (time_strategy(), 0u64..5_000).prop_map(|(at, extra)| Op::Chain { at, extra }),
        2 => (1u64..10_000, 1u64..10_000).prop_map(|(dur, work)| Op::Timeout { dur, work }),
        2 => (time_strategy(), 0u64..5_000).prop_map(|(at, then)| Op::Abandon { at, then }),
    ]
}

type Trace = Vec<(u64, usize, u8)>;

fn spawn_program(sim: &mut Sim, ops: &[Op], log: &Rc<RefCell<Trace>>) {
    for (i, op) in ops.iter().cloned().enumerate() {
        let h = sim.handle();
        let log = Rc::clone(log);
        match op {
            Op::Sleep { at } => {
                sim.spawn(async move {
                    h.sleep_until(SimTime(at)).await;
                    log.borrow_mut().push((h.now().0, i, 0));
                });
            }
            Op::Chain { at, extra } => {
                sim.spawn(async move {
                    h.sleep_until(SimTime(at)).await;
                    log.borrow_mut().push((h.now().0, i, 0));
                    h.sleep(SimDuration::nanos(extra)).await;
                    log.borrow_mut().push((h.now().0, i, 1));
                });
            }
            Op::Timeout { dur, work } => {
                sim.spawn(async move {
                    let hw = h.clone();
                    let res = timeout(&h, SimDuration::nanos(dur), async move {
                        hw.sleep(SimDuration::nanos(work)).await;
                        7u32
                    })
                    .await;
                    log.borrow_mut().push((h.now().0, i, res.is_some() as u8));
                });
            }
            Op::Abandon { at, then } => {
                sim.spawn(async move {
                    let mut abandoned = h.sleep_until(SimTime(at));
                    poll_fn(|cx| {
                        let _ = Pin::new(&mut abandoned).poll(cx);
                        Poll::Ready(())
                    })
                    .await;
                    drop(abandoned);
                    h.sleep(SimDuration::nanos(then)).await;
                    log.borrow_mut().push((h.now().0, i, 0)); // as `Sleep { at: then }`
                });
            }
        }
    }
}

/// Run a program to quiescence; the trace plus the run summary is the
/// full observable behaviour.
fn run_program(ops: &[Op], scheduler: Scheduler) -> (Trace, u64, u64, u64) {
    let mut sim = Sim::with_scheduler(0, scheduler);
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_program(&mut sim, ops, &log);
    let s = sim.run();
    let trace = log.borrow().clone();
    (trace, s.end_time.0, s.events, s.tasks_spawned)
}

/// The program with every abandoned sleep left out: each `Abandon` is
/// the plain `Sleep` it ends in. A cancelled timer must leave no trace —
/// no wake, no event, no clock advance — so both programs behave alike.
fn without_abandoned(ops: &[Op]) -> Vec<Op> {
    ops.iter()
        .map(|op| match *op {
            Op::Abandon { then, .. } => Op::Sleep { at: then },
            ref op => op.clone(),
        })
        .collect()
}

/// Run in two halves around `run_until(pause)`, registering extra sleeps
/// in between — the case where the wheel's base is already prepared past
/// the new deadlines.
fn run_paused(
    ops: &[Op],
    late: &[u64],
    pause: u64,
    scheduler: Scheduler,
) -> (Trace, u64, u64, u64) {
    let mut sim = Sim::with_scheduler(0, scheduler);
    let log = Rc::new(RefCell::new(Vec::new()));
    spawn_program(&mut sim, ops, &log);
    sim.run_until(SimTime(pause));
    for (j, &at) in late.iter().enumerate() {
        let h = sim.handle();
        let log = Rc::clone(&log);
        sim.spawn(async move {
            h.sleep_until(SimTime(at)).await;
            log.borrow_mut().push((h.now().0, usize::MAX - j, 2));
        });
    }
    let s = sim.run();
    let trace = log.borrow().clone();
    (trace, s.end_time.0, s.events, s.tasks_spawned)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn wheel_matches_heap_reference(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let heap = run_program(&ops, Scheduler::Heap);
        let wheel = run_program(&ops, Scheduler::Wheel);
        prop_assert_eq!(&heap, &wheel, "wheel diverged from heap reference");
    }

    #[test]
    fn wheel_matches_heap_with_paused_runs(
        ops in prop::collection::vec(op_strategy(), 1..30),
        late in prop::collection::vec(0u64..100_000, 1..10),
        pause in 1u64..100_000,
    ) {
        let heap = run_paused(&ops, &late, pause, Scheduler::Heap);
        let wheel = run_paused(&ops, &late, pause, Scheduler::Wheel);
        prop_assert_eq!(&heap, &wheel, "paused-run traces diverged");
    }

    #[test]
    fn abandoned_sleeps_leave_no_trace(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
            prop_assert_eq!(
                run_program(&ops, scheduler),
                run_program(&without_abandoned(&ops), scheduler),
                "{:?}",
                scheduler
            );
        }
    }

    #[test]
    fn wheel_replays_bit_identically(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        prop_assert_eq!(
            run_program(&ops, Scheduler::Wheel),
            run_program(&ops, Scheduler::Wheel)
        );
    }
}

//! A reusable barrier for simulation processes — the analogue of the MPI
//! barriers the paper uses between benchmark phases (§5.4).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Inner {
    parties: usize,
    arrived: usize,
    generation: u64,
    waiters: Vec<Waker>,
}

/// Reusable N-party barrier. The last arriving process releases everyone and
/// resets the barrier for the next round.
pub struct Barrier {
    inner: Rc<RefCell<Inner>>,
}

impl Clone for Barrier {
    fn clone(&self) -> Self {
        Barrier {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl Barrier {
    /// A barrier for `parties` processes.
    ///
    /// # Panics
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Barrier {
        assert!(parties > 0, "Barrier must have at least one party");
        Barrier {
            inner: Rc::new(RefCell::new(Inner {
                parties,
                arrived: 0,
                generation: 0,
                waiters: Vec::new(),
            })),
        }
    }

    /// Wait until all parties have arrived. Returns `true` for the process
    /// that released the barrier (the "leader" of this generation).
    pub fn wait(&self) -> BarrierWait {
        BarrierWait {
            inner: Rc::clone(&self.inner),
            generation: None,
        }
    }
}

/// Future returned by [`Barrier::wait`].
pub struct BarrierWait {
    inner: Rc<RefCell<Inner>>,
    generation: Option<u64>,
}

impl Future for BarrierWait {
    type Output = bool;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let this = &mut *self;
        let mut inner = this.inner.borrow_mut();
        match this.generation {
            None => {
                // First poll: register arrival.
                let my_gen = inner.generation;
                inner.arrived += 1;
                if inner.arrived == inner.parties {
                    inner.arrived = 0;
                    inner.generation += 1;
                    for w in inner.waiters.drain(..) {
                        w.wake();
                    }
                    return Poll::Ready(true);
                }
                this.generation = Some(my_gen);
                inner.waiters.push(cx.waker().clone());
                Poll::Pending
            }
            Some(my_gen) => {
                if inner.generation > my_gen {
                    Poll::Ready(false)
                } else {
                    inner.waiters.push(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::Cell;

    #[test]
    fn all_parties_released_together() {
        let mut sim = Sim::new(0);
        let barrier = Barrier::new(4);
        let h = sim.handle();
        let release_times = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u64 {
            let barrier = barrier.clone();
            let h = h.clone();
            let times = Rc::clone(&release_times);
            sim.spawn(async move {
                // Arrive at different times; all release at the latest.
                h.sleep(SimDuration::micros(i * 10)).await;
                barrier.wait().await;
                times.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*release_times.borrow(), vec![30_000; 4]);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        let mut sim = Sim::new(0);
        let barrier = Barrier::new(3);
        let leaders = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let barrier = barrier.clone();
            let leaders = Rc::clone(&leaders);
            sim.spawn(async move {
                if barrier.wait().await {
                    leaders.set(leaders.get() + 1);
                }
            });
        }
        sim.run();
        assert_eq!(leaders.get(), 1);
    }

    #[test]
    fn barrier_is_reusable_across_rounds() {
        let mut sim = Sim::new(0);
        let barrier = Barrier::new(2);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for id in 0..2u64 {
            let barrier = barrier.clone();
            let h = h.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..3 {
                    h.sleep(SimDuration::micros(id + 1)).await;
                    barrier.wait().await;
                    log.borrow_mut().push((round, h.now().as_nanos()));
                }
            });
        }
        sim.run();
        // Each round both parties log the same release instant.
        let log = log.borrow();
        assert_eq!(log.len(), 6);
        for round in 0..3 {
            let times: Vec<_> = log.iter().filter(|(r, _)| *r == round).collect();
            assert_eq!(times.len(), 2);
            assert_eq!(times[0].1, times[1].1);
        }
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let mut sim = Sim::new(0);
        let barrier = Barrier::new(1);
        let done = Rc::new(Cell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            assert!(barrier.wait().await);
            d2.set(true);
        });
        let s = sim.run();
        assert!(done.get());
        assert_eq!(s.end_time.as_nanos(), 0);
    }
}

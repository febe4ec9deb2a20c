//! A FIFO resource with `capacity` concurrent slots — the queueing-theory
//! "k-server station" used to model NICs, disks, and CPU threads.
//!
//! Admission is strictly first-come-first-served by acquisition order
//! (ticketed), which keeps contention behaviour deterministic.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::sim::SimHandle;
use crate::time::SimDuration;

struct Inner {
    capacity: usize,
    in_use: usize,
    /// Next ticket number to hand out.
    next_ticket: u64,
    /// Lowest ticket not yet admitted.
    serving: u64,
    /// Wakers for queued tickets.
    waiters: BTreeMap<u64, Waker>,
    /// Tickets abandoned before admission (future dropped).
    cancelled: BTreeSet<u64>,
}

impl Inner {
    /// Skip cancelled tickets and wake the next admissible waiter.
    fn advance(&mut self) {
        while self.cancelled.remove(&self.serving) {
            self.serving += 1;
        }
        if self.in_use < self.capacity {
            if let Some(w) = self.waiters.get(&self.serving) {
                w.wake_by_ref();
            }
        }
    }
}

/// FIFO shared resource (see module docs).
pub struct Resource {
    inner: Rc<RefCell<Inner>>,
}

impl Clone for Resource {
    fn clone(&self) -> Self {
        Resource {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl Resource {
    /// A resource admitting up to `capacity` concurrent holders.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Resource {
        assert!(capacity > 0, "Resource capacity must be positive");
        Resource {
            inner: Rc::new(RefCell::new(Inner {
                capacity,
                in_use: 0,
                next_ticket: 0,
                serving: 0,
                waiters: BTreeMap::new(),
                cancelled: BTreeSet::new(),
            })),
        }
    }

    /// Wait for a slot. Slots are granted in request order.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            inner: Rc::clone(&self.inner),
            ticket: None,
            admitted: false,
        }
    }

    /// Convenience: acquire a slot, hold it for `service_time`, release.
    /// Models one job passing through a queueing station.
    pub async fn serve(&self, handle: &SimHandle, service_time: SimDuration) {
        let guard = self.acquire().await;
        handle.sleep(service_time).await;
        drop(guard);
    }

    /// Number of acquirers waiting for a slot.
    pub fn queue_len(&self) -> usize {
        self.inner.borrow().waiters.len()
    }
}

/// Future returned by [`Resource::acquire`].
pub struct Acquire {
    inner: Rc<RefCell<Inner>>,
    ticket: Option<u64>,
    admitted: bool,
}

impl Future for Acquire {
    type Output = ResourceGuard;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let mut inner = this.inner.borrow_mut();
        let ticket = *this.ticket.get_or_insert_with(|| {
            let t = inner.next_ticket;
            inner.next_ticket += 1;
            t
        });
        if ticket == inner.serving && inner.in_use < inner.capacity {
            inner.waiters.remove(&ticket);
            inner.serving += 1;
            inner.in_use += 1;
            this.admitted = true;
            // A multi-slot resource may be able to admit the next waiter too.
            inner.advance();
            drop(inner);
            return Poll::Ready(ResourceGuard {
                inner: Rc::clone(&this.inner),
            });
        }
        inner.waiters.insert(ticket, cx.waker().clone());
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if self.admitted {
            return; // the guard owns the slot now
        }
        if let Some(ticket) = self.ticket {
            let mut inner = self.inner.borrow_mut();
            inner.waiters.remove(&ticket);
            if ticket == inner.serving {
                inner.serving += 1;
                inner.advance();
            } else {
                inner.cancelled.insert(ticket);
            }
        }
    }
}

/// Holds one slot of a [`Resource`]; releases it (waking the next waiter)
/// on drop.
pub struct ResourceGuard {
    inner: Rc<RefCell<Inner>>,
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.in_use -= 1;
        inner.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration, SimTime};
    use std::cell::Cell;

    /// N jobs through a single-slot station with fixed service time must
    /// serialise: total time = N * service.
    #[test]
    fn single_slot_serialises() {
        let mut sim = Sim::new(0);
        let res = Resource::new(1);
        let h = sim.handle();
        for _ in 0..4 {
            let res = res.clone();
            let h = h.clone();
            sim.spawn(async move {
                res.serve(&h, SimDuration::micros(10)).await;
            });
        }
        let s = sim.run();
        assert_eq!(s.end_time.as_nanos(), 40_000);
    }

    #[test]
    fn capacity_two_halves_the_makespan() {
        let mut sim = Sim::new(0);
        let res = Resource::new(2);
        let h = sim.handle();
        for _ in 0..4 {
            let res = res.clone();
            let h = h.clone();
            sim.spawn(async move {
                res.serve(&h, SimDuration::micros(10)).await;
            });
        }
        let s = sim.run();
        assert_eq!(s.end_time.as_nanos(), 20_000);
    }

    #[test]
    fn admission_is_fifo() {
        let mut sim = Sim::new(0);
        let res = Resource::new(1);
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let res = res.clone();
            let h = h.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                // Stagger arrivals so the arrival order is unambiguous.
                h.sleep(SimDuration::nanos(i)).await;
                let _g = res.acquire().await;
                order.borrow_mut().push(i);
                h.sleep(SimDuration::micros(1)).await;
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancelled_waiter_does_not_block_queue() {
        let mut sim = Sim::new(0);
        let res = Resource::new(1);
        let h = sim.handle();
        let done = Rc::new(Cell::new(false));

        // Holder occupies the slot for 10us.
        {
            let res = res.clone();
            let h = h.clone();
            sim.spawn(async move {
                res.serve(&h, SimDuration::micros(10)).await;
            });
        }
        // This waiter gives up (drops the acquire future) at t=1us.
        {
            let res = res.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(SimDuration::nanos(1)).await;
                let acq = res.acquire();
                // Race the acquire against a 1us timeout by polling it once
                // via a short-lived task, then dropping it.
                futures_drop_after(h.clone(), acq, SimDuration::micros(1)).await;
            });
        }
        // This waiter arrives later and must still get through.
        {
            let res = res.clone();
            let h = h.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                h.sleep(SimDuration::nanos(2)).await;
                let _g = res.acquire().await;
                done.set(true);
            });
        }
        sim.run();
        assert!(done.get());
    }

    /// Poll `fut` until `timeout` elapses, then drop it unfinished.
    async fn futures_drop_after<F: Future + Unpin>(
        h: crate::SimHandle,
        mut fut: F,
        timeout: SimDuration,
    ) {
        let deadline = h.now() + timeout;
        // Poor man's select: alternate between the future and short sleeps.
        loop {
            if h.now() >= deadline {
                drop(fut);
                return;
            }
            match futures_poll_once(&mut fut).await {
                Poll::Ready(_) => return,
                Poll::Pending => h.sleep(SimDuration::nanos(100)).await,
            }
        }
    }

    async fn futures_poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
        struct PollOnce<'a, F>(&'a mut F);
        impl<F: Future + Unpin> Future for PollOnce<'_, F> {
            type Output = Poll<F::Output>;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                Poll::Ready(Pin::new(&mut *self.0).poll(cx))
            }
        }
        PollOnce(fut).await
    }

    #[test]
    fn queue_wait_time_accumulates() {
        // Arrival rate 1 job/10us, service 15us, single slot: job k starts
        // at 15k us. Check the final completion time for 10 jobs.
        let mut sim = Sim::new(0);
        let res = Resource::new(1);
        let h = sim.handle();
        let last_end = Rc::new(Cell::new(SimTime::ZERO));
        for k in 0..10u64 {
            let res = res.clone();
            let h = h.clone();
            let last_end = Rc::clone(&last_end);
            sim.spawn(async move {
                h.sleep(SimDuration::micros(10) * k).await;
                res.serve(&h, SimDuration::micros(15)).await;
                last_end.set(h.now());
            });
        }
        sim.run();
        assert_eq!(last_end.get().as_nanos(), 150_000);
        assert_eq!(res.queue_len(), 0);
    }
}

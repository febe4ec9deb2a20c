//! A FIFO resource with `capacity` concurrent slots — the queueing-theory
//! "k-server station" used to model NICs, disks, and CPU threads.
//!
//! Admission is strictly first-come-first-served by acquisition order
//! (ticketed), which keeps contention behaviour deterministic. An
//! acquirer takes its ticket on its first poll ([`Resource::acquire`]),
//! or at the call ([`Resource::claim`]) when its place in the queue must
//! be fixed before the caller yields.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::sim::SimHandle;
use crate::time::SimDuration;

struct Inner {
    capacity: usize,
    in_use: usize,
    /// Lowest ticket not yet admitted.
    serving: u64,
    /// One entry per ticket from `serving` on, in ticket order (so the
    /// next ticket is `serving + waiters.len()`).
    waiters: VecDeque<Ticket>,
}

/// One ticket's place in the queue.
enum Ticket {
    /// Its acquirer waits, with the waker of its last poll (`None` for a
    /// [`Resource::claim`] not yet polled).
    Held(Option<Waker>),
    /// Its acquirer gave up.
    Abandoned,
}

impl Inner {
    /// Take the next ticket.
    fn ticket(&mut self) -> u64 {
        self.waiters.push_back(Ticket::Held(None));
        self.serving + self.waiters.len() as u64 - 1
    }

    /// Skip abandoned tickets and wake the next admissible waiter.
    fn advance(&mut self) {
        while let Some(Ticket::Abandoned) = self.waiters.front() {
            self.waiters.pop_front();
            self.serving += 1;
        }
        if self.in_use < self.capacity {
            if let Some(Ticket::Held(Some(w))) = self.waiters.front() {
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
                serving: 0,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Wait for a slot. Slots are granted in request order; the request
    /// is made on the first poll.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            inner: Rc::clone(&self.inner),
            ticket: None,
            admitted: false,
        }
    }

    /// [`Resource::acquire`], with the request made now: every acquirer
    /// that asks after this call is admitted after this one, however late
    /// the returned future is first polled. A claim whose future is
    /// dropped unpolled gives its place up.
    pub fn claim(&self) -> Acquire {
        Acquire {
            inner: Rc::clone(&self.inner),
            ticket: Some(self.inner.borrow_mut().ticket()),
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
        let waiters = &self.inner.borrow().waiters;
        waiters
            .iter()
            .filter(|t| matches!(t, Ticket::Held(_)))
            .count()
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
        let ticket = *this.ticket.get_or_insert_with(|| inner.ticket());
        if ticket == inner.serving && inner.in_use < inner.capacity {
            inner.waiters.pop_front();
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
        let at = (ticket - inner.serving) as usize;
        inner.waiters[at] = Ticket::Held(Some(cx.waker().clone()));
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
            let at = (ticket - inner.serving) as usize;
            inner.waiters[at] = Ticket::Abandoned;
            if at == 0 {
                inner.advance();
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
    fn a_claim_keeps_its_place_until_first_polled() {
        let mut sim = Sim::new(0);
        let res = Resource::new(1);
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        let claimed = res.claim();
        // Asked later, but polled first: admitted after the claim.
        let (res2, order2) = (res.clone(), Rc::clone(&order));
        sim.spawn(async move {
            let _g = res2.acquire().await;
            order2.borrow_mut().push("acquire");
        });
        let (h2, order2) = (h.clone(), Rc::clone(&order));
        sim.spawn(async move {
            h2.sleep(SimDuration::micros(1)).await;
            let _g = claimed.await;
            order2.borrow_mut().push("claim");
        });
        // A claim dropped unpolled gives its place up.
        drop(res.claim());
        sim.run();
        assert_eq!(*order.borrow(), ["claim", "acquire"]);
        assert_eq!(res.queue_len(), 0);
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

    /// One step of a contention history. Indices pick among the current
    /// waiters / holders, modulo their number.
    #[derive(Debug, Clone)]
    enum Step {
        /// A new acquirer polls for the first time.
        Acquire,
        /// A waiter gives up: its future is dropped before admission.
        Cancel(usize),
        /// A holder drops its guard.
        Release(usize),
        /// Poll every woken waiter until no wake is left.
        Poll,
    }

    /// What a history showed: the admission order, and `queue_len` after
    /// every step.
    type Seen = (Vec<usize>, Vec<usize>);

    /// The resource under test, driven by hand: each acquirer has its own
    /// waker, and only woken acquirers are polled.
    fn real(capacity: usize, steps: &[Step]) -> Seen {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        struct Woken(AtomicBool);
        impl std::task::Wake for Woken {
            fn wake(self: Arc<Self>) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let res = Resource::new(capacity);
        let mut waiting: Vec<(usize, Acquire, Arc<Woken>)> = Vec::new();
        let mut holding: Vec<ResourceGuard> = Vec::new();
        let (mut admitted, mut queue_lens) = (Vec::new(), Vec::new());
        let mut poll = |id: usize, acq: &mut Acquire, woken: &Arc<Woken>| {
            let waker = Waker::from(Arc::clone(woken));
            let ready = Pin::new(acq).poll(&mut Context::from_waker(&waker));
            ready.map(|guard| {
                admitted.push(id);
                guard
            })
        };
        for (id, step) in steps.iter().enumerate() {
            match *step {
                Step::Acquire => {
                    let (mut acq, woken) = (res.acquire(), Arc::new(Woken(AtomicBool::new(false))));
                    match poll(id, &mut acq, &woken) {
                        Poll::Ready(guard) => holding.push(guard),
                        Poll::Pending => waiting.push((id, acq, woken)),
                    }
                }
                Step::Cancel(i) if !waiting.is_empty() => drop(waiting.remove(i % waiting.len())),
                Step::Release(i) if !holding.is_empty() => drop(holding.remove(i % holding.len())),
                Step::Poll => {
                    let mut i = 0;
                    while i < waiting.len() {
                        let (id, acq, woken) = &mut waiting[i];
                        if !woken.0.swap(false, Ordering::Relaxed) {
                            i += 1;
                            continue;
                        }
                        match poll(*id, acq, woken) {
                            Poll::Ready(guard) => {
                                holding.push(guard);
                                waiting.remove(i);
                                i = 0; // an admission may have woken an earlier waiter
                            }
                            Poll::Pending => i += 1,
                        }
                    }
                }
                _ => {}
            }
            queue_lens.push(res.queue_len());
        }
        (admitted, queue_lens)
    }

    /// The reference: a FIFO of waiters, each admitted once it is at the
    /// front and a slot is free — on its first poll, or on a `Poll` step.
    fn model(capacity: usize, steps: &[Step]) -> Seen {
        let (mut waiting, mut holding) = (std::collections::VecDeque::new(), Vec::new());
        let (mut admitted, mut queue_lens) = (Vec::new(), Vec::new());
        for (id, step) in steps.iter().enumerate() {
            match *step {
                Step::Acquire if waiting.is_empty() && holding.len() < capacity => {
                    admitted.push(id);
                    holding.push(id);
                }
                Step::Acquire => waiting.push_back(id),
                Step::Cancel(i) if !waiting.is_empty() => drop(waiting.remove(i % waiting.len())),
                Step::Release(i) if !holding.is_empty() => drop(holding.remove(i % holding.len())),
                Step::Poll => {
                    while holding.len() < capacity {
                        let Some(id) = waiting.pop_front() else { break };
                        admitted.push(id);
                        holding.push(id);
                    }
                }
                _ => {}
            }
            queue_lens.push(waiting.len());
        }
        (admitted, queue_lens)
    }

    fn step_strategy() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            3 => Just(Step::Acquire),
            2 => (0usize..8).prop_map(Step::Cancel),
            2 => (0usize..8).prop_map(Step::Release),
            2 => Just(Step::Poll),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            .. proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn admission_and_queue_len_match_a_fifo_model(
            capacity in 1usize..4,
            steps in proptest::collection::vec(step_strategy(), 1..60),
        ) {
            proptest::prop_assert_eq!(real(capacity, &steps), model(capacity, &steps));
        }
    }
}

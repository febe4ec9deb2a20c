//! Unbounded FIFO queue between simulation processes.
//!
//! This is the mailbox used by every server actor in the fabric: producers
//! `push`, the actor loops on `recv().await`. Cloning a [`Queue`] clones a
//! handle to the same underlying queue.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Inner<T> {
    items: VecDeque<T>,
    waiters: VecDeque<Waker>,
    closed: bool,
}

/// Unbounded multi-producer multi-consumer FIFO for simulation processes.
pub struct Queue<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Queue<T> {
    /// An empty queue.
    pub fn new() -> Queue<T> {
        Queue {
            inner: Rc::new(RefCell::new(Inner {
                items: VecDeque::new(),
                waiters: VecDeque::new(),
                closed: false,
            })),
        }
    }

    /// Append an item; wakes one waiting consumer. Items pushed after
    /// [`Queue::close`] are silently dropped.
    pub fn push(&self, item: T) {
        let mut inner = self.inner.borrow_mut();
        if inner.closed {
            return;
        }
        inner.items.push_back(item);
        if let Some(w) = inner.waiters.pop_front() {
            w.wake();
        }
    }

    /// Wait for the next item. Resolves to `None` once the queue is closed
    /// and drained.
    pub fn recv(&self) -> Recv<T> {
        Recv {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Close the queue: pending and future `recv`s resolve to `None` once
    /// the backlog is drained.
    pub fn close(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.closed = true;
        for w in inner.waiters.drain(..) {
            w.wake();
        }
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.inner.borrow().items.len()
    }

    /// Whether no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().items.is_empty()
    }
}

/// Future returned by [`Queue::recv`].
pub struct Recv<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

impl<T> Future for Recv<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.inner.borrow_mut();
        if let Some(item) = inner.items.pop_front() {
            return Poll::Ready(Some(item));
        }
        if inner.closed {
            return Poll::Ready(None);
        }
        inner.waiters.push_back(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};

    #[test]
    fn fifo_order_preserved() {
        let mut sim = Sim::new(0);
        let q: Queue<u32> = Queue::new();
        let q2 = q.clone();
        let out = Rc::new(RefCell::new(Vec::new()));
        let out2 = Rc::clone(&out);
        sim.spawn(async move {
            while let Some(v) = q2.recv().await {
                out2.borrow_mut().push(v);
            }
        });
        let h = sim.handle();
        sim.spawn(async move {
            for i in 0..5 {
                q.push(i);
                h.sleep(SimDuration::nanos(10)).await;
            }
            q.close();
        });
        sim.run();
        assert_eq!(*out.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn close_drains_backlog_first() {
        let mut sim = Sim::new(0);
        let q: Queue<u32> = Queue::new();
        q.push(1);
        q.push(2);
        q.close();
        let q2 = q.clone();
        let out = Rc::new(RefCell::new(Vec::new()));
        let out2 = Rc::clone(&out);
        sim.spawn(async move {
            while let Some(v) = q2.recv().await {
                out2.borrow_mut().push(v);
            }
            out2.borrow_mut().push(999); // sentinel: saw the None
        });
        sim.run();
        assert_eq!(*out.borrow(), vec![1, 2, 999]);
    }

    #[test]
    fn push_after_close_is_dropped() {
        let q: Queue<u32> = Queue::new();
        q.close();
        q.push(1);
        assert!(q.is_empty());
    }

    #[test]
    fn multiple_consumers_each_get_distinct_items() {
        let mut sim = Sim::new(0);
        let q: Queue<u32> = Queue::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let q = q.clone();
            let seen = Rc::clone(&seen);
            sim.spawn(async move {
                while let Some(v) = q.recv().await {
                    seen.borrow_mut().push(v);
                }
            });
        }
        let h = sim.handle();
        sim.spawn(async move {
            for i in 0..9 {
                q.push(i);
                h.sleep(SimDuration::nanos(1)).await;
            }
            q.close();
        });
        sim.run();
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, (0..9).collect::<Vec<_>>());
    }
}

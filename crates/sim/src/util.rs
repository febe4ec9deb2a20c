//! Small combinators for simulation futures.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::sim::{Delay, SimHandle};
use crate::sync::{oneshot, OneshotReceiver};
use crate::time::SimDuration;

/// Run every future concurrently (each as its own process) and collect their
/// outputs in input order.
///
/// The classic fan-out/fan-in used for striped disk reads and parallel cache
/// updates.
pub async fn join_all<T, F>(handle: &SimHandle, futures: Vec<F>) -> Vec<T>
where
    T: 'static,
    F: Future<Output = T> + 'static,
{
    let receivers: Vec<OneshotReceiver<T>> = futures
        .into_iter()
        .map(|fut| {
            let (tx, rx) = oneshot();
            handle.spawn(async move {
                tx.send(fut.await);
            });
            rx
        })
        .collect();
    let mut out = Vec::with_capacity(receivers.len());
    for rx in receivers {
        out.push(rx.await.expect("join_all child task dropped its result"));
    }
    out
}

/// Run `fut` with a deadline of `d` virtual time from the call: the
/// returned future resolves to `Some(output)` if `fut` completes in
/// time, `None` once the deadline passes.
///
/// `fut` is spawned at the call, as its own process, so it runs however
/// late the deadline is first polled, and on timeout it is *not*
/// dropped — it keeps running (still consuming virtual time and network
/// resources, like a late RPC response still crossing the wire) and its
/// eventual output is discarded. The deadline timer is cancelled when the
/// future wins the race, so a completed call never stretches the
/// simulation's end time (see [`Delay`]'s drop semantics).
pub fn timeout<T, F>(handle: &SimHandle, d: SimDuration, fut: F) -> impl Future<Output = Option<T>>
where
    T: 'static,
    F: Future<Output = T> + 'static,
{
    let (tx, rx) = oneshot();
    handle.spawn(async move {
        tx.send(fut.await);
    });
    Deadline {
        rx,
        delay: handle.sleep(d),
    }
}

/// Race a oneshot receiver against a deadline, result-first at ties.
struct Deadline<T> {
    rx: OneshotReceiver<T>,
    delay: Delay,
}

impl<T> Future for Deadline<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let this = self.get_mut();
        // Poll the result first so that a value arriving exactly at the
        // deadline still counts as in time.
        if let Poll::Ready(result) = Pin::new(&mut this.rx).poll(cx) {
            // Err(Canceled) means the child task was torn down (simulation
            // shutdown); report it like a timeout rather than panicking.
            return Poll::Ready(result.ok());
        }
        if Pin::new(&mut this.delay).poll(cx).is_ready() {
            return Poll::Ready(None);
        }
        Poll::Pending
    }
}

/// A deterministic token bucket over virtual time: SMCache's rewarm
/// throttle.
///
/// Tokens accrue continuously at `rate_per_sec` up to `burst`; a
/// [`TokenBucket::try_take`] either spends one token or reports the
/// bucket empty — it never sleeps, because a denied rewarm push is
/// simply skipped. Refill is computed lazily from
/// the virtual clock, so the bucket costs no timers and replays
/// bit-identically.
#[derive(Debug)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: std::cell::Cell<f64>,
    last: std::cell::Cell<crate::time::SimTime>,
}

impl TokenBucket {
    /// A bucket that starts full at `now`.
    pub fn new(rate_per_sec: f64, burst: f64, now: crate::time::SimTime) -> TokenBucket {
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: std::cell::Cell::new(burst),
            last: std::cell::Cell::new(now),
        }
    }

    fn refill(&self, now: crate::time::SimTime) {
        let elapsed = now.since(self.last.get());
        if elapsed.as_nanos() > 0 {
            let gained = elapsed.as_nanos() as f64 / 1e9 * self.rate_per_sec;
            self.tokens
                .set((self.tokens.get() + gained).min(self.burst));
            self.last.set(now);
        }
    }

    /// Spend one token if available. `false` means rate-limited.
    pub fn try_take(&self, now: crate::time::SimTime) -> bool {
        self.refill(now);
        if self.tokens.get() >= 1.0 {
            self.tokens.set(self.tokens.get() - 1.0);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn join_all_overlaps_and_preserves_order() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = Rc::new(RefCell::new(Vec::new()));
        let out2 = Rc::clone(&out);
        sim.spawn(async move {
            // Three sleeps of 30/20/10us run concurrently: total 30us, and
            // results come back in input order despite finishing reversed.
            let futs: Vec<_> = [30u64, 20, 10]
                .into_iter()
                .map(|us| {
                    let h = h.clone();
                    async move {
                        h.sleep(SimDuration::micros(us)).await;
                        us
                    }
                })
                .collect();
            let results = join_all(&h, futs).await;
            out2.borrow_mut().extend(results);
            assert_eq!(h.now().as_nanos(), 30_000);
        });
        sim.run();
        assert_eq!(*out.borrow(), vec![30, 20, 10]);
    }

    #[test]
    fn join_all_empty_is_instant() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn(async move {
            let results: Vec<u8> = join_all(&h, Vec::<std::future::Ready<u8>>::new()).await;
            assert!(results.is_empty());
        });
        let s = sim.run();
        assert_eq!(s.end_time.as_nanos(), 0);
    }

    #[test]
    fn timeout_returns_the_value_when_fast_enough() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn(async move {
            let h2 = h.clone();
            let got = timeout(&h, SimDuration::micros(100), async move {
                h2.sleep(SimDuration::micros(10)).await;
                7u32
            })
            .await;
            assert_eq!(got, Some(7));
            assert_eq!(h.now().as_nanos(), 10_000);
        });
        let s = sim.run();
        // The unfired 100us deadline timer must not stretch the run.
        assert_eq!(s.end_time.as_nanos(), 10_000);
        assert_eq!(s.tasks_leaked, 0);
    }

    #[test]
    fn timeout_expires_and_the_loser_keeps_running() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let side_effect = Rc::new(RefCell::new(None));
        let se2 = Rc::clone(&side_effect);
        sim.spawn(async move {
            let h2 = h.clone();
            let got = timeout(&h, SimDuration::micros(20), async move {
                h2.sleep(SimDuration::micros(50)).await;
                se2.borrow_mut().replace(h2.now().as_nanos());
                1u32
            })
            .await;
            assert_eq!(got, None);
            assert_eq!(h.now().as_nanos(), 20_000, "caller resumes at deadline");
        });
        let s = sim.run();
        // The abandoned future completed on its own schedule afterwards.
        assert_eq!(*side_effect.borrow(), Some(50_000));
        assert_eq!(s.end_time.as_nanos(), 50_000);
        assert_eq!(s.tasks_leaked, 0);
    }

    #[test]
    fn token_bucket_spends_refills_and_caps_at_burst() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn(async move {
            // 10 tokens/s, burst 2, starting full.
            let b = TokenBucket::new(10.0, 2.0, h.now());
            assert!(b.try_take(h.now()));
            assert!(b.try_take(h.now()));
            assert!(!b.try_take(h.now()), "burst exhausted");
            // 100ms accrues exactly one token.
            h.sleep(SimDuration::millis(100)).await;
            assert!(b.try_take(h.now()));
            assert!(!b.try_take(h.now()));
            // A long idle refills to burst, not beyond.
            h.sleep(SimDuration::millis(10_000)).await;
            assert!(b.try_take(h.now()));
            assert!(b.try_take(h.now()));
            assert!(!b.try_take(h.now()), "refilled past burst");
        });
        sim.run();
    }
}

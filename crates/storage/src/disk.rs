//! Single-spindle disk model.
//!
//! A disk is a FIFO station (one request at a time) whose service time is
//! positioning + transfer. Positioning cost depends on whether the request
//! continues where the previous one left off — the sequential/random split
//! that makes "a large number of requests to non-contiguous locations"
//! (paper §1) so much slower than streaming.
//!
//! Every access funnels through [`Disk::access`], which is therefore the
//! choke point where an installed [`StorageFaultPlan`] gets to fail or
//! stretch requests (see [`crate::fault`]). Without a plan the fault path
//! costs nothing and consumes no randomness — the exact-cost unit tests
//! keep pinning exact nanosecond totals.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use imca_metrics::{Counter, Histogram, MetricSource, Registry, Snapshot};
use imca_sim::sync::Resource;
use imca_sim::{SimDuration, SimHandle};

use crate::fault::{FaultState, IoError, StorageFaultPlan};

/// Average positioning time (seek + half rotation) for a random access
/// on a 2008-era 7200 rpm SATA disk of the kind in the paper's HighPoint
/// RAID.
const AVG_POSITION: SimDuration = SimDuration::micros(7_500);
/// Positioning charged when a request starts exactly where the last one
/// ended (track-to-track / rotational miss slack).
const SEQUENTIAL_POSITION: SimDuration = SimDuration::micros(50);
/// Media streaming bandwidth, bytes per second.
const STREAMING_BPS: f64 = 90e6;
/// Fixed controller/command overhead per request.
const COMMAND_OVERHEAD: SimDuration = SimDuration::micros(100);

struct DiskInner {
    station: Resource,
    /// Byte address one past the end of the last completed request, used
    /// for sequential detection. Addresses are in a per-disk linear space.
    head_pos: Cell<u64>,
    registry: Registry,
    /// Completed read requests.
    reads: Counter,
    /// Completed write requests.
    writes: Counter,
    /// Requests that were detected as sequential with their predecessor.
    sequential_hits: Counter,
    /// Accesses that failed under the installed fault plan.
    io_errors: Counter,
    /// Queueing + service latency per request, in virtual ns.
    access_ns: Histogram,
    /// Installed fault machinery: this disk's member index plus the
    /// fault state it shares with the rest of its array.
    faults: RefCell<Option<(usize, Rc<RefCell<FaultState>>)>>,
}

/// One spindle. Cloning shares the spindle.
#[derive(Clone)]
pub struct Disk {
    inner: Rc<DiskInner>,
}

impl Disk {
    /// A 2008-era 7200 rpm SATA disk: ~7.5 ms random positioning, ~90 MB/s
    /// streaming.
    pub(crate) fn new() -> Disk {
        let registry = Registry::new();
        Disk {
            inner: Rc::new(DiskInner {
                station: Resource::new(1),
                head_pos: Cell::new(u64::MAX), // first access is never sequential
                reads: registry.counter("reads"),
                writes: registry.counter("writes"),
                sequential_hits: registry.counter("sequential_hits"),
                io_errors: registry.counter("io_errors"),
                access_ns: registry.histogram("access_ns"),
                registry,
                faults: RefCell::new(None),
            }),
        }
    }

    /// Install a fault plan on this disk alone (member index 0). Arrays
    /// install through [`crate::Raid0::install_faults`], which shares one
    /// plan across every member. Replaces any previous plan and reseeds
    /// its RNG, so installing the same plan twice replays the same fault
    /// schedule.
    pub fn install_faults(&self, plan: StorageFaultPlan) {
        self.attach_faults(0, Rc::new(RefCell::new(FaultState::new(plan))));
    }

    /// Share externally built fault state with this disk, as member
    /// `member` of its array.
    pub(crate) fn attach_faults(&self, member: usize, state: Rc<RefCell<FaultState>>) {
        *self.inner.faults.borrow_mut() = Some((member, state));
    }

    /// Judge an access against the installed plan *without* paying any
    /// service time — the backend's per-operation write judge. Counts a
    /// failed verdict as an I/O error on this disk.
    pub(crate) fn judge(&self, h: &SimHandle, write: bool) -> Result<(), IoError> {
        let faults = self.inner.faults.borrow();
        let Some((member, state)) = faults.as_ref() else {
            return Ok(());
        };
        let verdict = state.borrow_mut().judge(*member, write, h.now());
        if verdict.is_err() {
            self.inner.io_errors.inc();
        }
        verdict
    }

    /// Gray-failure service-time multiplier under the installed plan.
    fn latency_factor(&self) -> f64 {
        match &*self.inner.faults.borrow() {
            Some((member, state)) => state.borrow().latency_factor(*member),
            None => 1.0,
        }
    }

    /// Perform an access of `bytes` at linear address `addr`, queueing
    /// behind other requests on this spindle.
    ///
    /// Fails when the installed fault plan says so — after paying the
    /// full (possibly gray-failure-inflated) service time, because a real
    /// `EIO` is slow, not free. The head still moves and the op counters
    /// still tick: the mechanism ran, the data just never made it.
    pub async fn access(
        &self,
        h: &SimHandle,
        addr: u64,
        bytes: u64,
        write: bool,
    ) -> Result<(), IoError> {
        let t0 = h.now();
        let guard = self.inner.station.acquire().await;
        let sequential = self.inner.head_pos.get() == addr;
        if sequential {
            self.inner.sequential_hits.inc();
        }
        let mut t = Disk::service_time(bytes, sequential);
        let factor = self.latency_factor();
        if factor > 1.0 {
            t = SimDuration::nanos((t.as_nanos() as f64 * factor).round() as u64);
        }
        h.sleep(t).await;
        self.inner.head_pos.set(addr.wrapping_add(bytes));
        if write {
            self.inner.writes.inc();
        } else {
            self.inner.reads.inc();
        }
        self.inner.access_ns.record_duration(h.now().since(t0));
        drop(guard);
        self.judge(h, write)
    }

    /// Service time for one request, given whether it is sequential with
    /// the previous request on its spindle.
    pub fn service_time(bytes: u64, sequential: bool) -> SimDuration {
        let position = if sequential {
            SEQUENTIAL_POSITION
        } else {
            AVG_POSITION
        };
        COMMAND_OVERHEAD + position + SimDuration::from_secs_f64(bytes as f64 / STREAMING_BPS)
    }
}

impl MetricSource for Disk {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.inner.registry.collect(prefix, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_sim::Sim;

    /// The disk's counters called `names`, in order.
    fn counters<const N: usize>(disk: &Disk, names: [&str; N]) -> [u64; N] {
        let snap = imca_metrics::collect_from(disk, "");
        names.map(|name| snap.counter(name).expect("registered counter"))
    }

    #[test]
    fn random_access_pays_full_positioning() {
        let t = Disk::service_time(4096, false);
        assert!(t > AVG_POSITION);
        let ts = Disk::service_time(4096, true);
        assert!(ts < SimDuration::micros(250), "sequential too slow: {ts}");
    }

    #[test]
    fn sequential_detection_tracks_head() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let disk = Disk::new();
        let d2 = disk.clone();
        sim.run_main(async move {
            d2.access(&h, 0, 4096, false).await.unwrap(); // random (first)
            d2.access(&h, 4096, 4096, false).await.unwrap(); // sequential
            d2.access(&h, 0, 4096, false).await.unwrap(); // random again
        });
        assert_eq!(counters(&disk, ["reads", "sequential_hits"]), [3, 1]);
    }

    #[test]
    fn spindle_serialises_requests() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let disk = Disk::new();
        let accesses: Vec<_> = (0..4u64)
            .map(|i| {
                let (d, h) = (disk.clone(), h.clone());
                // All random addresses.
                async move { d.access(&h, i * 1_000_000, 4096, i % 2 == 0).await }
            })
            .collect();
        let done = sim.run_main(async move { imca_sim::join_all(&h, accesses).await });
        assert!(done.iter().all(Result::is_ok));
        let end = sim.now();
        let per = Disk::service_time(4096, false);
        assert_eq!(end.as_nanos(), per.as_nanos() * 4);
        assert_eq!(counters(&disk, ["reads", "writes"]), [2, 2]);
    }

    #[test]
    fn read_error_rate_fails_some_accesses_deterministically() {
        fn run(seed: u64) -> (Vec<bool>, u64) {
            let mut sim = Sim::new(0);
            let h = sim.handle();
            let disk = Disk::new();
            disk.install_faults(StorageFaultPlan {
                read_error: 0.3,
                ..StorageFaultPlan::seeded(seed)
            });
            let d2 = disk.clone();
            let fates = sim.run_main(async move {
                let mut fates = Vec::new();
                for i in 0..100u64 {
                    fates.push(d2.access(&h, i * 1_000_000, 4096, false).await.is_ok());
                }
                fates
            });
            (fates, counters(&disk, ["io_errors"])[0])
        }
        let (fates, errors) = run(42);
        assert!(errors > 0, "0.3 over 100 accesses never failed");
        assert!(errors < 100, "0.3 over 100 accesses always failed");
        assert_eq!(errors, fates.iter().filter(|ok| !**ok).count() as u64);
        // Same seed replays the same schedule; a different seed does not.
        assert_eq!(run(42), (fates.clone(), errors));
        assert_ne!(run(43).0, fates);
    }

    #[test]
    fn failed_disk_errors_while_writes_stay_judged_separately() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let disk = Disk::new();
        disk.install_faults(StorageFaultPlan {
            failed_disks: vec![0],
            ..StorageFaultPlan::default()
        });
        let d2 = disk.clone();
        sim.run_main(async move {
            assert!(d2.access(&h, 0, 4096, false).await.is_err());
            assert!(d2.access(&h, 4096, 4096, true).await.is_err());
        });
        // The mechanism still ran: ops counted, and both failures tallied.
        assert_eq!(counters(&disk, ["reads", "writes", "io_errors"]), [1, 1, 2]);
    }

    #[test]
    fn error_window_is_half_open_and_draw_free() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let disk = Disk::new();
        let per = Disk::service_time(4096, false);
        // Window covers exactly the completion instant of the first
        // access (judgement happens when the access completes).
        let start = imca_sim::SimTime::ZERO + per;
        disk.install_faults(StorageFaultPlan {
            error_windows: vec![(start, start + per)],
            ..StorageFaultPlan::default()
        });
        let d2 = disk.clone();
        sim.run_main(async move {
            assert!(d2.access(&h, 0, 4096, false).await.is_err());
            // Second access completes at 2·per — one past the window end,
            // which is half-open, so it succeeds.
            assert!(d2.access(&h, 1_000_000, 4096, false).await.is_ok());
        });
        assert_eq!(counters(&disk, ["io_errors"]), [1]);
    }

    #[test]
    fn gray_failure_stretches_service_time_exactly() {
        let run = |plan: Option<StorageFaultPlan>| {
            let mut sim = Sim::new(0);
            let h = sim.handle();
            let disk = Disk::new();
            if let Some(plan) = plan {
                disk.install_faults(plan);
            }
            sim.run_main(async move {
                disk.access(&h, 0, 4096, false).await.unwrap();
            });
            sim.now().as_nanos()
        };
        let healthy = run(None);
        // An installed-but-benign plan changes nothing at all.
        assert_eq!(run(Some(StorageFaultPlan::default())), healthy);
        let slowed = run(Some(StorageFaultPlan {
            slow_disks: vec![0],
            slow_factor: 3.0,
            ..StorageFaultPlan::default()
        }));
        assert_eq!(slowed, healthy * 3);
    }

    #[test]
    fn streaming_beats_random_by_orders_of_magnitude() {
        // 1 MB sequential in 4 KB chunks vs the same chunks at random
        // addresses — the gap motivates the entire caching hierarchy.
        fn run(sequential: bool) -> u64 {
            let mut sim = Sim::new(0);
            let h = sim.handle();
            let disk = Disk::new();
            sim.run_main(async move {
                for i in 0..256u64 {
                    let addr = if sequential { i * 4096 } else { i * 10_000_000 };
                    disk.access(&h, addr, 4096, false).await.unwrap();
                }
            });
            sim.now().as_nanos()
        }
        let seq = run(true);
        let rnd = run(false);
        assert!(rnd > seq * 10, "seq={seq} rnd={rnd}");
    }
}

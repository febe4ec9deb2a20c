//! RAID-0 striping across spindles — the paper's server stores all files on
//! "a RAID array of 8 HighPoint disks" (§5.1).

use std::cell::RefCell;
use std::rc::Rc;

use imca_metrics::{prefixed, MetricSource, Snapshot};
use imca_sim::{join_all, SimDuration, SimHandle};

use crate::disk::Disk;
use crate::fault::{FaultState, IoError, StorageFaultPlan};

/// A RAID-0 array: consecutive `chunk`-byte stripes round-robin across the
/// member disks. An access touching several stripes proceeds on the member
/// disks in parallel.
#[derive(Clone)]
pub struct Raid0 {
    disks: Vec<Disk>,
    chunk: u64,
}

impl Raid0 {
    /// An array of `n` identical disks with the given stripe chunk size.
    ///
    /// # Panics
    /// Panics if `n` or `chunk` is zero.
    pub fn new(n: usize, chunk: u64) -> Raid0 {
        assert!(n > 0, "RAID needs at least one disk");
        assert!(chunk > 0, "chunk size must be positive");
        Raid0 {
            disks: (0..n).map(|_| Disk::new()).collect(),
            chunk,
        }
    }

    /// Install a fault plan across the whole array: every member shares
    /// one seeded fault state (so draws form a single deterministic
    /// sequence in access-completion order), with the member's array
    /// index naming it in the plan's per-disk knobs. Replaces any
    /// previous plan and reseeds its RNG.
    pub fn install_faults(&self, plan: StorageFaultPlan) {
        let state = Rc::new(RefCell::new(FaultState::new(plan)));
        for (i, disk) in self.disks.iter().enumerate() {
            disk.attach_faults(i, Rc::clone(&state));
        }
    }

    /// Judge an access of `[addr, addr+len)` against the installed plan
    /// without paying any service time — the backend's per-operation
    /// write judge (journal-commit semantics: a logical write either
    /// commits in full or aborts with an I/O error before mutating
    /// anything). Counts a failed verdict on the member that produced it.
    pub(crate) fn judge(
        &self,
        h: &SimHandle,
        addr: u64,
        len: u64,
        write: bool,
    ) -> Result<(), IoError> {
        for (d, _, _) in self.segments(addr, len.max(1)) {
            self.disks[d].judge(h, write)?;
        }
        Ok(())
    }

    /// Split `[addr, addr+len)` into per-disk (disk index, disk-local
    /// address, length) segments, merging contiguous chunks that land on
    /// the same spindle.
    fn segments(&self, addr: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let n = self.disks.len() as u64;
        let mut segs: Vec<(usize, u64, u64)> = Vec::new();
        let mut pos = addr;
        let end = addr + len;
        while pos < end {
            let chunk_idx = pos / self.chunk;
            let within = pos % self.chunk;
            let take = (self.chunk - within).min(end - pos);
            let disk = (chunk_idx % n) as usize;
            // Disk-local linear address: which of *its* chunks, plus offset.
            let local = (chunk_idx / n) * self.chunk + within;
            match segs.last_mut() {
                Some((d, la, ll)) if *d == disk && *la + *ll == local => *ll += take,
                _ => segs.push((disk, local, take)),
            }
            pos += take;
        }
        segs
    }

    /// Access `[addr, addr+len)`, fanning out to member disks in parallel
    /// and completing when the slowest segment completes.
    ///
    /// RAID0 has no redundancy, so the access fails if *any* member
    /// segment fails — but only after every segment has run to
    /// completion (the controller does not cancel in-flight siblings).
    pub async fn access(
        &self,
        h: &SimHandle,
        addr: u64,
        len: u64,
        write: bool,
    ) -> Result<(), IoError> {
        if len == 0 {
            return Ok(());
        }
        let segs = self.segments(addr, len);
        if segs.len() == 1 {
            let (d, la, ll) = segs[0];
            return self.disks[d].access(h, la, ll, write).await;
        }
        let futs: Vec<_> = segs
            .into_iter()
            .map(|(d, la, ll)| {
                let disk = self.disks[d].clone();
                let h = h.clone();
                async move { disk.access(&h, la, ll, write).await }
            })
            .collect();
        let results = join_all(h, futs).await;
        results.into_iter().collect()
    }

    /// Unloaded time for a single access (no queueing): the slowest member
    /// segment. Useful for calibration assertions.
    pub fn unloaded_access_time(&self, addr: u64, len: u64, sequential: bool) -> SimDuration {
        self.segments(addr, len)
            .into_iter()
            .map(|(_, _, ll)| Disk::service_time(ll, sequential))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

impl MetricSource for Raid0 {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        let mut io_errors = 0;
        for (i, disk) in self.disks.iter().enumerate() {
            let member = prefixed(prefix, &format!("disk.{i}"));
            disk.collect(&member, snap);
            io_errors += snap.counter(&prefixed(&member, "io_errors")).unwrap_or(0);
        }
        // Array-wide aggregate, so failure experiments can assert on one
        // number (`storage.io_errors`) instead of walking members.
        snap.set_counter(prefixed(prefix, "io_errors"), io_errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_sim::Sim;

    fn array(n: usize, chunk: u64) -> Raid0 {
        Raid0::new(n, chunk)
    }

    #[test]
    fn segments_cover_request_exactly() {
        let r = array(4, 1024);
        let segs = r.segments(500, 3000);
        let total: u64 = segs.iter().map(|(_, _, l)| l).sum();
        assert_eq!(total, 3000);
        // First segment is the tail of chunk 0 on disk 0.
        assert_eq!(segs[0], (0, 500, 524));
    }

    #[test]
    fn contiguous_same_disk_chunks_merge() {
        let r = array(1, 1024);
        // Single disk: everything lands on disk 0 and merges into one seg.
        let segs = r.segments(0, 10_000);
        assert_eq!(segs, vec![(0, 0, 10_000)]);
    }

    #[test]
    fn wide_access_uses_all_disks() {
        let r = array(4, 1024);
        let segs = r.segments(0, 4096);
        let disks: Vec<usize> = segs.iter().map(|(d, _, _)| *d).collect();
        assert_eq!(disks, vec![0, 1, 2, 3]);
        // Disk-local addresses restart per disk.
        for (_, la, ll) in segs {
            assert_eq!((la, ll), (0, 1024));
        }
    }

    #[test]
    fn striping_parallelises_large_reads() {
        // Striping parallelises the *transfer*; positioning is still paid
        // once per spindle (in parallel). So the win grows with request
        // size: modest at 512 KB, large at 8 MB.
        fn run(n: usize, len: u64) -> u64 {
            let mut sim = Sim::new(0);
            let h = sim.handle();
            let r = array(n, 64 * 1024);
            sim.run_main(async move {
                r.access(&h, 0, len, false).await.unwrap();
            });
            sim.now().as_nanos()
        }
        let small = 512 * 1024;
        let large = 8 * 1024 * 1024;
        assert!(run(8, small) < run(1, small));
        assert!(
            run(8, large) * 3 < run(1, large),
            "8-wide={} 1-wide={}",
            run(8, large),
            run(1, large)
        );
    }

    #[test]
    fn zero_length_access_is_free() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let r = array(8, 64 * 1024);
        sim.run_main(async move {
            r.access(&h, 123, 0, false).await.unwrap();
        });
        assert_eq!(sim.now().as_nanos(), 0);
    }

    #[test]
    fn failed_member_fails_any_stripe_touching_it() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let r = array(4, 1024);
        r.install_faults(StorageFaultPlan {
            failed_disks: vec![2],
            ..StorageFaultPlan::default()
        });
        let r2 = r.clone();
        sim.run_main(async move {
            // Chunks 0–1 live on disks 0–1: untouched, fine.
            assert!(r2.access(&h, 0, 2048, false).await.is_ok());
            // A 4-chunk stripe crosses disk 2: the whole access fails.
            assert!(r2.access(&h, 0, 4096, false).await.is_err());
            // The untimed judge agrees, without moving the clock.
            let before = h.now();
            assert!(r2.judge(&h, 0, 4096, true).is_err());
            assert_eq!(h.now(), before);
        });
        let snap = imca_metrics::collect_from(&r, "");
        assert_eq!(snap.counter("io_errors"), Some(2));
        // Only the failed member tallied them.
        assert_eq!(snap.counter("disk.2.io_errors"), Some(2));
    }

    #[test]
    fn unloaded_time_matches_simulated_single_access() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let r = array(8, 64 * 1024);
        let expect = r.unloaded_access_time(0, 512 * 1024, false);
        let r2 = r.clone();
        sim.run_main(async move {
            r2.access(&h, 0, 512 * 1024, false).await.unwrap();
        });
        assert_eq!(sim.now().as_nanos(), expect.as_nanos());
    }
}

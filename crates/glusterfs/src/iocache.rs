//! `performance/io-cache` — GlusterFS's client-side page cache.
//!
//! The paper's "NoCache" baseline runs without it ("GlusterFS does not
//! provide a client side cache in the default configuration", §1), and its
//! coherence model is exactly the weakness §3 discusses: cached pages are
//! *revalidated by mtime* only after a timeout, so concurrent writers can
//! be observed stale for up to `revalidate_timeout`. IMCa exists to get
//! client-cache-like latency without this trade-off.
//!
//! Implemented faithfully enough to compare against IMCa in the
//! `ablate_client_cache` experiment: per-file page map + LRU accounting,
//! mtime validation via `stat` on first use after the timeout, drop on
//! write/unlink.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use imca_metrics::{prefixed, Counter, MetricSource, Registry, Snapshot};
use imca_sim::{SimDuration, SimHandle, SimTime};

use crate::fops::{Fop, FopReply};
use crate::translator::{wind, FopFuture, Translator, Xlator};

const PAGE: u64 = 4096;

struct FileCache {
    pages: HashMap<u64, Vec<u8>>,
    /// mtime we validated against.
    mtime_ns: u64,
    /// When we last validated with the server.
    validated_at: SimTime,
}

/// Client-side page cache with timeout-based mtime revalidation.
pub struct IoCache {
    child: Xlator,
    handle: SimHandle,
    revalidate_timeout: SimDuration,
    capacity_pages: usize,
    files: RefCell<HashMap<String, FileCache>>,
    resident: Cell<usize>,
    registry: Registry,
    /// Reads served entirely from cached pages.
    hits: Counter,
    /// Reads that went to the child.
    misses: Counter,
    /// mtime revalidations performed.
    revalidations: Counter,
}

impl IoCache {
    /// GlusterFS's default io-cache revalidation timeout (1 s).
    pub const DEFAULT_TIMEOUT: SimDuration = SimDuration::secs(1);

    /// Wrap `child` with an io-cache of `capacity_bytes`.
    pub fn new(
        handle: SimHandle,
        child: Xlator,
        capacity_bytes: u64,
        revalidate_timeout: SimDuration,
    ) -> Rc<IoCache> {
        let registry = Registry::new();
        Rc::new(IoCache {
            child,
            handle,
            revalidate_timeout,
            capacity_pages: (capacity_bytes / PAGE).max(1) as usize,
            files: RefCell::new(HashMap::new()),
            resident: Cell::new(0),
            hits: registry.counter("hits"),
            misses: registry.counter("misses"),
            revalidations: registry.counter("revalidations"),
            registry,
        })
    }

    fn drop_file(&self, path: &str) {
        if let Some(fc) = self.files.borrow_mut().remove(path) {
            self.resident.set(self.resident.get() - fc.pages.len());
        }
    }

    fn try_serve(&self, path: &str, offset: u64, len: u64) -> Option<Vec<u8>> {
        let files = self.files.borrow();
        let fc = files.get(path)?;
        let first = offset / PAGE;
        let last = (offset + len - 1) / PAGE;
        let mut out = Vec::with_capacity(len as usize);
        for p in first..=last {
            let page = fc.pages.get(&p)?;
            let pstart = p * PAGE;
            let from = offset.max(pstart) - pstart;
            let to = ((offset + len).min(pstart + PAGE) - pstart).min(page.len() as u64);
            if from > to {
                return None;
            }
            out.extend_from_slice(&page[from as usize..to as usize]);
            if (to as usize) < page.len().min(PAGE as usize) && pstart + to < offset + len {
                // Short page mid-range: only valid at EOF; bail to child.
                return None;
            }
        }
        Some(out)
    }

    fn fill(&self, path: &str, offset: u64, data: &[u8], mtime_ns: u64) {
        let mut files = self.files.borrow_mut();
        let now = self.handle.now();
        let fc = files.entry(path.to_string()).or_insert_with(|| FileCache {
            pages: HashMap::new(),
            mtime_ns,
            validated_at: now,
        });
        // Only cache pages fully covered by this read (partial tails are
        // cached too: they mark EOF).
        let first = offset / PAGE;
        for (i, chunk) in data.chunks(PAGE as usize).enumerate() {
            if !offset.is_multiple_of(PAGE) {
                break; // unaligned fills are not cached (simplification)
            }
            let inserted = fc.pages.insert(first + i as u64, chunk.to_vec()).is_none();
            if inserted {
                self.resident.set(self.resident.get() + 1);
            }
        }
        // Crude global bound: dump everything when over capacity (the real
        // translator LRUs per page; total eviction is rare in our runs).
        if self.resident.get() > self.capacity_pages {
            files.clear();
            self.resident.set(0);
        }
    }
}

impl MetricSource for IoCache {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        snap.set_gauge(
            prefixed(prefix, "resident_pages"),
            self.resident.get() as i64,
        );
    }
}

impl Translator for IoCache {
    fn name(&self) -> &'static str {
        "performance/io-cache"
    }

    fn handle(self: Rc<Self>, fop: Fop) -> FopFuture {
        Box::pin(async move {
            match fop {
                Fop::Read { path, offset, len } => {
                    if len == 0 {
                        return FopReply::Read(Ok(Vec::new()));
                    }
                    // Revalidate by mtime if the cache entry is stale.
                    let needs_validation = {
                        let files = self.files.borrow();
                        match files.get(&path) {
                            Some(fc) => {
                                self.handle.now().saturating_since(fc.validated_at)
                                    >= self.revalidate_timeout
                            }
                            None => false,
                        }
                    };
                    if needs_validation {
                        self.revalidations.inc();
                        let reply = wind(&self.child, Fop::Stat { path: path.clone() }).await;
                        if let FopReply::Stat(Ok(st)) = reply {
                            let mut files = self.files.borrow_mut();
                            if let Some(fc) = files.get_mut(&path) {
                                if fc.mtime_ns == st.mtime_ns {
                                    fc.validated_at = self.handle.now();
                                } else {
                                    let n = fc.pages.len();
                                    files.remove(&path);
                                    self.resident.set(self.resident.get() - n);
                                }
                            }
                        } else {
                            self.drop_file(&path);
                        }
                    }
                    if let Some(data) = self.try_serve(&path, offset, len) {
                        self.hits.inc();
                        return FopReply::Read(Ok(data));
                    }
                    self.misses.inc();
                    // Fetch page-aligned so whole pages can be cached.
                    let aoff = offset - offset % PAGE;
                    let alen = (offset + len).div_ceil(PAGE) * PAGE - aoff;
                    let reply = wind(
                        &self.child,
                        Fop::Read {
                            path: path.clone(),
                            offset: aoff,
                            len: alen,
                        },
                    )
                    .await;
                    match reply {
                        FopReply::Read(Ok(data)) => {
                            // Real GlusterFS read callbacks carry post-op
                            // attributes; our replies do not, so the first
                            // fill of a file learns the mtime with one
                            // stat. Subsequent fills reuse the entry's.
                            let mtime = self.files.borrow().get(&path).map(|f| f.mtime_ns);
                            let mtime = match mtime {
                                Some(m) => m,
                                None => {
                                    match wind(&self.child, Fop::Stat { path: path.clone() }).await
                                    {
                                        FopReply::Stat(Ok(st)) => st.mtime_ns,
                                        _ => 0,
                                    }
                                }
                            };
                            self.fill(&path, aoff, &data, mtime);
                            let rel = (offset - aoff) as usize;
                            let end = (rel + len as usize).min(data.len());
                            FopReply::Read(Ok(if rel <= data.len() {
                                data[rel.min(data.len())..end].to_vec()
                            } else {
                                Vec::new()
                            }))
                        }
                        other => other,
                    }
                }
                // Local writes update the server and drop our copy (the
                // real translator is write-through like this).
                Fop::Write { ref path, .. } | Fop::Unlink { ref path } => {
                    self.drop_file(path);
                    wind(&self.child, fop).await
                }
                Fop::Open { path } => {
                    // Open refreshes the validation point.
                    let reply = wind(&self.child, Fop::Open { path: path.clone() }).await;
                    if let FopReply::Open(Ok(st)) = &reply {
                        let mut files = self.files.borrow_mut();
                        if let Some(fc) = files.get_mut(&path) {
                            if fc.mtime_ns != st.mtime_ns {
                                let n = fc.pages.len();
                                files.remove(&path);
                                self.resident.set(self.resident.get() - n);
                            } else {
                                fc.validated_at = self.handle.now();
                            }
                        }
                    }
                    reply
                }
                other => wind(&self.child, other).await,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posix::Posix;
    use crate::translator::testutil::counter;
    use crate::translator::wind;
    use imca_sim::Sim;
    use imca_storage::{BackendParams, StorageBackend};

    fn stack(sim: &Sim, timeout: SimDuration) -> (Rc<IoCache>, Xlator) {
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be);
        let ioc = IoCache::new(sim.handle(), posix, 64 << 20, timeout);
        (Rc::clone(&ioc), ioc as Xlator)
    }

    async fn seed(top: &Xlator, path: &str, len: usize) {
        wind(top, Fop::Create { path: path.into() }).await;
        wind(
            top,
            Fop::Write {
                path: path.into(),
                offset: 0,
                data: (0..len).map(|i| (i % 251) as u8).collect(),
            },
        )
        .await;
    }

    #[test]
    fn repeated_reads_hit_locally() {
        let mut sim = Sim::new(0);
        let (ioc, top) = stack(&sim, IoCache::DEFAULT_TIMEOUT);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            seed(&top2, "/f", 64 * 1024).await;
            for _ in 0..5 {
                let FopReply::Read(Ok(d)) = wind(
                    &top2,
                    Fop::Read {
                        path: "/f".into(),
                        offset: 8192,
                        len: 4096,
                    },
                )
                .await
                else {
                    panic!()
                };
                assert_eq!(d[0], (8192 % 251) as u8);
            }
        });
        assert_eq!(counter(&*ioc, "misses"), 1);
        assert_eq!(counter(&*ioc, "hits"), 4);
    }

    #[test]
    fn own_write_invalidates() {
        let mut sim = Sim::new(0);
        let (_ioc, top) = stack(&sim, IoCache::DEFAULT_TIMEOUT);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            seed(&top2, "/f", 8192).await;
            wind(
                &top2,
                Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await;
            wind(
                &top2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![0xCC; 4096],
                },
            )
            .await;
            let FopReply::Read(Ok(d)) = wind(
                &top2,
                Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await
            else {
                panic!()
            };
            assert!(d.iter().all(|&b| b == 0xCC));
        });
    }

    #[test]
    fn stale_window_exists_until_revalidation() {
        // The coherence hazard the paper contrasts IMCa against: a remote
        // write inside the revalidation window is NOT observed.
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be);
        // Two independent io-caches over one posix = two clients.
        let ioc_a = IoCache::new(
            sim.handle(),
            Rc::clone(&posix) as Xlator,
            64 << 20,
            SimDuration::millis(10),
        );
        let top_a = Rc::clone(&ioc_a) as Xlator;
        let top_b = posix as Xlator; // writer bypasses (direct)
        let h = sim.handle();
        sim.run_main(async move {
            seed(&top_b, "/shared", 4096).await;
            // A caches version 1.
            let FopReply::Read(Ok(v1)) = wind(
                &top_a,
                Fop::Read {
                    path: "/shared".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await
            else {
                panic!()
            };
            // B overwrites through the server.
            wind(
                &top_b,
                Fop::Write {
                    path: "/shared".into(),
                    offset: 0,
                    data: vec![0xEE; 4096],
                },
            )
            .await;
            // Inside the window: A still sees v1 (stale!).
            let FopReply::Read(Ok(stale)) = wind(
                &top_a,
                Fop::Read {
                    path: "/shared".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(stale, v1, "expected the documented staleness window");
            // After the timeout, revalidation notices the mtime change.
            h.sleep(SimDuration::millis(11)).await;
            let FopReply::Read(Ok(fresh)) = wind(
                &top_a,
                Fop::Read {
                    path: "/shared".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await
            else {
                panic!()
            };
            assert!(fresh.iter().all(|&b| b == 0xEE), "revalidation failed");
        });
        assert!(counter(&*ioc_a, "revalidations") >= 1);
    }

    #[test]
    fn failed_read_caches_nothing() {
        use imca_storage::StorageFaultPlan;
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be.clone());
        let ioc = IoCache::new(sim.handle(), posix, 64 << 20, IoCache::DEFAULT_TIMEOUT);
        let top = Rc::clone(&ioc) as Xlator;
        sim.run_main(async move {
            seed(&top, "/f", 8192).await;
            be.drop_caches();
            be.install_faults(StorageFaultPlan {
                read_error: 1.0,
                ..StorageFaultPlan::default()
            });
            let r = wind(
                &top,
                Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await;
            assert_eq!(r, FopReply::Read(Err(crate::fops::FsError::Io)));
            be.install_faults(StorageFaultPlan::default());
            // Nothing from the failed read may be served: this retry must
            // miss to the child and come back with the real bytes.
            let FopReply::Read(Ok(d)) = wind(
                &top,
                Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(d[1], 1, "seed pattern is i % 251");
        });
        assert_eq!(
            counter(&*ioc, "hits"),
            0,
            "a failed read must not seed cache hits"
        );
        assert_eq!(counter(&*ioc, "misses"), 2);
    }

    #[test]
    fn revalidation_without_change_keeps_pages() {
        let mut sim = Sim::new(0);
        let (ioc, top) = stack(&sim, SimDuration::millis(5));
        let top2 = Rc::clone(&top);
        let h = sim.handle();
        sim.run_main(async move {
            seed(&top2, "/f", 4096).await;
            wind(
                &top2,
                Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await;
            h.sleep(SimDuration::millis(6)).await;
            // Revalidates (stat), then serves from cache.
            wind(
                &top2,
                Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await;
        });
        assert_eq!(counter(&*ioc, "revalidations"), 1);
        assert_eq!(counter(&*ioc, "hits"), 1);
        assert_eq!(counter(&*ioc, "misses"), 1);
    }
}

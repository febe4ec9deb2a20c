//! A timed local filesystem backend: RAID + page cache + real bytes.
//!
//! This is what sits *under* a file server (the GlusterFS POSIX translator,
//! a Lustre OST, the NFS server): reads and writes move real bytes through
//! the [`ExtentStore`] while the [`PageCache`] and [`Raid0`] models charge
//! virtual time the way a 2008 storage stack would.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use imca_metrics::{prefixed, MetricSource, Snapshot};
use imca_sim::{SimDuration, SimHandle};

use crate::extent::ExtentStore;
use crate::fault::{IoError, StorageFaultPlan};
use crate::pagecache::{FileId, PageCache};
use crate::raid::Raid0;

/// Synthetic page index holding a file's inode block. Stat traffic competes
/// for page-cache space with data, as it does in a real kernel. Far beyond
/// any real data page (2^40 pages = 4 EiB) but small enough that
/// `INODE_PAGE * PAGE_SIZE` cannot overflow.
const INODE_PAGE: u64 = 1 << 40;

/// Address space reserved per file on the array (files never exceed this in
/// our workloads; keeps per-file placement contiguous so sequential streams
/// are detected by the disk model).
const FILE_SPACING: u64 = 4 << 30;

/// RAID chunk size in bytes.
const RAID_CHUNK: u64 = 64 * 1024;
/// Page size.
const PAGE_SIZE: u64 = 4096;
/// Memory-copy bandwidth for cache hits, bytes/s.
const MEMCPY_BPS: f64 = 3e9;
/// Fixed overhead per cache-hit copy.
const MEMCPY_BASE: SimDuration = SimDuration::nanos(200);

/// Tunables for one storage backend: a RAID-0 of 2008-era SATA disks
/// striped in 64 KB chunks under a page cache of 4 KB pages, whose hits
/// copy at 3 GB/s.
#[derive(Debug, Clone)]
pub struct BackendParams {
    /// Number of RAID-0 spindles.
    pub raid_disks: usize,
    /// Page-cache capacity in bytes (the server's memory).
    pub cache_bytes: u64,
    /// Write-back throttle: when dirty pages exceed this, the writer
    /// synchronously flushes this many pages back to half the limit.
    pub dirty_limit_pages: usize,
}

impl BackendParams {
    /// The paper's GlusterFS server: 8-disk HighPoint RAID, 8 GB RAM
    /// (≈6 GB usable as page cache), 4 KB pages.
    pub fn paper_server() -> BackendParams {
        BackendParams {
            raid_disks: 8,
            cache_bytes: 6 << 30,
            dirty_limit_pages: 1 << 18, // 1 GB of dirty data
        }
    }

    /// Same server with a different page-cache size (Fig 1 varies server
    /// memory).
    pub fn with_cache_bytes(mut self, bytes: u64) -> BackendParams {
        self.cache_bytes = bytes;
        self
    }
}

struct Inner {
    handle: SimHandle,
    params: BackendParams,
    raid: Raid0,
    cache: RefCell<PageCache>,
    extents: RefCell<ExtentStore>,
    placement: RefCell<HashMap<FileId, u64>>,
    next_slot: Cell<u64>,
}

/// Shareable handle to one timed storage backend.
#[derive(Clone)]
pub struct StorageBackend {
    inner: Rc<Inner>,
}

impl StorageBackend {
    /// Build a backend scheduling on `handle`.
    pub fn new(handle: SimHandle, params: BackendParams) -> StorageBackend {
        let raid = Raid0::new(params.raid_disks, RAID_CHUNK);
        let cache = PageCache::new(params.cache_bytes, PAGE_SIZE);
        StorageBackend {
            inner: Rc::new(Inner {
                handle,
                params,
                raid,
                cache: RefCell::new(cache),
                extents: RefCell::new(ExtentStore::new()),
                placement: RefCell::new(HashMap::new()),
                next_slot: Cell::new(0),
            }),
        }
    }

    fn base_addr(&self, file: FileId) -> u64 {
        let mut placement = self.inner.placement.borrow_mut();
        *placement.entry(file).or_insert_with(|| {
            let slot = self.inner.next_slot.get();
            self.inner.next_slot.set(slot + 1);
            slot * FILE_SPACING
        })
    }

    fn memcpy_time(&self, bytes: u64) -> SimDuration {
        MEMCPY_BASE + SimDuration::from_secs_f64(bytes as f64 / MEMCPY_BPS)
    }

    /// Install a fault plan on the backing array (see
    /// [`Raid0::install_faults`]). Logical writes are judged against it
    /// up front with journal-commit semantics — see
    /// [`StorageBackend::write`] — while reads fail from the timed media
    /// accesses themselves.
    pub fn install_faults(&self, plan: StorageFaultPlan) {
        self.inner.raid.install_faults(plan);
    }

    /// Create an empty file (charges an inode write into the cache).
    /// Judged like a write: a failed create mutates nothing.
    pub async fn create(&self, file: FileId) -> Result<(), IoError> {
        let base = self.base_addr(file);
        self.inner.raid.judge(&self.inner.handle, base, 512, true)?;
        self.inner.extents.borrow_mut().create(file);
        let evicted = self
            .inner
            .cache
            .borrow_mut()
            .insert(file, INODE_PAGE * PAGE_SIZE, 1, true);
        self.flush_evicted(evicted).await;
        let t = self.memcpy_time(512);
        self.inner.handle.sleep(t).await;
        Ok(())
    }

    /// Whether `file` exists.
    pub fn exists(&self, file: FileId) -> bool {
        self.inner.extents.borrow().exists(file)
    }

    /// Current file length (untimed metadata peek for callers that manage
    /// their own stat cost).
    pub fn len(&self, file: FileId) -> Option<u64> {
        self.inner.extents.borrow().len(file)
    }

    /// Timed stat: hits the inode in the page cache or pays a small random
    /// disk read. A file that does not exist resolves from the in-memory
    /// inode/dentry tables without touching the disk (negative lookups are
    /// cheap). A failed inode read is *not* cached: the next stat retries
    /// the media.
    pub async fn stat(&self, file: FileId) -> Result<Option<u64>, IoError> {
        if !self.exists(file) {
            let t = self.memcpy_time(128);
            self.inner.handle.sleep(t).await;
            return Ok(None);
        }
        let lookup = self
            .inner
            .cache
            .borrow_mut()
            .lookup(file, INODE_PAGE * PAGE_SIZE, 1);
        if lookup.hit_pages > 0 {
            let t = self.memcpy_time(256);
            self.inner.handle.sleep(t).await;
        } else {
            // Inode block read: small random access near the file's data.
            let base = self.base_addr(file);
            self.inner
                .raid
                .access(&self.inner.handle, base, 512, false)
                .await?;
            let evicted =
                self.inner
                    .cache
                    .borrow_mut()
                    .insert(file, INODE_PAGE * PAGE_SIZE, 1, false);
            self.flush_evicted(evicted).await;
        }
        Ok(self.inner.extents.borrow().len(file))
    }

    /// Timed read of `[offset, offset+len)`: page-cache hits pay memcpy,
    /// misses pay RAID access and populate the cache. Returns the bytes
    /// actually read (short at EOF).
    ///
    /// A failed media read fails the whole request and populates
    /// *nothing* — a page the disk never produced must not appear in the
    /// cache, or a retry would "succeed" with garbage.
    pub async fn read(&self, file: FileId, offset: u64, len: u64) -> Result<Vec<u8>, IoError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let base = self.base_addr(file);
        let lookup = self.inner.cache.borrow_mut().lookup(file, offset, len);
        if lookup.hit_pages > 0 {
            let t = self.memcpy_time(lookup.hit_pages * PAGE_SIZE);
            self.inner.handle.sleep(t).await;
        }
        for (miss_off, miss_len) in &lookup.miss_ranges {
            self.inner
                .raid
                .access(&self.inner.handle, base + miss_off, *miss_len, false)
                .await?;
            let evicted = self
                .inner
                .cache
                .borrow_mut()
                .insert(file, *miss_off, *miss_len, false);
            self.flush_evicted(evicted).await;
        }
        Ok(self.inner.extents.borrow().read(file, offset, len))
    }

    /// Timed write: bytes land in the extent store immediately (writes are
    /// persistent from the caller's point of view once this returns — the
    /// page cache is write-back with throttling, standing in for the
    /// journal/ordered-mode semantics of the paper's ext3 backend).
    ///
    /// Under an installed fault plan the write is judged *once, up
    /// front*, over the stripes it would touch: like an ext3 journal
    /// commit, it either becomes durable in full or aborts with `EIO`
    /// having mutated nothing. Later write-back of already-acknowledged
    /// pages can still hit media errors; those are tallied in
    /// `io_errors` but not surfaced to an unrelated caller (durability
    /// in this model is owned by the extent store).
    pub async fn write(&self, file: FileId, offset: u64, data: &[u8]) -> Result<(), IoError> {
        let base = self.base_addr(file);
        self.inner
            .raid
            .judge(&self.inner.handle, base + offset, data.len() as u64, true)?;
        self.inner.extents.borrow_mut().write(file, offset, data);
        let t = self.memcpy_time(data.len() as u64);
        self.inner.handle.sleep(t).await;
        let evicted = self
            .inner
            .cache
            .borrow_mut()
            .insert(file, offset, data.len() as u64, true);
        self.flush_evicted(evicted).await;
        self.throttle_dirty().await;
        // Keep the cached inode fresh (size may have grown).
        let ev = self
            .inner
            .cache
            .borrow_mut()
            .insert(file, INODE_PAGE * PAGE_SIZE, 1, true);
        self.flush_evicted(ev).await;
        Ok(())
    }

    /// Remove a file: drops cached pages and extents. Judged like a
    /// write (all-or-nothing): a failed remove leaves the file — and its
    /// cached pages — untouched.
    pub async fn remove(&self, file: FileId) -> Result<bool, IoError> {
        let base = self.base_addr(file);
        self.inner.raid.judge(&self.inner.handle, base, 512, true)?;
        self.inner.cache.borrow_mut().invalidate_file(file);
        let existed = self.inner.extents.borrow_mut().remove(file);
        if existed {
            // Metadata update to the directory/inode blocks. The logical
            // op already committed at the judge; a media error here is
            // write-back noise (tallied, not surfaced).
            let _ = self
                .inner
                .raid
                .access(&self.inner.handle, base, 512, true)
                .await;
        }
        Ok(existed)
    }

    /// Drop every clean and dirty page (e.g. to simulate a cold cache).
    /// Dirty data is already persistent in the extent store.
    pub fn drop_caches(&self) {
        let cap = self.inner.params.cache_bytes;
        *self.inner.cache.borrow_mut() = PageCache::new(cap, PAGE_SIZE);
    }

    /// The simulation handle this backend charges time on.
    pub fn handle(&self) -> SimHandle {
        self.inner.handle.clone()
    }

    /// One snapshot covering the whole backend: per-spindle counters and
    /// latency under `disk.<i>.*`, page-cache state under `pagecache.*`.
    pub fn metrics(&self) -> Snapshot {
        imca_metrics::collect_from(self, "")
    }

    /// Write back evicted dirty pages. Media errors here concern data the
    /// extent store already owns durably, so they are tallied by the
    /// disks but deliberately not propagated to whichever unrelated
    /// operation happened to trigger the eviction.
    async fn flush_evicted(&self, evicted: Vec<crate::pagecache::Evicted>) {
        for ev in evicted {
            if ev.dirty && ev.page != INODE_PAGE {
                let base = self.base_addr(ev.file);
                let _ = self
                    .inner
                    .raid
                    .access(
                        &self.inner.handle,
                        base + ev.page * PAGE_SIZE,
                        PAGE_SIZE,
                        true,
                    )
                    .await;
            } else if ev.dirty {
                let base = self.base_addr(ev.file);
                let _ = self
                    .inner
                    .raid
                    .access(&self.inner.handle, base, 512, true)
                    .await;
            }
        }
    }

    async fn throttle_dirty(&self) {
        let limit = self.inner.params.dirty_limit_pages;
        let dirty = self.inner.cache.borrow().dirty_page_count();
        if dirty <= limit {
            return;
        }
        let to_flush = dirty - limit / 2;
        let pages = self.inner.cache.borrow_mut().take_dirty(to_flush);
        for (file, idx) in pages {
            if idx == INODE_PAGE {
                continue;
            }
            let base = self.base_addr(file);
            // Same write-back semantics as flush_evicted: tallied, not
            // surfaced.
            let _ = self
                .inner
                .raid
                .access(&self.inner.handle, base + idx * PAGE_SIZE, PAGE_SIZE, true)
                .await;
        }
    }
}

impl MetricSource for StorageBackend {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.inner.raid.collect(prefix, snap);
        self.inner
            .cache
            .borrow()
            .collect(&prefixed(prefix, "pagecache"), snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_sim::Sim;

    fn small_params() -> BackendParams {
        BackendParams {
            raid_disks: 2,
            cache_bytes: 64 * 4096,
            dirty_limit_pages: 32,
        }
    }

    #[test]
    fn data_round_trips_through_timed_path() {
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), small_params());
        let be2 = be.clone();
        sim.run_main(async move {
            be2.create(FileId(1)).await.unwrap();
            be2.write(FileId(1), 0, b"persistent bytes").await.unwrap();
            let got = be2.read(FileId(1), 0, 16).await.unwrap();
            assert_eq!(got, b"persistent bytes");
        });
    }

    #[test]
    fn warm_read_is_much_faster_than_cold() {
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), small_params());
        let h = sim.handle();
        let be2 = be.clone();
        let (cold, warm) = sim.run_main(async move {
            be2.create(FileId(1)).await.unwrap();
            be2.write(FileId(1), 0, &vec![7u8; 8192]).await.unwrap();
            be2.drop_caches();
            let t0 = h.now();
            be2.read(FileId(1), 0, 8192).await.unwrap(); // cold: disk
            let t1 = h.now();
            be2.read(FileId(1), 0, 8192).await.unwrap(); // warm: memcpy
            let t2 = h.now();
            (t1.since(t0).as_nanos(), t2.since(t1).as_nanos())
        });
        assert!(cold > 100 * warm, "cold={cold} warm={warm}");
    }

    #[test]
    fn stat_hits_inode_cache_after_first_access() {
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), small_params());
        let h = sim.handle();
        let be2 = be.clone();
        sim.run_main(async move {
            be2.create(FileId(3)).await.unwrap();
            be2.write(FileId(3), 0, b"xyz").await.unwrap();
            be2.drop_caches();
            let t0 = h.now();
            assert_eq!(be2.stat(FileId(3)).await, Ok(Some(3)));
            let cold = h.now().since(t0);
            let t1 = h.now();
            assert_eq!(be2.stat(FileId(3)).await, Ok(Some(3)));
            let warm = h.now().since(t1);
            assert!(
                cold.as_nanos() > 50 * warm.as_nanos(),
                "cold={cold} warm={warm}"
            );
        });
    }

    #[test]
    fn capacity_pressure_evicts_and_still_returns_correct_data() {
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), small_params());
        let be2 = be.clone();
        sim.run_main(async move {
            // Write far more than the 64-page cache can hold.
            for i in 0..32u64 {
                be2.create(FileId(i)).await.unwrap();
                be2.write(FileId(i), 0, &vec![i as u8; 16 * 4096])
                    .await
                    .unwrap();
            }
            // Every file still reads back correctly.
            for i in 0..32u64 {
                let got = be2.read(FileId(i), 0, 16 * 4096).await.unwrap();
                assert_eq!(got, vec![i as u8; 16 * 4096]);
            }
        });
        let evictions = imca_metrics::collect_from(&be, "").counter("pagecache.evictions");
        assert!(evictions > Some(0), "expected LRU pressure");
    }

    #[test]
    fn remove_erases_data() {
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), small_params());
        let be2 = be.clone();
        sim.run_main(async move {
            be2.create(FileId(9)).await.unwrap();
            be2.write(FileId(9), 0, b"doomed").await.unwrap();
            assert!(be2.remove(FileId(9)).await.unwrap());
            assert!(!be2.exists(FileId(9)));
            let got = be2.read(FileId(9), 0, 6).await.unwrap();
            assert!(got.is_empty());
            assert!(!be2.remove(FileId(9)).await.unwrap());
        });
    }

    #[test]
    fn failed_write_is_all_or_nothing() {
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), small_params());
        let be2 = be.clone();
        sim.run_main(async move {
            be2.create(FileId(1)).await.unwrap();
            be2.write(FileId(1), 0, b"before").await.unwrap();
            be2.install_faults(StorageFaultPlan {
                write_error: 1.0,
                ..StorageFaultPlan::default()
            });
            // The judge rejects the logical op before any byte moves.
            assert_eq!(be2.write(FileId(1), 0, b"AFTER!").await, Err(IoError));
            assert_eq!(be2.create(FileId(2)).await, Err(IoError));
            assert!(!be2.exists(FileId(2)));
            assert_eq!(be2.remove(FileId(1)).await, Err(IoError));
            be2.install_faults(StorageFaultPlan::default());
            // The earlier contents survived the aborted overwrite intact.
            assert_eq!(be2.read(FileId(1), 0, 6).await.unwrap(), b"before");
        });
        assert!(be.metrics().counter("io_errors").unwrap() >= 3);
    }

    #[test]
    fn failed_read_populates_no_cache_pages() {
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), small_params());
        let h = sim.handle();
        let be2 = be.clone();
        sim.run_main(async move {
            be2.create(FileId(1)).await.unwrap();
            be2.write(FileId(1), 0, &vec![7u8; 8192]).await.unwrap();
            be2.drop_caches();
            be2.install_faults(StorageFaultPlan {
                read_error: 1.0,
                ..StorageFaultPlan::default()
            });
            assert_eq!(be2.read(FileId(1), 0, 8192).await, Err(IoError));
            be2.install_faults(StorageFaultPlan::default());
            // If the failed read had inserted pages, this retry would be a
            // warm memcpy. It must pay the disk again instead.
            let t0 = h.now();
            assert_eq!(be2.read(FileId(1), 0, 8192).await.unwrap().len(), 8192);
            let retry = h.now().since(t0).as_nanos();
            let t1 = h.now();
            be2.read(FileId(1), 0, 8192).await.unwrap();
            let warm = h.now().since(t1).as_nanos();
            assert!(retry > 100 * warm, "retry={retry} warm={warm}");
        });
    }

    #[test]
    fn sequential_stream_outpaces_random_touches() {
        let mut sim = Sim::new(0);
        let mut p = small_params();
        p.cache_bytes = 16 * 4096; // tiny cache: force disk on both paths
        let be = StorageBackend::new(sim.handle(), p);
        let h = sim.handle();
        let be2 = be.clone();
        let (seq, rnd) = sim.run_main(async move {
            be2.create(FileId(1)).await.unwrap();
            be2.write(FileId(1), 0, &vec![1u8; 1 << 20]).await.unwrap();
            for i in 0..64u64 {
                be2.create(FileId(100 + i)).await.unwrap();
                be2.write(FileId(100 + i), 0, &vec![2u8; 16 * 1024])
                    .await
                    .unwrap();
            }
            be2.drop_caches();
            let t0 = h.now();
            // Sequential: stream 1 MB in 16 KB records.
            for i in 0..64u64 {
                be2.read(FileId(1), i * 16 * 1024, 16 * 1024).await.unwrap();
            }
            let seq = h.now().since(t0).as_nanos();
            be2.drop_caches();
            let t1 = h.now();
            // Random-ish: same volume across 64 different files.
            for i in 0..64u64 {
                be2.read(FileId(100 + i), 0, 16 * 1024).await.unwrap();
            }
            let rnd = h.now().since(t1).as_nanos();
            (seq, rnd)
        });
        assert!(rnd > seq * 2, "seq={seq} rnd={rnd}");
    }
}

//! The server-side page cache — "generally limited in size and shared by a
//! large number of I/O threads ... the limited size of the cache in-concert
//! with policies like LRU can reduce the performance of the server side
//! cache" (paper §1).
//!
//! Pure data structure: it accounts pages and LRU order; the owning server
//! charges memcpy time for hits and disk time for misses/evicted dirty
//! pages.

use std::collections::{BTreeMap, HashMap};

use imca_metrics::{prefixed, Counter, MetricSource, Registry, Snapshot};

/// Identifies a file within one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

#[derive(Debug, Clone, Copy)]
struct Entry {
    seq: u64,
    dirty: bool,
}

/// Result of a cache lookup over a byte range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    /// Number of pages found resident.
    pub hit_pages: u64,
    /// Byte ranges (offset, len) that must be read from disk, merged and
    /// page-aligned.
    pub miss_ranges: Vec<(u64, u64)>,
}

/// A page evicted to make room; if `dirty`, its contents must be written to
/// disk before the slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Owning file.
    pub file: FileId,
    /// Page index within the file.
    pub page: u64,
    /// Whether the page held unwritten data.
    pub dirty: bool,
}

/// Fixed-capacity LRU page cache over `(file, page)` keys.
pub struct PageCache {
    page_size: u64,
    capacity_pages: usize,
    map: HashMap<(FileId, u64), Entry>,
    lru: BTreeMap<u64, (FileId, u64)>,
    next_seq: u64,
    dirty_pages: usize,
    registry: Registry,
    /// Pages found resident on lookup.
    hits: Counter,
    /// Pages not resident on lookup.
    misses: Counter,
    /// Pages evicted by LRU pressure.
    evictions: Counter,
}

impl PageCache {
    /// A cache of `capacity_bytes` using `page_size`-byte pages.
    ///
    /// # Panics
    /// Panics if `page_size` is zero or capacity is smaller than one page.
    pub fn new(capacity_bytes: u64, page_size: u64) -> PageCache {
        assert!(page_size > 0, "page size must be positive");
        let capacity_pages = (capacity_bytes / page_size) as usize;
        assert!(capacity_pages > 0, "capacity must hold at least one page");
        let registry = Registry::new();
        PageCache {
            page_size,
            capacity_pages,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            next_seq: 0,
            dirty_pages: 0,
            hits: registry.counter("hits"),
            misses: registry.counter("misses"),
            evictions: registry.counter("evictions"),
            registry,
        }
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.map.len()
    }

    /// Number of resident dirty pages.
    pub fn dirty_page_count(&self) -> usize {
        self.dirty_pages
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    fn page_range(&self, offset: u64, len: u64) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        let first = offset / self.page_size;
        let last = (offset + len - 1) / self.page_size;
        first..last + 1
    }

    fn touch(&mut self, key: (FileId, u64)) {
        if let Some(e) = self.map.get_mut(&key) {
            self.lru.remove(&e.seq);
            e.seq = self.next_seq;
            self.lru.insert(self.next_seq, key);
            self.next_seq += 1;
        }
    }

    /// Look up `[offset, offset+len)` of `file`: refreshes LRU position of
    /// resident pages and reports the missing ranges (page-aligned,
    /// adjacent misses merged).
    pub fn lookup(&mut self, file: FileId, offset: u64, len: u64) -> Lookup {
        let mut hit_pages = 0;
        let mut miss_ranges: Vec<(u64, u64)> = Vec::new();
        for page in self.page_range(offset, len) {
            let key = (file, page);
            if self.map.contains_key(&key) {
                self.touch(key);
                hit_pages += 1;
                self.hits.inc();
            } else {
                self.misses.inc();
                let start = page * self.page_size;
                match miss_ranges.last_mut() {
                    Some((s, l)) if *s + *l == start => *l += self.page_size,
                    _ => miss_ranges.push((start, self.page_size)),
                }
            }
        }
        Lookup {
            hit_pages,
            miss_ranges,
        }
    }

    /// Insert (or refresh) the pages covering `[offset, offset+len)`,
    /// marking them dirty if `dirty`. Returns any pages evicted to make
    /// room, oldest first.
    pub fn insert(&mut self, file: FileId, offset: u64, len: u64, dirty: bool) -> Vec<Evicted> {
        let mut evicted = Vec::new();
        for page in self.page_range(offset, len) {
            let key = (file, page);
            if let Some(e) = self.map.get_mut(&key) {
                if dirty && !e.dirty {
                    e.dirty = true;
                    self.dirty_pages += 1;
                }
                self.touch(key);
                continue;
            }
            while self.map.len() >= self.capacity_pages {
                if let Some(ev) = self.evict_lru() {
                    evicted.push(ev);
                } else {
                    break;
                }
            }
            self.map.insert(
                key,
                Entry {
                    seq: self.next_seq,
                    dirty,
                },
            );
            if dirty {
                self.dirty_pages += 1;
            }
            self.lru.insert(self.next_seq, key);
            self.next_seq += 1;
        }
        evicted
    }

    fn evict_lru(&mut self) -> Option<Evicted> {
        let (&seq, &key) = self.lru.iter().next()?;
        self.lru.remove(&seq);
        let entry = self.map.remove(&key).expect("lru/map desync");
        if entry.dirty {
            self.dirty_pages -= 1;
        }
        self.evictions.inc();
        Some(Evicted {
            file: key.0,
            page: key.1,
            dirty: entry.dirty,
        })
    }

    /// Drop every page of `file` (e.g. on unlink). Returns how many pages
    /// were dropped (dirty pages are discarded — callers flush first if
    /// they need durability).
    pub fn invalidate_file(&mut self, file: FileId) -> usize {
        let keys: Vec<_> = self
            .map
            .keys()
            .filter(|(f, _)| *f == file)
            .copied()
            .collect();
        for key in &keys {
            let e = self.map.remove(key).expect("key listed but missing");
            self.lru.remove(&e.seq);
            if e.dirty {
                self.dirty_pages -= 1;
            }
        }
        keys.len()
    }

    /// Mark up to `max_pages` of the oldest dirty pages clean, returning
    /// them so the caller can charge disk-write time. Used by write-back
    /// throttling.
    pub fn take_dirty(&mut self, max_pages: usize) -> Vec<(FileId, u64)> {
        let mut out = Vec::new();
        if max_pages == 0 {
            return out;
        }
        // Oldest-first by LRU sequence.
        let keys: Vec<(FileId, u64)> = self
            .lru
            .values()
            .copied()
            .filter(|k| self.map.get(k).map(|e| e.dirty).unwrap_or(false))
            .take(max_pages)
            .collect();
        for key in keys {
            if let Some(e) = self.map.get_mut(&key) {
                e.dirty = false;
                self.dirty_pages -= 1;
                out.push(key);
            }
        }
        out
    }
}

impl MetricSource for PageCache {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        snap.set_gauge(prefixed(prefix, "resident_pages"), self.map.len() as i64);
        snap.set_gauge(prefixed(prefix, "dirty_pages"), self.dirty_pages as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(pages: u64) -> PageCache {
        PageCache::new(pages * 4096, 4096)
    }

    #[test]
    fn cold_lookup_misses_everything() {
        let mut c = cache(16);
        let l = c.lookup(FileId(1), 0, 8192);
        assert_eq!(l.hit_pages, 0);
        assert_eq!(l.miss_ranges, vec![(0, 8192)]);
    }

    #[test]
    fn warm_lookup_hits() {
        let mut c = cache(16);
        c.insert(FileId(1), 0, 8192, false);
        let l = c.lookup(FileId(1), 0, 8192);
        assert_eq!(l.hit_pages, 2);
        assert!(l.miss_ranges.is_empty());
        let snap = imca_metrics::collect_from(&c, "");
        assert_eq!(snap.counter("hits"), Some(2));
    }

    #[test]
    fn partial_hit_reports_merged_miss_ranges() {
        let mut c = cache(16);
        c.insert(FileId(1), 4096, 4096, false); // page 1 only
        let l = c.lookup(FileId(1), 0, 3 * 4096);
        assert_eq!(l.hit_pages, 1);
        assert_eq!(l.miss_ranges, vec![(0, 4096), (8192, 4096)]);
    }

    #[test]
    fn adjacent_misses_merge() {
        let mut c = cache(16);
        let l = c.lookup(FileId(1), 0, 4 * 4096);
        assert_eq!(l.miss_ranges, vec![(0, 4 * 4096)]);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = cache(2);
        c.insert(FileId(1), 0, 4096, false); // page A
        c.insert(FileId(2), 0, 4096, false); // page B
        c.lookup(FileId(1), 0, 4096); // touch A: B is now LRU
        let ev = c.insert(FileId(3), 0, 4096, false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].file, FileId(2));
        assert!(!ev[0].dirty);
        assert_eq!(c.resident_pages(), 2);
    }

    #[test]
    fn dirty_flag_survives_and_reports_on_eviction() {
        let mut c = cache(1);
        c.insert(FileId(1), 0, 4096, true);
        assert_eq!(c.dirty_page_count(), 1);
        let ev = c.insert(FileId(2), 0, 4096, false);
        assert_eq!(
            ev,
            vec![Evicted {
                file: FileId(1),
                page: 0,
                dirty: true
            }]
        );
        assert_eq!(c.dirty_page_count(), 0);
    }

    #[test]
    fn reinsert_dirty_upgrades_clean_page() {
        let mut c = cache(4);
        c.insert(FileId(1), 0, 4096, false);
        assert_eq!(c.dirty_page_count(), 0);
        c.insert(FileId(1), 0, 4096, true);
        assert_eq!(c.dirty_page_count(), 1);
        assert_eq!(c.resident_pages(), 1);
    }

    #[test]
    fn invalidate_file_drops_only_that_file() {
        let mut c = cache(8);
        c.insert(FileId(1), 0, 3 * 4096, true);
        c.insert(FileId(2), 0, 4096, false);
        let dropped = c.invalidate_file(FileId(1));
        assert_eq!(dropped, 3);
        assert_eq!(c.resident_pages(), 1);
        assert_eq!(c.dirty_page_count(), 0);
        assert_eq!(c.lookup(FileId(2), 0, 4096).hit_pages, 1);
    }

    #[test]
    fn take_dirty_cleans_oldest_first() {
        let mut c = cache(8);
        c.insert(FileId(1), 0, 4096, true);
        c.insert(FileId(2), 0, 4096, true);
        c.insert(FileId(3), 0, 4096, false);
        let taken = c.take_dirty(1);
        assert_eq!(taken, vec![(FileId(1), 0)]);
        assert_eq!(c.dirty_page_count(), 1);
        // Page remains resident, now clean.
        assert_eq!(c.lookup(FileId(1), 0, 4096).hit_pages, 1);
    }

    #[test]
    fn zero_len_lookup_is_empty() {
        let mut c = cache(4);
        let l = c.lookup(FileId(1), 100, 0);
        assert_eq!(l.hit_pages, 0);
        assert!(l.miss_ranges.is_empty());
    }

    #[test]
    fn unaligned_range_touches_straddled_pages() {
        let mut c = cache(8);
        // Bytes [4000, 4200) straddle pages 0 and 1.
        c.insert(FileId(1), 4000, 200, false);
        assert_eq!(c.resident_pages(), 2);
        let l = c.lookup(FileId(1), 4095, 2);
        assert_eq!(l.hit_pages, 2);
    }
}

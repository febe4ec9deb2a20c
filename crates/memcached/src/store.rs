//! The memcached storage engine: slab-class accounting, per-class LRU
//! eviction, and lazy expiration — the behaviours §2.2 of the paper relies
//! on ("Internally, memcached implements LRU ... uses a lazy expiration
//! algorithm ... memory management is based on slab cache allocation").
//!
//! Items physically own their bytes (`bytes::Bytes`), while slab *pages*
//! and *chunks* are tracked as accounting so that capacity behaviour —
//! which slab class fills up, which item gets evicted — matches the real
//! daemon.
//!
//! How an item is found, refreshed and evicted. Items live in an arena
//! (`slots`, recycled through a free list); `index` maps a key to its
//! slot, and each slab class threads a doubly linked LRU list through its
//! items' `colder`/`hotter` slot links. A command probes `index` once
//! (`live_item` hands back the slot, so `cas` reads the item it found); a hit unlinks the item and links it at its class's
//! hot end; eviction walks at most five links from the cold end and hashes
//! nothing. A key's bytes are allocated once, when the key is new, and
//! shared by the index and the item; a replace hands the same allocation
//! to the new item.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use imca_metrics::{Counter, Gauge, MetricSource, Registry, Snapshot};
use parking_lot::Mutex;

/// Hard caps from the real daemon (§2.2): values up to 1 MB, keys up to
/// 250 bytes.
pub const MAX_ITEM_SIZE: usize = 1 << 20;
/// Maximum key length accepted by the daemon.
pub const MAX_KEY_LEN: usize = 250;

/// Per-item metadata overhead, mirroring `sizeof(item)` plus CAS in the
/// 2008-era daemon.
const ITEM_OVERHEAD: usize = 56;

/// Slab page size, as in the real daemon: one page holds the largest item.
const PAGE_SIZE: usize = MAX_ITEM_SIZE;
/// Smallest chunk size.
const MIN_CHUNK: usize = 96;
/// `-f`: chunk-size growth factor between slab classes.
const GROWTH_FACTOR: f64 = 1.25;

/// Configuration mirroring the daemon's command-line knobs. The slab
/// geometry is the real daemon's default ([`MAX_ITEM_SIZE`] pages, 96-byte
/// smallest chunk, growth factor 1.25); only the memory limit varies.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// `-m`: memory limit for item storage, in bytes.
    pub mem_limit: u64,
}

impl Default for McConfig {
    fn default() -> McConfig {
        McConfig::with_mem_limit(64 << 20)
    }
}

impl McConfig {
    /// A daemon with the given memory limit.
    pub fn with_mem_limit(mem_limit: u64) -> McConfig {
        McConfig { mem_limit }
    }

    /// The paper's deployment: each MCD may use up to 6 GB (§5.1).
    pub fn paper_mcd() -> McConfig {
        McConfig::with_mem_limit(6 << 30)
    }
}

/// Why a store operation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McError {
    /// Key exceeds [`MAX_KEY_LEN`] bytes.
    KeyTooLong,
    /// Key is empty or contains whitespace/control bytes.
    BadKey,
    /// Key + value exceed the largest slab chunk ([`MAX_ITEM_SIZE`]).
    ValueTooLarge,
    /// No chunk free, no page allocatable, nothing evictable in the class.
    OutOfMemory,
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            McError::KeyTooLong => "key too long",
            McError::BadKey => "invalid key",
            McError::ValueTooLarge => "object too large for cache",
            McError::OutOfMemory => "out of memory storing object",
        };
        f.write_str(s)
    }
}

impl std::error::Error for McError {}

/// Outcome of a compare-and-swap store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasResult {
    /// The token matched; the item was replaced, and took this new CAS
    /// unique.
    Stored(u64),
    /// The item exists but was modified since the token was issued.
    Exists,
    /// No such item.
    NotFound,
}

/// A value returned by `get`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetValue {
    /// The stored bytes.
    pub value: Bytes,
    /// Opaque client flags stored with the item.
    pub flags: u32,
    /// Compare-and-swap token.
    pub cas: u64,
}

/// Counters in the style of `stats` output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McStats {
    /// `get` commands processed.
    pub cmd_get: u64,
    /// Store commands processed (`set` and `cas`).
    pub cmd_set: u64,
    /// `get` hits.
    pub get_hits: u64,
    /// `get` misses.
    pub get_misses: u64,
    /// Items evicted by LRU pressure.
    pub evictions: u64,
    /// Items reaped because their TTL had passed (lazy expiration).
    pub expired: u64,
    /// Items currently stored.
    pub curr_items: u64,
    /// Bytes currently used by item data (keys + values + overhead).
    pub bytes: u64,
    /// Items ever stored.
    pub total_items: u64,
    /// Slab memory currently allocated from the limit.
    pub allocated_bytes: u64,
    /// Configured memory limit.
    pub limit_maxbytes: u64,
}

#[derive(Debug)]
struct SlabClass {
    chunk_size: usize,
    free_chunks: usize,
    total_chunks: usize,
}

/// "No slot": the end of an LRU list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Item {
    /// The allocation `index` holds as this item's key.
    key: Arc<[u8]>,
    value: Bytes,
    flags: u32,
    /// Absolute expiry in seconds; `None` = never.
    expire_at: Option<u64>,
    cas: u64,
    class: usize,
    /// LRU neighbours in `class`, as slots: towards the cold end and
    /// towards the hot end.
    colder: u32,
    hotter: u32,
}

impl Item {
    fn expired(&self, now: u64) -> bool {
        self.expire_at.is_some_and(|t| t <= now)
    }
}

/// One slab class's LRU list: its least and most recently used slots.
#[derive(Debug, Clone, Copy)]
struct Lru {
    cold: u32,
    hot: u32,
}

/// Registry-backed live counters behind [`McStats`]. [`Memcached::stats`]
/// and the metrics snapshot read the same underlying values.
struct McMetrics {
    registry: Registry,
    cmd_get: Counter,
    cmd_set: Counter,
    get_hits: Counter,
    get_misses: Counter,
    evictions: Counter,
    expired: Counter,
    total_items: Counter,
    bytes: Gauge,
    curr_items: Gauge,
    allocated_bytes: Gauge,
    limit_maxbytes: Gauge,
}

impl McMetrics {
    fn new(limit_maxbytes: u64) -> McMetrics {
        let registry = Registry::new();
        let m = McMetrics {
            cmd_get: registry.counter("cmd_get"),
            cmd_set: registry.counter("cmd_set"),
            get_hits: registry.counter("get_hits"),
            get_misses: registry.counter("get_misses"),
            evictions: registry.counter("evictions"),
            expired: registry.counter("expired"),
            total_items: registry.counter("total_items"),
            bytes: registry.gauge("bytes"),
            curr_items: registry.gauge("curr_items"),
            allocated_bytes: registry.gauge("allocated_bytes"),
            limit_maxbytes: registry.gauge("limit_maxbytes"),
            registry,
        };
        m.limit_maxbytes.set(limit_maxbytes as i64);
        m
    }
}

struct StoreInner {
    cfg: McConfig,
    classes: Vec<SlabClass>,
    /// The item arena; `free` lists its vacant slots.
    slots: Vec<Option<Item>>,
    free: Vec<u32>,
    /// Key → slot of the stored item.
    index: HashMap<Arc<[u8]>, u32>,
    /// Per-class recency order, threaded through the items.
    lru: Vec<Lru>,
    next_cas: u64,
    allocated: u64,
    metrics: McMetrics,
}

impl StoreInner {
    /// Push the derived gauges (recomputed rather than incrementally
    /// maintained) into the registry before it is read.
    fn refresh_gauges(&self) {
        self.metrics.curr_items.set(self.index.len() as i64);
        self.metrics.allocated_bytes.set(self.allocated as i64);
    }
}

/// A memcached instance; a simulated daemon holds it in an `Rc`.
pub struct Memcached {
    inner: Mutex<StoreInner>,
}

fn valid_key(key: &[u8]) -> Result<(), McError> {
    if key.is_empty() {
        return Err(McError::BadKey);
    }
    if key.len() > MAX_KEY_LEN {
        return Err(McError::KeyTooLong);
    }
    if key.iter().any(|&b| b <= b' ' || b == 0x7f) {
        return Err(McError::BadKey);
    }
    Ok(())
}

impl Memcached {
    /// A daemon with the given configuration.
    pub fn new(cfg: McConfig) -> Memcached {
        let mut classes = Vec::new();
        let mut size = MIN_CHUNK.max(ITEM_OVERHEAD + 1);
        while size < MAX_ITEM_SIZE {
            classes.push(SlabClass {
                chunk_size: size,
                free_chunks: 0,
                total_chunks: 0,
            });
            let next = ((size as f64 * GROWTH_FACTOR) as usize + 7) & !7;
            size = next.max(size + 8);
        }
        classes.push(SlabClass {
            chunk_size: MAX_ITEM_SIZE,
            free_chunks: 0,
            total_chunks: 0,
        });
        let lru = vec![
            Lru {
                cold: NIL,
                hot: NIL
            };
            classes.len()
        ];
        let limit = cfg.mem_limit;
        Memcached {
            inner: Mutex::new(StoreInner {
                cfg,
                classes,
                slots: Vec::new(),
                free: Vec::new(),
                index: HashMap::new(),
                lru,
                next_cas: 1,
                allocated: 0,
                metrics: McMetrics::new(limit),
            }),
        }
    }

    /// Unconditionally store `value` under `key`; returns the item's new
    /// CAS unique.
    pub fn set(
        &self,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: Option<u64>,
        now: u64,
    ) -> Result<u64, McError> {
        valid_key(key)?;
        let mut g = self.inner.lock();
        g.metrics.cmd_set.inc();
        g.store(key, value, flags, expire_at, now)
    }

    /// Fetch `key`, applying lazy expiration.
    pub fn get(&self, key: &[u8], now: u64) -> Option<GetValue> {
        let mut g = self.inner.lock();
        g.metrics.cmd_get.inc();
        let Some(slot) = g.live_item(key, now) else {
            g.metrics.get_misses.inc();
            return None;
        };
        g.metrics.get_hits.inc();
        g.unlink(slot);
        g.link_hot(slot);
        let item = g.item(slot);
        Some(GetValue {
            value: item.value.clone(),
            flags: item.flags,
            cas: item.cas,
        })
    }

    /// Remove `key`. Returns whether it existed (expired items count as
    /// absent).
    pub fn delete(&self, key: &[u8], now: u64) -> bool {
        let mut g = self.inner.lock();
        let Some(slot) = g.live_item(key, now) else {
            return false;
        };
        g.remove_slot(slot, false);
        true
    }

    /// Compare-and-swap: store only if the item's CAS token still equals
    /// `cas` (i.e. nobody raced a store in between).
    pub fn cas(
        &self,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: Option<u64>,
        cas: u64,
        now: u64,
    ) -> Result<CasResult, McError> {
        valid_key(key)?;
        let mut g = self.inner.lock();
        g.metrics.cmd_set.inc();
        let Some(slot) = g.live_item(key, now) else {
            return Ok(CasResult::NotFound);
        };
        if g.item(slot).cas != cas {
            return Ok(CasResult::Exists);
        }
        g.store(key, value, flags, expire_at, now)
            .map(CasResult::Stored)
    }

    /// Drop every item (slab pages stay allocated, as in the real daemon).
    pub fn flush_all(&self) {
        let mut g = self.inner.lock();
        for class in 0..g.lru.len() {
            while g.lru[class].cold != NIL {
                let coldest = g.lru[class].cold;
                g.remove_slot(coldest, false);
            }
        }
    }

    /// Current statistics snapshot — a view over the same registry
    /// counters the metrics snapshot reports.
    pub fn stats(&self) -> McStats {
        let g = self.inner.lock();
        g.refresh_gauges();
        let m = &g.metrics;
        McStats {
            cmd_get: m.cmd_get.get(),
            cmd_set: m.cmd_set.get(),
            get_hits: m.get_hits.get(),
            get_misses: m.get_misses.get(),
            evictions: m.evictions.get(),
            expired: m.expired.get(),
            curr_items: m.curr_items.get() as u64,
            bytes: m.bytes.get() as u64,
            total_items: m.total_items.get(),
            allocated_bytes: m.allocated_bytes.get() as u64,
            limit_maxbytes: m.limit_maxbytes.get() as u64,
        }
    }

    /// Number of items currently stored.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chunk sizes of the slab classes (for inspection/tests).
    pub fn class_sizes(&self) -> Vec<usize> {
        self.inner
            .lock()
            .classes
            .iter()
            .map(|c| c.chunk_size)
            .collect()
    }
}

impl MetricSource for Memcached {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        let g = self.inner.lock();
        g.refresh_gauges();
        g.metrics.registry.collect(prefix, snap);
    }
}

impl StoreInner {
    fn item(&self, slot: u32) -> &Item {
        self.slots[slot as usize]
            .as_ref()
            .expect("an indexed or linked slot holds an item")
    }

    fn item_mut(&mut self, slot: u32) -> &mut Item {
        self.slots[slot as usize]
            .as_mut()
            .expect("an indexed or linked slot holds an item")
    }

    /// The slot of `key`'s live (non-expired) item; reaps it lazily if
    /// expired.
    fn live_item(&mut self, key: &[u8], now: u64) -> Option<u32> {
        let slot = *self.index.get(key)?;
        if self.item(slot).expired(now) {
            self.remove_slot(slot, true);
            return None;
        }
        Some(slot)
    }

    /// Take the item at `slot` out of its class's LRU list.
    fn unlink(&mut self, slot: u32) {
        let item = self.item(slot);
        let (class, colder, hotter) = (item.class, item.colder, item.hotter);
        match colder {
            NIL => self.lru[class].cold = hotter,
            c => self.item_mut(c).hotter = hotter,
        }
        match hotter {
            NIL => self.lru[class].hot = colder,
            h => self.item_mut(h).colder = colder,
        }
    }

    /// Link the (unlinked) item at `slot` in as its class's most recently
    /// used.
    fn link_hot(&mut self, slot: u32) {
        let class = self.item(slot).class;
        let was_hot = std::mem::replace(&mut self.lru[class].hot, slot);
        match was_hot {
            NIL => self.lru[class].cold = slot,
            h => self.item_mut(h).hotter = slot,
        }
        let item = self.item_mut(slot);
        item.colder = was_hot;
        item.hotter = NIL;
    }

    /// Take the item at `slot` out of the store: off its LRU list, out of
    /// the index and the slab accounting, its slot back on the free list.
    fn remove_slot(&mut self, slot: u32, expired: bool) -> Item {
        self.unlink(slot);
        let item = self.slots[slot as usize]
            .take()
            .expect("an indexed or linked slot holds an item");
        self.index.remove(&*item.key);
        self.free.push(slot);
        self.classes[item.class].free_chunks += 1;
        self.metrics
            .bytes
            .sub((item.key.len() + item.value.len() + ITEM_OVERHEAD) as i64);
        if expired {
            self.metrics.expired.inc();
        }
        item
    }

    fn class_for(&self, total: usize) -> Result<usize, McError> {
        self.classes
            .iter()
            .position(|c| c.chunk_size >= total)
            .ok_or(McError::ValueTooLarge)
    }

    /// Obtain a chunk in `class`: free list → new page → evict LRU.
    fn alloc_chunk(&mut self, class: usize, now: u64) -> Result<(), McError> {
        loop {
            if self.classes[class].free_chunks > 0 {
                self.classes[class].free_chunks -= 1;
                return Ok(());
            }
            let page = PAGE_SIZE as u64;
            if self.allocated + page <= self.cfg.mem_limit {
                self.allocated += page;
                let per_page = PAGE_SIZE / self.classes[class].chunk_size;
                self.classes[class].free_chunks += per_page;
                self.classes[class].total_chunks += per_page;
                continue;
            }
            // Evict from this class. Like the real daemon, peek a handful
            // of items from the cold end for one that is already expired;
            // otherwise take the true LRU victim. (Scanning the whole LRU
            // would make every pressured store O(items).)
            const EXPIRED_SEARCH_DEPTH: usize = 5;
            let mut victim = self.lru[class].cold;
            let mut peek = victim;
            for _ in 0..EXPIRED_SEARCH_DEPTH {
                if peek == NIL {
                    break;
                }
                if self.item(peek).expired(now) {
                    victim = peek;
                    break;
                }
                peek = self.item(peek).hotter;
            }
            if victim == NIL {
                return Err(McError::OutOfMemory);
            }
            let was_expired = self.item(victim).expired(now);
            self.remove_slot(victim, was_expired);
            if !was_expired {
                self.metrics.evictions.inc();
            }
        }
    }

    fn store(
        &mut self,
        key: &[u8],
        value: Bytes,
        flags: u32,
        expire_at: Option<u64>,
        now: u64,
    ) -> Result<u64, McError> {
        let total = key.len() + value.len() + ITEM_OVERHEAD;
        if value.len() > MAX_ITEM_SIZE {
            return Err(McError::ValueTooLarge);
        }
        let class = self.class_for(total)?;
        // Free the old incarnation first so replacing in a full cache
        // works: its chunk goes back to its own class before this class
        // looks for one, and the item is gone by then, so it is never its
        // own victim. The new item takes its key's allocation over.
        let key: Arc<[u8]> = match self.index.get(key) {
            Some(&slot) => self.remove_slot(slot, false).key,
            None => Arc::from(key),
        };
        self.alloc_chunk(class, now)?;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        self.index.insert(Arc::clone(&key), slot);
        let cas = self.next_cas;
        self.next_cas += 1;
        self.metrics.bytes.add(total as i64);
        self.metrics.total_items.inc();
        self.slots[slot as usize] = Some(Item {
            key,
            value,
            flags,
            expire_at,
            cas,
            class,
            colder: NIL,
            hotter: NIL,
        });
        self.link_hot(slot);
        Ok(cas)
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Memcached {
        // Page = 1 MB (must hold the largest item); limit 2 pages.
        Memcached::new(McConfig::with_mem_limit(2 << 20))
    }

    #[test]
    fn set_get_round_trip() {
        let mc = small();
        mc.set(b"k", Bytes::from_static(b"v"), 7, None, 0).unwrap();
        let got = mc.get(b"k", 0).unwrap();
        assert_eq!(got.value, &b"v"[..]);
        assert_eq!(got.flags, 7);
        assert!(got.cas > 0);
        assert!(mc.get(b"missing", 0).is_none());
        let s = mc.stats();
        assert_eq!(
            (s.get_hits, s.get_misses, s.cmd_get, s.cmd_set),
            (1, 1, 2, 1)
        );
    }

    #[test]
    fn key_validation() {
        let mc = small();
        let long = vec![b'a'; 251];
        assert_eq!(
            mc.set(&long, Bytes::new(), 0, None, 0),
            Err(McError::KeyTooLong)
        );
        assert_eq!(
            mc.set(b"has space", Bytes::new(), 0, None, 0),
            Err(McError::BadKey)
        );
        assert_eq!(mc.set(b"", Bytes::new(), 0, None, 0), Err(McError::BadKey));
        let ok = vec![b'a'; 250];
        assert!(mc.set(&ok, Bytes::new(), 0, None, 0).is_ok());
    }

    #[test]
    fn one_megabyte_value_cap() {
        let mc = Memcached::new(McConfig::with_mem_limit(8 << 20));
        let big = Bytes::from(vec![0u8; MAX_ITEM_SIZE + 1]);
        assert_eq!(mc.set(b"big", big, 0, None, 0), Err(McError::ValueTooLarge));
        // Key + overhead makes exactly-1MB values too big for the largest
        // chunk, as in the real daemon.
        let nearly = Bytes::from(vec![0u8; MAX_ITEM_SIZE - 300]);
        assert!(mc.set(b"nearly", nearly, 0, None, 0).is_ok());
    }

    #[test]
    fn lazy_expiration_on_get() {
        let mc = small();
        mc.set(b"k", Bytes::from_static(b"v"), 0, Some(100), 0)
            .unwrap();
        assert!(mc.get(b"k", 99).is_some());
        assert!(mc.get(b"k", 100).is_none());
        let s = mc.stats();
        assert_eq!(s.expired, 1);
        assert_eq!(s.curr_items, 0);
    }

    #[test]
    fn delete_and_flush() {
        let mc = small();
        mc.set(b"a", Bytes::from_static(b"1"), 0, None, 0).unwrap();
        mc.set(b"b", Bytes::from_static(b"2"), 0, None, 0).unwrap();
        assert!(mc.delete(b"a", 0));
        assert!(!mc.delete(b"a", 0));
        assert_eq!(mc.len(), 1);
        mc.flush_all();
        assert!(mc.is_empty());
        assert_eq!(mc.stats().bytes, 0);
    }

    #[test]
    fn cas_succeeds_only_with_fresh_token() {
        let mc = small();
        mc.set(b"k", Bytes::from_static(b"v1"), 0, None, 0).unwrap();
        let token = mc.get(b"k", 0).unwrap().cas;
        // Fresh token: stored, under the token a `get` then reports.
        let Ok(CasResult::Stored(next)) =
            mc.cas(b"k", Bytes::from_static(b"v2"), 0, None, token, 0)
        else {
            panic!("a fresh token must store")
        };
        assert_eq!(mc.get(b"k", 0).unwrap().cas, next);
        // Old token after the update: EXISTS.
        assert_eq!(
            mc.cas(b"k", Bytes::from_static(b"v3"), 0, None, token, 0)
                .unwrap(),
            CasResult::Exists
        );
        assert_eq!(mc.get(b"k", 0).unwrap().value, &b"v2"[..]);
        // Missing key: NOT_FOUND.
        assert_eq!(
            mc.cas(b"nope", Bytes::from_static(b"x"), 0, None, 1, 0)
                .unwrap(),
            CasResult::NotFound
        );
    }

    #[test]
    fn cas_tokens_are_unique_per_store() {
        let mc = small();
        mc.set(b"a", Bytes::from_static(b"1"), 0, None, 0).unwrap();
        mc.set(b"b", Bytes::from_static(b"2"), 0, None, 0).unwrap();
        let ta = mc.get(b"a", 0).unwrap().cas;
        let tb = mc.get(b"b", 0).unwrap().cas;
        assert_ne!(ta, tb);
        mc.set(b"a", Bytes::from_static(b"3"), 0, None, 0).unwrap();
        assert_ne!(
            mc.get(b"a", 0).unwrap().cas,
            ta,
            "token must change on update"
        );
    }

    #[test]
    fn lru_evicts_least_recently_used_in_class() {
        // Fill a small store with same-class items, touch the first, then
        // overflow: the untouched second item must be the victim.
        let mc = Memcached::new(McConfig::with_mem_limit(1 << 20)); // one page only
        let val = Bytes::from(vec![0u8; 100_000]); // ~10 items per page
        let mut stored = Vec::new();
        let mut i = 0;
        loop {
            let key = format!("key{i:03}");
            mc.set(key.as_bytes(), val.clone(), 0, None, 0).unwrap();
            stored.push(key);
            i += 1;
            if mc.stats().evictions > 0 {
                break;
            }
            assert!(i < 100, "never filled");
        }
        // The first-stored key was the LRU victim.
        assert!(mc.get(stored[0].as_bytes(), 0).is_none());
        assert!(mc.get(stored.last().unwrap().as_bytes(), 0).is_some());
    }

    #[test]
    fn get_refreshes_lru_position() {
        let mc = Memcached::new(McConfig::with_mem_limit(1 << 20));
        let val = Bytes::from(vec![0u8; 100_000]);
        let mut keys = Vec::new();
        // Fill the page exactly (stop before eviction).
        for i in 0..9 {
            let key = format!("key{i:03}");
            mc.set(key.as_bytes(), val.clone(), 0, None, 0).unwrap();
            keys.push(key);
        }
        assert_eq!(mc.stats().evictions, 0);
        // Touch key000 so key001 becomes LRU, then overflow with *distinct*
        // keys (re-setting one key reuses its own chunk and never evicts).
        assert!(mc.get(keys[0].as_bytes(), 0).is_some());
        let mut j = 0;
        loop {
            let key = format!("overflow{j}");
            mc.set(key.as_bytes(), val.clone(), 0, None, 0).unwrap();
            j += 1;
            if mc.stats().evictions > 0 {
                break;
            }
            assert!(j < 20, "never evicted");
        }
        assert!(
            mc.get(keys[0].as_bytes(), 0).is_some(),
            "touched item evicted"
        );
        assert!(mc.get(keys[1].as_bytes(), 0).is_none(), "LRU item survived");
    }

    #[test]
    fn eviction_prefers_expired_items() {
        let mc = Memcached::new(McConfig::with_mem_limit(1 << 20));
        let val = Bytes::from(vec![0u8; 100_000]);
        mc.set(b"expired", val.clone(), 0, Some(10), 0).unwrap();
        let mut i = 0;
        // Fill the rest with immortal items. The expired item sits at the
        // cold end of the LRU, where the eviction path's expired-item peek
        // (like the real daemon's) reaps it before any live item.
        loop {
            let key = format!("live{i:03}");
            if mc.set(key.as_bytes(), val.clone(), 0, None, 100).is_err() {
                break;
            }
            i += 1;
            let s = mc.stats();
            if s.evictions > 0 || s.expired > 0 {
                break;
            }
            assert!(i < 100);
        }
        let s = mc.stats();
        assert_eq!(
            s.evictions, 0,
            "evicted a live item while an expired one sat at the LRU tail"
        );
        assert!(s.expired >= 1);
    }

    #[test]
    fn replace_in_full_cache_does_not_evict_other_items() {
        let mc = Memcached::new(McConfig::with_mem_limit(1 << 20));
        let val = Bytes::from(vec![0u8; 100_000]);
        let mut keys = Vec::new();
        for i in 0..9 {
            let key = format!("key{i:03}");
            mc.set(key.as_bytes(), val.clone(), 0, None, 0).unwrap();
            keys.push(key);
        }
        let before = mc.stats().evictions;
        // Overwrite an existing key with a same-class value: frees its own
        // chunk first, so no eviction.
        mc.set(keys[4].as_bytes(), val.clone(), 0, None, 0).unwrap();
        assert_eq!(mc.stats().evictions, before);
        assert_eq!(mc.len(), 9);
    }

    #[test]
    fn class_sizes_grow_geometrically_to_1mb() {
        let mc = Memcached::new(McConfig::default());
        let sizes = mc.class_sizes();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "not increasing");
        assert_eq!(*sizes.last().unwrap(), MAX_ITEM_SIZE);
        assert!(sizes[0] >= 96);
        // Growth factor ~1.25 between consecutive classes (except the last
        // jump to the 1 MB cap).
        for w in sizes.windows(2).take(sizes.len().saturating_sub(2)) {
            let ratio = w[1] as f64 / w[0] as f64;
            assert!((1.05..1.5).contains(&ratio), "ratio {ratio} in {w:?}");
        }
    }

    #[test]
    fn stats_bytes_track_stored_data() {
        let mc = small();
        mc.set(b"k", Bytes::from(vec![0u8; 1000]), 0, None, 0)
            .unwrap();
        let s = mc.stats();
        assert_eq!(s.bytes, (1 + 1000 + ITEM_OVERHEAD) as u64);
        mc.delete(b"k", 0);
        assert_eq!(mc.stats().bytes, 0);
    }

    #[test]
    fn thread_safety_smoke() {
        use std::sync::Arc;
        let mc = Arc::new(Memcached::new(McConfig::with_mem_limit(16 << 20)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let mc = Arc::clone(&mc);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        let key = format!("t{t}-{i}");
                        mc.set(key.as_bytes(), Bytes::from_static(b"v"), 0, None, 0)
                            .unwrap();
                        assert!(mc.get(key.as_bytes(), 0).is_some());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mc.len(), 4000);
    }
}

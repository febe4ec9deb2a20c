//! Model test for the store: random command sequences under memory
//! pressure against a naive reference — per slab class a `Vec` of keys in
//! recency order, the same five-deep expired peek — that must agree with
//! the arena after every command on the command's result, on which keys
//! are resident, on each class's exact LRU order, and on [`McStats`].

use std::collections::HashMap;

use bytes::Bytes;
use proptest::prelude::*;

use super::{CasResult, McConfig, McError, McStats, Memcached, ITEM_OVERHEAD, NIL, PAGE_SIZE};

struct RefItem {
    value: Bytes,
    flags: u32,
    expire_at: Option<u64>,
    cas: u64,
    class: usize,
}

impl RefItem {
    fn expired(&self, now: u64) -> bool {
        self.expire_at.is_some_and(|t| t <= now)
    }
}

/// The reference: what `store.rs` must do, written the slow obvious way.
struct Model {
    cfg: McConfig,
    chunk_sizes: Vec<usize>,
    free_chunks: Vec<usize>,
    /// Per class, the resident keys, least recently used first.
    recency: Vec<Vec<String>>,
    items: HashMap<String, RefItem>,
    next_cas: u64,
    stats: McStats,
}

impl Model {
    fn new(cfg: McConfig, chunk_sizes: Vec<usize>) -> Model {
        Model {
            free_chunks: vec![0; chunk_sizes.len()],
            recency: vec![Vec::new(); chunk_sizes.len()],
            items: HashMap::new(),
            next_cas: 1,
            stats: McStats {
                limit_maxbytes: cfg.mem_limit,
                ..McStats::default()
            },
            chunk_sizes,
            cfg,
        }
    }

    fn remove(&mut self, key: &str) {
        let item = self.items.remove(key).expect("removing a resident key");
        self.recency[item.class].retain(|k| k != key);
        self.free_chunks[item.class] += 1;
        self.stats.bytes -= (key.len() + item.value.len() + ITEM_OVERHEAD) as u64;
        self.stats.curr_items -= 1;
    }

    /// Lazy expiration: whether `key` is resident and not expired.
    fn live(&mut self, key: &str, now: u64) -> bool {
        match self.items.get(key) {
            None => false,
            Some(item) if item.expired(now) => {
                self.remove(key);
                self.stats.expired += 1;
                false
            }
            Some(_) => true,
        }
    }

    fn store(
        &mut self,
        key: &str,
        value: Bytes,
        flags: u32,
        expire_at: Option<u64>,
        now: u64,
    ) -> Result<u64, McError> {
        let total = key.len() + value.len() + ITEM_OVERHEAD;
        let class = self
            .chunk_sizes
            .iter()
            .position(|&c| c >= total)
            .ok_or(McError::ValueTooLarge)?;
        if self.items.contains_key(key) {
            self.remove(key);
        }
        while self.free_chunks[class] == 0 {
            let page = PAGE_SIZE as u64;
            if self.stats.allocated_bytes + page <= self.cfg.mem_limit {
                self.stats.allocated_bytes += page;
                self.free_chunks[class] += PAGE_SIZE / self.chunk_sizes[class];
                continue;
            }
            let coldest = &self.recency[class];
            let victim = coldest
                .iter()
                .take(5)
                .find(|k| self.items[*k].expired(now))
                .or(coldest.first())
                .cloned()
                .ok_or(McError::OutOfMemory)?;
            if self.items[&victim].expired(now) {
                self.stats.expired += 1;
            } else {
                self.stats.evictions += 1;
            }
            self.remove(&victim);
        }
        self.free_chunks[class] -= 1;
        self.stats.bytes += total as u64;
        self.stats.curr_items += 1;
        self.stats.total_items += 1;
        let cas = self.next_cas;
        self.next_cas += 1;
        let item = RefItem {
            value,
            flags,
            expire_at,
            cas,
            class,
        };
        self.items.insert(key.to_string(), item);
        self.recency[class].push(key.to_string());
        Ok(cas)
    }

    fn get(&mut self, key: &str, now: u64) -> Option<(Bytes, u32, u64)> {
        self.stats.cmd_get += 1;
        if !self.live(key, now) {
            self.stats.get_misses += 1;
            return None;
        }
        self.stats.get_hits += 1;
        let item = &self.items[key];
        let order = &mut self.recency[item.class];
        order.retain(|k| k != key);
        order.push(key.to_string());
        Some((item.value.clone(), item.flags, item.cas))
    }
}

/// Each class's resident keys from the cold end to the hot end, read off
/// the arena's links, with the arena's own invariants checked on the way:
/// `colder` mirrors `hotter`, every indexed key sits on exactly one list
/// under its own slot, and vacant slots are exactly the free list.
fn arena_recency(mc: &Memcached) -> Vec<Vec<String>> {
    let g = mc.inner.lock();
    let mut linked = 0;
    let recency = (0..g.lru.len())
        .map(|class| {
            let mut keys = Vec::new();
            let (mut colder, mut slot) = (NIL, g.lru[class].cold);
            while slot != NIL {
                let item = g.item(slot);
                assert_eq!((item.class, item.colder), (class, colder));
                assert_eq!(g.index.get(&*item.key), Some(&slot));
                keys.push(String::from_utf8_lossy(&item.key).into_owned());
                (colder, slot) = (slot, item.hotter);
            }
            assert_eq!(g.lru[class].hot, colder);
            linked += keys.len();
            keys
        })
        .collect();
    assert_eq!(linked, g.index.len());
    assert_eq!(linked + g.free.len(), g.slots.len());
    assert!(g.free.iter().all(|&s| g.slots[s as usize].is_none()));
    recency
}

/// The classes that hold anything, for a failure message one can read.
fn occupied(recency: &[Vec<String>]) -> Vec<(usize, &Vec<String>)> {
    let classes = recency.iter().enumerate();
    classes.filter(|(_, keys)| !keys.is_empty()).collect()
}

#[derive(Debug, Clone)]
enum Cmd {
    Set(u8, Size, Option<u8>),
    /// Fresh token or a stale one.
    Cas(u8, Size, bool),
    Get(u8),
    Delete(u8),
    FlushAll,
    Advance(u8),
}

/// A value: one of four lengths (plus jitter) that land in five slab
/// classes of 2–10 chunks a page, and the offset its bytes are cut from.
#[derive(Debug, Clone, Copy)]
struct Size {
    band: usize,
    jitter: u16,
    fill: u8,
}

const BANDS: [usize; 4] = [100_000, 150_000, 240_000, 380_000];
const KEYS: u8 = 32;

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    let key = || 0u8..KEYS;
    let ttl = || prop_oneof![3 => Just(None), 1 => (1u8..40).prop_map(Some)];
    let size = || {
        (0usize..BANDS.len(), 0u16..6000, any::<u8>()).prop_map(|(band, jitter, fill)| Size {
            band,
            jitter,
            fill,
        })
    };
    prop_oneof![
        60 => (key(), size(), ttl()).prop_map(|(k, s, t)| Cmd::Set(k, s, t)),
        15 => (key(), size(), any::<bool>()).prop_map(|(k, s, fresh)| Cmd::Cas(k, s, fresh)),
        60 => key().prop_map(Cmd::Get),
        6 => key().prop_map(Cmd::Delete),
        1 => Just(Cmd::FlushAll),
        12 => (1u8..10).prop_map(Cmd::Advance),
    ]
}

proptest! {
    /// Three memory limits: 8 MB (some classes get a second page), 5 MB
    /// (one page for each class the sizes reach) and 2 MB (two classes get
    /// a page; a store into any other fails with `OutOfMemory` and still
    /// drops the value it was replacing).
    #[test]
    fn arena_matches_the_recency_list_model(
        cmds in prop::collection::vec(cmd_strategy(), 1..400),
        limit_mb in prop::sample::select(vec![8u64, 5, 2]),
    ) {
        let cfg = McConfig::with_mem_limit(limit_mb << 20);
        let mc = Memcached::new(cfg.clone());
        let mut model = Model::new(cfg, mc.class_sizes());
        let source = Bytes::from((0..BANDS[3] + 6256).map(|i| (i / 7) as u8).collect::<Vec<_>>());
        let value = |s: Size| {
            let from = s.fill as usize;
            source.slice(from..from + BANDS[s.band] + s.jitter as usize)
        };
        let mut now = 0u64;
        for cmd in cmds {
            let at = |ttl: Option<u8>| ttl.map(|t| now + t as u64);
            let name = |k: u8| format!("/model/k{k:02}");
            match cmd.clone() {
                Cmd::Set(k, s, ttl) => {
                    let k = name(k);
                    model.stats.cmd_set += 1;
                    let want = model.store(&k, value(s), 7, at(ttl), now);
                    prop_assert_eq!(mc.set(k.as_bytes(), value(s), 7, at(ttl), now), want);
                }
                Cmd::Cas(k, s, fresh) => {
                    let k = name(k);
                    model.stats.cmd_set += 1;
                    let held = model.items.get(&k).map_or(0, |i| i.cas);
                    let token = if fresh { held } else { held.wrapping_sub(1) };
                    let want = if !model.live(&k, now) {
                        Ok(CasResult::NotFound)
                    } else if !fresh {
                        Ok(CasResult::Exists)
                    } else {
                        model.store(&k, value(s), 3, None, now).map(CasResult::Stored)
                    };
                    prop_assert_eq!(mc.cas(k.as_bytes(), value(s), 3, None, token, now), want);
                }
                Cmd::Get(k) => {
                    let got = mc.get(name(k).as_bytes(), now).map(|g| (g.value, g.flags, g.cas));
                    let want = model.get(&name(k), now);
                    // Not `prop_assert_eq`: it would print both values.
                    prop_assert!(got == want, "{:?} answered with other bytes, flags or token", cmd);
                }
                Cmd::Delete(k) => {
                    let k = name(k);
                    let want = model.live(&k, now);
                    if want {
                        model.remove(&k);
                    }
                    prop_assert_eq!(mc.delete(k.as_bytes(), now), want);
                }
                Cmd::FlushAll => {
                    mc.flush_all();
                    let resident: Vec<String> = model.items.keys().cloned().collect();
                    resident.iter().for_each(|k| model.remove(k));
                }
                Cmd::Advance(secs) => now += secs as u64,
            }
            // Residency and exact per-class LRU order, then the counters.
            let arena = arena_recency(&mc);
            prop_assert_eq!(occupied(&arena), occupied(&model.recency), "after {:?}", cmd);
            prop_assert_eq!(mc.stats(), model.stats, "after {:?}", cmd);
        }
    }
}

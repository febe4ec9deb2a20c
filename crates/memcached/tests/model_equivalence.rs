//! Model-based property tests: the slab/LRU engine must agree with a
//! naive reference implementation on every observable behaviour, for any
//! command sequence — as long as capacity pressure is off the table (the
//! reference has no eviction). A second suite checks the engine's own
//! invariants *under* capacity pressure.

use std::collections::HashMap;

use bytes::Bytes;
use imca_memcached::protocol::{encode_command, encode_response, parse_command, parse_response};
use imca_memcached::{McConfig, Memcached};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Cmd {
    Set {
        key: u8,
        len: u16,
        fill: u8,
        ttl: Option<u8>,
    },
    /// Stores only where the key is absent.
    Add {
        key: u8,
        len: u16,
        fill: u8,
    },
    Get {
        key: u8,
    },
    Delete {
        key: u8,
    },
    Advance {
        secs: u8,
    },
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (any::<u8>(), 0u16..2000, any::<u8>(), prop::option::of(1u8..40))
            .prop_map(|(key, len, fill, ttl)| Cmd::Set { key: key % 12, len, fill, ttl }),
        2 => (any::<u8>(), 0u16..2000, any::<u8>())
            .prop_map(|(key, len, fill)| Cmd::Add { key: key % 12, len, fill }),
        6 => any::<u8>().prop_map(|key| Cmd::Get { key: key % 12 }),
        2 => any::<u8>().prop_map(|key| Cmd::Delete { key: key % 12 }),
        2 => (1u8..30).prop_map(|secs| Cmd::Advance { secs }),
    ]
}

#[derive(Clone)]
struct RefItem {
    value: Vec<u8>,
    expire_at: Option<u64>,
}

/// Naive reference: unbounded map with the same expiry semantics.
#[derive(Default)]
struct RefCache {
    items: HashMap<u8, RefItem>,
}

impl RefCache {
    fn live(&mut self, key: u8, now: u64) -> bool {
        if let Some(item) = self.items.get(&key) {
            if let Some(t) = item.expire_at {
                if t <= now {
                    self.items.remove(&key);
                    return false;
                }
            }
            true
        } else {
            false
        }
    }
}

fn key_bytes(key: u8) -> Vec<u8> {
    format!("/prop/key{key}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// With ample memory (no evictions), engine == reference, observably.
    #[test]
    fn engine_matches_reference_without_pressure(
        cmds in prop::collection::vec(cmd_strategy(), 1..120),
    ) {
        let mc = Memcached::new(McConfig::with_mem_limit(64 << 20));
        let mut reference = RefCache::default();
        let mut now = 0u64;
        for cmd in cmds {
            match cmd {
                Cmd::Set { key, len, fill, ttl } => {
                    let value: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    let exp = ttl.map(|t| now + t as u64);
                    mc.set(&key_bytes(key), Bytes::from(value.clone()), 0, exp, now).unwrap();
                    reference.items.insert(key, RefItem { value, expire_at: exp });
                }
                Cmd::Add { key, len, fill } => {
                    let value: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    let stored = mc.add(&key_bytes(key), Bytes::from(value.clone()), 0, None, now).unwrap();
                    let expect = !reference.live(key, now);
                    prop_assert_eq!(stored.is_some(), expect, "add semantics diverged");
                    if expect {
                        reference.items.insert(key, RefItem { value, expire_at: None });
                    }
                }
                Cmd::Get { key } => {
                    let got = mc.get(&key_bytes(key), now);
                    if reference.live(key, now) {
                        let want = &reference.items[&key].value;
                        prop_assert!(got.is_some(), "engine missed a live key");
                        prop_assert_eq!(&got.unwrap().value[..], &want[..]);
                    } else {
                        prop_assert!(got.is_none(), "engine returned a dead key");
                    }
                }
                Cmd::Delete { key } => {
                    let deleted = mc.delete(&key_bytes(key), now);
                    let expect = reference.live(key, now);
                    prop_assert_eq!(deleted, expect, "delete semantics diverged");
                    reference.items.remove(&key);
                }
                Cmd::Advance { secs } => now += secs as u64,
            }
        }
        // Terminal state agrees for every key.
        for key in 0u8..12 {
            let got = mc.get(&key_bytes(key), now).map(|g| g.value.to_vec());
            let want = reference.live(key, now).then(|| reference.items[&key].value.clone());
            prop_assert_eq!(got, want, "terminal state diverged for key {}", key);
        }
    }

    /// Under capacity pressure the engine may evict, but it must uphold its
    /// invariants: bytes within limit, gets never return wrong data, stats
    /// consistent.
    #[test]
    fn invariants_hold_under_pressure(
        cmds in prop::collection::vec(cmd_strategy(), 1..150),
    ) {
        let mc = Memcached::new(McConfig::with_mem_limit(1 << 20));
        let mut shadow: HashMap<u8, Vec<u8>> = HashMap::new();
        let mut now = 0u64;
        for cmd in cmds {
            match cmd {
                Cmd::Set { key, len, fill, ttl } => {
                    let value: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    let exp = ttl.map(|t| now + t as u64);
                    if mc.set(&key_bytes(key), Bytes::from(value.clone()), 0, exp, now).is_ok()
                        && exp.is_none()
                    {
                        shadow.insert(key, value);
                    } else {
                        shadow.remove(&key);
                    }
                }
                Cmd::Add { key, len, fill } => {
                    // Stored only where nothing live was: what the shadow
                    // held (if it is still resident) stays.
                    let value: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    if let Ok(Some(_)) = mc.add(&key_bytes(key), Bytes::from(value.clone()), 0, None, now) {
                        shadow.insert(key, value);
                    }
                }
                Cmd::Get { key } => {
                    // An eviction makes a miss legal; a hit with *wrong*
                    // bytes never is.
                    if let Some(got) = mc.get(&key_bytes(key), now) {
                        if let Some(want) = shadow.get(&key) {
                            prop_assert_eq!(&got.value[..], &want[..], "hit returned wrong bytes");
                        }
                    }
                }
                Cmd::Delete { key } => {
                    mc.delete(&key_bytes(key), now);
                    shadow.remove(&key);
                }
                Cmd::Advance { secs } => now += secs as u64,
            }
            let stats = mc.stats();
            prop_assert!(
                stats.bytes <= stats.limit_maxbytes,
                "stored bytes exceed the memory limit"
            );
            prop_assert_eq!(stats.get_hits + stats.get_misses, stats.cmd_get);
        }
    }

    /// Protocol codec: encode∘parse = identity for generated commands.
    #[test]
    fn codec_round_trips_generated_frames(
        key in "[a-zA-Z0-9/_.:-]{1,60}",
        data in prop::collection::vec(any::<u8>(), 0..3000),
        flags in any::<u32>(),
        exptime in any::<u32>(),
        with_cas in any::<bool>(),
        noreply in any::<bool>(),
    ) {
        use imca_memcached::protocol::{Command, StoreVerb, Response, Value};
        let cmd = Command::Store {
            verb: StoreVerb::Set,
            key: key.clone().into_bytes(),
            flags,
            exptime,
            data: Bytes::from(data.clone()),
            with_cas,
            noreply,
        };
        let wire = encode_command(&cmd);
        let (parsed, used) = parse_command(&wire).unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(parsed, cmd);

        let resp = Response::Values(vec![Value {
            key: key.into_bytes(),
            flags,
            cas: Some(exptime as u64),
            data: Bytes::from(data),
        }]);
        let wire = encode_response(&resp);
        let (parsed, used) = parse_response(&wire).unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(parsed, resp);
    }

    /// Truncated frames must never parse successfully as the full frame.
    #[test]
    fn truncated_frames_do_not_parse(
        data in prop::collection::vec(any::<u8>(), 1..500),
        cut in 0usize..100,
    ) {
        use imca_memcached::protocol::{Command, StoreVerb};
        let cmd = Command::Store {
            verb: StoreVerb::Set,
            key: b"some_key".to_vec(),
            flags: 0,
            exptime: 0,
            data: Bytes::from(data),
            with_cas: false,
            noreply: false,
        };
        let wire = encode_command(&cmd);
        let cut = cut.min(wire.len() - 1);
        let truncated = &wire[..wire.len() - 1 - cut];
        match parse_command(truncated) {
            // Incomplete is the expected answer…
            Err(_) => {}
            // …but a *shorter* valid frame may parse if the cut landed
            // inside a pipelined continuation; it must consume fewer bytes.
            Ok((_, used)) => prop_assert!(used <= truncated.len()),
        }
    }
}

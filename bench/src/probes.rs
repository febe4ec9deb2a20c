//! Host-time probes: what one call into each layer costs the simulator's
//! host, timed in isolation through the layer's public functions at the
//! sizes the workloads use (2 KB values, `abs_path:offset` keys). Each
//! probe reports the median of several batches, in host ns per call.
//! When `host_ops_per_s` moves, the probe that moved says which crate.

use std::hint::black_box;
use std::rc::Rc;

use bytes::Bytes;
use imca_core::block::{assemble, cover};
use imca_core::keys::block_key;
use imca_core::{Cluster, ClusterConfig, ImcaConfig};
use imca_fabric::{Network, Service, Transport, WireSize};
use imca_memcached::protocol::{encode_response, parse_response, Response, Value};
use imca_memcached::{McConfig, Memcached, Selector, ServerMap};
use imca_sim::sync::{Queue, Resource};
use imca_sim::{Sim, SimDuration};
use imca_storage::{ExtentStore, FileId, PageCache};
use imca_workloads::{Deployment, SystemSpec};

use crate::hostclock::HostClock;
use crate::layers::Metric;
use crate::quantile::median_f64;
use crate::trace::Trace;

/// Each probe reports the median of this many batches.
const BATCHES: usize = 7;
const BLOCK: usize = 2048;
const KEY_PATH: &str = "/bench/warm/c07";

/// Host ns per call of `call`, over `calls` calls.
fn per_call(clock: &HostClock, calls: u64, mut call: impl FnMut(u64)) -> f64 {
    let t = clock.seconds();
    for i in 0..calls {
        call(i);
    }
    (clock.seconds() - t) * 1e9 / calls as f64
}

/// Host ns per unit of running `sim` to the end, which does `units` units.
fn per_unit(clock: &HostClock, mut sim: Sim, units: u64) -> f64 {
    let t = clock.seconds();
    black_box(sim.run());
    (clock.seconds() - t) * 1e9 / units as f64
}

fn timer_ns(clock: &HostClock) -> f64 {
    const TASKS: u64 = 64;
    const SLEEPS: u64 = 200;
    let mut sim = Sim::new(1);
    for i in 0..TASKS {
        let h = sim.handle();
        sim.spawn(async move {
            for _ in 0..SLEEPS {
                h.sleep(SimDuration::nanos(1 + i)).await;
            }
        });
    }
    per_unit(clock, sim, TASKS * SLEEPS)
}

fn queue_ns(clock: &HostClock) -> f64 {
    const ITEMS: u64 = 20_000;
    let mut sim = Sim::new(1);
    let q: Queue<u64> = Queue::new();
    let rx = q.clone();
    sim.spawn(async move {
        while let Some(v) = rx.recv().await {
            black_box(v);
        }
    });
    sim.spawn(async move {
        for i in 0..ITEMS {
            q.push(i);
            imca_sim::yield_now().await;
        }
        q.close();
    });
    per_unit(clock, sim, ITEMS)
}

fn resource_ns(clock: &HostClock) -> f64 {
    const WAITERS: u64 = 64;
    const SERVES: u64 = 50;
    let mut sim = Sim::new(1);
    let res = Resource::new(2);
    for _ in 0..WAITERS {
        let (res, h) = (res.clone(), sim.handle());
        sim.spawn(async move {
            for _ in 0..SERVES {
                res.serve(&h, SimDuration::micros(1)).await;
            }
        });
    }
    per_unit(clock, sim, WAITERS * SERVES)
}

#[derive(Clone)]
struct Ask;
#[derive(Clone)]
struct Block(Vec<u8>);

impl WireSize for Ask {
    fn wire_bytes(&self) -> usize {
        64
    }
}

impl WireSize for Block {
    fn wire_bytes(&self) -> usize {
        64 + self.0.len()
    }
}

/// One simulated round trip fetching 2 KB between two nodes.
fn rpc_ns(clock: &HostClock) -> f64 {
    const CALLS: u64 = 2000;
    let mut sim = Sim::new(1);
    let net = Network::new(sim.handle(), Transport::ipoib_ddr());
    let (server, client) = (net.add_node(), net.add_node());
    let svc: Service<Ask, Block> = Service::bind(&net, server);
    let cli = svc.client(client);
    let serving = svc.clone();
    sim.spawn(async move {
        while let Some(msg) = serving.recv().await {
            msg.respond(Block(vec![7; BLOCK]));
        }
    });
    sim.spawn(async move {
        for _ in 0..CALLS {
            black_box(cli.call(Ask).await);
        }
        svc.close();
    });
    per_unit(clock, sim, CALLS)
}

fn pagecache_ns(clock: &HostClock) -> f64 {
    let mut pc = PageCache::new(16 << 20, 4096);
    per_call(clock, 20_000, |i| {
        let (file, off) = (FileId(i % 32), (i * 4096) % (32 << 20));
        black_box(pc.lookup(file, off, 4096));
        black_box(pc.insert(file, off, 4096, i % 3 == 0));
    })
}

fn extent_rw_ns(clock: &HostClock) -> f64 {
    const RECORD: u64 = 64 << 10;
    let mut store = ExtentStore::new();
    store.create(FileId(1));
    let data = vec![0x5A; RECORD as usize];
    per_call(clock, 400, |i| {
        let off = (i % 64) * RECORD;
        store.write(FileId(1), off, &data);
        black_box(store.read(FileId(1), off, RECORD));
    })
}

fn store_keys() -> Vec<Vec<u8>> {
    (0..1024u64)
        .map(|b| block_key(KEY_PATH, b * BLOCK as u64))
        .collect()
}

fn filled_store(keys: &[Vec<u8>]) -> Memcached {
    let mc = Memcached::new(McConfig::with_mem_limit(64 << 20));
    let value = Bytes::from(vec![0xAB; BLOCK]);
    for k in keys {
        mc.set(k, value.clone(), 0, None, 0).expect("fits");
    }
    mc
}

fn store_get_ns(clock: &HostClock) -> f64 {
    let keys = store_keys();
    let mc = filled_store(&keys);
    per_call(clock, 20_000, |i| {
        black_box(mc.get(&keys[i as usize % keys.len()], 0));
    })
}

fn store_set_ns(clock: &HostClock) -> f64 {
    let keys = store_keys();
    let mc = filled_store(&keys);
    let value = Bytes::from(vec![0xCD; BLOCK]);
    per_call(clock, 20_000, |i| {
        mc.set(&keys[i as usize % keys.len()], value.clone(), 0, None, 0)
            .expect("fits");
    })
}

/// A daemon's reply to a one-block hit.
fn hit_reply() -> Response {
    Response::Values(vec![Value {
        key: block_key(KEY_PATH, 4096),
        flags: 0,
        cas: None,
        data: Bytes::from(vec![0u8; BLOCK]),
    }])
}

fn codec_encode_ns(clock: &HostClock) -> f64 {
    let reply = hit_reply();
    per_call(clock, 20_000, |_| {
        black_box(encode_response(black_box(&reply)));
    })
}

fn codec_parse_ns(clock: &HostClock) -> f64 {
    let wire = encode_response(&hit_reply());
    per_call(clock, 20_000, |_| {
        black_box(parse_response(black_box(&wire)).expect("own encoding parses"));
    })
}

fn select_ns(clock: &HostClock) -> f64 {
    let keys = store_keys();
    let map = ServerMap::new(Selector::Crc32, 4);
    per_call(clock, 100_000, |i| {
        black_box(map.select(&keys[i as usize % keys.len()], None));
    })
}

fn block_key_ns(clock: &HostClock) -> f64 {
    per_call(clock, 100_000, |i| {
        black_box(block_key(black_box(KEY_PATH), i * BLOCK as u64));
    })
}

/// Cover a 32 KB read with 2 KB blocks and assemble the reply.
fn block_cover_assemble_ns(clock: &HostClock) -> f64 {
    let (off, len, bs) = (6144u64, 32u64 << 10, BLOCK as u64);
    let blocks: Vec<(u64, Vec<u8>)> = cover(off, len, bs)
        .iter()
        .map(|b| (b.start, vec![0x5A; BLOCK]))
        .collect();
    per_call(clock, 5_000, |_| {
        let covered = cover(black_box(off), len, bs);
        let refs: Vec<(u64, &[u8])> = blocks.iter().map(|(s, d)| (*s, d.as_slice())).collect();
        black_box((covered, assemble(off, len, bs, &refs)));
    })
}

/// Host ns per simulated 2 KB read by one client of `dep`, after a 64 KB
/// write. Only the reads are timed: the deployment is built and the
/// file written before the clock starts.
fn stack_read_ns(clock: &HostClock, mut sim: Sim, dep: Deployment) -> f64 {
    const READS: u64 = 1000;
    let cli = dep.mount();
    let held = Rc::new(std::cell::RefCell::new(None));
    let (c, h) = (cli.clone(), Rc::clone(&held));
    sim.spawn(async move {
        c.create("/probe/f").await;
        let fd = c.open("/probe/f").await;
        c.write(&fd, 0, &vec![7u8; 64 << 10]).await;
        *h.borrow_mut() = Some(fd);
    });
    sim.run();
    let fd = held.borrow_mut().take().expect("set-up ran to the end");
    sim.spawn(async move {
        for k in 0..READS {
            black_box(cli.read(&fd, (k % 32) * BLOCK as u64, BLOCK as u64).await);
        }
    });
    per_unit(clock, sim, READS)
}

/// mount → FUSE → protocol → server → posix, with no cache in the way.
fn nocache_read_ns(clock: &HostClock) -> f64 {
    let sim = Sim::new(1);
    let dep = Deployment::build(sim.handle(), &SystemSpec::GlusterNoCache);
    stack_read_ns(clock, sim, dep)
}

/// The warm IMCa read path: CMCache → bank client → fabric → daemon.
fn cached_read_ns(clock: &HostClock) -> f64 {
    let sim = Sim::new(1);
    let cfg = ClusterConfig::imca(ImcaConfig {
        mcd_count: 2,
        mcd_config: McConfig::with_mem_limit(16 << 20),
        ..ImcaConfig::default()
    });
    let dep = Deployment::Gluster(Rc::new(Cluster::build(sim.handle(), cfg)));
    stack_read_ns(clock, sim, dep)
}

/// Run every probe, with a host-clock span around each one's batches
/// named for the layer it calls into.
pub fn run(clock: &HostClock, trace: &mut Trace) -> Vec<Metric> {
    type Probe = (&'static str, &'static str, fn(&HostClock) -> f64);
    const PROBES: [Probe; 15] = [
        ("sim.probe.timer_ns", "sim", timer_ns),
        ("sim.probe.queue_ns", "sim", queue_ns),
        ("sim.probe.resource_ns", "sim", resource_ns),
        ("fabric.probe.rpc_ns", "fabric", rpc_ns),
        ("storage.probe.pagecache_ns", "storage", pagecache_ns),
        ("storage.probe.extent_rw_ns", "storage", extent_rw_ns),
        ("memcached.probe.store_get_ns", "memcached", store_get_ns),
        ("memcached.probe.store_set_ns", "memcached", store_set_ns),
        (
            "memcached.probe.codec_encode_ns",
            "memcached",
            codec_encode_ns,
        ),
        (
            "memcached.probe.codec_parse_ns",
            "memcached",
            codec_parse_ns,
        ),
        ("memcached.probe.select_ns", "memcached", select_ns),
        (
            "glusterfs.probe.nocache_read_ns",
            "glusterfs",
            nocache_read_ns,
        ),
        (
            "imca.probe.block_cover_assemble_ns",
            "imca",
            block_cover_assemble_ns,
        ),
        ("imca.probe.block_key_ns", "imca", block_key_ns),
        ("imca.probe.cached_read_ns", "imca", cached_read_ns),
    ];
    let phase = trace.begin("probes", "harness", None);
    let mut out = Vec::new();
    for (name, layer, probe) in PROBES {
        let span = trace.begin(name, layer, Some(phase));
        let batches: Vec<f64> = (0..BATCHES).map(|_| probe(clock)).collect();
        out.push(Metric::new(name, "ns", median_f64(&batches)));
        trace.end(span);
    }
    trace.end(phase);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_measures_something_and_is_spanned() {
        let clock = HostClock::start();
        let mut trace = Trace::new(clock.origin);
        let metrics = run(&clock, &mut trace);
        assert_eq!(metrics.len(), 15);
        for m in &metrics {
            assert!(
                m.value.is_some_and(|v| v > 0.0),
                "{} = {:?}",
                m.name,
                m.value
            );
        }
        assert_eq!(trace.spans.len(), 16, "one span per probe plus the phase");
        assert!(trace.spans[1..].iter().all(|s| s.parent == Some(0)));
    }
}

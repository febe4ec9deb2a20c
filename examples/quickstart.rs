//! Quickstart: bring up a simulated IMCa deployment (GlusterFS server +
//! MemCached bank + one client), do file I/O, and watch the cache tier
//! work.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use std::rc::Rc;

use imca_repro::imca::{Cluster, ClusterConfig, ImcaConfig};
use imca_repro::memcached::McConfig;
use imca_repro::sim::Sim;

fn main() {
    // Everything runs on a deterministic virtual clock: same seed, same
    // nanosecond-for-nanosecond behaviour.
    let mut sim = Sim::new(42);

    // An IMCa deployment per the paper's Fig 2: one GlusterFS server over
    // an 8-disk RAID, two MemCached daemons on their own nodes, IPoIB
    // between everything, 2 KB cache blocks.
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            mcd_config: McConfig::with_mem_limit(64 << 20),
            ..ImcaConfig::default()
        }),
    ));

    let h = sim.handle();
    let c = Rc::clone(&cluster);
    // The client is the run's main task: `run_main` returns when it has
    // finished, and fails the run if the simulation goes quiet first.
    sim.run_main(async move {
        // Mount a client (its own node on the fabric).
        let mount = c.mount();

        // Ordinary POSIX-flavoured calls.
        mount.create("/data/hello.txt").await.unwrap();
        let fd = mount.open("/data/hello.txt").await.unwrap();
        mount
            .write(fd, 0, b"hello from the intermediate cache architecture")
            .await
            .unwrap();

        // First read after a write is already served from the MCD bank:
        // SMCache pushed the covering blocks when the write completed.
        let t0 = h.now();
        let data = mount.read(fd, 0, 47).await.unwrap();
        let cached_read = h.now().since(t0);
        println!("read {:?}", String::from_utf8_lossy(&data));
        println!("cached read latency : {cached_read}");

        // stat is served from the bank too (key "/data/hello.txt:m.stat").
        let t0 = h.now();
        let st = mount.stat("/data/hello.txt").await.unwrap();
        println!(
            "stat latency        : {} (size={})",
            h.now().since(t0),
            st.size
        );

        mount.close(fd).await.unwrap();
    });

    // The run is quiet now; `run` only reads its summary back.
    let summary = sim.run();
    println!();
    println!("virtual time elapsed : {}", summary.end_time);
    println!("events processed     : {}", summary.events);
    let snap = cluster.metrics();
    let cm = |m: &str| snap.counter_sum(&format!("cmcache.*.{m}"));
    println!(
        "CMCache              : {} read hits, {} read misses, {} stat hits",
        cm("read_hits"),
        cm("read_misses"),
        cm("stat_hits")
    );
    let items: u64 = cluster.mcds().iter().map(|n| n.stats().curr_items).sum();
    println!(
        "MCD bank             : {} gets ({} hits), {} items resident",
        snap.counter_sum("bank.mcd.*.store.cmd_get"),
        snap.counter_sum("bank.mcd.*.store.get_hits"),
        items
    );
}

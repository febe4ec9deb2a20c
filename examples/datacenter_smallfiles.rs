//! The small-file data-center scenario from the motivation (§3):
//! "In data-center environments a large number of small files are used
//! ... Data striping techniques generally used in parallel file systems
//! are of limited use for small files."
//!
//! A pool of web-server-like clients repeatedly serves a working set of
//! small files (stat + whole-file read per request). We run the same
//! trace against native GlusterFS and against GlusterFS+IMCa, compare,
//! and assert that IMCa finishes the mix first.
//!
//! ```text
//! cargo run --release --example datacenter_smallfiles
//! ```

use std::rc::Rc;

use imca_repro::imca::{Cluster, ClusterConfig, ImcaConfig};
use imca_repro::memcached::McConfig;
use imca_repro::sim::sync::Barrier;
use imca_repro::sim::Sim;

const FILES: usize = 400;
const FILE_SIZE: u64 = 6 * 1024; // small HTML/thumbnail-sized objects
const CLIENTS: usize = 12;
const REQUESTS_PER_CLIENT: usize = 1200;

fn run(config: ClusterConfig, label: &str) -> f64 {
    let mut sim = Sim::new(99);
    let cluster = Rc::new(Cluster::build(sim.handle(), config));
    let h = sim.handle();
    let barrier = Barrier::new(CLIENTS + 1);

    // Content provider: populate the working set.
    let provider = {
        let c = Rc::clone(&cluster);
        let barrier = barrier.clone();
        async move {
            let m = c.mount();
            for i in 0..FILES {
                let path = format!("/www/objects/{i:04}.bin");
                m.create(&path).await.unwrap();
                let fd = m.open(&path).await.unwrap();
                let body: Vec<u8> = (0..FILE_SIZE)
                    .map(|b| ((i as u64 + b) % 251) as u8)
                    .collect();
                m.write(fd, 0, &body).await.unwrap();
                m.close(fd).await.unwrap();
            }
            barrier.wait().await;
        }
    };

    // Front-end clients: Zipf-ish skew (low ids are hot), stat + read.
    let mut clients = Vec::new();
    for cid in 0..CLIENTS {
        let c = Rc::clone(&cluster);
        let barrier = barrier.clone();
        let h = h.clone();
        clients.push(async move {
            let m = c.mount();
            let rng_base = (cid as u64 + 1) * 2654435761;
            // Web servers keep hot files open (fd cache): repeated opens
            // would purge the bank on every request (§4.3.2).
            let mut fd_cache = std::collections::HashMap::new();
            barrier.wait().await;
            let t0 = h.now();
            for r in 0..REQUESTS_PER_CLIENT {
                let x = rng_base.wrapping_mul(r as u64 + 1) >> 33;
                // Cubic skew towards the hot head of the set: most traffic
                // lands on a few dozen hot objects, as web caches see.
                let z = x % FILES as u64;
                let f = (z * z * z / (FILES as u64 * FILES as u64)) as usize;
                let path = format!("/www/objects/{f:04}.bin");
                let st = m.stat(&path).await.unwrap();
                let fd = match fd_cache.get(&f) {
                    Some(fd) => *fd,
                    None => {
                        let fd = m.open(&path).await.unwrap();
                        fd_cache.insert(f, fd);
                        fd
                    }
                };
                let body = m.read(fd, 0, st.size).await.unwrap();
                assert_eq!(body.len() as u64, FILE_SIZE);
            }
            h.now().since(t0).as_secs_f64()
        });
    }

    let times = sim.run_main(async move {
        h.spawn(provider);
        imca_repro::sim::join_all(&h, clients).await
    });
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let total_requests = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    println!(
        "{label:<22} {max:6.3}s wall, {:7.0} requests/s",
        total_requests / max
    );
    let snap = cluster.metrics();
    if let Some(blocks_pushed) = snap.counter("smcache.blocks_pushed") {
        let cm = |m: &str| snap.counter_sum(&format!("cmcache.*.{m}"));
        println!(
            "{:<22} stat hits {} / misses {}, read hits {} / misses {}, blocks pushed {}",
            "",
            cm("stat_hits"),
            cm("stat_misses"),
            cm("read_hits"),
            cm("read_misses"),
            blocks_pushed
        );
    }
    max
}

fn main() {
    println!(
        "small-file serving: {FILES} files x {FILE_SIZE} B, {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests"
    );
    let nocache = run(ClusterConfig::nocache(), "GlusterFS (NoCache)");
    let imca = run(
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            mcd_config: McConfig::with_mem_limit(64 << 20),
            ..ImcaConfig::default()
        }),
        "GlusterFS + IMCa (2)",
    );
    println!();
    println!(
        "IMCa speedup: {:.2}x ({:.0}% time reduction)",
        nocache / imca,
        100.0 * (1.0 - imca / nocache)
    );
    assert!(
        imca < nocache,
        "IMCa must serve the small-file mix faster than NoCache: {imca:.3}s vs {nocache:.3}s"
    );
}

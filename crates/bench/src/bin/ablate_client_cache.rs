//! Client-cache ablation (paper §7 future work: "study the relative
//! scalability of a coherent client side cache and a bank of intermediate
//! cache nodes", and §3's coherency discussion).
//!
//! Compares three client stacks on a multi-client re-read workload:
//!
//! * NoCache (the paper's GlusterFS baseline),
//! * GlusterFS + io-cache (timeout-revalidated client cache — fastest on
//!   private re-reads, but with a documented staleness window),
//! * GlusterFS + IMCa (the paper's contribution — close to io-cache on
//!   re-reads, no staleness window),
//!
//! and measures the freshness lag each stack exhibits when another client
//! overwrites a shared file.

use std::rc::Rc;

use imca_bench::{emit, emit_metrics, metric_label, Options};
use imca_core::{Cluster, ClusterConfig, ImcaConfig};
use imca_memcached::McConfig;
use imca_metrics::Snapshot;
use imca_sim::sync::Queue;
use imca_sim::{Sim, SimDuration};
use imca_workloads::report::Table;

fn configs() -> Vec<(&'static str, ClusterConfig)> {
    let iocache = {
        let mut c = ClusterConfig::nocache();
        c.client_io_cache = true;
        c
    };
    vec![
        ("NoCache", ClusterConfig::nocache()),
        ("io-cache", iocache),
        (
            "IMCa (2)",
            ClusterConfig::imca(ImcaConfig {
                mcd_count: 2,
                mcd_config: McConfig::with_mem_limit(256 << 20),
                ..ImcaConfig::default()
            }),
        ),
    ]
}

/// Mean re-read latency (µs) plus the run's metrics snapshot: each of
/// `clients` re-reads its own warm file.
fn reread_latency(cfg: ClusterConfig, clients: usize, seed: u64) -> (f64, Snapshot) {
    let mut sim = Sim::new(seed);
    let cluster = Rc::new(Cluster::build(sim.handle(), cfg));
    let h = sim.handle();
    let c = Rc::clone(&cluster);
    // Each client's mean, in the order the clients finish: the mean of
    // means sums in that order.
    let means = sim.run_main(async move {
        let done: Queue<f64> = Queue::new();
        for id in 0..clients {
            let cluster = Rc::clone(&c);
            let (h2, done) = (h.clone(), done.clone());
            h.spawn(async move {
                let m = cluster.mount();
                let path = format!("/cc/{id}");
                m.create(&path).await.unwrap();
                let fd = m.open(&path).await.unwrap();
                m.write(fd, 0, &vec![id as u8; 256 * 1024]).await.unwrap();
                // Warm pass.
                for k in 0..64u64 {
                    m.read(fd, k * 4096, 4096).await.unwrap();
                }
                // Timed re-read pass.
                let t0 = h2.now();
                for k in 0..64u64 {
                    let d = m.read(fd, k * 4096, 4096).await.unwrap();
                    assert_eq!(d.len(), 4096);
                }
                done.push(h2.now().since(t0).as_micros_f64() / 64.0);
            });
        }
        let mut means = Vec::with_capacity(clients);
        for _ in 0..clients {
            means.push(done.recv().await.unwrap());
        }
        means
    });
    (
        means.iter().sum::<f64>() / means.len() as f64,
        cluster.metrics(),
    )
}

/// Freshness lag (µs of virtual time): how long after a remote overwrite a
/// polling reader keeps returning the old bytes.
fn staleness_window(cfg: ClusterConfig, seed: u64) -> f64 {
    let mut sim = Sim::new(seed);
    let cluster = Rc::new(Cluster::build(sim.handle(), cfg));
    let h = sim.handle();
    sim.run_main(async move {
        let writer = cluster.mount();
        let reader = cluster.mount();
        writer.create("/cc/shared").await.unwrap();
        let wfd = writer.open("/cc/shared").await.unwrap();
        writer.write(wfd, 0, &vec![1u8; 4096]).await.unwrap();
        let rfd = reader.open("/cc/shared").await.unwrap();
        // Reader warms its cache on version 1.
        assert_eq!(reader.read(rfd, 0, 4096).await.unwrap()[0], 1);
        // Overwrite.
        writer.write(wfd, 0, &vec![2u8; 4096]).await.unwrap();
        let t_write = h.now();
        // Poll until the reader observes version 2.
        loop {
            let v = reader.read(rfd, 0, 4096).await.unwrap();
            if v[0] == 2 {
                break h.now().since(t_write).as_micros_f64();
            }
            h.sleep(SimDuration::millis(10)).await;
            assert!(
                h.now().since(t_write) <= SimDuration::secs(5),
                "reader never saw the new version"
            );
        }
    })
}

fn main() {
    let opts = Options::from_args(
        "ablate_client_cache",
        "IMCa vs GlusterFS io-cache vs NoCache: latency and freshness",
    );
    let clients = 8;

    let mut latency = Table::new(
        format!("Client-cache ablation: warm re-read latency, {clients} clients"),
        "stack (0=NoCache 1=io-cache 2=IMCa)",
        "microseconds per 4K read",
        vec!["latency".into()],
    );
    let mut snap = Snapshot::new();
    for (i, (name, cfg)) in configs().into_iter().enumerate() {
        let (mean_us, run_snap) = reread_latency(cfg, clients, opts.seed);
        latency.push_row(i as f64, vec![Some(mean_us)]);
        snap.merge_prefixed(&metric_label(name), &run_snap);
    }
    emit(&opts, "ablate_client_cache_latency", &latency);
    emit_metrics(&opts, "ablate_client_cache", &snap);

    let mut fresh = Table::new(
        "Client-cache ablation: staleness after a remote overwrite",
        "stack (0=NoCache 1=io-cache 2=IMCa)",
        "microseconds until fresh",
        vec!["staleness".into()],
    );
    for (i, (_, cfg)) in configs().into_iter().enumerate() {
        fresh.push_row(i as f64, vec![Some(staleness_window(cfg, opts.seed))]);
    }
    emit(&opts, "ablate_client_cache_staleness", &fresh);
    println!("io-cache wins raw re-read latency but pays a ~1s staleness window;");
    println!("IMCa is nearly as fast with freshness bounded by one write round trip.");
}

//! The paper's motivating workload for stat caching (§4.2): "in a
//! producer-consumer type of application, a producer will write or append
//! to a file. A consumer may look at the modification time on the file to
//! determine if an update has become available. This avoids the need and
//! cost for explicit synchronization primitives such as locks."
//!
//! A producer appends records; several consumers poll `stat` and read the
//! new bytes when mtime moves. With IMCa the polling traffic lands on the
//! MCD bank instead of hammering the GlusterFS server.
//!
//! ```text
//! cargo run --example producer_consumer
//! ```

use std::rc::Rc;

use imca_repro::imca::{Cluster, ClusterConfig, ImcaConfig};
use imca_repro::memcached::McConfig;
use imca_repro::sim::{Sim, SimDuration};

const FEED: &str = "/feeds/ticker.log";
const RECORD: u64 = 512;
const UPDATES: u64 = 40;
const CONSUMERS: usize = 6;

fn main() {
    let mut sim = Sim::new(7);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 1,
            mcd_config: McConfig::with_mem_limit(32 << 20),
            ..ImcaConfig::default()
        }),
    ));
    let h = sim.handle();

    // Producer: one update every 5 ms.
    let producer = {
        let c = Rc::clone(&cluster);
        let h = h.clone();
        async move {
            let m = c.mount();
            m.create(FEED).await.unwrap();
            let fd = m.open(FEED).await.unwrap();
            for k in 0..UPDATES {
                let record: Vec<u8> = (0..RECORD).map(|i| ((k * 31 + i) % 251) as u8).collect();
                m.write(fd, k * RECORD, &record).await.unwrap();
                h.sleep(SimDuration::millis(5)).await;
            }
            // Note: the producer keeps the file open; a close would purge
            // the bank (§4.3.2).
        }
    };

    // Consumers: poll mtime every 1 ms, read whatever is new.
    let mut consumers = Vec::new();
    for id in 0..CONSUMERS {
        let c = Rc::clone(&cluster);
        let h = h.clone();
        consumers.push(async move {
            let m = c.mount();
            // Wait for the feed to exist.
            h.sleep(SimDuration::millis(1)).await;
            let fd = m.open(FEED).await.unwrap();
            let mut seen_mtime = 0;
            let mut read_to = 0u64;
            let mut delivered = 0;
            let deadline = SimDuration::millis(5 * UPDATES + 20);
            while h.now().as_nanos() < deadline.as_nanos() {
                let st = m.stat(FEED).await.unwrap();
                if st.mtime_ns > seen_mtime && st.size > read_to {
                    let new = m.read(fd, read_to, st.size - read_to).await.unwrap();
                    // Verify the feed contents record by record.
                    for (j, chunk) in new.chunks(RECORD as usize).enumerate() {
                        let k = read_to / RECORD + j as u64;
                        assert!(
                            chunk
                                .iter()
                                .enumerate()
                                .all(|(i, &b)| b == ((k * 31 + i as u64) % 251) as u8),
                            "consumer {id} read a corrupt record {k}"
                        );
                    }
                    delivered += new.len() as u64;
                    read_to = st.size;
                    seen_mtime = st.mtime_ns;
                }
                h.sleep(SimDuration::millis(1)).await;
            }
            delivered
        });
    }

    let delivered: u64 = sim.run_main(async move {
        h.spawn(producer);
        imca_repro::sim::join_all(&h, consumers).await.iter().sum()
    });
    let snap = cluster.metrics();
    let cm = |m: &str| snap.counter_sum(&format!("cmcache.*.{m}"));
    let stat_hits = cm("stat_hits");
    let total_polls = stat_hits + cm("stat_misses");
    println!("producer wrote      : {} bytes", UPDATES * RECORD);
    println!("consumers received  : {delivered} bytes (all verified)");
    println!(
        "stat polls          : {} total, {} served by the MCD bank ({:.0}%)",
        total_polls,
        stat_hits,
        100.0 * stat_hits as f64 / total_polls.max(1) as f64
    );
    println!(
        "read interception   : {} hits / {} misses",
        cm("read_hits"),
        cm("read_misses")
    );
    assert!(delivered >= UPDATES * RECORD * CONSUMERS as u64 / 2);
}

//! Batching ablation (DESIGN.md "Batched bank data path"): the same warm
//! multi-block read served per-key (one bank RPC per covering block, as
//! the paper's client does it) vs batched (one multi-key `get` per routed
//! daemon). Reports cache-hit latency and measured bank RPCs per read at
//! increasing block counts.

use std::rc::Rc;

use imca_bench::{emit, emit_metrics, Grid, Options};
use imca_core::{Cluster, ClusterConfig, ImcaConfig};
use imca_memcached::{McConfig, Selector};
use imca_metrics::Snapshot;
use imca_workloads::report::Table;

const BLOCK: u64 = 2048;
const MCDS: usize = 2;

struct Point {
    mean_read_us: f64,
    rpcs_per_read: f64,
    metrics: Snapshot,
}

/// One deployment, one file of `nblocks` blocks, `reads` warm full-range
/// reads. Returns the mean cache-hit latency and the measured bank RPCs
/// (summed over daemons) per read.
fn run_point(batched: bool, nblocks: u64, reads: u64, seed: u64) -> Point {
    let mut sim = imca_sim::Sim::new(seed);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: MCDS,
            block_size: BLOCK,
            selector: Selector::Modulo,
            batching: batched,
            mcd_config: McConfig::with_mem_limit(64 << 20),
            ..ImcaConfig::default()
        }),
    ));
    let c = Rc::clone(&cluster);
    let h = sim.handle();
    let (elapsed_ns, rpcs_before) = sim.run_main(async move {
        let m = c.mount();
        m.create("/ablate").await.unwrap();
        let fd = m.open("/ablate").await.unwrap();
        let len = nblocks * BLOCK;
        // The write populates the bank; one warm-up read confirms it.
        m.write(fd, 0, &vec![0x6D; len as usize]).await.unwrap();
        m.read(fd, 0, len).await.unwrap();
        let rpcs_before = daemon_requests(&c);
        let t0 = h.now();
        for _ in 0..reads {
            m.read(fd, 0, len).await.unwrap();
        }
        (h.now().since(t0).as_nanos(), rpcs_before)
    });
    assert_eq!(
        cluster.metrics().counter_sum("cmcache.*.read_misses"),
        0,
        "ablation must measure pure cache hits"
    );
    let rpcs = daemon_requests(&cluster) - rpcs_before;
    Point {
        mean_read_us: elapsed_ns as f64 / reads as f64 / 1_000.0,
        rpcs_per_read: rpcs as f64 / reads as f64,
        metrics: cluster.metrics(),
    }
}

fn daemon_requests(cluster: &Cluster) -> u64 {
    cluster.metrics().counter_sum("bank.mcd.*.requests")
}

fn main() {
    let opts = Options::from_args(
        "ablate_batching",
        "batched vs per-key bank data path on warm multi-block reads",
    );
    let reads = if opts.full { 200 } else { 50 };
    let modes = vec![("PerKey".to_string(), false), ("Batched".to_string(), true)];
    let grid = Grid::sweep(modes, vec![1, 2, 4, 8, 16], |&batched, n| {
        run_point(batched, n as u64, reads, opts.seed)
    });

    let mut table = Table::new(
        "Batching ablation: warm read, 2 MCDs (modulo), 2 KB blocks",
        "covering blocks",
        "microseconds / RPCs",
        vec![
            "PerKey (us)".into(),
            "Batched (us)".into(),
            "PerKey RPCs/read".into(),
            "Batched RPCs/read".into(),
        ],
    );
    let mut snap = Snapshot::new();
    for (xi, &n) in grid.xs.iter().enumerate() {
        let (per_key, batched) = (grid.at(0, xi), grid.at(1, xi));
        table.push_row(
            n as f64,
            vec![
                Some(per_key.mean_read_us),
                Some(batched.mean_read_us),
                Some(per_key.rpcs_per_read),
                Some(batched.rpcs_per_read),
            ],
        );
        grid.merge_metrics(&mut snap, xi, &n.to_string(), |r| &r.metrics);
    }
    emit(&opts, "ablate_batching", &table);
    emit_metrics(&opts, "ablate_batching", &snap);
}

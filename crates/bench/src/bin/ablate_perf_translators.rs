//! GlusterFS performance-translator ablation (§2.1: "Translators exist for
//! Read Ahead and Write Behind").
//!
//! The paper's baseline runs without them; this experiment shows what each
//! contributes on the workloads where it matters, and how they compose
//! with IMCa:
//!
//! * sequential small-record read stream → read-ahead,
//! * sequential small-record write stream → write-behind.

use std::rc::Rc;

use imca_bench::{emit, emit_metrics, metric_label, Options};
use imca_core::{Cluster, ClusterConfig, ImcaConfig};
use imca_memcached::McConfig;
use imca_metrics::Snapshot;
use imca_sim::Sim;
use imca_workloads::report::Table;

const RECORD: u64 = 512;
const RECORDS: u64 = 2048;

fn stacks() -> Vec<(&'static str, ClusterConfig)> {
    let ra = {
        let mut c = ClusterConfig::nocache();
        c.client_read_ahead = true;
        c
    };
    let wb = {
        let mut c = ClusterConfig::nocache();
        c.client_write_behind = true;
        c
    };
    let both = {
        let mut c = ClusterConfig::nocache();
        c.client_read_ahead = true;
        c.client_write_behind = true;
        c
    };
    let imca_ra = {
        let mut c = ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            mcd_config: McConfig::with_mem_limit(64 << 20),
            ..ImcaConfig::default()
        });
        c.client_read_ahead = true;
        c
    };
    vec![
        ("NoCache", ClusterConfig::nocache()),
        ("+read-ahead", ra),
        ("+write-behind", wb),
        ("+both", both),
        ("IMCa+read-ahead", imca_ra),
    ]
}

/// Returns (mean sequential write µs, mean sequential read µs) and the
/// run's metrics snapshot.
fn run_stream(cfg: ClusterConfig, seed: u64) -> (f64, f64, Snapshot) {
    let mut sim = Sim::new(seed);
    let cluster = Rc::new(Cluster::build(sim.handle(), cfg));
    let h = sim.handle();
    let (w, r) = {
        let cluster = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = cluster.mount();
            m.create("/stream").await.unwrap();
            let fd = m.open("/stream").await.unwrap();
            let t0 = h.now();
            for k in 0..RECORDS {
                let data: Vec<u8> = (0..RECORD).map(|i| ((k + i) % 251) as u8).collect();
                m.write(fd, k * RECORD, &data).await.unwrap();
            }
            let write_us = h.now().since(t0).as_micros_f64() / RECORDS as f64;
            let t1 = h.now();
            for k in 0..RECORDS {
                let got = m.read(fd, k * RECORD, RECORD).await.unwrap();
                assert_eq!(got.len() as u64, RECORD);
            }
            let read_us = h.now().since(t1).as_micros_f64() / RECORDS as f64;
            m.close(fd).await.unwrap();
            (write_us, read_us)
        })
    };
    (w, r, cluster.metrics())
}

fn main() {
    let opts = Options::from_args(
        "ablate_perf_translators",
        "read-ahead / write-behind translators on sequential streams",
    );
    let mut table = Table::new(
        format!("Perf-translator ablation: {RECORDS} sequential {RECORD}B records"),
        "stack (0=NoCache 1=+ra 2=+wb 3=+both 4=IMCa+ra)",
        "microseconds per record",
        vec!["write".into(), "read".into()],
    );
    let mut snap = Snapshot::new();
    for (i, (name, cfg)) in stacks().into_iter().enumerate() {
        let (w, r, run_snap) = run_stream(cfg, opts.seed);
        println!("{name:<16} write {w:8.2} us   read {r:8.2} us");
        table.push_row(i as f64, vec![Some(w), Some(r)]);
        snap.merge_prefixed(&metric_label(name), &run_snap);
    }
    emit(&opts, "ablate_perf_translators", &table);
    emit_metrics(&opts, "ablate_perf_translators", &snap);
}

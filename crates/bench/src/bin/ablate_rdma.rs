//! RDMA ablation (paper §7 future work: "how network mechanisms like RDMA
//! in InfiniBand can help reduce the overhead of the cache bank").
//!
//! Runs the single-client and 16-client read-latency sweeps with the MCD
//! bank connected over IPoIB (paper configuration) versus native RDMA,
//! while the GlusterFS server traffic stays on IPoIB in both cases.

use imca_bench::{emit, emit_metrics, metric_label, parallel_sweep, Options};
use imca_core::ImcaConfig;
use imca_fabric::Transport;
use imca_metrics::Snapshot;
use imca_workloads::latbench::{run, LatencyBench};
use imca_workloads::report::Table;
use imca_workloads::SystemSpec;

fn spec(rdma_bank: bool) -> SystemSpec {
    SystemSpec::Imca(ImcaConfig {
        mcd_count: 2,
        bank_transport: rdma_bank.then(Transport::rdma_ddr),
        ..ImcaConfig::default()
    })
}

fn main() {
    let opts = Options::from_args("ablate_rdma", "IPoIB vs RDMA transport for the MCD bank");
    // Smoke: records up to 4 KB still span two of the default 2 KB blocks.
    let (records, max_size) = if opts.full {
        (1024, 64 << 10)
    } else if opts.smoke {
        (32, 4 << 10)
    } else {
        (192, 64 << 10)
    };
    let sizes = LatencyBench::power_of_two_sizes(max_size);

    let mut snap = Snapshot::new();
    for &clients in &[1usize, 16] {
        let systems: Vec<(String, SystemSpec)> = vec![
            ("IMCa/IPoIB".into(), spec(false)),
            ("IMCa/RDMA".into(), spec(true)),
            ("NoCache".into(), SystemSpec::GlusterNoCache),
        ];
        let results = parallel_sweep(&systems, |(_, spec)| {
            run(&LatencyBench {
                spec: spec.clone(),
                clients,
                record_sizes: sizes.clone(),
                records,
                warmup: false,
                shared_file: false,
                seed: opts.seed,
            })
        });
        let mut table = Table::new(
            format!("RDMA ablation: read latency, {clients} client(s), 2 MCDs"),
            "record bytes",
            "microseconds",
            systems.iter().map(|(n, _)| n.clone()).collect(),
        );
        for &size in &sizes {
            let row: Vec<Option<f64>> = results.iter().map(|r| r.read_at(size)).collect();
            table.push_row(size as f64, row);
        }
        emit(&opts, &format!("ablate_rdma_{clients}clients"), &table);
        for ((name, _), r) in systems.iter().zip(&results) {
            snap.merge_prefixed(&format!("{}.{clients}c", metric_label(name)), &r.metrics);
        }
    }
    emit_metrics(&opts, "ablate_rdma", &snap);
}

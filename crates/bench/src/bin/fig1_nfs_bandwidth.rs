//! Fig 1 (motivation): multi-client IOzone read bandwidth on a single NFS
//! server, for RDMA / IPoIB / GigE transports, with (a) the smaller and
//! (b) the larger server memory. The knee appears where the aggregate
//! working set outgrows the server's page cache.

use imca_bench::{emit, emit_metrics, metric_label, parallel_sweep, Options};
use imca_fabric::Transport;
use imca_metrics::Snapshot;
use imca_workloads::iozone::{run_nfs, NfsIozoneBench, NfsIozoneResult};
use imca_workloads::report::Table;

fn main() {
    let opts = Options::from_args(
        "fig1_nfs_bandwidth",
        "NFS read bandwidth vs clients for three transports (paper Fig 1)",
    );
    // Paper: 4 GB / 8 GB server memory, ~1 GB per client file. Scaled: the
    // same ratio at 1/32 size so the knee lands inside the client sweep.
    // Smoke: 1/256 size, one client count either side of both knees.
    let (mem_small, mem_big, file_size) = if opts.full {
        (4u64 << 30, 8u64 << 30, 1u64 << 30)
    } else if opts.smoke {
        (16u64 << 20, 32u64 << 20, 4u64 << 20)
    } else {
        (128u64 << 20, 256u64 << 20, 32u64 << 20)
    };
    let clients: &[usize] = if opts.smoke {
        &[2, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let transports = [
        ("RDMA", Transport::rdma_ddr()),
        ("IPoIB", Transport::ipoib_ddr()),
        ("GigE", Transport::gige()),
    ];

    for (panel, mem) in [("a", mem_small), ("b", mem_big)] {
        let mut jobs: Vec<Box<dyn FnOnce() -> NfsIozoneResult + Send>> = Vec::new();
        for (_, transport) in &transports {
            for &n in clients {
                let cfg = NfsIozoneBench {
                    transport: transport.clone(),
                    server_memory: mem,
                    clients: n,
                    file_size,
                    record_size: 64 * 1024,
                    pipeline: 4,
                    seed: opts.seed,
                };
                jobs.push(Box::new(move || run_nfs(&cfg)));
            }
        }
        let results = parallel_sweep(jobs);
        let mut table = Table::new(
            format!(
                "Fig 1({panel}): NFS IOzone read bandwidth, {} MB server memory",
                mem >> 20
            ),
            "clients",
            "MB/s",
            transports.iter().map(|(n, _)| n.to_string()).collect(),
        );
        for (ci, &n) in clients.iter().enumerate() {
            let row: Vec<Option<f64>> = (0..transports.len())
                .map(|ti| Some(results[ti * clients.len() + ci].read_mb_s))
                .collect();
            table.push_row(n as f64, row);
        }
        emit(&opts, &format!("fig1{panel}_nfs_bandwidth"), &table);

        // Observability: per-transport snapshots at the largest client
        // count, merged under `<transport>.<n>c.<tier>...`.
        let mut snap = Snapshot::new();
        let last = clients.len() - 1;
        for (ti, (tname, _)) in transports.iter().enumerate() {
            snap.merge_prefixed(
                &format!("{}.{}c", metric_label(tname), clients[last]),
                &results[ti * clients.len() + last].metrics,
            );
        }
        emit_metrics(&opts, &format!("fig1{panel}_nfs_bandwidth"), &snap);
    }
}

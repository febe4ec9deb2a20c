//! Fig 1 (motivation): multi-client IOzone read bandwidth on a single NFS
//! server, for RDMA / IPoIB / GigE transports, with (a) the smaller and
//! (b) the larger server memory. The knee appears where the aggregate
//! working set outgrows the server's page cache.

use imca_bench::{emit, emit_metrics, Grid, Options};
use imca_fabric::Transport;
use imca_metrics::Snapshot;
use imca_workloads::iozone::{run_nfs, NfsIozoneBench};

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
    let transports = vec![
        ("RDMA".to_string(), Transport::rdma_ddr()),
        ("IPoIB".to_string(), Transport::ipoib_ddr()),
        ("GigE".to_string(), Transport::gige()),
    ];

    for (panel, mem) in [("a", mem_small), ("b", mem_big)] {
        let grid = Grid::sweep(transports.clone(), clients.to_vec(), |transport, n| {
            run_nfs(&NfsIozoneBench {
                transport: transport.clone(),
                server_memory: mem,
                clients: n,
                file_size,
                record_size: 64 * 1024,
                pipeline: 4,
                seed: opts.seed,
            })
        });
        let table = grid.table(
            format!(
                "Fig 1({panel}): NFS IOzone read bandwidth, {} MB server memory",
                mem >> 20
            ),
            "clients",
            "MB/s",
            |r| Some(r.read_mb_s),
        );
        emit(&opts, &format!("fig1{panel}_nfs_bandwidth"), &table);

        // Observability: per-transport snapshots at the largest client
        // count, merged under `<transport>.<n>c.<tier>...`.
        let mut snap = Snapshot::new();
        let last = clients.len() - 1;
        grid.merge_metrics(&mut snap, last, &format!("{}c", clients[last]), |r| {
            &r.metrics
        });
        emit_metrics(&opts, &format!("fig1{panel}_nfs_bandwidth"), &snap);
    }
}

//! Fig 10: read latency to a *shared* file vs node count — the root node
//! writes, every node reads (§5.6). IMCa runs with a single MCD, against
//! NoCache and Lustre-1DS cold.

use imca_bench::{emit, emit_metrics, Grid, Options};
use imca_metrics::Snapshot;
use imca_workloads::latbench::{run, LatencyBench};
use imca_workloads::SystemSpec;

fn main() {
    let opts = Options::from_args(
        "fig10_shared",
        "shared-file read latency vs nodes (paper Fig 10)",
    );
    let records = if opts.full {
        1024
    } else if opts.smoke {
        48
    } else {
        128
    };
    let node_sweep: Vec<usize> = if opts.full {
        vec![2, 4, 8, 16, 32]
    } else if opts.smoke {
        vec![2, 8]
    } else {
        vec![2, 4, 8, 16, 24]
    };
    let record_size = 2048u64;

    let systems: Vec<SystemSpec> = vec![
        SystemSpec::GlusterNoCache,
        SystemSpec::imca(1),
        SystemSpec::Lustre {
            osts: 1,
            warm: false,
        },
    ];

    let series = systems.into_iter().map(|s| (s.label(), s)).collect();
    let grid = Grid::sweep(series, node_sweep, |spec, nodes| {
        run(&LatencyBench {
            spec: spec.clone(),
            clients: nodes,
            record_sizes: vec![record_size],
            records,
            warmup: false,
            shared_file: true,
            seed: opts.seed,
        })
    });
    let table = grid.table(
        "Fig 10: read latency to a shared file (root writes, all read)",
        "nodes",
        "microseconds",
        |r| r.read_at(record_size),
    );
    emit(&opts, "fig10_shared_read_latency", &table);

    // Observability: per-system snapshots at the largest node count.
    let mut snap = Snapshot::new();
    let last = grid.xs.len() - 1;
    grid.merge_metrics(&mut snap, last, &format!("{}n", grid.xs[last]), |r| {
        &r.metrics
    });
    emit_metrics(&opts, "fig10_shared_read_latency", &snap);
}

//! Fig 8: read latency while varying the number of clients, with a single
//! MCD — panels (a)/(c) for small records, (b)/(d) against Lustre. We
//! report a table per record size: latency vs client count.

use imca_bench::{emit, emit_metrics, Grid, Options};
use imca_metrics::Snapshot;
use imca_workloads::latbench::{run, LatencyBench};
use imca_workloads::report::human_bytes;
use imca_workloads::SystemSpec;

fn main() {
    let opts = Options::from_args(
        "fig8_latency_scaling",
        "read latency vs number of clients with one MCD (paper Fig 8)",
    );
    let records = if opts.full { 1024 } else { 96 };
    let client_sweep: Vec<usize> = if opts.full {
        vec![1, 2, 4, 8, 16, 32]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    // One small and one medium record size, as in the paper's panels.
    let sizes: Vec<u64> = vec![64, 8192];

    let systems: Vec<SystemSpec> = vec![
        SystemSpec::GlusterNoCache,
        SystemSpec::imca(1),
        SystemSpec::Lustre {
            osts: 4,
            warm: false,
        },
        SystemSpec::Lustre {
            osts: 4,
            warm: true,
        },
    ];

    let series = systems.into_iter().map(|s| (s.label(), s)).collect();
    let grid = Grid::sweep(series, client_sweep, |spec, clients| {
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

    for &size in &sizes {
        let table = grid.table(
            format!(
                "Fig 8: read latency vs clients, {} records, 1 MCD",
                human_bytes(size)
            ),
            "clients",
            "microseconds",
            |r| r.read_at(size),
        );
        emit(
            &opts,
            &format!("fig8_read_latency_scaling_{}", human_bytes(size)),
            &table,
        );
    }

    // Observability: per-system snapshots at the largest client count.
    let mut snap = Snapshot::new();
    let last = grid.xs.len() - 1;
    grid.merge_metrics(&mut snap, last, &format!("{}c", grid.xs[last]), |r| {
        &r.metrics
    });
    emit_metrics(&opts, "fig8_latency_scaling", &snap);
}

//! Fig 10: read latency to a *shared* file vs node count — the root node
//! writes, every node reads (§5.6). IMCa runs with a single MCD, against
//! NoCache and Lustre-1DS cold.

use imca_bench::{emit, emit_metrics, metric_label, parallel_sweep, Options};
use imca_metrics::Snapshot;
use imca_workloads::latbench::{run, LatencyBench, LatencyResult};
use imca_workloads::report::Table;
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

    let mut jobs: Vec<Box<dyn FnOnce() -> LatencyResult + Send>> = Vec::new();
    for spec in &systems {
        for &nodes in &node_sweep {
            let cfg = LatencyBench {
                spec: spec.clone(),
                clients: nodes,
                record_sizes: vec![record_size],
                records,
                warmup: false,
                shared_file: true,
                seed: opts.seed,
            };
            jobs.push(Box::new(move || run(&cfg)));
        }
    }
    let results = parallel_sweep(jobs);

    let mut table = Table::new(
        "Fig 10: read latency to a shared file (root writes, all read)",
        "nodes",
        "microseconds",
        systems.iter().map(|s| s.label()).collect(),
    );
    for (ni, &nodes) in node_sweep.iter().enumerate() {
        let row: Vec<Option<f64>> = (0..systems.len())
            .map(|si| results[si * node_sweep.len() + ni].read_at(record_size))
            .collect();
        table.push_row(nodes as f64, row);
    }
    emit(&opts, "fig10_shared_read_latency", &table);

    // Observability: per-system snapshots at the largest node count.
    let mut snap = Snapshot::new();
    let last = node_sweep.len() - 1;
    for (si, spec) in systems.iter().enumerate() {
        snap.merge_prefixed(
            &format!("{}.{}n", metric_label(&spec.label()), node_sweep[last]),
            &results[si * node_sweep.len() + last].metrics,
        );
    }
    emit_metrics(&opts, "fig10_shared_read_latency", &snap);
}

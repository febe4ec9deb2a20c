//! Fig 7: read latency with 32 clients while the number of MCDs varies
//! (1/2/4), against NoCache and Lustre-4DS warm & cold. Panel (a) covers
//! small records, panel (b) medium records — both come out of one sweep.

use imca_bench::{emit, emit_metrics, metric_label, parallel_sweep, Options};
use imca_metrics::Snapshot;
use imca_workloads::latbench::{run, LatencyBench};
use imca_workloads::report::Table;
use imca_workloads::SystemSpec;

fn main() {
    let opts = Options::from_args(
        "fig7_latency_32clients",
        "32-client read latency vs record size while varying MCDs (paper Fig 7)",
    );
    let clients = 32;
    // Smoke: records up to 4 KB still span two of the default 2 KB blocks.
    let (records, max_size) = if opts.full {
        (1024, 64 << 10)
    } else if opts.smoke {
        (16, 4 << 10)
    } else {
        (96, 16 << 10)
    };
    let sizes = LatencyBench::power_of_two_sizes(max_size);

    let systems: Vec<SystemSpec> = vec![
        SystemSpec::GlusterNoCache,
        SystemSpec::imca(1),
        SystemSpec::imca(2),
        SystemSpec::imca(4),
        SystemSpec::Lustre {
            osts: 4,
            warm: false,
        },
        SystemSpec::Lustre {
            osts: 4,
            warm: true,
        },
    ];

    let results = parallel_sweep(&systems, |spec| {
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
        format!("Fig 7(a,b): read latency with {clients} clients"),
        "record bytes",
        "microseconds",
        systems.iter().map(|s| s.label()).collect(),
    );
    for &size in &sizes {
        let row: Vec<Option<f64>> = results.iter().map(|r| r.read_at(size)).collect();
        table.push_row(size as f64, row);
    }
    emit(&opts, "fig7_read_latency_32clients", &table);

    let mut snap = Snapshot::new();
    for (spec, r) in systems.iter().zip(&results) {
        snap.merge_prefixed(&metric_label(&spec.label()), &r.metrics);
    }
    emit_metrics(&opts, "fig7_read_latency_32clients", &snap);
}

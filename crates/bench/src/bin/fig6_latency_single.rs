//! Fig 6: single-client latency vs record size.
//!
//! * (a)/(b): read latency for IMCa block sizes 256 B / 2 KB / 8 KB vs
//!   NoCache vs Lustre 1DS/4DS warm & cold,
//! * (c): write latency — NoCache vs IMCa (2 KB) synchronous vs IMCa with
//!   the threaded SMCache update.

use imca_bench::{emit, emit_metrics, metric_label, parallel_sweep, Options};
use imca_core::ImcaConfig;
use imca_metrics::Snapshot;
use imca_workloads::latbench::{run, LatencyBench};
use imca_workloads::report::Table;
use imca_workloads::SystemSpec;

fn imca_block(block_size: u64, threaded: bool) -> SystemSpec {
    SystemSpec::Imca(ImcaConfig {
        block_size,
        threaded_updates: threaded,
        ..ImcaConfig::default()
    })
}

fn main() {
    let opts = Options::from_args(
        "fig6_latency_single",
        "single-client read/write latency vs record size (paper Fig 6)",
    );
    // Smoke: records up to 16 KB still span several of the largest
    // (8 KB) blocks.
    let (records, max_size) = if opts.full {
        (1024, 1 << 20)
    } else if opts.smoke {
        (32, 16 << 10)
    } else {
        (256, 64 << 10)
    };
    let sizes = LatencyBench::power_of_two_sizes(max_size);
    let latency = |spec: &SystemSpec| {
        run(&LatencyBench {
            spec: spec.clone(),
            clients: 1,
            record_sizes: sizes.clone(),
            records,
            warmup: false,
            shared_file: false,
            seed: opts.seed,
        })
    };

    let read_systems: Vec<(String, SystemSpec)> = vec![
        ("NoCache".into(), SystemSpec::GlusterNoCache),
        ("IMCa-256".into(), imca_block(256, false)),
        ("IMCa-2K".into(), imca_block(2048, false)),
        ("IMCa-8K".into(), imca_block(8192, false)),
        (
            "Lustre-1DS (Cold)".into(),
            SystemSpec::Lustre {
                osts: 1,
                warm: false,
            },
        ),
        (
            "Lustre-4DS (Cold)".into(),
            SystemSpec::Lustre {
                osts: 4,
                warm: false,
            },
        ),
        (
            "Lustre-4DS (Warm)".into(),
            SystemSpec::Lustre {
                osts: 4,
                warm: true,
            },
        ),
    ];

    let results = parallel_sweep(&read_systems, |(_, spec)| latency(spec));

    let mut read_table = Table::new(
        "Fig 6(a,b): single-client read latency",
        "record bytes",
        "microseconds",
        read_systems.iter().map(|(n, _)| n.clone()).collect(),
    );
    for &size in &sizes {
        let row: Vec<Option<f64>> = results.iter().map(|r| r.read_at(size)).collect();
        read_table.push_row(size as f64, row);
    }
    emit(&opts, "fig6ab_read_latency_single", &read_table);

    let mut snap = Snapshot::new();
    for ((name, _), r) in read_systems.iter().zip(&results) {
        snap.merge_prefixed(&format!("read.{}", metric_label(name)), &r.metrics);
    }

    // (c) write latency: NoCache vs IMCa sync vs IMCa threaded.
    let write_systems: Vec<(String, SystemSpec)> = vec![
        ("NoCache".into(), SystemSpec::GlusterNoCache),
        ("IMCa-2K (sync)".into(), imca_block(2048, false)),
        ("IMCa-2K (threaded)".into(), imca_block(2048, true)),
    ];
    let results = parallel_sweep(&write_systems, |(_, spec)| latency(spec));
    let mut write_table = Table::new(
        "Fig 6(c): single-client write latency",
        "record bytes",
        "microseconds",
        write_systems.iter().map(|(n, _)| n.clone()).collect(),
    );
    for &size in &sizes {
        let row: Vec<Option<f64>> = results.iter().map(|r| r.write_at(size)).collect();
        write_table.push_row(size as f64, row);
    }
    emit(&opts, "fig6c_write_latency_single", &write_table);

    for ((name, _), r) in write_systems.iter().zip(&results) {
        snap.merge_prefixed(&format!("write.{}", metric_label(name)), &r.metrics);
    }
    emit_metrics(&opts, "fig6_latency_single", &snap);
}

//! Block-size ablation (§4.3.1 / §4.4): "If the block size is set too
//! large, small Read requests will be penalized ... If the block size is
//! set too small, large requests might require multiple trips to the MCDs."
//!
//! Sweeps the IMCa block size across a read-latency run, wider than the
//! three sizes Fig 6 shows.

use imca_bench::{emit, emit_metrics, metric_label, parallel_sweep, Options};
use imca_core::ImcaConfig;
use imca_metrics::Snapshot;
use imca_workloads::latbench::{run, LatencyBench};
use imca_workloads::report::{human_bytes, Table};
use imca_workloads::SystemSpec;

fn main() {
    let opts = Options::from_args(
        "ablate_blocksize",
        "IMCa block-size sweep on single-client read latency",
    );
    let records = if opts.full {
        1024
    } else if opts.smoke {
        16
    } else {
        192
    };
    let record_sizes = LatencyBench::power_of_two_sizes(64 << 10);
    let block_sizes: Vec<u64> = vec![256, 1024, 2048, 8192, 65536];

    let mut systems: Vec<(String, SystemSpec)> =
        vec![("NoCache".into(), SystemSpec::GlusterNoCache)];
    for &bs in &block_sizes {
        systems.push((
            format!("IMCa-{}", human_bytes(bs)),
            SystemSpec::Imca(ImcaConfig {
                block_size: bs,
                ..ImcaConfig::default()
            }),
        ));
    }

    let results = parallel_sweep(&systems, |(_, spec)| {
        run(&LatencyBench {
            spec: spec.clone(),
            clients: 1,
            record_sizes: record_sizes.clone(),
            records,
            warmup: false,
            shared_file: false,
            seed: opts.seed,
        })
    });

    let mut table = Table::new(
        "Block-size ablation: single-client read latency",
        "record bytes",
        "microseconds",
        systems.iter().map(|(n, _)| n.clone()).collect(),
    );
    for &size in &record_sizes {
        let row: Vec<Option<f64>> = results.iter().map(|r| r.read_at(size)).collect();
        table.push_row(size as f64, row);
    }
    emit(&opts, "ablate_blocksize", &table);

    let mut snap = Snapshot::new();
    for ((name, _), r) in systems.iter().zip(&results) {
        snap.merge_prefixed(&metric_label(name), &r.metrics);
    }
    emit_metrics(&opts, "ablate_blocksize", &snap);
}

//! Hashing ablation (paper §7 future work: "investigate different hashing
//! algorithms for distributing the data across the cache servers").
//!
//! Compares CRC-32, static modulo, and ketama consistent hashing on (a)
//! placement balance across the bank and (b) stat-benchmark completion
//! time, plus (c) how many keys move when the bank grows by one daemon.

use imca_bench::{emit, emit_metrics, metric_label, parallel_sweep, Options};
use imca_core::ImcaConfig;
use imca_memcached::{McConfig, Selector, ServerMap};
use imca_metrics::Snapshot;
use imca_workloads::report::Table;
use imca_workloads::statbench::{run, StatBench};
use imca_workloads::SystemSpec;

fn selectors() -> Vec<(&'static str, Selector)> {
    vec![
        ("CRC32", Selector::Crc32),
        ("Modulo", Selector::Modulo),
        ("Ketama", Selector::Ketama),
    ]
}

fn main() {
    let opts = Options::from_args(
        "ablate_hashing",
        "key-distribution ablation: CRC32 vs modulo vs ketama",
    );
    let files = if opts.full { 262_144 } else { 16_384 };
    let mcds = 4;

    // (a) Placement balance: normalized max/mean load over block keys.
    let mut balance = Table::new(
        "Hashing ablation (a): placement balance over block keys",
        "selector (0=CRC32 1=Modulo 2=Ketama)",
        "max/mean load (1.0 = perfect)",
        vec!["imbalance".into()],
    );
    for (i, (_, sel)) in selectors().into_iter().enumerate() {
        let map = ServerMap::new(sel, mcds);
        let mut counts = vec![0u64; mcds];
        for f in 0..files {
            for blk in 0..4u64 {
                let key = format!("/bench/lat/c0/f{f}:{}", blk * 2048);
                counts[map.select(key.as_bytes(), Some(blk))] += 1;
            }
        }
        let mean = counts.iter().sum::<u64>() as f64 / mcds as f64;
        let max = *counts.iter().max().unwrap() as f64;
        balance.push_row(i as f64, vec![Some(max / mean)]);
    }
    emit(&opts, "ablate_hashing_balance", &balance);

    // (b) End-to-end effect on the stat benchmark.
    let bench_files = if opts.full { 65_536 } else { 8_192 };
    let results = parallel_sweep(&selectors(), |&(_, selector)| {
        run(&StatBench {
            files: bench_files,
            clients: 8,
            spec: SystemSpec::Imca(ImcaConfig {
                mcd_count: mcds,
                selector,
                mcd_config: McConfig::with_mem_limit(1 << 30),
                ..ImcaConfig::default()
            }),
            seed: opts.seed,
        })
    });
    let mut time = Table::new(
        "Hashing ablation (b): stat benchmark completion",
        "selector (0=CRC32 1=Modulo 2=Ketama)",
        "seconds",
        vec!["max node time".into()],
    );
    for (i, r) in results.iter().enumerate() {
        time.push_row(i as f64, vec![Some(r.max_node_secs)]);
    }
    emit(&opts, "ablate_hashing_statbench", &time);

    let mut snap = Snapshot::new();
    for ((name, _), r) in selectors().into_iter().zip(&results) {
        snap.merge_prefixed(&metric_label(name), &r.metrics);
    }
    emit_metrics(&opts, "ablate_hashing", &snap);

    // (c) Key movement when the bank grows from 4 to 5 daemons.
    let mut movement = Table::new(
        "Hashing ablation (c): keys remapped when growing 4 -> 5 daemons",
        "selector (0=CRC32 1=Modulo 2=Ketama)",
        "fraction moved",
        vec!["moved".into()],
    );
    for (i, (_, sel)) in selectors().into_iter().enumerate() {
        let before = ServerMap::new(sel, 4);
        let after = ServerMap::new(sel, 5);
        let mut moved = 0usize;
        let total = files;
        for f in 0..total {
            let key = format!("/data/f{f}:stat");
            if before.select(key.as_bytes(), None) != after.select(key.as_bytes(), None) {
                moved += 1;
            }
        }
        movement.push_row(i as f64, vec![Some(moved as f64 / total as f64)]);
    }
    emit(&opts, "ablate_hashing_movement", &movement);
}

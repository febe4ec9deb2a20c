//! Metadata-tier ablation (DESIGN.md "Metadata path"): the ls-storm
//! workload under the three [`MetaPolicy`] settings — NoCache (every stat
//! forwards to the GlusterFS server), Bank (the paper's stat-entry round
//! trip), and Lease (client-held stat leases + negative caching) — at
//! 1..32 clients.
//!
//! Both cached policies ride the same readdirplus-style `stat_multi`
//! windows, so the sweep isolates what the *lease* adds over the bank
//! round trip: repeat walks answered locally, missing names answered from
//! the negative cache, and a bank tier that sees a fraction of the load
//! (which is what flattens the p99 under client pressure).
//!
//! Writes `ablate_metadata.{json,txt}`, `ablate_metadata_metrics.json`,
//! and the consolidated `BENCH_6.json` (per policy × clients stat
//! p50/p99, walk time, and tier counters) into the results directory.
//!
//! [`MetaPolicy`]: imca_core::MetaPolicy

use imca_bench::{emit, emit_metrics, parallel_sweep, Options};
use imca_core::MetaConfig;
use imca_metrics::Snapshot;
use imca_workloads::lsstorm::{run, LsStorm, LsStormResult};
use imca_workloads::report::Table;
use imca_workloads::SystemSpec;

const MCDS: usize = 4;
const WINDOW: usize = 8;
const GHOST_EVERY: usize = 2;

fn policies() -> Vec<(&'static str, MetaConfig)> {
    vec![
        ("nocache", MetaConfig::nocache()),
        ("bank", MetaConfig::default()),
        ("lease", MetaConfig::lease()),
    ]
}

/// Per-stat latency quantile in microseconds.
fn q_us(r: &LsStormResult, q: f64) -> f64 {
    r.quantile_ns(q) as f64 / 1_000.0
}

fn main() {
    let opts = Options::from_args(
        "ablate_metadata",
        "metadata-tier ablation: stat leases vs bank round trips vs NoCache on the ls storm",
    );
    // The acceptance claim is about contention, so even the smoke sweep
    // ends at 32 clients; --full adds the curve's middle and more files.
    let (files, rounds, clients_sweep): (usize, usize, Vec<usize>) = if opts.full {
        (512, 4, vec![1, 2, 4, 8, 16, 32])
    } else if opts.smoke {
        (64, 4, vec![1, 32])
    } else {
        (128, 4, vec![1, 8, 32])
    };

    let wall = std::time::Instant::now();
    let grid: Vec<(&'static str, MetaConfig, usize)> = policies()
        .into_iter()
        .flat_map(|(name, meta)| clients_sweep.iter().map(move |&c| (name, meta, c)))
        .collect();
    let jobs: Vec<Box<dyn FnOnce() -> LsStormResult + Send>> = grid
        .iter()
        .map(|&(_, meta, clients)| {
            let cfg = LsStorm {
                files,
                clients,
                rounds,
                window: WINDOW,
                ghost_every: GHOST_EVERY,
                spec: SystemSpec::imca_meta(MCDS, meta),
                seed: opts.seed,
            };
            Box::new(move || run(&cfg)) as Box<dyn FnOnce() -> LsStormResult + Send>
        })
        .collect();
    let results = parallel_sweep(jobs);
    let wall_secs = wall.elapsed().as_secs_f64();

    let pick = |policy: &str, clients: usize| -> &LsStormResult {
        grid.iter()
            .zip(&results)
            .find(|((p, _, c), _)| *p == policy && *c == clients)
            .map(|(_, r)| r)
            .unwrap()
    };

    let mut table = Table::new(
        format!(
            "Metadata ablation: ls storm p99 stat latency, {files} files x {rounds} walks, \
             {MCDS} MCDs"
        ),
        "clients",
        "microseconds",
        policies().iter().map(|(n, _)| n.to_string()).collect(),
    );
    for &c in &clients_sweep {
        let row: Vec<Option<f64>> = policies()
            .iter()
            .map(|(name, _)| Some(q_us(pick(name, c), 0.99)))
            .collect();
        table.push_row(c as f64, row);
    }
    emit(&opts, "ablate_metadata", &table);

    let mut snap = Snapshot::new();
    for ((name, _, c), res) in grid.iter().zip(&results) {
        snap.merge_prefixed(&format!("{name}.c{c}"), &res.metrics);
    }
    emit_metrics(&opts, "ablate_metadata", &snap);

    // Consolidated BENCH_6.json for scripts/tier1.sh --strict.
    let max_c = *clients_sweep.iter().max().unwrap();
    let p50 = |p: &str| q_us(pick(p, max_c), 0.50);
    let p99 = |p: &str| q_us(pick(p, max_c), 0.99);
    let lease_p50_lt_bank = p50("lease") < p50("bank");
    let lease_p99_lt_bank = p99("lease") < p99("bank");
    let bank_p99_lt_nocache = p99("bank") < p99("nocache");

    let mut doc = String::from("{\n  \"bench\": \"ablate_metadata\",\n");
    doc.push_str(&format!(
        "  \"files\": {files},\n  \"rounds\": {rounds},\n  \"window\": {WINDOW},\n  \
         \"ghost_every\": {GHOST_EVERY},\n  \"mcds\": {MCDS},\n"
    ));
    doc.push_str(&format!("  \"wall_clock_secs\": {wall_secs:.3},\n"));
    doc.push_str("  \"series\": [\n");
    for (i, ((name, _, c), res)) in grid.iter().zip(&results).enumerate() {
        doc.push_str(&format!(
            "    {{\"policy\": \"{name}\", \"clients\": {c}, \"stat_p50_us\": {:.2}, \
             \"stat_p99_us\": {:.2}, \"walk_secs\": {:.4}, \"lease_hits\": {}, \
             \"negative_hits\": {}, \"batched_paths\": {}}}{}\n",
            q_us(res, 0.50),
            q_us(res, 0.99),
            res.max_node_secs,
            res.metrics.counter_sum("cmcache.*.meta.lease_hits"),
            res.metrics.counter_sum("cmcache.*.meta.negative_hits"),
            res.metrics.counter_sum("cmcache.*.meta.batched_paths"),
            if i + 1 < grid.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!(
        "  \"claims\": {{\"clients\": {max_c}, \"lease_p50_lt_bank\": {lease_p50_lt_bank}, \
         \"lease_p99_lt_bank\": {lease_p99_lt_bank}, \
         \"bank_p99_lt_nocache\": {bank_p99_lt_nocache}}}\n}}\n"
    ));
    let _ = std::fs::create_dir_all(&opts.out_dir);
    let path = opts.out_dir.join("BENCH_6.json");
    std::fs::write(&path, &doc).expect("cannot write BENCH_6.json");
    println!("(consolidated summary written to {})", path.display());

    // The claims this ablation exists to check.
    assert!(
        lease_p50_lt_bank,
        "lease p50 {:.2}us did not beat bank p50 {:.2}us at {max_c} clients",
        p50("lease"),
        p50("bank")
    );
    assert!(
        lease_p99_lt_bank,
        "lease p99 {:.2}us did not beat bank p99 {:.2}us at {max_c} clients",
        p99("lease"),
        p99("bank")
    );
    assert!(
        bank_p99_lt_nocache,
        "bank p99 {:.2}us did not beat nocache p99 {:.2}us at {max_c} clients",
        p99("bank"),
        p99("nocache")
    );
    println!(
        "claims hold at {max_c} clients: p50 lease {:.1}us < bank {:.1}us; \
         p99 lease {:.1}us < bank {:.1}us < nocache {:.1}us",
        p50("lease"),
        p50("bank"),
        p99("lease"),
        p99("bank"),
        p99("nocache")
    );
}

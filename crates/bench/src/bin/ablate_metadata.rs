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

use imca_bench::{emit, emit_bench, emit_metrics, fixed, obj, Grid, Options};
use imca_core::MetaConfig;
use imca_metrics::json::Json;
use imca_metrics::{quantile, Snapshot};
use imca_workloads::lsstorm::{run, LsStorm, LsStormResult};
use imca_workloads::SystemSpec;

const MCDS: usize = 4;
const WINDOW: usize = 8;
const GHOST_EVERY: usize = 2;

/// The three policies, in the order the claims index them.
fn policies() -> Vec<(String, MetaConfig)> {
    vec![
        ("nocache".into(), MetaConfig::nocache()),
        ("bank".into(), MetaConfig::default()),
        ("lease".into(), MetaConfig::lease()),
    ]
}

/// Per-stat latency percentile in microseconds.
fn q_us(r: &LsStormResult, percent: usize) -> f64 {
    quantile(&r.stat_ns, percent).expect("the storm timed no stats") as f64 / 1_000.0
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

    let grid = Grid::sweep(policies(), clients_sweep, |&meta, clients| {
        run(&LsStorm {
            files,
            clients,
            rounds,
            window: WINDOW,
            ghost_every: GHOST_EVERY,
            spec: SystemSpec::imca_meta(MCDS, meta),
            seed: opts.seed,
        })
    });

    let table = grid.table(
        format!(
            "Metadata ablation: ls storm p99 stat latency, {files} files x {rounds} walks, \
             {MCDS} MCDs"
        ),
        "clients",
        "microseconds",
        |r| Some(q_us(r, 99)),
    );
    emit(&opts, "ablate_metadata", &table);

    let mut snap = Snapshot::new();
    for (xi, c) in grid.xs.iter().enumerate() {
        grid.merge_metrics(&mut snap, xi, &format!("c{c}"), |r| &r.metrics);
    }
    emit_metrics(&opts, "ablate_metadata", &snap);

    // Consolidated BENCH_6.json for scripts/tier1.sh --strict, at the
    // largest client count.
    let last = grid.xs.len() - 1;
    let max_c = grid.xs[last];
    let [nocache, bank, lease] = [0, 1, 2].map(|si| grid.at(si, last));
    let (p50, p99) = (|r| q_us(r, 50), |r| q_us(r, 99));
    let lease_p50_lt_bank = p50(lease) < p50(bank);
    let lease_p99_lt_bank = p99(lease) < p99(bank);
    let bank_p99_lt_nocache = p99(bank) < p99(nocache);

    let int = |n: usize| Json::Int(n as i128);
    let counter = |r: &LsStormResult, name: &str| {
        Json::Int(
            r.metrics
                .counter_sum(&format!("cmcache.*.meta.{name}"))
                .into(),
        )
    };
    let series = grid
        .points()
        .map(|((name, _), c, r)| {
            obj(vec![
                ("policy", Json::Str(name.clone())),
                ("clients", int(c)),
                ("stat_p50_us", fixed(q_us(r, 50), 2)),
                ("stat_p99_us", fixed(q_us(r, 99), 2)),
                ("walk_secs", fixed(r.max_node_secs, 4)),
                ("lease_hits", counter(r, "lease_hits")),
                ("negative_hits", counter(r, "negative_hits")),
                ("batched_paths", counter(r, "batched_paths")),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("bench", Json::Str("ablate_metadata".into())),
        ("files", int(files)),
        ("rounds", int(rounds)),
        ("window", int(WINDOW)),
        ("ghost_every", int(GHOST_EVERY)),
        ("mcds", int(MCDS)),
        ("series", Json::Arr(series)),
        (
            "claims",
            obj(vec![
                ("clients", int(max_c)),
                ("lease_p50_lt_bank", Json::Bool(lease_p50_lt_bank)),
                ("lease_p99_lt_bank", Json::Bool(lease_p99_lt_bank)),
                ("bank_p99_lt_nocache", Json::Bool(bank_p99_lt_nocache)),
            ]),
        ),
    ]);
    emit_bench(&opts, "BENCH_6", &doc);

    // The claims this ablation exists to check.
    assert!(
        lease_p50_lt_bank,
        "lease p50 {:.2}us did not beat bank p50 {:.2}us at {max_c} clients",
        p50(lease),
        p50(bank)
    );
    assert!(
        lease_p99_lt_bank,
        "lease p99 {:.2}us did not beat bank p99 {:.2}us at {max_c} clients",
        p99(lease),
        p99(bank)
    );
    assert!(
        bank_p99_lt_nocache,
        "bank p99 {:.2}us did not beat nocache p99 {:.2}us at {max_c} clients",
        p99(bank),
        p99(nocache)
    );
    println!(
        "claims hold at {max_c} clients: p50 lease {:.1}us < bank {:.1}us; \
         p99 lease {:.1}us < bank {:.1}us < nocache {:.1}us",
        p50(lease),
        p50(bank),
        p99(lease),
        p99(bank),
        p99(nocache)
    );
}

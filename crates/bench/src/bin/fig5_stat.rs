//! Fig 5: time for every node to stat the whole file set, vs node count.
//! Systems: NoCache, MCD (1/2/4/6), Lustre-4DS. Also reports the MCD-side
//! miss rates the paper quotes ("the miss rate with increasing MCDs beyond
//! 2 is zero").

use imca_bench::{emit, emit_metrics, Grid, Options};
use imca_core::ImcaConfig;
use imca_memcached::McConfig;
use imca_metrics::Snapshot;
use imca_workloads::report::Table;
use imca_workloads::statbench::{run, StatBench};
use imca_workloads::SystemSpec;

fn main() {
    let opts = Options::from_args(
        "fig5_stat",
        "stat completion time vs clients for NoCache / MCD(x) / Lustre (paper Fig 5)",
    );
    // Paper scale: 262,144 files, 64 clients, 6 GB per MCD. Scaled: 1/8 of
    // the files; MCD memory scaled so that one daemon cannot hold the whole
    // stat working set but two can — the capacity story of §5.2. (A stat
    // item occupies a ~120 B slab chunk; a 1 MB slab page holds ~8.7 k.)
    let (files, clients_sweep, mcd_mem): (usize, Vec<usize>, u64) = if opts.full {
        (262_144, vec![1, 2, 4, 8, 16, 32, 64], 6 << 30)
    } else {
        // 12,288 stat items need ~1.4 slab pages: a 1 MB daemon is under
        // capacity pressure alone, two daemons are not — same story as the
        // paper's 262k files against 6 GB daemons. The smoke sweep keeps
        // that file set (so MCD(1) still evicts) and drops to two client
        // counts.
        let clients = if opts.smoke {
            vec![1, 4]
        } else {
            vec![1, 2, 4, 8, 16, 32]
        };
        (12_288, clients, 1 << 20)
    };

    let mcd = |n: usize| {
        SystemSpec::Imca(ImcaConfig {
            mcd_count: n,
            mcd_config: McConfig::with_mem_limit(mcd_mem),
            ..ImcaConfig::default()
        })
    };
    let systems: Vec<SystemSpec> = vec![
        SystemSpec::GlusterNoCache,
        mcd(1),
        mcd(2),
        mcd(4),
        mcd(6),
        SystemSpec::Lustre {
            osts: 4,
            warm: false,
        },
    ];

    let series = systems.into_iter().map(|s| (s.label(), s)).collect();
    let grid = Grid::sweep(series, clients_sweep, |spec, clients| {
        run(&StatBench {
            files,
            clients,
            spec: spec.clone(),
            seed: opts.seed,
        })
    });
    let table = grid.table(
        format!("Fig 5: time to stat {files} files, max over nodes"),
        "clients",
        "seconds",
        |r| Some(r.max_node_secs),
    );
    emit(&opts, "fig5_stat", &table);

    // Secondary table: daemon-side miss rate per MCD count at the largest
    // client count (the §5.2 capacity-miss observation).
    let mut misses = Table::new(
        "Fig 5 (aux): MCD miss rate at max clients",
        "mcds",
        "miss rate",
        vec!["miss_rate".into(), "evictions".into()],
    );
    let last = grid.xs.len() - 1;
    for (si, (_, spec)) in grid.series.iter().enumerate() {
        if let SystemSpec::Imca(imca) = spec {
            let r = grid.at(si, last);
            misses.push_row(
                imca.mcd_count as f64,
                vec![r.mcd_miss_rate(), Some(r.mcd_evictions as f64)],
            );
        }
    }
    emit(&opts, "fig5_stat_missrate", &misses);

    // Observability: per-system snapshots at the largest client count,
    // merged under `<system>.<n>c.<tier>...`.
    let mut snap = Snapshot::new();
    grid.merge_metrics(&mut snap, last, &format!("{}c", grid.xs[last]), |r| {
        &r.metrics
    });
    emit_metrics(&opts, "fig5_stat", &snap);
}

//! Fig 9: IOzone read throughput with 1–8 threads, varying the number of
//! MCDs (1/2/4) with the static-modulo (round-robin) block distribution of
//! §5.5, against NoCache and Lustre-1DS cold.

use imca_bench::{emit, emit_metrics, Grid, Options};
use imca_core::ImcaConfig;
use imca_memcached::{McConfig, Selector};
use imca_metrics::Snapshot;
use imca_workloads::iozone::{run, IozoneBench};
use imca_workloads::SystemSpec;

fn main() {
    let opts = Options::from_args(
        "fig9_iozone",
        "multi-thread IOzone read throughput vs MCD count (paper Fig 9)",
    );
    // Paper: 1 GB per file, 2 KB records, 6 GB per MCD (8 threads spill a
    // single daemon). Scaled: 8 MB per file with 64 MB daemons keeps the
    // same capacity ratio — MCD(1) is under pressure at 8 threads, MCD(2)+
    // is not. Smoke keeps the ratio at 1 MB per file and 8 MB daemons.
    let (file_size, mcd_mem) = if opts.full {
        (1u64 << 30, 6u64 << 30)
    } else if opts.smoke {
        (1u64 << 20, 8u64 << 20)
    } else {
        (8u64 << 20, 64u64 << 20)
    };
    let threads_sweep = [1usize, 2, 4, 8];

    let mcd = |n: usize| {
        SystemSpec::Imca(ImcaConfig {
            mcd_count: n,
            // "We replace the standard CRC32 hash function used by libmemcache
            // with a static modulo function (round-robin) for distributing the
            // data across the cache servers."
            selector: Selector::Modulo,
            mcd_config: McConfig::with_mem_limit(mcd_mem),
            ..ImcaConfig::default()
        })
    };
    let systems: Vec<SystemSpec> = vec![
        SystemSpec::GlusterNoCache,
        mcd(1),
        mcd(2),
        mcd(4),
        SystemSpec::Lustre {
            osts: 1,
            warm: false,
        },
    ];

    let series = systems.into_iter().map(|s| (s.label(), s)).collect();
    let grid = Grid::sweep(series, threads_sweep.to_vec(), |spec, threads| {
        run(&IozoneBench {
            spec: spec.clone(),
            threads,
            file_size,
            record_size: 2048,
            pipeline: 8,
            seed: opts.seed,
        })
    });
    let table = grid.table(
        format!(
            "Fig 9: IOzone read throughput, {} MB files, 2K records",
            file_size >> 20
        ),
        "threads",
        "MB/s",
        |r| Some(r.read_mb_s),
    );
    emit(&opts, "fig9_iozone_throughput", &table);

    // Observability: per-system snapshots at the largest thread count.
    let mut snap = Snapshot::new();
    let last = grid.xs.len() - 1;
    grid.merge_metrics(&mut snap, last, &format!("{}t", grid.xs[last]), |r| {
        &r.metrics
    });
    emit_metrics(&opts, "fig9_iozone_throughput", &snap);
}

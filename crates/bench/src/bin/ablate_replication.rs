//! Replication ablation (DESIGN.md §4d): the Fig-10 shared-file read
//! sweep with the MCD bank replicated at R ∈ {1, 2, 4}, plus a
//! kill-one-daemon warm-failover scenario.
//!
//! The paper's bank places every key on exactly one daemon, so a file
//! every node reads turns that daemon into a hot spot — Fig 10's latency
//! grows with node count partly because readers queue on one event loop.
//! With `Replication { factor: R }` each block lives on R daemons and the
//! client spreads GETs across them (power-of-two-choices), so the shared
//! -read tail should drop; killing one replica should leave reads warm
//! instead of falling back to the GlusterFS server.
//!
//! Writes `ablate_replication.{json,txt}`, `ablate_replication_metrics
//! .json`, and the consolidated `BENCH_5.json` (per-R shared-read
//! p50/p99 and the failover counts) into the results directory.

use std::rc::Rc;

use imca_bench::{emit, emit_bench, emit_metrics, fixed, obj, parallel_sweep, Options};
use imca_core::{Cluster, ClusterConfig, ImcaConfig, Replication};
use imca_memcached::{McConfig, Selector};
use imca_metrics::json::Json;
use imca_metrics::{quantile, Snapshot};
use imca_sim::Sim;
use imca_workloads::latbench::{run, LatencyBench};
use imca_workloads::report::Table;
use imca_workloads::SystemSpec;

const MCDS: usize = 4;
const RECORD_SIZE: u64 = 2048;

fn spec(r: usize) -> SystemSpec {
    SystemSpec::Imca(ImcaConfig {
        mcd_count: MCDS,
        block_size: RECORD_SIZE,
        selector: Selector::Ketama,
        replication: Replication { factor: r },
        ..ImcaConfig::default()
    })
}

/// Kill-one-daemon scenario: 2 MCDs, R = 2, a warmed shared file. After
/// the kill, reads must keep hitting the surviving replica — failovers
/// tick, degraded misses do not. Returns `(replica_failovers,
/// degraded_misses_added)`.
fn failover_scenario(seed: u64) -> (u64, u64) {
    let mut sim = Sim::new(seed);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 2,
            block_size: RECORD_SIZE,
            selector: Selector::Ketama,
            mcd_config: McConfig::with_mem_limit(6 << 30),
            replication: Replication { factor: 2 },
            ..ImcaConfig::default()
        }),
    ));
    let c = Rc::clone(&cluster);
    let degraded_added = sim.run_main(async move {
        let m = c.mount();
        m.create("/ablate/shared").await.unwrap();
        let fd = m.open("/ablate/shared").await.unwrap();
        let blocks = 32u64;
        for k in 0..blocks {
            m.write(fd, k * RECORD_SIZE, &vec![k as u8; RECORD_SIZE as usize])
                .await
                .unwrap();
        }
        // Warm the bank, then lose a daemon.
        for k in 0..blocks {
            m.read(fd, k * RECORD_SIZE, RECORD_SIZE).await.unwrap();
        }
        let degraded = || c.metrics().counter_sum("cmcache.*.bank.degraded_misses");
        let before = degraded();
        c.kill_mcd(0);
        for k in 0..blocks {
            m.read(fd, k * RECORD_SIZE, RECORD_SIZE).await.unwrap();
        }
        degraded() - before
    });
    let failovers = cluster
        .metrics()
        .counter_sum("cmcache.*.bank.replica_failovers");
    (failovers, degraded_added)
}

fn main() {
    let opts = Options::from_args(
        "ablate_replication",
        "bank replication ablation on shared-file read latency (Fig 10 workload)",
    );
    let factors: Vec<usize> = vec![1, 2, 4];
    let (clients, records) = if opts.full {
        (32usize, 256usize)
    } else if opts.smoke {
        (32, 48)
    } else {
        (32, 96)
    };

    let results = parallel_sweep(&factors, |&r| {
        run(&LatencyBench {
            spec: spec(r),
            clients,
            record_sizes: vec![RECORD_SIZE],
            records,
            warmup: true,
            shared_file: true,
            seed: opts.seed,
        })
    });
    let (failovers, degraded_added) = failover_scenario(opts.seed);

    let series: Vec<(usize, Vec<u64>, f64)> = factors
        .iter()
        .zip(&results)
        .map(|(&r, res)| {
            let mut ns = res.read_op_ns[&RECORD_SIZE].clone();
            assert_eq!(ns.len(), clients * records, "missing timed reads at R={r}");
            ns.sort_unstable();
            let mean = res.read_at(RECORD_SIZE).unwrap();
            (r, ns, mean)
        })
        .collect();
    // A percentile of the timed reads (merged across clients), in µs.
    let p_us = |ns: &[u64], percent| {
        quantile(ns, percent).expect("the bench timed no reads") as f64 / 1_000.0
    };

    let mut table = Table::new(
        format!("Replication ablation: shared-file reads, {clients} clients, {MCDS} MCDs"),
        "percentile",
        "microseconds",
        factors.iter().map(|r| format!("R={r}")).collect(),
    );
    for percent in [50, 90, 99] {
        let row: Vec<Option<f64>> = series
            .iter()
            .map(|(_, ns, _)| Some(p_us(ns, percent)))
            .collect();
        table.push_row(percent as f64, row);
    }
    emit(&opts, "ablate_replication", &table);

    let mut snap = Snapshot::new();
    for (&r, res) in factors.iter().zip(&results) {
        snap.merge_prefixed(&format!("r{r}"), &res.metrics);
    }
    emit_metrics(&opts, "ablate_replication", &snap);

    // Consolidated BENCH_5.json for scripts/tier1.sh --strict.
    let int = |n: u64| Json::Int(n.into());
    let doc = obj(vec![
        ("bench", Json::Str("ablate_replication".into())),
        ("clients", int(clients as u64)),
        ("records", int(records as u64)),
        ("mcds", int(MCDS as u64)),
        (
            "series",
            Json::Arr(
                series
                    .iter()
                    .map(|(r, ns, mean)| {
                        obj(vec![
                            ("replication", int(*r as u64)),
                            ("read_p50_us", fixed(p_us(ns, 50), 2)),
                            ("read_p99_us", fixed(p_us(ns, 99), 2)),
                            ("mean_read_us", fixed(*mean, 2)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failover",
            obj(vec![
                ("replica_failovers", int(failovers)),
                ("degraded_misses_added", int(degraded_added)),
            ]),
        ),
    ]);
    emit_bench(&opts, "BENCH_5", &doc);

    // The claims this ablation exists to check.
    let p99 = |r: usize| {
        series
            .iter()
            .find(|(f, _, _)| *f == r)
            .map(|(_, ns, _)| p_us(ns, 99))
            .unwrap()
    };
    assert!(
        p99(2) < p99(1),
        "R=2 did not reduce shared-read p99: R=1 {}us vs R=2 {}us",
        p99(1),
        p99(2)
    );
    assert!(failovers > 0, "kill-one-MCD produced no warm failovers");
    assert_eq!(
        degraded_added, 0,
        "warm failover must not add degraded misses"
    );
    println!(
        "claims hold: p99 R=1 {:.1}us > R=2 {:.1}us; {failovers} warm failovers, 0 degraded",
        p99(1),
        p99(2)
    );
}

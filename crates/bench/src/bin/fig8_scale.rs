//! # fig8_scale — Fig 8 at bank scale, on the real stack
//!
//! Sweeps clients × MCD bank size through the closed-loop reader drive
//! (`imca_workloads::overload::run`: the full `Cluster`, CMCache →
//! `BankClient` → daemon queues) with every service constant at the
//! stack's calibrated default and no overload protection, and locates
//! each series' saturation knee from what the stack reports: the p99
//! inflection and the hottest daemon's `bank.mcd.{i}.queue_peak` gauge.
//!
//! Emits `results/fig8_scale.{json,txt}` plus the consolidated
//! `results/BENCH_8.json`, and asserts its own `knee_found` claim, so
//! `scripts/tier1.sh --strict`'s smoke run fails on a false one.

use imca_bench::{emit, emit_bench, fixed, obj, parallel_sweep, Options};
use imca_core::McdCosts;
use imca_glusterfs::ServerParams;
use imca_metrics::json::Json;
use imca_metrics::quantile;
use imca_sim::SimDuration;
use imca_workloads::overload::{run, OverloadBench};
use imca_workloads::report::Table;

/// Timed reads per client.
const OPS_PER_CLIENT: u64 = 10;

/// What one grid point reports.
struct Point {
    clients: usize,
    p50_us: f64,
    p99_us: f64,
    hottest_queue_peak: i64,
    goodput: f64,
}

/// One (mcds, replication) line over ascending client counts.
struct Series {
    mcds: usize,
    replication: usize,
    points: Vec<Point>,
}

impl Series {
    fn label(&self) -> String {
        format!("{} MCDs/R{}", self.mcds, self.replication)
    }
}

/// One point of the sweep: 16 prewarmed hot files × 256 8 KB blocks read
/// uniformly, 1 ms mean think time, the daemons' and the server's
/// calibrated service times, unbounded queues and no rewarm throttle.
fn measure(clients: usize, mcds: usize, replication: usize, seed: u64) -> Point {
    let out = run(&OverloadBench {
        mcds,
        replication,
        ops_per_client: OPS_PER_CLIENT,
        hot_files: 16,
        blocks_per_file: 256,
        block_size: 8192,
        think_mean: SimDuration::millis(1),
        mcd_per_op: McdCosts::default().per_op,
        server_fop_cpu: ServerParams::default().fop_cpu,
        queue_limit: None,
        rewarm: None,
        seed,
        ..OverloadBench::new(clients)
    });
    let us =
        |percent| quantile(&out.read_ns, percent).expect("the drive timed no reads") as f64 / 1e3;
    Point {
        clients,
        p50_us: us(50),
        p99_us: us(99),
        hottest_queue_peak: (0..mcds)
            .filter_map(|i| out.metrics.gauge(&format!("bank.mcd.{i}.queue_peak")))
            .max()
            .unwrap_or(0),
        goodput: out.goodput(),
    }
}

/// The first point past the knee and why: p99 inflecting ≥ 3× across one
/// step, or the hottest daemon's queue peak growing more than twice as
/// fast as the client count (and past 64 entries).
fn find_knee(points: &[Point]) -> Option<(usize, String)> {
    points.windows(2).find_map(|w| {
        let (a, b) = (&w[0], &w[1]);
        let growth = b.clients as f64 / a.clients as f64;
        let reason = if b.p99_us >= 3.0 * a.p99_us {
            format!(
                "p99 inflects: {:.1} us at {} clients -> {:.1} us at {} \
                 (hottest queue peak {} -> {})",
                a.p99_us,
                a.clients,
                b.p99_us,
                b.clients,
                a.hottest_queue_peak,
                b.hottest_queue_peak
            )
        } else if b.hottest_queue_peak as f64 > 2.0 * growth * a.hottest_queue_peak.max(1) as f64
            && b.hottest_queue_peak > 64
        {
            format!(
                "hottest-daemon queue grows superlinearly: peak {} -> {} for {growth:.1}x clients",
                a.hottest_queue_peak, b.hottest_queue_peak
            )
        } else {
            return None;
        };
        Some((b.clients, reason))
    })
}

fn main() {
    let opts = Options::from_args(
        "fig8_scale",
        "bank-scale client sweep on the real stack with annotated saturation knees",
    );

    // (mcds, replication, client grid) per series.
    let specs: Vec<(usize, usize, Vec<usize>)> = if opts.smoke {
        vec![(8, 1, vec![300, 1_000, 3_000]), (8, 2, vec![300, 1_000])]
    } else {
        let r1 = [300, 1_000, 3_000, 10_000];
        let (mut r1_8, mut r1_64) = (r1.to_vec(), r1.to_vec());
        if opts.full {
            r1_8.extend([30_000, 100_000]);
            r1_64.push(30_000);
        }
        vec![
            (8, 1, r1_8),
            (64, 1, r1_64),
            (8, 2, vec![300, 1_000, 3_000]),
        ]
    };

    // The series sweep different client grids, so the runs are one flat
    // list, taken back series by series.
    let points: Vec<(usize, usize, usize)> = specs
        .iter()
        .flat_map(|(m, r, cs)| cs.iter().map(move |&c| (c, *m, *r)))
        .collect();
    let mut results = parallel_sweep(&points, |&(c, m, r)| measure(c, m, r, opts.seed)).into_iter();
    let series: Vec<Series> = specs
        .iter()
        .map(|(m, r, cs)| Series {
            mcds: *m,
            replication: *r,
            points: results.by_ref().take(cs.len()).collect(),
        })
        .collect();

    let mut table = Table::new(
        format!(
            "Fig 8 at bank scale: closed-loop readers vs MCD bank, real stack \
             (p99, {OPS_PER_CLIENT} reads/client)"
        ),
        "clients",
        "p99 microseconds",
        series.iter().map(Series::label).collect(),
    );
    let mut rows: Vec<usize> = specs.iter().flat_map(|(_, _, cs)| cs.clone()).collect();
    rows.sort_unstable();
    rows.dedup();
    for &c in &rows {
        let row = series
            .iter()
            .map(|s| s.points.iter().find(|p| p.clients == c).map(|p| p.p99_us))
            .collect();
        table.push_row(c as f64, row);
    }
    emit(&opts, "fig8_scale", &table);

    for s in &series {
        for p in &s.points {
            println!(
                "  {:>10} {:>6} clients: p50 {:>9.1} us p99 {:>9.1} us | hottest queue peak {:>4} \
                 | {:>9.0} ops/s",
                s.label(),
                p.clients,
                p.p50_us,
                p.p99_us,
                p.hottest_queue_peak,
                p.goodput
            );
        }
    }
    let knees: Vec<Option<(usize, String)>> = series.iter().map(|s| find_knee(&s.points)).collect();
    for (s, knee) in series.iter().zip(&knees) {
        match knee {
            Some((c, reason)) => println!("knee [{}] at {c} clients: {reason}", s.label()),
            None => println!("knee [{}]: none within the swept range", s.label()),
        }
    }
    let knee_found = knees.iter().any(Option::is_some);

    // ---- consolidated BENCH_8.json ----
    let mode = if opts.smoke {
        "smoke"
    } else if opts.full {
        "full"
    } else {
        "default"
    };
    let int = |n: usize| Json::Int(n as i128);
    let doc = obj(vec![
        ("bench", Json::Str("fig8_scale".into())),
        ("mode", Json::Str(mode.into())),
        (
            "series",
            Json::Arr(
                series
                    .iter()
                    .flat_map(|s| s.points.iter().map(move |p| (s, p)))
                    .map(|(s, p)| {
                        obj(vec![
                            ("clients", int(p.clients)),
                            ("mcds", int(s.mcds)),
                            ("replication", int(s.replication)),
                            ("p50_us", fixed(p.p50_us, 2)),
                            ("p99_us", fixed(p.p99_us, 2)),
                            ("hottest_queue_peak", Json::Int(p.hottest_queue_peak.into())),
                            ("goodput_ops_s", fixed(p.goodput, 1)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "knees",
            Json::Arr(
                series
                    .iter()
                    .zip(&knees)
                    .map(|(s, knee)| {
                        obj(vec![
                            ("mcds", int(s.mcds)),
                            ("replication", int(s.replication)),
                            ("clients", knee.as_ref().map_or(Json::Null, |k| int(k.0))),
                            (
                                "reason",
                                Json::Str(
                                    knee.as_ref()
                                        .map_or("no knee in swept range", |k| &k.1)
                                        .into(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("knee_found", Json::Bool(knee_found)),
    ]);
    emit_bench(&opts, "BENCH_8", &doc);

    assert!(knee_found, "no saturation knee found in any swept series");
    println!("claim holds: knee(s) annotated");
}

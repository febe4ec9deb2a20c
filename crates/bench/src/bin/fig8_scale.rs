//! # fig8_scale — bank-scale Fig 8 sweep
//!
//! A clients × MCDs grid over `imca_workloads::scale`, locating the
//! saturation knee per series: p99 inflection, superlinear
//! hottest-daemon queue growth, server-NIC utilisation, and (at R>1) the
//! SMCache push fan-out tax.
//!
//! Emits `results/fig8_scale.{json,txt}` plus the consolidated
//! `results/BENCH_8.json` that `scripts/tier1.sh --strict` checks for
//! the `knee_found` claim. How fast the simulator runs is the
//! benchmark's `host_ops_per_s` (`bench/`), not this binary's business.

use imca_bench::{emit, parallel_sweep, Options};
use imca_workloads::report::Table;
use imca_workloads::scale::{run_scale, ScaleConfig, ScaleOut};

/// A series is one (mcds, replication) line over ascending client
/// counts; the knee is the first point where a congestion signal trips.
struct Series {
    mcds: usize,
    replication: usize,
    clients: Vec<usize>,
    outs: Vec<ScaleOut>,
}

struct Knee {
    clients: usize,
    reason: String,
}

fn p99_us(out: &ScaleOut) -> f64 {
    out.latency.quantile(0.99) as f64 / 1_000.0
}

fn p50_us(out: &ScaleOut) -> f64 {
    out.latency.quantile(0.50) as f64 / 1_000.0
}

/// Walk consecutive points and report the first one past the knee.
/// Signals, in priority order: server-NIC utilisation ≥ 0.9, p99
/// inflecting ≥3× across one step, hottest-daemon queue depth growing
/// more than 2× faster than the client count. At R>1 the annotation
/// also carries the push fan-out, since replica pushes ride the same
/// daemon queues that trip the signal.
fn find_knee(s: &Series) -> Option<Knee> {
    for w in 0..s.clients.len().saturating_sub(1) {
        let (c0, c1) = (s.clients[w], s.clients[w + 1]);
        let (a, b) = (&s.outs[w], &s.outs[w + 1]);
        let growth = c1 as f64 / c0 as f64;
        let reason = if b.server_utilisation() >= 0.9 {
            Some(format!(
                "server NIC saturates: utilisation {:.2} at {c1} clients (was {:.2} at {c0})",
                b.server_utilisation(),
                a.server_utilisation()
            ))
        } else if p99_us(b) >= 3.0 * p99_us(a) {
            Some(format!(
                "p99 inflects: {:.1} us at {c0} clients -> {:.1} us at {c1}",
                p99_us(a),
                p99_us(b)
            ))
        } else if b.hottest_queue_peak() as f64
            > 2.0 * growth * a.hottest_queue_peak().max(1) as f64
            && b.hottest_queue_peak() > 64
        {
            Some(format!(
                "hottest-daemon queue grows superlinearly: peak {} -> {} for {:.0}x clients",
                a.hottest_queue_peak(),
                b.hottest_queue_peak(),
                growth
            ))
        } else {
            None
        };
        if let Some(mut reason) = reason {
            if s.replication > 1 {
                reason.push_str(&format!(
                    "; R={} push fan-out adds {:.2} replica pushes per fill to the same queues",
                    s.replication,
                    b.push_amplification()
                ));
            }
            return Some(Knee {
                clients: c1,
                reason,
            });
        }
    }
    None
}

fn main() {
    let opts = Options::from_args(
        "fig8_scale",
        "bank-scale client sweep with annotated saturation knees",
    );

    let (client_grid, mcd_grid, r2_clients): (Vec<usize>, Vec<usize>, Vec<usize>) = if opts.smoke {
        (vec![1_000, 3_000, 10_000], vec![8], vec![1_000, 3_000])
    } else if opts.full {
        (
            vec![1_000, 3_000, 10_000, 30_000, 100_000],
            vec![8, 64],
            vec![1_000, 3_000, 10_000, 30_000],
        )
    } else {
        (
            vec![1_000, 3_000, 10_000, 30_000],
            vec![8, 64],
            vec![1_000, 3_000, 10_000],
        )
    };
    let mut specs: Vec<(usize, usize, Vec<usize>)> = mcd_grid
        .iter()
        .map(|&m| (m, 1, client_grid.clone()))
        .collect();
    specs.push((8, 2, r2_clients));

    let points: Vec<(usize, usize, usize)> = specs
        .iter()
        .flat_map(|(m, r, cs)| cs.iter().map(move |&c| (c, *m, *r)))
        .collect();
    let jobs: Vec<Box<dyn FnOnce() -> ScaleOut + Send>> = points
        .iter()
        .map(|&(c, m, r)| {
            let seed = opts.seed;
            Box::new(move || {
                let mut cfg = ScaleConfig::new(c, m);
                cfg.replication = r;
                cfg.seed = seed;
                run_scale(&cfg)
            }) as Box<dyn FnOnce() -> ScaleOut + Send>
        })
        .collect();
    let mut results: Vec<Option<ScaleOut>> = parallel_sweep(jobs).into_iter().map(Some).collect();

    let mut series: Vec<Series> = Vec::new();
    for (m, r, cs) in &specs {
        let outs = cs
            .iter()
            .map(|&c| {
                let i = points.iter().position(|&p| p == (c, *m, *r)).unwrap();
                results[i].take().unwrap()
            })
            .collect();
        series.push(Series {
            mcds: *m,
            replication: *r,
            clients: cs.clone(),
            outs,
        });
    }

    let mut table = Table::new(
        format!(
            "Fig 8 at bank scale: closed-loop clients vs MCD bank (p99, {} ops/client)",
            ScaleConfig::new(1, 1).ops_per_client
        ),
        "clients",
        "p99 microseconds",
        series
            .iter()
            .map(|s| format!("{} MCDs/R{}", s.mcds, s.replication))
            .collect(),
    );
    for &c in &client_grid {
        let row: Vec<Option<f64>> = series
            .iter()
            .map(|s| {
                s.clients
                    .iter()
                    .position(|&x| x == c)
                    .map(|i| p99_us(&s.outs[i]))
            })
            .collect();
        table.push_row(c as f64, row);
    }
    emit(&opts, "fig8_scale", &table);

    let knees: Vec<(usize, usize, Option<Knee>)> = series
        .iter()
        .map(|s| (s.mcds, s.replication, find_knee(s)))
        .collect();
    for (m, r, knee) in &knees {
        match knee {
            Some(k) => println!(
                "knee [{m} MCDs/R{r}] at {} clients: {}",
                k.clients, k.reason
            ),
            None => println!("knee [{m} MCDs/R{r}]: none within the swept range"),
        }
    }
    let knee_found = knees.iter().any(|(_, _, k)| k.is_some());

    // ---- consolidated BENCH_8.json for scripts/tier1.sh --strict ----
    let mode = if opts.smoke {
        "smoke"
    } else if opts.full {
        "full"
    } else {
        "default"
    };
    let mut doc = String::from("{\n  \"bench\": \"fig8_scale\",\n");
    doc.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    doc.push_str("  \"series\": [\n");
    let total: usize = series.iter().map(|s| s.clients.len()).sum();
    let mut i = 0;
    for s in &series {
        for (c, out) in s.clients.iter().zip(&s.outs) {
            i += 1;
            doc.push_str(&format!(
                "    {{\"clients\": {c}, \"mcds\": {}, \"replication\": {}, \
                 \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"hottest_queue_peak\": {}, \
                 \"server_utilisation\": {:.4}, \"push_amplification\": {:.3}, \
                 \"sim_ops_per_sec\": {:.0}}}{}\n",
                s.mcds,
                s.replication,
                p50_us(out),
                p99_us(out),
                out.hottest_queue_peak(),
                out.server_utilisation(),
                out.push_amplification(),
                out.sim_ops_per_sec(),
                if i < total { "," } else { "" }
            ));
        }
    }
    doc.push_str("  ],\n  \"knees\": [\n");
    for (j, (m, r, knee)) in knees.iter().enumerate() {
        let comma = if j + 1 < knees.len() { "," } else { "" };
        match knee {
            Some(k) => doc.push_str(&format!(
                "    {{\"mcds\": {m}, \"replication\": {r}, \"clients\": {}, \"reason\": \"{}\"}}{comma}\n",
                k.clients, k.reason
            )),
            None => doc.push_str(&format!(
                "    {{\"mcds\": {m}, \"replication\": {r}, \"clients\": null, \"reason\": \"no knee in swept range\"}}{comma}\n"
            )),
        }
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!("  \"knee_found\": {knee_found}\n}}\n"));
    let _ = std::fs::create_dir_all(&opts.out_dir);
    let path = opts.out_dir.join("BENCH_8.json");
    std::fs::write(&path, &doc).expect("cannot write BENCH_8.json");
    println!("(consolidated summary written to {})", path.display());

    assert!(knee_found, "no saturation knee found in any swept series");
    println!("claim holds: knee(s) annotated");
}

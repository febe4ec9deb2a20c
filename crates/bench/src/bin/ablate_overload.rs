//! # ablate_overload — the overload-protection ablation (DESIGN.md §8)
//!
//! Drives the calibrated `imca_workloads::overload` geometry — a
//! 2-daemon bank (≈400 ops/s) in front of a single-threaded GlusterFS
//! server (≈125 ops/s) — over an ascending client grid that crosses the
//! closed-loop saturation knee and keeps going to 2–4× past it, twice:
//! once with the whole protection layer ON (bounded daemon queues,
//! adaptive deadlines, retry budget, hedged reads, degradation ladder,
//! rewarm throttle) and once OFF (the legacy stack: unbounded queues,
//! one static 50 ms deadline, free retries).
//!
//! The claims asserted in-binary and recorded in `results/BENCH_9.json`
//! (checked by `scripts/tier1.sh --strict`):
//!
//! * **plateau** — with protection ON, goodput at every point ≥2× the
//!   knee stays within 10% of the pre-knee peak (sheds become fast
//!   backend forwards instead of deadline burn);
//! * **collapse** — with protection OFF, the same drive at the deepest
//!   point loses the majority of that peak (timeout melt + retry
//!   amplification + the synchronous fill storm);
//! * **bounded shed path** — the protected drive's shed-path p99 stays
//!   under the closed-loop backend backlog bound (clients × fop cpu,
//!   plus 50% headroom) and under the unprotected p99.

use imca_bench::{emit, emit_metrics, parallel_sweep, Options};
use imca_metrics::Snapshot;
use imca_workloads::overload::{run, OverloadBench, OverloadOut};
use imca_workloads::report::Table;

fn p50_ms(out: &OverloadOut) -> f64 {
    out.latency.quantile(0.50) as f64 / 1e6
}

/// Knee of a goodput-vs-clients series: the first point whose goodput
/// gain falls below 30% of the client gain (pre-knee, goodput tracks
/// offered load almost linearly; past it, capacity is the ceiling).
fn find_knee(clients: &[usize], goodput: &[f64]) -> usize {
    for w in 0..clients.len().saturating_sub(1) {
        let client_gain = clients[w + 1] as f64 / clients[w] as f64;
        let goodput_gain = goodput[w + 1] / goodput[w].max(1.0);
        if goodput_gain < 1.0 + 0.3 * (client_gain - 1.0) {
            return clients[w + 1];
        }
    }
    *clients.last().unwrap()
}

fn main() {
    let opts = Options::from_args(
        "ablate_overload",
        "overload-protection ablation: admission control + adaptive deadlines + hedging + \
         degradation ladder, ON vs OFF across the saturation knee",
    );

    let (grid, ops): (Vec<usize>, u64) = if opts.smoke {
        (vec![2, 4, 12, 32], 16)
    } else if opts.full {
        (vec![2, 4, 6, 8, 12, 16, 24, 32, 48], 80)
    } else {
        (vec![2, 4, 6, 12, 24, 32], 40)
    };

    // One job per (clients, protection) point; each is its own sim.
    let points: Vec<(usize, bool)> = grid.iter().flat_map(|&c| [(c, true), (c, false)]).collect();
    let jobs: Vec<Box<dyn FnOnce() -> OverloadOut + Send>> = points
        .iter()
        .map(|&(clients, protection)| {
            let seed = opts.seed;
            Box::new(move || {
                run(&OverloadBench {
                    ops_per_client: ops,
                    seed,
                    ..OverloadBench::new(clients, protection)
                })
            }) as Box<dyn FnOnce() -> OverloadOut + Send>
        })
        .collect();
    let results = parallel_sweep(jobs);
    let at = |clients: usize, protection: bool| -> &OverloadOut {
        let i = points
            .iter()
            .position(|&p| p == (clients, protection))
            .unwrap();
        &results[i]
    };

    let on: Vec<&OverloadOut> = grid.iter().map(|&c| at(c, true)).collect();
    let off: Vec<&OverloadOut> = grid.iter().map(|&c| at(c, false)).collect();

    let mut table = Table::new(
        format!("Overload drive: goodput vs clients ({ops} reads/client, 2 MCDs, R=2)"),
        "clients",
        "goodput ops/s",
        vec!["protection on".into(), "protection off".into()],
    );
    for (i, &c) in grid.iter().enumerate() {
        table.push_row(
            c as f64,
            vec![Some(on[i].goodput()), Some(off[i].goodput())],
        );
    }
    emit(&opts, "ablate_overload", &table);

    for (label, series) in [("on", &on), ("off", &off)] {
        for (i, &c) in grid.iter().enumerate() {
            let o = series[i];
            println!(
                "  {label:>3} {c:>3} clients: {:>6.0} ops/s, p50 {:>7.2}ms p99 {:>8.2}ms \
                 shed-p99 {:>8.2}ms | sheds {} busy {} hedged {}/{} circuits {} dry-budget {} \
                 degraded {} readmits {} rewarm-suppressed {}",
                o.goodput(),
                p50_ms(o),
                o.p99_ms(),
                o.shed_p99_ms(),
                o.sheds,
                o.busy_sheds,
                o.hedged_gets,
                o.hedge_wins,
                o.circuit_opens,
                o.budget_exhausted,
                o.degraded_reads,
                o.readmissions,
                o.rewarm_suppressed,
            );
        }
    }

    // ---- the claims ----
    let off_goodput: Vec<f64> = off.iter().map(|o| o.goodput()).collect();
    let knee = find_knee(&grid, &off_goodput);
    let claim_clients = *grid.last().unwrap();
    assert!(
        claim_clients >= 2 * knee,
        "grid too shallow: knee at {knee} clients, deepest point only {claim_clients}"
    );
    let peak_preknee = grid
        .iter()
        .zip(&on)
        .filter(|(&c, _)| c <= knee)
        .map(|(_, o)| o.goodput())
        .fold(0.0f64, f64::max);
    let overload_points: Vec<usize> = grid.iter().copied().filter(|&c| c >= 2 * knee).collect();

    let plateau = overload_points
        .iter()
        .all(|&c| at(c, true).goodput() >= 0.9 * peak_preknee);
    let claim_on = at(claim_clients, true);
    let claim_off = at(claim_clients, false);
    let collapse = claim_off.goodput() < 0.67 * peak_preknee;
    // The shed path is a closed loop over the single-threaded backend
    // (8 ms/fop), so its p99 can never beat the backlog the claim-point
    // population itself forms: clients × fop_cpu, with 50% headroom.
    // What protection buys is that this inherent queueing bound holds —
    // and stays under the unprotected p99 (deadline burn × retries ×
    // fill storm), which grows without bound in the drive depth.
    let deadline_ms = 50.0f64;
    let p99_bound_ms = (4.0 * deadline_ms).max(1.5 * claim_clients as f64 * 8.0);
    let p99_bounded =
        claim_on.shed_p99_ms() <= p99_bound_ms && claim_on.p99_ms() < claim_off.p99_ms();
    let protection_engaged = claim_on.sheds > 0 && claim_on.degraded_reads > 0;
    let goodput_plateaus = plateau && collapse && p99_bounded && protection_engaged;

    println!(
        "knee (protection off) at {knee} clients; pre-knee peak {peak_preknee:.0} ops/s; \
         overload points {overload_points:?}"
    );
    println!(
        "claims at {claim_clients} clients: plateau={plateau} (on {:.0} ops/s) \
         collapse={collapse} (off {:.0} ops/s) p99_bounded={p99_bounded} \
         (shed-p99 {:.1}ms vs off p99 {:.1}ms) engaged={protection_engaged}",
        claim_on.goodput(),
        claim_off.goodput(),
        claim_on.shed_p99_ms(),
        claim_off.p99_ms(),
    );

    // ---- consolidated BENCH_9.json for scripts/tier1.sh --strict ----
    let mode = if opts.smoke {
        "smoke"
    } else if opts.full {
        "full"
    } else {
        "default"
    };
    let mut doc = String::from("{\n  \"bench\": \"ablate_overload\",\n");
    doc.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    doc.push_str(&format!(
        "  \"geometry\": {{\"mcds\": 2, \"replication\": 2, \"ops_per_client\": {ops}, \
         \"mcd_per_op_ms\": 5, \"server_fop_cpu_ms\": 8, \"static_deadline_ms\": 50}},\n"
    ));
    doc.push_str("  \"series\": [\n");
    let total = points.len();
    for (i, (&(clients, protection), o)) in points.iter().zip(&results).enumerate() {
        doc.push_str(&format!(
            "    {{\"clients\": {clients}, \"protection\": {protection}, \
             \"goodput_ops_per_sec\": {:.1}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \
             \"shed_p99_ms\": {:.2}, \"sheds\": {}, \"busy_sheds\": {}, \"hedged_gets\": {}, \
             \"hedge_wins\": {}, \"circuit_opens\": {}, \"retry_budget_exhausted\": {}, \
             \"degraded_reads\": {}, \"readmissions\": {}, \"rewarm_suppressed\": {}, \
             \"read_hits\": {}, \"read_misses\": {}}}{}\n",
            o.goodput(),
            p50_ms(o),
            o.p99_ms(),
            o.shed_p99_ms(),
            o.sheds,
            o.busy_sheds,
            o.hedged_gets,
            o.hedge_wins,
            o.circuit_opens,
            o.budget_exhausted,
            o.degraded_reads,
            o.readmissions,
            o.rewarm_suppressed,
            o.read_hits,
            o.read_misses,
            if i + 1 < total { "," } else { "" }
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!(
        "  \"knee_clients\": {knee},\n  \"pre_knee_peak_ops_per_sec\": {peak_preknee:.1},\n  \
         \"claim_clients\": {claim_clients},\n"
    ));
    doc.push_str(&format!(
        "  \"claims\": {{\"plateau_within_10pct\": {plateau}, \"unprotected_collapse\": \
         {collapse}, \"shed_p99_bounded\": {p99_bounded}, \"protection_engaged\": \
         {protection_engaged}}},\n"
    ));
    doc.push_str(&format!("  \"goodput_plateaus\": {goodput_plateaus}\n}}\n"));
    let _ = std::fs::create_dir_all(&opts.out_dir);
    let path = opts.out_dir.join("BENCH_9.json");
    std::fs::write(&path, &doc).expect("cannot write BENCH_9.json");
    println!("(consolidated summary written to {})", path.display());

    // Per-point metrics document (deepest point only keeps it readable).
    let mut merged = Snapshot::new();
    merged.merge_prefixed("overload_on", &claim_on.metrics);
    merged.merge_prefixed("overload_off", &claim_off.metrics);
    emit_metrics(&opts, "ablate_overload", &merged);

    assert!(
        plateau,
        "protected goodput fell below 90% of the pre-knee peak ({peak_preknee:.0} ops/s)"
    );
    assert!(
        collapse,
        "unprotected drive failed to collapse: {:.0} ops/s at {claim_clients} clients \
         vs peak {peak_preknee:.0}",
        claim_off.goodput()
    );
    assert!(
        p99_bounded,
        "shed-path p99 unbounded: {:.1}ms (off p99 {:.1}ms)",
        claim_on.shed_p99_ms(),
        claim_off.p99_ms()
    );
    assert!(
        protection_engaged,
        "drive never engaged the protection layer: {} sheds, {} degraded reads",
        claim_on.sheds, claim_on.degraded_reads
    );
    println!(
        "claims hold: goodput plateaus at {:.0} ops/s ({}x the knee) while the unprotected \
         stack collapses to {:.0} ops/s",
        claim_on.goodput(),
        claim_clients / knee,
        claim_off.goodput()
    );
}

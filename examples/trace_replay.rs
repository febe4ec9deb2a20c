//! Replay a synthetic data-center trace (Zipf popularity, log-normal file
//! sizes, stat-heavy mix — the workload shape §3 of the paper motivates)
//! against native GlusterFS and GlusterFS+IMCa, and compare latency
//! distributions.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use imca_repro::metrics::quantile;
use imca_repro::sim::SimDuration;
use imca_repro::workloads::synth::{replay, TraceConfig};
use imca_repro::workloads::SystemSpec;

fn mean(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len() as f64
}

fn print_result(label: &str, r: &imca_repro::workloads::synth::ReplayResult) {
    println!("{label}");
    for (name, ns) in [("stat", &r.stat), ("read", &r.read), ("write", &r.write)] {
        let (Some(p50), Some(p99)) = (quantile(ns, 50), quantile(ns, 99)) else {
            continue;
        };
        println!(
            "  {name:<5} n={:<6} mean={:<10} p50={:<10} p99={}",
            ns.len(),
            format!("{}", SimDuration::nanos(mean(ns) as u64)),
            format!("{}", SimDuration::nanos(p50)),
            SimDuration::nanos(p99)
        );
    }
    println!("  wall  {:.3}s of virtual time", r.wall_secs);
}

fn compare(title: &str, cfg: &TraceConfig, clients: usize) {
    println!(
        "== {title}: {} files, {clients} clients x {} ops, {:.0}% stat / {:.0}% read / {:.0}% write",
        cfg.files,
        cfg.ops_per_client,
        cfg.stat_fraction * 100.0,
        (1.0 - cfg.stat_fraction - cfg.write_fraction) * 100.0,
        cfg.write_fraction * 100.0
    );
    let nocache = replay(&SystemSpec::GlusterNoCache, cfg, clients);
    print_result("GlusterFS (NoCache):", &nocache);
    let imca = replay(&SystemSpec::imca(2), cfg, clients);
    print_result("GlusterFS + IMCa (2 MCDs):", &imca);
    let stat_gain = 1.0 - mean(&imca.stat) / mean(&nocache.stat);
    let read_gain = 1.0 - mean(&imca.read) / mean(&nocache.read);
    println!(
        "-> IMCa mean-latency change: stat {:+.0}%, read {:+.0}%, wall {:.2}x\n",
        -stat_gain * 100.0,
        -read_gain * 100.0,
        nocache.wall_secs / imca.wall_secs
    );
}

fn main() {
    let clients = 10;
    // A hot-set trace: a small working set re-read by everyone — the
    // regime the paper's caching tier targets.
    compare(
        "hot-set trace",
        &TraceConfig {
            files: 60,
            zipf_alpha: 1.1,
            ops_per_client: 1200,
            stat_fraction: 0.35, // mtime-polling heavy, like §4.2's consumers
            write_fraction: 0.02,
            seed: 7,
        },
        clients,
    );
    // A churny trace: wide working set, constant first-opens. Every open
    // purges the bank (§4.3.2) and cold misses are more expensive than
    // NoCache (§4.4) — IMCa's documented worst case.
    compare(
        "churny trace",
        &TraceConfig {
            files: 300,
            zipf_alpha: 0.6,
            ops_per_client: 300,
            stat_fraction: 0.2,
            write_fraction: 0.1,
            seed: 7,
        },
        clients,
    );
    println!("The paper's results live in the first regime; the second shows");
    println!("the §4.4 trade-offs (purge-on-open, expensive cold misses).");
}

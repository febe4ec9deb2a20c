//! The "ls -l storm": N clients repeatedly walk a directory and stat
//! every entry, with a sprinkling of probes for names that don't exist.
//!
//! This is the interactive access pattern the paper's §2 motivation
//! describes — metadata-dominated, heavily repeated, and read-mostly —
//! and the workload the metadata-tier ablation (`ablate_metadata`)
//! sweeps. Three knobs matter to that sweep:
//!
//! * **rounds** — each client walks the listing `rounds` times, so with
//!   `rounds = r` a fraction `(r-1)/r` of the stats repeat recently-seen
//!   paths. Stat leases turn exactly those into local answers; the bank
//!   policy pays a bank RPC for each.
//! * **window** — entries are statted in readdir windows of `window`
//!   paths through [`FsClient::stat_multi`], modelling readdirplus: one
//!   multi-key bank round per window instead of one RPC per entry, and
//!   one server fop for what the bank missed. `window <= 1` falls back
//!   to a stat per entry.
//! * **ghost_every** — every `ghost_every`-th window also probes a
//!   non-existent name ("`ls` a file someone already deleted"),
//!   exercising the negative-caching path. `0` disables the probes.
//!
//! [`FsClient::stat_multi`]: crate::FsClient::stat_multi

use std::rc::Rc;

use imca_metrics::Snapshot;
use imca_sim::sync::Barrier;
use imca_sim::Sim;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::system::{Deployment, SystemSpec};

/// ls-storm parameters.
#[derive(Debug, Clone)]
pub struct LsStorm {
    /// Directory entries created in the untimed stage.
    pub files: usize,
    /// Concurrent listing clients.
    pub clients: usize,
    /// Full directory walks per client (>= 1).
    pub rounds: usize,
    /// Readdir window statted per [`FsClient::stat_multi`] call;
    /// `<= 1` stats entries one by one.
    ///
    /// [`FsClient::stat_multi`]: crate::FsClient::stat_multi
    pub window: usize,
    /// Probe a missing name every this many windows (`0` = never).
    pub ghost_every: usize,
    /// System under test.
    pub spec: SystemSpec,
    /// Simulation seed.
    pub seed: u64,
}

/// ls-storm outputs.
#[derive(Debug, Clone)]
pub struct LsStormResult {
    /// Max over clients of the time to finish all rounds, virtual seconds.
    pub max_node_secs: f64,
    /// Per-stat latencies in nanoseconds, merged across clients and
    /// sorted ascending. Windowed stats attribute the window's elapsed
    /// time evenly across its entries.
    pub stat_ns: Vec<u64>,
    /// Total stats issued (including ghost probes).
    pub ops: usize,
    /// Ghost probes issued; every one must have answered `None`.
    pub ghost_probes: u64,
    /// Full per-tier metrics snapshot from [`Deployment::metrics`].
    pub metrics: Snapshot,
}

fn file_path(i: usize) -> String {
    format!("/bench/ls/entry{i:06}")
}

fn ghost_path(i: u64) -> String {
    format!("/bench/ls/deleted{i:02}")
}

/// How many distinct missing names the storm cycles through.
const GHOST_POOL: u64 = 8;

/// Run the storm to completion in its own simulation.
pub fn run(cfg: &LsStorm) -> LsStormResult {
    assert!(cfg.rounds >= 1, "need at least one walk");
    let mut sim = Sim::new(cfg.seed);
    let dep = Rc::new(Deployment::build(sim.handle(), &cfg.spec));
    let h = sim.handle();
    let barrier = Barrier::new(cfg.clients + 1); // +1 for the setup task

    // Untimed stage: one node creates the directory contents, then walks
    // it once to seed the cache tier's stat entries. Without the warm
    // pass every policy spends the first round in the same thundering
    // herd on the server's queue — the cold fill would dominate the tail
    // for cached and uncached policies alike, hiding what the sweep
    // varies (who answers a *warm* stat, and from where).
    let setup = {
        let dep = Rc::clone(&dep);
        let barrier = barrier.clone();
        let files = cfg.files;
        async move {
            let setup = dep.mount();
            for i in 0..files {
                setup.create(&file_path(i)).await;
            }
            for i in 0..files {
                setup.stat(&file_path(i)).await;
            }
            barrier.wait().await;
        }
    };

    // Timed stage: every client walks the listing `rounds` times. Each
    // client visits the readdir windows in its own deterministic random
    // order (same rationale as statbench: identical orders would keep a
    // zero-skew simulator in lockstep and defeat the cache tier).
    let window = cfg.window.max(1);
    let mut clients = Vec::new();
    for client_id in 0..cfg.clients {
        let dep = Rc::clone(&dep);
        let barrier = barrier.clone();
        let h = h.clone();
        let cfg = cfg.clone();
        let seed = cfg.seed ^ (client_id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        clients.push(async move {
            let cli = dep.mount();
            let mut rng = SmallRng::seed_from_u64(seed);
            let windows: Vec<usize> = (0..cfg.files).step_by(window).collect();
            barrier.wait().await;
            let t0 = h.now();
            let mut my_lats = Vec::new();
            let mut my_ghosts = 0u64;
            for _round in 0..cfg.rounds {
                let mut order = windows.clone();
                // Fisher–Yates over the window start offsets.
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i as u64) as usize;
                    order.swap(i, j);
                }
                for (w, start) in order.into_iter().enumerate() {
                    let paths: Vec<String> = (start..(start + window).min(cfg.files))
                        .map(file_path)
                        .collect();
                    let n = paths.len() as u64;
                    let w0 = h.now();
                    let sizes = cli.stat_multi(&paths).await;
                    let per_op = h.now().since(w0).as_nanos() / n;
                    my_lats.extend(std::iter::repeat_n(per_op, n as usize));
                    assert!(
                        sizes.iter().all(Option::is_some),
                        "a directory entry vanished"
                    );
                    if cfg.ghost_every > 0 && (w + 1) % cfg.ghost_every == 0 {
                        let g = ghost_path(rng.gen_range(0..GHOST_POOL));
                        let g0 = h.now();
                        let answer = cli.try_stat(&g).await;
                        my_lats.push(h.now().since(g0).as_nanos());
                        assert!(answer.is_none(), "ghost {g} exists");
                        my_ghosts += 1;
                    }
                }
            }
            (h.now().since(t0).as_secs_f64(), my_lats, my_ghosts)
        });
    }

    let walks = sim.run_main(async move {
        h.spawn(setup);
        imca_sim::join_all(&h, clients).await
    });
    let max = walks.iter().map(|w| w.0).fold(0.0f64, f64::max);
    let mut stat_ns: Vec<u64> = walks.iter().flat_map(|w| w.1.iter().copied()).collect();
    stat_ns.sort_unstable();
    let ops = stat_ns.len();
    let ghost_probes = walks.iter().map(|w| w.2).sum();
    LsStormResult {
        max_node_secs: max,
        stat_ns,
        ops,
        ghost_probes,
        metrics: dep.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_core::MetaConfig;
    use imca_metrics::quantile;

    fn storm(spec: SystemSpec) -> LsStormResult {
        run(&LsStorm {
            files: 48,
            clients: 4,
            rounds: 3,
            window: 8,
            ghost_every: 2,
            spec,
            seed: 11,
        })
    }

    /// Every system answers the same storm; ghosts never resolve.
    #[test]
    fn all_systems_survive_the_storm() {
        for spec in [
            SystemSpec::GlusterNoCache,
            SystemSpec::imca(2),
            SystemSpec::Lustre {
                osts: 2,
                warm: true,
            },
        ] {
            let r = storm(spec);
            assert_eq!(r.ops, 4 * 3 * (48 + 3), "{r:?}"); // 6 windows/round, ghost every 2nd
            assert!(r.ghost_probes > 0);
        }
    }

    /// Leases turn repeat walks into local answers: faster tail than the
    /// bank round-trip policy, with lease hits and negative hits on the
    /// meters.
    #[test]
    fn leases_beat_the_bank_round_trip_on_repeat_walks() {
        let bank = storm(SystemSpec::imca(2));
        let lease = storm(SystemSpec::imca_meta(2, MetaConfig::lease()));
        let (lease_p50, bank_p50) = (quantile(&lease.stat_ns, 50), quantile(&bank.stat_ns, 50));
        assert!(
            lease_p50 < bank_p50,
            "lease p50={lease_p50:?} bank p50={bank_p50:?}"
        );
        assert!(
            lease.max_node_secs < bank.max_node_secs,
            "lease={} bank={}",
            lease.max_node_secs,
            bank.max_node_secs
        );
        assert!(lease.metrics.counter_sum("cmcache.*.meta.lease_hits") > 0);
        assert!(lease.metrics.counter_sum("cmcache.*.meta.negative_hits") > 0);
        assert_eq!(bank.metrics.counter_sum("cmcache.*.meta.lease_hits"), 0);
    }

    /// The batched window rides one multi-key bank round per window, not
    /// one RPC per entry: with windows the bank sees fewer request
    /// messages than entries statted.
    #[test]
    fn windows_batch_the_bank_round() {
        let windowed = storm(SystemSpec::imca(2));
        let single = run(&LsStorm {
            files: 48,
            clients: 4,
            rounds: 3,
            window: 1,
            ghost_every: 0,
            spec: SystemSpec::imca(2),
            seed: 11,
        });
        let batched = windowed.metrics.counter_sum("cmcache.*.meta.batched_paths");
        assert!(batched > 0, "no batched lookups recorded");
        assert_eq!(
            single.metrics.counter_sum("cmcache.*.meta.batched_paths"),
            0
        );
    }
}

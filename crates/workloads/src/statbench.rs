//! The stat benchmark (§5.2, Fig 5).
//!
//! "In the first stage (untimed), a set of 262144 files is created. In the
//! second stage (timed) of the benchmark, each of the nodes tries to
//! perform a stat operation on each of the 262144 files. The total time
//! required to complete all 262144 stats is collected from each of the
//! nodes and the maximum time among all of them is reported."

use std::rc::Rc;

use imca_metrics::Snapshot;
use imca_sim::sync::Barrier;
use imca_sim::Sim;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::system::{Deployment, SystemSpec};

/// Stat-benchmark parameters.
#[derive(Debug, Clone)]
pub struct StatBench {
    /// Number of files (262,144 at paper scale).
    pub files: usize,
    /// Number of client nodes statting every file.
    pub clients: usize,
    /// System under test.
    pub spec: SystemSpec,
    /// Simulation seed.
    pub seed: u64,
}

/// Stat-benchmark outputs.
#[derive(Debug, Clone)]
pub struct StatBenchResult {
    /// The reported metric: max over nodes of the time to stat every file,
    /// in seconds of virtual time.
    pub max_node_secs: f64,
    /// MCD-side get hit/miss counts (IMCa runs only).
    pub mcd_hits: u64,
    /// MCD-side misses.
    pub mcd_misses: u64,
    /// MCD-side evictions (capacity pressure indicator).
    pub mcd_evictions: u64,
    /// Full per-tier metrics snapshot from [`Deployment::metrics`].
    pub metrics: Snapshot,
}

impl StatBenchResult {
    /// Daemon-observed miss rate, if any gets were issued.
    pub fn mcd_miss_rate(&self) -> Option<f64> {
        let total = self.mcd_hits + self.mcd_misses;
        (total > 0).then(|| self.mcd_misses as f64 / total as f64)
    }
}

fn file_path(i: usize) -> String {
    format!("/bench/stat/file{i:06}")
}

/// Run the benchmark to completion in its own simulation.
pub fn run(cfg: &StatBench) -> StatBenchResult {
    let mut sim = Sim::new(cfg.seed);
    let dep = Rc::new(Deployment::build(sim.handle(), &cfg.spec));
    let h = sim.handle();
    let barrier = Barrier::new(cfg.clients + 1); // +1 for the setup task

    // Stage 1 (untimed): one node creates the file set. As in the paper,
    // the timed stage follows immediately — the server's inode cache is
    // warm, so the comparison measures server/bank contention, not disk.
    let setup = {
        let dep = Rc::clone(&dep);
        let barrier = barrier.clone();
        let files = cfg.files;
        async move {
            let setup = dep.mount();
            for i in 0..files {
                setup.create(&file_path(i)).await;
            }
            barrier.wait().await;
        }
    };

    // Stage 2 (timed): every node stats every file, each in its own
    // deterministic random order. Identical orders would (a) keep a
    // zero-skew simulator in perfect lockstep — every node missing every
    // file at the same instant, so the cache tier never sees a first
    // hit — and (b) turn the benchmark into a cyclic LRU scan, whose
    // all-or-nothing miss cliff no real multi-node run exhibits.
    let mut clients = Vec::new();
    for client_id in 0..cfg.clients {
        let dep = Rc::clone(&dep);
        let barrier = barrier.clone();
        let h = h.clone();
        let files = cfg.files;
        let seed = cfg.seed ^ (client_id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        clients.push(async move {
            let cli = dep.mount();
            let mut order: Vec<usize> = (0..files).collect();
            let mut rng = SmallRng::seed_from_u64(seed);
            // Fisher–Yates.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i as u64) as usize;
                order.swap(i, j);
            }
            barrier.wait().await;
            let t0 = h.now();
            for idx in order {
                cli.stat(&file_path(idx)).await;
            }
            h.now().since(t0).as_secs_f64()
        });
    }

    let times = sim.run_main(async move {
        h.spawn(setup);
        imca_sim::join_all(&h, clients).await
    });
    let max = times.iter().cloned().fold(0.0f64, f64::max);

    let metrics = dep.metrics();
    let bank = |m: &str| metrics.counter_sum(&format!("bank.mcd.*.store.{m}"));
    StatBenchResult {
        max_node_secs: max,
        mcd_hits: bank("get_hits"),
        mcd_misses: bank("get_misses"),
        mcd_evictions: bank("evictions"),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_core::ImcaConfig;
    use imca_memcached::McConfig;

    fn bench(spec: SystemSpec, files: usize, clients: usize) -> StatBenchResult {
        run(&StatBench {
            files,
            clients,
            spec,
            seed: 7,
        })
    }

    /// The headline Fig 5 behaviour in miniature: with multiple clients the
    /// MCD bank beats NoCache, because N-1 of every file's N stats are
    /// served from the cache tier.
    #[test]
    fn imca_beats_nocache_with_multiple_clients() {
        let files = 200;
        let clients = 8;
        let nocache = bench(SystemSpec::GlusterNoCache, files, clients);
        let imca = bench(SystemSpec::imca(1), files, clients);
        assert!(
            imca.max_node_secs < nocache.max_node_secs,
            "imca={} nocache={}",
            imca.max_node_secs,
            nocache.max_node_secs
        );
        // Most MCD gets hit.
        assert!(imca.mcd_hits > imca.mcd_misses, "{imca:?}");
    }

    /// A single client gains nothing (every stat is a first stat): IMCa
    /// pays the extra MCD round trip.
    #[test]
    fn single_client_imca_is_not_faster() {
        let files = 100;
        let nocache = bench(SystemSpec::GlusterNoCache, files, 1);
        let imca = bench(SystemSpec::imca(1), files, 1);
        assert!(imca.max_node_secs >= nocache.max_node_secs * 0.9);
        assert_eq!(imca.mcd_hits, 0, "single pass cannot hit");
    }

    /// NoCache stat time grows roughly linearly with clients (single
    /// server); IMCa grows much more slowly (Fig 5's diverging curves).
    #[test]
    fn scaling_shape_matches_fig5() {
        let files = 100;
        let no_1 = bench(SystemSpec::GlusterNoCache, files, 1).max_node_secs;
        let no_8 = bench(SystemSpec::GlusterNoCache, files, 8).max_node_secs;
        let im_1 = bench(SystemSpec::imca(2), files, 1).max_node_secs;
        let im_8 = bench(SystemSpec::imca(2), files, 8).max_node_secs;
        let nocache_growth = no_8 / no_1;
        let imca_growth = im_8 / im_1;
        assert!(
            imca_growth < nocache_growth,
            "imca_growth={imca_growth:.2} nocache_growth={nocache_growth:.2}"
        );
    }

    /// Lustre's MDS+glimpse stat path is slower than IMCa's bank at
    /// multiple clients (the 86%-vs-Lustre headline, in shape).
    #[test]
    fn imca_beats_lustre_on_stat() {
        let files = 100;
        let clients = 8;
        let lustre = bench(
            SystemSpec::Lustre {
                osts: 4,
                warm: false,
            },
            files,
            clients,
        );
        let imca = bench(SystemSpec::imca(2), files, clients);
        assert!(
            imca.max_node_secs < lustre.max_node_secs,
            "imca={} lustre={}",
            imca.max_node_secs,
            lustre.max_node_secs
        );
    }

    /// Tiny MCD memory forces capacity misses with one daemon; doubling
    /// the bank eliminates them (the paper's "miss rate with increasing
    /// MCDs beyond 2 is zero").
    #[test]
    fn capacity_misses_vanish_with_more_mcds() {
        // A slab page is 1 MB and holds ~8700 stat-class chunks, so 12k
        // files overflow one daemon at a 1 MB limit but fit in four.
        let files = 12_000;
        let tiny = 1 << 20;
        let spec = |mcds: usize| {
            SystemSpec::Imca(ImcaConfig {
                mcd_count: mcds,
                mcd_config: McConfig::with_mem_limit(tiny),
                ..ImcaConfig::default()
            })
        };
        let one = run(&StatBench {
            files,
            clients: 2,
            spec: spec(1),
            seed: 7,
        });
        let four = run(&StatBench {
            files,
            clients: 2,
            spec: spec(4),
            seed: 7,
        });
        assert!(one.mcd_evictions > 0, "no pressure with 1 MCD: {one:?}");
        assert_eq!(four.mcd_evictions, 0, "pressure with 4 MCDs: {four:?}");
        assert!(four.mcd_miss_rate().unwrap() < one.mcd_miss_rate().unwrap());
    }
}

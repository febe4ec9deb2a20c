//! The closed-loop reader drive: N readers with exponential think time
//! hammer a prewarmed MCD bank through the full [`imca_core::Cluster`]
//! stack (CMCache → `BankClient` → daemon queues). One drive, run by two
//! binaries: `fig8_scale` (EXPERIMENTS.md A11) sweeps clients × bank size
//! at the stack's calibrated service constants, unprotected, to locate
//! the saturation knee; `ablate_overload` (A12, DESIGN.md §8) runs
//! [`OverloadBench::new`]'s deliberately small two-daemon bank 2–4× past
//! its knee. The overload-protection layer is two mechanisms, each an
//! `Option` of the drive:
//!
//! * [`OverloadBench::queue_limit`] — bounded daemon queues
//!   ([`McdCosts::queue_limit`]): a full daemon refuses reads with `busy`
//!   in microseconds and the client forwards them to the backend;
//! * [`OverloadBench::rewarm`] — the SMCache rewarm throttle
//!   ([`ImcaConfig::rewarm`]): read-path fills back into the bank are
//!   rate-limited.
//!
//! With both `None` the stack is unprotected: unbounded queues and every
//! fallback read pushing its block back into the bank.
//!
//! The calibrated geometry makes the bank the fast tier and the single GlusterFS
//! server the slow shared fallback (the paper's regime, scaled down so
//! the knee lands at a handful of clients). Unprotected, queue wait past
//! the knee exceeds the static deadline, retries triple the load on
//! queues that serve mostly abandoned requests, every circuit-open
//! fallback read triggers a synchronous fill push back into the drowning
//! bank (the fill storm), and goodput collapses. The two mechanisms work
//! only as a pair (the leave-one-out table in EXPERIMENTS.md A12): the
//! queue bound alone sheds in microseconds but every shed read's fill
//! lands back on the full queues, and the throttle alone caps fills but
//! leaves reads burning their deadline in an unbounded queue. Together,
//! goodput plateaus at the tier-capacity sum — and below the knee neither
//! fires, so the protected drive is event-identical to the unprotected
//! one.
//!
//! Everything is driven by per-client RNG streams seeded from
//! `(seed, client)`, so a fixed seed replays bit-identically
//! (`fixed_seed_replays_bit_identically` below). Every timed read's bytes
//! are checked in every build, release included: the drive's callers
//! (`fig8_scale`, `ablate_overload`, these tests under the gate's release
//! step) are all release builds.

use std::rc::Rc;

use imca_core::{
    Cluster, ClusterConfig, ImcaConfig, McdCosts, Replication, RetryPolicy, RewarmLimit,
};
use imca_glusterfs::ServerParams;
use imca_memcached::McConfig;
use imca_metrics::{quantile, Snapshot};
use imca_sim::sync::Barrier;
use imca_sim::{Sim, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Overload-drive parameters. [`OverloadBench::new`] gives the calibrated
/// geometry; only `clients`, the two protection mechanisms and `seed`
/// usually vary.
#[derive(Debug, Clone)]
pub struct OverloadBench {
    /// Closed-loop reader clients.
    pub clients: usize,
    /// Daemons in the bank (2 keeps the knee at a handful of clients).
    pub mcds: usize,
    /// Bank replication factor (2: every hot block on both daemons).
    pub replication: usize,
    /// Timed reads issued by each client.
    pub ops_per_client: u64,
    /// Prewarmed hot files, read uniformly.
    pub hot_files: usize,
    /// Blocks per hot file.
    pub blocks_per_file: u64,
    /// IMCa block size; every read is one aligned block.
    pub block_size: u64,
    /// Mean think time between a client's reads (exponential).
    pub think_mean: SimDuration,
    /// Daemon service time per command — the bank's capacity knob.
    pub mcd_per_op: SimDuration,
    /// Server CPU per fop on one io-thread — the backend's (slower)
    /// capacity knob.
    pub server_fop_cpu: SimDuration,
    /// Bounded per-daemon admission queue; `None` = unbounded.
    pub queue_limit: Option<usize>,
    /// Read-path rewarm throttle at the server; `None` = every fallback
    /// read fills the bank.
    pub rewarm: Option<RewarmLimit>,
    /// Simulation seed; every random draw is `(seed, client)`-local.
    pub seed: u64,
}

impl OverloadBench {
    /// The calibrated, protected drive: a 2-daemon bank at 5 ms/op
    /// (capacity ≈ 400 ops/s) with 4-deep admission queues, a
    /// single-threaded server at 8 ms/fop (≈ 125 ops/s) filling the bank
    /// at no more than 20 fills/s, 10 ms think time and a 50 ms static
    /// deadline. The closed-loop knee lands near 6 clients; unprotected,
    /// queue wait crosses the static deadline — the meltdown threshold —
    /// past ~20.
    pub fn new(clients: usize) -> OverloadBench {
        OverloadBench {
            clients,
            mcds: 2,
            replication: 2,
            ops_per_client: 40,
            hot_files: 2,
            blocks_per_file: 24,
            block_size: 2048,
            think_mean: SimDuration::millis(10),
            mcd_per_op: SimDuration::millis(5),
            server_fop_cpu: SimDuration::millis(8),
            queue_limit: Some(4),
            rewarm: Some(RewarmLimit {
                rate_per_sec: 20.0,
                burst: 8.0,
            }),
            seed: 42,
        }
    }
}

/// The static per-attempt bank RPC deadline (what unprotected overload
/// melts through).
pub const DEADLINE: SimDuration = SimDuration::millis(50);
/// Circuit cooldown after a bank client's retries run out.
const CIRCUIT_COOLDOWN: SimDuration = SimDuration::millis(20);

/// What one drive reports.
#[derive(Debug)]
pub struct OverloadOut {
    /// Timed-phase duration (post-prewarm barrier to last completion).
    pub elapsed: SimDuration,
    /// Client-observed latency (ns) of every timed read, sorted. There
    /// are always `clients × ops_per_client`: every shed read is still
    /// answered through the backend.
    pub read_ns: Vec<u64>,
    /// Daemon-side admission-control sheds, summed over the bank.
    pub sheds: u64,
    /// Client-observed `busy` replies, summed over every bank client.
    pub busy_sheds: u64,
    /// Circuits opened (timeout-driven degradation), summed over every
    /// bank client.
    pub circuit_opens: u64,
    /// Read-path fills skipped by the rewarm throttle.
    pub rewarm_suppressed: u64,
    /// CMCache block reads served by the bank.
    pub read_hits: u64,
    /// CMCache block reads forwarded to the server.
    pub read_misses: u64,
    /// Full `tier.component.metric` snapshot.
    pub metrics: Snapshot,
}

impl OverloadOut {
    /// Completed reads per simulated second of the timed phase.
    pub fn goodput(&self) -> f64 {
        self.read_ns.len() as f64 / (self.elapsed.as_nanos().max(1) as f64 / 1e9)
    }

    /// Overall p99 in milliseconds, by nearest rank over [`Self::read_ns`].
    pub fn p99_ms(&self) -> f64 {
        quantile(&self.read_ns, 99).expect("the drive timed no reads") as f64 / 1e6
    }
}

/// splitmix64, for `(seed, client)` stream seeding.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn exp_sample(rng: &mut SmallRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen();
    SimDuration::nanos((-(1.0 - u).ln() * mean.as_nanos() as f64) as u64)
}

fn hot_path(file: usize) -> String {
    format!("/bench/overload/hot{file}")
}

/// Deterministic block contents, verified on every timed read in every
/// build — overload protection must never trade correctness for latency
/// (the NoCache-equivalence property).
fn block_bytes(file: usize, block: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((file as u64 * 89 + block * 131 + i * 7) % 251) as u8)
        .collect()
}

fn cluster_config(cfg: &OverloadBench) -> ClusterConfig {
    let retry = RetryPolicy {
        deadline: DEADLINE,
        circuit_cooldown: CIRCUIT_COOLDOWN,
        ..RetryPolicy::default()
    };
    // The server-side SMCache client streams pipeline pushes whose
    // trailing sync legitimately waits behind the whole (slow, 5 ms/op)
    // daemon queue — a read-tuned deadline would falsely quarantine the
    // bank during prewarm.
    let server_retry = RetryPolicy {
        deadline: SimDuration::secs(5),
        retries: 0,
        circuit_cooldown: SimDuration::secs(1),
        ..RetryPolicy::default()
    };
    let imca = ImcaConfig {
        block_size: cfg.block_size,
        mcd_count: cfg.mcds,
        mcd_config: McConfig::with_mem_limit(64 << 20),
        mcd_costs: McdCosts {
            per_op: cfg.mcd_per_op,
            queue_limit: cfg.queue_limit,
        },
        retry,
        server_retry: Some(server_retry),
        replication: Replication {
            factor: cfg.replication,
        },
        rewarm: cfg.rewarm,
        ..ImcaConfig::default()
    };
    ClusterConfig {
        server_params: ServerParams {
            fop_cpu: cfg.server_fop_cpu,
            io_threads: 1,
        },
        ..ClusterConfig::imca(imca)
    }
}

/// Run the drive to completion in its own simulation.
pub fn run(cfg: &OverloadBench) -> OverloadOut {
    assert!(cfg.clients >= 1 && cfg.hot_files >= 1 && cfg.blocks_per_file >= 1);
    let mut sim = Sim::new(cfg.seed);
    let cluster = Rc::new(Cluster::build(sim.handle(), cluster_config(cfg)));
    let h = sim.handle();
    // Warmer + readers. Two rendezvous points: A after every reader has
    // opened its fds (open purges must land before data exists), B after
    // the warmer's writes have pushed the hot set into the bank.
    let barrier = Barrier::new(cfg.clients + 1);

    // The warmer: creates the hot files, lets the readers open (their
    // open purges hit an empty bank), then writes every block — write
    // pushes populate all R replicas and are never rewarm-throttled, so
    // the timed phase starts from a fully warm bank. Files stay open:
    // a close would purge the cache tier (§4.3.2).
    let warmer = {
        let cluster = Rc::clone(&cluster);
        let barrier = barrier.clone();
        let h2 = h.clone();
        let cfg2 = cfg.clone();
        async move {
            let m = cluster.mount();
            let mut fds = Vec::new();
            for f in 0..cfg2.hot_files {
                let path = hot_path(f);
                m.create(&path).await.unwrap();
                fds.push(m.open(&path).await.unwrap());
            }
            barrier.wait().await; // A: files exist, readers may open
            barrier.wait().await; // readers are done opening
            for (f, fd) in fds.iter().enumerate() {
                for b in 0..cfg2.blocks_per_file {
                    let data = block_bytes(f, b, cfg2.block_size);
                    m.write(*fd, b * cfg2.block_size, &data).await.unwrap();
                }
            }
            // The writes' stat refreshes are posted: let the last of them
            // land, so the timed phase starts on idle daemon queues.
            while cluster.posted_stores() > 0 {
                h2.sleep(SimDuration::micros(100)).await;
            }
            barrier.wait().await; // B: bank is warm, timed phase starts
            h2.now()
        }
    };

    let mut readers = Vec::new();
    for client in 0..cfg.clients {
        let cluster = Rc::clone(&cluster);
        let barrier = barrier.clone();
        let h2 = h.clone();
        let cfg2 = cfg.clone();
        readers.push(async move {
            let m = cluster.mount();
            barrier.wait().await; // A
            let mut fds = Vec::new();
            for f in 0..cfg2.hot_files {
                fds.push(m.open(&hot_path(f)).await.unwrap());
            }
            barrier.wait().await; // opens done, warmer writes
            barrier.wait().await; // B: go
            let mut rng = SmallRng::seed_from_u64(mix(cfg2.seed ^ (client as u64 + 1)));
            // Stagger the first op so clients don't march in lockstep —
            // by at most one think time, or a wide drive never overlaps.
            h2.sleep(SimDuration::micros(37 * client as u64).min(cfg2.think_mean))
                .await;
            let mut read_ns = Vec::with_capacity(cfg2.ops_per_client as usize);
            for _ in 0..cfg2.ops_per_client {
                h2.sleep(exp_sample(&mut rng, cfg2.think_mean)).await;
                let f = rng.gen_range(0..cfg2.hot_files);
                let b = rng.gen_range(0..cfg2.blocks_per_file);
                let t0 = h2.now();
                let got = m
                    .read(fds[f], b * cfg2.block_size, cfg2.block_size)
                    .await
                    .unwrap();
                let took = h2.now().since(t0);
                assert_eq!(
                    got,
                    block_bytes(f, b, cfg2.block_size),
                    "overload drive corrupted file {f} block {b}"
                );
                read_ns.push(took.as_nanos());
            }
            read_ns
        });
    }

    let (t_start, per_reader) = sim.run_main(async move {
        let (tx, rx) = imca_sim::sync::oneshot();
        h.spawn(async move { tx.send(warmer.await) });
        let per_reader = imca_sim::join_all(&h, readers).await;
        (rx.await.unwrap(), per_reader)
    });
    let elapsed = sim.now().since(t_start);
    let snap = cluster.metrics();
    // Every bank client: each mount's CMCache and the server's SMCache.
    let every_client = |m: &str| {
        snap.counter_sum(&format!("cmcache.*.bank.{m}"))
            + snap.counter_sum(&format!("smcache.bank.{m}"))
    };
    let mut read_ns: Vec<u64> = per_reader.concat();
    assert_eq!(read_ns.len(), cfg.clients * cfg.ops_per_client as usize);
    read_ns.sort_unstable();
    OverloadOut {
        elapsed,
        read_ns,
        sheds: snap.counter_sum("bank.per_daemon.*.sheds"),
        busy_sheds: every_client("busy_sheds"),
        circuit_opens: every_client("circuit_opens"),
        rewarm_suppressed: snap.counter("smcache.rewarm_suppressed").unwrap_or(0),
        read_hits: snap.counter_sum("cmcache.*.read_hits"),
        read_misses: snap.counter_sum("cmcache.*.read_misses"),
        metrics: snap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(clients: usize, protection: bool) -> OverloadOut {
        let on = OverloadBench {
            ops_per_client: 16,
            ..OverloadBench::new(clients)
        };
        run(&if protection {
            on
        } else {
            OverloadBench {
                queue_limit: None,
                rewarm: None,
                ..on
            }
        })
    }

    /// Past the meltdown threshold, protection must keep goodput up: the
    /// unprotected stack burns its time in deadline timeouts and fill
    /// storms, the protected one sheds to the backend and plateaus.
    #[test]
    fn protection_turns_collapse_into_plateau() {
        let off = drive(24, false);
        let on = drive(24, true);
        assert_eq!(on.read_ns.len(), 24 * 16);
        assert_eq!(off.read_ns.len(), 24 * 16);
        assert!(
            on.goodput() > 3.0 * off.goodput(),
            "protected {:.0} ops/s vs unprotected {:.0} ops/s",
            on.goodput(),
            off.goodput()
        );
        assert!(on.sheds > 0, "no admission-control sheds at 4x the knee");
        assert!(on.rewarm_suppressed > 0, "throttle never engaged: {on:?}");
        assert!(
            on.p99_ms() < off.p99_ms(),
            "protected p99 {:.1}ms vs unprotected {:.1}ms",
            on.p99_ms(),
            off.p99_ms()
        );
        // Timeout-driven vs shed-driven degradation stay distinguishable.
        assert!(off.circuit_opens > 0, "meltdown never opened a circuit");
        assert_eq!(off.sheds, 0, "unbounded queues must never shed");
    }

    /// Below the knee the protection layer is dormant, exactly: nothing
    /// is shed, no fill is suppressed, and the protected drive replays
    /// the unprotected one event for event.
    #[test]
    fn pre_knee_protection_is_dormant() {
        for clients in [2, 4] {
            let off = drive(clients, false);
            let on = drive(clients, true);
            assert_eq!(on.sheds, 0, "{on:?}");
            assert_eq!(on.rewarm_suppressed, 0, "{on:?}");
            assert_eq!(on.circuit_opens, 0);
            assert_eq!(on.elapsed, off.elapsed, "{clients} clients");
            assert_eq!(on.read_ns, off.read_ns, "{clients} clients");
        }
    }

    /// Same seed, same drive — bit-identical, shedding and throttling
    /// included.
    #[test]
    fn fixed_seed_replays_bit_identically() {
        let a = drive(24, true);
        let b = drive(24, true);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.sheds, b.sheds);
        assert_eq!(a.busy_sheds, b.busy_sheds);
        assert_eq!(a.rewarm_suppressed, b.rewarm_suppressed);
        assert_eq!(a.read_ns, b.read_ns);
    }

    /// The printed p99 is a recorded sample, chosen by nearest rank: over
    /// 1 080 reads, the 1 070th smallest (not a bucket edge, and not the
    /// 1 069th that `round((n - 1) * 0.99)` would pick).
    #[test]
    fn p99_is_the_nearest_rank_sample() {
        let out = run(&OverloadBench {
            ops_per_client: 40,
            ..OverloadBench::new(27)
        });
        let n = out.read_ns.len();
        assert_eq!(n, 1_080);
        assert!(out.read_ns.is_sorted());
        let rank = (99 * n).div_ceil(100);
        assert_eq!(out.p99_ms(), out.read_ns[rank - 1] as f64 / 1e6);
    }

    /// A wide, short-think drive overlaps: with the first-op stagger
    /// capped at one think time, 64 clients finish inside the 37 µs ×
    /// clients an uncapped stagger alone would spread them over.
    #[test]
    fn first_op_stagger_is_capped_at_the_think_time() {
        let out = run(&OverloadBench {
            ops_per_client: 1,
            think_mean: SimDuration::micros(100),
            mcd_per_op: McdCosts::default().per_op,
            server_fop_cpu: ServerParams::default().fop_cpu,
            queue_limit: None,
            rewarm: None,
            ..OverloadBench::new(64)
        });
        assert_eq!(out.read_ns.len(), 64);
        assert!(
            out.elapsed < SimDuration::micros(37 * 64),
            "timed phase {:?}",
            out.elapsed
        );
    }
}

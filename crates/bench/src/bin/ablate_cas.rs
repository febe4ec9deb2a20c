//! Write-coherence ablation (DESIGN.md §4f): versioned in-place CAS
//! replacement vs the paper's purge-all-replicas protocol, on a shared
//! file hammered by 32 concurrent clients.
//!
//! The paper's SMCache keeps the bank coherent by *deleting* a write's
//! covering blocks from every replica and re-pushing them from a covering
//! re-read. That opens a cold window — a concurrent reader that lands
//! between the purge and the repush misses all the way to the GlusterFS
//! server — and the window widens with the replication factor (more
//! deletes) and with page-cache pressure (the covering re-read goes to
//! disk). `Coherence::Cas` closes it: the write `gets` the covering
//! blocks from each replica, splices the written bytes in, and
//! `cas`-replaces them in place, so the bank never goes cold and the
//! disk is never re-read for a tracked block.
//!
//! Two sweeps, each at R ∈ {2, 4} over 4 MCDs with the backend page
//! cache dropped every round (the pressure regime the purge protocol is
//! worst in): a write-heavy loop (every client writes its own slot then
//! reads two neighbours) and a mixed ~30 %-write loop. Writes
//! `ablate_cas.{json,txt}`, `ablate_cas_metrics.json`, and the
//! consolidated `BENCH_7.json` (p50/p99 and post-write bank hit rate per
//! configuration, plus the `"cas_beats_purge"` verdict) into the results
//! directory.

use std::rc::Rc;

use imca_bench::{emit, emit_bench, emit_metrics, fixed, obj, parallel_sweep, Options};
use imca_core::{Cluster, ClusterConfig, Coherence, ImcaConfig, Replication};
use imca_memcached::McConfig;
use imca_metrics::json::Json;
use imca_metrics::{quantile, Snapshot};
use imca_sim::{join_all, Sim, SimDuration};
use imca_workloads::report::Table;

const MCDS: usize = 4;
const BLOCK: u64 = 8192;
const CLIENTS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepKind {
    /// Every round each client writes its own slot, then reads the two
    /// slots to its right — every read targets a block some other client
    /// is concurrently rewriting.
    WriteHeavy,
    /// ~30 % writes in a deterministic modular pattern; reads walk the
    /// other clients' slots.
    Mixed,
}

impl SweepKind {
    fn label(self) -> &'static str {
        match self {
            SweepKind::WriteHeavy => "write_heavy",
            SweepKind::Mixed => "mixed_rw",
        }
    }
}

fn coherence_label(c: Coherence) -> &'static str {
    match c {
        Coherence::Cas => "cas",
        Coherence::Purge => "purge",
    }
}

/// One sweep's harvest: merged op latencies (sorted), the bank hit rate
/// over the measured (post-warm-up) phase, and the cluster metrics.
struct SweepOut {
    op_ns: Vec<u64>,
    hit_rate: f64,
    metrics: Snapshot,
}

/// A percentile of the merged timed ops, by nearest rank.
fn p_ns(res: &SweepOut, percent: usize) -> u64 {
    quantile(&res.op_ns, percent).expect("the sweep timed no ops")
}

/// One shared file, one block-sized slot per client. All 32 clients run
/// concurrently on their own mounts; client 0 drops the backend page
/// cache every round so the purge protocol's covering re-read pays for
/// its disk dependence.
fn run_sweep(kind: SweepKind, coherence: Coherence, r: usize, rounds: u64, seed: u64) -> SweepOut {
    let mut sim = Sim::new(seed);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: MCDS,
            block_size: BLOCK,
            mcd_config: McConfig::with_mem_limit(6 << 30),
            replication: Replication { factor: r },
            coherence,
            ..ImcaConfig::default()
        }),
    ));
    let c = Rc::clone(&cluster);
    let h = sim.handle();
    let (op_ns, hit_rate) = sim.run_main(async move {
        // Every client opens before the warm-up: SMCache purges on open,
        // and the sweep wants the measured phase to start from a fully
        // tracked, fully resident bank.
        let mounts: Vec<_> = (0..CLIENTS).map(|_| c.mount()).collect();
        mounts[0].create("/cas/shared").await.unwrap();
        let mut fds = Vec::new();
        for m in &mounts {
            fds.push(m.open("/cas/shared").await.unwrap());
        }
        for s in 0..CLIENTS as u64 {
            mounts[0]
                .write(fds[0], s * BLOCK, &vec![s as u8; BLOCK as usize])
                .await
                .unwrap();
        }
        for s in 0..CLIENTS as u64 {
            mounts[0].read(fds[0], s * BLOCK, BLOCK).await.unwrap();
        }
        let before = c.metrics();
        let (hits0, miss0) = (
            before.counter_sum("cmcache.*.read_hits"),
            before.counter_sum("cmcache.*.read_misses"),
        );
        let mut tasks = Vec::new();
        for (i, (m, fd)) in mounts.into_iter().zip(fds).enumerate() {
            let h2 = h.clone();
            let c2 = Rc::clone(&c);
            tasks.push(async move {
                // A staggered start desynchronises the rounds, so reads
                // genuinely overlap other clients' in-flight writes.
                h2.sleep(SimDuration::micros(7 * i as u64)).await;
                let mut ns = Vec::new();
                let mut time = |t0: u64| ns.push(h2.now().as_nanos() - t0);
                for round in 0..rounds {
                    if i == 0 {
                        c2.backend().drop_caches();
                    }
                    let own = i as u64 * BLOCK + (round * 613) % 6000;
                    match kind {
                        SweepKind::WriteHeavy => {
                            let t0 = h2.now().as_nanos();
                            m.write(fd, own, &vec![round as u8; 1024]).await.unwrap();
                            time(t0);
                            for step in 1..=2u64 {
                                let slot = (i as u64 + step) % CLIENTS as u64;
                                let t0 = h2.now().as_nanos();
                                m.read(fd, slot * BLOCK, BLOCK).await.unwrap();
                                time(t0);
                            }
                        }
                        SweepKind::Mixed => {
                            let k = round * CLIENTS as u64 + i as u64;
                            let t0 = h2.now().as_nanos();
                            if k % 10 < 3 {
                                m.write(fd, own, &vec![round as u8; 1024]).await.unwrap();
                            } else {
                                let slot = (i as u64 + round) % CLIENTS as u64;
                                m.read(fd, slot * BLOCK, BLOCK).await.unwrap();
                            }
                            time(t0);
                        }
                    }
                }
                ns
            });
        }
        let per_client = join_all(&h, tasks).await;
        let after = c.metrics();
        let hits = after.counter_sum("cmcache.*.read_hits") - hits0;
        let misses = after.counter_sum("cmcache.*.read_misses") - miss0;
        let mut all: Vec<u64> = per_client.into_iter().flatten().collect();
        all.sort_unstable();
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        (all, hit_rate)
    });
    SweepOut {
        op_ns,
        hit_rate,
        metrics: cluster.metrics(),
    }
}

fn main() {
    let opts = Options::from_args(
        "ablate_cas",
        "write-coherence ablation: CAS in-place replacement vs purge+repush under 32 clients",
    );
    let factors: Vec<usize> = vec![2, 4];
    let rounds: u64 = if opts.full {
        24
    } else if opts.smoke {
        6
    } else {
        12
    };

    // One run per (sweep, R, coherence) point, all independent.
    let points: Vec<(SweepKind, usize, Coherence)> = [SweepKind::WriteHeavy, SweepKind::Mixed]
        .iter()
        .flat_map(|&kind| {
            factors.iter().flat_map(move |&r| {
                [Coherence::Cas, Coherence::Purge]
                    .iter()
                    .map(move |&coh| (kind, r, coh))
            })
        })
        .collect();
    let results = parallel_sweep(&points, |&(kind, r, coh)| {
        run_sweep(kind, coh, r, rounds, opts.seed)
    });

    let mut table = Table::new(
        format!("Write-coherence ablation: {CLIENTS} clients, {MCDS} MCDs, {rounds} rounds"),
        "percentile",
        "microseconds",
        points
            .iter()
            .map(|&(kind, r, coh)| format!("{}/{}/R{r}", kind.label(), coherence_label(coh)))
            .collect(),
    );
    for percent in [50, 90, 99] {
        let row: Vec<Option<f64>> = results
            .iter()
            .map(|res| Some(p_ns(res, percent) as f64 / 1_000.0))
            .collect();
        table.push_row(percent as f64, row);
    }
    emit(&opts, "ablate_cas", &table);

    let mut snap = Snapshot::new();
    for (&(kind, r, coh), res) in points.iter().zip(&results) {
        snap.merge_prefixed(
            &format!("{}.{}.r{r}", kind.label(), coherence_label(coh)),
            &res.metrics,
        );
    }
    emit_metrics(&opts, "ablate_cas", &snap);

    // The claims this ablation exists to check: at every (sweep, R)
    // point the CAS protocol must beat the purge baseline on op p99 and
    // keep the post-write bank hit rate strictly above it.
    let find = |kind: SweepKind, r: usize, coh: Coherence| -> &SweepOut {
        points
            .iter()
            .position(|&p| p == (kind, r, coh))
            .map(|i| &results[i])
            .unwrap()
    };
    let mut cas_beats_purge = true;
    for &kind in &[SweepKind::WriteHeavy, SweepKind::Mixed] {
        for &r in &factors {
            let cas = find(kind, r, Coherence::Cas);
            let purge = find(kind, r, Coherence::Purge);
            let (p99c, p99p) = (p_ns(cas, 99), p_ns(purge, 99));
            if p99c >= p99p || cas.hit_rate <= purge.hit_rate {
                cas_beats_purge = false;
            }
            println!(
                "{}/R{r}: p99 cas {:.1}us vs purge {:.1}us; hit rate cas {:.4} vs purge {:.4}",
                kind.label(),
                p99c as f64 / 1_000.0,
                p99p as f64 / 1_000.0,
                cas.hit_rate,
                purge.hit_rate,
            );
        }
    }

    // Consolidated BENCH_7.json for scripts/tier1.sh --strict.
    let int = |n: usize| Json::Int(n as i128);
    let us = |ns: u64| fixed(ns as f64 / 1_000.0, 2);
    let doc = obj(vec![
        ("bench", Json::Str("ablate_cas".into())),
        ("clients", int(CLIENTS)),
        ("mcds", int(MCDS)),
        ("rounds", Json::Int(rounds.into())),
        (
            "series",
            Json::Arr(
                points
                    .iter()
                    .zip(&results)
                    .map(|(&(kind, r, coh), res)| {
                        obj(vec![
                            ("sweep", Json::Str(kind.label().into())),
                            ("replication", int(r)),
                            ("coherence", Json::Str(coherence_label(coh).into())),
                            ("p50_us", us(p_ns(res, 50))),
                            ("p99_us", us(p_ns(res, 99))),
                            ("post_write_hit_rate", fixed(res.hit_rate, 4)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("cas_beats_purge", Json::Bool(cas_beats_purge)),
    ]);
    emit_bench(&opts, "BENCH_7", &doc);

    assert!(
        cas_beats_purge,
        "CAS did not beat the purge baseline on p99 and hit rate at every point"
    );
    println!("claims hold: CAS beats purge on p99 and post-write hit rate at every (sweep, R)");
}

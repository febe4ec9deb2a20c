//! Failure-injection experiment (§4.4: "Failures in MCDs do not impact
//! correctness ... IMCa can transparently account for failures in MCDs").
//!
//! Three sweeps:
//!
//! * **Kill sweep** — a client streams reads through a 4-daemon bank while
//!   daemons are killed one at a time mid-run. Every byte returned must be
//!   correct; we report the latency / hit-rate trajectory as the bank
//!   shrinks.
//! * **Crash / cold-restart sweep** — the dead daemons are revived (empty:
//!   a cold restart), the bank re-warms, rides out a storage controller
//!   brown-out, survives dirty media that kills covering re-reads (dropped
//!   pushes purge the stale copies), and finally a `glusterfsd` crash and
//!   restart with its bank-wide purge. Every byte still verifies.
//! * **Network-fault sweep** — the same warm read workload under seeded
//!   packet loss on the bank links (0 / 1% / 10%) and under a mid-run
//!   partition of one daemon, against a NoCache baseline. IMCa read
//!   latency must degrade monotonically toward — and never past — the
//!   NoCache baseline, with the clients' degraded reads
//!   (`cmcache.*.bank.degraded_misses`) accounting for the gap.

use std::rc::Rc;

use imca_bench::{emit, emit_metrics, Options};
use imca_core::{Cluster, ClusterConfig, Coherence, ImcaConfig, RetryPolicy};
use imca_fabric::FaultPlan;
use imca_memcached::McConfig;
use imca_sim::{Sim, SimDuration, SimTime};
use imca_storage::StorageFaultPlan;
use imca_workloads::report::Table;

fn main() {
    let opts = Options::from_args(
        "ablate_failure",
        "kill MCDs mid-run: correctness preserved, latency degrades gracefully",
    );
    let records: u64 = if opts.full { 4096 } else { 512 };
    let record = 2048u64;
    let phases = 4usize; // kill one daemon between phases

    let mut sim = Sim::new(opts.seed);
    let cluster = Rc::new(Cluster::build(
        sim.handle(),
        ClusterConfig::imca(ImcaConfig {
            mcd_count: phases,
            // Block (8 KB) > backend page (4 KB): the cold-restart sweep's
            // dirty-media stage needs covering re-reads that actually
            // touch the disk rather than the write's own warmed pages.
            block_size: 8192,
            mcd_config: McConfig::with_mem_limit(1 << 30),
            // The paper's protocol (§4.4 is its claim): every write
            // repopulates its covering blocks from a filesystem re-read,
            // the path the dirty-media stage breaks. Under the default
            // `Coherence::Cas` an in-block write splices the cached block
            // in place and never touches the sick media.
            coherence: Coherence::Purge,
            ..ImcaConfig::default()
        }),
    ));
    let h = sim.handle();
    let seed = opts.seed;

    let (rows, restart_rows, brownout_errors) = {
        let cluster = Rc::clone(&cluster);
        sim.run_main(async move {
            let mut rows = Vec::new();
            let mut restart_rows = Vec::new();
            let m = cluster.mount();
            m.create("/victim").await.unwrap();
            let fd = m.open("/victim").await.unwrap();
            let mut payload: Vec<u8> = (0..records * record).map(|i| (i % 249) as u8).collect();
            // Populate in 64K chunks.
            for (i, chunk) in payload.chunks(65536).enumerate() {
                m.write(fd, (i * 65536) as u64, chunk).await.unwrap();
            }

            for phase in 0..phases {
                let hits_before = read_hits(&cluster);
                let t0 = h.now();
                let mut corrupt = 0u64;
                for k in 0..records {
                    let off = k * record;
                    let got = m.read(fd, off, record).await.unwrap();
                    let want = &payload[off as usize..(off + record) as usize];
                    if got != want {
                        corrupt += 1;
                    }
                }
                let elapsed = h.now().since(t0);
                let hits = read_hits(&cluster) - hits_before;
                let mean_us = elapsed.as_micros_f64() / records as f64;
                let hit_rate = hits as f64 / records as f64;
                assert_eq!(corrupt, 0, "data corruption after {phase} failures!");
                rows.push((phase as f64, mean_us, hit_rate));
                // Kill one daemon and let the next phase run degraded.
                if phase + 1 < phases {
                    cluster.kill_mcd(phase);
                    h.sleep(SimDuration::millis(1)).await;
                }
            }

            // ---- Crash / cold-restart sweep ----
            // Stage 0/1: revive the dead daemons. They restart *empty*
            // (the only safe state), so the first pass runs mostly cold
            // and the second measures the re-warmed bank.
            for i in 0..phases - 1 {
                cluster.revive_mcd(i);
            }
            for stage in 0..2u64 {
                let hits_before = read_hits(&cluster);
                let t0 = h.now();
                for k in 0..records {
                    let off = k * record;
                    let got = m.read(fd, off, record).await.unwrap();
                    assert_eq!(
                        got,
                        &payload[off as usize..(off + record) as usize],
                        "corruption after cold restart (stage {stage})"
                    );
                }
                let mean_us = h.now().since(t0).as_micros_f64() / records as f64;
                let hits = read_hits(&cluster) - hits_before;
                restart_rows.push((stage as f64, mean_us, hits as f64 / records as f64));
            }

            // Stage 2: storage controller brown-out — every media access
            // fails for a stretch of virtual time. The page cache is cold,
            // so only the warm bank stands between the clients and EIO.
            cluster.backend().drop_caches();
            let from = h.now().as_nanos();
            cluster.install_storage_faults(StorageFaultPlan {
                error_windows: vec![(SimTime(from), SimTime(from + 50_000_000))],
                ..StorageFaultPlan::seeded(seed)
            });
            let brownout_errors = {
                let hits_before = read_hits(&cluster);
                let t0 = h.now();
                let mut eio = 0u64;
                for k in 0..records {
                    let off = k * record;
                    match m.read(fd, off, record).await {
                        Ok(got) => assert_eq!(
                            got,
                            &payload[off as usize..(off + record) as usize],
                            "corruption during brown-out"
                        ),
                        Err(_) => eio += 1,
                    }
                }
                let mean_us = h.now().since(t0).as_micros_f64() / records as f64;
                let hits = read_hits(&cluster) - hits_before;
                restart_rows.push((2.0, mean_us, hits as f64 / records as f64));
                eio
            };

            // Stage 3: dirty media — writes commit, but half the covering
            // re-reads die. Each dropped push must purge the stale bank
            // copy, so the verification pass below cannot read pre-write
            // bytes that no longer exist on disk.
            cluster.install_storage_faults(StorageFaultPlan {
                read_error: 0.5,
                ..StorageFaultPlan::seeded(seed ^ 1)
            });
            for w in 0..32u64 {
                cluster.backend().drop_caches();
                let off = ((w * 3 + 1) * 8192 + 512) as usize;
                let data = vec![w as u8; 700];
                m.write(fd, off as u64, &data).await.unwrap();
                payload[off..off + 700].copy_from_slice(&data);
            }

            // Stage 4: the server daemon dies and comes back. Writes fail
            // fast while it is down; the restart purges the whole bank, so
            // the final pass re-verifies every byte through cold misses.
            cluster.install_storage_faults(StorageFaultPlan::default());
            cluster.crash_server();
            assert!(
                m.write(fd, 0, b"down").await.is_err(),
                "a write limped into a crashed server"
            );
            cluster.restart_server().await;
            {
                let t0 = h.now();
                for k in 0..records {
                    let off = k * record;
                    let got = m.read(fd, off, record).await.unwrap();
                    assert_eq!(
                        got,
                        &payload[off as usize..(off + record) as usize],
                        "corruption after dirty media + daemon crash"
                    );
                }
                let mean_us = h.now().since(t0).as_micros_f64() / records as f64;
                restart_rows.push((3.0, mean_us, 0.0));
            }
            m.close(fd).await.unwrap();
            (rows, restart_rows, brownout_errors)
        })
    };

    let mut table = Table::new(
        "Failure injection: reads stay correct while daemons die",
        "daemons killed",
        "mean read latency (us) / bank hit rate",
        vec!["read latency us".into(), "bank hit rate".into()],
    );
    for (phase, mean_us, hit_rate) in &rows {
        table.push_row(*phase, vec![Some(*mean_us), Some(*hit_rate)]);
    }
    emit(&opts, "ablate_failure", &table);
    let snap = cluster.metrics();
    assert_eq!(
        snap.counter("bank.mcd_failovers"),
        Some((phases - 1) as u64),
        "failover counter must match the daemons killed"
    );

    let mut table = Table::new(
        "Crash & cold restart: revive, brown-out, dirty media, daemon crash",
        "stage (0=cold restart 1=re-warmed 2=brown-out 3=post-crash verify)",
        "mean read latency (us) / bank hit rate",
        vec!["read latency us".into(), "bank hit rate".into()],
    );
    for (stage, mean_us, hit_rate) in &restart_rows {
        table.push_row(*stage, vec![Some(*mean_us), Some(*hit_rate)]);
    }
    emit(&opts, "ablate_failure_restart", &table);

    // The cold restart was really cold, and the re-warm really warmed.
    // (The cold floor is high by construction: 2 KB records on 8 KB
    // blocks mean 3 of every 4 records hit the block their predecessor's
    // miss just repopulated, so "cold" costs ~1/4 of the reads plus the
    // surviving daemon's share.)
    let (cold_rate, warm_rate) = (restart_rows[0].2, restart_rows[1].2);
    assert!(
        warm_rate > 0.999 && cold_rate < warm_rate - 0.1,
        "re-warm did not recover the hit rate: cold={cold_rate:.2} warm={warm_rate:.2}"
    );
    // The warm bank rode out the brown-out: client-visible errors only
    // where the bank itself had to go to the dead media.
    let brownout_rate = restart_rows[2].2;
    assert!(
        brownout_rate > 0.9,
        "brown-out pass was not served from the bank: hit rate {brownout_rate:.2}"
    );
    // Every injected fault family left its audit trail.
    assert_eq!(
        snap.counter("bank.mcd_revivals"),
        Some((phases - 1) as u64),
        "revival counter must match the daemons revived"
    );
    assert!(
        snap.counter("storage.io_errors").unwrap_or(0) > 0,
        "dirty media produced no storage.io_errors"
    );
    assert!(
        snap.counter("smcache.dropped_pushes").unwrap_or(0) > 0,
        "no covering re-read ever failed: smcache.dropped_pushes is 0"
    );
    assert_eq!(snap.counter("server.crashes"), Some(1));
    assert_eq!(snap.counter("server.restarts"), Some(1));
    emit_metrics(&opts, "ablate_failure", &snap);
    println!(
        "correctness: every record matched its reference after every failure \
         ({} brown-out reads failed over to EIO, the rest served from the bank)",
        brownout_errors
    );
    println!(
        "dirty media: {} storage.io_errors, {} smcache.dropped_pushes \
         (each dropped push purged its stale bank copy)",
        snap.counter("storage.io_errors").unwrap_or(0),
        snap.counter("smcache.dropped_pushes").unwrap_or(0)
    );

    // ---- Network-fault sweep: loss ∈ {0, 1%, 10%} + mid-run partition ----
    let clean = run_faulted(Some(0.0), false, &opts, records, record);
    let loss1 = run_faulted(Some(0.01), false, &opts, records, record);
    let loss10 = run_faulted(Some(0.10), false, &opts, records, record);
    let parted = run_faulted(Some(0.0), true, &opts, records, record);
    let nocache = run_faulted(None, false, &opts, records, record);

    let mut table = Table::new(
        "Network faults: latency degrades toward (never past) NoCache",
        "configuration (0=clean 1=1% loss 2=10% loss 3=partition 4=NoCache)",
        "mean read latency (us) / bank degraded misses",
        vec!["read latency us".into(), "degraded misses".into()],
    );
    for (i, r) in [&clean, &loss1, &loss10, &parted, &nocache]
        .iter()
        .enumerate()
    {
        table.push_row(i as f64, vec![Some(r.mean_us), Some(r.degraded as f64)]);
    }
    emit(&opts, "ablate_failure_net", &table);

    // Monotone degradation, bounded by the cache-less baseline.
    assert!(
        clean.mean_us <= loss1.mean_us && loss1.mean_us <= loss10.mean_us,
        "loss sweep not monotone: {:.1} / {:.1} / {:.1} us",
        clean.mean_us,
        loss1.mean_us,
        loss10.mean_us
    );
    for (name, r) in [
        ("clean", &clean),
        ("1% loss", &loss1),
        ("10% loss", &loss10),
        ("partition", &parted),
    ] {
        assert!(
            r.mean_us < nocache.mean_us,
            "{name} run slower than NoCache: {:.1} vs {:.1} us",
            r.mean_us,
            nocache.mean_us
        );
    }
    // …and the shed-instead-of-wait accounting explains the gap.
    assert_eq!(clean.degraded, 0, "clean run shed reads");
    assert!(
        clean.degraded <= loss1.degraded && loss1.degraded <= loss10.degraded,
        "degraded_misses not monotone in loss: {} / {} / {}",
        clean.degraded,
        loss1.degraded,
        loss10.degraded
    );
    assert!(parted.degraded > 0, "partition run never shed a read");
    println!("network faults: monotone degradation, bounded by NoCache, fully accounted");
}

/// CMCache block reads served by the bank, summed over mounts.
fn read_hits(cluster: &Cluster) -> u64 {
    cluster.metrics().counter_sum("cmcache.*.read_hits")
}

struct FaultRun {
    mean_us: f64,
    degraded: u64,
}

/// One warm read pass over the victim file. `loss`: `Some(p)` = IMCa bank
/// with packet-loss probability `p` on the bank links, `None` = NoCache
/// baseline. `partition_mid` severs daemon 0 halfway through the pass.
fn run_faulted(
    loss: Option<f64>,
    partition_mid: bool,
    opts: &Options,
    records: u64,
    record: u64,
) -> FaultRun {
    let imca = loss.is_some();
    let mut sim = Sim::new(opts.seed);
    let cfg = if imca {
        ClusterConfig::imca(ImcaConfig {
            mcd_count: 4,
            mcd_config: McConfig::with_mem_limit(1 << 30),
            // Threaded updates keep bank pushes (and their give-up cost on
            // a lossy link) off the foreground read path, exactly like the
            // paper's delayed-update mode.
            threaded_updates: true,
            // Tight fail-fast tuning: a blackholed get costs one 60 µs
            // deadline and sheds, instead of the 50 ms production default.
            // At 10% loss the expected cost of *trying* the bank
            // (0.81·hit + 0.19·(deadline+forward)) only beats the NoCache
            // forward if the deadline stays well under the forward cost —
            // this is the knob the "never past NoCache" claim turns on.
            retry: RetryPolicy {
                deadline: SimDuration::micros(60),
                retries: 0,
                backoff_base: SimDuration::micros(10),
                backoff_cap: SimDuration::micros(40),
                circuit_cooldown: SimDuration::micros(500),
            },
            // The updater keeps the production policy: its pipeline syncs
            // legitimately wait far longer than one read deadline.
            server_retry: Some(RetryPolicy::default()),
            ..ImcaConfig::default()
        })
    } else {
        ClusterConfig::nocache()
    };
    let cluster = Rc::new(Cluster::build(sim.handle(), cfg));
    let h = sim.handle();
    let seed = opts.seed;
    let mean_us = {
        let cluster = Rc::clone(&cluster);
        sim.run_main(async move {
            let m = cluster.mount();
            m.create("/victim").await.unwrap();
            let fd = m.open("/victim").await.unwrap();
            let payload: Vec<u8> = (0..records * record).map(|i| (i % 249) as u8).collect();
            for (i, chunk) in payload.chunks(65536).enumerate() {
                m.write(fd, (i * 65536) as u64, chunk).await.unwrap();
            }
            // Let the background updater drain so the bank is fully warm.
            h.sleep(SimDuration::millis(50)).await;
            assert_eq!(cluster.pending_updates(), 0, "the updater never drained");
            // Faults start *after* the populate phase: the sweep measures
            // how the warm read path rides out a link that goes bad, not a
            // bank that was never populated (lossy writes quarantine
            // daemons, by design — that is the kill sweep's territory).
            if let Some(p) = loss {
                if p > 0.0 {
                    cluster.install_bank_faults(FaultPlan {
                        loss: p,
                        ..FaultPlan::seeded(seed)
                    });
                }
            }
            let t0 = h.now();
            let mut corrupt = 0u64;
            for k in 0..records {
                if partition_mid && k == records / 2 {
                    cluster.partition_mcd(0);
                }
                let off = k * record;
                let got = m.read(fd, off, record).await.unwrap();
                if got != payload[off as usize..(off + record) as usize] {
                    corrupt += 1;
                }
            }
            let mean_us = h.now().since(t0).as_micros_f64() / records as f64;
            assert_eq!(corrupt, 0, "data corruption under network faults!");
            mean_us
        })
    };
    // Client reads only: the server's SMCache bank client also counts
    // fill pushes that skipped a shed daemon, which are not reads.
    let degraded = cluster
        .metrics()
        .counter_sum("cmcache.*.bank.degraded_misses");
    FaultRun { mean_us, degraded }
}

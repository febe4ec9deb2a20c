//! The sequential read/write latency benchmark (§5.3, §5.4, §5.6 —
//! Figs 6, 7, 8 and 10).
//!
//! Write phase: "For a given record size r, 1024 records of record size r
//! are written sequentially to the file. The Write time for that record
//! size is measured as the average time of the 1024 operations." Then the
//! read phase walks the same files from the beginning. Multi-client runs
//! put a barrier between phases and between record sizes (§5.4); the
//! shared-file variant (§5.6) has only the root node write, and every node
//! read the same file.
//!
//! Files stay open across the write→read transition: IMCa purges a file's
//! cache entries on open/close (§4.3.2), and the paper's observation that
//! "no Read at the client results in a miss from the MCDs" (§5.3) only
//! holds while the blocks populated by the write phase survive.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use imca_metrics::Snapshot;
use imca_sim::sync::Barrier;
use imca_sim::Sim;

use crate::system::{Deployment, FsHandle, SystemSpec};

/// Latency-benchmark parameters.
#[derive(Debug, Clone)]
pub struct LatencyBench {
    /// System under test.
    pub spec: SystemSpec,
    /// Number of client nodes.
    pub clients: usize,
    /// Record sizes to sweep (bytes).
    pub record_sizes: Vec<u64>,
    /// Records per size (1024 in the paper).
    pub records: usize,
    /// Steady-state mode: every node opens first, a barrier lets the
    /// open purges (§4.3.2) settle, one untimed pass re-populates the
    /// bank, and only then does the timed pass run; a last barrier holds
    /// every close until all timed passes are done. Isolates the cache
    /// tier's service latency from the cold-start population dynamics
    /// and the closing purges (the replication ablation measures hit
    /// tails, not miss storms).
    pub warmup: bool,
    /// §5.6 mode: all nodes share one file; only the root writes.
    pub shared_file: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl LatencyBench {
    /// The paper's record-size sweep: powers of two from 1 byte to `max`.
    pub fn power_of_two_sizes(max: u64) -> Vec<u64> {
        let mut v = vec![1u64];
        while *v.last().unwrap() < max {
            v.push(v.last().unwrap() * 2);
        }
        v
    }
}

/// Per-record-size mean latencies in microseconds.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// `(record_size, mean write latency µs)` per size.
    pub write_us: Vec<(u64, f64)>,
    /// `(record_size, mean read latency µs)` per size.
    pub read_us: Vec<(u64, f64)>,
    /// Every timed read's latency in nanoseconds, per record size and
    /// merged across clients — exact percentiles without histogram
    /// bucket rounding (warm-up pass reads excluded).
    pub read_op_ns: HashMap<u64, Vec<u64>>,
    /// CMCache reads served from the bank (IMCa runs; 0 otherwise).
    pub cm_read_hits: u64,
    /// CMCache reads forwarded to the server after a block miss.
    pub cm_read_misses: u64,
    /// Full per-tier metrics snapshot from [`Deployment::metrics`].
    pub metrics: Snapshot,
}

impl LatencyResult {
    /// Mean read latency for one record size.
    pub fn read_at(&self, size: u64) -> Option<f64> {
        self.read_us
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, v)| *v)
    }

    /// Mean write latency for one record size.
    pub fn write_at(&self, size: u64) -> Option<f64> {
        self.write_us
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, v)| *v)
    }
}

fn file_for(client: usize, size: u64, shared: bool) -> String {
    if shared {
        format!("/bench/lat/shared/r{size}")
    } else {
        format!("/bench/lat/c{client}/r{size}")
    }
}

/// Run the benchmark to completion in its own simulation.
pub fn run(cfg: &LatencyBench) -> LatencyResult {
    assert!(cfg.clients >= 1);
    let mut sim = Sim::new(cfg.seed);
    let dep = Rc::new(Deployment::build(sim.handle(), &cfg.spec));
    let h = sim.handle();
    let barrier = Barrier::new(cfg.clients);
    // (size → list of per-client means), in the order the clients finish
    // each size: the means below sum in that order.
    let writes: Rc<RefCell<HashMap<u64, Vec<f64>>>> = Rc::default();
    let reads: Rc<RefCell<HashMap<u64, Vec<f64>>>> = Rc::default();

    let cold_lustre = matches!(cfg.spec, SystemSpec::Lustre { warm: false, .. });

    let mut clients = Vec::new();
    for client_id in 0..cfg.clients {
        let dep = Rc::clone(&dep);
        let barrier = barrier.clone();
        let writes = Rc::clone(&writes);
        let reads = Rc::clone(&reads);
        let h = h.clone();
        let cfg = cfg.clone();
        clients.push(async move {
            let cli = dep.mount();
            let is_root = client_id == 0;
            let mut handles: HashMap<u64, FsHandle> = HashMap::new();
            // Every timed read's latency (size → ns per op).
            let mut op_ns: HashMap<u64, Vec<u64>> = HashMap::new();

            // --- Write phase ---
            for &size in &cfg.record_sizes {
                barrier.wait().await;
                let path = file_for(client_id, size, cfg.shared_file);
                if cfg.shared_file {
                    if is_root {
                        cli.create(&path).await;
                        let fd = cli.open(&path).await;
                        let t0 = h.now();
                        for k in 0..cfg.records as u64 {
                            let data = record_bytes(size, k);
                            cli.write(&fd, k * size, &data).await;
                        }
                        let mean = h.now().since(t0).as_micros_f64() / cfg.records as f64;
                        writes.borrow_mut().entry(size).or_default().push(mean);
                        handles.insert(size, fd);
                    }
                } else {
                    cli.create(&path).await;
                    let fd = cli.open(&path).await;
                    let t0 = h.now();
                    for k in 0..cfg.records as u64 {
                        let data = record_bytes(size, k);
                        cli.write(&fd, k * size, &data).await;
                    }
                    let mean = h.now().since(t0).as_micros_f64() / cfg.records as f64;
                    writes.borrow_mut().entry(size).or_default().push(mean);
                    handles.insert(size, fd);
                }
            }

            // Phase boundary: cold Lustre drops the client cache
            // (the paper unmounts and remounts).
            barrier.wait().await;
            if cold_lustre {
                cli.drop_client_cache();
            }

            // --- Read phase ---
            for &size in &cfg.record_sizes {
                barrier.wait().await;
                let path = file_for(client_id, size, cfg.shared_file);
                let mut fd_opt = handles.remove(&size);
                if cfg.warmup {
                    // Steady-state mode: open first so every node's open
                    // purge (§4.3.2) lands before anyone reads, then one
                    // untimed pass repopulates the bank.
                    let fd = match fd_opt.take() {
                        Some(fd) => fd,
                        None => cli.open(&path).await,
                    };
                    barrier.wait().await;
                    h.sleep(imca_sim::SimDuration::micros(3 * client_id as u64))
                        .await;
                    for k in 0..cfg.records as u64 {
                        cli.read(&fd, k * size, size).await;
                    }
                    fd_opt = Some(fd);
                    barrier.wait().await;
                }
                // Barrier-release skew: real MPI barriers release ranks a
                // few µs apart, and that asymmetry is what lets the first
                // reader through a shared region populate the cache tier
                // for the rest (§5.6). A deterministic simulator has zero
                // skew unless modelled, which would pin every node to the
                // miss path forever — an artefact, not a prediction.
                h.sleep(imca_sim::SimDuration::micros(3 * client_id as u64))
                    .await;
                let fd = match fd_opt {
                    Some(fd) => fd,
                    None => cli.open(&path).await, // shared-file readers
                };
                let t0 = h.now();
                for k in 0..cfg.records as u64 {
                    let s0 = h.now();
                    let got = cli.read(&fd, k * size, size).await;
                    op_ns
                        .entry(size)
                        .or_default()
                        .push(h.now().since(s0).as_nanos());
                    assert!(
                        got == record_bytes(size, k),
                        "data corruption at size {size} record {k}"
                    );
                }
                let mean = h.now().since(t0).as_micros_f64() / cfg.records as f64;
                reads.borrow_mut().entry(size).or_default().push(mean);
                // The timed pass ends together too, as the paper's phases
                // do (§5.4): a close purges the file (§4.3.2), so the
                // first reader to close a shared file would turn every
                // straggler's last reads into misses, and the tail would
                // time that purge instead of the cache tier.
                barrier.wait().await;
                cli.close(fd).await;
            }
            op_ns
        });
    }

    let (per_client, writes, reads) = sim.run_main(async move {
        let per_client = imca_sim::join_all(&h, clients).await;
        (per_client, writes.take(), reads.take())
    });
    let collect = |m: &HashMap<u64, Vec<f64>>| -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = cfg
            .record_sizes
            .iter()
            .map(|&s| (s, m[&s].iter().sum::<f64>() / m[&s].len() as f64))
            .collect();
        out.sort_by_key(|(s, _)| *s);
        out
    };
    let write_us = collect(&writes);
    let read_us = collect(&reads);
    let mut read_op_ns: HashMap<u64, Vec<u64>> = HashMap::new();
    for (size, ns) in per_client.into_iter().flatten() {
        read_op_ns.entry(size).or_default().extend(ns);
    }
    let metrics = dep.metrics();
    LatencyResult {
        write_us,
        read_us,
        read_op_ns,
        cm_read_hits: metrics.counter_sum("cmcache.*.read_hits"),
        cm_read_misses: metrics.counter_sum("cmcache.*.read_misses"),
        metrics,
    }
}

/// Deterministic record contents so reads can verify integrity end-to-end.
fn record_bytes(size: u64, k: u64) -> Vec<u8> {
    (0..size).map(|i| ((k * 131 + i * 7) % 251) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_core::ImcaConfig;

    fn small(spec: SystemSpec, clients: usize, shared: bool) -> LatencyResult {
        run(&LatencyBench {
            spec,
            clients,
            record_sizes: vec![1, 256, 2048, 8192],
            records: 24,
            warmup: false,
            shared_file: shared,
            seed: 11,
        })
    }

    fn shared_long(spec: SystemSpec, clients: usize) -> LatencyResult {
        // Enough records per size for the stagger to develop: followers
        // queue behind the leader at the server, fall behind by more than
        // one populate interval, and from then on hit the bank. The paper
        // sees the same dynamics — Fig 10's benefit grows with node count.
        run(&LatencyBench {
            spec,
            clients,
            record_sizes: vec![2048],
            records: 96,
            warmup: false,
            shared_file: true,
            seed: 11,
        })
    }

    /// Fig 6(a): for small records IMCa serves reads from the bank below
    /// NoCache's server round trip.
    #[test]
    fn small_record_reads_faster_with_imca() {
        let nocache = small(SystemSpec::GlusterNoCache, 1, false);
        let imca = small(SystemSpec::imca(1), 1, false);
        let n1 = nocache.read_at(1).unwrap();
        let i1 = imca.read_at(1).unwrap();
        assert!(i1 < n1, "imca={i1:.1}us nocache={n1:.1}us");
    }

    /// Fig 6(c): synchronous IMCa write latency exceeds NoCache (extra
    /// read + MCD update in the critical path); threaded mode closes the
    /// gap.
    #[test]
    fn write_latency_sync_worse_threaded_close() {
        let nocache = small(SystemSpec::GlusterNoCache, 1, false);
        let sync = small(SystemSpec::imca(1), 1, false);
        let threaded = small(
            SystemSpec::Imca(ImcaConfig {
                threaded_updates: true,
                ..ImcaConfig::default()
            }),
            1,
            false,
        );
        let n = nocache.write_at(2048).unwrap();
        let s = sync.write_at(2048).unwrap();
        let t = threaded.write_at(2048).unwrap();
        assert!(
            s > n,
            "sync imca write ({s:.1}us) not worse than nocache ({n:.1}us)"
        );
        assert!(t < s, "threaded ({t:.1}us) not better than sync ({s:.1}us)");
    }

    /// §5.3: every read hits the bank after the write phase (blocks were
    /// populated by the writes) — zero read misses.
    #[test]
    fn no_read_misses_after_write_phase() {
        let mut checked = false;
        let cfg = LatencyBench {
            spec: SystemSpec::imca(1),
            clients: 1,
            record_sizes: vec![256, 2048],
            records: 16,
            warmup: false,
            shared_file: false,
            seed: 11,
        };
        // Re-run but inspect the deployment: easiest is to replicate run()
        // logic minimally — instead use the public stats by re-running and
        // checking a fresh deployment inline.
        let mut sim = Sim::new(cfg.seed);
        let dep = Rc::new(Deployment::build(sim.handle(), &cfg.spec));
        let d2 = Rc::clone(&dep);
        sim.run_main(async move {
            let cli = d2.mount();
            cli.create("/f").await;
            let fd = cli.open("/f").await;
            for k in 0..32u64 {
                cli.write(&fd, k * 2048, &record_bytes(2048, k)).await;
            }
            for k in 0..32u64 {
                let got = cli.read(&fd, k * 2048, 2048).await;
                assert_eq!(got, record_bytes(2048, k));
            }
        });
        if let Some(g) = dep.gluster() {
            let snap = g.metrics();
            assert_eq!(snap.counter_sum("cmcache.*.read_misses"), 0);
            assert_eq!(snap.counter_sum("cmcache.*.read_hits"), 32);
            checked = true;
        }
        assert!(checked);
    }

    /// Fig 10 shape: shared-file reads benefit from the bank.
    #[test]
    fn shared_file_reads_faster_with_imca() {
        let nocache = shared_long(SystemSpec::GlusterNoCache, 16);
        let imca = shared_long(SystemSpec::imca(1), 16);
        let n = nocache.read_at(2048).unwrap();
        let i = imca.read_at(2048).unwrap();
        assert!(
            i < n,
            "imca={i:.1}us nocache={n:.1}us (hits={} misses={})",
            imca.cm_read_hits,
            imca.cm_read_misses
        );
    }

    /// Lustre warm beats everything; cold pays OST trips (Fig 6(a)).
    #[test]
    fn lustre_warm_vs_cold() {
        let warm = small(
            SystemSpec::Lustre {
                osts: 1,
                warm: true,
            },
            1,
            false,
        );
        let cold = small(
            SystemSpec::Lustre {
                osts: 1,
                warm: false,
            },
            1,
            false,
        );
        let w = warm.read_at(2048).unwrap();
        let c = cold.read_at(2048).unwrap();
        assert!(w < c, "warm={w:.1}us cold={c:.1}us");
    }

    /// Data integrity is asserted inside the driver (debug_assert on every
    /// record) — run one multi-client IMCa config to exercise it.
    #[test]
    fn multi_client_integrity() {
        let r = small(SystemSpec::imca(2), 3, false);
        assert_eq!(r.read_us.len(), 4);
        assert!(r.read_us.iter().all(|(_, v)| *v > 0.0));
    }
}

//! Synthetic data-center traces (§3's motivation: "In data-center
//! environments a large number of small files are used").
//!
//! Generates reproducible request streams with the stylised facts of web
//! and file-serving traffic: Zipf-distributed file popularity, log-normal
//! file sizes, a configurable stat/read/write mix — and a replay driver
//! that runs the trace against any [`Deployment`] and reports per-op
//! latency statistics.

use std::cell::RefCell;
use std::rc::Rc;

use imca_metrics::Snapshot;
use imca_sim::sync::Barrier;
use imca_sim::{Sim, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::system::{Deployment, FsHandle, SystemSpec};

/// Zipf(α) sampler over ranks `0..n` via an inverse-CDF table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` items with exponent `alpha` (1.0 ≈ classic web
    /// popularity).
    ///
    /// # Panics
    /// Panics if `n` is zero or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(alpha.is_finite() && alpha >= 0.0, "bad alpha");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(alpha);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is empty (never true; see constructor).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// Log-normal-ish file-size generator, clamped to `[min, max]`.
pub struct FileSizes {
    median: f64,
    sigma: f64,
    min: u64,
    max: u64,
}

impl FileSizes {
    /// Sizes with the given median and log-space spread.
    pub fn new(median: u64, sigma: f64, min: u64, max: u64) -> FileSizes {
        assert!(min <= max && median > 0);
        FileSizes {
            median: median as f64,
            sigma,
            min,
            max,
        }
    }

    /// The paper's small-file regime: 8 KB median, spread ~2.5x.
    pub fn datacenter_small() -> FileSizes {
        FileSizes::new(8 << 10, 0.9, 256, 1 << 20)
    }

    /// Sample one size.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        // Box-Muller normal in log space.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let size = self.median * (self.sigma * z).exp();
        (size as u64).clamp(self.min, self.max)
    }
}

/// One operation in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// `stat` the file.
    Stat {
        /// File index into the generated set.
        file: usize,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// File index.
        file: usize,
        /// Byte offset (within the file's size).
        offset: u64,
        /// Bytes requested.
        len: u64,
    },
    /// Overwrite `len` bytes at `offset`.
    Write {
        /// File index.
        file: usize,
        /// Byte offset.
        offset: u64,
        /// Bytes written.
        len: u64,
    },
}

/// Trace parameters.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of distinct files.
    pub files: usize,
    /// Zipf popularity exponent.
    pub zipf_alpha: f64,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Probability an op is a stat (mtime polling, §4.2).
    pub stat_fraction: f64,
    /// Probability an op is a write (the rest are reads).
    pub write_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            files: 256,
            zipf_alpha: 1.0,
            ops_per_client: 400,
            stat_fraction: 0.3,
            write_fraction: 0.05,
            seed: 1,
        }
    }
}

/// A generated trace: file sizes plus one op stream per client.
pub struct Trace {
    /// Size of each file.
    pub file_sizes: Vec<u64>,
    /// Per-client op streams.
    pub streams: Vec<Vec<TraceOp>>,
}

/// Generate a trace for `clients` clients.
pub fn generate(cfg: &TraceConfig, clients: usize) -> Trace {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let sizes_dist = FileSizes::datacenter_small();
    let file_sizes: Vec<u64> = (0..cfg.files)
        .map(|_| sizes_dist.sample(&mut rng))
        .collect();
    let zipf = Zipf::new(cfg.files, cfg.zipf_alpha);
    let streams = (0..clients)
        .map(|c| {
            let mut rng =
                SmallRng::seed_from_u64(cfg.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9));
            (0..cfg.ops_per_client)
                .map(|_| {
                    let file = zipf.sample(&mut rng);
                    let size = file_sizes[file].max(1);
                    let p: f64 = rng.gen();
                    if p < cfg.stat_fraction {
                        TraceOp::Stat { file }
                    } else {
                        let len = rng.gen_range(1..=size.min(64 << 10));
                        let offset = rng.gen_range(0..=size - len);
                        if p < cfg.stat_fraction + cfg.write_fraction {
                            TraceOp::Write { file, offset, len }
                        } else {
                            TraceOp::Read { file, offset, len }
                        }
                    }
                })
                .collect()
        })
        .collect();
    Trace {
        file_sizes,
        streams,
    }
}

/// Replay outputs: every op's latency in nanoseconds, per op kind, each
/// sorted.
pub struct ReplayResult {
    /// stat latencies.
    pub stat: Vec<u64>,
    /// read latencies.
    pub read: Vec<u64>,
    /// write latencies.
    pub write: Vec<u64>,
    /// Total virtual seconds for the whole replay.
    pub wall_secs: f64,
    /// Full per-tier metrics snapshot from [`Deployment::metrics`].
    pub metrics: Snapshot,
}

/// Replay a trace against a system. Files are pre-created and pre-filled
/// (untimed), all clients keep their fds open (no purge churn), and every
/// read is verified against the expected fill pattern length.
pub fn replay(spec: &SystemSpec, cfg: &TraceConfig, clients: usize) -> ReplayResult {
    let trace = Rc::new(generate(cfg, clients));
    let mut sim = Sim::new(cfg.seed);
    let dep = Rc::new(Deployment::build(sim.handle(), spec));
    let h = sim.handle();
    let barrier = Barrier::new(clients + 1);
    let [stat, read, write]: [Rc<RefCell<Vec<u64>>>; 3] = Default::default();

    // Setup: one client creates and fills every file.
    {
        let dep = Rc::clone(&dep);
        let trace = Rc::clone(&trace);
        let barrier = barrier.clone();
        sim.spawn(async move {
            let m = dep.mount();
            for (i, &size) in trace.file_sizes.iter().enumerate() {
                let path = format!("/trace/f{i:05}");
                m.create(&path).await;
                let fd = m.open(&path).await;
                m.write(&fd, 0, &vec![(i % 251) as u8; size as usize]).await;
                m.close(fd).await;
            }
            barrier.wait().await;
        });
    }

    for (cid, stream) in trace.streams.iter().enumerate() {
        let dep = Rc::clone(&dep);
        let stream = stream.clone();
        let barrier = barrier.clone();
        let h = h.clone();
        let [stat, read, write] = [&stat, &read, &write].map(Rc::clone);
        sim.spawn(async move {
            let m = dep.mount();
            let mut fds: std::collections::HashMap<usize, FsHandle> =
                std::collections::HashMap::new();
            barrier.wait().await;
            // Small per-client start skew (see latbench).
            h.sleep(SimDuration::micros(2 * cid as u64)).await;
            for op in stream {
                let t0 = h.now();
                match op {
                    TraceOp::Stat { file } => {
                        m.stat(&format!("/trace/f{file:05}")).await;
                        stat.borrow_mut().push(h.now().since(t0).as_nanos());
                    }
                    TraceOp::Read { file, offset, len } => {
                        if let std::collections::hash_map::Entry::Vacant(e) = fds.entry(file) {
                            let fd = m.open(&format!("/trace/f{file:05}")).await;
                            e.insert(fd);
                        }
                        let t0 = h.now();
                        let got = m.read(&fds[&file], offset, len).await;
                        assert!(got.len() as u64 <= len);
                        read.borrow_mut().push(h.now().since(t0).as_nanos());
                    }
                    TraceOp::Write { file, offset, len } => {
                        if let std::collections::hash_map::Entry::Vacant(e) = fds.entry(file) {
                            let fd = m.open(&format!("/trace/f{file:05}")).await;
                            e.insert(fd);
                        }
                        let t0 = h.now();
                        m.write(&fds[&file], offset, &vec![(file % 251) as u8; len as usize])
                            .await;
                        write.borrow_mut().push(h.now().since(t0).as_nanos());
                    }
                }
            }
        });
    }

    let summary = sim.run();
    let [stat, read, write] = [stat, read, write].map(|ns| {
        let mut ns = ns.take();
        ns.sort_unstable();
        ns
    });
    ReplayResult {
        stat,
        read,
        write,
        wall_secs: summary.end_time.as_secs_f64(),
        metrics: dep.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_dominates() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With α=1 over 1000 items, ranks 0..10 carry ~39% of mass.
        let frac = head as f64 / n as f64;
        assert!((0.3..0.5).contains(&frac), "head fraction {frac}");
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max < min * 2, "not uniform: min={min} max={max}");
    }

    #[test]
    fn file_sizes_respect_bounds_and_median() {
        let d = FileSizes::datacenter_small();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sizes: Vec<u64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
        sizes.sort_unstable();
        assert!(*sizes.first().unwrap() >= 256);
        assert!(*sizes.last().unwrap() <= 1 << 20);
        let median = sizes[sizes.len() / 2];
        assert!((4 << 10..16 << 10).contains(&median), "median {median}");
    }

    #[test]
    fn trace_generation_is_deterministic() {
        let cfg = TraceConfig::default();
        let a = generate(&cfg, 3);
        let b = generate(&cfg, 3);
        assert_eq!(a.file_sizes, b.file_sizes);
        assert_eq!(a.streams, b.streams);
        // Different clients get different streams.
        assert_ne!(a.streams[0], a.streams[1]);
    }

    #[test]
    fn ops_are_within_file_bounds() {
        let cfg = TraceConfig {
            files: 50,
            ops_per_client: 500,
            ..TraceConfig::default()
        };
        let t = generate(&cfg, 2);
        for stream in &t.streams {
            for op in stream {
                if let TraceOp::Read { file, offset, len } | TraceOp::Write { file, offset, len } =
                    op
                {
                    assert!(offset + len <= t.file_sizes[*file].max(1));
                    assert!(*len >= 1);
                }
            }
        }
    }

    #[test]
    fn replay_runs_against_imca_and_reports() {
        let cfg = TraceConfig {
            files: 24,
            ops_per_client: 40,
            ..TraceConfig::default()
        };
        let r = replay(&SystemSpec::imca(2), &cfg, 3);
        assert!(!r.stat.is_empty());
        assert!(!r.read.is_empty());
        assert!(r.wall_secs > 0.0);
        // stat through the bank is cheaper than a data read on average.
        let mean = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len() as f64;
        assert!(mean(&r.stat) <= mean(&r.read));
    }
}

//! IOzone-style multi-stream read throughput (§5.5 Fig 9, and the
//! motivation experiment Fig 1).
//!
//! Each thread owns one file; the write phase is untimed, the sequential
//! re-read pass is timed; aggregate throughput is total bytes over the
//! slowest thread's wall time (IOzone `-t` semantics).

use std::future::Future;
use std::rc::Rc;

use imca_fabric::Transport;
use imca_metrics::Snapshot;
use imca_nfs::{NfsCluster, NfsConfig};
use imca_sim::sync::Barrier;
use imca_sim::{Sim, SimHandle};

use crate::system::{Deployment, SystemSpec};

/// IOzone run parameters (GlusterFS / IMCa / Lustre systems).
#[derive(Debug, Clone)]
pub struct IozoneBench {
    /// System under test.
    pub spec: SystemSpec,
    /// Number of IOzone threads (each on its own client node).
    pub threads: usize,
    /// Bytes per file (1 GB at paper scale).
    pub file_size: u64,
    /// Read record size (2 KB in Fig 9).
    pub record_size: u64,
    /// Outstanding reads per thread. Throughput runs are not latency-bound
    /// in practice — the kernel read-ahead (and IOzone async modes) keep
    /// several requests in flight; a pipeline of 1 would make every record
    /// pay a full round trip and no system could approach wire bandwidth.
    pub pipeline: usize,
    /// Simulation seed.
    pub seed: u64,
}

/// IOzone outputs.
#[derive(Debug, Clone)]
pub struct IozoneResult {
    /// Aggregate read throughput in MB/s (total bytes / slowest thread).
    pub read_mb_s: f64,
    /// Per-thread MB/s.
    pub per_thread: Vec<f64>,
    /// Full per-tier metrics snapshot from [`Deployment::metrics`].
    pub metrics: Snapshot,
}

/// Chunk size used for the untimed write phase (bigger chunks keep the
/// setup fast; SMCache still populates per-block).
const WRITE_CHUNK: u64 = 64 * 1024;

/// The byte the write phase leaves at file offset `off`: each
/// `WRITE_CHUNK` is filled with one byte, taken from its start offset.
fn fill_byte(off: u64) -> u8 {
    (((off - off % WRITE_CHUNK) >> 12) & 0xFF) as u8
}

/// Panic unless `got` is the `n` bytes at `off` that `expect` says.
fn check_read(got: &[u8], off: u64, n: u64, expect: impl Fn(u64) -> u8) {
    assert!(
        got.len() == n as usize && (off..).zip(got).all(|(o, &b)| b == expect(o)),
        "data corruption reading {n} bytes at offset {off}"
    );
}

/// One IOzone thread, whichever system it drives: the untimed write
/// phase in `WRITE_CHUNK` pieces (`write(offset, len)`), a barrier with
/// every other thread, then the timed read pass as `pipeline` sequential
/// substreams run concurrently — the read-ahead pipelining described on
/// [`IozoneBench`] — each covering a contiguous share of the file in
/// `record_size` reads (`read(offset, len)`). Returns the read pass's
/// virtual seconds.
async fn write_then_read<W, WF, R, RF>(
    h: &SimHandle,
    barrier: &Barrier,
    file_size: u64,
    record_size: u64,
    pipeline: usize,
    write: W,
    read: R,
) -> f64
where
    W: Fn(u64, u64) -> WF,
    WF: Future<Output = ()>,
    R: Fn(u64, u64) -> RF + Clone + 'static,
    RF: Future<Output = ()>,
{
    let mut off = 0u64;
    while off < file_size {
        let n = WRITE_CHUNK.min(file_size - off);
        write(off, n).await;
        off += n;
    }
    barrier.wait().await;
    let t0 = h.now();
    let pipeline = pipeline.max(1) as u64;
    let share = file_size.div_ceil(pipeline);
    let substreams: Vec<_> = (0..pipeline)
        .map(|w| {
            let read = read.clone();
            let start = w * share;
            let end = ((w + 1) * share).min(file_size);
            async move {
                let mut off = start;
                while off < end {
                    let n = record_size.min(end - off);
                    read(off, n).await;
                    off += n;
                }
            }
        })
        .collect();
    imca_sim::join_all(h, substreams).await;
    h.now().since(t0).as_secs_f64()
}

/// Aggregate MB/s of threads that each read `file_size` bytes in `times`
/// seconds: total bytes over the slowest thread's time.
fn aggregate_mb_s(file_size: u64, times: &[f64]) -> f64 {
    let slowest = times.iter().cloned().fold(0.0f64, f64::max);
    file_size as f64 * times.len() as f64 / slowest / 1e6
}

/// Run the IOzone read-throughput benchmark.
pub fn run(cfg: &IozoneBench) -> IozoneResult {
    let mut sim = Sim::new(cfg.seed);
    let dep = Rc::new(Deployment::build(sim.handle(), &cfg.spec));
    let h = sim.handle();
    let barrier = Barrier::new(cfg.threads);

    let mut threads = Vec::new();
    for t in 0..cfg.threads {
        let dep = Rc::clone(&dep);
        let barrier = barrier.clone();
        let h = h.clone();
        let cfg = cfg.clone();
        threads.push(async move {
            let cli = dep.mount();
            let path = format!("/bench/iozone/t{t}");
            cli.create(&path).await;
            let fd = cli.open(&path).await;
            let (c, f) = (&cli, &fd);
            let write = move |off: u64, n: u64| async move {
                c.write(f, off, &vec![fill_byte(off); n as usize]).await
            };
            let (c, f) = (cli.clone(), fd.clone());
            let read = move |off: u64, n: u64| {
                let (c, f) = (c.clone(), f.clone());
                async move {
                    check_read(&c.read(&f, off, n).await, off, n, fill_byte);
                }
            };
            let secs = write_then_read(
                &h,
                &barrier,
                cfg.file_size,
                cfg.record_size,
                cfg.pipeline,
                write,
                read,
            )
            .await;
            cli.close(fd).await;
            secs
        });
    }

    let times = sim.run_main(async move { imca_sim::join_all(&h, threads).await });
    IozoneResult {
        read_mb_s: aggregate_mb_s(cfg.file_size, &times),
        per_thread: times
            .iter()
            .map(|t| cfg.file_size as f64 / t / 1e6)
            .collect(),
        metrics: dep.metrics(),
    }
}

/// Fig 1 parameters: multi-client NFS read bandwidth.
#[derive(Debug, Clone)]
pub struct NfsIozoneBench {
    /// Transport (RDMA / IPoIB / GigE).
    pub transport: Transport,
    /// Server memory (4 GB vs 8 GB in the paper).
    pub server_memory: u64,
    /// Number of clients, each with its own file.
    pub clients: usize,
    /// Bytes per file.
    pub file_size: u64,
    /// Read record size.
    pub record_size: u64,
    /// Outstanding reads per client (see [`IozoneBench::pipeline`]).
    pub pipeline: usize,
    /// Simulation seed.
    pub seed: u64,
}

/// Fig 1 NFS experiment outputs.
#[derive(Debug, Clone)]
pub struct NfsIozoneResult {
    /// Aggregate read throughput in MB/s.
    pub read_mb_s: f64,
    /// Metrics snapshot from [`NfsCluster::metrics`] (fabric + storage).
    pub metrics: Snapshot,
}

/// Run the Fig 1 NFS experiment.
pub fn run_nfs(cfg: &NfsIozoneBench) -> NfsIozoneResult {
    let mut sim = Sim::new(cfg.seed);
    let cluster = Rc::new(NfsCluster::build(
        sim.handle(),
        NfsConfig::new(cfg.transport.clone(), cfg.server_memory),
    ));
    let h = sim.handle();
    let barrier = Barrier::new(cfg.clients);

    let mut clients = Vec::new();
    for c in 0..cfg.clients {
        let cluster = Rc::clone(&cluster);
        let barrier = barrier.clone();
        let h = h.clone();
        let cfg = cfg.clone();
        clients.push(async move {
            let cli = Rc::new(cluster.mount());
            let file = c as u64 + 1;
            let write = |off: u64, n: u64| cli.write(file, off, vec![0xAB; n as usize]);
            let reader = Rc::clone(&cli);
            let read = move |off: u64, n: u64| {
                let cli = Rc::clone(&reader);
                async move { check_read(&cli.read(file, off, n).await, off, n, |_| 0xAB) }
            };
            let secs = write_then_read(
                &h,
                &barrier,
                cfg.file_size,
                cfg.record_size,
                cfg.pipeline,
                write,
                read,
            )
            .await;
            secs
        });
    }

    let times = sim.run_main(async move { imca_sim::join_all(&h, clients).await });
    NfsIozoneResult {
        read_mb_s: aggregate_mb_s(cfg.file_size, &times),
        metrics: cluster.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_core::ImcaConfig;
    use imca_memcached::McConfig;

    fn bench(spec: SystemSpec, threads: usize) -> IozoneResult {
        run(&IozoneBench {
            spec,
            threads,
            file_size: 1 << 20, // 1 MB per thread keeps tests quick
            record_size: 2048,
            pipeline: 8,
            seed: 5,
        })
    }

    /// Fig 9's core claim: more MCDs give more aggregate read bandwidth
    /// than the single NoCache server.
    #[test]
    fn mcd_bank_scales_read_throughput() {
        let spec = |mcds: usize| {
            SystemSpec::Imca(ImcaConfig {
                mcd_count: mcds,
                selector: imca_memcached::Selector::Modulo, // §5.5 round-robin
                mcd_config: McConfig::with_mem_limit(1 << 30),
                ..ImcaConfig::default()
            })
        };
        let nocache = bench(SystemSpec::GlusterNoCache, 4).read_mb_s;
        let four = bench(spec(4), 4).read_mb_s;
        assert!(
            four > nocache,
            "MCD(4)={four:.0}MB/s NoCache={nocache:.0}MB/s"
        );
        let one = bench(spec(1), 4).read_mb_s;
        assert!(four > one, "MCD(4)={four:.0} MCD(1)={one:.0}");
    }

    #[test]
    fn per_thread_throughputs_are_reported() {
        let r = bench(SystemSpec::GlusterNoCache, 3);
        assert_eq!(r.per_thread.len(), 3);
        assert!(r.per_thread.iter().all(|v| *v > 0.0));
    }

    /// Fig 1 shape: with a small server memory, adding clients makes the
    /// aggregate working set spill to disk and bandwidth collapses
    /// relative to the big-memory server.
    #[test]
    fn nfs_bandwidth_tracks_server_memory() {
        let run_mem = |mem: u64| {
            run_nfs(&NfsIozoneBench {
                transport: Transport::ipoib_ddr(),
                server_memory: mem,
                clients: 4,
                file_size: 2 << 20,
                record_size: 64 * 1024,
                pipeline: 4,
                seed: 5,
            })
            .read_mb_s
        };
        let big = run_mem(64 << 20); // all 8 MB of files fit
        let small = run_mem(2 << 20); // thrash
        assert!(big > small * 2.0, "big={big:.0} small={small:.0}");
    }

    /// Fig 1 transport ordering when the working set fits in memory.
    #[test]
    fn nfs_transport_ordering() {
        let run_t = |t: Transport| {
            run_nfs(&NfsIozoneBench {
                transport: t,
                server_memory: 64 << 20,
                clients: 2,
                file_size: 2 << 20,
                record_size: 64 * 1024,
                pipeline: 4,
                seed: 5,
            })
            .read_mb_s
        };
        let rdma = run_t(Transport::rdma_ddr());
        let ipoib = run_t(Transport::ipoib_ddr());
        let gige = run_t(Transport::gige());
        assert!(
            rdma > ipoib && ipoib > gige,
            "rdma={rdma:.0} ipoib={ipoib:.0} gige={gige:.0}"
        );
    }
}

//! # imca-nfs — the single-server NFS model (motivation, Fig 1)
//!
//! The paper motivates IMCa with NFS/RDMA measurements: multi-client IOzone
//! read bandwidth tracks the server's memory size — once the aggregate
//! working set exceeds the server's page cache, every transport (RDMA,
//! IPoIB, GigE) collapses to disk bandwidth (Fig 1(a): 4 GB server memory;
//! Fig 1(b): 8 GB).
//!
//! This crate models exactly that system: one NFS server with a bounded
//! page cache over the RAID, three transport presets, and a minimal
//! read/write client. No client-side caching (IOzone with `-c -e` style
//! direct measurement).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use imca_fabric::{Network, RpcClient, Service, Transport, WireSize, Workers};
use imca_metrics::{MetricSource, Snapshot};
use imca_sim::{SimDuration, SimHandle};
use imca_storage::{BackendParams, FileId, StorageBackend};

const HDR: usize = 128; // NFS RPC headers
/// Server CPU per RPC (NFSD + VFS overheads RDMA cannot remove, §3).
const OP_CPU: SimDuration = SimDuration::micros(10);
/// NFSD worker threads.
const NFSD_THREADS: usize = 8;

/// NFS requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsReq {
    /// Read `len` bytes of `file` at `offset`.
    Read {
        /// File handle.
        file: u64,
        /// Byte offset.
        offset: u64,
        /// Length.
        len: u64,
    },
    /// Write `data` to `file` at `offset`.
    Write {
        /// File handle.
        file: u64,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
}

impl WireSize for NfsReq {
    fn wire_bytes(&self) -> usize {
        match self {
            NfsReq::Read { .. } => HDR,
            NfsReq::Write { data, .. } => HDR + data.len(),
        }
    }
}

/// NFS responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsResp {
    /// Read payload.
    Data(Vec<u8>),
    /// Write acknowledgement.
    Ok,
}

impl WireSize for NfsResp {
    fn wire_bytes(&self) -> usize {
        match self {
            NfsResp::Data(d) => HDR + d.len(),
            NfsResp::Ok => HDR,
        }
    }
}

/// Server parameters for the motivation experiment: the paper's testbed
/// server (its storage stack, 8 NFSD threads, 10 µs of CPU per RPC) with
/// the two values Fig 1 varies.
#[derive(Debug, Clone)]
pub struct NfsConfig {
    /// Network transport (the experiment compares RDMA / IPoIB / GigE).
    pub transport: Transport,
    /// Server memory available to the page cache (4 GB vs 8 GB in Fig 1).
    pub server_memory: u64,
}

impl NfsConfig {
    /// The paper's testbed server with the given transport and memory.
    pub fn new(transport: Transport, server_memory: u64) -> NfsConfig {
        NfsConfig {
            transport,
            server_memory,
        }
    }
}

/// One NFS request's work on the server's storage. The NFS comparison
/// model never installs a storage fault plan, so backend errors are
/// structurally impossible; Results collapse to benign defaults.
async fn serve_nfs(backend: StorageBackend, req: NfsReq) -> NfsResp {
    match req {
        NfsReq::Read { file, offset, len } => NfsResp::Data(
            backend
                .read(FileId(file), offset, len)
                .await
                .unwrap_or_default(),
        ),
        NfsReq::Write { file, offset, data } => {
            if !backend.exists(FileId(file)) {
                let _ = backend.create(FileId(file)).await;
            }
            let _ = backend.write(FileId(file), offset, &data).await;
            NfsResp::Ok
        }
    }
}

/// A running NFS server plus factory for clients.
pub struct NfsCluster {
    net: Network,
    svc: Service<NfsReq, NfsResp>,
    backend: StorageBackend,
}

impl NfsCluster {
    /// Start the server on a fresh network.
    pub fn build(handle: SimHandle, cfg: NfsConfig) -> NfsCluster {
        let net = Network::new(handle.clone(), cfg.transport.clone());
        let server_node = net.add_node();
        let backend = StorageBackend::new(
            handle.clone(),
            BackendParams::paper_server().with_cache_bytes(cfg.server_memory),
        );
        let svc = Service::bind(&net, server_node);
        let served = backend.clone();
        svc.serve(Workers::Cpu(NFSD_THREADS, OP_CPU), move |req| {
            serve_nfs(served.clone(), req)
        });
        NfsCluster { net, svc, backend }
    }

    /// Mount a client on a fresh fabric node.
    pub fn mount(&self) -> NfsClient {
        let node = self.net.add_node();
        NfsClient {
            rpc: self.svc.client(node),
        }
    }

    /// Drop the server page cache.
    pub fn drop_server_cache(&self) {
        self.backend.drop_caches();
    }

    /// One structured metrics snapshot covering the deployment's tiers
    /// (`fabric.*` and `storage.*`), in the workspace-wide
    /// `tier.component.metric` naming scheme.
    pub fn metrics(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.net.collect("fabric", &mut snap);
        self.backend.collect("storage", &mut snap);
        snap
    }
}

/// A mounted NFS client (no client cache).
pub struct NfsClient {
    rpc: RpcClient<NfsReq, NfsResp>,
}

impl NfsClient {
    /// Read over the wire.
    pub async fn read(&self, file: u64, offset: u64, len: u64) -> Vec<u8> {
        match self.rpc.call(NfsReq::Read { file, offset, len }).await {
            NfsResp::Data(d) => d,
            NfsResp::Ok => Vec::new(),
        }
    }

    /// Write over the wire.
    pub async fn write(&self, file: u64, offset: u64, data: Vec<u8>) {
        self.rpc.call(NfsReq::Write { file, offset, data }).await;
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use imca_sim::Sim;

    #[test]
    fn read_write_round_trip() {
        let mut sim = Sim::new(0);
        let cluster = Rc::new(NfsCluster::build(
            sim.handle(),
            NfsConfig::new(Transport::ipoib_ddr(), 1 << 30),
        ));
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let cli = c2.mount();
            cli.write(1, 0, b"network file system".to_vec()).await;
            let got = cli.read(1, 8, 4).await;
            assert_eq!(got, b"file");
        });
    }

    #[test]
    fn bandwidth_collapses_when_working_set_exceeds_server_memory() {
        // The Fig 1 knee, in miniature: clients re-read files; if they fit
        // in the server cache the reads are memory-speed, otherwise disk.
        fn run(server_mem: u64) -> f64 {
            let mut sim = Sim::new(0);
            let cluster = Rc::new(NfsCluster::build(
                sim.handle(),
                NfsConfig::new(Transport::ipoib_ddr(), server_mem),
            ));
            let c2 = Rc::clone(&cluster);
            let h = sim.handle();
            sim.run_main(async move {
                let cli = c2.mount();
                let file_len = 4 << 20; // 4 MB working set
                cli.write(1, 0, vec![7; file_len]).await;
                c2.drop_server_cache();
                // Prime pass (loads whatever fits).
                for off in (0..file_len as u64).step_by(64 * 1024) {
                    cli.read(1, off, 64 * 1024).await;
                }
                // Timed re-read pass.
                let t0 = h.now();
                for off in (0..file_len as u64).step_by(64 * 1024) {
                    cli.read(1, off, 64 * 1024).await;
                }
                let secs = h.now().since(t0).as_secs_f64();
                file_len as f64 / secs / 1e6
            })
        }
        let big_mem = run(64 << 20); // cache holds the file
        let small_mem = run(1 << 20); // cache thrashes
        assert!(
            big_mem > small_mem * 3.0,
            "big={big_mem:.1}MB/s small={small_mem:.1}MB/s"
        );
    }

    #[test]
    fn transports_rank_correctly_for_cached_reads() {
        fn run(t: Transport) -> u64 {
            let mut sim = Sim::new(0);
            let cluster = Rc::new(NfsCluster::build(sim.handle(), NfsConfig::new(t, 1 << 30)));
            let c2 = Rc::clone(&cluster);
            sim.run_main(async move {
                let cli = c2.mount();
                cli.write(1, 0, vec![1; 1 << 20]).await;
                for off in (0..1 << 20).step_by(64 * 1024) {
                    cli.read(1, off as u64, 64 * 1024).await;
                }
            });
            sim.now().as_nanos()
        }
        let rdma = run(Transport::rdma_ddr());
        let ipoib = run(Transport::ipoib_ddr());
        let gige = run(Transport::gige());
        assert!(rdma < ipoib, "rdma={rdma} ipoib={ipoib}");
        assert!(ipoib < gige, "ipoib={ipoib} gige={gige}");
    }
}

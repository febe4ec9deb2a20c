//! A uniform face over the three systems the paper compares: native
//! GlusterFS ("NoCache"), GlusterFS+IMCa ("MCD (x)"), and Lustre
//! ("Lustre-xDS (Warm|Cold)") — so each benchmark driver is written once.

use std::rc::Rc;

use imca_core::{Cluster, ClusterConfig, CmCache, ImcaConfig, MetaConfig, Replication, StatResult};
use imca_glusterfs::GlusterMount;
use imca_lustre::{LustreClient, LustreCluster, LustreConfig};
use imca_metrics::Snapshot;
use imca_sim::SimHandle;

/// Which system to deploy, in the paper's vocabulary.
// A sweep holds a handful of specs; the IMCa variant's size is no cost.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum SystemSpec {
    /// GlusterFS in its default configuration (legend *NoCache*).
    GlusterNoCache,
    /// GlusterFS with the IMCa layer (legend *MCD (x)*), deployed as
    /// the [`ImcaConfig`] describes.
    Imca(ImcaConfig),
    /// Lustre with `osts` data servers; `warm` keeps the client cache
    /// between the write and read phases, cold drops it (remount).
    Lustre {
        /// Number of data servers (1DS / 4DS).
        osts: usize,
        /// Warm or cold client cache.
        warm: bool,
    },
}

impl SystemSpec {
    /// IMCa with paper defaults and `n` daemons.
    pub fn imca(n: usize) -> SystemSpec {
        SystemSpec::Imca(ImcaConfig::with_mcds(n))
    }

    /// [`SystemSpec::imca`] with a metadata-tier policy (the
    /// `ablate_metadata` sweep).
    pub fn imca_meta(n: usize, meta: MetaConfig) -> SystemSpec {
        SystemSpec::Imca(ImcaConfig {
            meta,
            ..ImcaConfig::with_mcds(n)
        })
    }

    /// [`SystemSpec::imca`] with a bank replication factor (the
    /// `ablate_replication` sweep).
    pub fn imca_replicated(n: usize, r: usize) -> SystemSpec {
        SystemSpec::Imca(ImcaConfig {
            replication: Replication { factor: r },
            ..ImcaConfig::with_mcds(n)
        })
    }

    /// The [`ClusterConfig`] this spec deploys, for specs that run on
    /// GlusterFS; `None` for Lustre.
    pub fn cluster_config(&self) -> Option<ClusterConfig> {
        match self {
            SystemSpec::GlusterNoCache => Some(ClusterConfig::nocache()),
            SystemSpec::Imca(imca) => Some(ClusterConfig::imca(imca.clone())),
            SystemSpec::Lustre { .. } => None,
        }
    }

    /// Short label for report tables, matching the paper's legends.
    pub fn label(&self) -> String {
        match self {
            SystemSpec::GlusterNoCache => "NoCache".into(),
            SystemSpec::Imca(imca) => format!("MCD ({})", imca.mcd_count),
            SystemSpec::Lustre { osts, warm } => {
                format!("Lustre-{osts}DS ({})", if *warm { "Warm" } else { "Cold" })
            }
        }
    }
}

/// A deployed system.
pub enum Deployment {
    /// GlusterFS (with or without IMCa).
    Gluster(Rc<Cluster>),
    /// Lustre.
    Lustre(Rc<LustreCluster>),
}

impl Deployment {
    /// Deploy `spec` on a fresh network.
    pub fn build(handle: SimHandle, spec: &SystemSpec) -> Deployment {
        match spec {
            SystemSpec::GlusterNoCache => {
                Deployment::Gluster(Rc::new(Cluster::build(handle, ClusterConfig::nocache())))
            }
            SystemSpec::Imca(imca) => Deployment::Gluster(Rc::new(Cluster::build(
                handle,
                ClusterConfig::imca(imca.clone()),
            ))),
            SystemSpec::Lustre { osts, .. } => Deployment::Lustre(Rc::new(LustreCluster::build(
                handle,
                LustreConfig::with_osts(*osts),
            ))),
        }
    }

    /// Mount a client on its own fabric node.
    pub fn mount(&self) -> FsClient {
        match self {
            Deployment::Gluster(c) => {
                let (mount, cm) = c.mount_with_meta();
                FsClient::Gluster(mount, cm)
            }
            Deployment::Lustre(c) => FsClient::Lustre(c.mount()),
        }
    }

    /// The GlusterFS cluster, when this deployment is one.
    pub fn gluster(&self) -> Option<&Rc<Cluster>> {
        match self {
            Deployment::Gluster(c) => Some(c),
            Deployment::Lustre(_) => None,
        }
    }

    /// One structured metrics document for the deployed system, in the
    /// workspace-wide `tier.component.metric` naming scheme. GlusterFS
    /// deployments report every instrumented tier (fabric, storage,
    /// translators, bank, CM/SMCache); the Lustre model only exposes its
    /// lock-revocation count.
    pub fn metrics(&self) -> Snapshot {
        match self {
            Deployment::Gluster(c) => c.metrics(),
            Deployment::Lustre(c) => {
                let mut snap = Snapshot::new();
                snap.set_counter("lustre.lock_revocations", c.revocations());
                snap
            }
        }
    }
}

/// A mounted client of either system, with the operations the benchmarks
/// need. All paths are absolute strings, as in the paper's key schema.
#[derive(Clone)]
pub enum FsClient {
    /// GlusterFS mount, with this client's CMCache when the deployment
    /// runs IMCa (`None` for NoCache). The CMCache is the mount's
    /// metadata surface: `stat_multi` and provenance live there.
    Gluster(Rc<GlusterMount>, Option<Rc<CmCache>>),
    /// Lustre mount.
    Lustre(Rc<LustreClient>),
}

impl FsClient {
    /// Create an empty file.
    pub async fn create(&self, path: &str) {
        match self {
            FsClient::Gluster(m, _) => {
                m.create(path).await.expect("create failed");
            }
            FsClient::Lustre(c) => {
                assert!(c.create(path).await, "create failed");
            }
        }
    }

    /// Open a file, returning an opaque handle usable with read/write.
    pub async fn open(&self, path: &str) -> FsHandle {
        match self {
            FsClient::Gluster(m, _) => FsHandle::Gluster(m.open(path).await.expect("open failed")),
            FsClient::Lustre(c) => {
                assert!(c.open(path).await, "open failed");
                FsHandle::Lustre(path.to_string())
            }
        }
    }

    /// Read through an open handle.
    pub async fn read(&self, h: &FsHandle, offset: u64, len: u64) -> Vec<u8> {
        match (self, h) {
            (FsClient::Gluster(m, _), FsHandle::Gluster(fd)) => {
                m.read(*fd, offset, len).await.expect("read failed")
            }
            (FsClient::Lustre(c), FsHandle::Lustre(path)) => {
                c.read(path, offset, len).await.expect("read failed")
            }
            _ => panic!("handle does not belong to this client"),
        }
    }

    /// Write through an open handle.
    pub async fn write(&self, h: &FsHandle, offset: u64, data: &[u8]) {
        match (self, h) {
            (FsClient::Gluster(m, _), FsHandle::Gluster(fd)) => {
                m.write(*fd, offset, data).await.expect("write failed");
            }
            (FsClient::Lustre(c), FsHandle::Lustre(path)) => {
                assert!(c.write(path, offset, data).await, "write failed");
            }
            _ => panic!("handle does not belong to this client"),
        }
    }

    /// Stat by path. Returns the file size.
    pub async fn stat(&self, path: &str) -> u64 {
        match self {
            FsClient::Gluster(m, _) => m.stat(path).await.expect("stat failed").size,
            FsClient::Lustre(c) => c.stat(path).await.expect("stat failed").0,
        }
    }

    /// Stat by path without panicking on ENOENT: `None` for a missing
    /// file (the "ghost probe" in the ls-storm workload, exercising the
    /// negative-caching path), `Some(size)` otherwise.
    pub async fn try_stat(&self, path: &str) -> Option<u64> {
        match self {
            FsClient::Gluster(m, _) => m.stat(path).await.ok().map(|st| st.size),
            FsClient::Lustre(c) => c.stat(path).await.map(|t| t.0),
        }
    }

    /// Batched readdir+stat lookup over one directory window. On an IMCa
    /// mount this rides the metadata tier's `stat_multi` — leases served
    /// locally, the rest in one multi-key bank round and the bank's
    /// misses in one server fop, readdirplus-style (no per-op FUSE
    /// crossing). Other systems fall back to one stat
    /// per path, as does a degenerate one-entry window (no batch to
    /// ride). Returns `None` per missing file.
    pub async fn stat_multi(&self, paths: &[String]) -> Vec<Option<u64>> {
        match self {
            FsClient::Gluster(_, Some(cm)) if paths.len() > 1 => {
                let rs: Vec<StatResult> = cm.stat_multi(paths.to_vec()).await;
                rs.into_iter()
                    .map(|r| r.stat.ok().map(|st| st.size))
                    .collect()
            }
            _ => {
                let mut out = Vec::with_capacity(paths.len());
                for p in paths {
                    out.push(self.try_stat(p).await);
                }
                out
            }
        }
    }

    /// The mount's CMCache, when this is an IMCa client (provenance
    /// counters, lease table).
    pub fn cmcache(&self) -> Option<&Rc<CmCache>> {
        match self {
            FsClient::Gluster(_, cm) => cm.as_ref(),
            FsClient::Lustre(_) => None,
        }
    }

    /// Close an open handle.
    pub async fn close(&self, h: FsHandle) {
        match (self, h) {
            (FsClient::Gluster(m, _), FsHandle::Gluster(fd)) => {
                m.close(fd).await.expect("close failed");
            }
            (FsClient::Lustre(_), FsHandle::Lustre(_)) => {}
            _ => panic!("handle does not belong to this client"),
        }
    }

    /// Drop this client's local cache (Lustre cold configuration; no-op on
    /// GlusterFS, which has no client cache in the paper's setup).
    pub fn drop_client_cache(&self) {
        if let FsClient::Lustre(c) = self {
            c.drop_cache();
        }
    }
}

/// An open-file handle for [`FsClient`].
#[derive(Clone)]
pub enum FsHandle {
    /// GlusterFS descriptor.
    Gluster(imca_glusterfs::Fd),
    /// Lustre identifies files by path after open.
    Lustre(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_memcached::McConfig;
    use imca_sim::Sim;

    fn roundtrip(spec: SystemSpec) {
        let mut sim = Sim::new(3);
        let dep = Rc::new(Deployment::build(sim.handle(), &spec));
        let d2 = Rc::clone(&dep);
        sim.run_main(async move {
            let cli = d2.mount();
            cli.create("/t/f").await;
            let h = cli.open("/t/f").await;
            cli.write(&h, 0, b"unified interface").await;
            assert_eq!(cli.read(&h, 8, 9).await, b"interface");
            assert_eq!(cli.stat("/t/f").await, 17);
            cli.close(h).await;
        });
    }

    #[test]
    fn all_three_systems_speak_the_same_interface() {
        roundtrip(SystemSpec::GlusterNoCache);
        roundtrip(SystemSpec::Imca(ImcaConfig {
            mcd_config: McConfig::with_mem_limit(8 << 20),
            ..ImcaConfig::with_mcds(2)
        }));
        // And with the bank replicated across both daemons.
        roundtrip(SystemSpec::imca_replicated(2, 2));
        roundtrip(SystemSpec::Lustre {
            osts: 2,
            warm: true,
        });
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(SystemSpec::GlusterNoCache.label(), "NoCache");
        assert_eq!(SystemSpec::imca(4).label(), "MCD (4)");
        assert_eq!(
            SystemSpec::Lustre {
                osts: 4,
                warm: false
            }
            .label(),
            "Lustre-4DS (Cold)"
        );
    }
}

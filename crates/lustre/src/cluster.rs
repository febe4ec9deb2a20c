//! The Lustre deployment: MDS actor, OST actors, and the client with its
//! coherent cache.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use imca_fabric::{Network, RpcClient, Service, Transport, Workers};
use imca_sim::{join_all, SimDuration, SimHandle};
use imca_storage::{BackendParams, FileId, StorageBackend};

use crate::protocol::{MdsReq, MdsResp, OstReq, OstResp};

/// Stripe size (Lustre default 1 MB).
const STRIPE_SIZE: u64 = 1 << 20;
/// MDS CPU per metadata op.
const MDS_OP_CPU: SimDuration = SimDuration::micros(25);
/// Extra MDS CPU per lock acquisition.
const LOCK_CPU: SimDuration = SimDuration::micros(8);
/// MDS CPU per revocation callback to a conflicting client.
const REVOKE_CPU: SimDuration = SimDuration::micros(12);
/// OST CPU per object op.
const OST_OP_CPU: SimDuration = SimDuration::micros(10);
/// Client cache page size.
const PAGE_SIZE: u64 = 4096;

/// Deployment parameters (§5.1: Lustre 1.6.4.3, TCP over IPoIB, MDS on its
/// own node, 1 or 4 DSs, the paper's server storage under each OST).
#[derive(Debug, Clone)]
pub struct LustreConfig {
    /// Number of data servers (OSTs) — the paper's 1DS / 4DS.
    pub ost_count: usize,
}

impl LustreConfig {
    /// The paper's `Lustre-1DS` / `Lustre-4DS` configurations.
    pub fn with_osts(n: usize) -> LustreConfig {
        LustreConfig { ost_count: n }
    }
}

struct FileMeta {
    /// One object id per OST (objects are preallocated across the stripe
    /// set at create, as Lustre does).
    objects: Vec<u64>,
    size: u64,
    mtime_ns: u64,
    ctime_ns: u64,
}

/// Shared metadata store: the MDS actor charges time; data lives here.
#[derive(Default)]
struct MetaStore {
    files: HashMap<String, FileMeta>,
    next_object: u64,
}

/// Lock table: which clients hold (cached) locks per path.
#[derive(Default)]
struct LockTable {
    readers: HashMap<String, HashSet<u32>>,
    writer: HashMap<String, u32>,
}

/// Per-client coherency control shared with the MDS: paths whose cached
/// pages and locks were revoked.
type InvalSet = Rc<RefCell<HashSet<String>>>;

/// The metadata server: one service thread, so it serves one request at
/// a time in arrival order.
struct Mds {
    h: SimHandle,
    meta: Rc<RefCell<MetaStore>>,
    locks: RefCell<LockTable>,
    invals: RefCell<HashMap<u32, InvalSet>>,
    revocations: Cell<u64>,
    ost_count: usize,
}

impl Mds {
    async fn serve(self: Rc<Self>, req: MdsReq) -> MdsResp {
        self.h.sleep(MDS_OP_CPU).await;
        match req {
            MdsReq::Create { path } => {
                let mut m = self.meta.borrow_mut();
                if m.files.contains_key(&path) {
                    MdsResp::Err
                } else {
                    let objects = (0..self.ost_count)
                        .map(|_| {
                            m.next_object += 1;
                            m.next_object
                        })
                        .collect();
                    let now = self.h.now().as_nanos();
                    m.files.insert(
                        path,
                        FileMeta {
                            objects,
                            size: 0,
                            mtime_ns: now,
                            ctime_ns: now,
                        },
                    );
                    MdsResp::Ok {
                        mtime_ns: now,
                        ctime_ns: now,
                        revoked: 0,
                    }
                }
            }
            MdsReq::Open { path } | MdsReq::Getattr { path } => {
                match self.meta.borrow().files.get(&path) {
                    Some(f) => MdsResp::Ok {
                        mtime_ns: f.mtime_ns,
                        ctime_ns: f.ctime_ns,
                        revoked: 0,
                    },
                    None => MdsResp::Err,
                }
            }
            MdsReq::Unlink { path } => {
                if self.meta.borrow_mut().files.remove(&path).is_some() {
                    MdsResp::Ok {
                        mtime_ns: 0,
                        ctime_ns: 0,
                        revoked: 0,
                    }
                } else {
                    MdsResp::Err
                }
            }
            MdsReq::Lock {
                path,
                write,
                client,
            } => {
                self.h.sleep(LOCK_CPU).await;
                let mut revoked = 0u32;
                // Collect conflicting holders.
                let conflicts: Vec<u32> = {
                    let lt = self.locks.borrow();
                    let mut v = Vec::new();
                    if write {
                        if let Some(rs) = lt.readers.get(&path) {
                            v.extend(rs.iter().copied().filter(|c| *c != client));
                        }
                    }
                    if let Some(w) = lt.writer.get(&path) {
                        if *w != client {
                            v.push(*w);
                        }
                    }
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                for holder in conflicts {
                    // Revocation callback: MDS CPU + notifying
                    // the holder (we charge MDS-side cost; the
                    // holder drops its pages at next access).
                    self.h.sleep(REVOKE_CPU).await;
                    if let Some(set) = self.invals.borrow().get(&holder) {
                        set.borrow_mut().insert(path.clone());
                    }
                    let mut lt = self.locks.borrow_mut();
                    if let Some(rs) = lt.readers.get_mut(&path) {
                        rs.remove(&holder);
                    }
                    if lt.writer.get(&path) == Some(&holder) {
                        lt.writer.remove(&path);
                    }
                    revoked += 1;
                    self.revocations.set(self.revocations.get() + 1);
                }
                {
                    let mut lt = self.locks.borrow_mut();
                    if write {
                        lt.writer.insert(path.clone(), client);
                    } else {
                        lt.readers.entry(path.clone()).or_default().insert(client);
                    }
                }
                let m = self.meta.borrow();
                match m.files.get(&path) {
                    Some(f) => MdsResp::Ok {
                        mtime_ns: f.mtime_ns,
                        ctime_ns: f.ctime_ns,
                        revoked,
                    },
                    None => MdsResp::Err,
                }
            }
        }
    }
}

/// One OST request's work on its storage. The Lustre comparison model
/// never installs a storage fault plan, so backend errors are
/// structurally impossible; Results collapse to benign defaults rather
/// than growing the OST protocol an error variant it cannot exercise.
async fn serve_ost(backend: StorageBackend, req: OstReq) -> OstResp {
    match req {
        OstReq::Read {
            object,
            offset,
            len,
        } => {
            let data = backend
                .read(FileId(object), offset, len)
                .await
                .unwrap_or_default();
            OstResp::Data(data)
        }
        OstReq::Write {
            object,
            offset,
            data,
        } => {
            if !backend.exists(FileId(object)) {
                let _ = backend.create(FileId(object)).await;
            }
            let _ = backend.write(FileId(object), offset, &data).await;
            OstResp::Ok
        }
        OstReq::Glimpse { object } => {
            let size = backend
                .stat(FileId(object))
                .await
                .unwrap_or_default()
                .unwrap_or(0);
            OstResp::Size(size)
        }
        OstReq::Destroy { object } => {
            let _ = backend.remove(FileId(object)).await;
            OstResp::Ok
        }
    }
}

/// A built Lustre deployment.
pub struct LustreCluster {
    net: Network,
    handle: SimHandle,
    mds: Rc<Mds>,
    mds_svc: Service<MdsReq, MdsResp>,
    ost_svcs: Vec<Service<OstReq, OstResp>>,
    ost_backends: Vec<StorageBackend>,
    next_client: Cell<u32>,
}

impl LustreCluster {
    /// Build MDS + OSTs on a fresh network.
    pub fn build(handle: SimHandle, cfg: LustreConfig) -> LustreCluster {
        let net = Network::new(handle.clone(), Transport::ipoib_ddr());
        let mds = Rc::new(Mds {
            h: handle.clone(),
            meta: Rc::default(),
            locks: RefCell::default(),
            invals: RefCell::default(),
            revocations: Cell::new(0),
            ost_count: cfg.ost_count,
        });
        let mds_svc = Service::bind(&net, net.add_node());
        let served = Rc::clone(&mds);
        mds_svc.serve(Workers::Inline, move |req| Rc::clone(&served).serve(req));

        let mut ost_svcs = Vec::new();
        let mut ost_backends = Vec::new();
        for _ in 0..cfg.ost_count {
            let svc = Service::bind(&net, net.add_node());
            let backend = StorageBackend::new(handle.clone(), BackendParams::paper_server());
            let served = backend.clone();
            svc.serve(Workers::Cpu(2, OST_OP_CPU), move |req| {
                serve_ost(served.clone(), req)
            });
            ost_svcs.push(svc);
            ost_backends.push(backend);
        }

        LustreCluster {
            net,
            handle,
            mds,
            mds_svc,
            ost_svcs,
            ost_backends,
            next_client: Cell::new(0),
        }
    }

    /// Mount a client on a fresh fabric node.
    pub fn mount(&self) -> Rc<LustreClient> {
        let id = self.next_client.get();
        self.next_client.set(id + 1);
        let node = self.net.add_node();
        let inval: InvalSet = Rc::default();
        self.mds.invals.borrow_mut().insert(id, Rc::clone(&inval));
        Rc::new(LustreClient {
            id,
            handle: self.handle.clone(),
            mds: self.mds_svc.client(node),
            osts: self.ost_svcs.iter().map(|s| s.client(node)).collect(),
            meta: Rc::clone(&self.mds.meta),
            cache_data: RefCell::new(HashMap::new()),
            locks: RefCell::new(HashMap::new()),
            inval,
        })
    }

    /// Total revocation callbacks the MDS has issued.
    pub fn revocations(&self) -> u64 {
        self.mds.revocations.get()
    }

    /// Drop every OST's page cache (server-side cold start).
    pub fn drop_ost_caches(&self) {
        for b in &self.ost_backends {
            b.drop_caches();
        }
    }
}

/// A mounted Lustre client with a coherent local cache. The cache keeps
/// every page it reads or writes, unbounded, until
/// [`LustreClient::drop_cache`] or a lock revocation for its path drops it.
pub struct LustreClient {
    id: u32,
    handle: SimHandle,
    mds: RpcClient<MdsReq, MdsResp>,
    osts: Vec<RpcClient<OstReq, OstResp>>,
    meta: Rc<RefCell<MetaStore>>,
    cache_data: RefCell<HashMap<(String, u64), Vec<u8>>>,
    locks: RefCell<HashMap<String, bool>>,
    inval: InvalSet,
}

/// A stripe segment: (ost index, object id, object-local offset, length,
/// file offset).
type Segment = (usize, u64, u64, u64, u64);

impl LustreClient {
    fn segments(&self, objects: &[u64], offset: u64, len: u64) -> Vec<Segment> {
        let ss = STRIPE_SIZE;
        let n = self.osts.len() as u64;
        let mut out = Vec::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let stripe = pos / ss;
            let within = pos % ss;
            let take = (ss - within).min(end - pos);
            let ost = (stripe % n) as usize;
            let local = (stripe / n) * ss + within;
            out.push((ost, objects[ost], local, take, pos));
            pos += take;
        }
        out
    }

    /// Apply pending revocations: drop cached pages + locks for revoked
    /// paths (the client-side half of a lock callback).
    fn apply_invalidations(&self) {
        let paths: Vec<String> = self.inval.borrow_mut().drain().collect();
        for p in paths {
            self.locks.borrow_mut().remove(&p);
            self.cache_data.borrow_mut().retain(|(cp, _), _| cp != &p);
        }
    }

    async fn ensure_lock(&self, path: &str, write: bool) {
        self.apply_invalidations();
        let have = self.locks.borrow().get(path).copied();
        let sufficient = matches!(have, Some(true)) || (!write && have.is_some());
        if sufficient {
            return;
        }
        let resp = self
            .mds
            .call(MdsReq::Lock {
                path: path.to_string(),
                write,
                client: self.id,
            })
            .await;
        if matches!(resp, MdsResp::Ok { .. }) {
            self.locks.borrow_mut().insert(path.to_string(), write);
        }
    }

    /// Create an (empty, striped) file.
    pub async fn create(&self, path: &str) -> bool {
        matches!(
            self.mds.call(MdsReq::Create { path: path.into() }).await,
            MdsResp::Ok { .. }
        )
    }

    /// Open: one MDS round trip (layout fetch).
    pub async fn open(&self, path: &str) -> bool {
        matches!(
            self.mds.call(MdsReq::Open { path: path.into() }).await,
            MdsResp::Ok { .. }
        )
    }

    /// stat: MDS getattr + a glimpse to every OST in the stripe set.
    pub async fn stat(&self, path: &str) -> Option<(u64, u64)> {
        let resp = self.mds.call(MdsReq::Getattr { path: path.into() }).await;
        let MdsResp::Ok { mtime_ns, .. } = resp else {
            return None;
        };
        let objects = {
            let m = self.meta.borrow();
            m.files.get(path)?.objects.clone()
        };
        // Glimpse fan-out (this is what makes Lustre stat heavy).
        let glimpses: Vec<_> = objects
            .iter()
            .enumerate()
            .map(|(i, &obj)| {
                let ost = self.osts[i].clone();
                async move { ost.call(OstReq::Glimpse { object: obj }).await }
            })
            .collect();
        join_all(&self.handle, glimpses).await;
        let size = self.meta.borrow().files.get(path)?.size;
        Some((size, mtime_ns))
    }

    /// Read, serving from the coherent client cache when possible.
    pub async fn read(&self, path: &str, offset: u64, len: u64) -> Option<Vec<u8>> {
        self.apply_invalidations();
        if len == 0 {
            return Some(Vec::new());
        }
        let (objects, fsize) = {
            let m = self.meta.borrow();
            let f = m.files.get(path)?;
            (f.objects.clone(), f.size)
        };
        let end = (offset + len).min(fsize);
        if offset >= end {
            return Some(Vec::new());
        }
        let len = end - offset;
        // Cache check: all covering pages present?
        let ps = PAGE_SIZE;
        let first = offset / ps;
        let last = (end - 1) / ps;
        let all_cached = {
            let data = self.cache_data.borrow();
            (first..=last).all(|p| data.contains_key(&(path.to_string(), p)))
        };
        if all_cached {
            // Assemble from cached pages; a page too short to supply its
            // share (a partial prefix that does not reach our range) sends
            // us to the miss path instead of silently truncating.
            let assembled = {
                let data = self.cache_data.borrow();
                let mut out = Vec::with_capacity(len as usize);
                let mut ok = true;
                for p in first..=last {
                    let page = &data[&(path.to_string(), p)];
                    let pstart = p * ps;
                    let from = offset.max(pstart) - pstart;
                    let to = end.min(pstart + ps) - pstart;
                    if (page.len() as u64) < to {
                        ok = false;
                        break;
                    }
                    out.extend_from_slice(&page[from as usize..to as usize]);
                }
                ok.then_some(out)
            };
            if let Some(out) = assembled {
                // Local memcpy only.
                let t = SimDuration::from_secs_f64(len as f64 / 3e9) + SimDuration::nanos(300);
                self.handle.sleep(t).await;
                return Some(out);
            }
        }
        // Miss: lock, fetch stripes, fill cache.
        self.ensure_lock(path, false).await;
        let segs = self.segments(&objects, offset, len);
        let fetches: Vec<_> = segs
            .iter()
            .map(|&(ost, obj, local, slen, _)| {
                let cli = self.osts[ost].clone();
                async move {
                    match cli
                        .call(OstReq::Read {
                            object: obj,
                            offset: local,
                            len: slen,
                        })
                        .await
                    {
                        OstResp::Data(d) => d,
                        _ => Vec::new(),
                    }
                }
            })
            .collect();
        let parts = join_all(&self.handle, fetches).await;
        let mut out = Vec::with_capacity(len as usize);
        for p in parts {
            out.extend_from_slice(&p);
        }
        // Fill the local cache page by page.
        {
            let mut data = self.cache_data.borrow_mut();
            for p in first..=last {
                let pstart = p * ps;
                if pstart < offset || pstart + ps > end {
                    continue; // only cache fully-covered pages
                }
                let rel = (pstart - offset) as usize;
                let page = out[rel..(rel + ps as usize).min(out.len())].to_vec();
                data.insert((path.to_string(), p), page);
            }
        }
        Some(out)
    }

    /// Write through to the OSTs (Lustre flushes before lock release; we
    /// write through directly).
    pub async fn write(&self, path: &str, offset: u64, data: &[u8]) -> bool {
        self.ensure_lock(path, true).await;
        let objects = {
            let m = self.meta.borrow();
            match m.files.get(path) {
                Some(f) => f.objects.clone(),
                None => return false,
            }
        };
        let segs = self.segments(&objects, offset, data.len() as u64);
        let writes: Vec<_> = segs
            .iter()
            .map(|&(ost, obj, local, slen, fpos)| {
                let cli = self.osts[ost].clone();
                let rel = (fpos - offset) as usize;
                let chunk = data[rel..rel + slen as usize].to_vec();
                async move {
                    cli.call(OstReq::Write {
                        object: obj,
                        offset: local,
                        data: chunk,
                    })
                    .await
                }
            })
            .collect();
        join_all(&self.handle, writes).await;
        {
            let mut m = self.meta.borrow_mut();
            if let Some(f) = m.files.get_mut(path) {
                f.size = f.size.max(offset + data.len() as u64);
                f.mtime_ns = self.handle.now().as_nanos();
            }
        }
        // A writer's own cache stays warm (Lustre holds the write lock, so
        // its pages remain valid): the written bytes are applied to the
        // cached pages read-modify-write style, like a dirty page cache.
        // Fully covered pages are (re)created; a partial write extends an
        // existing page when contiguous, and otherwise drops it (we do not
        // fetch the missing bytes).
        {
            let ps = PAGE_SIZE;
            let wend = offset + data.len() as u64;
            let mut cd = self.cache_data.borrow_mut();
            let first = offset / ps;
            let last = (wend - 1) / ps;
            for p in first..=last {
                let pstart = p * ps;
                let key = (path.to_string(), p);
                let from = offset.max(pstart);
                let to = wend.min(pstart + ps);
                let rel_page = (from - pstart) as usize;
                let rel_data = (from - offset) as usize;
                let chunk = &data[rel_data..rel_data + (to - from) as usize];
                let fully_covered = from == pstart && to == pstart + ps;
                match cd.get_mut(&key) {
                    Some(page) if page.len() >= rel_page => {
                        if page.len() < rel_page + chunk.len() {
                            page.resize(rel_page + chunk.len(), 0);
                        }
                        page[rel_page..rel_page + chunk.len()].copy_from_slice(chunk);
                    }
                    Some(_) => {
                        cd.remove(&key);
                    }
                    // A fully covered page, or a page prefix: cache what we
                    // have; reads beyond the prefix fall to the miss path.
                    None if fully_covered || rel_page == 0 => {
                        cd.insert(key, chunk.to_vec());
                    }
                    None => {}
                }
            }
        }
        true
    }

    /// Remove a file and its objects.
    pub async fn unlink(&self, path: &str) -> bool {
        let objects = {
            let m = self.meta.borrow();
            match m.files.get(path) {
                Some(f) => f.objects.clone(),
                None => return false,
            }
        };
        let resp = self.mds.call(MdsReq::Unlink { path: path.into() }).await;
        if !matches!(resp, MdsResp::Ok { .. }) {
            return false;
        }
        let destroys: Vec<_> = objects
            .iter()
            .enumerate()
            .map(|(i, &obj)| {
                let cli = self.osts[i].clone();
                async move { cli.call(OstReq::Destroy { object: obj }).await }
            })
            .collect();
        join_all(&self.handle, destroys).await;
        true
    }

    /// Unmount/remount: drop the client cache and all cached locks — the
    /// paper's *Cold* configuration.
    pub fn drop_cache(&self) {
        self.cache_data.borrow_mut().clear();
        self.locks.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_sim::Sim;

    fn build(sim: &Sim, osts: usize) -> Rc<LustreCluster> {
        Rc::new(LustreCluster::build(
            sim.handle(),
            LustreConfig::with_osts(osts),
        ))
    }

    #[test]
    fn data_round_trips_across_stripes() {
        let mut sim = Sim::new(0);
        let cluster = build(&sim, 4);
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let cli = c2.mount();
            assert!(cli.create("/big").await);
            // 3.5 MB spans several 1 MB stripes on 4 OSTs.
            let data: Vec<u8> = (0..3_500_000u32).map(|i| (i % 241) as u8).collect();
            assert!(cli.write("/big", 0, &data).await);
            cli.drop_cache();
            let got = cli.read("/big", 1_000_000, 1_500_000).await.unwrap();
            assert_eq!(got, data[1_000_000..2_500_000].to_vec());
        });
    }

    #[test]
    fn warm_reads_beat_cold_reads() {
        let mut sim = Sim::new(0);
        let cluster = build(&sim, 1);
        let c2 = Rc::clone(&cluster);
        let h = sim.handle();
        let (cold, warm) = sim.run_main(async move {
            let cli = c2.mount();
            cli.create("/f").await;
            cli.write("/f", 0, &vec![1; 64 * 1024]).await;
            cli.drop_cache();
            c2.drop_ost_caches();
            let t0 = h.now();
            cli.read("/f", 0, 64 * 1024).await.unwrap(); // cold
            let cold = h.now().since(t0).as_nanos();
            let t1 = h.now();
            cli.read("/f", 0, 64 * 1024).await.unwrap(); // warm
            let warm = h.now().since(t1).as_nanos();
            (cold, warm)
        });
        assert!(warm * 10 < cold, "cold={cold} warm={warm}");
    }

    #[test]
    fn stat_costs_grow_with_ost_count() {
        fn run(osts: usize) -> u64 {
            let mut sim = Sim::new(0);
            let cluster = build(&sim, osts);
            let c2 = Rc::clone(&cluster);
            sim.run_main(async move {
                let cli = c2.mount();
                cli.create("/f").await;
                for _ in 0..10 {
                    cli.stat("/f").await.unwrap();
                }
            });
            sim.now().as_nanos()
        }
        // The glimpse fan-out makes 4DS stat slower than 1DS, but the
        // glimpses run in parallel, so well under 4x.
        let one = run(1);
        let four = run(4);
        assert!(four > one, "one={one} four={four}");
        assert!(four < one * 3, "one={one} four={four}");
    }

    #[test]
    fn writer_revokes_reader_caches() {
        let mut sim = Sim::new(0);
        let cluster = build(&sim, 1);
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let reader = c2.mount();
            let writer = c2.mount();
            reader.create("/shared").await;
            reader.write("/shared", 0, &vec![1u8; 8192]).await;
            // Reader caches the data.
            let r1 = reader.read("/shared", 0, 8192).await.unwrap();
            assert_eq!(r1, vec![1u8; 8192]);
            // Writer updates: must revoke the reader's lock/cache.
            assert!(writer.write("/shared", 0, &vec![2u8; 8192]).await);
            let r2 = reader.read("/shared", 0, 8192).await.unwrap();
            assert_eq!(r2, vec![2u8; 8192], "reader served stale cache");
        });
        assert!(cluster.revocations() >= 1);
    }

    #[test]
    fn unlink_destroys_objects() {
        let mut sim = Sim::new(0);
        let cluster = build(&sim, 2);
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let cli = c2.mount();
            cli.create("/gone").await;
            cli.write("/gone", 0, &vec![3; 4096]).await;
            assert!(cli.unlink("/gone").await);
            assert!(cli.stat("/gone").await.is_none());
            assert!(!cli.unlink("/gone").await);
        });
    }

    #[test]
    fn reads_past_eof_are_clamped() {
        let mut sim = Sim::new(0);
        let cluster = build(&sim, 1);
        let c2 = Rc::clone(&cluster);
        sim.run_main(async move {
            let cli = c2.mount();
            cli.create("/small").await;
            cli.write("/small", 0, b"tiny").await;
            let got = cli.read("/small", 2, 100).await.unwrap();
            assert_eq!(got, b"ny");
            let got = cli.read("/small", 100, 10).await.unwrap();
            assert!(got.is_empty());
        });
    }
}

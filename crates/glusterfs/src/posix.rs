//! `storage/posix` — the bottom of every server stack: executes fops
//! against the timed [`StorageBackend`] and maintains POSIX metadata
//! (mtime/ctime) that `stat` reports.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use imca_metrics::{Histogram, MetricSource, Registry, Snapshot};
use imca_storage::{FileId, StorageBackend};

use crate::fops::{FileStat, Fop, FopReply, FsError};
use crate::translator::{FopFuture, Translator};

struct Meta {
    id: FileId,
    mtime_ns: u64,
    ctime_ns: u64,
}

/// The POSIX storage translator.
pub struct Posix {
    backend: StorageBackend,
    files: RefCell<HashMap<String, Meta>>,
    next_id: std::cell::Cell<u64>,
    registry: Registry,
    /// Server-side service time per fop, in virtual ns.
    fop_ns: Histogram,
}

impl Posix {
    /// A POSIX translator over `backend`.
    pub fn new(backend: StorageBackend) -> Rc<Posix> {
        let registry = Registry::new();
        Rc::new(Posix {
            backend,
            files: RefCell::new(HashMap::new()),
            next_id: std::cell::Cell::new(1),
            fop_ns: registry.histogram("fop_ns"),
            registry,
        })
    }

    /// The backend this translator writes to (for tests and cache probes).
    pub fn backend(&self) -> &StorageBackend {
        &self.backend
    }

    fn lookup(&self, path: &str) -> Option<FileId> {
        self.files.borrow().get(path).map(|m| m.id)
    }

    /// One path's attributes, as [`Fop::Stat`] and each path of a
    /// [`Fop::StatMulti`] read them: the inode is touched on the backend.
    async fn stat_path(&self, path: &str) -> Result<FileStat, FsError> {
        let id = self.lookup(path).ok_or(FsError::NotFound)?;
        if self.backend.stat(id).await.is_err() {
            return Err(FsError::Io);
        }
        Ok(self.stat_of(path).expect("inode vanished"))
    }

    fn stat_of(&self, path: &str) -> Option<FileStat> {
        let files = self.files.borrow();
        let meta = files.get(path)?;
        Some(FileStat {
            size: self.backend.len(meta.id).unwrap_or(0),
            mtime_ns: meta.mtime_ns,
            ctime_ns: meta.ctime_ns,
        })
    }
}

impl Translator for Posix {
    fn name(&self) -> &'static str {
        "storage/posix"
    }

    fn handle(self: Rc<Self>, fop: Fop) -> FopFuture {
        Box::pin(async move {
            let h = self.backend.handle();
            let t0 = h.now();
            self.registry.counter(format!("fop.{}", fop.kind())).inc();
            // Inner async block so the early `return`s in the arms still
            // pass through the latency recording below.
            let reply = async {
                match fop {
                    Fop::Create { path } => {
                        if self.files.borrow().contains_key(&path) {
                            return FopReply::Create(Err(FsError::Exists));
                        }
                        let id = FileId(self.next_id.get());
                        self.next_id.set(id.0 + 1);
                        // A failed create registers nothing: the path must
                        // still not exist afterwards.
                        if self.backend.create(id).await.is_err() {
                            return FopReply::Create(Err(FsError::Io));
                        }
                        let now = h.now().as_nanos();
                        self.files.borrow_mut().insert(
                            path,
                            Meta {
                                id,
                                mtime_ns: now,
                                ctime_ns: now,
                            },
                        );
                        FopReply::Create(Ok(FileStat {
                            size: 0,
                            mtime_ns: now,
                            ctime_ns: now,
                        }))
                    }
                    Fop::Open { path } => {
                        let Some(id) = self.lookup(&path) else {
                            return FopReply::Open(Err(FsError::NotFound));
                        };
                        // Opening touches the inode (permission checks etc.).
                        if self.backend.stat(id).await.is_err() {
                            return FopReply::Open(Err(FsError::Io));
                        }
                        FopReply::Open(Ok(self.stat_of(&path).expect("inode vanished")))
                    }
                    Fop::Read { path, offset, len } => {
                        let Some(id) = self.lookup(&path) else {
                            return FopReply::Read(Err(FsError::NotFound));
                        };
                        match self.backend.read(id, offset, len).await {
                            Ok(data) => FopReply::Read(Ok(data)),
                            Err(_) => FopReply::Read(Err(FsError::Io)),
                        }
                    }
                    Fop::Write { path, offset, data } => {
                        let Some(id) = self.lookup(&path) else {
                            return FopReply::Write(Err(FsError::NotFound));
                        };
                        let n = data.len() as u64;
                        // A rejected write must not bump mtime: nothing
                        // changed on disk, so stat must not claim it did.
                        if self.backend.write(id, offset, &data).await.is_err() {
                            return FopReply::Write(Err(FsError::Io));
                        }
                        if let Some(meta) = self.files.borrow_mut().get_mut(&path) {
                            meta.mtime_ns = h.now().as_nanos();
                        }
                        FopReply::Write(Ok(n))
                    }
                    Fop::Stat { path } => FopReply::Stat(self.stat_path(&path).await),
                    Fop::StatMulti { paths } => {
                        let mut stats = Vec::with_capacity(paths.len());
                        for path in &paths {
                            stats.push(self.stat_path(path).await);
                        }
                        FopReply::StatMulti(stats)
                    }
                    Fop::Unlink { path } => {
                        let Some(id) = self.lookup(&path) else {
                            return FopReply::Unlink(Err(FsError::NotFound));
                        };
                        // A failed unlink leaves the name in place.
                        if self.backend.remove(id).await.is_err() {
                            return FopReply::Unlink(Err(FsError::Io));
                        }
                        self.files.borrow_mut().remove(&path);
                        FopReply::Unlink(Ok(()))
                    }
                    Fop::Close { path } => {
                        // POSIX close is local bookkeeping; flush semantics are
                        // handled by the write path (persistent on return).
                        let _ = path;
                        FopReply::Close(Ok(()))
                    }
                }
            }
            .await;
            self.fop_ns.record_duration(h.now().since(t0));
            reply
        })
    }
}

impl MetricSource for Posix {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translator::wind;
    use crate::translator::Xlator;
    use imca_sim::{Sim, SimDuration};
    use imca_storage::BackendParams;

    fn setup(sim: &Sim) -> Xlator {
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        Posix::new(be) as Xlator
    }

    #[test]
    fn create_write_read_stat_lifecycle() {
        let mut sim = Sim::new(0);
        let posix = setup(&sim);
        let h = sim.handle();
        sim.run_main(async move {
            let p = "/vol/file0".to_string();
            let FopReply::Create(Ok(made)) = wind(&posix, Fop::Create { path: p.clone() }).await
            else {
                panic!()
            };
            // The create's reply carries the new inode's attributes, as
            // a stat of it answers them.
            assert_eq!(
                wind(&posix, Fop::Stat { path: p.clone() }).await,
                FopReply::Stat(Ok(made))
            );
            assert_eq!((made.size, made.mtime_ns), (0, made.ctime_ns));
            // Duplicate create fails.
            assert_eq!(
                wind(&posix, Fop::Create { path: p.clone() }).await,
                FopReply::Create(Err(FsError::Exists))
            );
            h.sleep(SimDuration::micros(10)).await;
            let FopReply::Write(Ok(n)) = wind(
                &posix,
                Fop::Write {
                    path: p.clone(),
                    offset: 0,
                    data: b"hello posix".to_vec(),
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(n, 11);
            let FopReply::Read(Ok(data)) = wind(
                &posix,
                Fop::Read {
                    path: p.clone(),
                    offset: 6,
                    len: 5,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(data, b"posix");
            let FopReply::Stat(Ok(st)) = wind(&posix, Fop::Stat { path: p.clone() }).await else {
                panic!()
            };
            assert_eq!(st.size, 11);
            assert!(st.mtime_ns > st.ctime_ns, "write must bump mtime");
            assert_eq!(
                wind(&posix, Fop::Close { path: p.clone() }).await,
                FopReply::Close(Ok(()))
            );
        });
    }

    #[test]
    fn missing_files_error() {
        let mut sim = Sim::new(0);
        let posix = setup(&sim);
        sim.run_main(async move {
            let p = "/vol/ghost".to_string();
            assert_eq!(
                wind(&posix, Fop::Stat { path: p.clone() }).await,
                FopReply::Stat(Err(FsError::NotFound))
            );
            assert_eq!(
                wind(&posix, Fop::Open { path: p.clone() }).await,
                FopReply::Open(Err(FsError::NotFound))
            );
            assert_eq!(
                wind(&posix, Fop::Unlink { path: p.clone() }).await,
                FopReply::Unlink(Err(FsError::NotFound))
            );
            let FopReply::Read(r) = wind(
                &posix,
                Fop::Read {
                    path: p,
                    offset: 0,
                    len: 1,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(r, Err(FsError::NotFound));
        });
    }

    #[test]
    fn unlink_then_recreate_is_a_fresh_file() {
        let mut sim = Sim::new(0);
        let posix = setup(&sim);
        sim.run_main(async move {
            let p = "/vol/recycled".to_string();
            wind(&posix, Fop::Create { path: p.clone() }).await;
            wind(
                &posix,
                Fop::Write {
                    path: p.clone(),
                    offset: 0,
                    data: vec![1; 100],
                },
            )
            .await;
            wind(&posix, Fop::Unlink { path: p.clone() }).await;
            assert!(matches!(
                wind(&posix, Fop::Create { path: p.clone() }).await,
                FopReply::Create(Ok(FileStat { size: 0, .. }))
            ));
            let FopReply::Stat(Ok(st)) = wind(&posix, Fop::Stat { path: p }).await else {
                panic!()
            };
            assert_eq!(st.size, 0, "recreated file must be empty");
        });
    }

    #[test]
    fn storage_faults_surface_as_eio_without_mutating_metadata() {
        use imca_storage::StorageFaultPlan;
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be.clone()) as Xlator;
        sim.run_main(async move {
            let p = "/vol/fragile".to_string();
            wind(&posix, Fop::Create { path: p.clone() }).await;
            wind(
                &posix,
                Fop::Write {
                    path: p.clone(),
                    offset: 0,
                    data: b"ok".to_vec(),
                },
            )
            .await;
            let FopReply::Stat(Ok(before)) = wind(&posix, Fop::Stat { path: p.clone() }).await
            else {
                panic!()
            };
            be.install_faults(StorageFaultPlan {
                write_error: 1.0,
                ..StorageFaultPlan::default()
            });
            assert_eq!(
                wind(
                    &posix,
                    Fop::Write {
                        path: p.clone(),
                        offset: 0,
                        data: b"no".to_vec(),
                    },
                )
                .await,
                FopReply::Write(Err(FsError::Io))
            );
            assert_eq!(
                wind(&posix, Fop::Unlink { path: p.clone() }).await,
                FopReply::Unlink(Err(FsError::Io))
            );
            assert_eq!(
                wind(
                    &posix,
                    Fop::Create {
                        path: "/vol/new".into()
                    }
                )
                .await,
                FopReply::Create(Err(FsError::Io))
            );
            be.install_faults(StorageFaultPlan::default());
            // The failed create registered nothing; retry succeeds.
            assert!(matches!(
                wind(
                    &posix,
                    Fop::Create {
                        path: "/vol/new".into()
                    }
                )
                .await,
                FopReply::Create(Ok(_))
            ));
            // The failed write bumped no mtime and the unlink removed
            // nothing: the file reads back exactly as before.
            let FopReply::Stat(Ok(after)) = wind(&posix, Fop::Stat { path: p.clone() }).await
            else {
                panic!()
            };
            assert_eq!(after, before);
            let FopReply::Read(Ok(data)) = wind(
                &posix,
                Fop::Read {
                    path: p,
                    offset: 0,
                    len: 2,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(data, b"ok");
        });
    }

    #[test]
    fn open_returns_current_stat() {
        let mut sim = Sim::new(0);
        let posix = setup(&sim);
        sim.run_main(async move {
            let p = "/vol/opened".to_string();
            wind(&posix, Fop::Create { path: p.clone() }).await;
            wind(
                &posix,
                Fop::Write {
                    path: p.clone(),
                    offset: 0,
                    data: vec![9; 4096],
                },
            )
            .await;
            let FopReply::Open(Ok(st)) = wind(&posix, Fop::Open { path: p }).await else {
                panic!()
            };
            assert_eq!(st.size, 4096);
        });
    }
}

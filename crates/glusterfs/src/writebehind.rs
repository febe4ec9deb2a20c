//! `performance/write-behind` — aggregates small sequential writes into
//! larger child writes (§2.1). Writes complete to the application as soon
//! as they are buffered; the buffer is flushed when it exceeds the
//! aggregate window, when a non-contiguous write arrives, or when any
//! operation needs the file's true state (read/stat/close/unlink; a
//! batched stat flushes every file it names).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use imca_metrics::{prefixed, Counter, MetricSource, Registry, Snapshot};

use crate::fops::{Fop, FopReply, FsError};
use crate::translator::{wind, FopFuture, Translator, Xlator};

struct Pending {
    offset: u64,
    data: Vec<u8>,
}

/// Per-file write aggregation.
pub struct WriteBehind {
    child: Xlator,
    window_bytes: usize,
    pending: RefCell<HashMap<String, Pending>>,
    /// First flush error per file, reported on close (POSIX-style deferred
    /// error delivery).
    errors: RefCell<HashMap<String, FsError>>,
    registry: Registry,
    /// Writes absorbed into an existing buffer.
    aggregated: Counter,
    /// Child writes issued.
    flushes: Counter,
}

impl WriteBehind {
    /// Wrap `child`, aggregating up to `window_bytes` per file.
    pub fn new(child: Xlator, window_bytes: usize) -> Rc<WriteBehind> {
        let registry = Registry::new();
        Rc::new(WriteBehind {
            child,
            window_bytes,
            pending: RefCell::new(HashMap::new()),
            errors: RefCell::new(HashMap::new()),
            aggregated: registry.counter("aggregated"),
            flushes: registry.counter("flushes"),
            registry,
        })
    }

    async fn flush(&self, path: &str) {
        let pending = self.pending.borrow_mut().remove(path);
        if let Some(p) = pending {
            self.flushes.inc();
            let reply = wind(
                &self.child,
                Fop::Write {
                    path: path.to_string(),
                    offset: p.offset,
                    data: p.data,
                },
            )
            .await;
            if let FopReply::Write(Err(e)) = reply {
                self.errors
                    .borrow_mut()
                    .entry(path.to_string())
                    .or_insert(e);
            }
        }
    }
}

impl MetricSource for WriteBehind {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        snap.set_gauge(
            prefixed(prefix, "pending_files"),
            self.pending.borrow().len() as i64,
        );
    }
}

impl Translator for WriteBehind {
    fn name(&self) -> &'static str {
        "performance/write-behind"
    }

    fn handle(self: Rc<Self>, fop: Fop) -> FopFuture {
        Box::pin(async move {
            match fop {
                Fop::Write { path, offset, data } => {
                    let len = data.len() as u64;
                    // Try to extend the existing buffer.
                    let mut needs_flush_first = false;
                    {
                        let mut pending = self.pending.borrow_mut();
                        match pending.get_mut(&path) {
                            Some(p) if p.offset + p.data.len() as u64 == offset => {
                                p.data.extend_from_slice(&data);
                                self.aggregated.inc();
                            }
                            Some(_) => needs_flush_first = true,
                            None => {
                                pending.insert(
                                    path.clone(),
                                    Pending {
                                        offset,
                                        data: data.clone(),
                                    },
                                );
                            }
                        }
                    }
                    if needs_flush_first {
                        self.flush(&path).await;
                        self.pending
                            .borrow_mut()
                            .insert(path.clone(), Pending { offset, data });
                    }
                    let over = self
                        .pending
                        .borrow()
                        .get(&path)
                        .map(|p| p.data.len() >= self.window_bytes)
                        .unwrap_or(false);
                    if over {
                        self.flush(&path).await;
                    }
                    FopReply::Write(Ok(len))
                }
                Fop::Read { ref path, .. }
                | Fop::Stat { ref path }
                | Fop::Open { ref path }
                | Fop::Unlink { ref path } => {
                    self.flush(path).await;
                    wind(&self.child, fop).await
                }
                // A batched stat needs every named file's true state.
                Fop::StatMulti { ref paths } => {
                    for path in paths {
                        self.flush(path).await;
                    }
                    wind(&self.child, fop).await
                }
                Fop::Close { path } => {
                    self.flush(&path).await;
                    if let Some(e) = self.errors.borrow_mut().remove(&path) {
                        return FopReply::Close(Err(e));
                    }
                    wind(&self.child, Fop::Close { path }).await
                }
                other => wind(&self.child, other).await,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posix::Posix;
    use crate::translator::testutil::{counter, MockXlator};
    use imca_sim::Sim;
    use imca_storage::{BackendParams, StorageBackend};

    fn stack(sim: &Sim, window: usize) -> (Rc<WriteBehind>, Xlator) {
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be);
        let wb = WriteBehind::new(posix, window);
        (Rc::clone(&wb), wb as Xlator)
    }

    #[test]
    fn sequential_small_writes_aggregate() {
        let mut sim = Sim::new(0);
        let (wb, top) = stack(&sim, 64 * 1024);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            wind(&top2, Fop::Create { path: "/f".into() }).await;
            for i in 0..100u64 {
                wind(
                    &top2,
                    Fop::Write {
                        path: "/f".into(),
                        offset: i * 100,
                        data: vec![i as u8; 100],
                    },
                )
                .await;
            }
            // A read forces the flush and must see every byte.
            let FopReply::Read(Ok(data)) = wind(
                &top2,
                Fop::Read {
                    path: "/f".into(),
                    offset: 9_900,
                    len: 100,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(data, vec![99u8; 100]);
        });
        assert!(
            counter(&*wb, "aggregated") > 90,
            "aggregated={}",
            counter(&*wb, "aggregated")
        );
        assert!(
            counter(&*wb, "flushes") <= 2,
            "flushes={}",
            counter(&*wb, "flushes")
        );
    }

    #[test]
    fn window_overflow_triggers_flush() {
        let mut sim = Sim::new(0);
        let (wb, top) = stack(&sim, 1_000);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            wind(&top2, Fop::Create { path: "/f".into() }).await;
            for i in 0..10u64 {
                wind(
                    &top2,
                    Fop::Write {
                        path: "/f".into(),
                        offset: i * 500,
                        data: vec![1; 500],
                    },
                )
                .await;
            }
        });
        assert!(
            counter(&*wb, "flushes") >= 4,
            "flushes={}",
            counter(&*wb, "flushes")
        );
    }

    #[test]
    fn non_contiguous_write_flushes_old_buffer() {
        let mut sim = Sim::new(0);
        let (_wb, top) = stack(&sim, 64 * 1024);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            wind(&top2, Fop::Create { path: "/f".into() }).await;
            wind(
                &top2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: b"AAAA".to_vec(),
                },
            )
            .await;
            // Jump backwards — overlaps nothing buffered-contiguously.
            wind(
                &top2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 100,
                    data: b"BBBB".to_vec(),
                },
            )
            .await;
            wind(&top2, Fop::Close { path: "/f".into() }).await;
            let FopReply::Read(Ok(a)) = wind(
                &top2,
                Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 4,
                },
            )
            .await
            else {
                panic!()
            };
            let FopReply::Read(Ok(b)) = wind(
                &top2,
                Fop::Read {
                    path: "/f".into(),
                    offset: 100,
                    len: 4,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(a, b"AAAA");
            assert_eq!(b, b"BBBB");
        });
    }

    #[test]
    fn close_reports_deferred_write_error() {
        let mut sim = Sim::new(0);
        // Mock child: writes to paths containing "missing" fail via posix?
        // Use real posix: writing to a never-created file errors NotFound.
        let (_wb, top) = stack(&sim, 64 * 1024);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            // No create — the buffered write will fail at flush time.
            let r = wind(
                &top2,
                Fop::Write {
                    path: "/ghost".into(),
                    offset: 0,
                    data: b"lost".to_vec(),
                },
            )
            .await;
            // Buffered: reported as success to the application…
            assert_eq!(r, FopReply::Write(Ok(4)));
            // …but close surfaces the deferred error.
            let r = wind(
                &top2,
                Fop::Close {
                    path: "/ghost".into(),
                },
            )
            .await;
            assert_eq!(r, FopReply::Close(Err(FsError::NotFound)));
        });
    }

    #[test]
    fn close_reports_deferred_media_error_as_eio() {
        use imca_storage::StorageFaultPlan;
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be.clone());
        let top = WriteBehind::new(posix, 64 * 1024) as Xlator;
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            wind(&top2, Fop::Create { path: "/f".into() }).await;
            be.install_faults(StorageFaultPlan {
                write_error: 1.0,
                ..StorageFaultPlan::default()
            });
            // Buffered: acked to the application before the media says no.
            let r = wind(
                &top2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![3; 512],
                },
            )
            .await;
            assert_eq!(r, FopReply::Write(Ok(512)));
            // The silent ack must not stay silent: close carries the EIO.
            let r = wind(&top2, Fop::Close { path: "/f".into() }).await;
            assert_eq!(r, FopReply::Close(Err(FsError::Io)));
            // Reported once, not forever.
            be.install_faults(StorageFaultPlan::default());
            let r = wind(&top2, Fop::Close { path: "/f".into() }).await;
            assert_eq!(r, FopReply::Close(Ok(())));
        });
    }

    #[test]
    fn stat_sees_buffered_writes() {
        let mut sim = Sim::new(0);
        let (_wb, top) = stack(&sim, 64 * 1024);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            wind(&top2, Fop::Create { path: "/f".into() }).await;
            wind(
                &top2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![0; 5_000],
                },
            )
            .await;
            let FopReply::Stat(Ok(st)) = wind(&top2, Fop::Stat { path: "/f".into() }).await else {
                panic!()
            };
            assert_eq!(st.size, 5_000, "stat must flush write-behind first");
        });
    }

    #[test]
    fn stat_multi_sees_the_buffered_writes_of_every_path() {
        let mut sim = Sim::new(0);
        let (_wb, top) = stack(&sim, 64 * 1024);
        sim.run_main(async move {
            for (path, len) in [("/f", 5_000), ("/g", 3_000)] {
                wind(&top, Fop::Create { path: path.into() }).await;
                let data = vec![0; len];
                wind(
                    &top,
                    Fop::Write {
                        path: path.into(),
                        offset: 0,
                        data,
                    },
                )
                .await;
            }
            let paths = vec!["/f".into(), "/ghost".into(), "/g".into()];
            let FopReply::StatMulti(stats) = wind(&top, Fop::StatMulti { paths }).await else {
                panic!()
            };
            let sizes: Vec<_> = stats.iter().map(|st| st.map(|st| st.size)).collect();
            assert_eq!(sizes, [Ok(5_000), Err(FsError::NotFound), Ok(3_000)]);
        });
    }

    #[test]
    fn passthrough_ops_reach_child() {
        let mut sim = Sim::new(0);
        let mock = MockXlator::new();
        let wb = WriteBehind::new(Rc::clone(&mock) as Xlator, 1024);
        sim.run_main(async move {
            wind(&(wb as Xlator), Fop::Create { path: "/c".into() }).await;
        });
        assert_eq!(mock.log.borrow().len(), 1);
    }
}

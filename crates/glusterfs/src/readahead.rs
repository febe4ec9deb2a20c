//! `performance/read-ahead` — the client-side sequential prefetcher that
//! ships with GlusterFS (§2.1). When reads arrive sequentially it over-reads
//! from the child and serves subsequent hits from a per-file window buffer.
//!
//! Not part of the paper's "NoCache" baseline configuration (GlusterFS ran
//! without a client-side cache), but implemented for the translator-stack
//! ablation: it shows where a *coherence-unsafe* client cache would win.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use imca_metrics::{Counter, MetricSource, Registry, Snapshot};

use crate::fops::{Fop, FopReply};
use crate::translator::{wind, FopFuture, Translator, Xlator};

#[derive(Default)]
struct FileWindow {
    /// Next offset a sequential stream would read.
    expected_next: u64,
    /// Buffered data: (start offset, bytes).
    buffer: Option<(u64, Vec<u8>)>,
}

/// Per-file sequential read-ahead.
pub struct ReadAhead {
    child: Xlator,
    window_bytes: u64,
    files: RefCell<HashMap<String, FileWindow>>,
    registry: Registry,
    /// Reads served entirely from the window buffer.
    hits: Counter,
    /// Child reads that were enlarged for prefetch.
    prefetches: Counter,
}

impl ReadAhead {
    /// Wrap `child`, prefetching `window_bytes` ahead on sequential streams.
    pub fn new(child: Xlator, window_bytes: u64) -> Rc<ReadAhead> {
        let registry = Registry::new();
        Rc::new(ReadAhead {
            child,
            window_bytes,
            files: RefCell::new(HashMap::new()),
            hits: registry.counter("hits"),
            prefetches: registry.counter("prefetches"),
            registry,
        })
    }

    fn invalidate(&self, path: &str) {
        self.files.borrow_mut().remove(path);
    }

    fn try_serve(&self, path: &str, offset: u64, len: u64) -> Option<Vec<u8>> {
        let files = self.files.borrow();
        let (start, buf) = files.get(path)?.buffer.as_ref()?;
        if offset < *start {
            return None;
        }
        let rel = (offset - start) as usize;
        let end = rel.checked_add(len as usize)?;
        if end > buf.len() {
            return None;
        }
        Some(buf[rel..end].to_vec())
    }
}

impl MetricSource for ReadAhead {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
    }
}

impl Translator for ReadAhead {
    fn name(&self) -> &'static str {
        "performance/read-ahead"
    }

    fn handle(self: Rc<Self>, fop: Fop) -> FopFuture {
        Box::pin(async move {
            match fop {
                Fop::Read { path, offset, len } => {
                    if let Some(data) = self.try_serve(&path, offset, len) {
                        self.hits.inc();
                        self.files
                            .borrow_mut()
                            .get_mut(&path)
                            .expect("window")
                            .expected_next = offset + len;
                        return FopReply::Read(Ok(data));
                    }
                    let sequential = self
                        .files
                        .borrow()
                        .get(&path)
                        .map(|w| w.expected_next == offset)
                        .unwrap_or(false);
                    let fetch_len = if sequential {
                        self.prefetches.inc();
                        len + self.window_bytes
                    } else {
                        len
                    };
                    let reply = wind(
                        &self.child,
                        Fop::Read {
                            path: path.clone(),
                            offset,
                            len: fetch_len,
                        },
                    )
                    .await;
                    match reply {
                        FopReply::Read(Ok(mut data)) => {
                            let serve = data.len().min(len as usize);
                            let rest = data.split_off(serve);
                            let mut files = self.files.borrow_mut();
                            let w = files.entry(path).or_default();
                            w.expected_next = offset + len;
                            w.buffer = (!rest.is_empty()).then_some((offset + serve as u64, rest));
                            FopReply::Read(Ok(data))
                        }
                        other => other,
                    }
                }
                // Anything that can change or invalidate file state drops
                // the window.
                Fop::Write { ref path, .. }
                | Fop::Open { ref path }
                | Fop::Unlink { ref path }
                | Fop::Close { ref path } => {
                    self.invalidate(path);
                    wind(&self.child, fop).await
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
    use crate::translator::testutil::counter;
    use imca_sim::Sim;
    use imca_storage::{BackendParams, StorageBackend};

    fn stack(sim: &Sim, window: u64) -> (Rc<ReadAhead>, Xlator) {
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be);
        let ra = ReadAhead::new(posix, window);
        (Rc::clone(&ra), ra as Xlator)
    }

    async fn seed(top: &Xlator, path: &str, len: usize) {
        wind(top, Fop::Create { path: path.into() }).await;
        wind(
            top,
            Fop::Write {
                path: path.into(),
                offset: 0,
                data: (0..len).map(|i| i as u8).collect(),
            },
        )
        .await;
    }

    #[test]
    fn sequential_stream_is_served_from_window() {
        let mut sim = Sim::new(0);
        let (ra, top) = stack(&sim, 64 * 1024);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            seed(&top2, "/f", 256 * 1024).await;
            for i in 0..32u64 {
                let FopReply::Read(Ok(data)) = wind(
                    &top2,
                    Fop::Read {
                        path: "/f".into(),
                        offset: i * 4096,
                        len: 4096,
                    },
                )
                .await
                else {
                    panic!()
                };
                assert_eq!(data.len(), 4096);
                assert_eq!(data[0], ((i * 4096) % 256) as u8);
            }
        });
        assert!(counter(&*ra, "hits") > 20, "hits={}", counter(&*ra, "hits"));
        assert!(counter(&*ra, "prefetches") >= 1);
    }

    #[test]
    fn random_reads_do_not_prefetch() {
        let mut sim = Sim::new(0);
        let (ra, top) = stack(&sim, 64 * 1024);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            seed(&top2, "/f", 256 * 1024).await;
            for off in [200_000u64, 0, 100_000, 50_000] {
                wind(
                    &top2,
                    Fop::Read {
                        path: "/f".into(),
                        offset: off,
                        len: 4096,
                    },
                )
                .await;
            }
        });
        assert_eq!(counter(&*ra, "prefetches"), 0);
        assert_eq!(counter(&*ra, "hits"), 0);
    }

    #[test]
    fn write_invalidates_window() {
        let mut sim = Sim::new(0);
        let (_ra, top) = stack(&sim, 64 * 1024);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            seed(&top2, "/f", 64 * 1024).await;
            // Prime the window with a sequential pair.
            for i in 0..2u64 {
                wind(
                    &top2,
                    Fop::Read {
                        path: "/f".into(),
                        offset: i * 4096,
                        len: 4096,
                    },
                )
                .await;
            }
            // Overwrite inside the buffered region…
            wind(
                &top2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 8192,
                    data: vec![0xFF; 4096],
                },
            )
            .await;
            // …the next read must see the new bytes, not the stale window.
            let FopReply::Read(Ok(data)) = wind(
                &top2,
                Fop::Read {
                    path: "/f".into(),
                    offset: 8192,
                    len: 4096,
                },
            )
            .await
            else {
                panic!()
            };
            assert!(data.iter().all(|&b| b == 0xFF));
        });
    }

    #[test]
    fn failed_prefetch_populates_no_window() {
        use crate::fops::FsError;
        use imca_storage::StorageFaultPlan;
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let posix = Posix::new(be.clone());
        let ra = ReadAhead::new(posix, 64 * 1024);
        let top = Rc::clone(&ra) as Xlator;
        sim.run_main(async move {
            seed(&top, "/f", 256 * 1024).await;
            // Prime a sequential stream so the next read wants to prefetch.
            wind(
                &top,
                Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 4096,
                },
            )
            .await;
            be.drop_caches();
            be.install_faults(StorageFaultPlan {
                read_error: 1.0,
                ..StorageFaultPlan::default()
            });
            let r = wind(
                &top,
                Fop::Read {
                    path: "/f".into(),
                    offset: 4096,
                    len: 4096,
                },
            )
            .await;
            assert_eq!(r, FopReply::Read(Err(FsError::Io)));
            be.install_faults(StorageFaultPlan::default());
            // The failed enlarged read left no buffer behind: the retry
            // must go to the child and return real bytes.
            let hits_before = counter(&*ra, "hits");
            let FopReply::Read(Ok(d)) = wind(
                &top,
                Fop::Read {
                    path: "/f".into(),
                    offset: 4096,
                    len: 4096,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(
                counter(&*ra, "hits"),
                hits_before,
                "retry must not hit the window"
            );
            assert_eq!(d[0], (4096 % 256) as u8);
        });
    }

    #[test]
    fn short_reads_at_eof_stay_correct() {
        let mut sim = Sim::new(0);
        let (_ra, top) = stack(&sim, 64 * 1024);
        let top2 = Rc::clone(&top);
        sim.run_main(async move {
            seed(&top2, "/f", 10_000).await;
            // Sequential walk straight past EOF.
            let mut off = 0u64;
            loop {
                let FopReply::Read(Ok(data)) = wind(
                    &top2,
                    Fop::Read {
                        path: "/f".into(),
                        offset: off,
                        len: 4096,
                    },
                )
                .await
                else {
                    panic!()
                };
                if data.is_empty() {
                    break;
                }
                for (i, &b) in data.iter().enumerate() {
                    assert_eq!(b, ((off as usize + i) % 256) as u8);
                }
                off += data.len() as u64;
            }
            assert_eq!(off, 10_000);
        });
    }
}

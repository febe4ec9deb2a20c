//! The translator abstraction.
//!
//! "Internally, GlusterFS is based on the concept of translators.
//! Translators may be applied at either the client or the server." (§2.1)
//! A translator receives a fop, may transform it, forwards it to its child
//! (STACK_WIND), and post-processes the child's reply (the callback hooks
//! SMCache uses, §4.1).
//!
//! `handle` takes `self: Rc<Self>` so a translator can spawn background
//! work that outlives the current call — the paper's "additional thread to
//! update the MCDs" (§4.3.2) is exactly such a task.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use crate::fops::{Fop, FopReply};

/// Boxed future returned by [`Translator::handle`].
pub type FopFuture = Pin<Box<dyn Future<Output = FopReply>>>;

/// One layer in a GlusterFS stack.
pub trait Translator {
    /// Name for diagnostics (mirrors the volume-spec name).
    fn name(&self) -> &'static str;

    /// Process `fop`, typically by winding it to a child translator and
    /// post-processing the reply.
    fn handle(self: Rc<Self>, fop: Fop) -> FopFuture;
}

/// A reference-counted translator stack node.
pub type Xlator = Rc<dyn Translator>;

/// Convenience: wind a fop to a child translator.
pub fn wind(child: &Xlator, fop: Fop) -> FopFuture {
    Rc::clone(child).handle(fop)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::fops::{FileStat, FsError};
    use std::cell::RefCell;

    /// Counter `name` of one translator, read through its metrics.
    pub fn counter(src: &dyn imca_metrics::MetricSource, name: &str) -> u64 {
        imca_metrics::collect_from(src, "").counter(name).unwrap()
    }

    /// A terminal translator that records fops and answers canned replies —
    /// used to unit-test mid-stack translators in isolation.
    pub struct MockXlator {
        pub log: RefCell<Vec<Fop>>,
    }

    impl MockXlator {
        pub fn new() -> Rc<MockXlator> {
            Rc::new(MockXlator {
                log: RefCell::new(Vec::new()),
            })
        }
    }

    /// The mock's stat of `path`: absent if the path says "missing".
    fn canned_stat(path: &str) -> Result<FileStat, FsError> {
        if path.contains("missing") {
            return Err(FsError::NotFound);
        }
        Ok(FileStat {
            size: 42,
            mtime_ns: 1,
            ctime_ns: 1,
        })
    }

    impl Translator for MockXlator {
        fn name(&self) -> &'static str {
            "mock"
        }

        fn handle(self: Rc<Self>, fop: Fop) -> FopFuture {
            self.log.borrow_mut().push(fop.clone());
            Box::pin(async move {
                match fop {
                    Fop::Create { .. } => FopReply::Create(Ok(FileStat::default())),
                    Fop::Open { .. } => FopReply::Open(Ok(FileStat::default())),
                    Fop::Read { len, .. } => FopReply::Read(Ok(vec![0xAB; len as usize])),
                    Fop::Write { data, .. } => FopReply::Write(Ok(data.len() as u64)),
                    Fop::Stat { path } => FopReply::Stat(canned_stat(&path)),
                    Fop::StatMulti { paths } => {
                        FopReply::StatMulti(paths.iter().map(|path| canned_stat(path)).collect())
                    }
                    Fop::Unlink { .. } => FopReply::Unlink(Ok(())),
                    Fop::Close { .. } => FopReply::Close(Ok(())),
                }
            })
        }
    }
}

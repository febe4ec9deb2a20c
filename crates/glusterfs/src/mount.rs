//! The mount-point facade — what an application sees after `mount -t
//! glusterfs`. Maintains the fd table (the paper's CMCache keeps the
//! fd→absolute-path database populated at open, §4.3.2; here the mount owns
//! it and fops carry the path).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::fops::{FileStat, Fop, FopReply, FsError};
use crate::translator::{wind, Xlator};

/// An open-file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u64);

/// A mounted client stack.
pub struct GlusterMount {
    top: Xlator,
    fds: RefCell<HashMap<Fd, String>>,
    next_fd: Cell<u64>,
}

impl GlusterMount {
    /// Mount over the top of a client translator stack.
    pub fn new(top: Xlator) -> Rc<GlusterMount> {
        Rc::new(GlusterMount {
            top,
            fds: RefCell::new(HashMap::new()),
            next_fd: Cell::new(3), // 0..2 are stdio, as tradition demands
        })
    }

    /// Create an empty file.
    pub async fn create(&self, path: &str) -> Result<(), FsError> {
        match wind(&self.top, Fop::Create { path: path.into() }).await {
            FopReply::Create(r) => r.map(|_stat| ()),
            other => panic!("mismatched reply to create: {other:?}"),
        }
    }

    /// Open a file, returning a descriptor.
    pub async fn open(&self, path: &str) -> Result<Fd, FsError> {
        match wind(&self.top, Fop::Open { path: path.into() }).await {
            FopReply::Open(Ok(_stat)) => {
                let fd = Fd(self.next_fd.get());
                self.next_fd.set(fd.0 + 1);
                self.fds.borrow_mut().insert(fd, path.to_string());
                Ok(fd)
            }
            FopReply::Open(Err(e)) => Err(e),
            other => panic!("mismatched reply to open: {other:?}"),
        }
    }

    fn path_of(&self, fd: Fd) -> String {
        self.fds
            .borrow()
            .get(&fd)
            .unwrap_or_else(|| panic!("read/write on closed fd {fd:?}"))
            .clone()
    }

    /// Read `len` bytes at `offset` from an open file.
    pub async fn read(&self, fd: Fd, offset: u64, len: u64) -> Result<Vec<u8>, FsError> {
        let path = self.path_of(fd);
        match wind(&self.top, Fop::Read { path, offset, len }).await {
            FopReply::Read(r) => r,
            other => panic!("mismatched reply to read: {other:?}"),
        }
    }

    /// Write `data` at `offset` to an open file.
    pub async fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> Result<u64, FsError> {
        let path = self.path_of(fd);
        match wind(
            &self.top,
            Fop::Write {
                path,
                offset,
                data: data.to_vec(),
            },
        )
        .await
        {
            FopReply::Write(r) => r,
            other => panic!("mismatched reply to write: {other:?}"),
        }
    }

    /// Stat a path (no fd needed, as with the syscall).
    pub async fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        match wind(&self.top, Fop::Stat { path: path.into() }).await {
            FopReply::Stat(r) => r,
            other => panic!("mismatched reply to stat: {other:?}"),
        }
    }

    /// Close a descriptor.
    pub async fn close(&self, fd: Fd) -> Result<(), FsError> {
        let path = self
            .fds
            .borrow_mut()
            .remove(&fd)
            .unwrap_or_else(|| panic!("double close of {fd:?}"));
        match wind(&self.top, Fop::Close { path }).await {
            FopReply::Close(r) => r,
            other => panic!("mismatched reply to close: {other:?}"),
        }
    }

    /// Remove a file.
    pub async fn unlink(&self, path: &str) -> Result<(), FsError> {
        match wind(&self.top, Fop::Unlink { path: path.into() }).await {
            FopReply::Unlink(r) => r,
            other => panic!("mismatched reply to unlink: {other:?}"),
        }
    }

    /// Number of open descriptors.
    pub fn open_fds(&self) -> usize {
        self.fds.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posix::Posix;
    use imca_sim::Sim;
    use imca_storage::{BackendParams, StorageBackend};

    fn mount(sim: &Sim) -> Rc<GlusterMount> {
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        GlusterMount::new(Posix::new(be))
    }

    #[test]
    fn posix_style_session() {
        let mut sim = Sim::new(0);
        let m = mount(&sim);
        sim.run_main(async move {
            m.create("/data/a.txt").await.unwrap();
            let fd = m.open("/data/a.txt").await.unwrap();
            m.write(fd, 0, b"0123456789").await.unwrap();
            assert_eq!(m.read(fd, 2, 4).await.unwrap(), b"2345");
            let st = m.stat("/data/a.txt").await.unwrap();
            assert_eq!(st.size, 10);
            m.close(fd).await.unwrap();
            assert_eq!(m.open_fds(), 0);
            m.unlink("/data/a.txt").await.unwrap();
            assert_eq!(m.open("/data/a.txt").await, Err(FsError::NotFound));
        });
    }

    #[test]
    fn concurrent_fds_are_independent() {
        let mut sim = Sim::new(0);
        let m = mount(&sim);
        sim.run_main(async move {
            m.create("/x").await.unwrap();
            m.create("/y").await.unwrap();
            let fx = m.open("/x").await.unwrap();
            let fy = m.open("/y").await.unwrap();
            assert_ne!(fx, fy);
            m.write(fx, 0, b"XX").await.unwrap();
            m.write(fy, 0, b"YY").await.unwrap();
            assert_eq!(m.read(fx, 0, 2).await.unwrap(), b"XX");
            assert_eq!(m.read(fy, 0, 2).await.unwrap(), b"YY");
        });
    }
}

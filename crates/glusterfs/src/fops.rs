//! File operations ("fops") and their replies.
//!
//! GlusterFS passes every VFS call down a stack of translators as a fop;
//! results bubble back up through callbacks (STACK_WIND / STACK_UNWIND).
//! Our fops carry the absolute path, as GlusterFS `loc_t` does — which is
//! also exactly what CMCache needs to build cache keys (the paper stores
//! the fd→path mapping at open for this purpose, §4.3.2).

use imca_fabric::WireSize;

/// Nominal per-message protocol header, charged on the wire.
const HDR: usize = 64;

/// Stat metadata returned by `stat`/`open`/`create` — "file size, create and modify
/// times, in addition to other information" (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileStat {
    /// File size in bytes.
    pub size: u64,
    /// Last modification time, nanoseconds of virtual time.
    pub mtime_ns: u64,
    /// Creation time, nanoseconds of virtual time.
    pub ctime_ns: u64,
}

impl FileStat {
    /// Serialised size of a stat structure (`struct stat` is 144 bytes on
    /// Linux; we round to it).
    pub const WIRE_SIZE: usize = 144;

    /// Encode to bytes (the payload stored in the MCDs under `path:m.stat`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(24);
        v.extend_from_slice(&self.size.to_le_bytes());
        v.extend_from_slice(&self.mtime_ns.to_le_bytes());
        v.extend_from_slice(&self.ctime_ns.to_le_bytes());
        v
    }

    /// Decode from bytes; `None` if the buffer is malformed.
    pub fn from_bytes(b: &[u8]) -> Option<FileStat> {
        if b.len() != 24 {
            return None;
        }
        let u = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        Some(FileStat {
            size: u(0),
            mtime_ns: u(8),
            ctime_ns: u(16),
        })
    }
}

/// Errors surfaced by the filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound,
    /// Path already exists (create).
    Exists,
    /// The storage media or the server failed (`EIO`): a disk-tier I/O
    /// error, or an RPC that died because the server crashed mid-call.
    Io,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file"),
            FsError::Exists => write!(f, "file exists"),
            FsError::Io => write!(f, "I/O error"),
        }
    }
}

impl std::error::Error for FsError {}

/// A file operation travelling down a translator stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fop {
    /// Create an empty file; returns its stat (GlusterFS's create
    /// callback carries the new inode's attributes, as FUSE `CREATE`
    /// opens the file it makes).
    Create {
        /// Absolute path.
        path: String,
    },
    /// Open an existing file; returns its stat (GlusterFS opens return the
    /// inode attributes, which SMCache uses to seed the MCDs, §4.2).
    Open {
        /// Absolute path.
        path: String,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Absolute path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Bytes requested.
        len: u64,
    },
    /// Write `data` at `offset`.
    Write {
        /// Absolute path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// Fetch file attributes.
    Stat {
        /// Absolute path.
        path: String,
    },
    /// Fetch the attributes of many files in one fop, as readdirplus
    /// does for a directory window: the reply answers each path exactly
    /// as a [`Fop::Stat`] of it would, in order.
    StatMulti {
        /// Absolute paths.
        paths: Vec<String>,
    },
    /// Remove a file.
    Unlink {
        /// Absolute path.
        path: String,
    },
    /// Close/flush an open file.
    Close {
        /// Absolute path.
        path: String,
    },
}

impl Fop {
    /// The error reply matching this fop's kind — what a translator (or
    /// the client protocol, when the RPC itself dies) unwinds when the
    /// operation cannot produce a real result.
    pub fn err_reply(&self, e: FsError) -> FopReply {
        match self {
            Fop::Create { .. } => FopReply::Create(Err(e)),
            Fop::Open { .. } => FopReply::Open(Err(e)),
            Fop::Read { .. } => FopReply::Read(Err(e)),
            Fop::Write { .. } => FopReply::Write(Err(e)),
            Fop::Stat { .. } => FopReply::Stat(Err(e)),
            Fop::StatMulti { paths } => FopReply::StatMulti(vec![Err(e); paths.len()]),
            Fop::Unlink { .. } => FopReply::Unlink(Err(e)),
            Fop::Close { .. } => FopReply::Close(Err(e)),
        }
    }

    /// Short operation name for logs and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            Fop::Create { .. } => "create",
            Fop::Open { .. } => "open",
            Fop::Read { .. } => "read",
            Fop::Write { .. } => "write",
            Fop::Stat { .. } => "stat",
            Fop::StatMulti { .. } => "stat_multi",
            Fop::Unlink { .. } => "unlink",
            Fop::Close { .. } => "close",
        }
    }
}

impl WireSize for Fop {
    fn wire_bytes(&self) -> usize {
        HDR + match self {
            Fop::Create { path }
            | Fop::Open { path }
            | Fop::Read { path, .. }
            | Fop::Stat { path }
            | Fop::Unlink { path }
            | Fop::Close { path } => path.len(),
            Fop::Write { path, data, .. } => path.len() + data.len(),
            Fop::StatMulti { paths } => paths.iter().map(String::len).sum(),
        }
    }
}

/// The reply travelling back up the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FopReply {
    /// Reply to `Create` (carries the new file's stat, see
    /// [`Fop::Create`]).
    Create(Result<FileStat, FsError>),
    /// Reply to `Open` (carries the stat, see [`Fop::Open`]).
    Open(Result<FileStat, FsError>),
    /// Reply to `Read` (short at EOF).
    Read(Result<Vec<u8>, FsError>),
    /// Reply to `Write` (bytes written).
    Write(Result<u64, FsError>),
    /// Reply to `Stat`.
    Stat(Result<FileStat, FsError>),
    /// Reply to `StatMulti`: one answer per path, in request order.
    StatMulti(Vec<Result<FileStat, FsError>>),
    /// Reply to `Unlink`.
    Unlink(Result<(), FsError>),
    /// Reply to `Close`.
    Close(Result<(), FsError>),
}

impl WireSize for FopReply {
    fn wire_bytes(&self) -> usize {
        match self {
            FopReply::Read(Ok(data)) => HDR + data.len(),
            FopReply::Create(Ok(_)) | FopReply::Open(Ok(_)) | FopReply::Stat(Ok(_)) => {
                HDR + FileStat::WIRE_SIZE
            }
            FopReply::StatMulti(stats) => {
                HDR + FileStat::WIRE_SIZE * stats.iter().filter(|st| st.is_ok()).count()
            }
            _ => HDR,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_bytes_round_trip() {
        let s = FileStat {
            size: 12345,
            mtime_ns: 111,
            ctime_ns: 222,
        };
        assert_eq!(FileStat::from_bytes(&s.to_bytes()), Some(s));
        assert_eq!(FileStat::from_bytes(b"short"), None);
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let w = Fop::Write {
            path: "/a".into(),
            offset: 0,
            data: vec![0; 1000],
        };
        let r = Fop::Read {
            path: "/a".into(),
            offset: 0,
            len: 1000,
        };
        assert_eq!(w.wire_bytes(), HDR + 2 + 1000);
        assert_eq!(r.wire_bytes(), HDR + 2);
        let reply = FopReply::Read(Ok(vec![0; 1000]));
        assert_eq!(reply.wire_bytes(), HDR + 1000);
        assert_eq!(FopReply::Write(Ok(1000)).wire_bytes(), HDR);
        assert_eq!(
            FopReply::Stat(Ok(FileStat::default())).wire_bytes(),
            HDR + FileStat::WIRE_SIZE
        );
        assert_eq!(
            FopReply::Create(Ok(FileStat::default())).wire_bytes(),
            HDR + FileStat::WIRE_SIZE
        );
        assert_eq!(FopReply::Create(Err(FsError::Exists)).wire_bytes(), HDR);
    }

    #[test]
    fn a_stat_multi_costs_one_header_each_way() {
        let f = Fop::StatMulti {
            paths: vec!["/d/a".into(), "/d/bb".into(), "/d/ghost".into()],
        };
        assert_eq!(f.wire_bytes(), HDR + 4 + 5 + 8);
        let found = FileStat::default();
        let reply = FopReply::StatMulti(vec![Ok(found), Ok(found), Err(FsError::NotFound)]);
        assert_eq!(reply.wire_bytes(), HDR + 2 * FileStat::WIRE_SIZE);
        assert_eq!(
            f.err_reply(FsError::Io),
            FopReply::StatMulti(vec![Err(FsError::Io); 3])
        );
    }

    #[test]
    fn fop_accessors() {
        let f = Fop::Stat {
            path: "/x/y".into(),
        };
        assert_eq!(f.kind(), "stat");
        let f = Fop::StatMulti { paths: Vec::new() };
        assert_eq!(f.kind(), "stat_multi");
    }

    #[test]
    fn err_reply_matches_fop_kind() {
        let r = Fop::Read {
            path: "/a".into(),
            offset: 0,
            len: 1,
        };
        assert_eq!(r.err_reply(FsError::Io), FopReply::Read(Err(FsError::Io)));
        let w = Fop::Write {
            path: "/a".into(),
            offset: 0,
            data: vec![1],
        };
        assert_eq!(w.err_reply(FsError::Io), FopReply::Write(Err(FsError::Io)));
        let c = Fop::Close { path: "/a".into() };
        assert_eq!(
            c.err_reply(FsError::NotFound),
            FopReply::Close(Err(FsError::NotFound))
        );
    }
}

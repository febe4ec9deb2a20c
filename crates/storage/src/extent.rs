//! Byte-accurate file contents.
//!
//! Timing comes from the disk/page-cache models; *data* comes from here.
//! Keeping real bytes end-to-end lets integration tests assert that the
//! caching layer never corrupts what a read returns — the paper's
//! "failures in MCDs do not impact correctness" claim becomes testable.

use std::collections::HashMap;

use crate::pagecache::FileId;

/// Sparse in-memory contents for a set of files. Unwritten holes read as
/// zeros, matching POSIX semantics.
#[derive(Debug, Default)]
pub struct ExtentStore {
    files: HashMap<FileId, Vec<u8>>,
}

impl ExtentStore {
    /// An empty store.
    pub fn new() -> ExtentStore {
        ExtentStore::default()
    }

    /// Create an empty file (no-op if it exists).
    pub fn create(&mut self, file: FileId) {
        self.files.entry(file).or_default();
    }

    /// Whether `file` exists.
    pub fn exists(&self, file: FileId) -> bool {
        self.files.contains_key(&file)
    }

    /// Current length of `file`, or `None` if it does not exist.
    pub fn len(&self, file: FileId) -> Option<u64> {
        self.files.get(&file).map(|v| v.len() as u64)
    }

    /// Whether the store holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Write `data` at `offset`, extending the file (zero-filling any hole).
    /// Creates the file if needed.
    pub fn write(&mut self, file: FileId, offset: u64, data: &[u8]) {
        let buf = self.files.entry(file).or_default();
        let end = offset as usize + data.len();
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf[offset as usize..end].copy_from_slice(data);
    }

    /// Read up to `len` bytes at `offset`. Short reads at EOF, empty vec
    /// past EOF or for missing files.
    pub fn read(&self, file: FileId, offset: u64, len: u64) -> Vec<u8> {
        let Some(buf) = self.files.get(&file) else {
            return Vec::new();
        };
        let start = (offset as usize).min(buf.len());
        let end = (offset as usize)
            .saturating_add(len as usize)
            .min(buf.len());
        buf[start..end].to_vec()
    }

    /// Truncate `file` to `len` bytes (extends with zeros if longer).
    pub fn truncate(&mut self, file: FileId, len: u64) {
        if let Some(buf) = self.files.get_mut(&file) {
            buf.resize(len as usize, 0);
        }
    }

    /// Remove `file` entirely. Returns whether it existed.
    pub fn remove(&mut self, file: FileId) -> bool {
        self.files.remove(&file).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileId = FileId(7);

    #[test]
    fn write_then_read_round_trips() {
        let mut s = ExtentStore::new();
        s.write(F, 0, b"hello world");
        assert_eq!(s.read(F, 0, 11), b"hello world");
        assert_eq!(s.read(F, 6, 5), b"world");
        assert_eq!(s.len(F), Some(11));
    }

    #[test]
    fn holes_read_as_zeros() {
        let mut s = ExtentStore::new();
        s.write(F, 10, b"x");
        assert_eq!(s.read(F, 0, 10), vec![0u8; 10]);
        assert_eq!(s.len(F), Some(11));
    }

    #[test]
    fn read_past_eof_is_short() {
        let mut s = ExtentStore::new();
        s.write(F, 0, b"abc");
        assert_eq!(s.read(F, 2, 100), b"c");
        assert_eq!(s.read(F, 3, 100), b"");
        assert_eq!(s.read(F, 100, 5), b"");
    }

    #[test]
    fn missing_file_reads_empty() {
        let s = ExtentStore::new();
        assert_eq!(s.read(F, 0, 10), b"");
        assert_eq!(s.len(F), None);
        assert!(!s.exists(F));
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut s = ExtentStore::new();
        s.write(F, 0, b"aaaaaa");
        s.write(F, 2, b"bb");
        assert_eq!(s.read(F, 0, 6), b"aabbaa");
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut s = ExtentStore::new();
        s.write(F, 0, b"abcdef");
        s.truncate(F, 3);
        assert_eq!(s.read(F, 0, 10), b"abc");
        s.truncate(F, 5);
        assert_eq!(s.read(F, 0, 10), &[b'a', b'b', b'c', 0, 0][..]);
    }

    #[test]
    fn remove_deletes() {
        let mut s = ExtentStore::new();
        s.create(F);
        assert!(s.exists(F));
        assert!(s.remove(F));
        assert!(!s.exists(F));
        assert!(!s.remove(F));
    }
}

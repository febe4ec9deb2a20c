//! Cache-key schema (§4.2, §4.3.2).
//!
//! * metadata: the absolute pathname with `:m.stat` appended. One key per
//!   path holds its stat structure or, under negative caching, the
//!   ENOENT marker (`crate::NEG_MARKER`), so a lookup fetches one key;
//! * data blocks: the absolute pathname with the block's byte offset
//!   appended (`:<offset>`).
//!
//! The metadata namespace carries an explicit `m.` tag and its suffix
//! ends in a letter, while a block suffix is pure digits — so a metadata
//! key can never equal a block key, for any pair of paths, even after the
//! 250-byte fold below (the suffix is appended *after* folding, so the
//! final byte always reveals the namespace).
//!
//! memcached caps keys at 250 bytes and rejects whitespace/control bytes.
//! Paths long enough to overflow the cap — or containing bytes the daemon
//! would refuse — are folded to `~<crc32><sanitised-tail-of-path>`:
//! the CRC-32 of the *full* path keeps distinct deep paths distinct in
//! practice, the tail keeps keys debuggable, and every produced key is
//! guaranteed to pass the daemon's validation. Without the fold, an
//! oversized or space-bearing path would make every `set` fail silently
//! (`KeyTooLong` / `BadKey`), turning the file into a permanent cache miss.
//!
//! Placement is a pure function of the produced key: the selector hashes
//! it to a primary daemon — or, under §5.5's modulo placement, takes the
//! block index from the offset [`block_offset`] reads back off the key —
//! and with a replicated bank (DESIGN.md §4d) the replicas follow that
//! primary (the ketama walk continues from the key's ring position), so a
//! key's replica set is as stable under bank growth as its primary. No
//! caller passes placement beside a key.

use imca_memcached::{crc32, MAX_KEY_LEN};

/// Longest suffix we append (`:` + 20-digit offset; the metadata tag
/// `:m.stat` is shorter).
const SUFFIX_MAX: usize = 21;

/// Bytes the memcached daemon accepts in a key.
fn valid_key_byte(b: u8) -> bool {
    b > b' ' && b != 0x7f
}

fn needs_fold(path: &str) -> bool {
    path.len() + SUFFIX_MAX > MAX_KEY_LEN || !path.bytes().all(valid_key_byte)
}

fn folded_path(path: &str) -> String {
    if !needs_fold(path) {
        return path.to_string();
    }
    let keep = MAX_KEY_LEN - SUFFIX_MAX - 9; // "~" + 8 hex digits
    let bytes = path.as_bytes();
    let start = bytes.len().saturating_sub(keep);
    // Byte-wise tail: never slices inside a UTF-8 character, and every
    // byte the daemon would reject (plus non-ASCII, whose `char` form
    // would re-expand to multiple bytes) is mapped to '_'.
    let tail: String = bytes[start..]
        .iter()
        .map(|&b| {
            if valid_key_byte(b) && b.is_ascii() {
                b as char
            } else {
                '_'
            }
        })
        .collect();
    let folded = format!("~{:08x}{tail}", crc32(bytes));
    debug_assert!(folded.len() + SUFFIX_MAX <= MAX_KEY_LEN);
    folded
}

/// Key for a file's metadata — its stat structure, or its ENOENT
/// marker: `<path>:m.stat`.
pub fn stat_key(path: &str) -> Vec<u8> {
    format!("{}:m.stat", folded_path(path)).into_bytes()
}

/// Key for the data block starting at byte `block_start`:
/// `<path>:<block_start>`.
pub fn block_key(path: &str, block_start: u64) -> Vec<u8> {
    format!("{}:{block_start}", folded_path(path)).into_bytes()
}

/// The inverse of [`block_key`]: the byte offset a block key ends in (its
/// `:<digits>` suffix), or `None` for a metadata key (`:m.stat`), whose
/// suffix ends in a letter.
pub fn block_offset(key: &[u8]) -> Option<u64> {
    let colon = key.iter().rposition(|&b| b == b':')?;
    let digits = &key[colon + 1..];
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let digit = b.checked_sub(b'0').filter(|d| *d <= 9)?;
        n.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon_accepts(key: &[u8]) -> bool {
        !key.is_empty() && key.len() <= MAX_KEY_LEN && key.iter().all(|&b| valid_key_byte(b))
    }

    #[test]
    fn short_paths_embed_verbatim() {
        assert_eq!(stat_key("/a/b"), b"/a/b:m.stat");
        assert_eq!(block_key("/a/b", 4096), b"/a/b:4096");
    }

    #[test]
    fn keys_for_different_blocks_differ() {
        assert_ne!(block_key("/f", 0), block_key("/f", 2048));
        assert_ne!(block_key("/f", 0), stat_key("/f"));
    }

    /// The namespace guard: a metadata key can never collide with a
    /// block key — for any pair of paths, any offset, and
    /// whether or not the fold kicks in — because block suffixes end in a
    /// digit and metadata tags end in a letter. The corpus below includes
    /// adversarial paths crafted to *look like* keys of the other
    /// namespace.
    #[test]
    fn metadata_keys_never_collide_with_block_keys() {
        let paths = [
            "/a/b".to_string(),
            "/a/b:m.stat".to_string(), // path impersonating a stat key
            "/a/b:4096".to_string(),   // path impersonating a block key
            "/a/b:".to_string(),
            "~deadbeef/x".to_string(), // path impersonating a folded key
            format!("/deep{}", "/x".repeat(200)), // folds
            format!("/deep{}:m.stat", "/x".repeat(200)), // folds, hostile tail
        ];
        let offsets = [0u64, 7, 4096, u64::MAX];
        for p in &paths {
            let m = stat_key(p);
            // Structural invariant: metadata keys end in a letter, block
            // keys in a digit.
            assert!(m.last().unwrap().is_ascii_lowercase(), "{m:?}");
            for q in &paths {
                for &off in &offsets {
                    let b = block_key(q, off);
                    assert!(b.last().unwrap().is_ascii_digit(), "{b:?}");
                    assert_ne!(m, b, "collision: meta({p:?}) == block({q:?}, {off})");
                }
            }
        }
    }

    #[test]
    fn long_paths_fold_below_the_cap() {
        let long = format!("/deep{}", "/x".repeat(200));
        let k = block_key(&long, u64::MAX);
        assert!(k.len() <= MAX_KEY_LEN, "len={}", k.len());
        assert!(k.starts_with(b"~"));
        // Folding is stable and block-distinct.
        assert_eq!(k, block_key(&long, u64::MAX));
        assert_ne!(block_key(&long, 0), block_key(&long, 2048));
    }

    #[test]
    fn distinct_long_paths_stay_distinct() {
        let a = format!("/a{}", "/x".repeat(200));
        let b = format!("/b{}", "/x".repeat(200));
        assert_ne!(stat_key(&a), stat_key(&b));
    }

    #[test]
    fn fold_boundary_is_exact() {
        // Longest path that embeds verbatim with the longest block suffix.
        let max_inline = MAX_KEY_LEN - SUFFIX_MAX;
        let at = format!("/{}", "x".repeat(max_inline - 1));
        assert!(block_key(&at, u64::MAX).starts_with(b"/"));
        assert!(block_key(&at, u64::MAX).len() <= MAX_KEY_LEN);
        // One byte longer must fold.
        let over = format!("/{}", "x".repeat(max_inline));
        assert!(block_key(&over, 0).starts_with(b"~"));
        assert!(block_key(&over, u64::MAX).len() <= MAX_KEY_LEN);
    }

    #[test]
    fn paths_with_daemon_hostile_bytes_fold_to_valid_keys() {
        // Spaces, tabs, newlines, DEL: memcached rejects these in keys, so
        // the schema must fold them instead of emitting a key every `set`
        // would silently bounce off.
        for path in ["/my file.txt", "/tab\there", "/nl\nhere", "/del\x7fhere"] {
            let k = stat_key(path);
            assert!(daemon_accepts(&k), "invalid key for {path:?}: {k:?}");
            assert!(k.starts_with(b"~"), "hostile path must fold: {path:?}");
        }
        // Distinct hostile paths keep distinct keys via the CRC.
        assert_ne!(stat_key("/a b"), stat_key("/a c"));
    }

    #[test]
    fn long_non_ascii_paths_do_not_panic_and_stay_capped() {
        // 3-byte UTF-8 chars: the fold point lands mid-character, which a
        // naive byte slice of a &str would panic on.
        let long = format!("/日本語{}", "あ".repeat(120));
        for key in [stat_key(&long), block_key(&long, u64::MAX)] {
            assert!(daemon_accepts(&key), "bad key: {key:?}");
        }
        // Stability and distinctness still hold.
        assert_eq!(stat_key(&long), stat_key(&long));
        let other = format!("/日本語{}", "い".repeat(120));
        assert_ne!(stat_key(&long), stat_key(&other));
    }

    #[test]
    fn short_non_ascii_paths_fold_rather_than_oversize() {
        // A "short looking" path can still be over the byte cap.
        let fat = "é".repeat(130); // 260 bytes
        let k = stat_key(&fat);
        assert!(daemon_accepts(&k));
        assert!(k.starts_with(b"~"));
    }

    /// `block_offset` inverts `block_key` for every kind of path the
    /// schema handles — short, folded past the cap, whitespace or
    /// non-ASCII bytes, colons inside the path — and reads nothing off a
    /// metadata key of the same paths.
    #[test]
    fn block_offset_inverts_block_key() {
        let paths = [
            "/a/b".to_string(),
            "/".to_string(),
            "/a/b:4096".to_string(),
            "/a/b:".to_string(),
            "/a:1/b:m.stat".to_string(),
            format!("/deep{}", "/x".repeat(115)), // 235 bytes: folds
            format!("/deep{}:99", "/x".repeat(200)),
            "/white space/file".to_string(),
            "/tab\there".to_string(),
            "/日本語/ファイル".to_string(),
            "é".repeat(130),
        ];
        assert!(paths[5].len() > 229 && needs_fold(&paths[5]));
        let offsets = [0u64, 1, 7, 2048, 4096 * 1000 + 3, u64::MAX];
        for p in &paths {
            for &off in &offsets {
                assert_eq!(
                    block_offset(&block_key(p, off)),
                    Some(off),
                    "{p:?} at {off}"
                );
            }
            assert_eq!(block_offset(&stat_key(p)), None, "stat key of {p:?}");
        }
        // Not keys the schema produces: no suffix, or one past u64.
        assert_eq!(block_offset(b"/no/colon"), None);
        assert_eq!(block_offset(b"/a:18446744073709551616"), None);
    }

    #[test]
    fn every_generated_key_is_daemon_acceptable() {
        for key in [
            stat_key("/some/dir/file.dat"),
            block_key("/some/dir/file.dat", 123456),
            stat_key(&format!("/deep{}", "/y".repeat(300))),
            block_key("/white space/file", 0),
            stat_key(""),
        ] {
            assert!(daemon_accepts(&key), "bad key: {key:?}");
        }
    }
}

//! The five workloads as data: every input a rep needs — the system to
//! deploy, the files, who creates/opens/prefills them, and each client's
//! timed op stream — generated from `--seed` before anything is built.
//! The program under test receives only these inputs.
//!
//! File content is a pure function of (seed, file, absolute offset) and
//! timed writes never extend a file, so every read and stat has exactly
//! one correct answer under any interleaving of the closed loops.

use imca_core::{ClusterConfig, ImcaConfig, MetaConfig};
use imca_memcached::McConfig;
use imca_storage::BackendParams;
use imca_workloads::SystemSpec;

use crate::rng::{mix, Rng, Zipf};

/// IMCa's cache block: reads and writes are generated block-aligned.
const BLOCK: u64 = 2048;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 5] = [
    "warm_read",
    "hot_contend",
    "meta_storm",
    "mixed_rw",
    "cold_stream",
];

/// How big a rep is. `Tiny` exists for the unit tests only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// One timed client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Read {
        file: u32,
        off: u64,
        len: u32,
    },
    Write {
        file: u32,
        off: u64,
        len: u32,
    },
    Stat {
        file: u32,
    },
    /// `try_stat` on a path that was never created; must answer ENOENT.
    Ghost {
        ghost: u32,
    },
    /// `stat_multi` over `count` consecutive files of one directory.
    StatMulti {
        first: u32,
        count: u32,
    },
}

/// The bytes of every file: word `w` of file `f` is a mix of both.
#[derive(Debug, Clone, Copy)]
pub struct Pattern {
    salt: u64,
}

impl Pattern {
    fn word(&self, file: u32, index: u64) -> [u8; 8] {
        mix(self.salt ^ ((file as u64) << 40) ^ index).to_le_bytes()
    }

    /// Walk `[off, off+len)` word by word: `f(range of the buffer,
    /// the bytes that belong there)`; stops early when `f` says false.
    fn walk(&self, file: u32, off: u64, len: usize, mut f: impl FnMut(usize, &[u8]) -> bool) {
        let (mut pos, mut done) = (off, 0);
        while done < len {
            let skip = (pos % 8) as usize;
            let n = (8 - skip).min(len - done);
            if !f(done, &self.word(file, pos / 8)[skip..skip + n]) {
                return;
            }
            done += n;
            pos += n as u64;
        }
    }

    /// The bytes of `file` at `[off, off+len)`.
    pub fn bytes(&self, file: u32, off: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.walk(file, off, len, |at, want| {
            buf[at..at + want.len()].copy_from_slice(want);
            true
        });
        buf
    }

    /// Whether `got` is exactly the bytes of `file` from `off`.
    pub fn matches(&self, file: u32, off: u64, got: &[u8]) -> bool {
        let mut same = true;
        self.walk(file, off, got.len(), |at, want| {
            same = &got[at..at + want.len()] == want;
            same
        });
        same
    }
}

/// One client's part of a rep.
#[derive(Debug, Clone, Default)]
pub struct ClientPlan {
    /// Files this client opens during set-up and holds open throughout.
    pub open: Vec<u32>,
    /// Virtual delay before the first timed op (barrier-release skew).
    pub start_delay_ns: u64,
    /// The timed closed loop.
    pub ops: Vec<Op>,
}

/// Everything a rep runs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// What to deploy: a [`SystemSpec`] preset's configuration, or one
    /// whose caches the workload has sized itself.
    pub deploy: ClusterConfig,
    /// File id → absolute path. (Parallel vectors, not one of records:
    /// `stat_multi` takes a window of paths as a `&[String]`.)
    pub paths: Vec<String>,
    /// File id → size in bytes after prefill (never changes afterwards).
    pub sizes: Vec<u64>,
    /// File id → the client that creates and prefills it.
    pub owners: Vec<u32>,
    /// Paths that are never created.
    pub ghosts: Vec<String>,
    pub clients: Vec<ClientPlan>,
    /// Record size of the prefill writes.
    pub prefill_record: u64,
    /// Close and reopen every held file after prefill (IMCa purges a
    /// file's cache entries on open and close, so this empties the bank).
    pub reopen_after_prefill: bool,
    pub pattern: Pattern,
}

impl Plan {
    /// Timed ops over all clients.
    pub fn timed_ops(&self) -> u64 {
        self.clients.iter().map(|c| c.ops.len() as u64).sum()
    }

    /// Filesystem calls the set-up makes, near enough to cut it into
    /// slices: creates, held opens and prefill writes.
    fn preset(spec: SystemSpec, seed: u64, clients: usize) -> Plan {
        let deploy = spec.cluster_config().expect("a GlusterFS deployment");
        Plan::new(deploy, seed, clients)
    }

    pub fn setup_calls(&self) -> u64 {
        let opens: usize = self.clients.iter().map(|c| c.open.len()).sum();
        let writes: u64 = self
            .sizes
            .iter()
            .map(|s| s.div_ceil(self.prefill_record))
            .sum();
        self.paths.len() as u64 + opens as u64 + writes
    }

    fn new(deploy: ClusterConfig, seed: u64, clients: usize) -> Plan {
        Plan {
            deploy,
            paths: Vec::new(),
            sizes: Vec::new(),
            owners: Vec::new(),
            ghosts: Vec::new(),
            clients: vec![ClientPlan::default(); clients],
            prefill_record: 64 << 10,
            reopen_after_prefill: false,
            pattern: Pattern {
                salt: mix(seed ^ 0x1A7C_A5EE_D5A1_7000),
            },
        }
    }

    fn add_file(&mut self, path: String, size: u64, owner: usize) -> u32 {
        self.paths.push(path);
        self.sizes.push(size);
        self.owners.push(owner as u32);
        (self.paths.len() - 1) as u32
    }

    /// Release every client within `window_ns` of the start, as a real
    /// barrier would, instead of in one zero-skew instant.
    fn stagger(&mut self, seed: u64, window_ns: u64) {
        let mut rng = Rng::stream(seed, 0x57A6_6E12);
        for c in &mut self.clients {
            c.start_delay_ns = rng.below(window_ns);
        }
    }
}

/// Generate `workload`'s plan, or `None` for an unknown name.
pub fn generate(workload: &str, seed: u64, scale: Scale) -> Option<Plan> {
    Some(match workload {
        "warm_read" => warm_read(seed, scale),
        "hot_contend" => hot_contend(seed, scale),
        "meta_storm" => meta_storm(seed, scale),
        "mixed_rw" => mixed_rw(seed, scale),
        "cold_stream" => cold_stream(seed, scale),
        _ => return None,
    })
}

/// The cache-hit path, lightly loaded: each client re-reads its own
/// prefilled file, which fits the bank with room to spare.
fn warm_read(seed: u64, scale: Scale) -> Plan {
    let (clients, ops, file_bytes) = match scale {
        Scale::Full => (32, 1500, 2u64 << 20),
        Scale::Tiny => (4, 48, 128 << 10),
    };
    let mut plan = Plan::preset(SystemSpec::imca(4), seed, clients);
    let blocks = file_bytes / BLOCK;
    for c in 0..clients {
        let file = plan.add_file(format!("/bench/warm/c{c:02}"), file_bytes, c);
        let mut rng = Rng::stream(seed, c as u64);
        plan.clients[c].open = vec![file];
        plan.clients[c].ops = (0..ops)
            .map(|_| {
                // A quarter are 32 KB reads: one 16-key multi-get each.
                let n = if rng.below(4) == 0 { 16 } else { 1 };
                Op::Read {
                    file,
                    off: rng.below(blocks - n + 1) * BLOCK,
                    len: (n * BLOCK) as u32,
                }
            })
            .collect();
    }
    plan.stagger(seed, 50_000);
    plan
}

/// The same hit path saturated: many zero-think readers of one shared
/// file behind two daemons (the paper's §5.6 shared-file geometry).
fn hot_contend(seed: u64, scale: Scale) -> Plan {
    let (clients, ops, file_bytes) = match scale {
        Scale::Full => (96, 1200, 48u64 << 20),
        Scale::Tiny => (6, 40, 256 << 10),
    };
    let mut plan = Plan::preset(SystemSpec::imca(2), seed, clients);
    let file = plan.add_file("/bench/hot/shared".into(), file_bytes, 0);
    let blocks = file_bytes / BLOCK;
    for c in 0..clients {
        let mut rng = Rng::stream(seed, c as u64);
        plan.clients[c].open = vec![file];
        plan.clients[c].ops = (0..ops)
            .map(|_| Op::Read {
                file,
                off: rng.below(blocks) * BLOCK,
                len: BLOCK as u32,
            })
            .collect();
    }
    plan.stagger(seed, 50_000);
    plan
}

/// The metadata tier: Zipf stats under leases, ghost probes answered by
/// negative entries, and readdirplus-style windows. No data block moves.
fn meta_storm(seed: u64, scale: Scale) -> Plan {
    const WINDOW: u32 = 32;
    let (clients, ops, dirs, per_dir, ghosts) = match scale {
        Scale::Full => (16, 6400, 128u32, 256u32, 1024),
        Scale::Tiny => (3, 120, 4, 32, 16),
    };
    let spec = SystemSpec::imca_meta(4, MetaConfig::lease());
    let mut plan = Plan::preset(spec, seed, clients);
    let mut rng = Rng::stream(seed, 0xF11E5);
    for d in 0..dirs {
        for f in 0..per_dir {
            // One file in eight has content, so a wrong stat cannot hide
            // behind every size being zero.
            let size = if f % 8 == 0 { 1 + rng.below(4000) } else { 0 };
            // Names vary in length as real ones do; every key and reply
            // being the same size would put the unloaded round trips on
            // a handful of exact values. One node lays the tree out
            // before the others mount.
            let tail = |i: u32| &"-abcdefghijk"[..i as usize % 12];
            plan.add_file(
                format!("/bench/meta/d{d}{}/f{f}{}", tail(d), tail(f)),
                size,
                0,
            );
        }
    }
    plan.prefill_record = 4096;
    plan.ghosts = (0..ghosts)
        .map(|g| format!("/bench/meta/d{}/gone{g}", g % dirs))
        .collect();
    let files = plan.paths.len();
    let popularity = Zipf::new(files, 0.8);
    // Popularity rank → file, so the hot files are spread over directories.
    let by_rank = rng.permutation(files);
    // Listings favour a few directories far more than stats favour a few
    // files: that is where the lease hits of the windows come from.
    let dir_popularity = Zipf::new(dirs as usize, 1.0);
    let dir_by_rank = rng.permutation(dirs as usize);
    for (c, client) in plan.clients.iter_mut().enumerate() {
        let mut rng = Rng::stream(seed, c as u64);
        client.ops = (0..ops)
            .map(|_| match rng.below(10) {
                0 => Op::Ghost {
                    ghost: rng.below(ghosts as u64) as u32,
                },
                1 => Op::StatMulti {
                    first: dir_by_rank[dir_popularity.sample(&mut rng)] * per_dir
                        + rng.below((per_dir - WINDOW.min(per_dir) + 1) as u64) as u32,
                    count: WINDOW.min(per_dir),
                },
                _ => Op::Stat {
                    file: by_rank[popularity.sample(&mut rng)],
                },
            })
            .collect();
    }
    plan.stagger(seed, 50_000);
    plan
}

/// Writes beside reads and stats on a replicated, CAS-coherent bank:
/// the cost of keeping the cache right while it is being used.
fn mixed_rw(seed: u64, scale: Scale) -> Plan {
    let (clients, ops, files) = match scale {
        Scale::Full => (16, 2500, 512),
        Scale::Tiny => (3, 60, 12),
    };
    let spec = SystemSpec::imca_replicated(4, 2);
    let mut plan = Plan::preset(spec, seed, clients);
    // File id = popularity rank, and sizes (2 KB – 62 KB) go by rank, not
    // by seed: how big the few hottest files are decides how many bytes
    // move, and that must not differ from one seed to the next.
    for f in 0..files {
        let blocks = 1 + (f as u64 * 7) % 31;
        plan.add_file(format!("/bench/mixed/f{f:03}"), blocks * BLOCK, f % clients);
    }
    let popularity = Zipf::new(files, 1.0);
    let sizes = plan.sizes.clone();
    for (c, client) in plan.clients.iter_mut().enumerate() {
        let mut rng = Rng::stream(seed, c as u64);
        client.open = (0..files as u32).collect();
        client.ops = (0..ops)
            .map(|_| {
                let file = popularity.sample(&mut rng) as u32;
                let blocks = sizes[file as usize] / BLOCK;
                let range = |rng: &mut Rng| {
                    let first = rng.below(blocks);
                    let n = 1 + rng.below((blocks - first).min(8));
                    (first * BLOCK, (n * BLOCK) as u32)
                };
                match rng.below(20) {
                    0..=11 => {
                        let (off, len) = range(&mut rng);
                        Op::Read { file, off, len }
                    }
                    12..=16 => Op::Stat { file },
                    _ => {
                        let (off, len) = range(&mut rng);
                        Op::Write { file, off, len }
                    }
                }
            })
            .collect();
    }
    plan.stagger(seed, 50_000);
    plan
}

/// A working set several times larger than the bank and the server's
/// page cache together, streamed IOzone-style: every read misses, fills
/// and evicts. Sized down from the paper's run so a rep stays short;
/// what matters is the ratio of data to cache.
fn cold_stream(seed: u64, scale: Scale) -> Plan {
    const RECORD: u64 = 64 << 10;
    let (streams, records, passes, mcd_mem, page_cache) = match scale {
        Scale::Full => (8, 160u64, 4, 4u64 << 20, 8u64 << 20),
        Scale::Tiny => (2, 24, 2, 1 << 20, 1 << 20),
    };
    let mut cfg = ClusterConfig::imca(ImcaConfig {
        mcd_count: 2,
        mcd_config: McConfig::with_mem_limit(mcd_mem),
        ..ImcaConfig::default()
    });
    cfg.backend = BackendParams::paper_server().with_cache_bytes(page_cache);
    let mut plan = Plan::new(cfg, seed, streams);
    plan.prefill_record = RECORD;
    plan.reopen_after_prefill = true;
    let mut rng = Rng::stream(seed, 0xF11E5);
    for c in 0..streams {
        // File lengths differ by a few records so the streams do not
        // wrap around in step.
        let len = records - rng.below(8);
        let file = plan.add_file(format!("/bench/cold/s{c}"), len * RECORD, c);
        plan.clients[c].open = vec![file];
        // The first reads after the reopen flush the dirty pages the
        // prefill left in the server's page cache (100–400 ms each, 2 %
        // of the run): that is the p99. The steady state behind it is a
        // disk that answers in 9.05 ms or 9.06 ms, with nothing to rank.
        plan.clients[c].ops = (0..passes)
            .flat_map(|_| 0..len)
            .map(|r| Op::Read {
                file,
                off: r * RECORD,
                len: RECORD as u32,
            })
            .collect();
    }
    plan.stagger(seed, 2_000_000);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_position_exact_at_any_alignment() {
        let p = Plan::preset(SystemSpec::GlusterNoCache, 9, 0).pattern;
        let whole = p.bytes(3, 0, 4096);
        for (off, len) in [(0, 4096), (1, 17), (7, 1), (8, 8), (13, 2048), (4090, 6)] {
            let part = p.bytes(3, off, len);
            assert_eq!(part, whole[off as usize..off as usize + len]);
            assert!(p.matches(3, off, &part));
            assert!(!p.matches(3, off + 8, &part), "shifted bytes matched");
            assert!(!p.matches(4, off, &part), "another file's bytes matched");
        }
        let mut bad = p.bytes(3, 0, 100);
        bad[99] ^= 1;
        assert!(!p.matches(3, 0, &bad));
    }

    #[test]
    fn every_workload_generates_and_unknown_names_do_not() {
        for w in WORKLOADS {
            let plan = generate(w, 1, Scale::Tiny).expect(w);
            assert!(plan.timed_ops() > 0, "{w}");
            assert_eq!(plan.paths.len(), plan.sizes.len());
            assert_eq!(plan.paths.len(), plan.owners.len());
        }
        assert!(generate("nope", 1, Scale::Tiny).is_none());
    }

    #[test]
    fn ops_stay_inside_their_files() {
        for w in WORKLOADS {
            let plan = generate(w, 5, Scale::Tiny).unwrap();
            for op in plan.clients.iter().flat_map(|c| &c.ops) {
                match *op {
                    Op::Read { file, off, len } | Op::Write { file, off, len } => {
                        assert!(
                            len > 0 && off + len as u64 <= plan.sizes[file as usize],
                            "{w}"
                        );
                    }
                    Op::Stat { file } => assert!((file as usize) < plan.paths.len()),
                    Op::Ghost { ghost } => assert!((ghost as usize) < plan.ghosts.len()),
                    Op::StatMulti { first, count } => {
                        assert!(count > 1 && ((first + count) as usize) <= plan.paths.len());
                    }
                }
            }
        }
    }

    #[test]
    fn seed_decides_the_op_stream() {
        for w in WORKLOADS {
            let ops = |seed| -> Vec<(u64, Vec<Op>)> {
                generate(w, seed, Scale::Tiny)
                    .unwrap()
                    .clients
                    .into_iter()
                    .map(|c| (c.start_delay_ns, c.ops))
                    .collect()
            };
            assert_eq!(ops(11), ops(11), "{w}: same seed, different inputs");
            assert_ne!(ops(11), ops(12), "{w}: seed does not reach the inputs");
        }
    }
}

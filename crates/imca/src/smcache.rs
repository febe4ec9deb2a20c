//! SMCache — the Server Memory Cache translator (§4.1, §4.3.2).
//!
//! Sits between `protocol/server` and `storage/posix`, with hooks on both
//! the request path and the completion (callback) path:
//!
//! * **open**: purge the file's entries from the MCDs, then seed the stat
//!   entry from the open's attributes ("At open, MCD is updated with the
//!   contents of the stat structure from the file by SMCache").
//! * **stat** (a CMCache miss): forward, then repopulate the stat entry —
//!   or, under negative caching, plant an ENOENT marker as its value; a
//!   batched stat (readdirplus) repopulates every entry it found, and
//!   plants every marker, in one bulk push.
//! * **read**: enlarge to the IMCa block alignment, serve the requested
//!   sub-range, and push the whole blocks to the MCDs.
//! * **write**: writes are persistent — they complete at the filesystem
//!   first; then SMCache issues reads covering the write area (accounting
//!   for the block size) and feeds the blocks plus the refreshed stat to
//!   the MCDs. In the default (synchronous) mode this happens in the
//!   critical path, which is why Fig 6(c) shows IMCa write latency above
//!   NoCache; with `threaded_updates` the work moves to a background
//!   process and write latency returns to the NoCache level.
//! * **close / unlink**: purge the file's entries.
//! * **create** (under `MetaConfig::lease`, the one policy that caches
//!   ENOENT): store the new file's stat from the create's reply — its
//!   `set` replaces an ENOENT marker — then revoke leases, and reply
//!   (`store_created`). Created files start warm, as opened ones do.
//!
//! A path has one metadata key, `:m.stat` (`crate::keys`): it holds the
//! stat, or the ENOENT marker. Stats are stored with `set`, markers with
//! `add`, so a marker never replaces a stat, and a purge deletes both.
//!
//! Because memcached cannot enumerate keys, SMCache records which block
//! keys it has populated per file and purges exactly those.
//!
//! # The update path, once
//!
//! Everything SMCache does to the bank beyond a purge is a job:
//! `Job { path, gen, work }`, where `work` is a read-path fill, the purge
//! protocol's repopulation or the CAS protocol's in-place replacement.
//!
//! * **Executor** (`submit`): with `threaded_updates` the job is counted
//!   and queued for the background worker, otherwise it runs now, in the
//!   fop's critical path. The read fill and both write protocols enter
//!   through it.
//! * **Fence** (`fenced`): `purge()` bumps a per-path generation counter
//!   *before* it yields, and every job carries the generation it was
//!   created under. The worker checks the fence before it starts a job;
//!   every step checks it again after each await that a purge could have
//!   overtaken — a child fop, a bank round, a lease revocation. A stale
//!   update is dropped, and what it stored since its last check is taken
//!   out again, instead of repopulating blocks for a closed or deleted
//!   file, the "false positive" §4.3.2 purges to avoid.
//! * **Write order**: racing fops need no purge to go stale. Under `Cas`
//!   with synchronous updates, a write takes its place, when SMCache
//!   winds it, on every block it covers and every short block its path
//!   tracks (`Places`), each once; its update starts only once every
//!   update wound earlier on those blocks has ended and recorded its
//!   kept tokens. Posix applies a write's bytes at its first poll, so
//!   wind order is disk order, and no wave `cas`es against another
//!   write's tokens. A write the filesystem refuses holds its turn until
//!   the turns before it end (`Places::forgo`). Order is per block:
//!   writers of disjoint blocks of one file never wait on each other. A stale short block the update
//!   holds no place on is deleted, not extended (`drop_blocks`). A stat
//!   is never pushed over a newer one (`push_stat` pushes the newest
//!   since the last purge). Where the bank may land stores out of issue
//!   order (`BankClient::may_reorder`: a fault plan or a retry), or a
//!   round takes several frames per daemon, blocks read from the
//!   filesystem are taken out again once stored if a write to the file
//!   returned meanwhile (`overtaken`), and a stat if a newer one went
//!   out while it was on the wire. The threaded worker needs neither
//!   places nor a write count: it runs jobs in the order their fops
//!   returned.
//! * **Refill** (`refill`): re-read a block-aligned span from the
//!   filesystem, fence, push it — the purge protocol's covering re-read,
//!   the re-read of short blocks a write left stale, and the CAS path's
//!   fill leg for untracked blocks. Under `Cas` its stores ask for their
//!   tokens, which the blocks keep (below). A re-read or stat the disk
//!   refuses `abandon`s the update: nothing is pushed and the file is
//!   purged.
//! * **Tail** (`refresh_stat`): revoke leases, fence, push the new stat.
//!   It runs only once every block store of the update has gone out
//!   ahead of it, so a consumer that sees the new mtime reads the new
//!   blocks.
//! * **Fall-back** (`fall_back`): a CAS wave that could not replace every
//!   held copy purges the file and repopulates under the new generation.
//! * **Post, then reply** (`settle`): a metadata store whose answer the
//!   fop's reply never reads — a stat miss's push or marker, a batched
//!   stat's bulk push, open's seed, a write's stat refresh — is
//!   *posted*: [`BankClient::post_stores`] sends it at the call, so its
//!   frames sit in the server NIC's TX queue ahead of the reply, and what
//!   followed the await (fence take-outs, `overtaken`, bookkeeping,
//!   counters) runs as a continuation once the answer is back. FIFO
//!   links, NICs and event loops put every lookup the reply causes
//!   behind the store (DESIGN.md §4f). Where the bank may reorder stores
//!   (`BankClient::may_reorder`) the fop awaits the answer first. A
//!   synchronous write's CAS wave is posted too (`post_wave`): SMCache
//!   is the bank's only writer and the write holds the place on every
//!   block of the wave, so a `cas` can answer `Stored`, `Missing` or
//!   `Failed`, never `Conflict` (a `debug_assert!`; only a retried
//!   frame re-applying a landed `cas` may). The fill rule keeps it so: a
//!   read fill's `set`s take no place, so the wave is awaited if a fill
//!   of the path was in flight at any moment between its token reads and
//!   its send (`fill_mark`), and a store keeps no token if a fill was in
//!   flight beside it. The write revokes leases, posts its stat, whose
//!   frame leaves the server behind every wave frame, and replies; the
//!   verdicts, kept tokens, fence take-outs and any fall-back settle in
//!   the continuation (`land`), which holds the write's places. What
//!   the reply reads (`gets`, the write path's `refill`, purges, an
//!   awaited wave's fall-back) and a read's fill stay awaited (DESIGN.md
//!   §4f says why).
//! * **Drain count** ([`SmCache::pending`]): posted stores until their
//!   continuations have run, and threaded jobs from `submit` until the
//!   worker is done with them. A job's own stat refresh is posted, so
//!   only both halves together say the bank holds all a fop caused.
//!
//! How a push, purge or CAS wave is framed on the wire — one frame per
//! daemon, or one awaited RPC per key — is decided inside [`BankClient`]
//! (`ImcaConfig::batching`); this module calls `store_blocks` /
//! `remove_keys` / `cas_blocks` and never knows.
//!
//! With a replicated bank (`ImcaConfig::replication`, DESIGN.md §4d)
//! nothing changes here: every push and purge SMCache issues fans out to
//! all of a key's replicas inside [`BankClient`], and the generation
//! fence applies per replica — so a write or unlink purges *every*
//! replica before the stat entry is refreshed.
//!
//! **Write coherence** is selectable ([`Coherence`], DESIGN.md §4f).
//! The default `Cas` mode replaces a write's covering blocks *in place*:
//! compute each block's post-write bytes locally from the write payload
//! and `cas`-store them back on every replica — replicas stay warm across
//! writes and the covering disk re-read disappears for warm files. Every
//! store SMCache may later replace (a `cas`, a covering re-read's `set`)
//! asks for the item's new CAS token, and the tracked block keeps it per
//! replica ([`Kept`]). A block the write covers whole needs no old bytes,
//! so with a token kept for every write target it goes straight into the
//! `cas` wave; the other blocks `gets` their copies and tokens first. A
//! read fill's `set`s do not ask, and leave the block no tokens. Any CAS
//! conflict (a kept token gone stale included), concurrent purge, or
//! failed replica falls back to `Purge` semantics for that write, so
//! NoCache equivalence and the generation fence hold verbatim. `Purge`
//! mode keeps the paper's protocol — delete the covering entries from
//! every replica, then repopulate from a covering re-read — as the
//! ablation baseline with its R-proportional purge tax and cold window.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use imca_glusterfs::{FileStat, Fop, FopReply, FsError, Translator, Xlator};
use imca_memcached::protocol::StoreVerb;
use imca_metrics::{prefixed, Counter, MetricSource, Registry, Snapshot};
use imca_sim::sync::{oneshot, OneshotReceiver, OneshotSender, Queue};
use imca_sim::{SimHandle, TokenBucket};

use crate::block::{aligned_range, cover};
use crate::cluster::ImcaConfig;
use crate::keys::{block_key, stat_key};
use crate::mcd::{Answer, BankClient, CasToken, CasVerdict, Kept, Sent, Store};
use crate::meta::{LeaseHub, NEG_MARKER};

/// Write-coherence protocol for the bank (DESIGN.md §4f).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Coherence {
    /// Versioned in-place replacement: a write computes its covering
    /// blocks' post-write bytes locally from the write payload — with
    /// each replica's copy and token from a `gets` where it covers a
    /// block in part, or holds no token kept from SMCache's own last
    /// store of it — and `cas`-stores them back. Replicas stay warm
    /// across writes and a warm file's update needs no covering disk
    /// re-read. Any CAS conflict, missing key, failed replica, or
    /// generation-fence mismatch falls back to [`Coherence::Purge`]
    /// semantics for that write, so NoCache equivalence is preserved
    /// verbatim.
    #[default]
    Cas,
    /// The paper's protocol and the ablation baseline: delete the
    /// write's covering entries from every replica (an R-proportional
    /// purge tax), then repopulate them from a covering filesystem
    /// re-read — readers racing the window stampede the backend.
    Purge,
}

/// Rate limit on read-path bank rewarming (DESIGN.md §8).
///
/// After a purge or a cold daemon restart, every read misses and every
/// miss normally repopulates the bank — precisely when the bank is least
/// able to absorb extra stores. With a limit configured, read-path fills
/// spend one token per fill operation from a deterministic
/// [`TokenBucket`]; a dry bucket skips the push (counted as
/// `rewarm_suppressed`). Skipping is coherence-safe: the bank merely
/// stays cold for that range and the next admitted read refills it.
/// Write-path pushes (CAS replacement, purge repopulation) are *not*
/// limited — they maintain coherence and must always land.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewarmLimit {
    /// Tokens (fill operations) accrued per virtual second.
    pub rate_per_sec: f64,
    /// Bucket capacity: the burst of fills admitted after idle.
    pub burst: f64,
}

impl Default for RewarmLimit {
    fn default() -> RewarmLimit {
        RewarmLimit {
            rate_per_sec: 2_000.0,
            burst: 256.0,
        }
    }
}

/// What an update job does once the fence admits it.
enum Work {
    /// Push blocks cut from data already in hand (the read-path fill),
    /// read when `writes` writes to the path had returned.
    Fill {
        aligned_offset: u64,
        aligned_len: u64,
        data: Vec<u8>,
        writes: u64,
    },
    /// [`Coherence::Purge`]: drop the covering entries of the write to
    /// `[offset, offset+len)`, re-read them from the filesystem and push
    /// them with the refreshed stat.
    Repopulate { offset: u64, len: u64 },
    /// [`Coherence::Cas`]: replace the write's covering blocks in place.
    /// Carries the write payload so the post-write bytes can be computed
    /// without re-reading the disk, and, in the synchronous executor, the
    /// places the write took in its blocks' update order at its wind.
    Replace {
        offset: u64,
        data: Vec<u8>,
        places: Option<Places>,
    },
}

/// One unit of bank maintenance for `path`, created under purge
/// generation `gen` and worthless once a purge has moved past it.
struct Job {
    path: String,
    gen: u64,
    work: Work,
}

/// A CAS wave on its way: what [`SmCache::land`] needs once its
/// verdicts are back.
struct Wave {
    path: String,
    gen: u64,
    /// The write's `(offset, len)`.
    span: (u64, u64),
    /// The post-write stat.
    st: FileStat,
    /// The wave's block starts; `placed` names each item's position here
    /// and its replica slot.
    blocks: Vec<u64>,
    placed: Vec<(usize, usize)>,
    /// The fill rule's mark ([`SmCache::fill_mark`]), taken before the
    /// wave's tokens were read.
    fills: Option<u32>,
    places: Option<Places>,
}

/// What SMCache knows of one cached block: its chunk length, and the CAS
/// uniques its replicas answered SMCache's last token-asking store of it
/// with (none after a read fill, whose `set`s do not ask).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cached {
    len: u64,
    kept: Kept,
}

/// One file's tracked blocks: block start → its [`Cached`] length and
/// kept tokens, and the starts cached *short* (below the block size) on
/// their own. There is normally one short block, the EOF block, and the
/// EOF check on every write looks at nothing else
/// (`SmCache::stale_short_blocks`).
#[derive(Default)]
struct Tracked {
    lens: BTreeMap<u64, Cached>,
    short: BTreeSet<u64>,
}

impl Tracked {
    fn insert(&mut self, start: u64, len: u64, kept: Kept, block_size: u64) {
        self.lens.insert(start, Cached { len, kept });
        if len < block_size {
            self.short.insert(start);
        } else {
            self.short.remove(&start);
        }
    }

    fn remove(&mut self, start: u64) {
        self.lens.remove(&start);
        self.short.remove(&start);
    }
}

/// A write's turn in its blocks' update order: every write wound after
/// it on one of its blocks holds the receiver of one of these senders,
/// which resolves when the turn ends and the senders drop.
#[derive(Default)]
struct Turn {
    next: RefCell<Vec<OneshotSender<()>>>,
}

/// The places a synchronous [`Coherence::Cas`] write takes when SMCache
/// winds it: one on every block it covers and on every short block its
/// path tracks (the module doc's "Write order"). Its update waits for
/// the earlier-wound updates on those blocks ([`Places::wait`]); dropping
/// it ends the write's turn, once its update has recorded its tokens.
struct Places {
    sm: Rc<SmCache>,
    path: String,
    /// The block starts, sorted.
    blocks: Vec<u64>,
    turn: Rc<Turn>,
    /// One receiver per earlier-wound update on a block here.
    after: Vec<OneshotReceiver<()>>,
}

impl Places {
    /// Wait until every earlier-wound update on these blocks has ended.
    async fn wait(&mut self) {
        for earlier in self.after.drain(..) {
            let _ = earlier.await;
        }
    }

    /// End the turn of a write whose update never runs (the filesystem
    /// refused the write), but only once the earlier-wound updates on
    /// these blocks have ended: a write wound after this one waits on
    /// this turn, and must not start beside them. Counted by
    /// [`SmCache::pending`] while it waits.
    fn forgo(mut self) {
        if !self.after.is_empty() {
            let sm = Rc::clone(&self.sm);
            sm.detach(async move { self.wait().await });
        }
    }
}

impl Drop for Places {
    fn drop(&mut self) {
        let turn = &self.turn;
        self.sm.with_path(&self.path, |p| {
            for start in &self.blocks {
                if p.places.get(start).is_some_and(|t| Rc::ptr_eq(t, turn)) {
                    p.places.remove(start);
                }
            }
        });
        turn.next.take();
    }
}

/// Whether the update holding `places` may store the block at `start`:
/// without places (the threaded worker, [`Coherence::Purge`]) it may
/// store any block.
fn owned(places: Option<&Places>, start: u64) -> bool {
    places.is_none_or(|p| p.blocks.binary_search(&start).is_ok())
}

/// What SMCache knows of one path between fops.
#[derive(Default)]
struct PathState {
    /// The purge generation; bumped synchronously by `purge()` so racing
    /// update jobs can detect they are stale.
    gen: u64,
    /// The newest stat pushed since the last purge, by `(mtime, size)`.
    /// Neither goes back between purges, so a stat read before a racing
    /// write returned gives way to it ([`SmCache::push_stat`]).
    newest_stat: Option<FileStat>,
    /// The writes to the path that have returned from the filesystem.
    /// Bytes read before one returned may predate it
    /// ([`SmCache::overtaken`]); a purge leaves the count alone.
    writes: u64,
    /// The blocks pushed and not yet purged, with their cached lengths;
    /// `None` until the first push, and again after a purge. The length
    /// matters at EOF: a block cached shorter than the block size encodes
    /// "the file ends inside this block", and must be refreshed when a
    /// write moves the end of file past it — `Tracked::short` indexes
    /// exactly those blocks, so `stale_short_blocks` never walks the
    /// whole file. Boxed: most paths (a stat-only metadata tree) never
    /// hold a block, and each carries one pointer instead of two maps.
    tracked: Option<Box<Tracked>>,
    /// Block start → the turn of the write wound last on it, until that
    /// write's update ends ([`Places`]). A purge leaves it alone.
    places: BTreeMap<u64, Rc<Turn>>,
    /// Read fills of the path in flight, and sent so far
    /// ([`SmCache::fill_mark`]). A purge leaves both alone.
    fills: u32,
    fills_sent: u32,
}

/// The SMCache translator.
pub struct SmCache {
    child: Xlator,
    bank: Rc<BankClient>,
    block_size: u64,
    handle: SimHandle,
    threaded: bool,
    coherence: Coherence,
    /// Negative caching (`MetaConfig::negative`): backend ENOENTs plant
    /// ENOENT markers under `:m.stat`, purges delete them, creates
    /// replace them with the new file's stat.
    negative: bool,
    /// Lease fan-out to every mounted client; `None` outside the lease
    /// policy. Revoked *before* a path's stat entry is deleted or
    /// updated — the invalidation ordering rule (see `crate::meta`) —
    /// except by a create, which revokes once its stat has landed.
    leases: Option<Rc<LeaseHub>>,
    jobs: Queue<Job>,
    /// Bank work owed past a fop's return ([`SmCache::pending`]).
    pending: Cell<u64>,
    /// Per path: its purge generation, newest stat, write count and
    /// tracked blocks.
    paths: RefCell<HashMap<String, PathState>>,
    /// Read-path rewarm throttle; `None` = unlimited.
    rewarm: Option<TokenBucket>,
    rewarm_suppressed: Counter,
    registry: Registry,
    /// Data blocks pushed to the bank.
    blocks_pushed: Counter,
    /// Stat entries pushed to the bank.
    stat_pushes: Counter,
    /// Per-file purges executed (open/close/unlink).
    purges: Counter,
    /// Update jobs deferred to the background thread.
    deferred_jobs: Counter,
    /// Updates dropped (or rolled back) because a purge overtook them.
    stale_updates_dropped: Counter,
    /// Pushes abandoned because the covering filesystem re-read failed:
    /// data the disk refused to produce must never reach the bank.
    dropped_pushes: Counter,
    negative_pushes: Counter,
    /// Blocks replaced in place by a successful CAS store (one count per
    /// block per replica).
    cas_replacements: Counter,
    /// CAS stores rejected because the token no longer matched (Exists)
    /// or the key vanished under the update (NotFound).
    cas_conflicts: Counter,
    /// Writes whose CAS wave could not fully land and fell back to the
    /// purge+repush protocol.
    cas_fallback_purges: Counter,
}

impl SmCache {
    /// Stack SMCache above `child` (normally `storage/posix`), pushing
    /// to `bank`, the way `cfg` describes the deployment:
    /// `threaded_updates` moves MCD population off the critical path;
    /// `coherence` picks the write protocol; under `MetaConfig::lease`,
    /// backend ENOENTs plant negative entries (and creates replace them
    /// with the new file's stat); `rewarm` throttles read-path bank
    /// repopulation. With a `leases` hub, every purge and stat refresh
    /// revokes client leases first, and a create last. How pushes and
    /// purges are framed on the wire is the bank client's business
    /// (`ImcaConfig::batching`, read there).
    pub fn new(
        handle: SimHandle,
        child: Xlator,
        bank: Rc<BankClient>,
        cfg: &ImcaConfig,
        leases: Option<Rc<LeaseHub>>,
    ) -> Rc<SmCache> {
        let (block_size, threaded_updates) = (cfg.block_size, cfg.threaded_updates);
        assert!(block_size > 0, "IMCa block size must be positive");
        let registry = Registry::new();
        let sm = Rc::new(SmCache {
            child,
            bank,
            block_size,
            handle: handle.clone(),
            threaded: threaded_updates,
            coherence: cfg.coherence,
            negative: cfg.meta.negative(),
            leases,
            jobs: Queue::new(),
            pending: Cell::new(0),
            paths: RefCell::new(HashMap::new()),
            rewarm: cfg
                .rewarm
                .map(|r| TokenBucket::new(r.rate_per_sec, r.burst, handle.now())),
            rewarm_suppressed: registry.counter("rewarm_suppressed"),
            blocks_pushed: registry.counter("blocks_pushed"),
            stat_pushes: registry.counter("stat_pushes"),
            purges: registry.counter("purges"),
            deferred_jobs: registry.counter("deferred_jobs"),
            stale_updates_dropped: registry.counter("stale_updates_dropped"),
            dropped_pushes: registry.counter("dropped_pushes"),
            negative_pushes: registry.counter("negative_pushes"),
            cas_replacements: registry.counter("cas_replacements"),
            cas_conflicts: registry.counter("cas_conflicts"),
            cas_fallback_purges: registry.counter("cas_fallback_purges"),
            registry,
        });
        if threaded_updates {
            // "Using an additional thread to update the MCDs at the server
            // may potentially reduce the cost of Reads at the server."
            let worker = Rc::clone(&sm);
            handle.spawn(async move {
                while let Some(job) = worker.jobs.recv().await {
                    // A purge ran after this job was queued: the file was
                    // closed or deleted; repopulating now would plant the
                    // very false positives purge exists to remove. (The
                    // synchronous mode needs no check here: nothing can
                    // run between a job's creation and its start.)
                    if !worker.fenced(&job.path, job.gen) {
                        worker.run(job).await;
                    }
                    worker.pending.set(worker.pending.get() - 1);
                }
            });
        }
        sm
    }

    /// One read-path fill wants to push into the bank: admitted unless
    /// the rewarm throttle is configured and dry.
    fn rewarm_allows(&self) -> bool {
        match &self.rewarm {
            Some(bucket) => bucket.try_take(self.handle.now()),
            None => true,
        }
    }

    /// The current purge generation for `path` (0 if never purged).
    fn generation(&self, path: &str) -> u64 {
        self.paths.borrow().get(path).map_or(0, |p| p.gen)
    }

    /// The generation fence, counted: `true` when a purge (close, unlink,
    /// open, fallback) has moved `path` past generation `gen`, so the
    /// update holding `gen` is stale — it must stop, and take out again
    /// whatever it stored since its last check.
    fn fenced(&self, path: &str, gen: u64) -> bool {
        let stale = self.generation(path) != gen;
        if stale {
            self.stale_updates_dropped.inc();
        }
        stale
    }

    /// The writes to `path` that have returned (0 if none).
    fn writes_to(&self, path: &str) -> u64 {
        self.paths.borrow().get(path).map_or(0, |p| p.writes)
    }

    /// Whether blocks of `path` read from the filesystem when `writes`
    /// writes to it had returned, and stored at reorder `mark` by a round
    /// that did (`in_order`) or did not go as one frame per daemon
    /// ([`Sent::reply_first`]), may be stale once stored: a write returned
    /// since, and the bank may have landed them after its update (a
    /// racing reader's fill, or another writer's covering re-read).
    /// Without reordering, and in one frame, they land first, because
    /// they were issued before that write returned; a later frame is
    /// sent only once the one before it has answered. The threaded
    /// worker runs jobs in the order their fops returned.
    fn overtaken(&self, path: &str, writes: u64, (mark, in_order): (u64, bool)) -> bool {
        !self.threaded
            && (!in_order || self.bank.reordered_since(mark))
            && self.writes_to(path) != writes
    }

    /// Apply `f` to `path`'s state, registering the path (without
    /// advancing its generation) so `purge_all` finds every file with an
    /// entry in the bank, even one whose only entry is its stat or
    /// ENOENT marker.
    fn with_path<R>(&self, path: &str, f: impl FnOnce(&mut PathState) -> R) -> R {
        let mut paths = self.paths.borrow_mut();
        match paths.get_mut(path) {
            Some(state) => f(state),
            None => f(paths.entry(path.to_string()).or_default()),
        }
    }

    /// Apply `f` to `path`'s tracked blocks, if it has any record.
    fn with_tracked<R>(&self, path: &str, f: impl FnOnce(Option<&mut Tracked>) -> R) -> R {
        f(self
            .paths
            .borrow_mut()
            .get_mut(path)
            .and_then(|p| p.tracked.as_deref_mut()))
    }

    /// Take a synchronous CAS write's places at its wind: on every block
    /// of `[offset, offset+len)` and every short block `path` tracks, each
    /// once, so the write never waits on itself.
    fn take_places(self: &Rc<Self>, path: &str, offset: u64, len: u64) -> Places {
        let (aoff, alen) = aligned_range(offset, len, self.block_size);
        let turn = Rc::new(Turn::default());
        let mut after = Vec::new();
        let blocks = self.with_path(path, |p| {
            let covering = cover(aoff, alen, self.block_size).into_iter();
            let short = p.tracked.iter().flat_map(|t| t.short.iter().copied());
            let mut blocks: Vec<u64> = covering.map(|b| b.start).chain(short).collect();
            blocks.sort_unstable();
            blocks.dedup();
            for &start in &blocks {
                if let Some(earlier) = p.places.insert(start, Rc::clone(&turn)) {
                    let (tx, rx) = oneshot();
                    earlier.next.borrow_mut().push(tx);
                    after.push(rx);
                }
            }
            blocks
        });
        Places {
            sm: Rc::clone(self),
            path: path.to_string(),
            blocks,
            turn,
            after,
        }
    }

    /// A mark of `path`'s read fills to take before reading a block's
    /// tokens: `None` while a fill is in flight.
    fn fill_mark(&self, path: &str) -> Option<u32> {
        self.with_path(path, |p| (p.fills == 0).then_some(p.fills_sent))
    }

    /// Whether no read fill of `path` was in flight at `mark` or sent
    /// since: no fill's `set` can land between a token read at `mark` and
    /// a store sent now, or after a store sent at `mark`.
    fn fills_quiet(&self, path: &str, mark: Option<u32>) -> bool {
        mark.is_some_and(|m| self.with_path(path, |p| p.fills_sent) == m)
    }

    /// Take the blocks at `starts` out of `path`'s tracked set and out of
    /// the bank: the purge protocol's covering blocks, or stale short
    /// blocks an update holds no place on, whose cached copies would
    /// truncate reads. A delete lets an update that holds the place
    /// answer `Missing`, never `Conflict`.
    async fn drop_blocks(self: &Rc<Self>, path: &str, starts: Vec<u64>) {
        self.with_tracked(path, |t| {
            if let Some(t) = t {
                for &start in &starts {
                    t.remove(start);
                }
            }
        });
        let keys = starts.iter().map(|&start| block_key(path, start)).collect();
        self.bank.remove_keys(keys).await;
    }

    /// Number of block keys currently tracked for `path`.
    pub fn tracked_blocks(&self, path: &str) -> usize {
        self.with_tracked(path, |t| t.map_or(0, |t| t.lens.len()))
    }

    /// Bank work still owed after the fops that caused it returned (the
    /// module doc's drain count). At 0 the bank holds everything every
    /// returned fop caused: §4.4's staleness window has closed.
    pub fn pending(&self) -> u64 {
        self.pending.get()
    }

    /// Run `rest` — the answer of a bank round just made, awaited, then
    /// whatever follows it — where the fop may reply first
    /// (`reply_first`), as its own task: the fop does not wait, and its
    /// reply leaves the server's NIC behind the round's frames. Where it
    /// may not (the bank may reorder, [`crate::mcd::Sent::reply_first`]),
    /// the fop awaits `rest` as it always did. Decided at the call; the
    /// future returned holds at most a box, so `rest` never sits in the
    /// state of the fop's future, which every fop allocates.
    fn settle(
        self: &Rc<Self>,
        reply_first: bool,
        rest: impl Future<Output = ()> + 'static,
    ) -> impl Future<Output = ()> + 'static {
        let awaited = if reply_first {
            self.detach(rest);
            None
        } else {
            Some(Box::pin(rest))
        };
        async move {
            if let Some(rest) = awaited {
                rest.await;
            }
        }
    }

    /// Run `rest` as its own task, counted by [`SmCache::pending`] until
    /// it has run.
    fn detach(self: &Rc<Self>, rest: impl Future<Output = ()> + 'static) {
        self.pending.set(self.pending.get() + 1);
        let sm = Rc::clone(self);
        self.handle.spawn(async move {
            rest.await;
            sm.pending.set(sm.pending.get() - 1);
        });
    }

    /// The executor's front door: a threaded deployment counts the job
    /// and queues it for the background worker; a synchronous one runs it
    /// now, in the fop's critical path.
    async fn submit(self: &Rc<Self>, job: Job) {
        if self.threaded {
            self.deferred_jobs.inc();
            self.pending.set(self.pending.get() + 1);
            self.jobs.push(job);
        } else {
            self.run(job).await;
        }
    }

    async fn run(self: &Rc<Self>, Job { path, gen, work }: Job) {
        match work {
            Work::Fill {
                aligned_offset: off,
                aligned_len: len,
                data,
                writes,
            } => {
                self.with_path(&path, |p| {
                    p.fills += 1;
                    p.fills_sent = p.fills_sent.wrapping_add(1);
                });
                self.push_blocks(&path, off, len, &data, (gen, writes), false)
                    .await;
                self.with_path(&path, |p| p.fills -= 1);
            }
            Work::Repopulate { offset, len } => {
                self.purge_then_populate(&path, offset, len, gen).await
            }
            Work::Replace {
                offset,
                data,
                places,
            } => self.cas_update(&path, offset, &data, gen, places).await,
        }
    }

    /// The EOF encoding: how many bytes the block at `start` holds in a
    /// file of `size` bytes. A block cached shorter than `block_size`
    /// says "the file ends inside this block"; one fully past EOF is the
    /// empty "known empty".
    fn block_len(&self, start: u64, size: u64) -> u64 {
        self.block_size.min(size.saturating_sub(start))
    }

    /// EOF coherence: the tracked blocks of `path` cached short whose
    /// cached length no longer matches a file of `size` bytes, in offset
    /// order. If a write moved the end of file past such a block (the
    /// bytes in between are a hole the write's own covering range never
    /// touches), the cached copy now truncates reads that NoCache would
    /// satisfy with zeros, and must be refreshed.
    fn stale_short_blocks(&self, path: &str, size: u64) -> Vec<u64> {
        self.with_tracked(path, |tracked| {
            let Some(tracked) = tracked else {
                return Vec::new();
            };
            tracked
                .short
                .iter()
                .copied()
                .filter(|start| tracked.lens[start].len != self.block_len(*start, size))
                .collect()
        })
    }

    /// Cut `data` (starting at the block-aligned `aligned_offset`) into
    /// blocks and push them, recording the keys for later purge. `gen` is
    /// the purge generation the data belongs to: if a purge overtakes the
    /// stores while they are in flight, the just-written entries are
    /// removed again instead of being recorded. So are they if a write
    /// to the file returned after `data` was read, when `writes` writes
    /// had ([`SmCache::overtaken`]). With `keep` the stores ask for their
    /// tokens and the blocks keep them for the next write's wave, unless
    /// a read fill of the path was in flight beside them
    /// ([`SmCache::fills_quiet`]); without, the blocks keep none.
    async fn push_blocks(
        &self,
        path: &str,
        aligned_offset: u64,
        aligned_len: u64,
        data: &[u8],
        (gen, writes): (u64, u64),
        keep: bool,
    ) {
        let blocks = cover(aligned_offset, aligned_len, self.block_size);
        let mut chunk_lens = Vec::with_capacity(blocks.len());
        let items: Vec<(Vec<u8>, Bytes)> = blocks
            .iter()
            .map(|b| {
                let rel = (b.start - aligned_offset) as usize;
                let end = (rel + self.block_size as usize).min(data.len());
                let chunk = if rel <= data.len() {
                    data[rel..end].to_vec()
                } else {
                    Vec::new() // block fully past EOF: "known empty"
                };
                chunk_lens.push(chunk.len() as u64);
                (block_key(path, b.start), Bytes::from(chunk))
            })
            .collect();
        let n = items.len() as u64;
        let mark = self.bank.reorder_mark();
        let fills = self.fill_mark(path);
        let (in_order, mut kept) = if keep {
            let sent = self.bank.store_kept(items);
            (sent.reply_first(), sent.await)
        } else {
            let sent = self.bank.store_blocks(items);
            let in_order = sent.reply_first();
            sent.await;
            (in_order, Vec::new())
        };
        if !self.fills_quiet(path, fills) {
            // A read fill's `set` may have landed after these stores.
            kept.clear();
        }
        if self.fenced(path, gen) || self.overtaken(path, writes, (mark, in_order)) {
            // A purge (close/unlink/open) overtook this update while its
            // stores were on the wire, or a write returned since `data`
            // was read: the entries just written belong to a stale
            // generation of the file, or may predate that write. Take
            // them out again and record nothing.
            let rollback = blocks.iter().map(|b| block_key(path, b.start)).collect();
            self.bank.remove_keys(rollback).await;
            return;
        }
        self.blocks_pushed.add(n);
        self.with_path(path, |p| {
            let entry = p.tracked.get_or_insert_default();
            for (i, (b, len)) in blocks.iter().zip(chunk_lens).enumerate() {
                let kept = kept.get(i).copied().unwrap_or_default();
                entry.insert(b.start, len, kept, self.block_size);
            }
        });
    }

    /// The disk would not say what the file holds now (media error,
    /// server dying), so nothing may be pushed — a guessed block or stat
    /// would serve unverified bytes to every client until the next purge.
    /// Worse, the bank may still hold *pre-write* blocks, short blocks
    /// that now lie about where the file ends, or the pre-write stat
    /// (with client leases naming it), all of which the write just made
    /// stale. Count the dropped push and purge the file — leases revoked
    /// first, then the stat and block entries — so readers and metadata
    /// consumers fall through to the backend like NoCache.
    async fn abandon(self: &Rc<Self>, path: &str) {
        self.dropped_pushes.inc();
        self.purge(path).await;
    }

    /// "Read(s) are issued to the underlying file system by SMCache that
    /// cover the Write area, accounting for the IMCa blocksize. When the
    /// data is available, the Read(s) are sent to the MCDs." Re-read the
    /// block-aligned span `[offset, offset+len)` and push it: `true` when
    /// the update may go on, `false` when it ended here — purged while
    /// the filesystem read was in flight, or abandoned because the read
    /// failed. Under [`Coherence::Cas`] the pushed blocks keep their
    /// tokens, so the next write replaces them without a `gets`.
    async fn refill(self: &Rc<Self>, path: &str, offset: u64, len: u64, gen: u64) -> bool {
        let reply = Rc::clone(&self.child)
            .handle(Fop::Read {
                path: path.to_string(),
                offset,
                len,
            })
            .await;
        if self.fenced(path, gen) {
            return false;
        }
        let FopReply::Read(Ok(data)) = reply else {
            self.abandon(path).await;
            return false;
        };
        let writes = self.writes_to(path);
        let keep = self.coherence == Coherence::Cas;
        self.push_blocks(path, offset, len, &data, (gen, writes), keep)
            .await;
        true
    }

    /// The post-write stat an update derives block lengths and the stat
    /// refresh from; `None` when the disk will not even say how big the
    /// file is now.
    async fn child_stat(&self, path: &str) -> Option<FileStat> {
        let reply = Rc::clone(&self.child)
            .handle(Fop::Stat {
                path: path.to_string(),
            })
            .await;
        match reply {
            FopReply::Stat(Ok(st)) => Some(st),
            _ => None,
        }
    }

    /// The tail of every write update: refresh the stat entry so
    /// consumers polling mtime see the update. The refresh *changes* the
    /// stat value (the write moved size/mtime), so any lease still naming
    /// the old value must fall first — and if a purge lands during the
    /// revocation, the refresh is stale and must not be pushed at all.
    /// The push is posted: the write's reply leaves the server behind the
    /// stat's frame, so every lookup the reply causes reaches the stat's
    /// daemon after it (DESIGN.md §4f).
    async fn refresh_stat(self: &Rc<Self>, path: &str, st: FileStat, gen: u64) {
        self.revoke_leases(path).await;
        if !self.fenced(path, gen) {
            self.push_stat(path, st).await;
        }
    }

    /// Re-read the blocks covering the write to `[offset, offset+len)`
    /// and push them, re-push every short block the write left stale
    /// (dropping the ones its `places` leave to another write), then
    /// refresh the stat.
    async fn populate_range(
        self: &Rc<Self>,
        path: &str,
        offset: u64,
        len: u64,
        gen: u64,
        places: Option<&Places>,
    ) {
        let (aoff, alen) = aligned_range(offset, len, self.block_size);
        if !self.refill(path, aoff, alen, gen).await {
            return;
        }
        let st = self.child_stat(path).await;
        // A purge overtook the stat: nothing more may be pushed. This
        // check has never counted into `stale_updates_dropped`, and the
        // counter is gated exactly (scripts/smokecheck), so it stays so.
        if self.generation(path) != gen {
            return;
        }
        let Some(st) = st else {
            return self.abandon(path).await;
        };
        let (stale, unowned): (Vec<u64>, Vec<u64>) = self
            .stale_short_blocks(path, st.size)
            .into_iter()
            .partition(|&start| owned(places, start));
        if !unowned.is_empty() {
            self.drop_blocks(path, unowned).await;
        }
        if let (Some(&first), Some(&last)) = (stale.first(), stale.last()) {
            let span = last + self.block_size - first;
            if !self.refill(path, first, span, gen).await {
                return;
            }
        }
        self.refresh_stat(path, st, gen).await;
    }

    /// The paper's write protocol ([`Coherence::Purge`], the ablation
    /// baseline): drop the write's covering entries from every replica
    /// first — the cold window the CAS path exists to remove — then
    /// repopulate them from a covering filesystem re-read.
    async fn purge_then_populate(self: &Rc<Self>, path: &str, offset: u64, len: u64, gen: u64) {
        let (aoff, alen) = aligned_range(offset, len, self.block_size);
        let starts = cover(aoff, alen, self.block_size)
            .iter()
            .map(|b| b.start)
            .collect();
        self.drop_blocks(path, starts).await;
        if !self.fenced(path, gen) {
            self.populate_range(path, offset, len, gen, None).await;
        }
    }

    /// The CAS path could not replace every held copy in place. One rule
    /// covers every cause: fall back to purge+repush, which restores
    /// coherence unconditionally (the purge also removes the copies the
    /// wave *did* replace; their re-push comes from the covering re-read,
    /// under the generation the purge just started).
    async fn fall_back(
        self: &Rc<Self>,
        path: &str,
        offset: u64,
        len: u64,
        places: Option<&Places>,
    ) {
        self.cas_fallback_purges.inc();
        self.purge(path).await;
        let regen = self.generation(path);
        self.populate_range(path, offset, len, regen, places).await;
    }

    /// Versioned in-place replacement ([`Coherence::Cas`]): compute each
    /// covering block's post-write bytes from the write payload — plus the
    /// cached copy where the write covers the block only in part — and
    /// `cas`-store them back on every replica that holds the block. Warm
    /// replicas stay warm; a warm file's update touches no disk. Any
    /// outcome other than "every held copy replaced" — a vanished key, a
    /// failed daemon, an incoherent cached length, a token conflict
    /// (which only a retried frame or a read fill racing the wave can
    /// cause, module doc) — falls back to purge+repush, so the result is
    /// never worse than the baseline. With `places` (the synchronous
    /// executor) the update starts once the earlier-wound updates on its
    /// blocks have ended, and may post its wave ([`SmCache::post_wave`]).
    async fn cas_update(
        self: &Rc<Self>,
        path: &str,
        offset: u64,
        data: &[u8],
        gen: u64,
        mut places: Option<Places>,
    ) {
        if let Some(places) = &mut places {
            places.wait().await;
        }
        let len = data.len() as u64;
        // Post-write stat first: the blocks' target lengths (the EOF
        // encoding, `block_len`) derive from the new size.
        let st = self.child_stat(path).await;
        if self.fenced(path, gen) {
            return;
        }
        let Some(st) = st else {
            return self.abandon(path).await;
        };
        let (aoff, alen) = aligned_range(offset, len, self.block_size);
        let covering = cover(aoff, alen, self.block_size);
        // Partition the covering blocks: tracked ones join the CAS wave;
        // untracked ones are filled from one covering re-read, exactly
        // like the baseline (a cold file's first write degenerates to
        // the legacy populate).
        let mut wave: Vec<u64> = Vec::new();
        let mut fill_bounds: Option<(u64, u64)> = None;
        self.with_tracked(path, |entry| {
            for b in &covering {
                if entry
                    .as_ref()
                    .is_some_and(|t| t.lens.contains_key(&b.start))
                {
                    wave.push(b.start);
                } else {
                    fill_bounds = Some(match fill_bounds {
                        None => (b.start, b.start),
                        Some((first, _)) => (first, b.start),
                    });
                }
            }
        });
        // Stale short blocks outside the covering range (this write moved
        // EOF past where they claim the file ends): their post-write
        // bytes are the cached bytes zero-extended — the gap is a hole —
        // so they join the wave instead of forcing the re-read leg
        // `populate_range` needs for them. A stale short block another
        // write holds the place on is dropped instead: this update may
        // not store it.
        let outside = |start: &u64| !covering.iter().any(|b| b.start == *start);
        let (stale, unowned): (Vec<u64>, Vec<u64>) = self
            .stale_short_blocks(path, st.size)
            .into_iter()
            .filter(outside)
            .partition(|&start| owned(places.as_ref(), start));
        if !unowned.is_empty() {
            self.drop_blocks(path, unowned).await;
        }
        wave.extend(stale);
        wave.sort_unstable();
        // Fill leg: one covering re-read over the untracked span, pushed
        // with plain sets (there is nothing in place to replace). Tracked
        // blocks inside the span are re-pushed fresh by `push_blocks`,
        // so they leave the CAS wave — a set bumps their token and the
        // cas would spuriously conflict.
        if let Some((first, last)) = fill_bounds {
            let span_len = last + self.block_size - first;
            if !self.refill(path, first, span_len, gen).await {
                return;
            }
            wave.retain(|&s| s < first || s >= first + span_len);
        }
        // The fill rule's mark: taken before any token is read.
        let fills = self.fill_mark(path);
        // The CAS items, one per replica holding a copy (cold replicas
        // stay cold; reads there fall through to the server, always
        // correct), each with the wave position and replica slot its
        // verdict's new token is kept under.
        let mut items: Vec<(Vec<u8>, Bytes, CasToken)> = Vec::new();
        let mut placed: Vec<(usize, usize)> = Vec::new();
        // A block the write covers whole is all payload, so it needs no
        // old bytes: with a token kept for every write target it goes
        // straight into the wave. Every other block fetches its copies
        // and their tokens in one `gets` round (per-daemon token spaces;
        // see `CasToken`).
        let mut fetch: Vec<usize> = Vec::new();
        for (at, &start) in wave.iter().enumerate() {
            let target = self.block_len(start, st.size);
            let whole = offset <= start && start + target <= offset + len;
            let cached = self.with_tracked(path, |t| t.and_then(|t| t.lens.get(&start).copied()));
            let kept = cached.filter(|_| whole).and_then(|c| {
                let tokens = self.bank.kept_tokens(&block_key(path, start), &c.kept)?;
                Some((c.len, tokens))
            });
            let Some((cached_len, tokens)) = kept else {
                fetch.push(at);
                continue;
            };
            if cached_len > target {
                // The tracked copy claims more bytes than the file now
                // holds; nothing shrinks a file except a purge, so this
                // view is incoherent.
                return self.fall_back(path, offset, len, places.as_ref()).await;
            }
            let rel = (start - offset) as usize;
            let bytes = Bytes::copy_from_slice(&data[rel..rel + target as usize]);
            for token in tokens {
                items.push((block_key(path, start), bytes.clone(), token));
                placed.push((at, token.slot));
            }
        }
        if !fetch.is_empty() {
            let keys: Vec<Vec<u8>> = fetch.iter().map(|&at| block_key(path, wave[at])).collect();
            let rows = self.bank.gets_for_update(&keys).await;
            if self.fenced(path, gen) {
                return;
            }
            for (&at, row) in fetch.iter().zip(&rows) {
                let start = wave[at];
                let target = self.block_len(start, st.size) as usize;
                for (_daemon, cell) in row {
                    let Some((old, token)) = cell else { continue };
                    if old.len() > target {
                        // As above, for the copy a replica holds.
                        return self.fall_back(path, offset, len, places.as_ref()).await;
                    }
                    let mut buf = old.to_vec();
                    buf.resize(target, 0); // bytes past the old EOF are a hole
                    let w0 = offset.max(start);
                    let w1 = (offset + len).min(start + target as u64);
                    if w0 < w1 {
                        buf[(w0 - start) as usize..(w1 - start) as usize]
                            .copy_from_slice(&data[(w0 - offset) as usize..(w1 - offset) as usize]);
                    }
                    items.push((block_key(path, start), Bytes::from(buf), *token));
                    placed.push((at, token.slot));
                }
            }
        }
        let reorder = self.bank.reorder_mark();
        let sent = self.bank.cas_blocks(items);
        let wave = Wave {
            path: path.to_string(),
            gen,
            span: (offset, len),
            st,
            blocks: wave,
            placed,
            fills,
            places,
        };
        // An empty wave (the fill leg stored every block) answers at once:
        // there is nothing to post.
        let post = !wave.placed.is_empty() && wave.places.is_some() && sent.reply_first();
        if post && self.fills_quiet(path, fills) {
            return self.post_wave(wave, sent, reorder).await;
        }
        let verdicts = sent.await;
        if self.land(&wave, verdicts).await {
            // The tokens are recorded: the next write on these blocks may
            // start, as it may once a posted wave has landed.
            drop(wave.places);
            self.refresh_stat(path, st, gen).await;
        }
    }

    /// Post, then reply, for a CAS wave just sent: SMCache is the bank's
    /// only writer and holds the place on every block in the wave, and no
    /// read fill of the path raced its token reads, so nothing but a
    /// retried frame can make a `cas` answer `Conflict`. Revoke leases
    /// and post the stat, whose frame leaves the server behind every wave
    /// frame; the write replies while [`SmCache::land`] waits for the
    /// verdicts as a continuation ([`SmCache::detach`]), its places held
    /// until it ends.
    async fn post_wave(self: &Rc<Self>, wave: Wave, sent: Sent<Vec<CasVerdict>>, reorder: u64) {
        let (path, st, gen) = (wave.path.clone(), wave.st, wave.gen);
        let sm = Rc::clone(self);
        self.detach(async move {
            let verdicts = sent.await;
            debug_assert!(
                !verdicts.contains(&CasVerdict::Conflict) || sm.bank.reordered_since(reorder),
                "a posted CAS wave conflicted on {}",
                wave.path
            );
            sm.land(&wave, verdicts).await;
        });
        self.refresh_stat(&path, st, gen).await;
    }

    /// A CAS wave's verdicts are back: take the replaced blocks out again
    /// if a purge overtook the wave, fall back if a held copy was not
    /// replaced, and otherwise record each block's new tokens (none if a
    /// read fill raced the wave). `true` when the stat may be refreshed.
    async fn land(self: &Rc<Self>, wave: &Wave, verdicts: Vec<CasVerdict>) -> bool {
        let path = wave.path.as_str();
        if self.fenced(path, wave.gen) {
            // A purge overtook the wave: whatever the CAS stores
            // replaced belongs to a stale generation now. Take the
            // replaced keys out again, like `push_blocks` rolls back.
            let rollback: Vec<Vec<u8>> = wave
                .placed
                .iter()
                .zip(&verdicts)
                .filter(|(_, v)| matches!(v, CasVerdict::Stored(_)))
                .map(|(&(at, _), _)| block_key(path, wave.blocks[at]))
                .collect();
            if !rollback.is_empty() {
                self.bank.remove_keys(rollback).await;
            }
            return false;
        }
        let replaced = verdicts
            .iter()
            .filter(|v| matches!(v, CasVerdict::Stored(_)))
            .count();
        let conflicts = verdicts
            .iter()
            .filter(|v| matches!(v, CasVerdict::Conflict | CasVerdict::Missing))
            .count();
        self.cas_conflicts.add(conflicts as u64);
        if replaced != verdicts.len() {
            // At least one held copy could not be replaced in place — the
            // key vanished under us (Missing), a daemon failed mid-wave,
            // or a racing store won the token (Conflict).
            let (offset, len) = wave.span;
            self.fall_back(path, offset, len, wave.places.as_ref())
                .await;
            return false;
        }
        self.cas_replacements.add(replaced as u64);
        let mut fresh = vec![Kept::default(); wave.blocks.len()];
        if self.fills_quiet(path, wave.fills) {
            for (&(at, slot), verdict) in wave.placed.iter().zip(&verdicts) {
                if let CasVerdict::Stored(token) = verdict {
                    fresh[at].keep(slot, *token);
                }
            }
        }
        let size = wave.st.size;
        self.with_tracked(path, |entry| {
            if let Some(entry) = entry {
                for (&start, kept) in wave.blocks.iter().zip(fresh) {
                    entry.insert(start, self.block_len(start, size), kept, self.block_size);
                }
            }
        });
        true
    }

    /// Revoke every client lease on `path` (no-op without a hub).
    async fn revoke_leases(&self, path: &str) {
        if let Some(hub) = &self.leases {
            hub.revoke(path).await;
        }
    }

    /// Plant an ENOENT marker for `path` — an `add` under its stat key,
    /// which never replaces a stat — under the same generation fence as
    /// any other push: a create racing with this add bumps the generation
    /// ([`SmCache::store_created`]) and the key is taken out again instead
    /// of shadowing the file that now exists. Posted
    /// ([`SmCache::settle`]).
    async fn push_negative(self: &Rc<Self>, path: &str, gen: u64) {
        self.with_path(path, |_| ());
        let marker = Bytes::from_static(NEG_MARKER);
        let sent = self
            .bank
            .post_store(StoreVerb::Add, stat_key(path), marker, Answer::Status);
        let (sm, path) = (Rc::clone(self), path.to_string());
        self.settle(sent.reply_first(), async move {
            sent.await;
            if sm.fenced(&path, gen) {
                sm.bank.delete(&stat_key(&path)).await;
                return;
            }
            sm.negative_pushes.inc();
        })
        .await;
    }

    /// Push `st`, or the newest stat pushed since the last purge if that
    /// is newer: a stat read before a racing write returned must not land
    /// over that write's refresh. Posted ([`SmCache::settle`]).
    async fn push_stat(self: &Rc<Self>, path: &str, st: FileStat) {
        let st = self.newest_stat(path, st);
        let mark = self.bank.reorder_mark();
        let value = Bytes::from(st.to_bytes());
        let sent = self
            .bank
            .post_store(StoreVerb::Set, stat_key(path), value, Answer::Status);
        let (sm, path) = (Rc::clone(self), path.to_string());
        self.settle(sent.reply_first(), async move {
            sent.await;
            sm.stat_pushes.inc();
            if sm.stat_overtaken(&path, st, mark) {
                // A newer stat went out while this one was on the wire,
                // or a purge took the entry out, and this one may have
                // landed last: take the entry out; the next stat re-reads
                // it.
                sm.bank.delete(&stat_key(&path)).await;
            }
        })
        .await;
    }

    /// The stat to push for `path` in place of `st`: the newest pushed
    /// since the last purge, by `(mtime, size)`, recorded as such.
    fn newest_stat(&self, path: &str, st: FileStat) -> FileStat {
        let stamp = |st: &FileStat| (st.mtime_ns, st.size);
        self.with_path(path, |p| match p.newest_stat {
            Some(newest) if stamp(&newest) > stamp(&st) => newest,
            _ => *p.newest_stat.insert(st),
        })
    }

    /// Whether the stat `st` just stored for `path` at reorder `mark` may
    /// have landed over a newer one or a purge, on a bank that may have
    /// reordered the store.
    fn stat_overtaken(&self, path: &str, st: FileStat, mark: u64) -> bool {
        self.bank.reordered_since(mark) && self.with_path(path, |p| p.newest_stat) != Some(st)
    }

    /// The server's answers to a [`Fop::StatMulti`] whose paths stood at
    /// generations `gens` when it was wound: every found stat still in its
    /// generation is pushed by [`SmCache::push_stat`]'s rules and, under
    /// negative caching, every absent one's marker by
    /// [`SmCache::push_negative`]'s, all in one posted bulk push — the
    /// markers as `add`s in the same frames as the stats' `set`s. A purge
    /// of one path drops only that path's push.
    async fn push_stats(
        self: &Rc<Self>,
        paths: &[String],
        gens: &[u64],
        stats: &[Result<FileStat, FsError>],
    ) {
        let mut pushed = Vec::new();
        let mut absent = Vec::new();
        for ((path, &gen), stat) in paths.iter().zip(gens).zip(stats) {
            if self.generation(path) != gen {
                continue;
            }
            match stat {
                Ok(st) => pushed.push((path.clone(), self.newest_stat(path, *st))),
                Err(FsError::NotFound) if self.negative => {
                    self.with_path(path, |_| ());
                    absent.push((path.clone(), gen));
                }
                _ => {}
            }
        }
        if pushed.is_empty() && absent.is_empty() {
            return;
        }
        let marker = Bytes::from_static(NEG_MARKER);
        let sets = pushed
            .iter()
            .map(|(path, st)| (StoreVerb::Set, stat_key(path), Bytes::from(st.to_bytes())));
        let adds = absent
            .iter()
            .map(|(path, _)| (StoreVerb::Add, stat_key(path), marker.clone()));
        let stores: Vec<Store> = sets.chain(adds).collect();
        let mark = self.bank.reorder_mark();
        let sent = self.bank.post_stores(stores);
        let sm = Rc::clone(self);
        self.settle(sent.reply_first(), async move {
            sent.await;
            sm.stat_pushes.add(pushed.len() as u64);
            let mut takeouts: Vec<Vec<u8>> = pushed
                .iter()
                .filter(|(path, st)| sm.stat_overtaken(path, *st, mark))
                .map(|(path, _)| stat_key(path))
                .collect();
            for (path, gen) in &absent {
                if sm.fenced(path, *gen) {
                    takeouts.push(stat_key(path));
                } else {
                    sm.negative_pushes.inc();
                }
            }
            if !takeouts.is_empty() {
                sm.bank.remove_keys(takeouts).await;
            }
        })
        .await;
    }

    /// Remove every entry SMCache has pushed for `path` (open/close/unlink
    /// hooks, §4.3.2: "the MCDs are purged of any data relating to the
    /// file").
    async fn purge(&self, path: &str) {
        // Generation fence, bumped *before* the first await: update jobs
        // created under an earlier generation become stale immediately,
        // even while this purge's deletes are still on the wire.
        self.with_path(path, |p| {
            p.gen += 1;
            p.newest_stat = None;
        });
        // Leases fall before the bank entries do: a client must stop
        // serving its lease *before* the stat entry it mirrors changes,
        // or a leased stat could outlive what the bank would answer.
        self.revoke_leases(path).await;
        let tracked = self
            .with_path(path, |p| p.tracked.take())
            .unwrap_or_default();
        let mut keys = Vec::with_capacity(tracked.lens.len() + 1);
        keys.push(stat_key(path));
        keys.extend(tracked.lens.into_keys().map(|start| block_key(path, start)));
        self.bank.remove_keys(keys).await;
        self.purges.inc();
    }

    /// Store the stat `st` of the file a create just made at `path`, and
    /// only then revoke its leases (the lease tier's create hook). The
    /// path is fenced as a purge fences it: its generation bumped, fencing
    /// off any in-flight ENOENT marker, its newest stat reset, and any
    /// tracked blocks taken out. The stat's `set` replaces a marker, and a
    /// late marker's `add` never replaces the stat. It is awaited: the
    /// revocation goes out once it has landed, so any lease a lookup
    /// installed from the marker is one the revocation then reaches;
    /// revoking first would let a lookup between the acks and the store
    /// install a negative lease nothing revokes (DESIGN.md §4f). A purge
    /// that fenced the path meanwhile takes the entry out again.
    async fn store_created(&self, path: &str, st: FileStat) {
        let (gen, tracked) = self.with_path(path, |p| {
            p.gen += 1;
            p.newest_stat = None;
            (p.gen, p.tracked.take())
        });
        let stored = self.bank.set(&stat_key(path), Bytes::from(st.to_bytes()));
        if let Some(tracked) = tracked {
            let keys = tracked.lens.into_keys().map(|start| block_key(path, start));
            self.bank.remove_keys(keys.collect()).await;
        }
        stored.await;
        self.stat_pushes.inc();
        if self.fenced(path, gen) {
            self.bank.delete(&stat_key(path)).await;
        }
        self.revoke_leases(path).await;
    }

    /// Bank-wide purge: every path SMCache has ever touched gets its
    /// generation bumped (fencing off any in-flight or queued update job)
    /// and its pushed entries deleted from the MCDs. This is the server
    /// restart hook — a daemon coming back from a crash cannot trust that
    /// its pre-crash pushes still match the disk, so it starts cold
    /// (`Cluster::restart_server`). Paths are walked in sorted order so a
    /// fixed-seed chaos schedule replays bit-identically (HashMap
    /// iteration order is not deterministic).
    pub async fn purge_all(&self) {
        let mut paths: Vec<String> = self.paths.borrow().keys().cloned().collect();
        paths.sort();
        for path in paths {
            self.purge(&path).await;
        }
    }
}

impl MetricSource for SmCache {
    fn collect(&self, prefix: &str, snap: &mut Snapshot) {
        self.registry.collect(prefix, snap);
        let tracked = self
            .paths
            .borrow()
            .values()
            .filter(|p| p.tracked.is_some())
            .count();
        snap.set_gauge(prefixed(prefix, "tracked_files"), tracked as i64);
        snap.set_gauge(prefixed(prefix, "queued_jobs"), self.jobs.len() as i64);
        self.bank.collect(&prefixed(prefix, "bank"), snap);
    }
}

impl Translator for SmCache {
    fn name(&self) -> &'static str {
        "imca/smcache"
    }

    fn handle(self: Rc<Self>, fop: Fop) -> imca_glusterfs::FopFuture {
        Box::pin(async move {
            match fop {
                Fop::Open { path } => {
                    self.purge(&path).await;
                    // The seed below belongs to the generation this open's
                    // own purge just started.
                    let gen = self.generation(&path);
                    let reply = Rc::clone(&self.child)
                        .handle(Fop::Open { path: path.clone() })
                        .await;
                    if let FopReply::Open(Ok(st)) = &reply {
                        // Uncounted: a seed is not an update, so a purge
                        // overtaking it drops nothing.
                        if self.generation(&path) == gen {
                            self.push_stat(&path, *st).await;
                        }
                    }
                    reply
                }
                Fop::Stat { path } => {
                    let gen = self.generation(&path);
                    let reply = Rc::clone(&self.child)
                        .handle(Fop::Stat { path: path.clone() })
                        .await;
                    // Uncounted, like the open's seed; posted, like the
                    // marker.
                    if self.generation(&path) == gen {
                        match &reply {
                            // No lease revocation here: this repopulates
                            // the entry with the value the backend just
                            // vouched for, and every mutation revokes
                            // before its own refresh — so any lease still
                            // held necessarily names this same value.
                            FopReply::Stat(Ok(st)) => self.push_stat(&path, *st).await,
                            FopReply::Stat(Err(FsError::NotFound)) if self.negative => {
                                self.push_negative(&path, gen).await;
                            }
                            _ => {}
                        }
                    }
                    reply
                }
                Fop::StatMulti { paths } => {
                    let gens: Vec<u64> = paths.iter().map(|p| self.generation(p)).collect();
                    let reply = Rc::clone(&self.child)
                        .handle(Fop::StatMulti {
                            paths: paths.clone(),
                        })
                        .await;
                    if let FopReply::StatMulti(stats) = &reply {
                        self.push_stats(&paths, &gens, stats).await;
                    }
                    reply
                }
                Fop::Read { path, offset, len } => {
                    // "Because of the IMCa block size, the Read operation
                    // may potentially require the server to read additional
                    // data from the underlying file system."
                    let gen = self.generation(&path);
                    let (aoff, alen) = aligned_range(offset, len, self.block_size);
                    let reply = Rc::clone(&self.child)
                        .handle(Fop::Read {
                            path: path.clone(),
                            offset: aoff,
                            len: alen,
                        })
                        .await;
                    match reply {
                        FopReply::Read(Ok(data)) => {
                            let writes = self.writes_to(&path);
                            let rel = (offset - aoff) as usize;
                            let end = (rel + len as usize).min(data.len());
                            let served = if rel <= data.len() {
                                data[rel.min(data.len())..end].to_vec()
                            } else {
                                Vec::new()
                            };
                            if self.rewarm_allows() {
                                let work = Work::Fill {
                                    aligned_offset: aoff,
                                    aligned_len: alen,
                                    data,
                                    writes,
                                };
                                self.submit(Job { path, gen, work }).await;
                            } else {
                                // Throttled rewarm: serve the read, skip
                                // the fill. The bank stays cold for this
                                // range — safe, just slower next time.
                                self.rewarm_suppressed.inc();
                            }
                            FopReply::Read(Ok(served))
                        }
                        other => other,
                    }
                }
                Fop::Write { path, offset, data } => {
                    let gen = self.generation(&path);
                    let len = data.len() as u64;
                    // The CAS path computes the post-write bytes locally,
                    // so it needs the payload after the child consumed it.
                    let work = match self.coherence {
                        Coherence::Cas => Work::Replace {
                            offset,
                            data: data.clone(),
                            places: (!self.threaded).then(|| self.take_places(&path, offset, len)),
                        },
                        Coherence::Purge => Work::Repopulate { offset, len },
                    };
                    let reply = Rc::clone(&self.child)
                        .handle(Fop::Write {
                            path: path.clone(),
                            offset,
                            data,
                        })
                        .await;
                    if matches!(reply, FopReply::Write(Ok(_))) {
                        self.with_path(&path, |p| p.writes += 1);
                        self.submit(Job { path, gen, work }).await;
                    } else if let Work::Replace {
                        places: Some(places),
                        ..
                    } = work
                    {
                        places.forgo();
                    }
                    reply
                }
                Fop::Close { path } => {
                    // "When the close operation is intercepted by SMCache,
                    // it will attempt to discard the data for the file."
                    self.purge(&path).await;
                    Rc::clone(&self.child).handle(Fop::Close { path }).await
                }
                Fop::Unlink { path } => {
                    // "When delete operations are encountered, we remove
                    // the data elements from the cache to avoid false
                    // positives."
                    self.purge(&path).await;
                    Rc::clone(&self.child).handle(Fop::Unlink { path }).await
                }
                Fop::Create { path } if self.negative => {
                    let reply = Rc::clone(&self.child)
                        .handle(Fop::Create { path: path.clone() })
                        .await;
                    if let FopReply::Create(Ok(st)) = &reply {
                        // Negative revalidation: the path may hold an
                        // ENOENT marker in the bank and negative leases on
                        // clients; the new file's stat replaces both
                        // before the creator's ack.
                        self.store_created(&path, *st).await;
                    }
                    reply
                }
                other => Rc::clone(&self.child).handle(other).await,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters;
    use crate::mcd::Bank;
    use crate::meta::MetaConfig;
    use imca_fabric::{Network, Transport};
    use imca_glusterfs::Posix;
    use imca_memcached::{McConfig, Selector};
    use imca_sim::{join_all, Sim, SimDuration};
    use imca_storage::{BackendParams, StorageBackend};

    struct Rig {
        sm: Rc<SmCache>,
        bank: Rc<BankClient>,
        net: Network,
    }

    impl Rig {
        /// Install a benign fault plan: the bank may reorder stores from
        /// now on, so every CAS wave is awaited.
        fn await_waves(&self) {
            self.net.install_faults(imca_fabric::FaultPlan::seeded(3));
        }
    }

    fn setup(sim: &Sim, threaded: bool, batched: bool) -> Rig {
        setup_with_meta(sim, threaded, batched, MetaConfig::default())
    }

    fn setup_with_meta(sim: &Sim, threaded: bool, batched: bool, meta: MetaConfig) -> Rig {
        let cfg = ImcaConfig {
            threaded_updates: threaded,
            batching: batched,
            meta,
            ..two_mcds()
        };
        rig_over(sim, posix(sim), &cfg).0
    }

    /// The test deployment: two 64 MB daemons, everything else default.
    fn two_mcds() -> ImcaConfig {
        ImcaConfig {
            mcd_count: 2,
            mcd_config: McConfig::default(),
            ..ImcaConfig::default()
        }
    }

    fn posix(sim: &Sim) -> Rc<Posix> {
        Posix::new(StorageBackend::new(
            sim.handle(),
            BackendParams::paper_server(),
        ))
    }

    /// The bank, its server-side client and an SMCache over `child`, as
    /// `cfg` describes them. The daemon actors stay alive with the sim.
    fn rig_over(sim: &Sim, child: Xlator, cfg: &ImcaConfig) -> (Rig, Rc<Bank>) {
        let net = Network::new(sim.handle(), Transport::ipoib_ddr());
        let mcds = Rc::new(Bank::start(&net, cfg));
        let bank = Rc::new(mcds.client(net.add_node(), cfg, cfg.retry.clone()));
        let sm = SmCache::new(sim.handle(), child, Rc::clone(&bank), cfg, None);
        let keepalive = Rc::clone(&mcds);
        sim.handle().spawn(async move {
            let _keepalive = keepalive;
            std::future::pending::<()>().await;
        });
        (Rig { sm, bank, net }, mcds)
    }

    async fn drive(sm: &Rc<SmCache>, fop: Fop) -> FopReply {
        Rc::clone(&(Rc::clone(sm) as Xlator)).handle(fop).await
    }

    /// Wait until `sm` owes no bank work, failing if it still does a
    /// virtual second on: a test reads daemon engines or SMCache's own
    /// state directly only after this.
    async fn drain(sm: &SmCache) {
        let give_up = sm.handle.now() + SimDuration::secs(1);
        while sm.pending() > 0 {
            assert!(sm.handle.now() < give_up, "{} still owed", sm.pending());
            sm.handle.sleep(SimDuration::micros(1)).await;
        }
    }

    /// `stale_short_blocks` the slow way, from every tracked length: the
    /// reference its short-block index must agree with.
    fn stale_short_by_full_scan(sm: &SmCache, path: &str, size: u64) -> Vec<u64> {
        sm.with_tracked(path, |tracked| {
            let lens = tracked.map(|t| t.lens.iter());
            lens.into_iter()
                .flatten()
                .filter(|&(&start, c)| c.len < sm.block_size && c.len != sm.block_len(start, size))
                .map(|(&start, _)| start)
                .collect()
        })
    }

    #[test]
    fn tracked_short_index_is_the_short_lengths() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        const BLOCK: u64 = 2048;
        let mut rng = SmallRng::seed_from_u64(20);
        let mut tracked = Tracked::default();
        for _ in 0..2000 {
            // 24 block starts, so most steps re-insert or remove a start
            // already there: short over full, full over short, gone.
            let start = rng.gen_range(0..24u64) * BLOCK;
            match rng.gen_range(0..4) {
                0 => tracked.remove(start),
                1 => tracked.insert(start, BLOCK, Kept::default(), BLOCK),
                _ => tracked.insert(start, rng.gen_range(0..BLOCK), Kept::default(), BLOCK),
            }
            let short = tracked.lens.iter().filter(|&(_, c)| c.len < BLOCK);
            assert!(short.map(|(start, _)| start).eq(tracked.short.iter()));
        }
        assert!(!tracked.short.is_empty() && tracked.short.len() < tracked.lens.len());
    }

    #[test]
    fn rewarm_limit_throttles_read_fills_but_never_write_pushes() {
        let mut sim = Sim::new(0);
        // Two rewarm tokens, effectively no refill inside the run.
        let cfg = ImcaConfig {
            rewarm: Some(RewarmLimit {
                rate_per_sec: 0.001,
                burst: 2.0,
            }),
            ..two_mcds()
        };
        let (Rig { sm, .. }, _) = rig_over(&sim, posix(&sim), &cfg);
        let sm2 = Rc::clone(&sm);
        sim.run_main(async move {
            drive(&sm2, Fop::Create { path: "/f".into() }).await;
            // The write's 4-block push is write-path: not billed to the
            // rewarm bucket.
            drive(
                &sm2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![5u8; 8192],
                },
            )
            .await;
            assert_eq!(counters(&*sm2, ["blocks_pushed"]), [4]);
            // Open purges: the bank is cold, reads start rewarming it.
            drive(&sm2, Fop::Open { path: "/f".into() }).await;
            for b in 0..4u64 {
                let FopReply::Read(Ok(data)) = drive(
                    &sm2,
                    Fop::Read {
                        path: "/f".into(),
                        offset: b * 2048,
                        len: 2048,
                    },
                )
                .await
                else {
                    panic!()
                };
                // Throttled or not, the read itself always serves.
                assert_eq!(data, vec![5u8; 2048], "block {b}");
            }
            // Fills 1-2 spent the burst; fills 3-4 were suppressed.
            drain(&sm2).await;
            assert_eq!(counters(&*sm2, ["blocks_pushed"]), [6]);
            // A write to the still-cold block 3 must land its push even
            // though the rewarm bucket is dry — write-path coherence
            // traffic is never throttled.
            drive(
                &sm2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 6144,
                    data: vec![9u8; 2048],
                },
            )
            .await;
            assert_eq!(counters(&*sm2, ["blocks_pushed"]), [7]);
        });
        let snap = imca_metrics::collect_from(&*sm, "smcache");
        assert_eq!(snap.counter("smcache.rewarm_suppressed"), Some(2));
    }

    #[test]
    fn failed_covering_reread_purges_the_stale_bank_copy() {
        use imca_storage::StorageFaultPlan;
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        // Block (8 KB) > page (4 KB): a small write warms only its own
        // page, so the covering re-read must touch the media. Purge mode:
        // this exercises the baseline's re-read leg (under Cas a tracked
        // block is replaced in place and no re-read happens).
        let cfg = ImcaConfig {
            block_size: 8192,
            coherence: Coherence::Purge,
            ..two_mcds()
        };
        let (Rig { sm, bank, .. }, _) = rig_over(&sim, Posix::new(be.clone()) as Xlator, &cfg);
        let sm2 = Rc::clone(&sm);
        sim.run_main(async move {
            drive(&sm2, Fop::Create { path: "/f".into() }).await;
            drive(
                &sm2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![1u8; 8192],
                },
            )
            .await;
            assert!(
                bank.get(&block_key("/f", 0)).await.is_some(),
                "benign write must populate the bank"
            );
            // The overwrite lands on disk, but its covering re-read dies.
            be.drop_caches();
            be.install_faults(StorageFaultPlan {
                read_error: 1.0,
                ..StorageFaultPlan::default()
            });
            let r = drive(
                &sm2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![2u8; 100],
                },
            )
            .await;
            assert_eq!(r, FopReply::Write(Ok(100)), "the write itself committed");
            // The bank must not keep serving the pre-write block — those
            // bytes exist nowhere on disk any more.
            assert!(
                bank.get(&block_key("/f", 0)).await.is_none(),
                "stale block survived a dropped push"
            );
        });
        assert_eq!(counters(&*sm, ["dropped_pushes"]), [1]);
        assert_eq!(sm.tracked_blocks("/f"), 0);
    }

    #[test]
    fn write_populates_blocks_and_stat() {
        let mut sim = Sim::new(0);
        let rig = setup(&sim, false, true);
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            let payload: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 100,
                    data: payload.clone(),
                },
            )
            .await;
            // Covering blocks 0..2 (bytes 0..6144) must now be in the bank.
            for b in 0..3u64 {
                let got = bank.get(&block_key("/f", b * 2048)).await;
                assert!(got.is_some(), "block {b} missing");
            }
            // Stat entry matches the file.
            let raw = bank.get(&stat_key("/f")).await.unwrap();
            let st = FileStat::from_bytes(&raw).unwrap();
            assert_eq!(st.size, 5100);
            // Block contents reproduce the write.
            let b1 = bank.get(&block_key("/f", 2048)).await.unwrap();
            assert_eq!(
                &b1[..],
                &{
                    let mut file = vec![0u8; 5100];
                    file[100..].copy_from_slice(&payload);
                    file[2048..4096].to_vec()
                }[..]
            );
        });
        assert_eq!(rig.sm.tracked_blocks("/f"), 3);
        assert!(counters(&*rig.sm, ["blocks_pushed"])[0] >= 3);
    }

    #[test]
    fn read_serves_subrange_and_pushes_aligned_blocks() {
        let mut sim = Sim::new(0);
        let rig = setup(&sim, false, true);
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: (0..8192u32).map(|i| (i % 247) as u8).collect(),
                },
            )
            .await;
            // An unaligned 100-byte read.
            let FopReply::Read(Ok(data)) = drive(
                &sm,
                Fop::Read {
                    path: "/f".into(),
                    offset: 3000,
                    len: 100,
                },
            )
            .await
            else {
                panic!()
            };
            assert_eq!(data.len(), 100);
            assert_eq!(data[0], (3000 % 247) as u8);
            // The full covering block was pushed, not just 100 bytes.
            let blk = bank.get(&block_key("/f", 2048)).await.unwrap();
            assert_eq!(blk.len(), 2048);
        });
    }

    #[test]
    fn open_purges_stale_blocks_then_seeds_stat() {
        let mut sim = Sim::new(0);
        let rig = setup(&sim, false, true);
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![1; 4096],
                },
            )
            .await;
            assert!(bank.get(&block_key("/f", 0)).await.is_some());
            // Open must purge data blocks…
            drive(&sm, Fop::Open { path: "/f".into() }).await;
            assert!(bank.get(&block_key("/f", 0)).await.is_none());
            assert!(bank.get(&block_key("/f", 2048)).await.is_none());
            // …and seed a fresh stat entry.
            let raw = bank.get(&stat_key("/f")).await.unwrap();
            assert_eq!(FileStat::from_bytes(&raw).unwrap().size, 4096);
        });
        assert_eq!(counters(&*rig.sm, ["purges"]), [1]);
    }

    #[test]
    fn close_and_unlink_purge() {
        let mut sim = Sim::new(0);
        let rig = setup(&sim, false, true);
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![2; 2048],
                },
            )
            .await;
            drive(&sm, Fop::Close { path: "/f".into() }).await;
            assert!(bank.get(&block_key("/f", 0)).await.is_none());
            assert!(bank.get(&stat_key("/f")).await.is_none());
            // Re-populate then unlink.
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![3; 2048],
                },
            )
            .await;
            drive(&sm, Fop::Unlink { path: "/f".into() }).await;
            assert!(
                bank.get(&block_key("/f", 0)).await.is_none(),
                "unlink must purge to avoid false positives"
            );
        });
    }

    #[test]
    fn threaded_mode_defers_population_off_the_write_path() {
        // Measure write latency sync vs threaded: the threaded write must
        // be strictly faster, and the blocks must still arrive eventually.
        fn write_latency(threaded: bool) -> u64 {
            let mut sim = Sim::new(0);
            let rig = setup(&sim, threaded, true);
            let sm = Rc::clone(&rig.sm);
            let bank = Rc::clone(&rig.bank);
            let h = sim.handle();
            sim.run_main(async move {
                drive(&sm, Fop::Create { path: "/f".into() }).await;
                let t0 = h.now();
                drive(
                    &sm,
                    Fop::Write {
                        path: "/f".into(),
                        offset: 0,
                        data: vec![7; 2048],
                    },
                )
                .await;
                let latency = h.now().since(t0).as_nanos();
                drain(&sm).await;
                assert!(
                    bank.get(&block_key("/f", 0)).await.is_some(),
                    "threaded update never landed"
                );
                latency
            })
        }
        let sync_lat = write_latency(false);
        let thr_lat = write_latency(true);
        assert!(
            thr_lat < sync_lat,
            "threaded write ({thr_lat}ns) not faster than sync ({sync_lat}ns)"
        );
    }

    #[test]
    fn purge_cancels_stale_deferred_jobs() {
        // Regression: in threaded mode a Write queues an update job;
        // if an Unlink purges the file before the worker drains the queue,
        // the job used to repopulate the bank with blocks of a deleted
        // file — exactly the false positive §4.3.2's purge exists to
        // prevent. The generation fence must drop the stale job.
        let mut sim = Sim::new(0);
        let rig = setup(&sim, true, true);
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![9; 4096],
                },
            )
            .await;
            // Unlink lands before the background worker has pushed the
            // write's blocks (the write only queued a job).
            drive(&sm, Fop::Unlink { path: "/f".into() }).await;
            // Let the worker drain; the stale job must be dropped.
            drain(&sm).await;
            for start in [0u64, 2048] {
                assert!(
                    bank.get(&block_key("/f", start)).await.is_none(),
                    "stale update repopulated block {start} after unlink"
                );
            }
            assert!(
                bank.get(&stat_key("/f")).await.is_none(),
                "stale update repopulated the stat entry after unlink"
            );
        });
        assert_eq!(rig.sm.tracked_blocks("/f"), 0);
        let [dropped] = counters(&*rig.sm, ["stale_updates_dropped"]);
        assert!(dropped >= 1, "fence never fired");
    }

    #[test]
    fn missing_stat_plants_negative_entry_and_create_revalidates() {
        let mut sim = Sim::new(0);
        let rig = setup_with_meta(&sim, false, true, MetaConfig::lease());
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            // A stat of a missing path plants the ENOENT marker.
            let r = drive(
                &sm,
                Fop::Stat {
                    path: "/ghost".into(),
                },
            )
            .await;
            assert_eq!(r, FopReply::Stat(Err(FsError::NotFound)));
            assert_eq!(
                bank.get(&stat_key("/ghost")).await.as_deref(),
                Some(NEG_MARKER),
                "negative entry missing"
            );
            // The create revalidates: its stat replaces the marker
            // before the ack.
            let r = drive(
                &sm,
                Fop::Create {
                    path: "/ghost".into(),
                },
            )
            .await;
            let FopReply::Create(Ok(made)) = r else {
                panic!("create failed: {r:?}")
            };
            let held = bank.get(&stat_key("/ghost")).await;
            assert_eq!(
                held.as_deref().and_then(FileStat::from_bytes),
                Some(made),
                "create left the ENOENT marker behind, or nothing"
            );
            // And the path now stats clean, as the create stored it.
            let r = drive(
                &sm,
                Fop::Stat {
                    path: "/ghost".into(),
                },
            )
            .await;
            assert_eq!(r, FopReply::Stat(Ok(made)));
            drain(&sm).await;
        });
        assert_eq!(
            counters(&*rig.sm, ["purges", "stat_pushes", "stale_updates_dropped"]),
            [0, 2, 0],
            "the create stores its stat, and purges nothing"
        );
    }

    #[test]
    fn a_marker_add_never_replaces_a_landed_stat() {
        let mut sim = Sim::new(0);
        let rig = setup_with_meta(&sim, false, true, MetaConfig::lease());
        let (sm, bank) = (Rc::clone(&rig.sm), Rc::clone(&rig.bank));
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            let FopReply::Stat(Ok(st)) = drive(&sm, Fop::Stat { path: "/f".into() }).await else {
                panic!("stat failed")
            };
            drain(&sm).await;
            // A marker from a lookup that saw ENOENT before the create,
            // landing late: `add` finds the stat and stores nothing.
            sm.push_negative("/f", sm.generation("/f")).await;
            drain(&sm).await;
            let held = bank.get(&stat_key("/f")).await.expect("the stat is gone");
            assert_eq!(FileStat::from_bytes(&held), Some(st));
        });
    }

    #[test]
    fn negative_caching_off_plants_nothing() {
        let mut sim = Sim::new(0);
        let rig = setup(&sim, false, true);
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            drive(
                &sm,
                Fop::Stat {
                    path: "/ghost".into(),
                },
            )
            .await;
            assert!(bank.get(&stat_key("/ghost")).await.is_none());
        });
    }

    /// A child that holds every fop for `delay` before posix sees it.
    struct Slow {
        posix: Rc<Posix>,
        handle: SimHandle,
        delay: SimDuration,
    }

    impl Translator for Slow {
        fn name(&self) -> &'static str {
            "test/slow"
        }

        fn handle(self: Rc<Self>, fop: Fop) -> imca_glusterfs::FopFuture {
            Box::pin(async move {
                self.handle.sleep(self.delay).await;
                Rc::clone(&self.posix).handle(fop).await
            })
        }
    }

    #[test]
    fn a_purge_racing_a_batched_stat_drops_only_its_own_path() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let slow = Rc::new(Slow {
            posix: posix(&sim),
            handle: h.clone(),
            delay: SimDuration::millis(1),
        });
        let (rig, _mcds) = rig_over(&sim, slow, &two_mcds());
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            for path in ["/a", "/b"] {
                drive(&sm, Fop::Create { path: path.into() }).await;
            }
            let (tx, batch) = imca_sim::sync::oneshot();
            let sm2 = Rc::clone(&sm);
            h.spawn(async move {
                let paths = vec!["/a".into(), "/b".into()];
                tx.send(drive(&sm2, Fop::StatMulti { paths }).await);
            });
            // The batch is at the filesystem when /a's close purges it.
            h.sleep(SimDuration::micros(100)).await;
            drive(&sm, Fop::Close { path: "/a".into() }).await;
            let FopReply::StatMulti(stats) = batch.await.unwrap() else {
                panic!("not a batch reply")
            };
            assert!(stats.iter().all(Result::is_ok));
            assert!(
                bank.get(&stat_key("/a")).await.is_none(),
                "the purged path's stat was pushed"
            );
            let held = bank.get(&stat_key("/b")).await.expect("/b was not pushed");
            assert_eq!(FileStat::from_bytes(&held), Some(stats[1].unwrap()));
        });
        assert_eq!(counters(&*rig.sm, ["stat_pushes", "purges"]), [1, 1]);
    }

    #[test]
    fn a_batched_stat_pushes_what_it_found_and_plants_what_it_did_not() {
        let mut sim = Sim::new(0);
        let rig = setup_with_meta(&sim, false, true, MetaConfig::lease());
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            let paths = vec!["/ghost".into(), "/f".into()];
            let r = drive(&sm, Fop::StatMulti { paths }).await;
            let FopReply::StatMulti(stats) = r else {
                panic!("not a batch reply")
            };
            assert_eq!(stats[0], Err(FsError::NotFound));
            let marker = bank.get(&stat_key("/ghost")).await;
            assert_eq!(marker.as_deref(), Some(NEG_MARKER), "no marker");
            let held = bank.get(&stat_key("/f")).await.expect("/f was not pushed");
            assert_eq!(FileStat::from_bytes(&held), Some(stats[1].unwrap()));
            drain(&sm).await;
        });
        // The create's store, then the batch's push of /f.
        assert_eq!(
            counters(&*rig.sm, ["stat_pushes", "negative_pushes"]),
            [2, 1]
        );
    }

    /// A replicated rig (modulo routing, R = 2 over 2 daemons) for the
    /// CAS-coherence tests: every block lives on both daemons.
    fn replicated_rig(sim: &Sim, coherence: Coherence) -> (Rig, Rc<Bank>) {
        let cfg = ImcaConfig {
            selector: Selector::Modulo,
            replication: crate::mcd::Replication { factor: 2 },
            coherence,
            ..two_mcds()
        };
        rig_over(sim, posix(sim), &cfg)
    }

    /// How many daemons currently hold `key` (direct engine probe).
    fn bank_holders(mcds: &Bank, key: &[u8]) -> usize {
        mcds.nodes()
            .iter()
            .filter(|n| n.server().store().get(key, 0).is_some())
            .count()
    }

    #[test]
    fn cas_write_replaces_blocks_in_place_and_replicas_stay_warm() {
        let mut sim = Sim::new(0);
        let (rig, mcds) = replicated_rig(&sim, Coherence::Cas);
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        let m2 = Rc::clone(&mcds);
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            // Cold first write: degenerates to the legacy fill.
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![1u8; 2048],
                },
            )
            .await;
            assert_eq!(bank_holders(&m2, &block_key("/f", 0)), 2);
            // Warm overwrite: both replica copies are replaced in place —
            // never deleted, never re-read from disk.
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![2u8; 100],
                },
            )
            .await;
            assert_eq!(
                bank_holders(&m2, &block_key("/f", 0)),
                2,
                "a CAS write must leave every replica warm"
            );
            let mut want = vec![1u8; 2048];
            want[..100].fill(2);
            let got = bank.get(&block_key("/f", 0)).await.unwrap();
            assert_eq!(&got[..], &want[..], "post-write bytes wrong");
            // The stat entry carries the (unchanged) post-write size.
            let raw = bank.get(&stat_key("/f")).await.unwrap();
            assert_eq!(FileStat::from_bytes(&raw).unwrap().size, 2048);
        });
        let [replaced, conflicts, fallbacks, purges] = counters(
            &*rig.sm,
            [
                "cas_replacements",
                "cas_conflicts",
                "cas_fallback_purges",
                "purges",
            ],
        );
        assert_eq!(replaced, 2, "one replacement per replica");
        assert_eq!((conflicts, fallbacks), (0, 0));
        assert_eq!(purges, 0, "the CAS path must never purge");
        assert_eq!(rig.sm.tracked_blocks("/f"), 1);
    }

    #[test]
    fn cas_extends_short_eof_blocks_without_a_reread() {
        // A write that moves EOF past a short-cached block: under Cas the
        // short block is zero-extended in place (the gap is a hole) —
        // `populate_range`'s stale-short re-read leg without the disk.
        let mut sim = Sim::new(0);
        let (rig, _mcds) = replicated_rig(&sim, Coherence::Cas);
        let sm = Rc::clone(&rig.sm);
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            // 100 bytes: block 0 cached short (the file ends inside it).
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![5u8; 100],
                },
            )
            .await;
            assert_eq!(bank.get(&block_key("/f", 0)).await.unwrap().len(), 100);
            // The EOF check the coming write will make, and the one a
            // write that leaves the size alone makes.
            assert_eq!(sm.stale_short_blocks("/f", 5000), vec![0]);
            assert_eq!(stale_short_by_full_scan(&sm, "/f", 5000), vec![0]);
            assert!(sm.stale_short_blocks("/f", 100).is_empty());
            assert!(stale_short_by_full_scan(&sm, "/f", 100).is_empty());
            // Write into block 2: EOF moves to 5000, so block 0's cached
            // copy now truncates reads NoCache would satisfy with zeros.
            drive(
                &sm,
                Fop::Write {
                    path: "/f".into(),
                    offset: 4096,
                    data: vec![6u8; 904],
                },
            )
            .await;
            let b0 = bank.get(&block_key("/f", 0)).await.unwrap();
            assert_eq!(b0.len(), 2048, "short block not extended");
            assert_eq!(&b0[..100], &[5u8; 100][..]);
            assert!(b0[100..].iter().all(|&b| b == 0), "the gap is a hole");
            // Block 0 is full now; block 2 is the short one, and coherent.
            assert!(sm.stale_short_blocks("/f", 5000).is_empty());
            assert_eq!(sm.stale_short_blocks("/f", 9000), vec![4096]);
            assert_eq!(stale_short_by_full_scan(&sm, "/f", 9000), vec![4096]);
        });
        let [fallbacks, replaced] = counters(&*rig.sm, ["cas_fallback_purges", "cas_replacements"]);
        assert_eq!(fallbacks, 0);
        assert!(replaced >= 2, "short block + its replica: {replaced}");
    }

    #[test]
    fn concurrent_cas_writers_take_turns_and_never_conflict() {
        // Two tasks overwrite the same warm block concurrently. Each
        // write's update waits for the one wound before it on the block,
        // so no wave races another's tokens: none conflicts, none falls
        // back, and the bank copy left behind equals the disk bytes.
        let mut sim = Sim::new(7);
        let disk = posix(&sim);
        let (Rig { sm, bank, .. }, _) = rig_over(&sim, Rc::clone(&disk) as Xlator, &two_mcds());
        let h = sim.handle();
        let sm2 = Rc::clone(&sm);
        sim.run_main(async move {
            drive(&sm2, Fop::Create { path: "/f".into() }).await;
            drive(
                &sm2,
                Fop::Write {
                    path: "/f".into(),
                    offset: 0,
                    data: vec![0u8; 2048],
                },
            )
            .await;
            // Several rounds of racing overwrites to the same block.
            let writers: Vec<_> = (0..2u8)
                .map(|w| {
                    let sm = Rc::clone(&sm2);
                    async move {
                        for round in 0..4u8 {
                            drive(
                                &sm,
                                Fop::Write {
                                    path: "/f".into(),
                                    offset: 100 * w as u64,
                                    data: vec![10 + w * 10 + round; 300],
                                },
                            )
                            .await;
                        }
                    }
                })
                .collect();
            join_all(&h, writers).await;
            drain(&sm2).await;
            let cached = bank.get(&block_key("/f", 0)).await.expect("block 0 cold");
            let FopReply::Read(Ok(on_disk)) = Rc::clone(&disk)
                .handle(Fop::Read {
                    path: "/f".into(),
                    offset: 0,
                    len: 2048,
                })
                .await
            else {
                panic!("disk read failed")
            };
            assert_eq!(&cached[..], &on_disk[..], "bank diverged from disk");
        });
        let [conflicts, fallbacks, replaced] = counters(
            &*sm,
            ["cas_conflicts", "cas_fallback_purges", "cas_replacements"],
        );
        assert_eq!((conflicts, fallbacks), (0, 0));
        assert_eq!(replaced, 8, "one replacement per racing write");
    }

    #[test]
    fn a_failed_write_holds_its_turn_until_the_turns_before_it_end() {
        // Three writes of warm block 0 wound at once: the first's wave is
        // posted, the disk refuses the second, the third covers the
        // block whole. The third waits on the second's turn, which must
        // last until the first's update has recorded its tokens:
        // otherwise the third reads the first's old kept token, its
        // posted `cas` conflicts, and a lookup sent at its reply reads
        // the first's bytes.
        use imca_storage::StorageFaultPlan;
        let mut sim = Sim::new(0);
        let be = StorageBackend::new(sim.handle(), BackendParams::paper_server());
        let disk = Posix::new(be.clone());
        let (Rig { sm, bank, .. }, _) = rig_over(&sim, Rc::clone(&disk) as Xlator, &two_mcds());
        let h = sim.handle();
        let sm2 = Rc::clone(&sm);
        sim.run_main(async move {
            let write = |fill: u8| Fop::Write {
                path: "/f".into(),
                offset: 0,
                data: vec![fill; 2048],
            };
            drive(&sm2, Fop::Create { path: "/f".into() }).await;
            drive(&sm2, write(1)).await;
            drain(&sm2).await;
            let (sm, be) = (Rc::clone(&sm2), be.clone());
            let first = async move { (drive(&sm, write(2)).await, None) };
            let (sm, be2) = (Rc::clone(&sm2), be.clone());
            let refused = async move {
                be2.install_faults(StorageFaultPlan {
                    write_error: 1.0,
                    ..StorageFaultPlan::default()
                });
                (drive(&sm, write(3)).await, None)
            };
            let (sm, bank) = (Rc::clone(&sm2), Rc::clone(&bank));
            let last = async move {
                be.install_faults(StorageFaultPlan::default());
                let reply = drive(&sm, write(4)).await;
                (reply, bank.get(&block_key("/f", 0)).await)
            };
            let writes: Vec<std::pin::Pin<Box<dyn Future<Output = _>>>> =
                vec![Box::pin(first), Box::pin(refused), Box::pin(last)];
            let replies = join_all(&h, writes).await;
            assert_eq!(replies[0].0, FopReply::Write(Ok(2048)));
            assert_eq!(replies[1].0, FopReply::Write(Err(FsError::Io)));
            assert_eq!(replies[2].0, FopReply::Write(Ok(2048)));
            let at_reply = replies[2].1.as_ref().expect("block 0 cold");
            assert!(
                at_reply.iter().all(|&b| b == 4),
                "a stale block at the reply"
            );
            drain(&sm2).await;
        });
        let [conflicts, fallbacks] = counters(&*sm, ["cas_conflicts", "cas_fallback_purges"]);
        assert_eq!((conflicts, fallbacks), (0, 0));
    }

    /// The copies of `key` the daemons hold, read off their engines.
    fn held(mcds: &Bank, key: &[u8]) -> Vec<Bytes> {
        mcds.nodes()
            .iter()
            .filter_map(|n| n.server().store().get(key, 0).map(|v| v.value.clone()))
            .collect()
    }

    /// Check the bank every microsecond until `done`: whenever a daemon
    /// holds a stat of `path` other than `old_stat`, every copy of
    /// `blocks` the bank holds must already be `new` — a consumer that
    /// sees the new mtime must not read a pre-write block. Returns the
    /// number of instants at which that failed.
    fn watch_stat_order(
        h: &SimHandle,
        mcds: &Rc<Bank>,
        path: &str,
        old_stat: Bytes,
        blocks: Vec<Vec<u8>>,
        new: Bytes,
        done: &Rc<std::cell::Cell<bool>>,
    ) -> Rc<std::cell::Cell<u64>> {
        let broken = Rc::new(std::cell::Cell::new(0));
        let (h2, mcds, stat, done, b2) = (
            h.clone(),
            Rc::clone(mcds),
            stat_key(path),
            Rc::clone(done),
            Rc::clone(&broken),
        );
        h.spawn(async move {
            while !done.get() {
                let published = held(&mcds, &stat).iter().any(|st| *st != old_stat);
                let stale = blocks
                    .iter()
                    .any(|key| held(&mcds, key).iter().any(|b| *b != new));
                if published && stale {
                    b2.set(b2.get() + 1);
                }
                h2.sleep(SimDuration::micros(1)).await;
            }
        });
        broken
    }

    /// A two-daemon modulo bank under CAS, `/f` written with two blocks
    /// of `1u8` (block 0 on daemon 0, block 1 on daemon 1), and the
    /// disk under it.
    async fn warm_two_block_file(sm: &Rc<SmCache>) {
        drive(sm, Fop::Create { path: "/f".into() }).await;
        let data = vec![1u8; 4096];
        let write = Fop::Write {
            path: "/f".into(),
            offset: 0,
            data,
        };
        drive(sm, write).await;
    }

    fn cas_modulo_rig(sim: &Sim) -> (Rig, Rc<Bank>, Rc<Posix>) {
        let disk = posix(sim);
        let cfg = ImcaConfig {
            selector: Selector::Modulo,
            coherence: Coherence::Cas,
            ..two_mcds()
        };
        let (rig, mcds) = rig_over(sim, Rc::clone(&disk) as Xlator, &cfg);
        (rig, mcds, disk)
    }

    /// What [`overwrite_watched`] saw: the instants the stat stood
    /// beside a pre-write block, the stat a lookup sent from the server's
    /// node the moment the write returned read (it leaves behind every
    /// store the write posted, as the write's reply does), and the stat
    /// copies the bank holds once every posted store has landed.
    struct Watched {
        broken: u64,
        causal: Option<Bytes>,
        held: Vec<Bytes>,
        /// `cas_replacements` the moment the write returned: 0 where its
        /// wave was posted.
        replaced_at_reply: u64,
    }

    /// Overwrite both blocks of [`warm_two_block_file`]'s `/f` with
    /// `2u8`, while [`watch_stat_order`] checks the bank and `plant`
    /// runs beside the write (it gets the bank and the SMCache).
    fn overwrite_watched<F: std::future::Future<Output = ()> + 'static>(
        sim: &mut Sim,
        rig: &Rig,
        mcds: &Rc<Bank>,
        plant: impl FnOnce(Rc<Bank>, Rc<SmCache>) -> F + 'static,
    ) -> Watched {
        let (h, sm, mcds) = (sim.handle(), Rc::clone(&rig.sm), Rc::clone(mcds));
        let bank = Rc::clone(&rig.bank);
        sim.run_main(async move {
            warm_two_block_file(&sm).await;
            drain(&sm).await;
            let blocks = vec![block_key("/f", 0), block_key("/f", 2048)];
            for key in &blocks {
                assert_eq!(held(&mcds, key).len(), 1, "warm before the write");
            }
            let old_stat = held(&mcds, &stat_key("/f")).remove(0);
            let done = Rc::new(std::cell::Cell::new(false));
            let new = Bytes::from(vec![2u8; 2048]);
            let broken = watch_stat_order(&h, &mcds, "/f", old_stat, blocks, new, &done);
            h.spawn(plant(Rc::clone(&mcds), Rc::clone(&sm)));
            let write = Fop::Write {
                path: "/f".into(),
                offset: 0,
                data: vec![2u8; 4096],
            };
            drive(&sm, write).await;
            let [replaced_at_reply] = counters(&*sm, ["cas_replacements"]);
            let causal = bank.get(&stat_key("/f")).await;
            // Let a planted purge finish too.
            h.sleep(SimDuration::millis(1)).await;
            drain(&sm).await;
            done.set(true);
            Watched {
                broken: broken.get(),
                causal,
                held: held(&mcds, &stat_key("/f")),
                replaced_at_reply,
            }
        })
    }

    /// The disk's stat of `path`, as the bank stores it.
    fn disk_stat(sim: &mut Sim, disk: &Rc<Posix>, path: &str) -> Bytes {
        let disk = Rc::clone(disk) as Xlator;
        let path = path.to_string();
        let FopReply::Stat(Ok(st)) =
            sim.run_main(async move { disk.handle(Fop::Stat { path }).await })
        else {
            panic!("disk stat failed")
        };
        Bytes::from(st.to_bytes())
    }

    #[test]
    fn a_cas_write_publishes_its_stat_only_after_its_blocks() {
        // Awaited, the verdicts are in before the reply; posted, they are
        // not, and the order rests on the stat's frame leaving the server
        // behind every wave frame.
        for posted in [false, true] {
            let mut sim = Sim::new(0);
            let (rig, mcds, disk) = cas_modulo_rig(&sim);
            if !posted {
                rig.await_waves();
            }
            let seen = overwrite_watched(&mut sim, &rig, &mcds, |_, _| async {});
            let want = if posted { 0 } else { 2 };
            assert_eq!(seen.replaced_at_reply, want, "posted: {posted}");
            assert_eq!(seen.broken, 0, "a new stat stood beside a pre-write block");
            let on_disk = disk_stat(&mut sim, &disk, "/f");
            assert_eq!(seen.causal.as_ref(), Some(&on_disk));
            assert_eq!(seen.held, [on_disk]);
            let [replaced, fallbacks] =
                counters(&*rig.sm, ["cas_replacements", "cas_fallback_purges"]);
            assert_eq!((replaced, fallbacks), (2, 0));
        }
    }

    /// Once the write has returned from the filesystem, and before its
    /// wave reaches daemon 1, a plain `set` lands on block 1 there — a
    /// second writer SMCache never has: the token the write kept for it
    /// goes stale, so its `cas` conflicts.
    fn plant_a_set_on_block_1(
        h: SimHandle,
    ) -> impl FnOnce(Rc<Bank>, Rc<SmCache>) -> std::pin::Pin<Box<dyn Future<Output = ()>>> {
        move |mcds, sm| {
            Box::pin(async move {
                let before = sm.writes_to("/f");
                while sm.writes_to("/f") == before {
                    h.sleep(SimDuration::micros(1)).await;
                }
                let planted = Bytes::from(vec![9u8; 2048]);
                let store = mcds.nodes()[1].server().store();
                store
                    .set(&block_key("/f", 2048), planted, 0, None, 0)
                    .unwrap();
            })
        }
    }

    #[test]
    fn a_conflicted_cas_write_falls_back_and_publishes_the_new_stat_last() {
        // Where the wave is awaited, the conflict falls the write back
        // before it replies.
        let mut sim = Sim::new(0);
        let (rig, mcds, disk) = cas_modulo_rig(&sim);
        rig.await_waves();
        let plant = plant_a_set_on_block_1(sim.handle());
        let seen = overwrite_watched(&mut sim, &rig, &mcds, plant);
        assert_eq!(seen.broken, 0, "a new stat stood beside a pre-write block");
        let on_disk = disk_stat(&mut sim, &disk, "/f");
        assert_eq!(seen.causal.as_ref(), Some(&on_disk));
        assert_eq!(seen.held, [on_disk]);
        let [conflicts, fallbacks] = counters(&*rig.sm, ["cas_conflicts", "cas_fallback_purges"]);
        assert_eq!((conflicts, fallbacks), (1, 1));
        for start in [0, 2048] {
            let copies = held(&mcds, &block_key("/f", start));
            assert!(copies.iter().all(|b| b[..] == [2u8; 2048]), "block {start}");
        }
    }

    /// A posted wave rests on SMCache being the bank's only writer: the
    /// same plant, where the wave is posted, trips its check.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a posted CAS wave conflicted")]
    fn a_planted_set_under_a_posted_wave_trips_the_only_writer_check() {
        let mut sim = Sim::new(0);
        let (rig, mcds, _) = cas_modulo_rig(&sim);
        let plant = plant_a_set_on_block_1(sim.handle());
        overwrite_watched(&mut sim, &rig, &mcds, plant);
    }

    #[test]
    fn a_cas_write_overtaken_by_a_purge_publishes_no_stat() {
        // A close purges `/f` once daemon 0 holds the replaced block 0:
        // the wave is fenced when its verdicts return, so the write must
        // not count its replacements, and nothing it stored may stay.
        // Where the wave is awaited, the write returns after the purge
        // and pushes no stat; where it is posted, the write returned,
        // its stat published, before the close was sent.
        for posted in [false, true] {
            let mut sim = Sim::new(0);
            let (rig, mcds, disk) = cas_modulo_rig(&sim);
            if !posted {
                rig.await_waves();
            }
            let h = sim.handle();
            let plant = move |mcds: Rc<Bank>, sm: Rc<SmCache>| async move {
                let replaced =
                    |mcds: &Bank| held(mcds, &block_key("/f", 0))[..] == [vec![2u8; 2048]];
                while !replaced(&mcds) {
                    h.sleep(SimDuration::micros(1)).await;
                }
                drive(&sm, Fop::Close { path: "/f".into() }).await;
            };
            let seen = overwrite_watched(&mut sim, &rig, &mcds, plant);
            assert_eq!(seen.broken, 0, "a new stat stood beside a pre-write block");
            let on_disk = disk_stat(&mut sim, &disk, "/f");
            let causal = posted.then_some(on_disk);
            assert_eq!(seen.causal, causal, "posted: {posted}");
            assert!(seen.held.is_empty(), "the overtaken write's stat stayed");
            for start in [0, 2048] {
                assert!(held(&mcds, &block_key("/f", start)).is_empty());
            }
            let [replaced, dropped] =
                counters(&*rig.sm, ["cas_replacements", "stale_updates_dropped"]);
            assert_eq!(replaced, 0);
            assert!(dropped >= 1);
        }
    }

    /// Token fetches (`get`/`gets` commands) the daemons have served.
    fn cmd_gets(mcds: &Bank) -> u64 {
        mcds.nodes().iter().map(|n| n.stats().cmd_get).sum()
    }

    /// The tokens SMCache keeps for block `start` of `path`.
    fn kept(sm: &SmCache, path: &str, start: u64) -> Option<Kept> {
        sm.with_tracked(path, |t| t.and_then(|t| t.lens.get(&start)).map(|c| c.kept))
    }

    /// Drive a write of `data` at `offset` to `/f`; returns the token
    /// fetches it made.
    async fn write_counting_gets(sm: &Rc<SmCache>, mcds: &Bank, offset: u64, data: Vec<u8>) -> u64 {
        let before = cmd_gets(mcds);
        let path = "/f".to_string();
        drive(sm, Fop::Write { path, offset, data }).await;
        drain(sm).await;
        cmd_gets(mcds) - before
    }

    #[test]
    fn a_warm_whole_block_write_replaces_its_blocks_without_a_gets() {
        // Both framings ask for the tokens: one frame per daemon, or per key.
        for (r, batching) in [(1, true), (2, true), (2, false)] {
            let mut sim = Sim::new(0);
            let cfg = ImcaConfig {
                selector: Selector::Modulo,
                replication: crate::mcd::Replication { factor: r },
                batching,
                ..two_mcds()
            };
            let (rig, mcds) = rig_over(&sim, posix(&sim), &cfg);
            let (sm, m2) = (Rc::clone(&rig.sm), Rc::clone(&mcds));
            sim.run_main(async move {
                drive(&sm, Fop::Create { path: "/f".into() }).await;
                // Cold: the covering re-read's sets keep their tokens.
                write_counting_gets(&sm, &m2, 0, vec![1u8; 4096]).await;
                for start in [0, 2048] {
                    let kept = kept(&sm, "/f", start).unwrap();
                    assert!(
                        (0..r).all(|slot| kept.at(slot).is_some()),
                        "R={r} batching={batching}"
                    );
                }
                let fetched = write_counting_gets(&sm, &m2, 0, vec![2u8; 4096]).await;
                assert_eq!(
                    fetched, 0,
                    "R={r} batching={batching}: a whole-block write fetched"
                );
                for start in [0, 2048] {
                    let copies = held(&m2, &block_key("/f", start));
                    assert_eq!(copies.len(), r);
                    assert!(
                        copies.iter().all(|b| b[..] == [2u8; 2048]),
                        "R={r} batching={batching}"
                    );
                }
                // A write covering block 1 in part needs its old bytes.
                let fetched = write_counting_gets(&sm, &m2, 3000, vec![3u8]).await;
                assert_eq!(
                    fetched, r as u64,
                    "R={r} batching={batching}: one `gets` per replica"
                );
                // Block 2 moves EOF to 6144: its covering re-read keeps
                // tokens, and block 1 is whole again.
                write_counting_gets(&sm, &m2, 4096, vec![4u8; 2048]).await;
                let fetched = write_counting_gets(&sm, &m2, 2048, vec![5u8; 4096]).await;
                assert_eq!(
                    fetched, 0,
                    "R={r} batching={batching}: the replaced blocks kept fresh tokens"
                );
            });
            let [replaced, fallbacks] =
                counters(&*rig.sm, ["cas_replacements", "cas_fallback_purges"]);
            assert_eq!(fallbacks, 0, "R={r} batching={batching}");
            assert_eq!(replaced, 5 * r as u64, "R={r} batching={batching}");
        }
    }

    #[test]
    fn a_write_that_strands_a_stale_short_block_fetches_it() {
        let mut sim = Sim::new(0);
        let (rig, mcds) = replicated_rig(&sim, Coherence::Cas);
        let (sm, m2) = (Rc::clone(&rig.sm), Rc::clone(&mcds));
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            // Block 0 cached short, with its tokens kept.
            write_counting_gets(&sm, &m2, 0, vec![1u8; 100]).await;
            assert!(kept(&sm, "/f", 0).unwrap().at(1).is_some());
            // A whole block 1 strands block 0: its post-write bytes are its
            // cached bytes zero-extended, which only a `gets` has.
            let fetched = write_counting_gets(&sm, &m2, 2048, vec![2u8; 2048]).await;
            assert_eq!(fetched, 2, "one `gets` of block 0 per replica");
            let mut want = vec![0u8; 2048];
            want[..100].fill(1);
            for copy in held(&m2, &block_key("/f", 0)) {
                assert_eq!(&copy[..], &want[..]);
            }
        });
        assert_eq!(counters(&*rig.sm, ["cas_fallback_purges"]), [0]);
    }

    /// Warm `/f` on an R = 2 bank, plant another writer's `set` on
    /// daemon 1's copy of block 0, so the token kept for that replica no
    /// longer matches, then overwrite both blocks whole. Returns
    /// SMCache's `(cas_conflicts, cas_fallback_purges)`.
    fn overwrite_a_planted_block(posted: bool) -> [u64; 2] {
        let mut sim = Sim::new(0);
        let disk = posix(&sim);
        let cfg = ImcaConfig {
            selector: Selector::Modulo,
            replication: crate::mcd::Replication { factor: 2 },
            ..two_mcds()
        };
        let (rig, mcds) = rig_over(&sim, Rc::clone(&disk) as Xlator, &cfg);
        if !posted {
            rig.await_waves();
        }
        let (sm, m2) = (Rc::clone(&rig.sm), Rc::clone(&mcds));
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            write_counting_gets(&sm, &m2, 0, vec![1u8; 4096]).await;
            let planted = Bytes::from(vec![9u8; 2048]);
            let store = m2.nodes()[1].server().store();
            store.set(&block_key("/f", 0), planted, 0, None, 0).unwrap();
            let fetched = write_counting_gets(&sm, &m2, 0, vec![2u8; 4096]).await;
            assert_eq!(fetched, 0, "the kept tokens went straight into the wave");
            // The fall-back's covering re-read left the disk's bytes.
            for start in [0, 2048] {
                let read = Fop::Read {
                    path: "/f".into(),
                    offset: start,
                    len: 2048,
                };
                let FopReply::Read(Ok(on_disk)) = Rc::clone(&disk).handle(read).await else {
                    panic!("disk read failed")
                };
                let copies = held(&m2, &block_key("/f", start));
                assert_eq!(copies.len(), 2, "block {start}");
                assert!(copies.iter().all(|b| b[..] == on_disk[..]), "block {start}");
            }
        });
        counters(&*rig.sm, ["cas_conflicts", "cas_fallback_purges"])
    }

    #[test]
    fn a_kept_token_a_planted_set_made_stale_conflicts_and_falls_back() {
        assert_eq!(overwrite_a_planted_block(false), [1, 1]);
    }

    /// The same plant where the wave is posted trips the only-writer
    /// check (`a_planted_set_under_a_posted_wave_trips_the_only_writer_check`).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a posted CAS wave conflicted")]
    fn a_kept_token_a_planted_set_made_stale_trips_a_posted_wave() {
        overwrite_a_planted_block(true);
    }

    #[test]
    fn a_read_fill_clears_the_kept_tokens() {
        let mut sim = Sim::new(0);
        let (rig, mcds) = replicated_rig(&sim, Coherence::Cas);
        let (sm, m2) = (Rc::clone(&rig.sm), Rc::clone(&mcds));
        sim.run_main(async move {
            drive(&sm, Fop::Create { path: "/f".into() }).await;
            write_counting_gets(&sm, &m2, 0, vec![1u8; 2048]).await;
            assert_ne!(kept(&sm, "/f", 0), Some(Kept::default()));
            // A read's fill stores block 0 with plain sets: no tokens.
            let read = Fop::Read {
                path: "/f".into(),
                offset: 0,
                len: 2048,
            };
            drive(&sm, read).await;
            drain(&sm).await;
            assert_eq!(kept(&sm, "/f", 0), Some(Kept::default()));
            // So the next whole-block write fetches them, and lands.
            let fetched = write_counting_gets(&sm, &m2, 0, vec![2u8; 2048]).await;
            assert_eq!(fetched, 2);
            for copy in held(&m2, &block_key("/f", 0)) {
                assert_eq!(&copy[..], &[2u8; 2048][..]);
            }
        });
        let [conflicts, fallbacks] = counters(&*rig.sm, ["cas_conflicts", "cas_fallback_purges"]);
        assert_eq!((conflicts, fallbacks), (0, 0));
    }

    #[test]
    fn a_fill_past_one_frame_never_lands_over_a_later_write() {
        // One daemon, so a 2000-block fill is one daemon's share: eight
        // frames.
        let cfg = ImcaConfig {
            mcd_count: 1,
            ..two_mcds()
        };
        let (bs, blocks, k) = (cfg.block_size, 2000u64, 1999u64);
        let mut sim = Sim::new(0);
        let (rig, mcds) = rig_over(&sim, posix(&sim), &cfg);
        let (h, sm) = (sim.handle(), Rc::clone(&rig.sm));
        let stale = sim.run_main(async move {
            let path = || "/f".to_string();
            drive(&sm, Fop::Create { path: path() }).await;
            let data = vec![1u8; (blocks * bs) as usize];
            drive(
                &sm,
                Fop::Write {
                    path: path(),
                    offset: 0,
                    data,
                },
            )
            .await;
            // Closed and reopened: none of the file's blocks is tracked.
            drive(&sm, Fop::Close { path: path() }).await;
            drive(&sm, Fop::Open { path: path() }).await;
            drain(&sm).await;
            let len = blocks * bs;
            drive(
                &sm,
                Fop::Read {
                    path: path(),
                    offset: 0,
                    len,
                },
            )
            .await;
            // The reader closes, another client opens and writes block k.
            drive(&sm, Fop::Close { path: path() }).await;
            drive(&sm, Fop::Open { path: path() }).await;
            let data = vec![2u8; bs as usize];
            drive(
                &sm,
                Fop::Write {
                    path: path(),
                    offset: k * bs,
                    data,
                },
            )
            .await;
            // From the write's reply until every posted store is followed
            // through, no copy of block k's pre-write bytes.
            let (key, old) = (block_key("/f", k * bs), vec![1u8; bs as usize]);
            let mut stale = 0;
            loop {
                stale += held(&mcds, &key)
                    .iter()
                    .filter(|b| b[..] == old[..])
                    .count();
                if sm.pending() == 0 {
                    break stale;
                }
                h.sleep(SimDuration::micros(1)).await;
            }
        });
        assert_eq!(stale, 0, "the fill's late frame re-set a pre-write block");
    }

    #[test]
    fn a_write_wound_beside_a_read_fill_awaits_its_wave() {
        // One daemon, so a 600-block fill goes as three frames, each sent
        // once the one before it has answered: it stays in flight for
        // several round trips. A whole-block write to block k wound while
        // it is reads block k's kept tokens with the fill's `set` of that
        // block still to land: block 0's before the write's `cas`, which
        // then conflicts; the last block's after it, with pre-write bytes.
        // Either way the write awaits its wave, and every copy the bank
        // holds afterwards is the disk's.
        let cfg = ImcaConfig {
            mcd_count: 1,
            ..two_mcds()
        };
        let (bs, blocks) = (cfg.block_size, 600u64);
        for k in [0, blocks - 1] {
            let mut sim = Sim::new(0);
            let disk = posix(&sim);
            let (rig, _) = rig_over(&sim, Rc::clone(&disk) as Xlator, &cfg);
            let (h, sm, bank) = (sim.handle(), Rc::clone(&rig.sm), Rc::clone(&rig.bank));
            sim.run_main(async move {
                let write = |offset: u64, data| Fop::Write {
                    path: "/f".into(),
                    offset,
                    data,
                };
                drive(&sm, Fop::Create { path: "/f".into() }).await;
                drive(&sm, write(0, vec![1u8; (blocks * bs) as usize])).await;
                drain(&sm).await;
                let (tx, read) = imca_sim::sync::oneshot();
                let reader = Rc::clone(&sm);
                h.spawn(async move {
                    let len = blocks * bs;
                    let fop = Fop::Read {
                        path: "/f".into(),
                        offset: 0,
                        len,
                    };
                    tx.send(drive(&reader, fop).await);
                });
                while sm.with_path("/f", |p| p.fills) == 0 {
                    h.sleep(SimDuration::micros(1)).await;
                }
                drive(&sm, write(k * bs, vec![2u8; bs as usize])).await;
                let [replaced, fallbacks] =
                    counters(&*sm, ["cas_replacements", "cas_fallback_purges"]);
                assert_eq!(
                    replaced + fallbacks,
                    1,
                    "block {k}: the write replied before its wave's verdicts"
                );
                assert!(matches!(read.await, Ok(FopReply::Read(Ok(_)))));
                drain(&sm).await;
                for start in [0, k * bs, (blocks - 1) * bs] {
                    let Some(cached) = bank.get(&block_key("/f", start)).await else {
                        continue;
                    };
                    let fop = Fop::Read {
                        path: "/f".into(),
                        offset: start,
                        len: bs,
                    };
                    let FopReply::Read(Ok(on_disk)) = Rc::clone(&disk).handle(fop).await else {
                        panic!("disk read failed")
                    };
                    assert_eq!(&cached[..], &on_disk[..], "block {k}: {start} diverged");
                }
            });
        }
    }

    /// A scripted child xlator: writes and reads succeed, stats fail on
    /// demand. `backend.write` refreshes the cached inode, so a *real*
    /// backend can never fail the post-write stat via media faults — this
    /// fake drives the leg deterministically.
    struct FlakyStatChild {
        size: std::cell::Cell<u64>,
        stat_fails: std::cell::Cell<bool>,
    }

    impl Translator for FlakyStatChild {
        fn name(&self) -> &'static str {
            "test/flaky-stat"
        }

        fn handle(self: Rc<Self>, fop: Fop) -> imca_glusterfs::FopFuture {
            Box::pin(async move {
                match fop {
                    Fop::Write { offset, data, .. } => {
                        let len = data.len() as u64;
                        self.size.set(self.size.get().max(offset + len));
                        FopReply::Write(Ok(len))
                    }
                    Fop::Read { offset, len, .. } => {
                        let end = len.min(self.size.get().saturating_sub(offset));
                        FopReply::Read(Ok(vec![7u8; end as usize]))
                    }
                    Fop::Stat { .. } => {
                        if self.stat_fails.get() {
                            FopReply::Stat(Err(FsError::Io))
                        } else {
                            FopReply::Stat(Ok(FileStat {
                                size: self.size.get(),
                                mtime_ns: 1,
                                ctime_ns: 1,
                            }))
                        }
                    }
                    Fop::Create { .. } => FopReply::Create(Ok(FileStat::default())),
                    Fop::Open { .. } => FopReply::Open(Ok(FileStat {
                        size: self.size.get(),
                        mtime_ns: 1,
                        ctime_ns: 1,
                    })),
                    Fop::Close { .. } => FopReply::Close(Ok(())),
                    Fop::Unlink { .. } => FopReply::Unlink(Ok(())),
                    batch @ Fop::StatMulti { .. } => batch.err_reply(FsError::Io),
                }
            })
        }
    }

    #[test]
    fn failed_post_write_stat_purges_meta_instead_of_skipping() {
        // Regression (dropped-push meta coherence): when the post-write
        // stat refresh fails, the bank still holds the *pre-write* stat
        // entry. Silently skipping the refresh would serve a stale
        // size/mtime indefinitely; both coherence modes must purge.
        for coherence in [Coherence::Cas, Coherence::Purge] {
            let mut sim = Sim::new(0);
            let child = Rc::new(FlakyStatChild {
                size: std::cell::Cell::new(0),
                stat_fails: std::cell::Cell::new(false),
            });
            let cfg = ImcaConfig {
                coherence,
                ..two_mcds()
            };
            let (Rig { sm, bank, .. }, _) = rig_over(&sim, Rc::clone(&child) as Xlator, &cfg);
            let sm2 = Rc::clone(&sm);
            let child2 = Rc::clone(&child);
            let bank2 = Rc::clone(&bank);
            sim.run_main(async move {
                drive(
                    &sm2,
                    Fop::Write {
                        path: "/f".into(),
                        offset: 0,
                        data: vec![1u8; 2048],
                    },
                )
                .await;
                assert!(
                    bank2.get(&stat_key("/f")).await.is_some(),
                    "benign write must push the stat"
                );
                // The next write commits, but its stat refresh dies.
                child2.stat_fails.set(true);
                drive(
                    &sm2,
                    Fop::Write {
                        path: "/f".into(),
                        offset: 0,
                        data: vec![2u8; 100],
                    },
                )
                .await;
                assert!(
                    bank2.get(&stat_key("/f")).await.is_none(),
                    "stale pre-write stat survived a dropped refresh ({coherence:?})"
                );
                assert!(
                    bank2.get(&block_key("/f", 0)).await.is_none(),
                    "blocks must fall with the meta entries ({coherence:?})"
                );
            });
            assert_eq!(counters(&*sm, ["dropped_pushes"]), [1], "{coherence:?}");
            assert_eq!(sm.tracked_blocks("/f"), 0, "{coherence:?}");
        }
    }

    #[test]
    fn create_passes_through_untouched() {
        let mut sim = Sim::new(0);
        let rig = setup(&sim, false, true);
        let sm = Rc::clone(&rig.sm);
        sim.run_main(async move {
            assert!(matches!(
                drive(
                    &sm,
                    Fop::Create {
                        path: "/new".into()
                    }
                )
                .await,
                FopReply::Create(Ok(_))
            ));
        });
        assert_eq!(
            counters(&*rig.sm, ["blocks_pushed", "stat_pushes", "purges"]),
            [0, 0, 0]
        );
    }
}

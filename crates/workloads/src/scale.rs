//! The Fig 8 curve pushed to bank scale: a lean closed-loop queueing
//! model of N clients hammering an M-daemon MCD bank in front of one
//! GlusterFS server, light enough to simulate 100 000 clients in CI time.
//!
//! The full [`imca_core::Cluster`] carries a complete filesystem per
//! mount; at 10⁵ clients that is out of reach. This model keeps exactly
//! the pieces that shape the §5.4 scaling curve — per-daemon FIFO
//! service with queueing, the hot/cold traffic split, miss fills through
//! a single shared server, and the SMCache push fan-out to R−1 replicas
//! on every fill — and drops the rest. Requests still travel through the
//! real memcached ASCII codec, so the codec's allocation behaviour is
//! part of what the scaling bench measures.
//!
//! The model uses the real stack's RPC idioms: direct awaits on the reply
//! oneshot, pooled request encoding through `encode_command_into`, and
//! struct-passing RPC exactly like `McdReq`/`McdResp` — the payload
//! crosses as a refcounted `Bytes` clone and the reply's frame length is
//! computed arithmetically (the `WireSize` idiom — framing without paying
//! for an encode). Every random draw comes from a per-client RNG seeded by
//! `(seed, client)` only, so a fixed seed replays bit-identically.

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use imca_memcached::protocol::{encode_command_into, Command, Response, Value};
use imca_metrics::{Histogram, HistogramSnapshot};
use imca_sim::buf;
use imca_sim::sync::{oneshot, OneshotSender, Queue};
use imca_sim::{Sim, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One scaling point: N closed-loop clients against an M-daemon bank.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Closed-loop clients.
    pub clients: usize,
    /// Daemons in the bank.
    pub mcds: usize,
    /// Replication factor: fills push to `replication - 1` replicas.
    pub replication: usize,
    /// Probability an op targets the (pre-warmed) hot set.
    pub hot_fraction: f64,
    /// Hot blocks, resident in the bank from t=0.
    pub hot_blocks: u64,
    /// Cold blocks beyond the hot set; mostly bank misses.
    pub cold_blocks: u64,
    /// FIFO capacity (blocks) per daemon.
    pub capacity_per_daemon: u64,
    /// Ops issued by each client.
    pub ops_per_client: u64,
    /// Block size (bytes) — sets wire serialisation times.
    pub block_size: u64,
    /// Mean think time between a client's ops.
    pub think_mean: SimDuration,
    /// Workload seed; every draw is `(seed, client)`-local.
    pub seed: u64,
}

impl ScaleConfig {
    /// The default point geometry at `clients` × `mcds`: 95 % hot
    /// traffic over a resident hot set, 1 ms think time, 8 KiB blocks.
    pub fn new(clients: usize, mcds: usize) -> ScaleConfig {
        ScaleConfig {
            clients,
            mcds,
            replication: 1,
            hot_fraction: 0.95,
            hot_blocks: 4096,
            cold_blocks: 1 << 20,
            capacity_per_daemon: 8192,
            ops_per_client: 10,
            block_size: 8192,
            think_mean: SimDuration::millis(1),
            seed: 42,
        }
    }
}

/// Everything a scaling point reports: the simulated service curve
/// (latency, queue depths, NIC busy time) plus the engine-side run
/// summary (events, spawned tasks) the ops/sec measurement is built on.
#[derive(Debug)]
pub struct ScaleOut {
    /// Completed client ops.
    pub ops: u64,
    /// Ops served from the bank without a server fill.
    pub hits: u64,
    /// Miss fills fetched through the server.
    pub fills: u64,
    /// Replica push messages sent by fills (R−1 per fill).
    pub pushes: u64,
    /// Client-observed op latency (ns).
    pub latency: HistogramSnapshot,
    /// Peak request-queue depth per daemon.
    pub queue_peaks: Vec<u64>,
    /// Total time the server NIC/disk station was busy.
    pub server_busy: SimDuration,
    /// Simulated end time.
    pub end_time: SimTime,
    /// Engine events processed.
    pub events: u64,
    /// Tasks spawned over the run.
    pub tasks_spawned: u64,
}

impl ScaleOut {
    /// Deepest request queue any daemon saw — the paper's "hottest
    /// daemon" congestion signal.
    pub fn hottest_queue_peak(&self) -> u64 {
        self.queue_peaks.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of simulated time the server station was busy.
    pub fn server_utilisation(&self) -> f64 {
        self.server_busy.as_nanos() as f64 / self.end_time.as_nanos().max(1) as f64
    }

    /// Push messages per fill (≈ R−1 when replication is healthy).
    pub fn push_amplification(&self) -> f64 {
        self.pushes as f64 / self.fills.max(1) as f64
    }

    /// Simulated throughput: ops per simulated second.
    pub fn sim_ops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.end_time.as_nanos().max(1) as f64 / 1e9)
    }
}

/// splitmix64 finaliser: places blocks on daemons and decorrelates the
/// per-client RNG streams seeded from `(seed, client)`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exponential sample from a uniform draw (inverse CDF), so the think
/// process depends only on the client's own RNG stream.
fn exp_sample(rng: &mut SmallRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen();
    SimDuration::nanos((-(1.0 - u).ln() * mean.as_nanos() as f64) as u64)
}

enum DaemonMsg {
    Get {
        /// Wire arrival time (send time + one-way + serialisation); the
        /// daemon starts service no earlier than this.
        arrive: SimTime,
        req: Command,
        resp: OneshotSender<Response>,
    },
    /// SMCache fill push from the primary: install the block.
    Push { arrive: SimTime, block: u64 },
}

struct DaemonState {
    present: HashSet<u64>,
    fifo: VecDeque<u64>,
    capacity: u64,
    queue_peak: u64,
    hits: u64,
    fills: u64,
    pushes_sent: u64,
}

impl DaemonState {
    fn insert(&mut self, block: u64) {
        if self.present.insert(block) {
            self.fifo.push_back(block);
            while self.fifo.len() as u64 > self.capacity {
                if let Some(old) = self.fifo.pop_front() {
                    self.present.remove(&old);
                }
            }
        }
    }
}

struct ServerState {
    busy: SimDuration,
}

/// Service-time constants: IB-era numbers in the same regime the fabric
/// crate's `Transport` uses, collapsed to the handful of stations this
/// model keeps.
const ONE_WAY: SimDuration = SimDuration::nanos(1_300);
const DAEMON_LOOKUP: SimDuration = SimDuration::nanos(600);
const DAEMON_INSERT: SimDuration = SimDuration::nanos(300);
const SERVER_FETCH: SimDuration = SimDuration::nanos(4_000);
/// Bank NIC serialisation rate, bytes/ns (≈ 2.5 GB/s).
const BANK_BW: f64 = 2.5;
/// Server NIC serialisation rate, bytes/ns (≈ 1.25 GB/s).
const SERVER_BW: f64 = 1.25;

fn serialize(bytes: u64, bw: f64) -> SimDuration {
    SimDuration::nanos((bytes as f64 / bw) as u64)
}

fn decimal_digits(mut n: u64) -> u64 {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Wire length of a single-value GET reply, computed without encoding —
/// the `WireSize` idiom. Must match `encode_response` byte for byte
/// (asserted in tests):
/// `VALUE <key> 0 <len>\r\n<data>\r\nEND\r\n`.
fn value_reply_wire_len(key_len: u64, data_len: u64) -> u64 {
    6 + key_len + 1 + 1 + 1 + decimal_digits(data_len) + 2 + data_len + 2 + 5
}

fn format_key(block: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(24);
    k.extend_from_slice(b"blk:");
    let mut tmp = [0u8; 20];
    let mut n = block;
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    k.extend_from_slice(&tmp[i..]);
    k
}

/// Recover the block id from a `blk:<n>` key.
fn parse_key(key: &[u8]) -> u64 {
    key[4..]
        .iter()
        .fold(0u64, |acc, &b| acc * 10 + u64::from(b - b'0'))
}

/// Run one scaling point to completion and harvest the curve.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleOut {
    assert!(cfg.replication >= 1 && cfg.replication <= cfg.mcds);
    let mut sim = Sim::new(cfg.seed);
    let h = sim.handle();

    // Node ids: daemons 0..M, server M, clients M+1... — the engine's
    // same-tick total order is (time, node, seq).
    let server_node = cfg.mcds as u32;

    let queues: Rc<[Queue<DaemonMsg>]> = (0..cfg.mcds).map(|_| Queue::new()).collect();
    let server_q: Queue<(u64, OneshotSender<()>)> = Queue::new();
    let daemons: Vec<Rc<RefCell<DaemonState>>> = (0..cfg.mcds)
        .map(|_| {
            Rc::new(RefCell::new(DaemonState {
                present: HashSet::new(),
                fifo: VecDeque::new(),
                capacity: cfg.capacity_per_daemon,
                queue_peak: 0,
                hits: 0,
                fills: 0,
                pushes_sent: 0,
            }))
        })
        .collect();
    let server = Rc::new(RefCell::new(ServerState {
        busy: SimDuration::ZERO,
    }));

    // Pre-warm the hot set: every hot block resident on its R replicas,
    // so the measured phase starts from the steady state the paper's
    // warm bank reaches.
    for b in 0..cfg.hot_blocks {
        for r in 0..cfg.replication {
            let d = ((mix(b) as usize) + r) % cfg.mcds;
            daemons[d].borrow_mut().insert(b);
        }
    }

    // Daemon actors.
    for d in 0..cfg.mcds {
        let q = queues[d].clone();
        let all_q = Rc::clone(&queues);
        let state = Rc::clone(&daemons[d]);
        let server_q = server_q.clone();
        let h2 = h.clone();
        // The block payload this daemon serves; replies clone the
        // refcount.
        let payload = Bytes::from(vec![0u8; cfg.block_size as usize]);
        let (repl, mcds) = (cfg.replication, cfg.mcds);
        h.spawn_on(d as u32, async move {
            loop {
                let Some(msg) = q.recv().await else { break };
                {
                    let mut st = state.borrow_mut();
                    st.queue_peak = st.queue_peak.max(q.len() as u64 + 1);
                }
                match msg {
                    DaemonMsg::Get { arrive, req, resp } => {
                        // Wire delay already charged by the arrival
                        // stamp; a backed-up daemon sees this as a no-op.
                        h2.sleep_until(arrive).await;
                        // The daemon owns the request key, which it
                        // echoes in the reply (no re-encode).
                        let Command::Get { mut keys, .. } = req else {
                            unreachable!("scale clients only send GET")
                        };
                        let key = keys.pop().unwrap();
                        let block = parse_key(&key);
                        let hit = state.borrow().present.contains(&block);
                        let mut service = DAEMON_LOOKUP;
                        if !hit {
                            // Miss: fill through the shared server, then
                            // install and push to the other replicas.
                            let (tx, rx) = oneshot();
                            server_q.push((block, tx));
                            let _ = rx.await;
                            service += DAEMON_INSERT;
                            {
                                let mut st = state.borrow_mut();
                                st.insert(block);
                                st.fills += 1;
                            }
                            let primary = (mix(block) as usize) % mcds;
                            for r in 0..repl {
                                let replica = (primary + r) % mcds;
                                if replica != d {
                                    // Push wire time is charged at the
                                    // receiving replica's station.
                                    all_q[replica].push(DaemonMsg::Push {
                                        arrive: h2.now() + ONE_WAY,
                                        block,
                                    });
                                    state.borrow_mut().pushes_sent += 1;
                                }
                            }
                        }
                        // Struct RPC: framing cost is computed, not
                        // paid (the WireSize idiom).
                        let wire_len = value_reply_wire_len(key.len() as u64, payload.len() as u64);
                        let reply = Response::Values(vec![Value {
                            key,
                            flags: 0,
                            cas: None,
                            data: payload.clone(), // refcount, no copy
                        }]);
                        if hit {
                            state.borrow_mut().hits += 1;
                        }
                        // One service sleep: lookup (+ insert on miss)
                        // plus the reply's wire time on the bank NIC.
                        h2.sleep(service + serialize(wire_len, BANK_BW)).await;
                        resp.send(reply);
                    }
                    DaemonMsg::Push { arrive, block } => {
                        h2.sleep_until(arrive).await;
                        let wire = value_reply_wire_len(
                            format_key(block).len() as u64,
                            payload.len() as u64,
                        );
                        h2.sleep(DAEMON_INSERT + serialize(wire, BANK_BW)).await;
                        state.borrow_mut().insert(block);
                    }
                }
            }
        });
    }

    // The shared GlusterFS server: one station, FIFO, disk+NIC per fill.
    {
        let q = server_q.clone();
        let state = Rc::clone(&server);
        let h2 = h.clone();
        let block_size = cfg.block_size;
        h.spawn_on(server_node, async move {
            loop {
                let Some((_block, tx)) = q.recv().await else {
                    break;
                };
                let service = SERVER_FETCH + serialize(block_size, SERVER_BW);
                h2.sleep(service).await;
                state.borrow_mut().busy += service;
                tx.send(());
            }
        });
    }

    // Closed-loop clients. The futures are kept lean (scalars + Rc's,
    // no config clone) — at 10⁵ clients every cache line in the future
    // is a per-poll miss.
    let latency = Histogram::new();
    let ops_done = Rc::new(RefCell::new(0u64));
    let (ops_per_client, think_mean) = (cfg.ops_per_client, cfg.think_mean);
    let (hot_fraction, hot_blocks, cold_blocks) =
        (cfg.hot_fraction, cfg.hot_blocks, cfg.cold_blocks);
    let (replication, mcds, seed) = (cfg.replication, cfg.mcds, cfg.seed);
    for c in 0..cfg.clients {
        let h2 = h.clone();
        let queues = Rc::clone(&queues);
        let latency = latency.clone();
        let ops_done = Rc::clone(&ops_done);
        h.spawn_on(server_node + 1 + c as u32, async move {
            let mut rng = SmallRng::seed_from_u64(mix(seed ^ (c as u64 + 1)));
            for _ in 0..ops_per_client {
                h2.sleep(exp_sample(&mut rng, think_mean)).await;
                let block = if rng.gen_bool(hot_fraction) {
                    rng.gen_range(0..hot_blocks)
                } else {
                    hot_blocks + rng.gen_range(0..cold_blocks)
                };
                let replica = rng.gen_range(0..replication);
                let daemon = ((mix(block) as usize) + replica) % mcds;
                let t0 = h2.now();
                let cmd = Command::Get {
                    keys: vec![format_key(block)],
                    with_cas: false,
                };
                // Pooled scratch through the codec for the wire length;
                // the struct crosses.
                let req_len = {
                    let mut b = buf::take_with_capacity(64);
                    encode_command_into(&cmd, &mut b);
                    b.len() as u64
                };
                // The request's wire time rides on the arrival stamp
                // instead of a client-side sleep — one timer event less
                // per op.
                let arrive = h2.now() + ONE_WAY + serialize(req_len, BANK_BW);
                let (tx, rx) = oneshot();
                queues[daemon].push(DaemonMsg::Get {
                    arrive,
                    req: cmd,
                    resp: tx,
                });
                let reply = rx.await.expect("daemon dropped a reply");
                let Response::Values(vals) = reply else {
                    unreachable!("daemon replies with values")
                };
                debug_assert_eq!(vals.len(), 1);
                // The return hop is pure latency arithmetic for a
                // closed-loop client; fold it instead of sleeping.
                latency.record_duration(h2.now().since(t0) + ONE_WAY);
                *ops_done.borrow_mut() += 1;
            }
        });
    }

    let summary = sim.run();
    // Actors block on their queues forever; close them so nothing leaks
    // state into the harvest below.
    for q in queues.iter() {
        q.close();
    }
    server_q.close();

    let ops = *ops_done.borrow();
    let server_busy = server.borrow().busy;
    ScaleOut {
        ops,
        hits: daemons.iter().map(|d| d.borrow().hits).sum(),
        fills: daemons.iter().map(|d| d.borrow().fills).sum(),
        pushes: daemons.iter().map(|d| d.borrow().pushes_sent).sum(),
        latency: latency.snapshot(),
        queue_peaks: daemons.iter().map(|d| d.borrow().queue_peak).collect(),
        server_busy,
        end_time: summary.end_time,
        events: summary.events,
        tasks_spawned: summary.tasks_spawned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_memcached::protocol::encode_response;

    fn small() -> ScaleConfig {
        ScaleConfig {
            clients: 64,
            mcds: 4,
            ops_per_client: 6,
            hot_blocks: 256,
            capacity_per_daemon: 512,
            ..ScaleConfig::new(64, 4)
        }
    }

    #[test]
    fn completes_every_op_and_mostly_hits() {
        let out = run_scale(&small());
        assert_eq!(out.ops, 64 * 6);
        assert_eq!(out.latency.count, out.ops);
        assert!(out.hits > out.fills, "hot traffic should dominate");
        assert!(out.server_busy > SimDuration::ZERO);
    }

    #[test]
    fn computed_wire_length_matches_the_encoder() {
        // The arithmetic framing must agree with what the codec actually
        // encodes, or the model would simulate the wrong wire times.
        for (block, data_len) in [(0u64, 1usize), (5, 9), (123, 8192), (u64::MAX, 65536)] {
            let key = format_key(block);
            let resp = Response::Values(vec![Value {
                key: key.clone(),
                flags: 0,
                cas: None,
                data: Bytes::from(vec![0u8; data_len]),
            }]);
            assert_eq!(
                encode_response(&resp).len() as u64,
                value_reply_wire_len(key.len() as u64, data_len as u64),
                "mismatch at block {block}, {data_len} bytes"
            );
            assert_eq!(parse_key(&key), block);
        }
    }

    #[test]
    fn replication_pushes_amplify_fills() {
        let mut cfg = small();
        cfg.replication = 2;
        let out = run_scale(&cfg);
        assert!(out.fills > 0);
        assert!(
            out.push_amplification() > 0.5,
            "R=2 fills should push about one replica copy each, got {}",
            out.push_amplification()
        );
    }

    #[test]
    fn fixed_seed_replays_bit_identically() {
        let a = run_scale(&small());
        let b = run_scale(&small());
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.events, b.events);
        assert_eq!(a.queue_peaks, b.queue_peaks);
        assert_eq!(a.latency, b.latency);
    }
}

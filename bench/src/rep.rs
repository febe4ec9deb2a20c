//! One repetition: build the deployment, run the plan's set-up stages,
//! then the timed closed loops, checking every answer.
//!
//! Stages are separated by running the simulation to quiescence, so a
//! stage starts only when the previous one has fully settled and the
//! phase boundaries need no barrier inside the model. The harness is one
//! thread; each client task issues its next op when the previous returns.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::future::Future;
use std::rc::Rc;

use imca_core::Cluster;
use imca_sim::{RunSummary, Sim, SimDuration, SimHandle};
use imca_workloads::{Deployment, FsClient, FsHandle};

use crate::hostclock::HostClock;
use crate::layers::{self, Delta, Metric};
use crate::plan::{generate, Op, Plan, Scale};
use crate::probes;
use crate::quantile::{p50, p99};
use crate::report::e2e_spec;
use crate::trace::{Kind, OpSpan, Trace};

/// What one rep measured.
pub struct Rep {
    /// Timed ops the plan holds.
    pub attempted: u64,
    /// Ops that returned wrong bytes or a wrong size, found a ghost, or
    /// never completed. (An op that errors panics inside `FsClient` and
    /// takes the rep down with it.)
    pub failed: u64,
    /// `(events, virtual end time in ns)` of the whole rep: equal for
    /// equal seeds, whatever the host did.
    pub fingerprint: (u64, u64),
    /// Samples behind the latency quantiles, per op kind.
    pub samples: Vec<(String, u64)>,
    /// Host seconds of each slice of the set-up and of the timed phase,
    /// cut at fixed points of the work (see [`Marks`]). Reps of one seed
    /// do the same work in the same slice, so a slice that took longer in
    /// one rep than in the others was disturbed, and the reps can be
    /// compared slice by slice instead of as wholes.
    pub setup_slices_s: Vec<f64>,
    pub timed_slices_s: Vec<f64>,
    /// End-to-end metrics, virtual and host.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics; empty unless traced.
    pub layers: Vec<Metric>,
    pub trace: Option<Trace>,
}

/// Slices a phase is cut into for [`Rep::setup_slices_s`] and
/// [`Rep::timed_slices_s`].
const SLICES: u64 = 32;

/// Host-clock readings at fixed points of a phase's work: after every
/// `every`-th unit (a set-up call, a timed op), so that the same slice
/// holds the same work in every rep of a seed.
struct Marks {
    clock: HostClock,
    every: u64,
    done: Cell<u64>,
    at: RefCell<Vec<f64>>,
}

impl Marks {
    /// Marks that cut `units` units of work into about [`SLICES`] slices.
    fn new(clock: HostClock, units: u64) -> Marks {
        Marks {
            clock,
            every: units.div_ceil(SLICES).max(1),
            done: Cell::new(0),
            at: RefCell::default(),
        }
    }

    /// One more unit is done.
    fn tick(&self) {
        self.done.set(self.done.get() + 1);
        if self.done.get().is_multiple_of(self.every) {
            self.at.borrow_mut().push(self.clock.seconds());
        }
    }

    /// Close the last slice now; the host seconds of every slice, the
    /// first one starting at `from`.
    fn finish(&self, from: f64) -> Vec<f64> {
        let mut at = self.at.borrow_mut();
        at.push(self.clock.seconds());
        let starts = std::iter::once(&from).chain(at.iter());
        starts.zip(at.iter()).map(|(a, b)| b - a).collect()
    }
}

struct Client {
    id: usize,
    fs: FsClient,
    /// Files held open since set-up, by file id.
    held: RefCell<HashMap<u32, FsHandle>>,
    /// Ticked after every set-up call.
    setup: Rc<Marks>,
}

impl Client {
    fn handle(&self, file: u32) -> FsHandle {
        self.held
            .borrow()
            .get(&file)
            .cloned()
            .expect("the plan reads and writes only files it holds open")
    }
}

struct Recorder {
    /// Ticked after every timed op.
    marks: Marks,
    /// Latency samples in ns, indexed like [`Kind::ALL`].
    latency_ns: [Vec<u64>; 4],
    failed: u64,
    /// Correct ops, counting each path of a `stat_multi` window.
    good_units: u64,
    good_read_bytes: u64,
    /// Root spans, when traced.
    spans: Option<Vec<OpSpan>>,
}

struct Outcome {
    kind: Kind,
    bytes: u32,
    /// Paths or ops answered correctly.
    good_units: u32,
    ok: bool,
}

/// Spawn `work` for every client and run until all of it has settled.
fn stage<F, Fut>(sim: &mut Sim, clients: &[Rc<Client>], plan: &Rc<Plan>, work: F) -> RunSummary
where
    F: Fn(Rc<Client>, Rc<Plan>) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    for c in clients {
        sim.spawn(work(Rc::clone(c), Rc::clone(plan)));
    }
    sim.run()
}

async fn create_owned(c: Rc<Client>, plan: Rc<Plan>) {
    for (file, path) in plan.paths.iter().enumerate() {
        if plan.owners[file] as usize == c.id {
            c.fs.create(path).await;
            c.setup.tick();
        }
    }
}

async fn open_held(c: Rc<Client>, plan: Rc<Plan>) {
    for &file in &plan.clients[c.id].open {
        let h = c.fs.open(&plan.paths[file as usize]).await;
        c.held.borrow_mut().insert(file, h);
        c.setup.tick();
    }
}

async fn prefill_owned(c: Rc<Client>, plan: Rc<Plan>) {
    for (file, &size) in plan.sizes.iter().enumerate() {
        if plan.owners[file] as usize != c.id || size == 0 {
            continue;
        }
        let file = file as u32;
        let held = c.held.borrow().get(&file).cloned();
        let h = match &held {
            Some(h) => h.clone(),
            None => c.fs.open(&plan.paths[file as usize]).await,
        };
        let mut off = 0;
        while off < size {
            let len = plan.prefill_record.min(size - off);
            let data = plan.pattern.bytes(file, off, len as usize);
            c.fs.write(&h, off, &data).await;
            c.setup.tick();
            off += len;
        }
        if held.is_none() {
            c.fs.close(h).await;
        }
    }
}

async fn reopen_held(c: Rc<Client>, plan: Rc<Plan>) {
    for &file in &plan.clients[c.id].open {
        let old = c.held.borrow_mut().remove(&file).expect("opened earlier");
        c.fs.close(old).await;
        let h = c.fs.open(&plan.paths[file as usize]).await;
        c.held.borrow_mut().insert(file, h);
        c.setup.tick();
    }
}

/// Issue one op and check its answer against the plan.
async fn issue(c: &Client, plan: &Plan, op: &Op) -> Outcome {
    let one = |kind, bytes, ok: bool| Outcome {
        kind,
        bytes,
        good_units: ok as u32,
        ok,
    };
    match *op {
        Op::Read { file, off, len } => {
            let got = c.fs.read(&c.handle(file), off, len as u64).await;
            let ok = got.len() == len as usize && plan.pattern.matches(file, off, &got);
            one(Kind::Read, len, ok)
        }
        Op::Write { file, off, len } => {
            let data = plan.pattern.bytes(file, off, len as usize);
            c.fs.write(&c.handle(file), off, &data).await;
            one(Kind::Write, len, true)
        }
        Op::Stat { file } => {
            let size = c.fs.stat(&plan.paths[file as usize]).await;
            one(Kind::Stat, 0, size == plan.sizes[file as usize])
        }
        Op::Ghost { ghost } => {
            let answer = c.fs.try_stat(&plan.ghosts[ghost as usize]).await;
            one(Kind::Stat, 0, answer.is_none())
        }
        Op::StatMulti { first, count } => {
            let range = first as usize..(first + count) as usize;
            let got = c.fs.stat_multi(&plan.paths[range.clone()]).await;
            let good = got
                .iter()
                .zip(&plan.sizes[range])
                .filter(|(got, want)| **got == Some(**want))
                .count() as u32;
            Outcome {
                kind: Kind::StatMulti,
                bytes: 0,
                good_units: good,
                ok: got.len() == count as usize && good == count,
            }
        }
    }
}

async fn closed_loop(c: Rc<Client>, plan: Rc<Plan>, h: SimHandle, rec: Rc<RefCell<Recorder>>) {
    let mine = &plan.clients[c.id];
    h.sleep(SimDuration::nanos(mine.start_delay_ns)).await;
    for op in &mine.ops {
        let start = h.now();
        let out = issue(&c, &plan, op).await;
        let end = h.now();
        let mut rec = rec.borrow_mut();
        rec.marks.tick();
        rec.latency_ns[out.kind as usize].push(end.since(start).as_nanos());
        rec.failed += !out.ok as u64;
        rec.good_units += out.good_units as u64;
        if out.kind == Kind::Read && out.ok {
            rec.good_read_bytes += out.bytes as u64;
        }
        if let Some(spans) = &mut rec.spans {
            spans.push(OpSpan {
                client: c.id as u32,
                kind: out.kind,
                bytes: out.bytes,
                virt_start_ns: start.as_nanos(),
                virt_end_ns: end.as_nanos(),
                ok: out.ok,
            });
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn us(ns: Option<u64>) -> Option<f64> {
    ns.map(|v| v as f64 / 1e3)
}

/// The engine's own layer over the timed phase, which ran from `settled`
/// to `done`.
fn sim_layers(settled: &RunSummary, done: &RunSummary, ops: u64, host_s: f64) -> Vec<Metric> {
    let events = done.events - settled.events;
    let spawned = done.tasks_spawned - settled.tasks_spawned;
    vec![
        Metric::new(
            "sim.events_per_op",
            "1/op",
            Some(events as f64 / ops as f64),
        ),
        Metric::new(
            "sim.tasks_spawned_per_op",
            "1/op",
            Some(spawned as f64 / ops as f64),
        ),
        Metric::new(
            "sim.virt_end_ns",
            "ns",
            Some(done.end_time.as_nanos() as f64),
        ),
        Metric::new(
            "sim.host_ns_per_event",
            "ns",
            (events > 0).then(|| host_s * 1e9 / events as f64),
        ),
    ]
}

/// Whether a rep records spans and fills in the per-layer table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traced {
    No,
    Yes,
    /// Traced, and the host-time layer probes run after the timed phase.
    /// They do not depend on the workload, so one rep of a run is enough.
    WithProbes,
}

/// The plan's clients, each mounted the first time it has work to do:
/// a client that only joins for the timed phase is not yet a party to
/// the set-up (under leases, every mounted client is sent every
/// revocation, so who is mounted while files are created matters).
struct Mounts<'d> {
    dep: &'d Deployment,
    clients: Vec<Option<Rc<Client>>>,
    setup: Rc<Marks>,
}

impl Mounts<'_> {
    fn of(&mut self, ids: impl IntoIterator<Item = usize>) -> Vec<Rc<Client>> {
        let mut ids: Vec<usize> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|id| {
                Rc::clone(self.clients[id].get_or_insert_with(|| {
                    Rc::new(Client {
                        id,
                        fs: self.dep.mount(),
                        held: RefCell::default(),
                        setup: Rc::clone(&self.setup),
                    })
                }))
            })
            .collect()
    }
}

/// Run one rep of `workload`. `clock` was started with the process:
/// set-up time runs from there. With `traced`, op spans are recorded and
/// the per-layer table is filled in. `None` for an unknown workload.
pub fn run(
    workload: &str,
    seed: u64,
    scale: Scale,
    clock: HostClock,
    traced: Traced,
) -> Option<Rep> {
    let mut trace = Trace::new(clock.origin);
    let generating = trace.begin("generate", "harness", None);
    let plan = generate(workload, seed, scale)?;
    trace.end(generating);
    Some(run_plan(plan, seed, clock, trace, traced))
}

/// Run one rep of an already generated plan.
pub fn run_plan(plan: Plan, seed: u64, clock: HostClock, mut trace: Trace, mode: Traced) -> Rep {
    let traced = mode != Traced::No;
    let building = trace.begin("build", "harness", None);
    let plan = Rc::new(plan);
    let mut sim = Sim::new(seed);
    let dep = Deployment::Gluster(Rc::new(Cluster::build(sim.handle(), plan.deploy.clone())));
    let setup = Rc::new(Marks::new(clock, plan.setup_calls()));
    let mut mounts = Mounts {
        dep: &dep,
        clients: vec![None; plan.clients.len()],
        setup: Rc::clone(&setup),
    };
    trace.end(building);

    let prefilling = trace.begin("prefill", "harness", None);
    let owners = mounts.of(plan.owners.iter().map(|&o| o as usize));
    let holders = mounts.of((0..plan.clients.len()).filter(|&c| !plan.clients[c].open.is_empty()));
    stage(&mut sim, &owners, &plan, create_owned);
    stage(&mut sim, &holders, &plan, open_held);
    let mut settled = stage(&mut sim, &owners, &plan, prefill_owned);
    if plan.reopen_after_prefill {
        settled = stage(&mut sim, &holders, &plan, reopen_held);
    }
    let clients = mounts.of(0..plan.clients.len());
    trace.end(prefilling);

    // Counts are taken where the spans are: at the phase boundary.
    let before = traced.then(|| dep.metrics());
    let attempted = plan.timed_ops();
    let rec = Rc::new(RefCell::new(Recorder {
        marks: Marks::new(clock, attempted),
        latency_ns: Default::default(),
        failed: 0,
        good_units: 0,
        good_read_bytes: 0,
        spans: traced.then(Vec::new),
    }));
    let setup_slices_s = setup.finish(0.0);
    let setup_s: f64 = setup_slices_s.iter().sum();

    let timing = trace.begin("timed", "harness", None);
    trace.timed_span = Some(timing);
    let handle = sim.handle();
    let done = stage(&mut sim, &clients, &plan, |c, plan| {
        closed_loop(c, plan, handle.clone(), Rc::clone(&rec))
    });
    // A task that never finished still holds the recorder: borrow it.
    let mut rec = rec.borrow_mut();
    let timed_slices_s = rec.marks.finish(setup_s);
    let timed_host_s: f64 = timed_slices_s.iter().sum();
    trace.end(timing);
    let failed = rec.failed + (attempted - rec.marks.done.get());
    let virt_s = done.end_time.since(settled.end_time).as_secs_f64();
    let mut all: Vec<u64> = rec.latency_ns.concat();
    all.sort_unstable();
    for v in &mut rec.latency_ns {
        v.sort_unstable();
    }
    let of = |k: Kind| &rec.latency_ns[k as usize];

    let metric = Metric::new;
    let e2e_metric = |name: &str, value: Option<f64>| {
        let spec = e2e_spec(name).expect("every end-to-end metric is in the table");
        Metric::new(name, spec.unit, value)
    };
    let per_virt_s = |n: f64| (virt_s > 0.0).then(|| n / virt_s);
    let mut e2e = vec![
        e2e_metric("setup_s", Some(setup_s)),
        e2e_metric("host_ops_per_s", Some(attempted as f64 / timed_host_s)),
        e2e_metric("host_peak_rss_mb", peak_rss_mb()),
        e2e_metric("op_p50_us", us(p50(&all))),
        e2e_metric("op_p99_us", us(p99(&all))),
    ];
    for k in [Kind::Read, Kind::Stat, Kind::Write] {
        e2e.push(e2e_metric(&format!("{}_p50_us", k.name()), us(p50(of(k)))));
        e2e.push(e2e_metric(&format!("{}_p99_us", k.name()), us(p99(of(k)))));
    }
    e2e.push(e2e_metric(
        "virt_goodput_ops_s",
        per_virt_s(rec.good_units as f64),
    ));
    e2e.push(e2e_metric(
        "virt_read_mb_s",
        per_virt_s(rec.good_read_bytes as f64 / 1e6).filter(|_| !of(Kind::Read).is_empty()),
    ));
    e2e.push(e2e_metric(
        "failed_op_share",
        Some(failed as f64 / attempted as f64),
    ));

    let mut samples: Vec<(String, u64)> = Kind::ALL
        .iter()
        .map(|&k| (k.name().to_string(), of(k).len() as u64))
        .collect();
    samples.push(("op".to_string(), all.len() as u64));

    let mut layer_table = Vec::new();
    if let Some(before) = &before {
        let snapshotting = trace.begin("snapshot", "metrics", None);
        let took = clock.seconds();
        let after = dep.metrics();
        let snapshot_ms = (clock.seconds() - took) * 1e3;
        trace.end(snapshotting);
        trace.ops = rec.spans.take().unwrap_or_default();

        layer_table = sim_layers(&settled, &done, attempted, timed_host_s);
        layer_table.push(metric("metrics.snapshot_ms", "ms", Some(snapshot_ms)));
        layer_table.push(metric("metrics.series", "count", Some(after.len() as f64)));
        layer_table.extend(layers::from_snapshots(
            &Delta {
                before,
                after: &after,
            },
            attempted,
        ));
        // The harness's own layer: what each op kind saw at the client
        // call, which the all-kinds `op_p*` end-to-end metrics blend.
        // They are the ones only some workloads have, so the contract
        // cannot bound them.
        for m in &e2e {
            if e2e_spec(&m.name).is_some_and(|s| s.bound.is_none()) {
                layer_table.push(metric(&format!("client.{}", m.name), &m.unit, m.value));
            }
        }
        // The rep's own spans: counted before the probes add theirs, so
        // that every traced rep of a seed reports the same number.
        layer_table.push(metric(
            "trace.spans",
            "count",
            Some(trace.span_count() as f64),
        ));
        if mode == Traced::WithProbes {
            layer_table.extend(probes::run(&clock, &mut trace));
        }
    }

    Rep {
        attempted,
        failed,
        fingerprint: (done.events, done.end_time.as_nanos()),
        samples,
        setup_slices_s,
        timed_slices_s,
        e2e,
        layers: layer_table,
        trace: traced.then_some(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WORKLOADS;

    fn tiny(workload: &str, seed: u64, traced: bool) -> Rep {
        let mode = if traced { Traced::Yes } else { Traced::No };
        run(workload, seed, Scale::Tiny, HostClock::start(), mode).unwrap()
    }

    /// The virtual-clock part of a rep: everything that must repeat.
    fn virtual_part(rep: &Rep) -> Vec<(String, Option<f64>)> {
        rep.e2e
            .iter()
            .filter(|m| e2e_spec(&m.name).is_some_and(|s| s.virtual_clock))
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    #[test]
    fn same_seed_repeats_exactly_and_every_answer_is_right() {
        for w in WORKLOADS {
            let (a, b) = (tiny(w, 3, false), tiny(w, 3, false));
            assert_eq!(a.failed, 0, "{w}");
            assert!(a.attempted > 0);
            assert_eq!(a.fingerprint, b.fingerprint, "{w}");
            assert_eq!(virtual_part(&a), virtual_part(&b), "{w}");
            assert!(!virtual_part(&a).is_empty());
        }
    }

    #[test]
    fn another_seed_is_another_run() {
        for w in WORKLOADS {
            assert_ne!(
                tiny(w, 3, false).fingerprint,
                tiny(w, 4, false).fingerprint,
                "{w}"
            );
        }
    }

    #[test]
    fn tracing_changes_nothing_the_model_can_see() {
        for w in WORKLOADS {
            let (plain, traced) = (tiny(w, 5, false), tiny(w, 5, true));
            assert_eq!(plain.fingerprint, traced.fingerprint, "{w}");
            assert_eq!(virtual_part(&plain), virtual_part(&traced), "{w}");
            assert!(plain.layers.is_empty() && plain.trace.is_none());
            let t = traced.trace.as_ref().unwrap();
            assert_eq!(t.ops.len() as u64, traced.attempted, "{w}");
            assert!(traced.layers.iter().any(|m| m.name == "sim.events_per_op"));
        }
    }

    #[test]
    fn a_wrong_answer_is_counted_as_failed() {
        // Turn every stat into a ghost probe of a path that exists: each
        // must come back "found", which is the wrong answer for a ghost.
        let mut plan = generate("mixed_rw", 3, Scale::Tiny).unwrap();
        plan.ghosts = vec![plan.paths[0].clone()];
        let mut stats = 0;
        for op in plan.clients.iter_mut().flat_map(|c| &mut c.ops) {
            if matches!(op, Op::Stat { .. }) {
                *op = Op::Ghost { ghost: 0 };
                stats += 1;
            }
        }
        assert!(stats > 0);
        let clock = HostClock::start();
        let rep = run_plan(plan, 3, clock, Trace::new(clock.origin), Traced::No);
        assert_eq!(rep.failed, stats);
        let share = rep
            .e2e
            .iter()
            .find(|m| m.name == "failed_op_share")
            .unwrap();
        assert_eq!(share.value, Some(stats as f64 / rep.attempted as f64));
    }
}

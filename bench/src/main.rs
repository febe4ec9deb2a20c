//! Two-clock benchmark for the IMCa reproduction: virtual-time client
//! latency and host-time simulator speed over five workloads, end to end
//! and layer by layer. See `bench/README.md`.
//!
//! ```text
//! imca-benchmark [--seed N] [--check]             all five workloads
//! imca-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                 one workload, one result line
//! ```
//!
//! Every rep runs in a fresh child process (a re-exec with `--rep`), one
//! at a time, so peak memory and allocator state are per rep.

mod hostclock;
mod layers;
mod plan;
mod probes;
mod quantile;
mod rep;
mod report;
mod rng;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use hostclock::HostClock;
use imca_metrics::json::Json;

use plan::{Scale, WORKLOADS};
use rep::{Rep, Traced};
use report::WorkloadResult;

/// Untraced reps of a workload when no time budget says otherwise.
const REPS: usize = 5;
/// Traced reps then. One would do for the per-layer table; the tracing
/// overhead needs a few on each side to see past the sandbox's noise.
const TRACED_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    /// Child mode: run one rep and print it.
    rep: bool,
    /// Child mode: also run the layer probes.
    probes: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 0.0,
        trace: false,
        check: false,
        rep: false,
        probes: false,
        out: PathBuf::from("bench/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--check" => args.check = true,
            "--rep" => args.rep = true,
            "--probes" => args.probes = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; have {WORKLOADS:?}"));
        }
    }
    if !(0.0..=3600.0).contains(&args.seconds) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

/// Child mode: one rep in this process, printed as one line.
fn run_rep(args: &Args, clock: HostClock) -> Result<(), String> {
    let workload = args.workload.as_deref().ok_or("--rep needs --workload")?;
    let mode = match (args.trace, args.probes) {
        (false, _) => Traced::No,
        (true, false) => Traced::Yes,
        (true, true) => Traced::WithProbes,
    };
    let rep =
        rep::run(workload, args.seed, Scale::Full, clock, mode).expect("the name was checked");
    if let Some(trace) = &rep.trace {
        std::fs::create_dir_all(&args.out)
            .and_then(|()| {
                std::fs::write(
                    args.out.join(format!("{workload}.trace.json")),
                    trace.to_json(workload, args.seed),
                )
            })
            .map_err(|e| format!("cannot write the trace under {}: {e}", args.out.display()))?;
    }
    println!("{}", report::rep_to_json(&rep));
    Ok(())
}

/// Run one rep in a fresh child process and read its line back.
fn spawn_rep(workload: &str, seed: u64, mode: Traced, out: &Path) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", "--workload", workload, "--seed", &seed.to_string()])
        .args(match mode {
            Traced::No => &["--trace", "0"][..],
            Traced::Yes => &["--trace", "1"],
            Traced::WithProbes => &["--trace", "1", "--probes"],
        })
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    // `output` waits for the child to end before returning.
    let done = cmd
        .output()
        .map_err(|e| format!("cannot start a rep: {e}"))?;
    if !done.status.success() {
        return Err(format!("{workload}: a rep ended with {}", done.status));
    }
    let stdout = String::from_utf8_lossy(&done.stdout);
    stdout
        .lines()
        .last()
        .and_then(report::rep_from_json)
        .ok_or_else(|| format!("{workload}: a rep printed no result"))
}

/// Measure one workload: untraced and traced reps in turn, so that a
/// drift of the host's speed falls on both alike, until there are
/// `min_untraced` and `min_traced` of them and `seconds` have passed.
/// With `min_traced` 0 no rep is traced.
fn measure(
    workload: &str,
    seed: u64,
    (min_untraced, min_traced): (usize, usize),
    seconds: f64,
    out: &Path,
) -> Result<WorkloadResult, String> {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let more_time = start.elapsed().as_secs_f64() < seconds;
        let want_plain = plain.len() < min_untraced || more_time;
        let want_traced = traced.len() < min_traced || (more_time && min_traced > 0);
        if want_plain {
            plain.push(spawn_rep(workload, seed, Traced::No, out)?);
        }
        if want_traced {
            // The probes do not depend on the rep: once per run is enough.
            let mode = if traced.is_empty() {
                Traced::WithProbes
            } else {
                Traced::Yes
            };
            traced.push(spawn_rep(workload, seed, mode, out)?);
        }
        if !want_plain && !want_traced {
            return report::aggregate(workload, &plain, &traced);
        }
    }
}

/// All five workloads: [`REPS`] untraced and [`TRACED_REPS`] traced reps each.
fn run_all(seed: u64, out: &Path) -> Result<Vec<WorkloadResult>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let r = measure(w, seed, (REPS, TRACED_REPS), 0.0, out)?;
            r.print();
            Ok(r)
        })
        .collect()
}

fn result_document(seed: u64, results: &[WorkloadResult]) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("seed".into(), Json::Int(seed as i128)),
        ("host_cores".into(), Json::Int(cores as i128)),
        (
            "rustc".into(),
            Json::Str(std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "workloads".into(),
            Json::Obj(
                results
                    .iter()
                    .map(|r| (r.workload.clone(), r.to_json()))
                    .collect(),
            ),
        ),
    ])
}

fn run(args: &Args, clock: HostClock) -> Result<bool, String> {
    if args.rep {
        return run_rep(args, clock).map(|()| true);
    }
    if let Some(workload) = &args.workload {
        // One workload under the benchmark contract. End-to-end numbers
        // come from untraced reps; a traced run needs some of those too,
        // as the reference for the tracing overhead.
        let min_reps = if args.trace { (3, 1) } else { (REPS, 0) };
        let r = measure(workload, args.seed, min_reps, args.seconds, &args.out)?;
        r.print();
        println!("{}", r.contract_line(args.trace)?);
        return Ok(r.failed == 0);
    }

    let first = run_all(args.seed, &args.out)?;
    let mut ok = first.iter().all(|r| r.failed == 0);
    let path = args.out.join("result.json");
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, result_document(args.seed, &first).render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nresult document: {}", path.display());
    if args.check {
        let second = run_all(args.seed, &args.out)?;
        ok &= second.iter().all(|r| r.failed == 0);
        ok &= report::check(&first, &second);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let clock = HostClock::start();
    match parse_args().and_then(|args| run(&args, clock)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: wrong answers or disagreeing runs, see above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the harness must emit exactly
    /// what it promises.
    #[test]
    fn the_contract_file_lists_what_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is there"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("no {key}"))
                .iter()
                .map(|e| match e.get(field) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(v) => v.render(),
                    None => panic!("{key} entry without {field}"),
                })
                .collect()
        };
        assert_eq!(listed("workloads", "name"), WORKLOADS);

        let bounded: Vec<_> = report::E2E.iter().filter(|s| s.bound.is_some()).collect();
        assert_eq!(
            listed("end_to_end", "name"),
            bounded.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("end_to_end", "unit"),
            bounded.iter().map(|s| s.unit).collect::<Vec<_>>()
        );
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(
            bounds,
            bounded.iter().map(|s| s.bound.unwrap()).collect::<Vec<_>>()
        );
        let setup = bounded.iter().find(|s| s.name == "setup_s").unwrap();
        assert!(
            bounded.iter().all(|s| s.bound <= setup.bound),
            "setup_s has the largest bound"
        );

        // One traced rep with probes emits every per-layer metric, defined
        // or not; the overhead joins when reps are folded.
        let rep = |mode| rep::run("mixed_rw", 1, Scale::Tiny, HostClock::start(), mode).unwrap();
        let folded =
            report::aggregate("mixed_rw", &[rep(Traced::No)], &[rep(Traced::WithProbes)]).unwrap();
        let emitted = |f: fn(&layers::Metric) -> &String| -> Vec<String> {
            folded.layers.iter().map(|m| f(m).clone()).collect()
        };
        assert_eq!(listed("per_layer", "name"), emitted(|m| &m.name));
        assert_eq!(listed("per_layer", "unit"), emitted(|m| &m.unit));
    }
}

//! Aggregate one sampled rep of the benchmark harness into a table of
//! where the host clock went — the aggregation half of `scripts/hostprof`
//! (the sampling half is the `LD_PRELOAD` shim `scripts/hostprof.c`).
//!
//! Every sample is a backtrace. Its addresses are symbolised with
//! `addr2line -f -C -i` (the release profile carries line tables) and the
//! sample is charged to the innermost frame, inlined ones included, whose
//! source file is first-party: under `crates/*/src` or `bench/src`. Time
//! in `std`, the allocator or a vendored crate so lands on the first-party
//! code that asked for it. Samples are split into the rep's set-up and
//! its timed phase at the sum of the rep's own `setup_slices_s`.
//!
//! ```text
//! cargo run --release --example hostprof -- <samples> <rep.json> <exe> setup|timed
//! ```
//!
//! Prints `module samples share`, then the same by function for the top
//! of the list. Exits 2 on input it cannot read or a missing `addr2line`.

use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use imca_metrics::json::Json;

/// One sample: process CPU time when it was taken, and the call stack as
/// addresses inside the executable's image, innermost first.
struct Sample {
    cpu_s: f64,
    stack: Vec<u64>,
}

/// Parse the shim's output: `/proc/self/maps`, then one `sample` line each.
/// Addresses outside `exe` (libc, the shim) are dropped; the rest are made
/// relative to its load base. Return addresses are moved back one byte so
/// they symbolise as the call, not as whatever follows it.
fn read_samples(path: &str, exe: &str) -> Result<Vec<Sample>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let exe = std::fs::canonicalize(exe).map_err(|e| format!("{exe}: {e}"))?;
    let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok();
    let mut image: Vec<(u64, u64)> = Vec::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        let Some(first) = words.next() else { continue };
        if first != "sample" {
            // start-end perms offset dev inode path
            if words.nth(4).is_some_and(|p| exe.as_os_str() == p) {
                let (start, end) = first.split_once('-').ok_or("bad maps line")?;
                image.push((
                    hex(start).ok_or("bad maps line")?,
                    hex(end).ok_or("bad maps line")?,
                ));
            }
            continue;
        }
        let base = image
            .first()
            .ok_or(format!("{path}: {} is not mapped", exe.display()))?
            .0;
        let cpu_ns: f64 = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or("bad sample line")?;
        let stack = words
            .filter_map(hex)
            .enumerate()
            .filter(|(_, pc)| image.iter().any(|&(start, end)| (start..end).contains(pc)))
            .map(|(depth, pc)| pc - base - u64::from(depth > 0))
            .collect();
        samples.push(Sample {
            cpu_s: cpu_ns / 1e9,
            stack,
        });
    }
    Ok(samples)
}

/// A symbolised address: its frames, innermost (inlined) first, as
/// `(function, source file)`.
type Frames = Vec<(String, String)>;

fn symbolise(exe: &str, addrs: &BTreeSet<u64>) -> Result<HashMap<u64, Frames>, String> {
    let mut child = Command::new("addr2line")
        .args(["-a", "-f", "-C", "-i", "-e", exe])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run addr2line: {e}"))?;
    let mut stdin = child.stdin.take().expect("piped");
    let feed: String = addrs.iter().map(|a| format!("{a:#x}\n")).collect();
    // addr2line answers as it reads; writing from a thread keeps both
    // pipes moving.
    let writer = std::thread::spawn(move || stdin.write_all(feed.as_bytes()));
    let out = child
        .wait_with_output()
        .map_err(|e| format!("addr2line: {e}"))?;
    writer
        .join()
        .expect("the writer does not panic")
        .map_err(|e| format!("addr2line: {e}"))?;
    // `-a` prints each address on a line of its own, then a function line
    // and a `file:line` line for every frame at it.
    let mut table: HashMap<u64, Frames> = HashMap::new();
    let mut at = None;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if let Some(addr) = line.strip_prefix("0x") {
            at = u64::from_str_radix(addr, 16).ok();
        } else if let (Some(at), Some(place)) = (at, lines.next()) {
            let file = place.rsplit_once(':').map_or(place, |(file, _)| file);
            table
                .entry(at)
                .or_default()
                .push((line.to_string(), file.to_string()));
        }
    }
    Ok(table)
}

/// `crates/memcached/src/store.rs` → `memcached/store`; `bench/src/plan.rs`
/// → `bench/plan`; `None` for a file that is not first-party (the
/// toolchain's own sources have a `crates/` directory too).
fn module_of(file: &str) -> Option<String> {
    if file.starts_with("/rustc/") {
        return None;
    }
    let rest = match file.rsplit_once("crates/") {
        Some((_, rest)) => rest,
        None => &file[file.find("bench/src/")?..],
    };
    let (krate, path) = rest.split_once("/src/")?;
    (!krate.contains('/')).then(|| format!("{krate}/{}", path.trim_end_matches(".rs")))
}

fn print_table(title: &str, rows: HashMap<String, usize>, total: usize, top: usize) {
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("{title:<56} samples  share");
    for (name, n) in rows.into_iter().take(top) {
        println!(
            "{name:<56.96} {n:>7} {:>5.1}%",
            100.0 * n as f64 / total as f64
        );
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let [samples, rep, exe, phase] = args else {
        return Err("usage: hostprof <samples> <rep.json> <exe> setup|timed".into());
    };
    let timed = match phase.as_str() {
        "setup" => false,
        "timed" => true,
        other => return Err(format!("unknown phase {other:?}: setup or timed")),
    };
    let rep_text = std::fs::read_to_string(rep).map_err(|e| format!("{rep}: {e}"))?;
    let rep_doc = Json::parse(rep_text.trim()).map_err(|e| format!("{rep}: {e:?}"))?;
    let setup_s: f64 = rep_doc
        .get("setup_slices_s")
        .and_then(Json::as_arr)
        .ok_or(format!("{rep}: no setup_slices_s"))?
        .iter()
        .filter_map(Json::as_f64)
        .sum();
    let all = read_samples(samples, exe)?;
    let mine: Vec<&Sample> = all
        .iter()
        .filter(|s| (s.cpu_s > setup_s) == timed)
        .collect();
    if mine.is_empty() {
        return Err(format!("{samples}: no samples in the {phase} phase"));
    }
    let addrs: BTreeSet<u64> = mine.iter().flat_map(|s| s.stack.iter().copied()).collect();
    let table = symbolise(exe, &addrs)?;
    let (mut modules, mut functions) = (HashMap::new(), HashMap::new());
    for sample in &mine {
        let frames = sample.stack.iter().filter_map(|pc| table.get(pc)).flatten();
        let charged = frames
            .filter_map(|(function, file)| Some((module_of(file)?, function)))
            .next();
        let (module, function) = match charged {
            Some((module, function)) => (module.clone(), format!("{module}  {function}")),
            None => (
                "(no first-party frame)".to_string(),
                "(no first-party frame)".to_string(),
            ),
        };
        *modules.entry(module).or_insert(0) += 1;
        *functions.entry(function).or_insert(0) += 1;
    }
    println!(
        "{} samples of process CPU time, {} in the {phase} phase (set-up ends at {setup_s:.3} s)",
        all.len(),
        mine.len()
    );
    print_table("module", modules, mine.len(), usize::MAX);
    println!();
    print_table("module  function", functions, mine.len(), 15);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostprof: {e}");
            ExitCode::from(2)
        }
    }
}

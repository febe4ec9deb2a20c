//! # imca-bench — experiment harness
//!
//! One binary per paper figure (`fig1_*` … `fig10_*`) plus ablation
//! binaries for the design choices DESIGN.md calls out. Each binary:
//!
//! 1. runs the corresponding workload driver over the paper's parameter
//!    sweep (scaled by default; `--full` for paper scale),
//! 2. prints the figure's series as an aligned table, and
//! 3. writes `results/<name>.json` + `results/<name>.txt` for
//!    EXPERIMENTS.md.
//!
//! Parameter sweeps run one simulation per (system, x) point; independent
//! points run in parallel OS threads (each simulation itself stays
//! single-threaded and deterministic).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use imca_metrics::json::Json;
use imca_metrics::Snapshot;
use imca_workloads::report::Table;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run at full paper scale instead of the scaled default.
    pub full: bool,
    /// Run a minimal sweep for CI smoke checks (`scripts/tier1.sh
    /// --strict`): fewest points that still exercise every code path.
    pub smoke: bool,
    /// Output directory for JSON/text results.
    pub out_dir: PathBuf,
    /// Override the simulation seed.
    pub seed: u64,
}

const USAGE: &str = "[--full | --smoke] [--out DIR] [--seed N]";

impl Options {
    /// Parse from `std::env::args` (supports `--full`, `--smoke`,
    /// `--out DIR`, `--seed N`, `--help`). A bad command line prints the
    /// usage to stderr and exits with status 2.
    pub fn from_args(name: &str, description: &str) -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(Some(opts)) => opts,
            Ok(None) => {
                println!("{name}: {description}");
                println!("usage: {name} {USAGE}");
                println!("  --full   run at paper scale (slow); default is a");
                println!("           proportionally scaled workload");
                println!("  --smoke  run a minimal CI sweep (fastest)");
                std::process::exit(0);
            }
            Err(why) => {
                eprintln!("{name}: {why}");
                eprintln!("usage: {name} {USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parse an argument list (without the program name). `Ok(None)` means
    /// `--help` was asked for; `Err` says what is wrong with the line.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
        let mut opts = Options {
            full: false,
            smoke: false,
            out_dir: PathBuf::from("results"),
            seed: 42,
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--smoke" => opts.smoke = true,
                "--out" => {
                    opts.out_dir = PathBuf::from(args.next().ok_or("--out needs a directory")?)
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--seed needs an integer")?
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if opts.full && opts.smoke {
            return Err("--full and --smoke are mutually exclusive".into());
        }
        Ok(Some(opts))
    }
}

/// Print a table and persist it under `results/<name>.{json,txt}`.
pub fn emit(opts: &Options, name: &str, table: &Table) {
    let rendered = table.render();
    println!("{rendered}");
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("warning: cannot create {}: {e}", opts.out_dir.display());
        return;
    }
    let json_path = opts.out_dir.join(format!("{name}.json"));
    let txt_path = opts.out_dir.join(format!("{name}.txt"));
    let _ = std::fs::write(&json_path, table.to_json());
    let _ = std::fs::File::create(&txt_path).map(|mut f| f.write_all(rendered.as_bytes()));
    println!(
        "(written to {} and {})",
        json_path.display(),
        txt_path.display()
    );
}

/// Persist a metrics snapshot under `results/<name>_metrics.json`.
///
/// Every figure binary calls this with the instrumentation gathered from
/// its runs (see `Deployment::metrics`), so each experiment leaves one
/// structured observability document next to its result tables. Sweeps
/// over several runs merge per-run snapshots under a `<label>.<x>` prefix
/// with [`Snapshot::merge_prefixed`] before emitting.
pub fn emit_metrics(opts: &Options, name: &str, snap: &Snapshot) {
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("warning: cannot create {}: {e}", opts.out_dir.display());
        return;
    }
    let path = opts.out_dir.join(format!("{name}_metrics.json"));
    let _ = std::fs::write(&path, snap.to_json());
    println!(
        "({} metric series written to {})",
        snap.metrics.len(),
        path.display()
    );
}

/// `x` rounded to `digits` decimals, for a consolidated `BENCH_*.json`
/// record.
pub fn rounded(x: f64, digits: i32) -> Json {
    let k = 10f64.powi(digits);
    Json::Float((x * k).round() / k)
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Sanitise a table-series label (e.g. `"MCD (4)"`, `"Lustre-4DS (Cold)"`)
/// into a metrics-prefix segment: lowercase alphanumerics with single
/// underscores, so merged names stay `prefix.tier.component.metric`-shaped.
pub fn metric_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// Run `jobs` on parallel OS threads (each job is an independent,
/// self-contained simulation) and collect results in input order. One
/// worker per core pulls the next job as soon as it is free, so a slow
/// grid point never holds the others back.
pub fn parallel_sweep<T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T> {
    let workers = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(jobs.len());
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // The lock is released before the job runs, so a
                        // panicking job cannot poison it.
                        let next = queue.lock().expect("job queue poisoned").next();
                        let Some((idx, job)) = next else { break };
                        mine.push((idx, job()));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep job panicked"))
            .collect()
    });
    done.sort_by_key(|&(idx, _)| idx);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sweep_preserves_order_over_unequal_jobs() {
        // More jobs than any host has cores, every seventh one slow, so
        // whichever way the workers interleave, completion order differs
        // from input order — and the results must not.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..300)
            .map(|i| {
                Box::new(move || {
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i * i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = parallel_sweep(jobs);
        assert_eq!(results, (0usize..300).map(|i| i * i).collect::<Vec<_>>());
        assert!(parallel_sweep::<usize>(Vec::new()).is_empty());
    }

    fn parse(line: &[&str]) -> Result<Option<Options>, String> {
        Options::parse(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn options_parse_accepts_good_lines_and_rejects_bad_ones() {
        let opts = parse(&["--smoke", "--out", "d", "--seed", "7"])
            .unwrap()
            .unwrap();
        assert!(opts.smoke && !opts.full);
        assert_eq!(opts.out_dir, PathBuf::from("d"));
        assert_eq!(opts.seed, 7);
        assert!(parse(&[]).unwrap().is_some());
        assert!(parse(&["--help"]).unwrap().is_none());
        // Each of these is a usage error (exit 2 in `from_args`), not a panic.
        for bad in [
            &["--out"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--full", "--smoke"],
            &["--workers", "2"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn emit_metrics_writes_a_parseable_document() {
        let dir = std::env::temp_dir().join(format!("imca-bench-mtest-{}", std::process::id()));
        let opts = Options {
            full: false,
            smoke: false,
            out_dir: dir.clone(),
            seed: 1,
        };
        let mut snap = Snapshot::new();
        snap.set_counter("fabric.rpc.calls", 3);
        emit_metrics(&opts, "unit", &snap);
        let path = dir.join("unit_metrics.json");
        let text = std::fs::read_to_string(&path).expect("metrics file missing");
        let back = Snapshot::from_json(&text).expect("unparseable metrics");
        assert_eq!(back, snap);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metric_labels_are_prefix_safe() {
        assert_eq!(metric_label("MCD (4)"), "mcd_4");
        assert_eq!(metric_label("NoCache"), "nocache");
        assert_eq!(metric_label("Lustre-4DS (Cold)"), "lustre_4ds_cold");
    }

    #[test]
    fn emit_writes_files() {
        let dir = std::env::temp_dir().join(format!("imca-bench-test-{}", std::process::id()));
        let opts = Options {
            full: false,
            smoke: false,
            out_dir: dir.clone(),
            seed: 1,
        };
        let mut t = Table::new("t", "x", "y", vec!["s".into()]);
        t.push_row(1.0, vec![Some(2.0)]);
        emit(&opts, "unit", &t);
        assert!(dir.join("unit.json").exists());
        assert!(dir.join("unit.txt").exists());
        let _ = std::fs::remove_dir_all(dir);
    }
}

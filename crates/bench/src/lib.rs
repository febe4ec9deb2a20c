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
//! Parameter sweeps run one simulation per (system, x) point
//! ([`Grid`], or [`parallel_sweep`] over a bin's own point list);
//! independent points run in parallel OS threads (each simulation itself
//! stays single-threaded and deterministic).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Write `contents` to `<out>/<file>`, creating the directory first. The
/// one write path of every emitter: it panics naming the file when
/// either step fails, so a run never reports an output it did not write.
fn write_out(opts: &Options, file: &str, contents: impl AsRef<[u8]>) -> PathBuf {
    let path = opts.out_dir.join(file);
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, contents))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

/// Print a table and persist it under `results/<name>.{json,txt}`.
pub fn emit(opts: &Options, name: &str, table: &Table) {
    let rendered = table.render();
    println!("{rendered}");
    let json_path = write_out(opts, &format!("{name}.json"), table.to_json());
    let txt_path = write_out(opts, &format!("{name}.txt"), &rendered);
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
    let path = write_out(opts, &format!("{name}_metrics.json"), snap.to_json());
    println!(
        "({} metric series written to {})",
        snap.metrics.len(),
        path.display()
    );
}

/// `x` to `digits` decimals as `format!("{x:.digits$}")` prints it: the
/// one rounding rule of every consolidated `BENCH_*.json` record, so a
/// recorded value reads as the binary prints it.
pub fn fixed(x: f64, digits: usize) -> Json {
    Json::Float(
        format!("{x:.digits$}")
            .parse()
            .expect("a printed float parses"),
    )
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Write `doc` to `<out>/<name>.json`, the consolidated claim record a
/// binary asserts against (`BENCH_5.json` ... `BENCH_9.json`).
pub fn emit_bench(opts: &Options, name: &str, doc: &Json) {
    let path = write_out(opts, &format!("{name}.json"), doc.render_pretty());
    println!("(consolidated summary written to {})", path.display());
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

/// Run `run` over every point on parallel OS threads (each run is an
/// independent, self-contained simulation) and return the results in
/// input order. One worker per core takes the next point as soon as it is
/// free, so a slow point never holds the others back.
pub fn parallel_sweep<P: Sync, T: Send>(points: &[P], run: impl Fn(&P) -> T + Sync) -> Vec<T> {
    let workers = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(points.len());
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = points.get(idx) else { break };
                        mine.push((idx, run(point)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep run panicked"))
            .collect()
    });
    done.sort_by_key(|&(idx, _)| idx);
    done.into_iter().map(|(_, value)| value).collect()
}

/// The shape most figures sweep: one run per point of a series × x grid,
/// each series a labelled system or mode (a table column) and each x an
/// integer parameter such as the client count (a table row).
pub struct Grid<S, T> {
    /// `(label, series)` in column order.
    pub series: Vec<(String, S)>,
    /// The x values, in row order.
    pub xs: Vec<usize>,
    /// Series-major: the run at `(si, xi)` is `runs[si * xs.len() + xi]`.
    runs: Vec<T>,
}

impl<S: Sync, T: Send> Grid<S, T> {
    /// Run `run(series, x)` at every point of `series × xs`, through
    /// [`parallel_sweep`].
    pub fn sweep(
        series: Vec<(String, S)>,
        xs: Vec<usize>,
        run: impl Fn(&S, usize) -> T + Sync,
    ) -> Grid<S, T> {
        let points: Vec<(usize, usize)> = (0..series.len())
            .flat_map(|si| (0..xs.len()).map(move |xi| (si, xi)))
            .collect();
        let runs = parallel_sweep(&points, |&(si, xi)| run(&series[si].1, xs[xi]));
        Grid { series, xs, runs }
    }
}

impl<S, T> Grid<S, T> {
    /// Series `si`'s runs, in x order.
    pub fn line(&self, si: usize) -> &[T] {
        let n = self.xs.len();
        &self.runs[si * n..(si + 1) * n]
    }

    /// The run of series `si` at x index `xi`.
    pub fn at(&self, si: usize, xi: usize) -> &T {
        &self.line(si)[xi]
    }

    /// Every run with its `(label, series)` and its x, series-major.
    pub fn points(&self) -> impl Iterator<Item = (&(String, S), usize, &T)> {
        self.series.iter().enumerate().flat_map(move |(si, s)| {
            self.xs
                .iter()
                .zip(self.line(si))
                .map(move |(&x, run)| (s, x, run))
        })
    }

    /// A table with one column per series label and one row per x, each
    /// cell `cell` of that point's run.
    pub fn table(
        &self,
        title: impl Into<String>,
        xlabel: &str,
        ylabel: &str,
        cell: impl Fn(&T) -> Option<f64>,
    ) -> Table {
        let labels = self.series.iter().map(|(label, _)| label.clone()).collect();
        let mut table = Table::new(title, xlabel, ylabel, labels);
        for (xi, &x) in self.xs.iter().enumerate() {
            let row = (0..self.series.len())
                .map(|si| cell(self.at(si, xi)))
                .collect();
            table.push_row(x as f64, row);
        }
        table
    }

    /// Merge every series' run at x index `xi` into `snap`, each under
    /// `<metric_label(label)>.<suffix>`.
    pub fn merge_metrics(
        &self,
        snap: &mut Snapshot,
        xi: usize,
        suffix: &str,
        metrics: impl Fn(&T) -> &Snapshot,
    ) {
        for (si, (label, _)) in self.series.iter().enumerate() {
            snap.merge_prefixed(
                &format!("{}.{suffix}", metric_label(label)),
                metrics(self.at(si, xi)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sweep_preserves_order_over_unequal_jobs() {
        // More points than any host has cores, every seventh one slow, so
        // whichever way the workers interleave, completion order differs
        // from input order — and the results must not.
        let points: Vec<usize> = (0..300).collect();
        let results = parallel_sweep(&points, |&i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(results, (0usize..300).map(|i| i * i).collect::<Vec<_>>());
        assert!(parallel_sweep(&[] as &[usize], |&i| i).is_empty());
    }

    #[test]
    fn grid_matches_the_hand_rolled_series_major_layout() {
        struct Run {
            value: f64,
            metrics: Snapshot,
        }
        let series = vec![("MCD (1)".to_string(), 10u64), ("NoCache".to_string(), 20)];
        let xs = vec![1usize, 4, 16];
        let run = |s: &u64, x: usize| {
            let mut metrics = Snapshot::new();
            metrics.set_counter("fabric.rpc.calls", s * 100 + x as u64);
            Run {
                value: (s * 100 + x as u64) as f64,
                metrics,
            }
        };
        let grid = Grid::sweep(series.clone(), xs.clone(), run);

        // The layout the figure binaries used to build by hand.
        let points: Vec<(u64, usize)> = series
            .iter()
            .flat_map(|(_, s)| xs.iter().map(move |&x| (*s, x)))
            .collect();
        let flat = parallel_sweep(&points, |&(s, x)| run(&s, x));
        let mut table = Table::new(
            "t",
            "clients",
            "y",
            vec!["MCD (1)".into(), "NoCache".into()],
        );
        for (xi, &x) in xs.iter().enumerate() {
            let row = (0..series.len())
                .map(|si| Some(flat[si * xs.len() + xi].value))
                .collect();
            table.push_row(x as f64, row);
        }
        let last = xs.len() - 1;
        let mut snap = Snapshot::new();
        for (si, (label, _)) in series.iter().enumerate() {
            snap.merge_prefixed(
                &format!("{}.{}c", metric_label(label), xs[last]),
                &flat[si * xs.len() + last].metrics,
            );
        }

        for si in 0..series.len() {
            for xi in 0..xs.len() {
                let want = &flat[si * xs.len() + xi];
                assert_eq!(grid.at(si, xi).value, want.value);
                assert_eq!(grid.line(si)[xi].value, want.value);
            }
        }
        let walked: Vec<(u64, usize, f64)> = grid
            .points()
            .map(|((_, s), x, r)| (*s, x, r.value))
            .collect();
        let want: Vec<(u64, usize, f64)> = points
            .iter()
            .zip(&flat)
            .map(|(&(s, x), r)| (s, x, r.value))
            .collect();
        assert_eq!(walked, want);
        assert_eq!(grid.table("t", "clients", "y", |r| Some(r.value)), table);
        let mut merged = Snapshot::new();
        grid.merge_metrics(&mut merged, last, &format!("{}c", xs[last]), |r| &r.metrics);
        assert_eq!(merged, snap);
        assert_eq!(merged.counter("mcd_1.16c.fabric.rpc.calls"), Some(1016));
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
        let back = Json::parse(&text).expect("unparseable metrics");
        assert_eq!(back, snap.to_json_value());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn every_emitter_panics_naming_a_file_it_cannot_write() {
        // A regular file as a path component: no directory can be made
        // under it, whoever runs the test.
        let file = std::env::temp_dir().join(format!("imca-bench-etest-{}", std::process::id()));
        std::fs::write(&file, b"").unwrap();
        let opts = Options {
            full: false,
            smoke: false,
            out_dir: file.join("sub"),
            seed: 1,
        };
        let table = Table::new("t", "x", "y", vec!["s".into()]);
        let panics_naming = |written: &str, emitter: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(emitter))
                .expect_err("an unwritable output must fail the run");
            let msg = err.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.contains(written), "{msg:?} does not name {written}");
        };
        panics_naming("t.json", &|| emit(&opts, "t", &table));
        panics_naming("m_metrics.json", &|| {
            emit_metrics(&opts, "m", &Snapshot::new())
        });
        panics_naming("b.json", &|| emit_bench(&opts, "b", &Json::Null));
        let _ = std::fs::remove_file(file);
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

//! Compare two benchmark result documents (`bench/out/result.json`
//! against `bench/baseline/2c.json`) field by field — the comparison
//! half of `scripts/perfcheck`.
//!
//! The simulator is deterministic, so every field of a workload that is
//! not measured on the host clock — latencies, goodput, event and message
//! counts, hit rates, and the `attempted`/`failed`/`samples` counts — must
//! be **exactly equal** between two runs of one seed. Any difference is a
//! behaviour change: name it in CHANGES.md and re-baseline deliberately.
//!
//! ```text
//! cargo run --release --example perfcheck -- <result.json> <baseline.json>
//! ```
//!
//! Prints each differing path with both values, one line of differing
//! over compared fields per workload (`cold_stream 0/125  hot_contend
//! 0/119 …`), then `compared N, differ M`; exits 1 on any drift, 2 on a
//! document it cannot read.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use imca_metrics::json::Json;

/// Whether metric `name` is measured on the host clock and so varies run
/// to run. The same list as `bench/src/report.rs::host_time`.
fn host_time(name: &str) -> bool {
    name.contains(".probe.")
        || matches!(
            name,
            "setup_s"
                | "host_ops_per_s"
                | "host_peak_rss_mb"
                | "sim.host_ns_per_event"
                | "metrics.snapshot_ms"
                | "trace.overhead_share"
        )
}

/// Flatten every leaf under `v` that is not host-time into `path → value`.
fn flatten(v: &Json, path: &str, out: &mut BTreeMap<String, String>) {
    match v.as_obj() {
        Some(fields) => {
            for (key, child) in fields.iter().filter(|(key, _)| !host_time(key)) {
                let sep = if path.is_empty() { "" } else { "/" };
                flatten(child, &format!("{path}{sep}{key}"), out);
            }
        }
        None => {
            out.insert(path.to_string(), v.render());
        }
    }
}

/// The virtual-time fields of the document at `path`, by workload.
fn virtual_fields(path: &str) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let workloads = doc
        .get("workloads")
        .ok_or_else(|| format!("{path}: no \"workloads\" object"))?;
    let mut out = BTreeMap::new();
    flatten(workloads, "", &mut out);
    if out.is_empty() {
        return Err(format!("{path}: no virtual-time fields"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [result, baseline] = &args[..] else {
        eprintln!("usage: perfcheck <result.json> <baseline.json>");
        return ExitCode::from(2);
    };
    let (got, want) = match (virtual_fields(result), virtual_fields(baseline)) {
        (Ok(got), Ok(want)) => (got, want),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfcheck: {e}");
            return ExitCode::from(2);
        }
    };
    let paths: BTreeSet<&String> = got.keys().chain(want.keys()).collect();
    // Per workload, the first segment of a path: (differing, compared).
    let mut tally: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    let mut differ = 0;
    for path in &paths {
        let (g, w) = (got.get(*path), want.get(*path));
        let workload = tally.entry(path.split('/').next().unwrap()).or_default();
        workload.1 += 1;
        if g != w {
            differ += 1;
            workload.0 += 1;
            let show = |v: Option<&String>| v.map_or("(absent)", String::as_str).to_string();
            println!("{path}: {} (baseline {})", show(g), show(w));
        }
    }
    let per_workload: Vec<String> = tally
        .iter()
        .map(|(name, (differ, compared))| format!("{name} {differ}/{compared}"))
        .collect();
    println!("{}", per_workload.join("  "));
    println!("compared {}, differ {differ}", paths.len());
    if differ == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

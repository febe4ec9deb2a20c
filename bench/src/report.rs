//! From reps to results: the end-to-end metric table, the rep ↔ JSON
//! round trip between the harness and its child processes, aggregation
//! (virtual metrics must be identical across reps, host metrics take the
//! median), the printed tables and the two-run comparison of `--check`.

use imca_metrics::json::Json;

use crate::layers::Metric;
use crate::quantile::median_f64;
use crate::rep::Rep;

/// One end-to-end metric's contract.
pub struct E2eSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// Virtual time repeats exactly for a seed; host time does not.
    pub virtual_clock: bool,
    /// `Some` for the metrics every workload reports, which are the ones
    /// `BENCHMARK.json` can bound: the share of the reference by which the
    /// metric may get worse. The latency pairs of one op kind exist only
    /// where that kind is issued; they are reported beside these, and
    /// under the contract as `client.*` layer metrics.
    pub bound: Option<f64>,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    virtual_clock: bool,
    bound: Option<f64>,
) -> E2eSpec {
    E2eSpec {
        name,
        unit,
        virtual_clock,
        bound,
    }
}

pub const E2E: [E2eSpec; 14] = [
    spec("setup_s", "s", false, Some(0.25)),
    spec("host_ops_per_s", "ops/s", false, Some(0.20)),
    spec("host_peak_rss_mb", "MB", false, Some(0.10)),
    spec("op_p50_us", "us", true, Some(0.05)),
    spec("op_p99_us", "us", true, Some(0.24)),
    spec("read_p50_us", "us", true, None),
    spec("read_p99_us", "us", true, None),
    spec("stat_p50_us", "us", true, None),
    spec("stat_p99_us", "us", true, None),
    spec("write_p50_us", "us", true, None),
    spec("write_p99_us", "us", true, None),
    spec("virt_goodput_ops_s", "ops/s", true, Some(0.10)),
    spec("virt_read_mb_s", "MB/s", true, None),
    spec("failed_op_share", "ratio", true, None),
];

pub fn e2e_spec(name: &str) -> Option<&'static E2eSpec> {
    E2E.iter().find(|s| s.name == name)
}

/// Whether `name`, end-to-end or per-layer, is measured on the host
/// clock: such a metric is folded over reps, not held to equality.
fn host_time(name: &str) -> bool {
    match e2e_spec(name) {
        Some(spec) => !spec.virtual_clock,
        None => {
            name.contains(".probe.")
                || matches!(
                    name,
                    "sim.host_ns_per_event" | "metrics.snapshot_ms" | "trace.overhead_share"
                )
        }
    }
}

fn metrics_to_json(metrics: &[Metric]) -> Json {
    Json::Arr(
        metrics
            .iter()
            .map(|m| {
                Json::Arr(vec![
                    Json::Str(m.name.clone()),
                    Json::Str(m.unit.clone()),
                    m.value.map_or(Json::Null, Json::Float),
                ])
            })
            .collect(),
    )
}

fn metrics_from_json(v: &Json) -> Option<Vec<Metric>> {
    v.as_arr()?
        .iter()
        .map(|row| {
            let row = row.as_arr()?;
            Some(Metric {
                name: row.first()?.as_str()?.to_string(),
                unit: row.get(1)?.as_str()?.to_string(),
                value: row.get(2)?.as_f64(),
            })
        })
        .collect()
}

fn seconds(slices: &[f64]) -> Json {
    Json::Arr(slices.iter().map(|&s| Json::Float(s)).collect())
}

fn seconds_from_json(v: &Json) -> Option<Vec<f64>> {
    v.as_arr()?.iter().map(Json::as_f64).collect()
}

/// A rep as the one line its child process prints (the trace stays
/// behind: the child writes it to a file itself).
pub fn rep_to_json(rep: &Rep) -> String {
    Json::Obj(vec![
        ("attempted".into(), Json::Int(rep.attempted as i128)),
        ("failed".into(), Json::Int(rep.failed as i128)),
        (
            "fingerprint".into(),
            Json::Arr(vec![
                Json::Int(rep.fingerprint.0 as i128),
                Json::Int(rep.fingerprint.1 as i128),
            ]),
        ),
        (
            "samples".into(),
            Json::Obj(
                rep.samples
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::Int(*n as i128)))
                    .collect(),
            ),
        ),
        ("setup_slices_s".into(), seconds(&rep.setup_slices_s)),
        ("timed_slices_s".into(), seconds(&rep.timed_slices_s)),
        ("e2e".into(), metrics_to_json(&rep.e2e)),
        ("layers".into(), metrics_to_json(&rep.layers)),
    ])
    .render()
}

pub fn rep_from_json(line: &str) -> Option<Rep> {
    let doc = Json::parse(line).ok()?;
    let fp = doc.get("fingerprint")?.as_arr()?;
    Some(Rep {
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        fingerprint: (fp.first()?.as_u64()?, fp.get(1)?.as_u64()?),
        samples: doc
            .get("samples")?
            .as_obj()?
            .iter()
            .map(|(k, n)| Some((k.clone(), n.as_u64()?)))
            .collect::<Option<_>>()?,
        setup_slices_s: seconds_from_json(doc.get("setup_slices_s")?)?,
        timed_slices_s: seconds_from_json(doc.get("timed_slices_s")?)?,
        e2e: metrics_from_json(doc.get("e2e")?)?,
        layers: metrics_from_json(doc.get("layers")?)?,
        trace: None,
    })
}

/// One workload's result over all its reps.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub untraced_reps: usize,
    pub traced_reps: usize,
    /// Over every rep made.
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<(String, u64)>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
}

/// Fold metric `name` over the reps that report it: a host-time metric
/// takes the median of its defined values; a virtual one must read the
/// same in every rep, or the run is not deterministic.
fn fold(
    name: &str,
    host_time: bool,
    reps: &[&Rep],
    pick: fn(&Rep) -> &Vec<Metric>,
) -> Result<Option<f64>, String> {
    let values: Vec<Option<f64>> = reps
        .iter()
        .filter_map(|r| pick(r).iter().find(|m| m.name == name))
        .map(|m| m.value)
        .collect();
    if host_time {
        let defined: Vec<f64> = values.iter().flatten().copied().collect();
        return Ok(median_f64(&defined));
    }
    match values.iter().find(|v| **v != values[0]) {
        Some(other) => Err(format!(
            "virtual metric {name} differs between reps of one seed: {:?} vs {other:?}",
            values[0]
        )),
        None => Ok(values.first().copied().flatten()),
    }
}

/// Host seconds of a phase with the sandbox's disturbances taken out.
/// Reps of one seed do identical work slice by slice, so a slice that
/// took longer in one rep than in another was disturbed, not slower:
/// each slice counts at its fastest over the reps, and the slices are
/// summed. Disturbance only ever adds time, and on a shared 2-core
/// sandbox it comes in bursts of seconds that spoil most reps' totals
/// but rarely the same slice of all of them: over groups of five reps
/// the median of totals spread by 11 %, the sum of slice minima by 3 %.
fn undisturbed_s(reps: &[&Rep], slices: fn(&Rep) -> &Vec<f64>) -> Option<f64> {
    let count = slices(reps.first()?).len();
    if reps.iter().any(|r| slices(r).len() != count) {
        return None;
    }
    Some(
        (0..count)
            .map(|k| {
                reps.iter()
                    .map(|r| slices(r)[k])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum(),
    )
}

/// Timed ops per undisturbed host second.
fn ops_per_host_s(reps: &[&Rep]) -> Option<f64> {
    let seconds = undisturbed_s(reps, |r| &r.timed_slices_s)?;
    (seconds > 0.0).then(|| reps[0].attempted as f64 / seconds)
}

/// Fold reps of one (workload, seed) into a result. Fails, naming the
/// metric, when something that must repeat exactly did not.
pub fn aggregate(
    workload: &str,
    untraced: &[Rep],
    traced: &[Rep],
) -> Result<WorkloadResult, String> {
    let all: Vec<&Rep> = untraced.iter().chain(traced).collect();
    let traced: Vec<&Rep> = traced.iter().collect();
    // End-to-end host metrics are measured with tracing off.
    let timed_plain: Vec<&Rep> = if untraced.is_empty() {
        all.clone()
    } else {
        untraced.iter().collect()
    };
    let first = *all.first().ok_or("no reps were run")?;
    if let Some(r) = all.iter().find(|r| r.fingerprint != first.fingerprint) {
        return Err(format!(
            "{workload}: not deterministic: (events, virtual end ns) {:?} in one rep, {:?} in another",
            first.fingerprint, r.fingerprint
        ));
    }
    let named = |e: String| format!("{workload}: {e}");

    let mut e2e = Vec::new();
    for m in &first.e2e {
        let spec = e2e_spec(&m.name).ok_or_else(|| format!("unknown metric {}", m.name))?;
        let value = match m.name.as_str() {
            "setup_s" => Ok(undisturbed_s(&timed_plain, |r| &r.setup_slices_s)),
            "host_ops_per_s" => Ok(ops_per_host_s(&timed_plain)),
            _ if spec.virtual_clock => fold(&m.name, false, &all, |r| &r.e2e),
            _ => fold(&m.name, true, &timed_plain, |r| &r.e2e),
        };
        e2e.push(Metric {
            value: value.map_err(named)?,
            ..m.clone()
        });
    }

    let mut layers = Vec::new();
    // The first traced rep is the one that ran the probes, so its list
    // is the complete one.
    if let Some(t0) = traced.first() {
        for m in &t0.layers {
            let value = fold(&m.name, host_time(&m.name), &traced, |r| &r.layers);
            layers.push(Metric {
                value: value.map_err(named)?,
                ..m.clone()
            });
        }
        // Like against like: the same number of reps on both sides, or
        // taking each slice at its fastest would favour the larger side
        // and report the sandbox's noise as tracing overhead.
        let n = traced.len().min(timed_plain.len());
        let ops_per_s = |reps: &[&Rep]| ops_per_host_s(&reps[..n]);
        let overhead = match (ops_per_s(&traced), ops_per_s(&timed_plain)) {
            (Some(t), Some(u)) if u > 0.0 => Some(1.0 - t / u),
            _ => None,
        };
        layers.push(Metric::new("trace.overhead_share", "ratio", overhead));
    }

    Ok(WorkloadResult {
        workload: workload.to_string(),
        untraced_reps: untraced.len(),
        traced_reps: traced.len(),
        attempted: all.iter().map(|r| r.attempted).sum(),
        failed: all.iter().map(|r| r.failed).sum(),
        samples: first.samples.clone(),
        e2e,
        layers,
    })
}

impl WorkloadResult {
    /// The count behind a metric: samples for a quantile, reps for a
    /// host-time median.
    fn count_note(&self, metric: &str) -> String {
        let base = metric.strip_prefix("client.").unwrap_or(metric);
        let kind = base
            .strip_suffix("_p50_us")
            .or_else(|| base.strip_suffix("_p99_us"));
        if let Some((_, n)) = kind.and_then(|k| self.samples.iter().find(|(s, _)| s == k)) {
            format!("{n} samples per rep")
        } else if matches!(metric, "setup_s" | "host_ops_per_s") {
            format!("{} reps, each slice at its fastest", self.untraced_reps)
        } else if e2e_spec(metric).is_some_and(|s| !s.virtual_clock) {
            format!("median of {} reps", self.untraced_reps)
        } else {
            String::new()
        }
    }

    /// Every metric by name, with unit and the count behind it. A metric
    /// that is undefined on this workload is left out.
    pub fn print(&self) {
        println!(
            "\n== {} — {} untraced + {} traced reps, {} ops attempted, {} failed ==",
            self.workload, self.untraced_reps, self.traced_reps, self.attempted, self.failed
        );
        let sections = [
            ("end-to-end", &self.e2e),
            ("per-layer (from the traced rep)", &self.layers),
        ];
        for (title, metrics) in sections {
            if !metrics.is_empty() {
                println!("  {title}");
            }
            for m in metrics {
                let Some(value) = m.value else { continue };
                println!(
                    "  {:<40} {:>18.6} {:<7} {:<8} {}",
                    m.name,
                    value,
                    m.unit,
                    if host_time(&m.name) {
                        "host"
                    } else {
                        "virtual"
                    },
                    self.count_note(&m.name)
                );
            }
        }
    }

    /// `{name: {value, unit}}`; an undefined metric is written as
    /// `undefined`, or left out when that is `None`.
    fn metrics_json(metrics: &[Metric], undefined: Option<f64>) -> Json {
        Json::Obj(
            metrics
                .iter()
                .filter_map(|m| {
                    let body = vec![
                        ("value".to_string(), Json::Float(m.value.or(undefined)?)),
                        ("unit".to_string(), Json::Str(m.unit.clone())),
                    ];
                    Some((m.name.clone(), Json::Obj(body)))
                })
                .collect(),
        )
    }

    /// This workload's entry in the result document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "untraced_reps".into(),
                Json::Int(self.untraced_reps as i128),
            ),
            ("traced_reps".into(), Json::Int(self.traced_reps as i128)),
            ("attempted".into(), Json::Int(self.attempted as i128)),
            ("failed".into(), Json::Int(self.failed as i128)),
            (
                "samples".into(),
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, n)| (k.clone(), Json::Int(*n as i128)))
                        .collect(),
                ),
            ),
            ("end_to_end".into(), Self::metrics_json(&self.e2e, None)),
            ("per_layer".into(), Self::metrics_json(&self.layers, None)),
        ])
    }

    /// The last line the benchmark contract asks for: the bounded
    /// end-to-end metrics without tracing, every per-layer metric with.
    /// The contract wants every listed metric on every run, so a layer
    /// metric that is undefined on this workload is written as 0 here
    /// (and left out of the result document, which is the one to read).
    pub fn contract_line(&self, traced: bool) -> Result<String, String> {
        let metrics = if traced {
            Self::metrics_json(&self.layers, Some(0.0))
        } else {
            let mut bounded = Vec::new();
            for m in &self.e2e {
                if e2e_spec(&m.name).is_some_and(|s| s.bound.is_some()) {
                    if m.value.is_none() {
                        return Err(format!("{}: {} was not measured", self.workload, m.name));
                    }
                    bounded.push(m.clone());
                }
            }
            Self::metrics_json(&bounded, None)
        };
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Int(self.attempted as i128)),
            ("failed".into(), Json::Int(self.failed as i128)),
            ("metrics".into(), metrics),
        ])
        .render())
    }
}

/// Compare two complete runs of one seed, printing every end-to-end
/// pair. Virtual metrics must be equal; host metrics must agree within
/// their bound. Returns whether everything agreed.
pub fn check(first: &[WorkloadResult], second: &[WorkloadResult]) -> bool {
    let mut agreed = true;
    println!("\n== check: two runs of the same commit and seed ==");
    for (a, b) in first.iter().zip(second) {
        for (ma, mb) in a.e2e.iter().zip(&b.e2e) {
            let Some(spec) = e2e_spec(&ma.name) else {
                continue;
            };
            if ma.value.is_none() && mb.value.is_none() {
                continue; // not defined on this workload
            }
            let bound = spec.bound.unwrap_or(0.0);
            let ok = match (ma.value, mb.value) {
                (Some(x), Some(y)) if !spec.virtual_clock => {
                    (x - y).abs() <= bound * x.abs().max(y.abs())
                }
                (x, y) => x == y,
            };
            agreed &= ok;
            let show = |v: Option<f64>| v.map_or("—".to_string(), |v| format!("{v:.6}"));
            println!(
                "  {:<12} {:<20} {:>18} {:>18} {:<7} {}",
                a.workload,
                ma.name,
                show(ma.value),
                show(mb.value),
                ma.unit,
                match (ok, spec.virtual_clock) {
                    (true, true) => "equal".to_string(),
                    (true, false) => format!("within {:.0} %", bound * 100.0),
                    (false, true) => "DIFFERENT (virtual metrics must be equal)".to_string(),
                    (false, false) => format!("OUTSIDE {:.0} %", bound * 100.0),
                }
            );
        }
        for name in ["sim.events_per_op", "sim.virt_end_ns"] {
            let find = |r: &WorkloadResult| r.layers.iter().find(|m| m.name == name).cloned();
            let ok = find(a) == find(b);
            agreed &= ok;
            println!(
                "  {:<12} {:<20} {}",
                a.workload,
                name,
                if ok { "equal" } else { "DIFFERENT" }
            );
        }
    }
    agreed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rep of 100 ops whose timed phase took `timed` host seconds,
    /// slice by slice.
    fn rep(timed: [f64; 2], rss: f64, p50: f64, fingerprint: (u64, u64)) -> Rep {
        Rep {
            attempted: 100,
            failed: 0,
            fingerprint,
            samples: vec![("read".into(), 100), ("op".into(), 100)],
            setup_slices_s: vec![0.25, 0.5],
            timed_slices_s: timed.to_vec(),
            e2e: vec![
                Metric::new("setup_s", "s", Some(0.75)),
                Metric::new(
                    "host_ops_per_s",
                    "ops/s",
                    Some(100.0 / (timed[0] + timed[1])),
                ),
                Metric::new("host_peak_rss_mb", "MB", Some(rss)),
                Metric::new("read_p50_us", "us", Some(p50)),
                Metric::new("stat_p50_us", "us", None),
            ],
            layers: Vec::new(),
            trace: None,
        }
    }

    /// A rep that ran at `ops_per_s`.
    fn steady(ops_per_s: f64) -> Rep {
        rep([50.0 / ops_per_s; 2], 64.0, 5.0, (1, 2))
    }

    fn value(metrics: &[Metric], name: &str) -> Option<f64> {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn a_rep_survives_the_trip_through_its_child_process() {
        let mut r = rep([0.1 + 0.2, 1234.5678901234], 64.0, 1e-7, (7, 9));
        r.layers = vec![Metric::new("imca.cmcache.stat_hit_rate", "ratio", None)];
        let back = rep_from_json(&rep_to_json(&r)).expect("parses");
        assert_eq!(back.e2e, r.e2e, "floats must round-trip bit for bit");
        assert_eq!(back.timed_slices_s, r.timed_slices_s);
        assert_eq!(back.setup_slices_s, r.setup_slices_s);
        assert_eq!(back.layers, r.layers);
        assert_eq!(back.fingerprint, r.fingerprint);
        assert_eq!(back.samples, r.samples);
        assert!(rep_from_json("{}").is_none());
    }

    #[test]
    fn host_time_counts_each_slice_at_its_fastest() {
        // Every rep was disturbed somewhere, none in the same place.
        let reps = [
            rep([1.0, 3.0], 60.0, 5.0, (1, 2)),
            rep([2.0, 1.0], 70.0, 5.0, (1, 2)),
            rep([1.5, 1.5], 64.0, 5.0, (1, 2)),
        ];
        let r = aggregate("w", &reps, &[]).unwrap();
        assert_eq!(value(&r.e2e, "host_ops_per_s"), Some(50.0));
        assert_eq!(value(&r.e2e, "setup_s"), Some(0.75));
        assert_eq!(value(&r.e2e, "host_peak_rss_mb"), Some(64.0), "the median");
        assert_eq!((r.attempted, r.failed), (300, 0));
    }

    #[test]
    fn virtual_metrics_must_agree_between_reps() {
        let r = aggregate("w", &[steady(90.0), steady(110.0)], &[]).unwrap();
        assert_eq!(value(&r.e2e, "read_p50_us"), Some(5.0));
        assert_eq!(value(&r.e2e, "stat_p50_us"), None, "undefined stays so");

        let drifted = [
            rep([1.0; 2], 64.0, 5.0, (1, 2)),
            rep([1.0; 2], 64.0, 5.5, (1, 2)),
        ];
        let err = aggregate("w", &drifted, &[]).unwrap_err();
        assert!(err.contains("read_p50_us"), "{err}");
        let other_run = [
            rep([1.0; 2], 64.0, 5.0, (1, 2)),
            rep([1.0; 2], 64.0, 5.0, (1, 3)),
        ];
        assert!(aggregate("w", &other_run, &[])
            .unwrap_err()
            .contains("not deterministic"));
    }

    #[test]
    fn overhead_is_the_traced_slowdown() {
        let mut traced = steady(96.0);
        traced.layers = vec![Metric::new("sim.events_per_op", "1/op", Some(3.0))];
        let r = aggregate("w", &[steady(100.0)], &[traced]).unwrap();
        let ops_per_s = value(&r.e2e, "host_ops_per_s").unwrap();
        assert!(
            (ops_per_s - 100.0).abs() < 1e-9,
            "end-to-end comes from untraced reps"
        );
        assert!((value(&r.layers, "trace.overhead_share").unwrap() - 0.04).abs() < 1e-9);
    }

    #[test]
    fn traced_reps_are_matched_by_name_not_position() {
        // Only the first traced rep runs the probes, so the lists differ
        // in length and a metric's position differs between reps.
        let mut with_probes = steady(95.0);
        with_probes.layers = vec![
            Metric::new("sim.probe.timer_ns", "ns", Some(150.0)),
            Metric::new("trace.spans", "count", Some(40.0)),
        ];
        let mut without = steady(95.0);
        without.layers = vec![Metric::new("trace.spans", "count", Some(40.0))];
        let r = aggregate("w", &[steady(100.0)], &[with_probes, without]).unwrap();
        assert_eq!(value(&r.layers, "sim.probe.timer_ns"), Some(150.0));
        assert_eq!(value(&r.layers, "trace.spans"), Some(40.0));
        assert!((value(&r.layers, "trace.overhead_share").unwrap() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn the_contract_line_writes_undefined_layers_as_zero_and_keeps_to_bounded_e2e() {
        let mut traced = steady(96.0);
        traced.layers = vec![Metric::new("imca.cmcache.stat_hit_rate", "ratio", None)];
        let r = aggregate("w", &[steady(100.0)], &[traced]).unwrap();
        let line = Json::parse(&r.contract_line(true).unwrap()).unwrap();
        let layers = line.get("metrics").unwrap();
        let hit_rate = layers.get("imca.cmcache.stat_hit_rate").unwrap();
        assert_eq!(hit_rate.get("value").unwrap().as_f64(), Some(0.0));
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        let untraced = Json::parse(&r.contract_line(false).unwrap()).unwrap();
        let metrics = untraced.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "host_ops_per_s", "host_peak_rss_mb"],
            "only metrics every workload has"
        );
    }

    #[test]
    fn check_holds_virtual_metrics_to_equality_and_host_to_their_bound() {
        let run = |ops, p50| {
            let rep = rep([50.0 / ops; 2], 64.0, p50, (1, 2));
            aggregate("w", &[rep], &[]).unwrap()
        };
        assert!(check(&[run(100.0, 5.0)], &[run(108.0, 5.0)]));
        assert!(!check(&[run(100.0, 5.0)], &[run(140.0, 5.0)]));
        assert!(!check(&[run(100.0, 5.0)], &[run(100.0, 5.000001)]));
    }
}

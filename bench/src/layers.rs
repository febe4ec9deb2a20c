//! Per-layer metrics from outside the program: deltas of two
//! `Deployment::metrics()` snapshots (counters and histogram count/sum,
//! both exact), normalised per timed client op. A ratio whose series is
//! absent or whose denominator is zero is *undefined* (`None`), never 0:
//! "no stats were issued" and "every stat missed" must not look alike.

use imca_metrics::{MetricValue, Snapshot};

/// The change in a deployment's metrics over the timed phase.
pub struct Delta<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

fn matching<'s>(
    snap: &'s Snapshot,
    prefix: &'s str,
    suffix: &'s str,
) -> impl Iterator<Item = (&'s str, &'s MetricValue)> {
    snap.metrics
        .iter()
        .filter(move |(name, _)| {
            name.len() >= prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
        })
        .map(|(name, value)| (name.as_str(), value))
}

impl Delta<'_> {
    /// Growth of every counter named `prefix…suffix`, summed over
    /// instances (`cmcache.0.read_hits` + `cmcache.1.read_hits` …).
    /// `None` when no such counter exists.
    pub fn counter(&self, prefix: &str, suffix: &str) -> Option<u64> {
        let mut found = None;
        for (name, value) in matching(self.after, prefix, suffix) {
            if let MetricValue::Counter(after) = value {
                let before = self.before.counter(name).unwrap_or(0);
                *found.get_or_insert(0) += after - before;
            }
        }
        found
    }

    /// Growth of the one counter called `name`.
    pub fn exact(&self, name: &str) -> Option<u64> {
        Some(self.after.counter(name)? - self.before.counter(name).unwrap_or(0))
    }

    /// Growth of every matching histogram's `(count, sum)`.
    pub fn histogram(&self, prefix: &str, suffix: &str) -> Option<(u64, u64)> {
        let mut found = None;
        for (name, value) in matching(self.after, prefix, suffix) {
            if let MetricValue::Histogram(after) = value {
                let (c0, s0) = self
                    .before
                    .histogram(name)
                    .map_or((0, 0), |h| (h.count, h.sum));
                let total = found.get_or_insert((0, 0));
                total.0 += after.count - c0;
                total.1 += after.sum - s0;
            }
        }
        found
    }

    /// Mean of a nanosecond histogram's new observations, in µs.
    pub fn mean_us(&self, prefix: &str, suffix: &str) -> Option<f64> {
        let (count, sum) = self.histogram(prefix, suffix)?;
        ratio(Some(sum), Some(count)).map(|ns| ns / 1e3)
    }

    /// Each matching counter's own growth (for max ÷ mean imbalance).
    pub fn counters_each(&self, prefix: &str, suffix: &str) -> Vec<u64> {
        matching(self.after, prefix, suffix)
            .filter_map(|(name, value)| match value {
                MetricValue::Counter(after) => Some(after - self.before.counter(name).unwrap_or(0)),
                _ => None,
            })
            .collect()
    }

    /// Every matching gauge's value at the end of the run.
    pub fn gauges(&self, prefix: &str, suffix: &str) -> Vec<i64> {
        matching(self.after, prefix, suffix)
            .filter_map(|(_, value)| match value {
                MetricValue::Gauge(v) => Some(*v),
                _ => None,
            })
            .collect()
    }
}

/// `num ÷ den`, undefined when either side is absent or `den` is zero.
pub fn ratio(num: Option<u64>, den: Option<u64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0 => Some(n as f64 / d as f64),
        _ => None,
    }
}

/// `a + b` where both exist.
fn plus(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    Some(a? + b?)
}

/// One named measurement; `value` is `None` when undefined on this run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: Option<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: Option<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// Every snapshot-derived layer metric over the timed phase's `ops`.
pub fn from_snapshots(d: &Delta<'_>, ops: u64) -> Vec<Metric> {
    let m = Metric::new;
    let per_op = |n: Option<u64>| ratio(n, Some(ops));
    let count = |n: Option<u64>| n.map(|v| v as f64);
    let share = |part: Option<u64>, rest: Option<u64>| ratio(part, plus(part, rest));

    // fabric: the server is the first node a cluster registers.
    let rpc = d.histogram("fabric.rpc.", "call_ns");
    let tx_bytes = d.counter("fabric.nic.", ".bytes_tx");
    // storage
    let pc_hits = d.exact("storage.pagecache.hits");
    let pc_misses = d.exact("storage.pagecache.misses");
    let disk_reads = d.counter("storage.disk.", ".reads");
    let disk_writes = d.counter("storage.disk.", ".writes");
    let disk_ns = d.histogram("storage.disk.", ".access_ns").map(|h| h.1);
    // memcached (daemon-side store)
    let get_hits = d.counter("bank.mcd.", ".store.get_hits");
    let get_misses = d.counter("bank.mcd.", ".store.get_misses");
    let allocated: i64 = d.gauges("bank.mcd.", ".store.allocated_bytes").iter().sum();
    let live: i64 = d.gauges("bank.mcd.", ".store.bytes").iter().sum();
    // glusterfs
    let fops = d.counter("glusterfs.posix.fop.", "");
    // cmcache
    let read_hits = d.counter("cmcache.", ".read_hits");
    let read_misses = d.counter("cmcache.", ".read_misses");
    let stat_hits = d.counter("cmcache.", ".stat_hits");
    let stat_misses = d.counter("cmcache.", ".stat_misses");
    // bank client half
    let gets = d.counter("cmcache.", ".bank.gets");
    // mcd daemon half (`bank.per_daemon.max_gets` shares the prefix, not
    // the suffix)
    let daemon_gets = d.counters_each("bank.per_daemon.", ".gets");
    // meta
    let lease = d.counter("cmcache.", ".meta.lease_hits");
    let bank = d.counter("cmcache.", ".meta.bank_hits");
    let fill = d.counter("cmcache.", ".meta.backend_fills");
    let negative = d.counter("cmcache.", ".meta.negative_hits");
    let answers = plus(plus(lease, bank), plus(fill, negative));

    vec![
        m("fabric.rpc_calls_per_op", "1/op", per_op(rpc.map(|h| h.0))),
        m(
            "fabric.rpc_call_us_mean",
            "us",
            d.mean_us("fabric.rpc.", "call_ns"),
        ),
        m(
            "fabric.msgs_per_op",
            "1/op",
            per_op(d.counter("fabric.nic.", ".msgs_tx")),
        ),
        m("fabric.bytes_per_op", "B/op", per_op(tx_bytes)),
        m(
            "fabric.server_nic_tx_share",
            "ratio",
            ratio(d.exact("fabric.nic.0.bytes_tx"), tx_bytes),
        ),
        m("fabric.dropped", "count", count(d.exact("fabric.dropped"))),
        m(
            "storage.pagecache_hit_rate",
            "ratio",
            share(pc_hits, pc_misses),
        ),
        m(
            "storage.pagecache_evictions",
            "count",
            count(d.exact("storage.pagecache.evictions")),
        ),
        m("storage.disk_reads_per_op", "1/op", per_op(disk_reads)),
        m("storage.disk_writes_per_op", "1/op", per_op(disk_writes)),
        m(
            "storage.disk_access_us_per_op",
            "us/op",
            per_op(disk_ns).map(|ns| ns / 1e3),
        ),
        m(
            "storage.disk_seq_share",
            "ratio",
            ratio(
                d.counter("storage.disk.", ".sequential_hits"),
                plus(disk_reads, disk_writes),
            ),
        ),
        m(
            "memcached.get_hit_rate",
            "ratio",
            share(get_hits, get_misses),
        ),
        m(
            "memcached.cmd_get_per_op",
            "1/op",
            per_op(d.counter("bank.mcd.", ".store.cmd_get")),
        ),
        m(
            "memcached.cmd_set_per_op",
            "1/op",
            per_op(d.counter("bank.mcd.", ".store.cmd_set")),
        ),
        m(
            "memcached.evictions_per_op",
            "1/op",
            per_op(d.counter("bank.mcd.", ".store.evictions")),
        ),
        m(
            "memcached.mem_overhead",
            "ratio",
            (live > 0).then(|| allocated as f64 / live as f64),
        ),
        m("glusterfs.server_fops_per_op", "1/op", per_op(fops)),
        m(
            "glusterfs.fop_us_mean",
            "us",
            d.mean_us("glusterfs.posix.", "fop_ns"),
        ),
        m(
            "imca.cmcache.read_hit_rate",
            "ratio",
            share(read_hits, read_misses),
        ),
        m(
            "imca.cmcache.stat_hit_rate",
            "ratio",
            share(stat_hits, stat_misses),
        ),
        m(
            "imca.cmcache.read_us_mean",
            "us",
            d.mean_us("cmcache.", ".read_ns"),
        ),
        m(
            "imca.cmcache.stat_us_mean",
            "us",
            d.mean_us("cmcache.", ".stat_ns"),
        ),
        m(
            "imca.cmcache.degraded_reads",
            "count",
            count(d.counter("cmcache.", ".degraded_reads")),
        ),
        m("imca.bank.gets_per_op", "1/op", per_op(gets)),
        m("imca.bank.keys_per_multi_get", "count", {
            let h = d.histogram("cmcache.", ".bank.keys_per_multi_get");
            ratio(h.map(|h| h.1), h.map(|h| h.0))
        }),
        m(
            "imca.bank.get_us_mean",
            "us",
            d.mean_us("cmcache.", ".bank.get_ns"),
        ),
        m(
            "imca.bank.coalesced_share",
            "ratio",
            ratio(d.counter("cmcache.", ".bank.coalesced_gets"), gets),
        ),
        m(
            "imca.bank.hedged_share",
            "ratio",
            ratio(d.counter("cmcache.", ".bank.hedged_gets"), gets),
        ),
        m(
            "imca.bank.retries",
            "count",
            count(d.counter("cmcache.", ".bank.retries")),
        ),
        m(
            "imca.bank.rpc_timeouts",
            "count",
            count(d.counter("cmcache.", ".bank.rpc_timeouts")),
        ),
        m(
            "imca.bank.failures",
            "count",
            count(d.counter("cmcache.", ".bank.failures")),
        ),
        m(
            "imca.mcd.requests_per_op",
            "1/op",
            per_op(d.counter("bank.mcd.", ".requests")),
        ),
        m(
            "imca.mcd.service_us_mean",
            "us",
            d.mean_us("bank.mcd.", ".service_ns"),
        ),
        // A gauge, so it is the whole rep's peak, set-up included.
        m(
            "imca.mcd.queue_peak_max",
            "count",
            d.gauges("bank.mcd.", ".queue_peak")
                .into_iter()
                .max()
                .map(|v| v as f64),
        ),
        m(
            "imca.mcd.sheds",
            "count",
            count(d.counter("bank.mcd.", ".sheds")),
        ),
        m("imca.mcd.load_imbalance", "ratio", {
            let total: u64 = daemon_gets.iter().sum();
            let max = daemon_gets.iter().copied().max();
            ratio(max.map(|v| v * daemon_gets.len() as u64), Some(total))
        }),
        m("imca.meta.lease_hit_share", "ratio", ratio(lease, answers)),
        m("imca.meta.bank_hit_share", "ratio", ratio(bank, answers)),
        m(
            "imca.meta.backend_fill_share",
            "ratio",
            ratio(fill, answers),
        ),
        m(
            "imca.meta.negative_hit_share",
            "ratio",
            ratio(negative, answers),
        ),
        m(
            "imca.meta.revocations",
            "count",
            count(d.counter("cmcache.", ".meta.revocations")),
        ),
        m(
            "imca.meta.paths_per_batched_lookup",
            "count",
            ratio(
                d.counter("cmcache.", ".meta.batched_paths"),
                d.counter("cmcache.", ".meta.batched_lookups"),
            ),
        ),
        m(
            "imca.smcache.blocks_pushed_per_write",
            "count",
            ratio(
                d.exact("smcache.blocks_pushed"),
                d.exact("glusterfs.posix.fop.write"),
            ),
        ),
        m(
            "imca.smcache.purges",
            "count",
            count(d.exact("smcache.purges")),
        ),
        m(
            "imca.smcache.cas_replacements",
            "count",
            count(d.exact("smcache.cas_replacements")),
        ),
        m(
            "imca.smcache.cas_conflicts",
            "count",
            count(d.exact("smcache.cas_conflicts")),
        ),
        m(
            "imca.smcache.cas_fallback_purges",
            "count",
            count(d.exact("smcache.cas_fallback_purges")),
        ),
        m(
            "imca.smcache.stat_pushes",
            "count",
            count(d.exact("smcache.stat_pushes")),
        ),
        m(
            "imca.smcache.dropped_pushes",
            "count",
            count(d.exact("smcache.dropped_pushes")),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_metrics::HistogramSnapshot;

    fn hist(count: u64, sum: u64) -> HistogramSnapshot {
        HistogramSnapshot {
            count,
            sum,
            ..HistogramSnapshot::default()
        }
    }

    fn pair() -> (Snapshot, Snapshot) {
        let mut before = Snapshot::new();
        before.set_counter("cmcache.0.read_hits", 10);
        before.set_counter("cmcache.1.read_hits", 5);
        before.set_counter("cmcache.0.read_misses", 1);
        before.set_counter("cmcache.1.read_misses", 0);
        before.set_histogram("cmcache.0.read_ns", hist(10, 1_000_000));
        let mut after = before.clone();
        after.set_counter("cmcache.0.read_hits", 40);
        after.set_counter("cmcache.1.read_hits", 25);
        after.set_counter("cmcache.0.read_misses", 11);
        after.set_histogram("cmcache.0.read_ns", hist(30, 5_000_000));
        // Registered after the first snapshot: counts from zero.
        after.set_counter("cmcache.2.read_hits", 7);
        after.set_gauge("bank.mcd.0.queue_peak", 3);
        after.set_gauge("bank.mcd.1.queue_peak", 9);
        (before, after)
    }

    fn value(metrics: &[Metric], name: &str) -> Option<f64> {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    #[test]
    fn counters_sum_their_growth_over_instances() {
        let (before, after) = pair();
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.counter("cmcache.", ".read_hits"), Some(30 + 20 + 7));
        assert_eq!(d.counter("cmcache.", ".read_misses"), Some(10));
        assert_eq!(d.histogram("cmcache.", ".read_ns"), Some((20, 4_000_000)));
        assert_eq!(d.mean_us("cmcache.", ".read_ns"), Some(200.0));
        assert_eq!(d.gauges("bank.mcd.", ".queue_peak"), vec![3, 9]);
    }

    #[test]
    fn a_prefix_and_suffix_may_not_overlap() {
        let mut after = Snapshot::new();
        after.set_counter("ab", 1);
        let before = Snapshot::new();
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.counter("ab", "b"), None);
        assert_eq!(d.counter("a", "b"), Some(1));
    }

    #[test]
    fn a_missing_series_is_undefined_not_zero() {
        let (before, after) = pair();
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.exact("smcache.purges"), None);
        assert_eq!(d.histogram("fabric.rpc.", "call_ns"), None);
        let metrics = from_snapshots(&d, 100);
        assert_eq!(value(&metrics, "imca.smcache.purges"), None);
        assert_eq!(value(&metrics, "fabric.rpc_call_us_mean"), None);
        assert_eq!(value(&metrics, "storage.pagecache_hit_rate"), None);
        // Present series still resolve beside the missing ones.
        assert_eq!(
            value(&metrics, "imca.cmcache.read_hit_rate"),
            Some(57.0 / 67.0)
        );
        assert_eq!(value(&metrics, "imca.cmcache.read_us_mean"), Some(200.0));
        assert_eq!(value(&metrics, "imca.mcd.queue_peak_max"), Some(9.0));
    }

    #[test]
    fn a_zero_denominator_is_undefined_and_a_zero_count_is_zero() {
        let mut before = Snapshot::new();
        before.set_counter("cmcache.0.stat_hits", 4);
        before.set_counter("cmcache.0.stat_misses", 2);
        before.set_counter("smcache.purges", 3);
        let after = before.clone();
        let d = Delta {
            before: &before,
            after: &after,
        };
        let metrics = from_snapshots(&d, 50);
        assert_eq!(value(&metrics, "imca.cmcache.stat_hit_rate"), None);
        assert_eq!(value(&metrics, "imca.smcache.purges"), Some(0.0));
        assert_eq!(ratio(Some(1), Some(0)), None);
        assert_eq!(ratio(None, Some(2)), None);
        assert_eq!(ratio(Some(1), Some(2)), Some(0.5));
    }
}

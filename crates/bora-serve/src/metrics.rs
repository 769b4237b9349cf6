//! Per-operation service metrics, exposed through the `METRICS` op.
//!
//! Latencies are recorded twice per request: **wall-clock** nanoseconds
//! (submit to response, what a real client experiences, including queue
//! wait) and **virtual** nanoseconds (what the storage cost model charged,
//! deterministic across hosts — the number the repro experiments compare).
//! The wall number is further split: the queue-wait histogram isolates
//! time spent parked in the bounded queue from the service time a worker
//! actually spent on the request.
//!
//! ## One source of truth
//!
//! Every number lives in a private [`bora_obs::Registry`] (private so
//! concurrent servers in one process do not mix their numbers), under
//! the names the telemetry plane scrapes (`serve.op.<op>.wall_ns`,
//! `serve.op.<op>.virt_ns`, `serve.queue_wait_ns`, `serve.shed`, and the
//! handle-cache and queue numbers under `serve.cache.*` and
//! `serve.queue.*`). [`StatsSnapshot`] is not a second store: it is
//! rebuilt from a `METRICS` scrape by [`StatsSnapshot::from_report`], so
//! the summary and the scrape cannot drift.
//!
//! ## SLO windows
//!
//! Alongside the cumulative histograms, each op's wall latency also
//! feeds a sliding-window [`SloTracker`] (60 × 1 s) once a target is
//! registered, so "is read's p99 over target *right now*" is answerable
//! without resetting anything.

use bora_obs::{
    Counter, Gauge, Histogram, MetricsSnapshot, Registry, SloStatus, SloTarget, SloTracker,
};

use crate::cache::CacheStats;
use crate::proto::MetricsReport;

/// The metric op kinds, in the order [`StatsSnapshot`] reports them.
pub const OP_NAMES: [&str; 8] =
    ["append", "meta", "open", "query", "read_stream", "seal", "stat", "topics"];

fn op_index(name: &str) -> Option<usize> {
    OP_NAMES.iter().position(|n| *n == name)
}

/// Registry name of an op's wall-latency histogram.
pub fn wall_metric(op: &str) -> String {
    format!("serve.op.{op}.wall_ns")
}

/// Registry name of an op's virtual-latency histogram.
pub fn virt_metric(op: &str) -> String {
    format!("serve.op.{op}.virt_ns")
}

#[derive(Debug)]
struct OpHandles {
    wall: Histogram,
    virt: Histogram,
}

/// All service metrics. Everything is atomic; `metrics`/`shutdown`/
/// `trace`/`ping` ops are control-plane and intentionally unrecorded.
pub struct Metrics {
    registry: Registry,
    // Resolved once: recording is handle-hot, never a name lookup.
    ops: [OpHandles; OP_NAMES.len()],
    queue_wait: Histogram,
    shed: Counter,
    cache: CacheHandles,
    queue_depth: Gauge,
    queue_capacity: Gauge,
    slo: SloTracker,
}

/// Handle-cache numbers, published at scrape time.
struct CacheHandles {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    len: Gauge,
    capacity: Gauge,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        let registry = Registry::new();
        let ops = std::array::from_fn(|i| OpHandles {
            wall: registry.histogram(&wall_metric(OP_NAMES[i])),
            virt: registry.histogram(&virt_metric(OP_NAMES[i])),
        });
        let queue_wait = registry.histogram("serve.queue_wait_ns");
        let shed = registry.counter("serve.shed");
        let cache = CacheHandles {
            hits: registry.counter("serve.cache.hits"),
            misses: registry.counter("serve.cache.misses"),
            evictions: registry.counter("serve.cache.evictions"),
            len: registry.gauge("serve.cache.len"),
            capacity: registry.gauge("serve.cache.capacity"),
        };
        Metrics {
            ops,
            queue_wait,
            shed,
            cache,
            queue_depth: registry.gauge("serve.queue.depth"),
            queue_capacity: registry.gauge("serve.queue.capacity"),
            registry,
            slo: SloTracker::per_second_minute(),
        }
    }

    /// Record one completed request of kind `op_name`. Unknown names are a
    /// caller bug — the op table above and the protocol's `op_name` must
    /// agree — so they fail loudly under `debug_assertions` (tests) and
    /// drop silently in release builds.
    pub fn record(&self, op_name: &str, wall_ns: u64, virt_ns: u64) {
        let Some(i) = op_index(op_name) else {
            debug_assert!(false, "Metrics::record: unknown op name {op_name:?}");
            return;
        };
        self.ops[i].wall.record(wall_ns);
        self.ops[i].virt.record(virt_ns);
        self.slo.record(op_name, wall_ns);
    }

    /// Record how long one request sat in the bounded queue before a
    /// worker picked it up.
    pub fn record_queue_wait(&self, ns: u64) {
        self.queue_wait.record(ns);
    }

    /// Count one request rejected for backpressure.
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// Publish the handle cache's counters and the queue's occupancy
    /// into the registry, so one scrape carries everything a
    /// [`StatsSnapshot`] reports.
    pub fn publish(&self, cache: CacheStats, queue_depth: usize, queue_capacity: usize) {
        self.cache.hits.raise_to(cache.hits);
        self.cache.misses.raise_to(cache.misses);
        self.cache.evictions.raise_to(cache.evictions);
        self.cache.len.set(i64::from(cache.len));
        self.cache.capacity.set(i64::from(cache.capacity));
        self.queue_depth.set(queue_depth as i64);
        self.queue_capacity.set(queue_capacity as i64);
    }

    /// Set (or update) the latency objective for one op; its wall
    /// samples start feeding the op's sliding window.
    pub fn set_slo_target(&self, op_name: &str, target: SloTarget) {
        debug_assert!(op_index(op_name).is_some(), "unknown op name {op_name:?}");
        self.slo.register(op_name, target);
    }

    /// Evaluate every registered SLO over its current window, bumping
    /// breach counters.
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        self.slo.evaluate()
    }

    /// Point-in-time copy of the backing registry — the `METRICS`
    /// scrape's payload.
    ///
    /// The per-op recorders live in this server's private registry, but
    /// subsystems the server *uses* (buffer pool `pool.*`, shed/evict
    /// counters) record into the process-wide `bora_obs` registry — one
    /// pool, one set of numbers. The scrape is the union of both; on a
    /// (by-convention impossible) name collision, the private registry
    /// wins. Multiple in-process servers therefore report the same
    /// process-wide subsystem counters — fine in production (one server
    /// per process) and documented here for in-process test fleets.
    pub fn registry_snapshot(&self) -> MetricsSnapshot {
        let global = bora_obs::snapshot();
        let private = self.registry.snapshot();
        merge_snapshots(global, private)
    }
}

/// Latency summary for one op kind inside a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpSummary {
    pub count: u64,
    /// Wall-clock nanoseconds, measured submit → response.
    pub wall_min_ns: u64,
    pub wall_mean_ns: u64,
    pub wall_p99_ns: u64,
    /// Virtual nanoseconds charged by the storage cost model.
    pub virt_mean_ns: u64,
}

/// Server-wide summary: a projection of one `METRICS` scrape.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Summaries keyed by op name, in [`OP_NAMES`] order.
    pub ops: Vec<(String, OpSummary)>,
    /// Requests rejected with `Response::Overloaded`.
    pub shed: u64,
    /// Requests sitting in the queue right now.
    pub queue_depth: u32,
    /// Bound of the request queue.
    pub queue_capacity: u32,
    /// Mean time requests spent parked in the queue before a worker took
    /// them (the queue-wait share of `wall_mean_ns`).
    pub queue_wait_mean_ns: u64,
    pub queue_wait_p99_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_len: u32,
    pub cache_capacity: u32,
}

impl StatsSnapshot {
    /// Rebuild the summary from a scrape. Every field reads the same
    /// histogram, counter or gauge the scrape carries, so the two views
    /// agree exactly; names absent from the report read as zero.
    pub fn from_report(report: &MetricsReport) -> StatsSnapshot {
        let hist = |name: &str| report.hist(name).copied().unwrap_or_default();
        let gauge = |name: &str| report.gauge(name).unwrap_or(0).clamp(0, u32::MAX as i64) as u32;
        let ops = OP_NAMES
            .iter()
            .map(|name| {
                let wall = hist(&wall_metric(name));
                let virt = hist(&virt_metric(name));
                let op = OpSummary {
                    count: wall.count,
                    wall_min_ns: wall.min_or_zero(),
                    wall_mean_ns: wall.mean(),
                    wall_p99_ns: wall.percentile(0.99),
                    virt_mean_ns: virt.mean(),
                };
                (name.to_string(), op)
            })
            .collect();
        let qw = hist("serve.queue_wait_ns");
        StatsSnapshot {
            ops,
            shed: report.counter("serve.shed"),
            queue_depth: gauge("serve.queue.depth"),
            queue_capacity: gauge("serve.queue.capacity"),
            queue_wait_mean_ns: qw.mean(),
            queue_wait_p99_ns: qw.percentile(0.99),
            cache_hits: report.counter("serve.cache.hits"),
            cache_misses: report.counter("serve.cache.misses"),
            cache_evictions: report.counter("serve.cache.evictions"),
            cache_len: gauge("serve.cache.len"),
            cache_capacity: gauge("serve.cache.capacity"),
        }
    }

    /// Total completed requests across all ops.
    pub fn total_requests(&self) -> u64 {
        self.ops.iter().map(|(_, s)| s.count).sum()
    }

    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    pub fn op(&self, name: &str) -> Option<&OpSummary> {
        self.ops.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// Union of two sorted snapshots; entries in `wins` shadow same-named
/// entries in `base`. Both inputs are sorted (registry invariant) and the
/// output stays sorted, so scrape consumers can keep binary-searching.
fn merge_snapshots(base: MetricsSnapshot, wins: MetricsSnapshot) -> MetricsSnapshot {
    fn merge<T>(base: Vec<(String, T)>, wins: Vec<(String, T)>) -> Vec<(String, T)> {
        let mut out: std::collections::BTreeMap<String, T> = base.into_iter().collect();
        out.extend(wins);
        out.into_iter().collect()
    }
    MetricsSnapshot {
        counters: merge(base.counters, wins.counters),
        gauges: merge(base.gauges, wins.gauges),
        hists: merge(base.hists, wins.hists),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(m: &Metrics) -> StatsSnapshot {
        let snap = m.registry_snapshot();
        StatsSnapshot::from_report(&MetricsReport {
            counters: snap.counters,
            gauges: snap.gauges,
            hists: snap.hists,
            ..MetricsReport::default()
        })
    }

    #[test]
    fn summaries_aggregate() {
        let m = Metrics::new();
        m.record("read_stream", 100, 10);
        m.record("read_stream", 300, 30);
        m.record("open", 1_000, 0);
        m.record_shed();

        let snap = stats(&m);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.total_requests(), 3);
        let read = snap.op("read_stream").unwrap();
        assert_eq!(read.count, 2);
        assert_eq!(read.wall_min_ns, 100);
        assert_eq!(read.wall_mean_ns, 200);
        assert_eq!(read.virt_mean_ns, 20);
        assert!(snap.op("metrics").is_none());
        assert_eq!(snap.ops.len(), OP_NAMES.len(), "every op reported, in table order");
    }

    #[test]
    fn stats_and_registry_cannot_drift() {
        // The snapshot is a projection of the scrape: every number must
        // equal its registry counterpart exactly.
        let m = Metrics::new();
        for i in 0..50u64 {
            m.record("read_stream", i * 1_000, i);
            m.record("append", 77, 7);
        }
        m.record_queue_wait(5_000);
        m.record_shed();
        m.record_shed();
        m.publish(CacheStats { hits: 9, misses: 2, evictions: 1, len: 3, capacity: 8 }, 5, 64);

        let stats = stats(&m);
        let reg = m.registry_snapshot();
        let reg_hist =
            |name: &str| reg.hists.iter().find(|(n, _)| n == name).map(|(_, h)| *h).unwrap();
        for (name, op) in &stats.ops {
            let wall = reg_hist(&wall_metric(name));
            let virt = reg_hist(&virt_metric(name));
            assert_eq!(op.count, wall.count, "{name}: count drift");
            assert_eq!(op.wall_min_ns, wall.min_or_zero(), "{name}: min drift");
            assert_eq!(op.wall_mean_ns, wall.mean(), "{name}: mean drift");
            assert_eq!(op.wall_p99_ns, wall.percentile(0.99), "{name}: p99 drift");
            assert_eq!(op.virt_mean_ns, virt.mean(), "{name}: virt drift");
        }
        let qw = reg_hist("serve.queue_wait_ns");
        assert_eq!(stats.queue_wait_mean_ns, qw.mean());
        assert_eq!(stats.queue_wait_p99_ns, qw.percentile(0.99));
        assert_eq!(stats.shed, 2);
        assert_eq!(
            (stats.cache_hits, stats.cache_misses, stats.cache_evictions),
            (9, 2, 1),
            "cache counters travel in the scrape"
        );
        assert_eq!((stats.cache_len, stats.cache_capacity), (3, 8));
        assert_eq!((stats.queue_depth, stats.queue_capacity), (5, 64));

        // Publishing is monotone for counters: a stale, smaller total
        // (a racing scrape) never moves them backwards.
        m.publish(CacheStats { hits: 4, misses: 1, evictions: 0, len: 1, capacity: 8 }, 0, 64);
        assert_eq!(self::stats(&m).cache_hits, 9);
    }

    #[test]
    fn slo_targets_feed_from_recorded_ops() {
        let m = Metrics::new();
        m.set_slo_target("read_stream", SloTarget::p99(1_000));
        for _ in 0..10 {
            m.record("read_stream", 1_000_000, 0); // 1 ms ≫ 1 µs target
        }
        let statuses = m.slo_statuses();
        let read = statuses.iter().find(|s| s.name == "read_stream").unwrap();
        assert!(read.breached);
        assert_eq!(read.samples, 10);
        // Ops without a target are not tracked.
        assert!(!statuses.iter().any(|s| s.name == "open"));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "unknown op name"))]
    fn unknown_op_fails_in_debug_builds() {
        // Control-plane names ("metrics", "trace") and typos must never be
        // recorded; in release the sample is dropped silently.
        let m = Metrics::new();
        m.record("metrics", 5, 5);
        // Only reached in release builds: the sample was dropped silently.
        assert_eq!(stats(&m).total_requests(), 0);
    }

    #[test]
    fn queue_wait_split_is_reported() {
        let m = Metrics::new();
        m.record_queue_wait(1_000);
        m.record_queue_wait(3_000);
        let snap = stats(&m);
        assert_eq!(snap.queue_wait_mean_ns, 2_000);
        assert_eq!(snap.queue_wait_p99_ns, 4_095); // ceiling of bucket ilog2(3000)=11
    }

    #[test]
    fn p99_lands_in_tail_bucket() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record("read_stream", 1_000, 0); // bucket ilog2(1000)=9 → ceiling 1023
        }
        m.record("read_stream", 1 << 20, 0);
        let snap = stats(&m);
        let p99 = snap.op("read_stream").unwrap().wall_p99_ns;
        // Rank 99 of 100 falls in the 1µs bucket; the 1ms outlier is p100.
        assert_eq!(p99, 1023);
        // All-equal distribution: p99 == the one bucket's ceiling.
        let m2 = Metrics::new();
        for _ in 0..10 {
            m2.record("open", 7, 0);
        }
        assert_eq!(stats(&m2).op("open").unwrap().wall_p99_ns, 7);
    }

    #[test]
    fn zero_and_huge_samples_do_not_panic() {
        let m = Metrics::new();
        m.record("meta", 0, 0);
        m.record("meta", u64::MAX, u64::MAX);
        let s = stats(&m);
        assert_eq!(s.op("meta").unwrap().count, 2);
        assert_eq!(s.op("meta").unwrap().wall_p99_ns, u64::MAX);
    }
}

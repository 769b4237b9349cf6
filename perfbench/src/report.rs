//! Metric tables, registry deltas and the result line.

use std::fmt::Write as _;

use bora_obs::{HistSummary, MetricsSnapshot};

/// One end-to-end metric: the only ones the result line carries with
/// `--trace 0`. Each is defined on every workload, is never 0, and does
/// not move with the CPU time the host steals from this virtual machine
/// (wall-clock rates and latencies do; they are reported ungated among
/// the per-layer metrics).
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
}

pub const END_TO_END: [E2e; 4] = [
    // Set-up CPU seconds, median of three set-ups.
    E2e { name: "setup_s", unit: "s" },
    // Process CPU (every thread) per completed request.
    E2e { name: "cpu_ms_per_req", unit: "ms" },
    E2e { name: "space_amp", unit: "ratio" },
    E2e { name: "peak_rss_mb", unit: "MB" },
];

/// One per-layer metric (`--trace 1`), with the end-to-end metric it
/// should move and the workload where its layer does most of the work.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer { name, unit, better, moves, on }
}

pub const PER_LAYER: [Layer; 66] = [
    // Wall-clock end-to-end numbers, from the untraced half of the
    // traced run. They move with host contention, so they are not gated.
    l("req_per_s", "1/s", "higher", "req_per_s", "all"),
    l("lat_ms.p50", "ms", "lower", "lat_ms.p50", "all"),
    l("lat_ms.p99", "ms", "lower", "lat_ms.p99", "all"),
    l("setup_wall_s", "s", "lower", "setup_s", "all"),
    // simfs
    l("simfs.read_bytes_per_req", "B", "lower", "virt_ms.p50", "paper_scan"),
    l("simfs.read_ops_per_req", "count", "lower", "virt_ms.p50", "paper_scan"),
    l("simfs.read_virt_ms_per_req", "ms", "lower", "virt_ms.p50", "paper_scan"),
    l("simfs.self_ms_per_req", "ms", "lower", "lat_ms.p50", "paper_scan"),
    l("simfs.write_bytes_per_append", "B", "lower", "write_amp", "live_ingest"),
    // bora.container
    l("container.open_us", "us", "lower", "lat_ms.p50", "paper_scan"),
    l("container.open_virt_us", "us", "lower", "virt_ms.p50", "paper_scan"),
    // bora.time_index
    l("time_index.load_us", "us", "lower", "lat_ms.p50", "paper_scan"),
    l("time_index.read_bytes_per_returned_byte", "ratio", "lower", "virt_ms.p50", "paper_scan"),
    // bora.stream
    l("stream.prefetch_ms_per_req", "ms", "lower", "lat_ms.p99", "paper_scan"),
    l("stream.merge_ms_per_req", "ms", "lower", "lat_ms.p50", "paper_scan"),
    l("stream.heap_ops_per_msg", "count", "lower", "lat_ms.p50", "paper_scan"),
    l("stream.bytes_copied_per_req", "B", "lower", "req_per_s", "paper_scan"),
    // bora.block
    l("block.decodes_per_req", "count", "lower", "lat_ms.p50", "fleet_query"),
    l("block.decode_mb_per_req", "MB", "lower", "lat_ms.p50", "fleet_query"),
    l("block.decodes_per_row", "count", "lower", "lat_ms.p50", "fleet_query"),
    l("block.encode_mb_per_s", "MB/s", "higher", "append_lat_ms.p99", "live_ingest"),
    // bora.bufpool
    l("bufpool.hit_ratio", "ratio", "higher", "lat_ms.p99", "fleet_query"),
    l("bufpool.evictions_per_req", "count", "lower", "lat_ms.p99", "fleet_query"),
    l("bufpool.bypass_per_req", "count", "lower", "lat_ms.p99", "fleet_query"),
    l("bufpool.resident_mb", "MB", "lower", "peak_rss_mb", "fleet_query"),
    // bora-query
    l("query.prepare_us", "us", "lower", "lat_ms.p50", "fleet_query"),
    l("query.rows_returned_per_req", "count", "higher", "lat_ms.p50", "fleet_query"),
    // bora-serve
    l("serve.queue_wait_ms.mean", "ms", "lower", "lat_ms.p99", "fleet_query"),
    l("serve.service_ms.mean.query", "ms", "lower", "lat_ms.p50", "fleet_query"),
    l("serve.service_ms.mean.read_stream", "ms", "lower", "lat_ms.p50", "fleet_query"),
    l("serve.cache_hit_ratio", "ratio", "higher", "lat_ms.p50", "fleet_query"),
    l("serve.shed_per_req", "count", "lower", "fail_ratio", "fleet_query"),
    // bora-cluster
    l("cluster.router_ms_per_req", "ms", "lower", "lat_ms.p50", "fleet_query"),
    l("cluster.failovers_per_req", "count", "lower", "lat_ms.p99", "fleet_query"),
    l("cluster.retries_per_req", "count", "lower", "lat_ms.p99", "fleet_query"),
    // bora-ingest
    l("ingest.append_service_us.mean", "us", "lower", "append_lat_ms.p50", "live_ingest"),
    l("ingest.wal_fsyncs_per_1k", "count", "lower", "append_lat_ms.p50", "live_ingest"),
    l("ingest.seal_ms.mean", "ms", "lower", "append_lat_ms.p99", "live_ingest"),
    l("ingest.compact_ms.mean", "ms", "lower", "append_lat_ms.p99", "live_ingest"),
    l("ingest.compactions", "count", "higher", "append_lat_ms.p99", "live_ingest"),
    l("ingest.compact_bytes_per_user_byte", "ratio", "lower", "write_amp", "live_ingest"),
    l("ingest.snapshot_ms.mean", "ms", "lower", "lat_ms.p50", "live_ingest"),
    l("ingest.snapshot_read_ms.mean", "ms", "lower", "lat_ms.p50", "live_ingest"),
    l("ingest.gen_late_ms.max", "ms", "lower", "append_lat_ms.p99", "live_ingest"),
    l("ingest.gen_peak_backlog", "count", "lower", "append_lat_ms.p99", "live_ingest"),
    l("ingest.gen_behind", "count", "lower", "append_lat_ms.p99", "live_ingest"),
    // bora.organizer
    l("organizer.mb_per_s", "MB/s", "higher", "setup_s", "all"),
    // Self time per request of each layer's spans.
    l("self_ms_per_req.harness", "ms", "lower", "lat_ms.p50", "paper_scan"),
    l("self_ms_per_req.simfs", "ms", "lower", "lat_ms.p50", "paper_scan"),
    l("self_ms_per_req.container", "ms", "lower", "lat_ms.p50", "paper_scan"),
    l("self_ms_per_req.time_index", "ms", "lower", "lat_ms.p50", "paper_scan"),
    l("self_ms_per_req.stream", "ms", "lower", "lat_ms.p50", "paper_scan"),
    l("self_ms_per_req.serve", "ms", "lower", "lat_ms.p50", "fleet_query"),
    l("self_ms_per_req.cluster", "ms", "lower", "lat_ms.p50", "fleet_query"),
    l("self_ms_per_req.ingest", "ms", "lower", "append_lat_ms.p99", "live_ingest"),
    // Workload-specific end-to-end numbers, from the untraced half of
    // the traced run (they cannot be gated: on the other workloads they
    // are undefined).
    l("virt_ms.p50", "ms", "lower", "virt_ms.p50", "paper_scan"),
    l("wire_bytes_per_query", "B", "lower", "wire_bytes_per_query", "fleet_query"),
    l("append_per_s", "1/s", "higher", "append_per_s", "live_ingest"),
    l("append_lat_ms.p50", "ms", "lower", "append_lat_ms.p50", "live_ingest"),
    l("append_lat_ms.p99", "ms", "lower", "append_lat_ms.p99", "live_ingest"),
    l("write_amp", "ratio", "lower", "write_amp", "live_ingest"),
    l("fail_ratio", "ratio", "lower", "fail_ratio", "all"),
    // The harness itself.
    l("trace.overhead_ratio", "ratio", "lower", "lat_ms.p50", "all"),
    l("trace.residual_ratio", "ratio", "lower", "lat_ms.p50", "all"),
    l("trace.dropped", "count", "lower", "lat_ms.p50", "all"),
    l("trace.spans_per_req", "count", "lower", "lat_ms.p50", "all"),
];

/// Named values a workload produced, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name.to_owned(), v)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Whole-run activity of the process-global registry.
pub struct Delta(MetricsSnapshot);

impl Delta {
    pub fn since(before: &MetricsSnapshot) -> Delta {
        Delta(bora_obs::snapshot().delta_since(before))
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.0.counters.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v as f64)
    }

    pub fn hist(&self, name: &str) -> HistSummary {
        self.0.hists.iter().find(|(n, _)| n == name).map(|&(_, h)| h).unwrap_or_default()
    }
}

/// Current value of a process-global gauge, if it was ever set.
pub fn gauge(name: &str) -> Option<i64> {
    bora_obs::snapshot().gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// `VmHWM` of this process in MB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if v.is_finite() { *v } else { 0.0 };
        write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}").expect("string write");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json and the harness must name the same metrics.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names = json.matches("\"name\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len());
        for m in &END_TO_END {
            assert!(json.contains(&format!("\"name\": \"{}\"", m.name)), "{}", m.name);
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for w in crate::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[("lat_ms.p50", "ms", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"lat_ms.p50\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}

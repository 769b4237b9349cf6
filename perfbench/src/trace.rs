//! The traced pass: collect every span the run records, attribute each
//! to a layer, and compute self times.
//!
//! The benchmark opens its own spans (`perfbench.*`) around each call
//! into a layer's public functions; the spans the program already emits
//! nest under them: on the calling thread through the span stack, on
//! serve workers through the propagated trace context. Stream prefetch
//! runs on scoped threads that carry no context, so their spans arrive
//! as roots; they are attached to the `bora.stream.prefetch` span on
//! another thread whose interval contains them.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::report::{gauge, ratio, Delta, Values};
use crate::stats::self_time;

/// The benchmark's root span for one measured request.
pub const REQUEST: &str = "perfbench.request";

/// Layers whose self time the traced pass reports, in output order.
pub const LAYERS: [&str; 8] =
    ["harness", "simfs", "container", "time_index", "stream", "serve", "cluster", "ingest"];

/// A finished span, without the folded-stack path the exporter needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    pub name: &'static str,
    pub tid: u64,
    pub node: u32,
    pub start: u64,
    pub dur: u64,
    pub virt: Option<u64>,
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
}

impl Ev {
    pub fn end(&self) -> u64 {
        self.start + self.dur
    }
}

impl From<&bora_obs::SpanEvent> for Ev {
    fn from(e: &bora_obs::SpanEvent) -> Self {
        Ev {
            name: e.name,
            tid: e.tid,
            node: e.node,
            start: e.start_ns,
            dur: e.dur_ns,
            virt: e.virt_ns,
            trace: e.trace_id,
            id: e.span_id,
            parent: e.parent_span,
        }
    }
}

/// Which layer a span belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "bora.tindex.load" => "time_index",
        // The stream's own work: fill passes, and the merge that the
        // reading calls run on the calling thread.
        "bora.stream.prefetch"
        | "bora.read_topics_time"
        | "bora.read_topics"
        | "ingest.snapshot_read" => "stream",
        n if n.starts_with("perfbench.") => "harness",
        n if n.starts_with("fs.") => "simfs",
        n if n.starts_with("bora.open") => "container",
        n if n.starts_with("bora.organize") => "organizer",
        n if n.starts_with("serve.") => "serve",
        n if n.starts_with("cluster.") => "cluster",
        n if n.starts_with("ingest.") => "ingest",
        n if n.starts_with("rosbag.") => "rosbag",
        _ => "other",
    }
}

/// Everything a traced pass recorded.
pub struct Traced<R> {
    pub result: R,
    pub events: Vec<Ev>,
    /// Spans the program's rings overwrote during the pass. A traced run
    /// with any is invalid: its self times miss work.
    pub dropped: u64,
}

/// Run `f` with tracing on. A drainer thread empties the per-thread span
/// rings every few milliseconds so no ring overflows while a long call
/// (a compaction, an image aggregate) keeps its thread busy.
pub fn traced<R>(f: impl FnOnce() -> R) -> Traced<R> {
    bora_obs::drain();
    let dropped0 = bora_obs::dropped();
    let stop = AtomicBool::new(false);
    let events = Mutex::new(Vec::new());
    let sink = |evs: Vec<bora_obs::SpanEvent>| {
        let mut out = events.lock().expect("span sink poisoned");
        out.extend(evs.iter().map(Ev::from));
    };
    bora_obs::set_enabled(true);
    let result = std::thread::scope(|s| {
        let drainer = s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
                sink(bora_obs::drain());
            }
        });
        let r = f();
        stop.store(true, Ordering::SeqCst);
        drainer.join().expect("span drainer panicked");
        r
    });
    bora_obs::set_enabled(false);
    sink(bora_obs::drain());
    let mut events = events.into_inner().expect("span sink poisoned");
    events.sort_by_key(|e| (e.start, e.id));
    Traced { result, events, dropped: bora_obs::dropped() - dropped0 }
}

/// Per-name totals over a traced pass.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameAgg {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub virt_ns: u64,
}

/// Self-time attribution of a traced pass.
#[derive(Debug, Default)]
pub struct Analysis {
    pub by_name: HashMap<&'static str, NameAgg>,
    pub self_by_layer: BTreeMap<&'static str, u64>,
    /// Total duration of the root `perfbench.request` spans.
    pub request_ns: u64,
    /// Self time of the benchmark's own spans inside request trees: the
    /// part of request time no program layer accounts for.
    pub residual_ns: u64,
    /// Context-less spans attached to a containing prefetch pass, and
    /// those left as roots of their own.
    pub attached: u64,
    pub unattached: u64,
}

impl Analysis {
    pub fn name(&self, n: &str) -> NameAgg {
        self.by_name.get(n).copied().unwrap_or_default()
    }

    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.self_by_layer.get(layer).copied().unwrap_or(0)
    }
}

/// Attach context-less roots to a containing prefetch pass, then compute
/// every span's self time and sum it by name and by layer.
pub fn analyze(events: &[Ev]) -> Analysis {
    let index: HashMap<u64, usize> = events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();

    // Prefetch passes sorted by start, for containment lookups.
    let mut passes: Vec<usize> =
        (0..events.len()).filter(|&i| events[i].name == "bora.stream.prefetch").collect();
    passes.sort_by_key(|&i| events[i].start);
    let longest = passes.iter().map(|&i| events[i].dur).max().unwrap_or(0);

    let mut a = Analysis::default();
    let mut parent_of: Vec<Option<usize>> = vec![None; events.len()];
    for (i, e) in events.iter().enumerate() {
        if e.parent != 0 {
            parent_of[i] = index.get(&e.parent).copied();
            continue;
        }
        if e.name.starts_with("perfbench.") {
            continue;
        }
        // Latest-starting pass on another thread that contains the span.
        let upto = passes.partition_point(|&p| events[p].start <= e.start);
        let found = passes[..upto]
            .iter()
            .rev()
            .take_while(|&&p| events[p].start + longest >= e.start)
            .find(|&&p| events[p].tid != e.tid && events[p].end() >= e.end())
            .copied();
        match found {
            Some(p) => {
                parent_of[i] = Some(p);
                a.attached += 1;
            }
            None => a.unattached += 1,
        }
    }

    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); events.len()];
    for (i, p) in parent_of.iter().enumerate() {
        if let Some(p) = *p {
            children[p].push((events[i].start, events[i].end()));
        }
    }

    let request_traces: HashSet<u64> =
        events.iter().filter(|e| e.name == REQUEST && e.parent == 0).map(|e| e.trace).collect();
    for (i, e) in events.iter().enumerate() {
        let own = self_time(e.start, e.end(), &mut children[i]);
        let agg = a.by_name.entry(e.name).or_default();
        agg.count += 1;
        agg.dur_ns += e.dur;
        agg.self_ns += own;
        agg.virt_ns += e.virt.unwrap_or(0);
        *a.self_by_layer.entry(layer_of(e.name)).or_default() += own;
        if e.name == REQUEST && e.parent == 0 {
            a.request_ns += e.dur;
        }
        if e.name.starts_with("perfbench.") && request_traces.contains(&e.trace) {
            a.residual_ns += own;
        }
    }
    a
}

/// What a traced pass delivered, as the bases of its per-request ratios.
pub struct Delivered<'a> {
    pub requests: f64,
    /// Result rows and messages returned.
    pub rows: f64,
    /// Messages returned by a k-way merge (the heap-ops base).
    pub msgs: f64,
    /// Request latencies of the untraced and traced halves.
    pub untraced_ms: &'a [f64],
    pub traced_ms: &'a [f64],
}

/// The per-layer values every workload derives the same way from its
/// traced pass: registry deltas and span totals per request, layer self
/// times, the residual, dropped spans and the tracing overhead. Returns
/// the span analysis for the workload's own values.
pub fn set_common_layers(
    v: &mut Values,
    d: &Delta,
    events: &[Ev],
    dropped: u64,
    got: &Delivered,
) -> Analysis {
    let a = analyze(events);
    let n = got.requests.max(1.0);
    let fs_read = d.hist("fs.read.virt_ns");
    v.set("simfs.read_bytes_per_req", d.counter("fs.read.bytes") / n);
    v.set("simfs.read_ops_per_req", fs_read.count as f64 / n);
    v.set("simfs.read_virt_ms_per_req", fs_read.sum as f64 / 1e6 / n);
    v.set("simfs.self_ms_per_req", a.layer_self_ns("simfs") as f64 / 1e6 / n);
    v.set("container.open_us", a.name("bora.open").dur_ns as f64 / 1e3 / n);
    v.set("container.open_virt_us", a.name("bora.open").virt_ns as f64 / 1e3 / n);
    v.set("time_index.load_us", a.name("bora.tindex.load").dur_ns as f64 / 1e3 / n);
    v.set("stream.prefetch_ms_per_req", a.name("bora.stream.prefetch").dur_ns as f64 / 1e6 / n);
    v.set("stream.heap_ops_per_msg", ratio(d.counter("stream.merge.heap_ops"), got.msgs));
    v.set("stream.bytes_copied_per_req", d.counter("stream.bytes_copied") / n);
    v.set("block.decodes_per_req", d.counter("block.decode") / n);
    v.set("block.decode_mb_per_req", d.counter("block.decode_bytes") / 1e6 / n);
    v.set("block.decodes_per_row", ratio(d.counter("block.decode"), got.rows));
    let lookups = d.counter("pool.hit") + d.counter("pool.miss");
    v.set("bufpool.hit_ratio", ratio(d.counter("pool.hit"), lookups));
    v.set("bufpool.evictions_per_req", d.counter("pool.evict") / n);
    v.set("bufpool.bypass_per_req", d.counter("pool.bypass") / n);
    v.set("bufpool.resident_mb", gauge("pool.resident_bytes").unwrap_or(0) as f64 / 1e6);
    v.set("query.rows_returned_per_req", got.rows / n);
    for layer in LAYERS {
        v.set(&format!("self_ms_per_req.{layer}"), a.layer_self_ns(layer) as f64 / 1e6 / n);
    }
    v.set("trace.residual_ratio", ratio(a.residual_ns as f64, a.request_ns as f64));
    // Mean latency of each whole half. Both halves draw from the same
    // mix for the same time, so they cover it in like proportions, but
    // not request for request.
    let mean = |v: &[f64]| ratio(v.iter().sum::<f64>(), v.len() as f64);
    v.set("trace.overhead_ratio", ratio(mean(got.traced_ms), mean(got.untraced_ms)));
    v.set("trace.dropped", dropped as f64);
    v.set("trace.spans_per_req", events.len() as f64 / n);
    a
}

/// Write the spans as a Chrome `trace_event` file (one process lane per
/// node), loadable in Perfetto.
pub fn write_chrome(path: &std::path::Path, events: &[Ev], dropped: u64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"otherData\":{{\"dropped\":{dropped}}},\"traceEvents\":[")?;
    for (i, e) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{},\"parent\":{},\"trace\":{},\"virt_ns\":{}}}}}{sep}",
            e.name,
            e.node,
            e.tid,
            e.start as f64 / 1e3,
            e.dur as f64 / 1e3,
            e.id,
            e.parent,
            e.trace,
            e.virt.map_or("null".to_owned(), |v| v.to_string()),
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, id: u64, parent: u64, start: u64, dur: u64) -> Ev {
        Ev { name, tid, node: 0, start, dur, virt: None, trace: 1, id, parent }
    }

    #[test]
    fn prefetch_children_on_other_threads_are_attached_and_subtracted() {
        let events = vec![
            ev(REQUEST, 0, 1, 0, 0, 100),
            ev("bora.read_topics_time", 0, 2, 1, 10, 80),
            ev("bora.stream.prefetch", 0, 3, 2, 20, 40),
            // Two scoped prefetch threads, overlapping, no context.
            ev("fs.read_at", 7, 4, 0, 22, 20),
            ev("fs.read_at", 8, 5, 0, 30, 25),
        ];
        let a = analyze(&events);
        assert_eq!(a.attached, 2);
        assert_eq!(a.unattached, 0);
        // The pass covers [20, 60); its lanes cover [22, 55).
        assert_eq!(a.name("bora.stream.prefetch").self_ns, 40 - 33);
        assert_eq!(a.name("bora.read_topics_time").self_ns, 80 - 40);
        assert_eq!(a.layer_self_ns("simfs"), 45);
        assert_eq!(a.request_ns, 100);
        assert_eq!(a.residual_ns, 100 - 80);
    }

    #[test]
    fn server_spans_parent_under_the_client_across_threads() {
        let events = vec![
            ev(REQUEST, 0, 1, 0, 0, 100),
            ev("cluster.attempt", 0, 2, 1, 5, 90),
            // Worker thread adopted the client's context; the queue wait
            // and the op overlap nothing else.
            ev("serve.queue_wait", 3, 3, 2, 10, 10),
            ev("serve.query", 3, 4, 2, 20, 70),
        ];
        let a = analyze(&events);
        assert_eq!(a.name("cluster.attempt").self_ns, 90 - 80);
        assert_eq!(a.layer_self_ns("serve"), 80);
        assert_eq!(a.residual_ns, 10);
    }
}

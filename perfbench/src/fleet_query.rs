//! `fleet_query` — served declarative queries and streamed reads through
//! a 3-node in-process cluster.
//!
//! Several Handheld-SLAM containers with distinct seeds, organized into
//! LZSS blocks, are provisioned onto a `LocalCluster` (ring replication
//! 2, `MemTransport`). One client thread drives a `ClusterClient` with
//! the default config (primary routing, hedging off, so no request is
//! duplicated by timing) in a closed loop, picking containers
//! Zipf-skewed and requests from a fixed mix. It stresses block decode
//! and CRC, the buffer pool, the query operators, the serve queue and
//! wire codec, and the router; container open is bypassed once the
//! handle cache is warm.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bora::{BlockParams, OrganizerOptions};
use bora_cluster::{
    ClusterClient, ClusterClientConfig, ClusterTierConfig, LocalCluster, RingConfig,
};
use bora_query::{Row, Value};
use bora_serve::MemTransport;
use ros_msgs::Time;
use rosbag::{BagReader, MessageRecord};
use simfs::{ClusterStorage, IoCtx, MemStorage, Storage};
use workloads::tum::{generate_bag, topic, GenOptions};
use workloads::APPLICATIONS;

use crate::report::{ratio, Delta};
use crate::trace::{self, REQUEST};
use crate::{
    latencies, pass_lengths, storage_bytes, timed_setups, Args, Digest, Outcome, Rng, Rounds,
    Samples,
};

/// Containers in the fleet; container `k` has Zipf weight `1/(k+1)`.
const CONTAINERS: usize = 6;
/// Each container: a 24 s Handheld-SLAM recording, payloads shrunk 32x
/// (~55 MB).
const COUNT_SCALE: f64 = 0.5;
const PAYLOAD_SCALE: f64 = 1.0 / 32.0;
const NODES: u32 = 3;
/// Time windows: the four quarters of a recording for aggregates, and
/// four 5% slices for streamed reads.
const QUARTERS: usize = 4;
const STREAM_SLICE: f64 = 0.05;

type Client = ClusterClient<MemTransport<Arc<ClusterStorage>>>;

struct Fleet {
    cluster: LocalCluster<Arc<ClusterStorage>>,
    roots: Vec<String>,
    bag_bytes: u64,
    container_bytes: u64,
    organize_s: f64,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.cluster.shutdown();
    }
}

const BAG: &str = "/bags/robot.bag";

fn gen_options(seed: u64, k: usize) -> GenOptions {
    GenOptions {
        count_scale: COUNT_SCALE,
        payload_scale: PAYLOAD_SCALE,
        seed: seed.wrapping_mul(CONTAINERS as u64 + 1).wrapping_add(k as u64),
        ..Default::default()
    }
}

/// Generate and organize every container on a staging store (each source
/// bag is dropped once organized), then provision the cluster from it.
fn setup(seed: u64) -> Result<Fleet, String> {
    let staging = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut roots = Vec::new();
    let (mut bag_bytes, mut container_bytes, mut organize_s) = (0, 0, 0.0);
    let opts = OrganizerOptions { block: Some(BlockParams::default()), ..Default::default() };
    for k in 0..CONTAINERS {
        let root = format!("/fleet/robot{k}");
        bag_bytes += generate_bag(&staging, BAG, &gen_options(seed, k), &mut ctx)
            .map_err(|e| e.to_string())?
            .file_len;
        let t0 = Instant::now();
        bora::duplicate(&staging, BAG, &staging, &root, &opts, &mut ctx)
            .map_err(|e| format!("organize {root}: {e}"))?;
        organize_s += t0.elapsed().as_secs_f64();
        staging.remove_file(BAG, &mut ctx).map_err(|e| e.to_string())?;
        container_bytes += storage_bytes(&staging, &root)?;
        roots.push(root);
    }
    let cluster = LocalCluster::start(ClusterTierConfig {
        nodes: NODES,
        ring: RingConfig { replication: 2, ..Default::default() },
        ..Default::default()
    });
    let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    cluster.provision(&staging, &refs).map_err(|e| format!("provision: {e}"))?;
    Ok(Fleet { cluster, roots, bag_bytes, container_bytes, organize_s })
}

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Req {
    /// A declarative query on one container.
    Query { container: usize, sql: String },
    /// The fleet aggregate over every container (partial states).
    Fleet { sql: String },
    /// `read_stream_time` over an application's topics.
    Stream { container: usize, app: usize, slice: usize },
}

impl Req {
    fn container(&self) -> Option<usize> {
        match self {
            Req::Query { container, .. } | Req::Stream { container, .. } => Some(*container),
            Req::Fleet { .. } => None,
        }
    }
}

/// Recording span `[start, end)` in ns, the same for every container.
fn span() -> (u64, u64) {
    let start = GenOptions::default().start.as_nanos();
    (start, start + (workloads::tum::BASE_DURATION_S * COUNT_SCALE * 1e9) as u64)
}

fn secs(ns: u64) -> String {
    format!("{:.9}", ns as f64 / 1e9)
}

fn quarter(q: usize) -> (u64, u64) {
    let (lo, hi) = span();
    let w = (hi - lo) / QUARTERS as u64;
    (lo + w * q as u64, lo + w * (q as u64 + 1))
}

fn slice(i: usize) -> (u64, u64) {
    let (lo, hi) = span();
    let w = ((hi - lo) as f64 * STREAM_SLICE) as u64;
    let step = (hi - lo) / QUARTERS as u64;
    let s = lo + step * i as u64 + step / 3;
    (s, s + w)
}

/// The aggregate and filter statements, by mix slot and quarter.
fn statement(kind: usize, q: usize) -> String {
    let (a, b) = quarter(q);
    let (a, b) = (secs(a), secs(b));
    match kind {
        0 => format!(
            "SELECT window, count(), mean(angular_velocity.x), max(linear_acceleration.y) \
             FROM '/imu' WHERE time >= {a} AND time < {b} WINDOW 1s"
        ),
        1 => format!(
            "SELECT count(), mean(width), max(height), min(size) FROM '{}', '{}' \
             WHERE time >= {a} AND time < {b}",
            topic::DEPTH_IMAGE,
            topic::RGB_IMAGE
        ),
        2 => format!(
            "SELECT time, angular_velocity.x, linear_acceleration.z FROM '/imu' \
             WHERE time >= {a} AND angular_velocity.x > 4.0 LIMIT 100"
        ),
        3 => format!(
            "SELECT left.time, right.time FROM '/imu' JOIN '/tf' WITHIN 2ms \
             WHERE left.time >= {a} AND left.time < {b} LIMIT 200"
        ),
        // The fleet aggregate, run over every container at once.
        4 => format!(
            "SELECT window, count(), mean(angular_velocity.x), max(angular_velocity.z) \
             FROM '/imu' WHERE time >= {a} AND time < {b} WINDOW 2s"
        ),
        _ => unreachable!("five statement kinds"),
    }
}

/// Every distinct request the mix can issue.
fn all_requests() -> Vec<Req> {
    let mut out: Vec<Req> = (0..QUARTERS).map(|q| Req::Fleet { sql: statement(4, q) }).collect();
    for container in 0..CONTAINERS {
        for kind in 0..4 {
            for q in 0..QUARTERS {
                out.push(Req::Query { container, sql: statement(kind, q) });
            }
        }
        for app in 0..APPLICATIONS.len() {
            for slice in 0..QUARTERS {
                out.push(Req::Stream { container, app, slice });
            }
        }
    }
    out
}

/// Relative request weight of container `k`: Zipf with exponent 1,
/// rounded to whole requests per round.
const ZIPF: [usize; CONTAINERS] = [6, 3, 2, 2, 1, 1];
/// Mix slots: four single-container statements, the fleet aggregate and
/// a streamed read, equally often.
const KINDS: usize = 6;

/// The mix in rounds of (kind, quarter, container), containers weighted
/// by [`ZIPF`].
fn mix(seed: u64) -> Rounds<(usize, usize, usize)> {
    let mut set = Vec::new();
    for kind in 0..KINDS {
        for q in 0..QUARTERS {
            for (container, &w) in ZIPF.iter().enumerate() {
                set.extend(std::iter::repeat_n((kind, q, container), w));
            }
        }
    }
    Rounds::new(Rng::new(seed), set)
}

fn next_request(mix: &mut Rounds<(usize, usize, usize)>) -> Req {
    let (kind, q, container) = mix.draw();
    match kind {
        0..=3 => Req::Query { container, sql: statement(kind, q) },
        4 => Req::Fleet { sql: statement(4, q) },
        _ => {
            let app = mix.rng().below(APPLICATIONS.len() as u64) as usize;
            Req::Stream { container, app, slice: q }
        }
    }
}

fn app_topics(app: usize) -> Vec<&'static str> {
    // Pre-analysis picks its topics from a seed; fix it so the request
    // set stays finite.
    APPLICATIONS[app].topics(app as u64)
}

/// What a request returned, in a form cheap to compare in the loop.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Rows(Vec<Row>),
    /// Message count and a digest of (topic, time, length, edge bytes).
    Stream(u64, u64),
}

/// Execute one request; returns the answer plus (wire bytes, rows).
fn execute(client: &Client, roots: &[String], r: &Req) -> Result<(Answer, u64, u64), String> {
    match r {
        Req::Query { container, sql } => {
            let _sp = bora_obs::span("perfbench.query");
            let reply = client.query(&roots[*container], sql).map_err(|e| e.to_string())?;
            Ok((Answer::Rows(reply.rows), reply.wire_bytes, reply.rows_total))
        }
        Req::Fleet { sql } => {
            let _sp = bora_obs::span("perfbench.query_multi");
            let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
            let reply = client.query_multi(&refs, sql).map_err(|e| e.to_string())?;
            Ok((Answer::Rows(reply.rows), reply.wire_bytes, reply.rows_total))
        }
        Req::Stream { container, app, slice: i } => {
            let _sp = bora_obs::span("perfbench.read_stream_time");
            let (a, b) = slice(*i);
            let topics = app_topics(*app);
            let stream = client
                .read_stream_time(
                    &roots[*container],
                    &topics,
                    Time::from_nanos(a),
                    Time::from_nanos(b),
                )
                .map_err(|e| e.to_string())?;
            let mut d = Digest::default();
            for m in stream {
                let m = m.map_err(|e| e.to_string())?;
                d.add(&m.topic, m.time, &m.data);
            }
            Ok((Answer::Stream(d.count, d.hash), 0, d.count))
        }
    }
}

/// Rows equal, floats to a relative 1e-9 (a fleet mean sums partial
/// states in another order than the reference).
fn rows_match(a: &[Row], b: &[Row]) -> bool {
    let val = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| val(x, y)))
}

fn answers_match(got: &Answer, want: &Answer) -> bool {
    match (got, want) {
        (Answer::Rows(a), Answer::Rows(b)) => rows_match(a, b),
        _ => got == want,
    }
}

/// Reference answers computed from the source bags (generated again from
/// the seed, one at a time) with the rosbag baseline and
/// `bora_query::run_naive` — no container, block, pool, planner, wire or
/// router involved.
fn references(seed: u64) -> Result<HashMap<Req, Answer>, String> {
    let naive = |sql: &str, recs: &[MessageRecord], types: &HashMap<String, String>| {
        let p = bora_query::prepare(sql).map_err(|e| e.to_string())?;
        bora_query::run_naive(&p.query.stmt, recs, types)
            .map(|(_, rows)| rows)
            .map_err(|e| e.to_string())
    };
    let requests = all_requests();
    let mut out = HashMap::new();
    let mut imu = Vec::new();
    let mut datatypes = HashMap::new();
    for k in 0..CONTAINERS {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        generate_bag(&fs, BAG, &gen_options(seed, k), &mut ctx).map_err(|e| e.to_string())?;
        let reader = BagReader::open(&fs, BAG, &mut ctx).map_err(|e| e.to_string())?;
        let index = reader.index();
        for t in index.topics() {
            let conn = index.conn_for_topic(t).map_err(|e| e.to_string())?;
            let datatype = index.connection(conn).map(|c| c.datatype.clone()).unwrap_or_default();
            datatypes.insert(t.to_owned(), datatype);
        }
        imu.extend(reader.read_messages(&["/imu"], &mut ctx).map_err(|e| e.to_string())?);
        for r in requests.iter().filter(|r| r.container() == Some(k)) {
            let answer = match r {
                Req::Query { sql, .. } => {
                    let p = bora_query::prepare(sql).map_err(|e| e.to_string())?;
                    // Scan lanes include a join's right topic.
                    let topics: Vec<&str> = p.plan.scan.topics.iter().map(String::as_str).collect();
                    let recs =
                        reader.read_messages(&topics, &mut ctx).map_err(|e| e.to_string())?;
                    Answer::Rows(naive(sql, &recs, &datatypes)?)
                }
                Req::Stream { app, slice: i, .. } => {
                    let (a, b) = slice(*i);
                    let (a, b) = (Time::from_nanos(a), Time::from_nanos(b));
                    let recs = reader
                        .read_messages_time(&app_topics(*app), a, b, &mut ctx)
                        .map_err(|e| e.to_string())?;
                    let mut d = Digest::default();
                    for m in &recs {
                        d.add(&m.topic, m.time, &m.data);
                    }
                    Answer::Stream(d.count, d.hash)
                }
                Req::Fleet { .. } => unreachable!("fleet requests name no container"),
            };
            out.insert(r.clone(), answer);
        }
    }
    imu.sort_by_key(|m| m.time);
    for q in 0..QUARTERS {
        let sql = statement(4, q);
        let answer = Answer::Rows(naive(&sql, &imu, &datatypes)?);
        out.insert(Req::Fleet { sql }, answer);
    }
    Ok(out)
}

#[derive(Default)]
struct Pass {
    req: Samples,
    /// Process CPU clock when the pass started.
    cpu0: f64,
    failed: u64,
    wire_bytes: u64,
    queries: u64,
    rows: u64,
    stream_msgs: u64,
}

fn pass(f: &Fleet, client: &Client, refs: &HashMap<Req, Answer>, seed: u64, len: Duration) -> Pass {
    let mut mix = mix(seed);
    let mut p = Pass::default();
    let t0 = Instant::now();
    p.cpu0 = crate::process_cpu_s();
    while t0.elapsed() < len {
        let r = next_request(&mut mix);
        let t = Instant::now();
        let out = {
            let _req = bora_obs::span(REQUEST);
            execute(client, &f.roots, &r)
        };
        p.req.record(t0, t);
        match out {
            Ok((answer, wire, rows)) if answers_match(&answer, &refs[&r]) => {
                p.rows += rows;
                if let Req::Stream { .. } = r {
                    p.stream_msgs += rows;
                } else {
                    p.queries += 1;
                    p.wire_bytes += wire;
                }
            }
            _ => p.failed += 1,
        }
    }
    p
}

/// Per-node serve metrics summed over the fleet (each node's private
/// registry; process-global counters are read once from `bora_obs`).
#[derive(Default, Clone, Copy)]
struct NodeSums {
    queue_wait_ns: u64,
    queue_waits: u64,
    shed: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn node_sums(client: &Client) -> Result<NodeSums, String> {
    let mut s = NodeSums::default();
    for (id, report) in client.metrics_all() {
        let report = report.map_err(|e| format!("metrics node {id}: {e}"))?;
        if let Some(h) = report.hist("serve.queue_wait_ns") {
            s.queue_wait_ns += h.sum;
            s.queue_waits += h.count;
        }
        s.shed += report.counter("serve.shed");
        let stats = client.node_stats(id).map_err(|e| format!("stats node {id}: {e}"))?;
        s.cache_hits += stats.cache_hits;
        s.cache_misses += stats.cache_misses;
    }
    Ok(s)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (f, setup) = timed_setups(|| setup(args.seed))?;
    let refs = references(args.seed)?;
    let client = f.cluster.client(ClusterClientConfig::default());

    // Correctness outside the timed region: every distinct request of
    // the mix, once, against its reference. This also warms the handle
    // caches and the pools.
    let mut wrong = 0u64;
    for (r, want) in &refs {
        match execute(&client, &f.roots, r) {
            Ok((got, _, _)) if answers_match(&got, want) => {}
            Ok(_) => wrong += 1,
            Err(e) => return Err(format!("{r:?}: {e}")),
        }
    }

    let prepare_us = {
        let sqls: Vec<String> = (0..5).map(|k| statement(k, 0)).collect();
        let t = Instant::now();
        let reps = 200;
        for _ in 0..reps {
            for sql in &sqls {
                std::hint::black_box(
                    bora_query::prepare(std::hint::black_box(sql)).map_err(|e| e.to_string())?,
                );
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / (reps * sqls.len()) as f64
    };

    let (untraced_len, traced_len) = pass_lengths(args);
    let mut out = Outcome {
        values: Default::default(),
        attempted: refs.len() as u64,
        failed: wrong,
        notes: vec![format!(
            "{CONTAINERS} containers from {} B of bags, {} B blocked (LZSS 64 KiB); {NODES} nodes, \
             replication 2, 1 client thread, closed loop; {} distinct requests \
             checked against rosbag + run_naive, {wrong} differ",
            f.bag_bytes,
            f.container_bytes,
            refs.len()
        )],
        spans: Vec::new(),
    };

    let base = pass(&f, &client, &refs, args.seed, untraced_len);
    let lat = latencies(&base.req.lat_ms);
    let v = &mut out.values;
    // A block spans one round of the mix.
    let round = KINDS * QUARTERS * ZIPF.iter().sum::<usize>();
    crate::set_common(v, &setup, &base.req, untraced_len);
    v.set("cpu_ms_per_req", base.req.cpu_ms_per_req(base.cpu0, round));
    v.set("space_amp", f.container_bytes as f64 / f.bag_bytes as f64);
    v.set("wire_bytes_per_query", ratio(base.wire_bytes as f64, base.queries as f64));
    out.notes.push(format!(
        "untraced: {} requests, p99 over {} samples{}",
        lat.n,
        lat.n,
        if lat.p99_supported { "" } else { " (fewer than 10 beyond p99)" }
    ));
    out.attempted += base.req.count() as u64;
    out.failed += base.failed;

    if let Some(len) = traced_len {
        let before = bora_obs::snapshot();
        let nodes0 = node_sums(&client)?;
        let trace::Traced { result, events, dropped } =
            trace::traced(|| pass(&f, &client, &refs, args.seed, len));
        let d = Delta::since(&before);
        let nodes1 = node_sums(&client)?;
        let p = result;
        let n = p.req.count().max(1) as f64;
        let v = &mut out.values;
        let got = trace::Delivered {
            requests: n,
            rows: p.rows as f64,
            msgs: p.stream_msgs as f64,
            untraced_ms: &base.req.lat_ms,
            traced_ms: &p.req.lat_ms,
        };
        let a = trace::set_common_layers(v, &d, &events, dropped, &got);
        v.set("query.prepare_us", prepare_us);
        let waits = (nodes1.queue_waits - nodes0.queue_waits) as f64;
        let wait_ns = (nodes1.queue_wait_ns - nodes0.queue_wait_ns) as f64;
        v.set("serve.queue_wait_ms.mean", ratio(wait_ns, waits) / 1e6);
        for (op, span) in [("query", "serve.query"), ("read_stream", "serve.read_stream")] {
            let agg = a.name(span);
            v.set(
                &format!("serve.service_ms.mean.{op}"),
                ratio(agg.dur_ns as f64, agg.count as f64) / 1e6,
            );
        }
        let hits = (nodes1.cache_hits - nodes0.cache_hits) as f64;
        let lookups = hits + (nodes1.cache_misses - nodes0.cache_misses) as f64;
        v.set("serve.cache_hit_ratio", ratio(hits, lookups));
        v.set("serve.shed_per_req", (nodes1.shed - nodes0.shed) as f64 / n);
        let client_ns: f64 = p.req.lat_ms.iter().sum::<f64>() * 1e6;
        let service_ns = (a.name("serve.query").dur_ns + a.name("serve.read_stream").dur_ns) as f64;
        v.set("cluster.router_ms_per_req", (client_ns - wait_ns - service_ns) / 1e6 / n);
        v.set("cluster.failovers_per_req", d.counter("cluster.failover") / n);
        v.set("cluster.retries_per_req", d.counter("serve.retries") / n);
        v.set("organizer.mb_per_s", f.bag_bytes as f64 / 1e6 / f.organize_s);
        out.notes.push(format!(
            "traced: {} requests, {} spans ({} prefetch-thread spans attached, {} unattached); \
             pool hits {} misses {} evictions {}",
            p.req.count(),
            events.len(),
            a.attached,
            a.unattached,
            d.counter("pool.hit"),
            d.counter("pool.miss"),
            d.counter("pool.evict"),
        ));
        out.attempted += p.req.count() as u64;
        out.failed += p.failed;
        out.spans = events;
    }
    Ok(out)
}

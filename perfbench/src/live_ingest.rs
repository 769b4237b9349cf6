//! `live_ingest` — writes beside reads on one `IngestStore`, through the
//! library directly.
//!
//! Set-up creates the ingest root and loads a history into it (appends,
//! seals and one compaction at full speed); the live pass runs on top.
//! A writer thread appends a TUM-shaped IMU/TF/camera-info/image message
//! mix as an open loop at a fixed rate (latency timed from each
//! message's due time) and seals every [`SEAL_EVERY`] messages. A reader
//! thread, in a closed loop, takes a snapshot and reads the most recent
//! window, and every [`COMPACT_EVERY`] seals runs the compaction as the
//! background job. It exercises the block layer's write side (LZSS
//! encode during compaction), the WAL and seal, and the stream merge
//! over in-memory tails. Compaction holds the store lock, so its stalls
//! show in the append tail.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bora::{BlockParams, BufferPool};
use bora_ingest::{IngestConfig, IngestStore};
use ros_msgs::Time;
use rosbag::{BagReader, MessageRecord};
use simfs::{DeviceModel, IoCtx, MemStorage, TimedStorage};
use workloads::tum::{generate_bag, topic, GenOptions};

use crate::report::{ratio, Delta};
use crate::stats::{due_latency_ns, Lateness};
use crate::trace::{self, REQUEST};
use crate::{latencies, pass_lengths, storage_bytes, timed_setups, Args, Digest, Outcome, Samples};

type Fs = Arc<TimedStorage<MemStorage>>;

/// Appends per second, well under the closed-loop capacity so the
/// backlog a compaction stall builds drains before the next one.
const RATE: f64 = 1000.0;
const SEAL_EVERY: u64 = 1024;
const COMPACT_EVERY: u64 = 8;
/// Messages the store already holds when the live pass starts: the
/// first seals of the log, compacted once, loaded during set-up.
const HISTORY: usize = 8 * SEAL_EVERY as usize;
const ROOT: &str = "/live";
/// Pause between a reader's requests. The reader stays a closed loop but
/// no longer spins on every spare cycle, so the process CPU per read
/// measures work rather than how much CPU the host left idle.
const THINK: Duration = Duration::from_millis(1);
/// Reads cover the last quarter second of recording time.
const WINDOW_NS: u64 = 250_000_000;
/// The source recording: Handheld SLAM with payloads shrunk 32x, long
/// enough for the run at [`RATE`].
const PAYLOAD_SCALE: f64 = 1.0 / 32.0;
/// Messages of [`TOPICS`] in the base (2.9 GB) recording.
const BASE_MESSAGES: f64 = 46_500.0;
const TOPICS: [&str; 6] = [
    topic::IMU,
    topic::TF,
    topic::RGB_CAMERA_INFO,
    topic::DEPTH_CAMERA_INFO,
    topic::RGB_IMAGE,
    topic::DEPTH_IMAGE,
];
/// The writer is behind its schedule when, at the end of a pass, more
/// than this share of the messages due is still unsent.
const BEHIND_SHARE: f64 = 0.01;

/// The message log: [`HISTORY`] messages loaded in set-up, then the
/// ones the writer replays, with strictly increasing times.
struct Setup {
    log: Vec<MessageRecord>,
}

/// Generate the log from the seed. This is test data, not the program's
/// work, so it is not part of the timed set-up.
fn generate(seed: u64, seconds: f64) -> Result<Setup, String> {
    let fs = MemStorage::new();
    let mut ctx = IoCtx::new();
    let gen = GenOptions {
        count_scale: (seconds * RATE * 1.05 + HISTORY as f64) / BASE_MESSAGES,
        payload_scale: PAYLOAD_SCALE,
        seed,
        ..Default::default()
    };
    generate_bag(&fs, "/src.bag", &gen, &mut ctx).map_err(|e| e.to_string())?;
    let reader = BagReader::open(&fs, "/src.bag", &mut ctx).map_err(|e| e.to_string())?;
    let mut log = reader.read_messages(&TOPICS, &mut ctx).map_err(|e| e.to_string())?;
    // One writer, one global order: make times strictly increasing so a
    // time window selects exactly a slice of the log.
    let mut last = 0;
    for m in &mut log {
        let t = m.time.as_nanos().max(last + 1);
        m.time = Time::from_nanos(t);
        last = t;
    }
    if log.len() <= HISTORY {
        return Err(format!("{} messages generated, history needs {HISTORY}", log.len()));
    }
    Ok(Setup { log })
}

/// The timed set-up: create an ingest root on a fresh device and load
/// the log's history into it, sealing every [`SEAL_EVERY`] messages and
/// compacting once at the end (WAL, seal and LZSS encode).
fn setup(s: &Setup) -> Result<IngestStore<Fs>, String> {
    let fs = Arc::new(TimedStorage::new(MemStorage::new(), DeviceModel::nvme_ext4()));
    let mut ctx = IoCtx::new();
    let cfg = IngestConfig { block: Some(BlockParams::default()), ..Default::default() };
    let store = IngestStore::create(fs, ROOT, cfg, &mut ctx)
        .map_err(|e| e.to_string())?
        .with_pool(BufferPool::from_env());
    let history = |e: bora::BoraError| format!("history: {e}");
    for (k, m) in s.log[..HISTORY].iter().enumerate() {
        store.append(&m.topic, m.time, &m.data, &mut ctx).map_err(history)?;
        if (k as u64 + 1).is_multiple_of(SEAL_EVERY) {
            store.seal(&mut ctx).map_err(history)?;
        }
    }
    store.compact(&mut ctx).map_err(history)?;
    Ok(store)
}

/// What one snapshot read saw.
struct Read {
    start: u64,
    end: u64,
    digest: Digest,
}

#[derive(Default)]
struct Pass {
    /// Process CPU clock when the pass started and ended.
    cpu0: f64,
    cpu1: f64,
    read: Samples,
    snapshot_ms: Vec<f64>,
    reads: Vec<Read>,
    append_lat_ms: Vec<f64>,
    append_service_ns: u64,
    /// Messages appended by the pass (after the history), and their
    /// payload bytes.
    appended: u64,
    user_bytes: u64,
    due_at_end: u64,
    lateness: Lateness,
    seals: u64,
    compactions: u64,
    root_bytes: u64,
    /// The store's pool residency at the end of the pass, in bytes.
    pool_resident: i64,
    failed: u64,
    /// The final full read equals the appended log.
    final_ok: bool,
}

fn pass(s: &Setup, store: &IngestStore<Fs>, len: Duration) -> Result<Pass, String> {
    // Messages acknowledged so far, history included.
    let acked = AtomicU64::new(HISTORY as u64);
    let seals = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let period_ns = (1e9 / RATE) as u64;
    let (t0, cpu0) = (Instant::now(), crate::process_cpu_s());
    let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
    let len_ns = len.as_nanos() as u64;

    let (writer, reader) = std::thread::scope(|sc| {
        let writer = sc.spawn(|| {
            let run = || -> Result<Pass, String> {
                let mut p = Pass::default();
                let mut ctx = IoCtx::new();
                for (k, m) in s.log[HISTORY..].iter().enumerate() {
                    let k = k as u64;
                    let due = k * period_ns;
                    if due >= len_ns {
                        break;
                    }
                    let now = ns(Instant::now());
                    if now < due {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let issue = Instant::now();
                    p.lateness.issue(k, period_ns, ns(issue));
                    {
                        let _sp = bora_obs::span("perfbench.append");
                        store
                            .append(&m.topic, m.time, &m.data, &mut ctx)
                            .map_err(|e| e.to_string())?;
                    }
                    let end = Instant::now();
                    p.append_service_ns += end.duration_since(issue).as_nanos() as u64;
                    p.append_lat_ms.push(due_latency_ns(due, ns(end)) as f64 / 1e6);
                    p.user_bytes += m.data.len() as u64;
                    p.appended = k + 1;
                    acked.store(HISTORY as u64 + k + 1, Ordering::Release);
                    if (k + 1).is_multiple_of(SEAL_EVERY) {
                        let _sp = bora_obs::span("perfbench.seal");
                        store.seal(&mut ctx).map_err(|e| e.to_string())?;
                        seals.fetch_add(1, Ordering::Release);
                    }
                }
                let end = ns(Instant::now()).min(len_ns);
                p.due_at_end = (end / period_ns + 1).min((s.log.len() - HISTORY) as u64);
                Ok(p)
            };
            let result = run();
            // Stop the reader however the writer ended.
            done.store(true, Ordering::SeqCst);
            result
        });
        let reader = sc.spawn(|| -> Result<Pass, String> {
            let mut p = Pass::default();
            let mut ctx = IoCtx::new();
            let mut compacted_at = 0;
            while !done.load(Ordering::SeqCst) {
                let n = acked.load(Ordering::Acquire) as usize;
                // Everything up to message n-1 was acknowledged before the
                // snapshot, and later messages are later in time: the read
                // must return exactly the log's slice in the window.
                let end = s.log[n - 1].time.as_nanos() + 1;
                let begin = end.saturating_sub(WINDOW_NS);
                let t = Instant::now();
                let out = {
                    let _req = bora_obs::span(REQUEST);
                    let snap = {
                        let _sp = bora_obs::span("perfbench.snapshot");
                        store.snapshot(&mut ctx).map_err(|e| e.to_string())?
                    };
                    p.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let _sp = bora_obs::span("perfbench.read_time_range");
                    snap.read_time_range(
                        &TOPICS,
                        Time::from_nanos(begin),
                        Time::from_nanos(end),
                        &mut ctx,
                    )
                };
                p.read.record(t0, t);
                match out {
                    Ok(msgs) => {
                        let mut digest = Digest::default();
                        for m in &msgs {
                            digest.add(&m.topic, m.time, &m.data);
                        }
                        p.reads.push(Read { start: begin, end, digest });
                    }
                    Err(_) => p.failed += 1,
                }
                std::thread::sleep(THINK);
                let sealed = seals.load(Ordering::Acquire);
                if sealed >= compacted_at + COMPACT_EVERY {
                    let _sp = bora_obs::span("perfbench.compact");
                    store.compact(&mut ctx).map_err(|e| e.to_string())?;
                    p.compactions += 1;
                    compacted_at = sealed;
                }
            }
            Ok(p)
        });
        (writer.join().expect("writer panicked"), reader.join().expect("reader panicked"))
    });
    let cpu1 = crate::process_cpu_s();
    let (w, r) = (writer?, reader?);
    let mut p = Pass { seals: seals.load(Ordering::Acquire), cpu0, cpu1, ..w };
    p.read = r.read;
    p.snapshot_ms = r.snapshot_ms;
    p.reads = r.reads;
    p.compactions = r.compactions;
    p.failed = r.failed;

    // Outside the timed region: the root's size, and one full read that
    // must equal the appended log byte for byte.
    p.root_bytes = storage_bytes(store.storage(), ROOT)?;
    p.pool_resident = crate::report::gauge("pool.resident_bytes").unwrap_or(0);
    let mut ctx = IoCtx::new();
    let all = store
        .snapshot(&mut ctx)
        .and_then(|snap| snap.read_time_range(&TOPICS, Time::ZERO, Time::MAX, &mut ctx))
        .map_err(|e| e.to_string())?;
    let appended = &s.log[..HISTORY + p.appended as usize];
    p.final_ok = all.len() == appended.len()
        && all
            .iter()
            .zip(appended)
            .all(|(a, b)| a.topic == b.topic && a.time == b.time && a.data == b.data);
    Ok(p)
}

/// Snapshot reads whose digest differs from the log's slice in the same
/// window.
fn wrong_reads(s: &Setup, p: &Pass) -> u64 {
    p.reads
        .iter()
        .filter(|r| {
            let lo = s.log.partition_point(|m| m.time.as_nanos() < r.start);
            let hi = s.log.partition_point(|m| m.time.as_nanos() < r.end);
            let mut want = Digest::default();
            for m in &s.log[lo..hi] {
                want.add(&m.topic, m.time, &m.data);
            }
            want != r.digest
        })
        .count() as u64
}

/// The open-loop writer fell behind its schedule: its append latencies
/// describe the generator, not the store.
fn behind(p: &Pass) -> bool {
    (p.due_at_end - p.appended) as f64 > BEHIND_SHARE * p.due_at_end as f64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let s = generate(args.seed, args.seconds)?;
    let (store, setup_time) = timed_setups(|| setup(&s))?;
    let history_bytes: u64 = s.log[..HISTORY].iter().map(|m| m.data.len() as u64).sum();
    let (untraced_len, traced_len) = pass_lengths(args);
    let mut out = Outcome {
        values: Default::default(),
        attempted: 0,
        failed: 0,
        notes: vec![format!(
            "{} messages available, {HISTORY} loaded in set-up; writer open loop at {RATE}/s sealing every {SEAL_EVERY}, \
             reader closed loop over the last {} ms compacting every {COMPACT_EVERY} seals",
            s.log.len(),
            WINDOW_NS / 1_000_000
        )],
        spans: Vec::new(),
    };

    let before = bora_obs::snapshot();
    let base = pass(&s, &store, untraced_len)?;
    let base_delta = Delta::since(&before);
    drop(store);
    let check = |out: &mut Outcome, p: &Pass, label: &str| {
        let wrong = wrong_reads(&s, p);
        out.attempted += p.read.count() as u64 + p.appended + 1;
        out.failed += p.failed + wrong + u64::from(!p.final_ok);
        out.notes.push(format!(
            "{label}: {} reads ({wrong} wrong), {} appends, {} seals, {} compactions, final \
             read {}; generator late mean {:.3} ms max {:.1} ms, peak backlog {}{}",
            p.read.count(),
            p.appended,
            p.seals,
            p.compactions,
            if p.final_ok { "equals the log" } else { "DIFFERS from the log" },
            p.lateness.mean_late_ns() as f64 / 1e6,
            p.lateness.max_late_ns as f64 / 1e6,
            p.lateness.peak_backlog,
            if behind(p) { "; BEHIND schedule: append latencies invalid" } else { "" },
        ));
    };
    check(&mut out, &base, "untraced");
    let lat = latencies(&base.read.lat_ms);
    let append = latencies(&base.append_lat_ms);
    let v = &mut out.values;
    crate::set_common(v, &setup_time, &base.read, untraced_len);
    // Every append and every snapshot read is a request to the store, and
    // the whole pass is one block, so compaction is shared by all of
    // them. Counting reads alone would divide the writer's fixed work by
    // however many reads the host left time for.
    let requests = (base.read.count() as u64 + base.appended) as f64;
    v.set("cpu_ms_per_req", (base.cpu1 - base.cpu0) * 1e3 / requests);
    v.set("space_amp", ratio(base.root_bytes as f64, (history_bytes + base.user_bytes) as f64));
    v.set("append_per_s", base.appended as f64 / untraced_len.as_secs_f64());
    v.set("append_lat_ms.p50", append.p50);
    v.set("append_lat_ms.p99", append.p99);
    v.set("write_amp", ratio(base_delta.counter("fs.write.bytes"), base.user_bytes as f64));
    // How far the generator ran behind, beside the latencies it qualifies.
    v.set("ingest.gen_late_ms.max", base.lateness.max_late_ns as f64 / 1e6);
    v.set("ingest.gen_peak_backlog", base.lateness.peak_backlog as f64);
    v.set("ingest.gen_behind", f64::from(u8::from(behind(&base))));
    out.notes.push(format!(
        "untraced: read p99 over {} samples{}, append p99 over {} samples",
        lat.n,
        if lat.p99_supported { "" } else { " (fewer than 10 beyond p99)" },
        append.n
    ));

    if let Some(len) = traced_len {
        let store = setup(&s)?;
        let before = bora_obs::snapshot();
        let trace::Traced { result, events, dropped } = trace::traced(|| pass(&s, &store, len));
        let d = Delta::since(&before);
        let p = result?;
        check(&mut out, &p, "traced");
        let n = p.read.count().max(1) as f64;
        let appends = p.appended.max(1) as f64;
        let msgs: u64 = p.reads.iter().map(|r| r.digest.count).sum();
        let v = &mut out.values;
        let got = trace::Delivered {
            requests: n,
            rows: msgs as f64,
            msgs: msgs as f64,
            untraced_ms: &base.read.lat_ms,
            traced_ms: &p.read.lat_ms,
        };
        let a = trace::set_common_layers(v, &d, &events, dropped, &got);
        v.set("simfs.write_bytes_per_append", d.counter("fs.write.bytes") / appends);
        // The pool is dropped with the store; report it as the pass left it.
        v.set("bufpool.resident_mb", p.pool_resident as f64 / 1e6);
        v.set("stream.merge_ms_per_req", a.name("ingest.snapshot_read").self_ns as f64 / 1e6 / n);
        let compact = a.name("ingest.compact");
        v.set(
            "block.encode_mb_per_s",
            ratio(d.counter("compact.bytes") / 1e6, compact.dur_ns as f64 / 1e9),
        );
        v.set("ingest.append_service_us.mean", p.append_service_ns as f64 / 1e3 / appends);
        v.set("ingest.wal_fsyncs_per_1k", d.counter("wal.fsync") * 1000.0 / appends);
        let seal = a.name("ingest.seal");
        v.set("ingest.seal_ms.mean", ratio(seal.dur_ns as f64, seal.count as f64) / 1e6);
        v.set("ingest.compact_ms.mean", ratio(compact.dur_ns as f64, compact.count as f64) / 1e6);
        v.set("ingest.compactions", p.compactions as f64);
        v.set(
            "ingest.compact_bytes_per_user_byte",
            ratio(d.counter("compact.bytes"), p.user_bytes as f64),
        );
        v.set("ingest.snapshot_ms.mean", latencies(&p.snapshot_ms).mean);
        let sr = a.name("ingest.snapshot_read");
        v.set("ingest.snapshot_read_ms.mean", ratio(sr.dur_ns as f64, sr.count as f64) / 1e6);
        out.notes.push(format!(
            "traced: {} spans ({} prefetch-thread spans attached, {} unattached)",
            events.len(),
            a.attached,
            a.unattached
        ));
        out.spans = events;
    }
    Ok(out)
}

//! The query server: a bounded request queue feeding a worker pool.
//!
//! ```text
//!  client conns ──▶ submit() ──try_send──▶ [bounded queue] ──▶ worker 0..N
//!                      │                                          │
//!                      │ full? ◀── Response::Overloaded           ├─ HandleCache (pinned LRU)
//!                      └──────── reply channel ◀──────────────────┘
//! ```
//!
//! [`Server::submit`] is the one entry point: every request, with the
//! [`Header`] it arrived under, answers through an `emit` callback —
//! once for single-frame ops, once per frame for `READ` and `QUERY`.
//!
//! Backpressure is explicit: `submit` never blocks on a full queue — it
//! sheds the request with [`Response::Overloaded`] so the client decides
//! whether to retry. The control-plane ops (`METRICS`, `PING`, `TRACE`,
//! `SHUTDOWN`) bypass the queue entirely, which is what makes an
//! overloaded server observable: you can always ask it how overloaded
//! it is.
//!
//! Workers register with a [`simfs::ConcurrencyGauge`], so on cost-model
//! backends each request's virtual I/O time reflects how many workers
//! were actually competing for the device when it ran.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bora::{BoraError, BufferPool, StreamOptions};
use bora_ingest::IngestStore;
use bora_obs::TraceContext;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use ros_msgs::Time;
use simfs::{ConcurrencyGauge, IoCtx, Storage};

use crate::cache::HandleCache;
use crate::metrics::{Metrics, StatsSnapshot};
use crate::proto::{
    ContainerStat, ErrorCode, Header, MetricsReport, PingInfo, Request, Response, SlowOpEntry,
    WireMessage, METRICS_REPORT_VERSION,
};

/// Messages per [`Response::StreamChunk`] frame. Small enough that the
/// first result reaches the client while the merge is still running,
/// large enough that framing overhead stays negligible.
const STREAM_CHUNK_MSGS: usize = 32;

/// Rows per [`Response::QueryChunk`] frame. Query rows are a few scalar
/// cells each — far smaller than raw messages — so the batch can be
/// larger than [`STREAM_CHUNK_MSGS`] at the same framing overhead.
const QUERY_CHUNK_ROWS: usize = 64;

/// Bound of a streaming reply channel: how many frames the worker may run
/// ahead of the transport before it blocks. This is the server-side half
/// of end-to-end backpressure — a slow client throttles the merge instead
/// of buffering the whole result set in memory.
const STREAM_WINDOW: usize = 4;

/// Entries kept in the slow-op ring; older entries are dropped. Bounded
/// so an hour of pathological latency costs fixed memory, sized so the
/// ring still spans a useful tail when a scrape arrives.
const SLOW_OP_RING: usize = 128;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bound of the request queue; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Container handles kept open in the LRU cache.
    pub cache_capacity: usize,
    /// Stable identity of this server within a cluster, echoed by `PING`.
    /// 0 for a standalone deployment.
    pub server_id: u32,
    /// Ops whose total wall time (queue wait included) reaches this land
    /// in the slow-op ring reported by `METRICS`. 0 records every op.
    pub slow_op_threshold_ns: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 8,
            server_id: 0,
            slow_op_threshold_ns: 10_000_000, // 10 ms
        }
    }
}

enum Job {
    Work {
        req: Request,
        reply: Sender<Response>,
        submitted: Instant,
        /// Trace context the client sent, if any; the worker adopts it so
        /// its spans parent under the client's.
        tctx: Option<TraceContext>,
        /// `bora_obs::now_ns()` at submit when tracing is enabled, 0
        /// otherwise — start of the synthesized queue-wait span.
        submitted_ns: u64,
        /// Deadline budget (relative ns) the client propagated on the
        /// wire, if any. A worker that picks the job up after the budget
        /// is spent sheds it unworked.
        deadline_ns: Option<u64>,
    },
    /// Shutdown sentinel: one per worker.
    Poison,
}

struct Shared<S: Storage> {
    storage: S,
    cache: HandleCache<S>,
    /// Live ingest roots this server has opened, keyed by root path.
    /// Unlike the handle cache these are never evicted: an `IngestStore`
    /// owns the root's WAL shards and memtable, so there must be exactly
    /// one per root per process.
    ingests: Mutex<HashMap<String, Arc<IngestStore<S>>>>,
    metrics: Metrics,
    gauge: ConcurrencyGauge,
    shutting_down: AtomicBool,
    server_id: u32,
    started: Instant,
    /// Recent ops over the slow threshold, oldest first.
    slow_ops: Mutex<VecDeque<SlowOpEntry>>,
    slow_op_threshold_ns: u64,
}

/// A running bora-serve instance. Cheap to share via `Arc`; transports
/// call [`Server::submit`] once per decoded request.
pub struct Server<S: Storage> {
    shared: Arc<Shared<S>>,
    tx: Sender<Job>,
    queue_capacity: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: Storage + Clone + Send + Sync + 'static> Server<S> {
    /// Start the worker pool over `storage`.
    pub fn start(storage: S, config: ServerConfig) -> Arc<Self> {
        assert!(config.workers > 0, "need at least one worker");
        let (tx, rx) = channel::bounded::<Job>(config.queue_capacity.max(1));
        // One byte-budgeted pool for the whole process (sized by
        // `BORA_POOL_BYTES`): every handle the cache opens and every
        // ingest snapshot shares it, so total page memory has a single
        // knob regardless of how many containers are hot.
        let shared = Arc::new(Shared {
            storage,
            cache: HandleCache::new(config.cache_capacity).with_pool(BufferPool::from_env()),
            ingests: Mutex::new(HashMap::new()),
            metrics: Metrics::new(),
            gauge: ConcurrencyGauge::new(),
            shutting_down: AtomicBool::new(false),
            server_id: config.server_id,
            started: Instant::now(),
            slow_ops: Mutex::new(VecDeque::with_capacity(SLOW_OP_RING)),
            slow_op_threshold_ns: config.slow_op_threshold_ns,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx: Receiver<Job> = rx.clone();
                std::thread::Builder::new()
                    .name(format!("bora-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker")
            })
            .collect();
        Arc::new(Server {
            shared,
            tx,
            queue_capacity: config.queue_capacity.max(1),
            workers: Mutex::new(workers),
        })
    }

    /// Handle one request, delivering every response frame through `emit`.
    ///
    /// Control-plane ops answer inline with one frame. Data ops go through
    /// the bounded queue and may come back [`Response::Overloaded`]; a
    /// single-frame op emits its one reply, [`Request::Read`] emits zero
    /// or more [`Response::StreamChunk`] frames then [`Response::StreamEnd`]
    /// (or an error), and [`Request::Query`] emits schema, row chunks and
    /// [`Response::QueryEnd`]. The reply channel is bounded
    /// (`STREAM_WINDOW` frames): a transport that is slow to `emit` throttles
    /// the worker. `hdr` carries the client's trace context, which the
    /// worker adopts so its spans parent under the client's, and its
    /// deadline budget: a job whose queue wait already spent the budget
    /// is shed unworked.
    ///
    /// Returns `false` once `emit` does — the transport lost its client —
    /// at which point the in-flight answer is aborted server-side (the
    /// worker's next send fails and it drops the cache pin).
    pub fn submit(
        &self,
        req: Request,
        hdr: &Header,
        emit: &mut dyn FnMut(Response) -> bool,
    ) -> bool {
        let req = match req {
            // METRICS is control-plane for the same reason PING is: the
            // telemetry poller must see an overloaded node, not be shed
            // by it.
            Request::Metrics => return emit(Response::Metrics(self.metrics_report())),
            // The health tracker must hear from an overloaded server, and
            // the queue depth in the reply is the overload signal itself.
            Request::Ping => return emit(Response::Pong(self.ping())),
            // TRACE drains the process-wide span buffers inline so a
            // wedged pool can still be profiled. With tracing disabled
            // the document is just empty.
            Request::Trace => {
                return emit(Response::Trace(bora_obs::chrome_trace(
                    &bora_obs::drain(),
                    bora_obs::dropped(),
                )))
            }
            Request::Shutdown => {
                self.begin_shutdown();
                return emit(Response::ShuttingDown);
            }
            req => req,
        };
        if self.is_shutting_down() {
            return emit(Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is shutting down".into(),
            });
        }
        // Appends shed *before* reads: the queue admits them only while
        // less than half full, so a recording robot under a write burst
        // backs off while analysts' queries still land.
        if matches!(req, Request::Append { .. })
            && self.tx.len() >= (self.queue_capacity / 2).max(1)
        {
            self.shared.metrics.record_shed();
            bora_obs::counter("serve.append_shed").inc();
            return emit(Response::Overloaded);
        }
        let (reply_tx, reply_rx) = channel::bounded(STREAM_WINDOW);
        let job = Job::Work {
            req,
            reply: reply_tx,
            submitted: Instant::now(),
            tctx: hdr.trace,
            submitted_ns: obs_now(),
            deadline_ns: hdr.deadline_ns,
        };
        match self.tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.shared.metrics.record_shed();
                return emit(Response::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => {
                return emit(Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "worker pool stopped".into(),
                });
            }
        }
        loop {
            let Ok(resp) = reply_rx.recv() else {
                // Worker died without a terminal frame.
                return emit(Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "worker exited before replying".into(),
                });
            };
            let terminal = !resp.is_partial();
            if !emit(resp) {
                // Client is gone: dropping `reply_rx` makes the worker's
                // next send fail, aborting the answer and releasing its
                // cache pin.
                return false;
            }
            if terminal {
                return true;
            }
        }
    }

    /// Health-probe payload (`PING`): identity, uptime, live queue depth.
    pub fn ping(&self) -> PingInfo {
        PingInfo {
            server_id: self.shared.server_id,
            uptime_ns: self.shared.started.elapsed().as_nanos() as u64,
            queue_depth: self.tx.len() as u32,
        }
    }

    /// Declare which containers this server *owns* (vs merely replicates)
    /// under a cluster placement. Owned handles are evicted last — a
    /// burst of replica-read traffic (failover, hedges) cannot churn the
    /// owner's working set out of its own cache.
    pub fn set_owned_containers<I: IntoIterator<Item = String>>(&self, roots: I) {
        self.shared.cache.set_preferred(roots);
    }

    /// Current summary, including live queue depth and cache counters:
    /// the projection of [`Server::metrics_report`].
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::from_report(&self.metrics_report())
    }

    /// Versioned scrape payload (`METRICS`): the node's full metric
    /// registry plus its slow-op tail.
    pub fn metrics_report(&self) -> MetricsReport {
        let metrics = &self.shared.metrics;
        metrics.publish(self.shared.cache.stats(), self.tx.len(), self.queue_capacity);
        let snap = metrics.registry_snapshot();
        MetricsReport {
            version: METRICS_REPORT_VERSION,
            server_id: self.shared.server_id,
            uptime_ns: self.shared.started.elapsed().as_nanos() as u64,
            counters: snap.counters,
            gauges: snap.gauges,
            hists: snap.hists,
            slow_ops: self.shared.slow_ops.lock().iter().cloned().collect(),
        }
    }

    /// Set (or update) a latency objective for `op_name`; see
    /// [`Metrics::set_slo_target`].
    pub fn set_slo_target(&self, op_name: &str, target: bora_obs::SloTarget) {
        self.shared.metrics.set_slo_target(op_name, target);
    }

    /// Evaluate every registered SLO over its current window.
    pub fn slo_statuses(&self) -> Vec<bora_obs::SloStatus> {
        self.shared.metrics.slo_statuses()
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Outstanding cache pins on `container` (0 if not cached). Streaming
    /// reads hold a pin for the stream's lifetime; this makes that
    /// observable to tests and debugging tools.
    pub fn cache_pins(&self, container: &str) -> u32 {
        self.shared.cache.pins(container)
    }

    /// Stop accepting data requests and tell every worker to exit once the
    /// queue drains. Idempotent; does not join (see [`Server::shutdown`]).
    pub fn begin_shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let n = self.workers.lock().len();
        for _ in 0..n {
            // Blocking send: poisons queue behind any in-flight work.
            if self.tx.send(Job::Poison).is_err() {
                break;
            }
        }
    }

    /// `begin_shutdown` plus joining the workers.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl<S: Storage> Drop for Server<S> {
    fn drop(&mut self) {
        // Last Arc going away with workers possibly parked in `recv`:
        // poison and join so no worker thread outlives the server. The
        // blocking sends terminate because workers only ever drain the
        // queue. Idempotent after an explicit `shutdown()`.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let n = self.workers.lock().len();
        for _ in 0..n {
            if self.tx.send(Job::Poison).is_err() {
                break;
            }
        }
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// `bora_obs::now_ns()` when tracing is enabled, 0 otherwise — the
/// untraced hot path must not touch the clock.
fn obs_now() -> u64 {
    if bora_obs::enabled() {
        bora_obs::now_ns()
    } else {
        0
    }
}

fn worker_loop<S: Storage + Clone>(shared: &Shared<S>, rx: &Receiver<Job>) {
    // Lane convention: pid 0 is the client; servers are `server_id + 1`.
    bora_obs::set_thread_node(shared.server_id + 1);
    while let Ok(job) = rx.recv() {
        let (req, reply, submitted, tctx, submitted_ns, deadline_ns) = match job {
            Job::Poison => return,
            Job::Work { req, reply, submitted, tctx, submitted_ns, deadline_ns } => {
                (req, reply, submitted, tctx, submitted_ns, deadline_ns)
            }
        };
        // Control-plane ops never reach the queue: `submit` answers them
        // inline, so every op here has a metrics slot.
        //
        // Everything this request records now parents under the client's
        // span (a no-op guard when the request carried no context).
        let _trace = bora_obs::adopt_context(tctx);
        let queue_wait_ns = submitted.elapsed().as_nanos() as u64;
        shared.metrics.record_queue_wait(queue_wait_ns);
        if submitted_ns != 0 {
            // Synthesized after the fact: the submitting thread cannot
            // open a span that ends on this one.
            bora_obs::record_complete("serve.queue_wait", submitted_ns, queue_wait_ns);
        }
        // Deadline shed: if the client's budget was spent while the job
        // queued, answering with the real result would arrive at a caller
        // that already timed out — reply with the miss instead of burning
        // a worker on dead work.
        if let Some(budget) = deadline_ns {
            if queue_wait_ns >= budget {
                shared.metrics.record_shed();
                bora_obs::counter("serve.deadline_shed").inc();
                let _ = reply.send(Response::Error {
                    code: ErrorCode::DeadlineExceeded,
                    message: format!(
                        "deadline budget {budget}ns spent in queue ({queue_wait_ns}ns)"
                    ),
                });
                continue;
            }
        }
        let container = req.container().map(str::to_owned).unwrap_or_default();
        let active = shared.gauge.enter();
        let mut ctx = active.ctx();
        let op = req.op_name();
        let sp = bora_obs::span(span_name(op));
        // Streaming ops: chunk frames go out on `reply` as the merge
        // yields; the terminal frame (StreamEnd or error) is returned
        // and sent below, *after* the metrics record — so a client
        // that has consumed the stream is guaranteed to see the op
        // counted by a subsequent METRICS scrape.
        let resp = match req {
            Request::Read { ref container, ref topics, range } => {
                handle_stream(shared, container, topics, range, &reply, &mut ctx)
            }
            Request::Query { ref container, ref sql, partial } => {
                handle_query(shared, container, sql, partial, &reply, &mut ctx)
            }
            other => Some(handle(shared, other, &mut ctx)),
        };
        sp.end_virt(ctx.elapsed_ns());
        drop(active);
        let wall_ns = submitted.elapsed().as_nanos() as u64;
        shared.metrics.record(op, wall_ns, ctx.elapsed_ns());
        if wall_ns >= shared.slow_op_threshold_ns {
            let mut ring = shared.slow_ops.lock();
            if ring.len() == SLOW_OP_RING {
                ring.pop_front();
            }
            ring.push_back(SlowOpEntry {
                trace_id: tctx.map(|c| c.trace_id).unwrap_or(0),
                op: op.to_owned(),
                container,
                wall_ns: wall_ns - queue_wait_ns,
                queue_wait_ns,
                server_id: shared.server_id,
            });
        }
        // A client that gave up (dropped the reply receiver) is not an
        // error; the work is simply discarded.
        if let Some(resp) = resp {
            let _ = reply.send(resp);
        }
    }
}

/// Static span name for a data-plane op (span names must be `'static`).
fn span_name(op: &str) -> &'static str {
    match op {
        "open" => "serve.open",
        "topics" => "serve.topics",
        "meta" => "serve.meta",
        "read_stream" => "serve.read_stream",
        "query" => "serve.query",
        "append" => "serve.append",
        "seal" => "serve.seal",
        "stat" => "serve.stat",
        _ => "serve.other",
    }
}

/// Resolve `container` as a live ingest root, if it is one. The registry
/// holds the process's single `IngestStore` per root; a miss probes the
/// medium for the `.boraingest` marker and opens (recovering) on first
/// touch. Plain containers return `Ok(None)` and take the handle-cache
/// path.
fn ingest_for<S: Storage + Clone>(
    shared: &Shared<S>,
    container: &str,
    ctx: &mut IoCtx,
) -> Result<Option<Arc<IngestStore<S>>>, BoraError> {
    if let Some(st) = shared.ingests.lock().get(container) {
        return Ok(Some(Arc::clone(st)));
    }
    if !IngestStore::is_ingest_root(&shared.storage, container, ctx) {
        return Ok(None);
    }
    let mut store = IngestStore::open(shared.storage.clone(), container, ctx)?;
    if let Some(pool) = shared.cache.pool() {
        // Ingest snapshot reads draw pages from the same process-wide
        // pool as plain container handles.
        store = store.with_pool(Arc::clone(pool));
    }
    let opened = Arc::new(store);
    // Two workers may race the first open; the registry keeps whichever
    // inserted first and the loser's store is dropped unused.
    let mut reg = shared.ingests.lock();
    Ok(Some(Arc::clone(reg.entry(container.to_owned()).or_insert(opened))))
}

/// Serve a read over a live ingest root from an MVCC snapshot, chunked
/// into stream frames. The snapshot materializes the merge (memtable and
/// sealed segments are memory-resident anyway); byte-wise the result is
/// identical to the same query against the compacted container.
fn stream_snapshot<S: Storage + Clone>(
    store: &IngestStore<S>,
    topics: &[String],
    range: Option<(Time, Time)>,
    reply: &Sender<Response>,
    ctx: &mut IoCtx,
) -> Result<Option<Response>, BoraError> {
    let snap = store.snapshot(ctx)?;
    let refs: Vec<&str> = topics.iter().map(String::as_str).collect();
    let records = match range {
        Some((start, end)) => snap.read_time_range(&refs, start, end, ctx)?,
        None => snap.read_topics(&refs, ctx)?,
    };
    let total = records.len() as u64;
    let mut batch: Vec<WireMessage> = Vec::with_capacity(STREAM_CHUNK_MSGS);
    for rec in records {
        batch.push(WireMessage::from(rec));
        if batch.len() >= STREAM_CHUNK_MSGS
            && reply.send(Response::StreamChunk(std::mem::take(&mut batch))).is_err()
        {
            return Ok(None);
        }
    }
    if !batch.is_empty() && reply.send(Response::StreamChunk(batch)).is_err() {
        return Ok(None);
    }
    Ok(Some(Response::StreamEnd { messages: total }))
}

/// Run a [`Request::Read`], sending chunk frames on `reply` as the
/// k-way merge yields messages. The terminal frame ([`Response::StreamEnd`]
/// or an error) is *returned*, not sent: the worker loop sends it after
/// recording metrics, so the op is counted before any client can observe
/// stream completion. `None` means the receiver disappeared mid-stream
/// (client hung up, or `submit` returned early) and there is
/// nobody left to send a terminal frame to.
///
/// The cache pin (`pinned`) is held for the whole stream: a burst of
/// opens for other containers cannot evict the handle under an in-flight
/// stream. On hang-up the stream is aborted — the pin drops, and the
/// virtual time already spent is still folded into `ctx` so metrics stay
/// honest.
fn handle_stream<S: Storage + Clone>(
    shared: &Shared<S>,
    container: &str,
    topics: &[String],
    range: Option<(Time, Time)>,
    reply: &Sender<Response>,
    ctx: &mut IoCtx,
) -> Option<Response> {
    let result = (|| -> Result<Option<Response>, BoraError> {
        if let Some(store) = ingest_for(shared, container, ctx)? {
            return stream_snapshot(&store, topics, range, reply, ctx);
        }
        let pinned = shared.cache.get_or_open(&shared.storage, container, ctx)?;
        let refs: Vec<&str> = topics.iter().map(String::as_str).collect();
        let opts = StreamOptions::default();
        let mut stream = match range {
            Some((start, end)) => pinned.bag().stream_topics_time(&refs, start, end, opts, ctx)?,
            None => pinned.bag().stream_topics(&refs, opts, ctx)?,
        };
        let mut batch: Vec<WireMessage> = Vec::with_capacity(STREAM_CHUNK_MSGS);
        let mut total = 0u64;
        while let Some(msg) = stream.next_msg(ctx)? {
            batch.push(WireMessage::from(msg.to_record()));
            total += 1;
            if batch.len() >= STREAM_CHUNK_MSGS
                && reply.send(Response::StreamChunk(std::mem::take(&mut batch))).is_err()
            {
                stream.charge_into(ctx);
                return Ok(None);
            }
        }
        if !batch.is_empty() && reply.send(Response::StreamChunk(batch)).is_err() {
            return Ok(None);
        }
        Ok(Some(Response::StreamEnd { messages: total }))
    })();
    match result {
        Ok(terminal) => terminal,
        Err(e) => {
            if matches!(e, BoraError::ChecksumMismatch { .. }) && shared.cache.invalidate(container)
            {
                bora_obs::counter("serve.evict_checksum").inc();
            }
            Some(error_response(e))
        }
    }
}

/// Run a [`Request::Query`], sending the schema frame and row chunks on
/// `reply` as the cursor yields; the terminal frame ([`Response::QueryEnd`]
/// or an error) is *returned*, like [`handle_stream`]. A statement that
/// fails to compile answers [`ErrorCode::BadQuery`] with the caret
/// rendering — the client's mistake, the connection stays usable.
/// Storage failures mid-scan keep their existing wire categories (and
/// the checksum eviction policy) so retry layers treat a query exactly
/// like a read of the same container.
fn handle_query<S: Storage + Clone>(
    shared: &Shared<S>,
    container: &str,
    sql: &str,
    partial: bool,
    reply: &Sender<Response>,
    ctx: &mut IoCtx,
) -> Option<Response> {
    // Compile before touching storage.
    let p = match bora_query::prepare(sql) {
        Ok(p) => p,
        Err(e) => {
            bora_obs::counter("serve.bad_query").inc();
            return Some(Response::Error {
                code: ErrorCode::BadQuery,
                message: e.render_caret(sql),
            });
        }
    };
    let result = (|| -> Result<Option<Response>, bora_query::QueryError> {
        if let Some(store) = ingest_for(shared, container, ctx)? {
            // Live root: execute over an MVCC snapshot, with the plan's
            // pushed-down time range and topic set shaping the snapshot
            // read. Datatypes come from the pinned generation's meta; a
            // topic still tail-only has none yet and its fields read as
            // null until the next compaction.
            let snap = store.snapshot(ctx)?;
            let datatypes = snap.datatypes(ctx)?;
            let refs: Vec<&str> = p.plan.scan.topics.iter().map(String::as_str).collect();
            let records = match p.plan.scan.range {
                Some((lo, hi)) => snap.read_time_range(
                    &refs,
                    Time::from_nanos(lo.min(bora_query::MAX_TIME_NS)),
                    Time::from_nanos(hi.min(bora_query::MAX_TIME_NS)),
                    ctx,
                )?,
                None => snap.read_topics(&refs, ctx)?,
            };
            let mut cur = p.cursor_records(records, datatypes, partial)?;
            drain_query(&p, &mut cur, reply)
        } else {
            let pinned = shared.cache.get_or_open(&shared.storage, container, ctx)?;
            let mut cur = p.cursor_bag(pinned.bag(), partial, ctx)?;
            drain_query(&p, &mut cur, reply)
        }
    })();
    match result {
        Ok(terminal) => terminal,
        Err(e) => Some(match e.into_storage() {
            Ok(be) => {
                if matches!(be, BoraError::ChecksumMismatch { .. })
                    && shared.cache.invalidate(container)
                {
                    bora_obs::counter("serve.evict_checksum").inc();
                }
                error_response(be)
            }
            // Semantic failures surfaced at execution time (partial mode
            // on a non-aggregate statement, a bad wire blob) are still
            // the statement's fault.
            Err(qe) => {
                bora_obs::counter("serve.bad_query").inc();
                Response::Error { code: ErrorCode::BadQuery, message: qe.render_caret(sql) }
            }
        }),
    }
}

/// Stream one prepared query's answer: schema frame, then row chunks.
/// `EXPLAIN` renders the plan without executing; `EXPLAIN ANALYZE`
/// executes and streams rows like a plain query, then annotates the
/// plan with the observed operator counts in the terminal frame. `None`
/// means the client hung up mid-stream.
fn drain_query<S: Storage>(
    p: &bora_query::Prepared,
    cur: &mut bora_query::Cursor<'_, S>,
    reply: &Sender<Response>,
) -> Result<Option<Response>, bora_query::QueryError> {
    if reply.send(Response::QuerySchema(cur.columns())).is_err() {
        return Ok(None);
    }
    if p.explain_mode() == bora_query::ExplainMode::Plan {
        return Ok(Some(Response::QueryEnd {
            rows: 0,
            explain: bora_query::explain_text(p, None),
        }));
    }
    let mut batch: Vec<bora_query::Row> = Vec::with_capacity(QUERY_CHUNK_ROWS);
    let mut total = 0u64;
    while let Some(row) = cur.next_row()? {
        total += 1;
        batch.push(row);
        if batch.len() >= QUERY_CHUNK_ROWS {
            let frame = Response::QueryChunk(bora_query::encode_rows(&batch));
            batch.clear();
            if reply.send(frame).is_err() {
                return Ok(None);
            }
        }
    }
    if !batch.is_empty()
        && reply.send(Response::QueryChunk(bora_query::encode_rows(&batch))).is_err()
    {
        return Ok(None);
    }
    let explain = match p.explain_mode() {
        bora_query::ExplainMode::Analyze => bora_query::explain_text(p, Some(&cur.stats())),
        _ => String::new(),
    };
    Ok(Some(Response::QueryEnd { rows: total, explain }))
}

fn handle<S: Storage + Clone>(shared: &Shared<S>, req: Request, ctx: &mut IoCtx) -> Response {
    let container = req.container().map(str::to_owned);
    let result = (|| -> Result<Response, BoraError> {
        match &req {
            Request::Open { container } => {
                let pinned = shared.cache.get_or_open(&shared.storage, container, ctx)?;
                Ok(Response::Opened { stat: stat_of(pinned.bag().meta()), cached: pinned.was_hit })
            }
            Request::Topics { container } => {
                if let Some(store) = ingest_for(shared, container, ctx)? {
                    let mut topics = store.snapshot(ctx)?.topics(ctx)?;
                    topics.sort();
                    return Ok(Response::Topics(topics));
                }
                let pinned = shared.cache.get_or_open(&shared.storage, container, ctx)?;
                let mut topics: Vec<String> =
                    pinned.bag().topics().into_iter().map(str::to_owned).collect();
                topics.sort();
                Ok(Response::Topics(topics))
            }
            Request::Append { container, messages } => {
                let store = ingest_for(shared, container, ctx)?.ok_or_else(|| {
                    BoraError::NotAContainer(format!("{container}: not a live ingest root"))
                })?;
                for m in messages {
                    store.append(&m.topic, m.time, &m.data, ctx)?;
                }
                // The ack promises durability for the whole batch, so any
                // frames still parked in a group-commit buffer go down now.
                store.flush_wal(ctx)?;
                Ok(Response::Appended { appended: messages.len() as u64, epoch: store.epoch() })
            }
            Request::Seal { container, compact } => {
                let store = ingest_for(shared, container, ctx)?.ok_or_else(|| {
                    BoraError::NotAContainer(format!("{container}: not a live ingest root"))
                })?;
                store.seal(ctx)?;
                if *compact {
                    store.compact(ctx)?;
                }
                Ok(Response::Sealed {
                    epoch: store.epoch(),
                    sealed_segments: store.stat().sealed_batches as u32,
                })
            }
            Request::Meta { container } => {
                let pinned = shared.cache.get_or_open(&shared.storage, container, ctx)?;
                Ok(Response::Meta(pinned.bag().meta().encode()))
            }
            Request::Stat { container } => {
                let pinned = shared.cache.get_or_open(&shared.storage, container, ctx)?;
                Ok(Response::Stat(stat_of(pinned.bag().meta())))
            }
            // Streamed ops run in `handle_stream`/`handle_query`, and
            // control ops never reach a worker.
            Request::Read { .. }
            | Request::Query { .. }
            | Request::Metrics
            | Request::Trace
            | Request::Ping
            | Request::Shutdown => Ok(Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("{} is not a single-frame data op", req.op_name()),
            }),
        }
    })();
    match result {
        Ok(resp) => resp,
        Err(e) => {
            // A checksum failure means the cached handle (and its
            // quarantine state) may be poisoned or the medium changed
            // under us: evict so the next request reopens and re-verifies
            // from scratch instead of serving from a suspect handle.
            if matches!(e, BoraError::ChecksumMismatch { .. }) {
                if let Some(root) = &container {
                    if shared.cache.invalidate(root) {
                        bora_obs::counter("serve.evict_checksum").inc();
                    }
                }
            }
            error_response(e)
        }
    }
}

fn stat_of(meta: &bora::ContainerMeta) -> ContainerStat {
    ContainerStat {
        topics: meta.topics.len() as u32,
        messages: meta.message_count(),
        data_bytes: meta.data_bytes(),
        start: meta.start_time,
        end: meta.end_time,
    }
}

/// Map a [`BoraError`] to its wire-level category.
fn error_response(e: BoraError) -> Response {
    let code = match &e {
        BoraError::NotAContainer(_) => ErrorCode::NotAContainer,
        BoraError::UnknownTopic(_) => ErrorCode::UnknownTopic,
        BoraError::Corrupt(_) | BoraError::Wire(_) | BoraError::Bag(_) => ErrorCode::Corrupt,
        BoraError::ChecksumMismatch { .. } => ErrorCode::ChecksumMismatch,
        // A damaged topic in a degraded container needs repair, not a
        // retry: permanent from the client's point of view.
        BoraError::TopicDamaged(_) => ErrorCode::Corrupt,
        BoraError::Fs(_) => ErrorCode::Io,
    };
    Response::Error { code, message: e.to_string() }
}

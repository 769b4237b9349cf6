//! [`ClusterClient`]: the router frontend.
//!
//! Speaks the bora-serve wire protocol to every node, routes each
//! container op to the node(s) the [`Ring`] says hold it, and hides
//! node-level faults. Every routed request — a unary op, a hedge leg or
//! a stream leg — takes its replicas from one replica walk, and runs on
//! a connection leased from the node's [`NodeEndpoint`]:
//!
//! * **failover** — a transport fault, `Io`/`ChecksumMismatch` server
//!   error, or shutting-down node moves the request to the next replica
//!   (`cluster.failover` counts every such hop). Each hop after the
//!   first spends a token from the client's shared retry budget, except
//!   the hop after a failed breaker probe;
//! * **circuit breaking** — consecutive failures open a per-node
//!   [`CircuitBreaker`]; the walk asks it only when its node is about to
//!   be tried, skips an open node, and lets through its periodic probe;
//! * **hedging** — when the first leg's reply exceeds an adaptive
//!   threshold (EWMA of observed read latency × a factor), the same read
//!   is issued to the next replica the walk admits and the first answer
//!   wins. `cluster.hedge.issued` / `cluster.hedge.wins` export the win
//!   rate via bora-obs;
//! * **streaming failover** — [`ClusterStream`] resumes a broken
//!   `READ` on a replica by re-issuing the query and skipping the
//!   messages already delivered. The server-side merge order is
//!   deterministic (`(time, lane)` tie-break), and the stream receiver
//!   stops at the first missing frame, so the resumed stream is
//!   byte-identical to an unbroken one. An un-hedged `read` is such a
//!   stream, collected;
//! * **cluster-wide merge** — [`MergedStream`] k-way heap-merges the
//!   per-container streams of many nodes into one chronological stream,
//!   the same merge shape the server uses per container.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use bora_serve::{
    ClientError, ClientResult, ErrorCode, MetricsReport, PingInfo, QueryReply, RetryBudget,
    RetryBudgetConfig, ServeClient, StatsSnapshot, Transport, WireMessage,
};
use crossbeam::channel::{self, RecvTimeoutError};
use ros_msgs::Time;

use crate::health::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::ring::{NodeId, Ring};

/// How multi-replica reads pick a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Owner first, replicas only on failover (and as hedge targets).
    /// Maximizes per-node cache locality.
    #[default]
    Primary,
    /// Least-loaded healthy replica holder (in-flight count, round-robin
    /// tie-break). Spreads hot containers over their whole replica set —
    /// the policy that converts replication into read throughput.
    Spread,
}

/// Hedged-request knobs.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Floor for the hedge trigger (protects cold-start, when the EWMA
    /// has seen nothing).
    pub min_threshold: Duration,
    /// Trigger = `max(min_threshold, factor × EWMA(read latency))`.
    pub factor: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { min_threshold: Duration::from_micros(500), factor: 3.0 }
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct ClusterClientConfig {
    pub policy: RoutePolicy,
    /// `Some` enables hedged reads (only meaningful with ≥ 2 replicas).
    pub hedge: Option<HedgeConfig>,
    pub breaker: BreakerConfig,
    /// Per-request deadline budget stamped on every routed request (the
    /// request header's deadline), so servers shed work that expired in their
    /// queues. `None` sends deadline-free requests.
    pub deadline: Option<Duration>,
    /// Token-bucket budget shared by every failover hop and stream
    /// resume this client performs ([`RetryBudgetConfig`]): when a
    /// correlated outage empties the bucket, requests fail fast on their
    /// first error instead of walking the whole replica set. Hedges are
    /// exempt — a hedge fires because the primary is *slow*, not failed,
    /// and throttling it would re-create the tail-latency problem
    /// hedging exists to solve. `None` disables the budget.
    pub retry_budget: Option<RetryBudgetConfig>,
}

impl Default for ClusterClientConfig {
    fn default() -> Self {
        ClusterClientConfig {
            policy: RoutePolicy::default(),
            hedge: None,
            breaker: BreakerConfig::default(),
            deadline: None,
            retry_budget: Some(RetryBudgetConfig::default()),
        }
    }
}

/// One node as the router sees it: a transport, a bounded connection
/// pool, health state, and an in-flight gauge for load-aware routing.
///
/// Every request the router sends — unary, hedge leg or stream leg —
/// runs between one `lease` and one `finish`, so pool, breaker and
/// gauge have one owner.
pub struct NodeEndpoint<T: Transport> {
    pub id: NodeId,
    transport: T,
    pool: Mutex<Vec<ServeClient<T::Conn>>>,
    breaker: Mutex<CircuitBreaker>,
    inflight: AtomicUsize,
    /// Deadline budget stamped on every request through this endpoint.
    deadline: Option<Duration>,
}

/// Connections kept per node beyond which returned ones are dropped.
const POOL_MAX: usize = 8;

/// How an attempt on a leased connection ended.
enum Outcome {
    /// The node answered — a result or an application error — and the
    /// connection is request-aligned, so it goes back to the pool.
    Answered,
    /// A failover-worthy fault: the connection may be desynchronized and
    /// is dropped.
    Failed,
    /// The caller hung up mid-answer. The dropped connection tells the
    /// server to abort its merge; `answered` says whether the node had
    /// delivered anything before.
    Abandoned { answered: bool },
}

impl<T: Transport> NodeEndpoint<T> {
    fn new(id: NodeId, transport: T, breaker: BreakerConfig, deadline: Option<Duration>) -> Self {
        NodeEndpoint {
            id,
            transport,
            pool: Mutex::new(Vec::new()),
            breaker: Mutex::new(CircuitBreaker::new(breaker)),
            inflight: AtomicUsize::new(0),
            deadline,
        }
    }

    /// Take a pooled (or fresh) connection and count it in flight until
    /// `finish`, which also takes back the breaker's failure count at
    /// lease time. A failed connect counts against the breaker.
    fn lease(&self) -> ClientResult<(ServeClient<T::Conn>, u64)> {
        let pooled = self.pool.lock().unwrap().pop();
        let mut client = match pooled {
            Some(c) => c,
            None => match self.transport.connect() {
                Ok(conn) => ServeClient::new(conn),
                Err(e) => {
                    self.breaker.lock().unwrap().on_failure();
                    return Err(e.into());
                }
            },
        };
        client.set_deadline(self.deadline);
        self.inflight.fetch_add(1, Ordering::Relaxed);
        Ok((client, self.breaker.lock().unwrap().failures()))
    }

    /// End a leased attempt: settle the in-flight gauge, tell the breaker
    /// how the node did, and pool the connection if it is still aligned.
    fn finish(&self, client: ServeClient<T::Conn>, since: u64, outcome: Outcome) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        let mut breaker = self.breaker.lock().unwrap();
        match outcome {
            Outcome::Answered => {
                breaker.on_success(since);
                drop(breaker);
                let mut pool = self.pool.lock().unwrap();
                if pool.len() < POOL_MAX {
                    pool.push(client);
                }
            }
            Outcome::Failed => breaker.on_failure(),
            Outcome::Abandoned { answered: true } => breaker.on_success(since),
            Outcome::Abandoned { answered: false } => breaker.on_abandon(),
        }
    }

    /// One unary request: lease, run `op`, finish.
    fn attempt<R>(
        &self,
        op: impl FnOnce(&mut ServeClient<T::Conn>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        let (mut client, since) = self.lease()?;
        let res = op(&mut client);
        let failed = matches!(&res, Err(e) if should_failover(e));
        self.finish(client, since, if failed { Outcome::Failed } else { Outcome::Answered });
        res
    }

    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().unwrap().state()
    }
}

/// A replica a `ReplicaWalk` admitted; `probe` marks its breaker's
/// single HalfOpen probe.
struct Hop<T: Transport> {
    ep: Arc<NodeEndpoint<T>>,
    probe: bool,
}

/// One routed request's walk over its container's replicas — the only
/// place the router picks a node, for unary calls, hedge legs and
/// stream legs alike.
///
/// The walk follows ring (or `Spread`) order and asks a breaker only
/// when its node is about to be tried: `allow` turns the
/// `probe_interval`-th denial into the node's one probe, so admission
/// is never precomputed over the whole set. If every breaker denies, the
/// walk makes one pass that ignores them — a fully-tripped cluster must
/// still probe its way back.
struct ReplicaWalk<T: Transport> {
    eps: Vec<Arc<NodeEndpoint<T>>>,
    next: usize,
    /// The breaker-ignoring pass is running.
    forced: bool,
    /// A hop was admitted.
    started: bool,
    budget: Option<Arc<Mutex<RetryBudget>>>,
}

impl<T: Transport> ReplicaWalk<T> {
    /// The next replica to try, without touching the retry budget (the
    /// first hop and hedges); `None` once the walk is exhausted.
    fn hop(&mut self) -> Option<Hop<T>> {
        loop {
            while let Some(ep) = self.eps.get(self.next) {
                self.next += 1;
                let probe = if self.forced {
                    false
                } else {
                    let mut breaker = ep.breaker.lock().unwrap();
                    if !breaker.allow() {
                        continue;
                    }
                    breaker.state() == BreakerState::HalfOpen
                };
                self.started = true;
                return Some(Hop { ep: Arc::clone(ep), probe });
            }
            if self.forced || self.started {
                return None;
            }
            self.forced = true;
            self.next = 0;
        }
    }

    /// The hop after a failover-worthy `err`, counted in
    /// `cluster.failover`. It spends a retry-budget token, so with the
    /// bucket empty the error surfaces instead of every caller walking
    /// the replica set. The hop after a failed breaker probe is exempt,
    /// as hedges are: the breaker already limits probes to one per
    /// `probe_interval`, and charging them would let a dead replica
    /// drain the bucket one probe at a time. Returns `err` when the walk
    /// is exhausted or the budget denies.
    fn failover(&mut self, after_probe: bool, err: ClientError) -> ClientResult<Hop<T>> {
        let Some(hop) = self.hop() else { return Err(err) };
        let denied =
            !after_probe && self.budget.as_ref().is_some_and(|b| !b.lock().unwrap().try_spend());
        if denied {
            if hop.probe {
                hop.ep.breaker.lock().unwrap().on_abandon();
            }
            bora_obs::counter("cluster.retry_budget_denied").inc();
            return Err(err);
        }
        bora_obs::counter("cluster.failover").inc();
        Ok(hop)
    }

    /// The request succeeded: earn back a fraction of a budget token.
    fn on_success(&self) {
        if let Some(b) = &self.budget {
            b.lock().unwrap().on_success();
        }
    }
}

/// Should this error move the request to another replica? Transient
/// faults (transport, `Io`, `ChecksumMismatch`, overload, desync) and a
/// node that is shutting down; permanent application errors (unknown
/// topic, not a container, corrupt) answer the same everywhere.
pub fn should_failover(e: &ClientError) -> bool {
    e.is_transient() || matches!(e, ClientError::Server { code: ErrorCode::ShuttingDown, .. })
}

/// A statement the router itself cannot compile maps to the same wire
/// error a node would have answered with — callers see one error shape
/// whether the fault is caught router-side or node-side.
fn bad_query(e: bora_query::QueryError) -> ClientError {
    ClientError::Server { code: ErrorCode::BadQuery, message: e.to_string() }
}

fn no_nodes(container: &str) -> ClientError {
    ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("no replica holds {container}"),
    ))
}

/// The router. Cheap to share per thread via its own instance — all
/// state (pools, breakers, EWMA) lives behind `Arc`, so `clone` yields a
/// handle onto the same cluster view.
pub struct ClusterClient<T: Transport> {
    ring: Arc<RwLock<Ring>>,
    nodes: BTreeMap<NodeId, Arc<NodeEndpoint<T>>>,
    cfg: ClusterClientConfig,
    /// EWMA of successful read wall latency, nanoseconds.
    ewma_ns: Arc<Mutex<f64>>,
    rr: Arc<AtomicUsize>,
    /// Shared failover/retry token bucket (see
    /// [`ClusterClientConfig::retry_budget`]); shared across clones so
    /// every handle onto the cluster draws from one budget.
    budget: Option<Arc<Mutex<RetryBudget>>>,
}

impl<T: Transport> Clone for ClusterClient<T> {
    fn clone(&self) -> Self {
        ClusterClient {
            ring: Arc::clone(&self.ring),
            nodes: self.nodes.clone(),
            cfg: self.cfg.clone(),
            ewma_ns: Arc::clone(&self.ewma_ns),
            rr: Arc::clone(&self.rr),
            budget: self.budget.clone(),
        }
    }
}

impl<T> ClusterClient<T>
where
    T: Transport + Send + Sync + 'static,
{
    /// Build a router over `(node id, transport)` pairs sharing `ring`.
    /// The ring is shared (not snapshotted) so membership changes made
    /// by the cluster control plane are visible to live clients.
    pub fn new(
        ring: Arc<RwLock<Ring>>,
        endpoints: impl IntoIterator<Item = (NodeId, T)>,
        cfg: ClusterClientConfig,
    ) -> Self {
        let nodes = endpoints
            .into_iter()
            .map(|(id, t)| (id, Arc::new(NodeEndpoint::new(id, t, cfg.breaker, cfg.deadline))))
            .collect();
        let budget = cfg.retry_budget.map(|b| Arc::new(Mutex::new(RetryBudget::new(b))));
        ClusterClient {
            ring,
            nodes,
            cfg,
            ewma_ns: Arc::new(Mutex::new(0.0)),
            rr: Arc::new(AtomicUsize::new(0)),
            budget,
        }
    }

    /// `(tokens banked, retries denied)` of the shared retry budget, if
    /// one is configured.
    pub fn retry_budget_stats(&self) -> Option<(f64, u64)> {
        self.budget.as_ref().map(|b| {
            let b = b.lock().unwrap();
            (b.tokens(), b.denied())
        })
    }

    pub fn ring(&self) -> Arc<RwLock<Ring>> {
        Arc::clone(&self.ring)
    }

    pub fn replicas(&self, container: &str) -> Vec<NodeId> {
        self.ring.read().unwrap().replicas(container)
    }

    pub fn owner(&self, container: &str) -> Option<NodeId> {
        self.ring.read().unwrap().owner(container)
    }

    /// Start a walk over `container`'s replicas in attempt order under
    /// the configured policy, with its first hop admitted.
    fn walk(&self, container: &str) -> ClientResult<(ReplicaWalk<T>, Hop<T>)> {
        let mut eps = self.ring_ordered(container);
        if matches!(self.cfg.policy, RoutePolicy::Spread) && eps.len() > 1 {
            let rr = self.rr.fetch_add(1, Ordering::Relaxed) % eps.len();
            eps.rotate_left(rr);
            // Stable sort: the rotation above breaks in-flight ties
            // round-robin instead of always favouring the lowest id.
            eps.sort_by_key(|ep| ep.inflight.load(Ordering::Relaxed));
        }
        let mut walk = ReplicaWalk {
            eps,
            next: 0,
            forced: false,
            started: false,
            budget: self.budget.clone(),
        };
        let first = walk.hop().ok_or_else(|| no_nodes(container))?;
        Ok((walk, first))
    }

    /// Try `op` on each replica the walk admits until one answers.
    fn with_failover<R>(
        &self,
        container: &str,
        mut op: impl FnMut(&mut ServeClient<T::Conn>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        let (mut walk, mut hop) = self.walk(container)?;
        loop {
            // One span per attempt: in a merged trace, failover shows up
            // as sibling attempt spans, the abandoned ones marked
            // cancelled. Server-side spans parent under the attempt
            // (roundtrip propagates the innermost open span).
            let sp = bora_obs::span("cluster.attempt");
            match hop.ep.attempt(&mut op) {
                Ok(v) => {
                    sp.end();
                    walk.on_success();
                    return Ok(v);
                }
                Err(e) if should_failover(&e) => {
                    sp.cancel();
                    hop = walk.failover(hop.probe, e)?;
                }
                Err(e) => {
                    sp.end();
                    return Err(e);
                }
            }
        }
    }

    pub fn open(&self, container: &str) -> ClientResult<bora_serve::ContainerStat> {
        let _sp = bora_obs::span("cluster.open");
        self.with_failover(container, |c| c.open(container).map(|(stat, _)| stat))
    }

    pub fn topics(&self, container: &str) -> ClientResult<Vec<String>> {
        let _sp = bora_obs::span("cluster.topics");
        self.with_failover(container, |c| c.topics(container))
    }

    pub fn meta(&self, container: &str) -> ClientResult<Vec<u8>> {
        let _sp = bora_obs::span("cluster.meta");
        self.with_failover(container, |c| c.meta(container))
    }

    pub fn stat(&self, container: &str) -> ClientResult<bora_serve::ContainerStat> {
        let _sp = bora_obs::span("cluster.stat");
        self.with_failover(container, |c| c.stat(container))
    }

    /// Replica endpoints in *ring order* (owner first, no load-aware
    /// rotation) — the deterministic order write fan-out uses.
    fn ring_ordered(&self, container: &str) -> Vec<Arc<NodeEndpoint<T>>> {
        let replicas = self.ring.read().unwrap().replicas(container);
        replicas.iter().filter_map(|id| self.nodes.get(id)).map(Arc::clone).collect()
    }

    /// Append live messages to `container`'s ingest root on **every**
    /// replica the ring assigns it. Writes do not fail over — replication
    /// *is* writing to all holders — and all must ack before the call
    /// returns: a node that cannot take the batch fails the append, so a
    /// reader served by any replica sees the same data. Returns the
    /// owner's `(appended, epoch)`.
    pub fn append(&self, container: &str, messages: &[WireMessage]) -> ClientResult<(u64, u64)> {
        let _sp = bora_obs::span("cluster.append");
        let eps = self.ring_ordered(container);
        if eps.is_empty() {
            return Err(no_nodes(container));
        }
        let mut owner_ack = None;
        for ep in &eps {
            let ack = ep.attempt(|c| c.append(container, messages.to_vec()))?;
            owner_ack.get_or_insert(ack);
            bora_obs::counter("cluster.append.replica_acks").inc();
        }
        Ok(owner_ack.expect("non-empty replica set acked"))
    }

    /// Seal (and optionally compact) `container`'s ingest root on every
    /// replica. Same all-must-ack contract as [`ClusterClient::append`].
    /// Returns the owner's `(epoch, sealed_segments)`.
    pub fn seal(&self, container: &str, compact: bool) -> ClientResult<(u64, u32)> {
        let _sp = bora_obs::span("cluster.seal");
        let eps = self.ring_ordered(container);
        if eps.is_empty() {
            return Err(no_nodes(container));
        }
        let mut owner_ack = None;
        for ep in &eps {
            let ack = ep.attempt(|c| c.seal(container, compact))?;
            owner_ack.get_or_insert(ack);
        }
        Ok(owner_ack.expect("non-empty replica set acked"))
    }

    pub fn read(&self, container: &str, topics: &[&str]) -> ClientResult<Vec<WireMessage>> {
        self.read_inner(container, topics, None)
    }

    pub fn read_time(
        &self,
        container: &str,
        topics: &[&str],
        start: Time,
        end: Time,
    ) -> ClientResult<Vec<WireMessage>> {
        self.read_inner(container, topics, Some((start, end)))
    }

    fn read_inner(
        &self,
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<Vec<WireMessage>> {
        let _sp = bora_obs::span("cluster.read");
        if self.cfg.hedge.is_some() {
            return self.read_hedged(container, topics, range);
        }
        // A collected stream: a read that breaks resumes on a replica
        // instead of re-reading from the start.
        let started = Instant::now();
        let out: ClientResult<Vec<_>> = self.read_stream_inner(container, topics, range)?.collect();
        if out.is_ok() {
            self.note_read_latency(started.elapsed());
        }
        out
    }

    fn note_read_latency(&self, lat: Duration) {
        let mut ewma = self.ewma_ns.lock().unwrap();
        let ns = lat.as_nanos() as f64;
        *ewma = if *ewma == 0.0 { ns } else { 0.8 * *ewma + 0.2 * ns };
    }

    /// Current hedge trigger.
    pub fn hedge_threshold(&self) -> Duration {
        let h = self.cfg.hedge.unwrap_or_default();
        let ewma = *self.ewma_ns.lock().unwrap();
        h.min_threshold.max(Duration::from_nanos((h.factor * ewma) as u64))
    }

    /// Hedged read: issue to the first replica the walk admits; if no
    /// answer within the adaptive threshold, issue the identical read to
    /// the next admitted one and take whichever returns first. Replicas
    /// hold identical data and the read path is deterministic, so both
    /// answers are equal — the hedge trades duplicate work for tail
    /// latency only. When every running leg failed, the walk fails over
    /// like any other request.
    fn read_hedged(
        &self,
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<Vec<WireMessage>> {
        let (mut walk, first) = self.walk(container)?;
        let (tx, rx) = channel::unbounded();
        // Legs run on their own threads: each adopts the read's context so
        // its spans (and the server's) stay in the trace tree, and the
        // first leg to deliver a usable answer claims `winner` — every
        // other leg records its span cancelled, so hedged losers are
        // visible as abandoned siblings in the merged timeline.
        let winner = Arc::new(AtomicUsize::new(usize::MAX));
        let pctx = bora_obs::current_context();
        let spawn_leg = |hop: Hop<T>, idx: usize| {
            let tx = tx.clone();
            let winner = Arc::clone(&winner);
            let container = container.to_owned();
            let topics: Vec<String> = topics.iter().map(|t| (*t).to_owned()).collect();
            std::thread::spawn(move || {
                let _ctx = bora_obs::adopt_context(pctx);
                let leg = bora_obs::span("cluster.hedge_leg");
                let started = Instant::now();
                let res = hop.ep.attempt(|c| {
                    let ts: Vec<&str> = topics.iter().map(String::as_str).collect();
                    match range {
                        Some((s, e)) => c.read_time(&container, &ts, s, e),
                        None => c.read(&container, &ts),
                    }
                });
                let won = res.is_ok()
                    && winner
                        .compare_exchange(usize::MAX, idx, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok();
                if won {
                    leg.end();
                } else {
                    leg.cancel();
                }
                // Receiver gone means another leg already won — the
                // attempt above still ran to completion, keeping its
                // connection aligned and back in the pool.
                let _ = tx.send((idx, hop.probe, started.elapsed(), res));
            });
        };

        spawn_leg(first, 0);
        let (mut legs, mut running) = (1, 1);
        let (mut hedged, mut hedge_leg, mut after_probe) = (false, None, false);
        loop {
            let next = if hedged {
                Ok(rx.recv().expect("a leg is running"))
            } else {
                rx.recv_timeout(self.hedge_threshold())
            };
            let (idx, probe, lat, res) = match next {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => {
                    // Primary slow: hedge to the next admitted replica,
                    // first answer wins. Deliberately budget-exempt — the
                    // primary has not failed, and throttling hedges would
                    // re-create the tail latency they exist to cut.
                    hedged = true;
                    if let Some(hop) = walk.hop() {
                        bora_obs::counter("cluster.hedge.issued").inc();
                        spawn_leg(hop, legs);
                        hedge_leg = Some(legs);
                        (legs, running) = (legs + 1, running + 1);
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => unreachable!("tx held by this scope"),
            };
            running -= 1;
            match res {
                Ok(v) => {
                    if hedge_leg == Some(idx) {
                        bora_obs::counter("cluster.hedge.wins").inc();
                    }
                    self.note_read_latency(lat);
                    walk.on_success();
                    return Ok(v);
                }
                Err(e) if !should_failover(&e) => return Err(e),
                Err(e) => {
                    after_probe |= probe;
                    if running == 0 {
                        let hop = walk.failover(std::mem::take(&mut after_probe), e)?;
                        spawn_leg(hop, legs);
                        (legs, running) = (legs + 1, 1);
                    }
                }
            }
        }
    }

    /// Open a streaming read with transparent mid-stream failover.
    pub fn read_stream(&self, container: &str, topics: &[&str]) -> ClientResult<ClusterStream<T>> {
        self.read_stream_inner(container, topics, None)
    }

    /// Time-ranged variant of [`ClusterClient::read_stream`].
    pub fn read_stream_time(
        &self,
        container: &str,
        topics: &[&str],
        start: Time,
        end: Time,
    ) -> ClientResult<ClusterStream<T>> {
        self.read_stream_inner(container, topics, Some((start, end)))
    }

    fn read_stream_inner(
        &self,
        container: &str,
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<ClusterStream<T>> {
        let (walk, first) = self.walk(container)?;
        let mut stream = ClusterStream {
            walk,
            leg: None,
            container: container.to_owned(),
            topics: topics.iter().map(|t| (*t).to_owned()).collect(),
            range,
            buffer: VecDeque::new(),
            skip: 0,
            fetched: 0,
            yielded: 0,
            done: false,
        };
        stream.start(first)?;
        Ok(stream)
    }

    /// One chronological stream over many containers: a per-container
    /// [`ClusterStream`] per lane, k-way merged by `(time, lane)` — the
    /// same heap merge the server applies across a container's topic
    /// lanes, lifted to the cluster level.
    pub fn read_stream_multi(
        &self,
        containers: &[&str],
        topics: &[&str],
        range: Option<(Time, Time)>,
    ) -> ClientResult<MergedStream<T>> {
        let mut lanes = Vec::with_capacity(containers.len());
        for c in containers {
            lanes.push(self.read_stream_inner(c, topics, range)?);
        }
        MergedStream::new(lanes)
    }

    /// Run a declarative query against one container, routed to a node
    /// that holds it (with the usual failover/breaker machinery).
    pub fn query(&self, container: &str, sql: &str) -> ClientResult<QueryReply> {
        self.query_multi(&[container], sql)
    }

    /// Run one query across many containers — the distributed plan from
    /// `bora-query`'s `distrib` module:
    ///
    /// * **aggregate** queries ship a partial-aggregate fragment to each
    ///   container's node and merge the flattened per-window states at
    ///   the router in container order
    ///   ([`bora_query::merge_partials`]), then finalize and apply
    ///   LIMIT — so the result bytes are identical whether one node owns
    ///   every container or each lives elsewhere;
    /// * **everything else** ships the statement as-is and concatenates
    ///   rows in container order, re-applying the global LIMIT.
    ///
    /// `EXPLAIN` renders the router's plan without executing anything;
    /// `EXPLAIN ANALYZE` executes and appends one line per fragment
    /// (container, rows shipped, wire bytes). The reply's `wire_bytes`
    /// sums the response payload bytes of every fragment — the number
    /// the `ext_query` experiment compares against a row-shipping plan.
    pub fn query_multi(&self, containers: &[&str], sql: &str) -> ClientResult<QueryReply> {
        let _sp = bora_obs::span("cluster.query");
        let p = bora_query::prepare(sql).map_err(bad_query)?;
        if containers.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "query over an empty container list",
            )));
        }
        if p.explain_mode() == bora_query::ExplainMode::Plan {
            return Ok(QueryReply {
                columns: p.plan.columns.clone(),
                explain: bora_query::explain_text(&p, None),
                ..QueryReply::default()
            });
        }

        let agg = p.plan.agg.is_some();
        let frag = if agg {
            bora_query::partial_fragment(&p.query)
        } else {
            bora_query::rowship_query(&p.query)
        };
        let mut wire_bytes = 0u64;
        let mut frag_lines = String::new();
        let mut per_container: Vec<Vec<bora_query::Row>> = Vec::with_capacity(containers.len());
        for c in containers {
            let reply = self.with_failover(c, |cl| {
                if agg {
                    cl.query_partial(c, &frag)
                } else {
                    cl.query(c, &frag)
                }
            })?;
            wire_bytes += reply.wire_bytes;
            if p.explain_mode() == bora_query::ExplainMode::Analyze {
                frag_lines.push_str(&format!(
                    "fragment '{c}': rows={} bytes={} {}\n",
                    reply.rows_total,
                    reply.wire_bytes,
                    if agg { "partial-aggregate" } else { "row-ship" },
                ));
            }
            per_container.push(reply.rows);
        }

        let rows = if agg {
            bora_query::merge_partials(&p.plan, &per_container).map_err(bad_query)?
        } else {
            let mut rows: Vec<bora_query::Row> = per_container.into_iter().flatten().collect();
            if let Some(n) = p.plan.limit {
                rows.truncate(n as usize);
            }
            rows
        };
        let explain = if p.explain_mode() == bora_query::ExplainMode::Analyze {
            format!("{}{}", bora_query::explain_text(&p, None), frag_lines)
        } else {
            String::new()
        };
        Ok(QueryReply {
            columns: p.plan.columns.clone(),
            rows_total: rows.len() as u64,
            rows,
            explain,
            wire_bytes,
        })
    }

    /// Run `op` on one named node, not routed through the ring. A pooled
    /// connection can die while parked — the peer answers its last
    /// request, then begins shutting down and closes before the next
    /// lease — so an I/O failure retries once on a fresh connection (the
    /// failed attempt dropped the stale one). Every per-node op is
    /// idempotent control-plane, and a node that is *actually*
    /// unreachable just fails twice.
    fn on_node<R>(
        &self,
        node: NodeId,
        mut op: impl FnMut(&mut ServeClient<T::Conn>) -> ClientResult<R>,
    ) -> ClientResult<R> {
        let ep = self.nodes.get(&node).ok_or_else(|| no_nodes(&format!("node {node}")))?;
        match ep.attempt(&mut op) {
            Err(ClientError::Io(_)) => ep.attempt(op),
            res => res,
        }
    }

    /// Health-probe one node directly.
    pub fn ping(&self, node: NodeId) -> ClientResult<PingInfo> {
        self.on_node(node, |c| c.ping())
    }

    /// Probe every node; the per-node result doubles as liveness.
    pub fn ping_all(&self) -> Vec<(NodeId, ClientResult<PingInfo>)> {
        self.nodes.keys().map(|&id| (id, self.ping(id))).collect()
    }

    /// One node's [`StatsSnapshot`] (virtual-time accounting lives
    /// here), projected from its `METRICS` scrape.
    pub fn node_stats(&self, node: NodeId) -> ClientResult<StatsSnapshot> {
        self.on_node(node, |c| c.stats())
    }

    /// One node's full `METRICS` scrape (registry + slow-op tail) — what
    /// the telemetry poller aggregates across the fleet.
    pub fn node_metrics(&self, node: NodeId) -> ClientResult<MetricsReport> {
        self.on_node(node, |c| c.metrics())
    }

    /// Every node's `METRICS` scrape; unreachable nodes report their
    /// error (the poller counts them, it does not fail the sweep).
    pub fn metrics_all(&self) -> Vec<(NodeId, ClientResult<MetricsReport>)> {
        self.nodes.keys().map(|&id| (id, self.node_metrics(id))).collect()
    }

    /// Breaker state per node, for observability.
    pub fn breaker_states(&self) -> Vec<(NodeId, BreakerState)> {
        self.nodes.iter().map(|(id, ep)| (*id, ep.breaker_state())).collect()
    }
}

// ----------------------------------------------------------------- stream

/// The node currently serving a [`ClusterStream`], and its leased
/// connection.
struct StreamLeg<T: Transport> {
    ep: Arc<NodeEndpoint<T>>,
    client: ServeClient<T::Conn>,
    /// The breaker's failure count when the leg was leased.
    since: u64,
    /// The leg is its node's breaker probe.
    probe: bool,
    /// The node has delivered at least one chunk on this leg.
    answered: bool,
}

/// A cluster-routed `READ` with mid-stream failover.
///
/// If the serving node dies mid-stream, the identical query is re-issued
/// to the next replica the walk admits and the first `fetched` messages
/// of the re-issue are skipped. Both nodes merge the same container with
/// the same deterministic `(time, lane)` order, and the node's stream
/// receiver ([`ServeClient::recv_chunk`]) fails at the first lost,
/// duplicated or reordered frame instead of passing a damaged batch on,
/// so the resumed tail continues the broken stream byte-for-byte.
///
/// Each leg runs on a pooled connection and counts as in flight on its
/// node until `StreamEnd` returns the connection to the pool. A stream
/// dropped early drops its connection instead: the hang-up aborts the
/// server-side merge.
pub struct ClusterStream<T: Transport> {
    walk: ReplicaWalk<T>,
    leg: Option<StreamLeg<T>>,
    container: String,
    topics: Vec<String>,
    range: Option<(Time, Time)>,
    buffer: VecDeque<WireMessage>,
    /// Messages of the current (re-issued) stream still to discard.
    skip: u64,
    /// Unique messages pulled into `buffer` over the stream's lifetime.
    fetched: u64,
    /// Messages handed to the consumer.
    yielded: u64,
    done: bool,
}

impl<T: Transport> ClusterStream<T> {
    pub fn received(&self) -> u64 {
        self.yielded
    }

    /// Issue the read on `hop`'s node, walking on while the request
    /// cannot even be sent. The request propagates whatever span is open
    /// — for a mid-stream failover that is still the caller's span, so
    /// the resumed stream stays in the same trace tree.
    fn start(&mut self, mut hop: Hop<T>) -> ClientResult<()> {
        loop {
            let sent = hop.ep.lease().and_then(|(mut client, since)| {
                match client.send_read(&self.container, self.topics.clone(), self.range) {
                    Ok(()) => Ok((client, since)),
                    Err(e) => {
                        hop.ep.finish(client, since, Outcome::Failed);
                        Err(e)
                    }
                }
            });
            match sent {
                Ok((client, since)) => {
                    self.skip = self.fetched;
                    let (ep, probe) = (hop.ep, hop.probe);
                    self.leg = Some(StreamLeg { ep, client, since, probe, answered: false });
                    return Ok(());
                }
                Err(e) => hop = self.walk.failover(hop.probe, e)?,
            }
        }
    }

    /// Pull frames until the buffer has a message, the stream ends, or
    /// an unrecoverable error surfaces.
    fn fill(&mut self) -> ClientResult<()> {
        while !self.done && self.buffer.is_empty() {
            let leg = self.leg.as_mut().ok_or_else(|| no_nodes(&self.container))?;
            match leg.client.recv_chunk() {
                Ok(Some(msgs)) => {
                    leg.answered = true;
                    // Skip the prefix a failed-over stream already
                    // delivered; every chunk before the break arrived
                    // whole and in order, so the count is exact.
                    let skip = self.skip.min(msgs.len() as u64);
                    self.skip -= skip;
                    self.buffer.extend(msgs.into_iter().skip(skip as usize));
                    self.fetched += self.buffer.len() as u64;
                }
                // Transport faults, overload, transient server errors and
                // a damaged stream (lost, duplicated or reordered frame)
                // all resume on the next replica.
                Err(e) if should_failover(&e) => {
                    let leg = self.leg.take().expect("leg is live");
                    leg.ep.finish(leg.client, leg.since, Outcome::Failed);
                    let hop = self.walk.failover(leg.probe, e)?;
                    self.start(hop)?;
                }
                end => {
                    let leg = self.leg.take().expect("leg is live");
                    leg.ep.finish(leg.client, leg.since, Outcome::Answered);
                    self.done = true;
                    end?;
                    self.walk.on_success();
                }
            }
        }
        Ok(())
    }
}

impl<T: Transport> Drop for ClusterStream<T> {
    fn drop(&mut self) {
        if let Some(leg) = self.leg.take() {
            let outcome = Outcome::Abandoned { answered: leg.answered };
            leg.ep.finish(leg.client, leg.since, outcome);
        }
    }
}

impl<T: Transport> Iterator for ClusterStream<T> {
    type Item = ClientResult<WireMessage>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(m) = self.buffer.pop_front() {
            self.yielded += 1;
            return Some(Ok(m));
        }
        if self.done {
            return None;
        }
        if let Err(e) = self.fill() {
            self.done = true;
            return Some(Err(e));
        }
        self.buffer.pop_front().map(|m| {
            self.yielded += 1;
            Ok(m)
        })
    }
}

// ------------------------------------------------------------ k-way merge

/// Chronological k-way heap merge over per-container cluster streams.
///
/// Each lane is a [`ClusterStream`] (so lanes fail over independently);
/// the heap orders by `(time, lane index)` — the stable tie-break that
/// makes the merged order deterministic across runs and across node
/// deaths.
pub struct MergedStream<T: Transport> {
    lanes: Vec<ClusterStream<T>>,
    heads: Vec<Option<WireMessage>>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    failed: bool,
}

impl<T: Transport> MergedStream<T> {
    fn new(mut lanes: Vec<ClusterStream<T>>) -> ClientResult<Self> {
        let mut heads = Vec::with_capacity(lanes.len());
        let mut heap = BinaryHeap::with_capacity(lanes.len());
        for (i, lane) in lanes.iter_mut().enumerate() {
            match lane.next() {
                Some(Ok(m)) => {
                    heap.push(Reverse((m.time.as_nanos(), i)));
                    heads.push(Some(m));
                }
                Some(Err(e)) => return Err(e),
                None => heads.push(None),
            }
        }
        Ok(MergedStream { lanes, heads, heap, failed: false })
    }
}

impl<T: Transport> Iterator for MergedStream<T> {
    type Item = ClientResult<WireMessage>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let Reverse((_, lane)) = self.heap.pop()?;
        let out = self.heads[lane].take().expect("heap entry implies a head");
        match self.lanes[lane].next() {
            Some(Ok(m)) => {
                self.heap.push(Reverse((m.time.as_nanos(), lane)));
                self.heads[lane] = Some(m);
            }
            Some(Err(e)) => {
                self.failed = true;
                return Some(Err(e));
            }
            None => {}
        }
        Some(Ok(out))
    }
}

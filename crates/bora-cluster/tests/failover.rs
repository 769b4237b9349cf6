//! Failover integration: a node dies **mid-`READ_STREAM`** and the
//! client must deliver a byte-identical result by resuming on a
//! replica, counting the hop in `cluster.failover`; afterwards `heal`
//! re-replicates what the death left under-replicated. A killed node
//! that stays in the ring must cost reads nothing: every routed request
//! walks past it by its breaker, without draining the retry budget.
//!
//! `MemTransport` is unbounded, so a server streams its whole answer
//! eagerly — killing the *process* mid-stream would race the buffer.
//! Instead each node runs over a [`GateStorage`] that injects an `Io`
//! fault after a calibrated number of data reads, so the owner fails
//! *while producing* the stream, deterministically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bora_cluster::{
    ClusterClient, ClusterClientConfig, ClusterTierConfig, HedgeConfig, LocalCluster, NodeId,
    RingConfig, RoutePolicy,
};
use bora_serve::{MemTransport, Transport};
use ros_msgs::{sensor_msgs::Imu, Time};
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{DirEntry, FsError, FsResult, IoCtx, MemStorage, Metadata, Storage};

/// MemStorage plus a read gate: after `limit` successful data reads,
/// every further `read_at` fails with `Io` — the storage-level fault
/// the router must treat as failover-worthy.
struct GateStorage {
    inner: MemStorage,
    reads: AtomicU64,
    limit: AtomicU64,
}

impl GateStorage {
    fn new() -> Self {
        GateStorage {
            inner: MemStorage::new(),
            reads: AtomicU64::new(0),
            limit: AtomicU64::new(u64::MAX),
        }
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }

    fn set_limit(&self, limit: u64) {
        self.limit.store(limit, Ordering::SeqCst);
    }

    fn gate(&self) -> FsResult<()> {
        if self.reads.fetch_add(1, Ordering::SeqCst) >= self.limit.load(Ordering::SeqCst) {
            return Err(FsError::Io("gate: injected data-read fault".into()));
        }
        Ok(())
    }
}

impl Storage for GateStorage {
    fn create(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.create(path, ctx)
    }
    fn append(&self, path: &str, data: &[u8], ctx: &mut IoCtx) -> FsResult<u64> {
        self.inner.append(path, data, ctx)
    }
    fn write_at(&self, path: &str, offset: u64, data: &[u8], ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.write_at(path, offset, data, ctx)
    }
    fn read_at(&self, path: &str, offset: u64, len: usize, ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
        self.gate()?;
        self.inner.read_at(path, offset, len, ctx)
    }
    fn read_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
        self.gate()?;
        self.inner.read_all(path, ctx)
    }
    fn len(&self, path: &str, ctx: &mut IoCtx) -> FsResult<u64> {
        self.inner.len(path, ctx)
    }
    fn exists(&self, path: &str, ctx: &mut IoCtx) -> bool {
        self.inner.exists(path, ctx)
    }
    fn stat(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Metadata> {
        self.inner.stat(path, ctx)
    }
    fn mkdir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.mkdir_all(path, ctx)
    }
    fn read_dir(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Vec<DirEntry>> {
        self.inner.read_dir(path, ctx)
    }
    fn remove_file(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.remove_file(path, ctx)
    }
    fn remove_dir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.remove_dir_all(path, ctx)
    }
    fn rename(&self, from: &str, to: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.rename(from, to, ctx)
    }
    fn flush(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.inner.flush(path, ctx)
    }
}

const ROOT: &str = "/c/failover";
const TOPICS: [&str; 2] = ["/imu", "/odom"];

/// Build a two-topic, 400-message container on a staging filesystem.
fn build_staging() -> MemStorage {
    let staging = MemStorage::new();
    let mut ctx = IoCtx::new();
    let mut w =
        BagWriter::create(&staging, "/stage.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..400u32 {
        let t = Time::new(1 + i / 10, (i % 10) * 1_000_000);
        let mut imu = Imu::default();
        imu.header.stamp = t;
        imu.header.seq = i;
        let topic = TOPICS[(i % 2) as usize];
        w.write_ros_message(topic, t, &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(&staging, "/stage.bag", &staging, ROOT, &Default::default(), &mut ctx).unwrap();
    staging
}

type Gates = Arc<Mutex<BTreeMap<NodeId, Arc<GateStorage>>>>;

fn start_gated_cluster(nodes: u32) -> (LocalCluster<Arc<GateStorage>>, Gates) {
    let gates: Gates = Arc::new(Mutex::new(BTreeMap::new()));
    let factory_gates = Arc::clone(&gates);
    let cluster = LocalCluster::start_with(
        ClusterTierConfig {
            nodes,
            ring: RingConfig { vnodes: 64, replication: 2 },
            ..ClusterTierConfig::default()
        },
        move |id| {
            let gs = Arc::new(GateStorage::new());
            factory_gates.lock().unwrap().insert(id, Arc::clone(&gs));
            gs
        },
    );
    (cluster, gates)
}

#[test]
fn mid_stream_node_death_is_byte_identical_and_counted() {
    let staging = build_staging();
    let (cluster, gates) = start_gated_cluster(3);
    cluster.provision(&staging, &[ROOT]).unwrap();

    let client = cluster.client(ClusterClientConfig {
        policy: RoutePolicy::Primary,
        hedge: None,
        ..ClusterClientConfig::default()
    });

    let replicas = client.replicas(ROOT);
    assert_eq!(replicas.len(), 2);
    let owner = replicas[0];
    let owner_gate = Arc::clone(gates.lock().unwrap().get(&owner).unwrap());

    // Warm the owner's handle cache, then measure the steady-state
    // data-read cost of one full query.
    let warm = client.read(ROOT, &TOPICS).unwrap();
    assert_eq!(warm.len(), 400);
    let c0 = owner_gate.reads();
    let baseline = client.read(ROOT, &TOPICS).unwrap();
    assert_eq!(baseline, warm);
    let per_query = owner_gate.reads() - c0;
    assert!(per_query >= 2, "query did only {per_query} data reads; gate can't split it");

    // Arm the gate so the *next* query dies roughly halfway through
    // producing its stream.
    owner_gate.set_limit(owner_gate.reads() + per_query / 2);

    let failovers_before = bora_obs::counter("cluster.failover").get();
    let streamed: Vec<_> = client
        .read_stream(ROOT, &TOPICS)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .expect("stream must survive the owner's mid-stream death");

    // Byte-identical: same messages, same order, same payloads.
    assert_eq!(streamed, baseline);
    let failovers = bora_obs::counter("cluster.failover").get() - failovers_before;
    assert!(failovers >= 1, "owner died mid-stream but cluster.failover did not move");

    // The dead node is now failing storage-side; declare it dead and
    // heal. The container fell to one live holder, so heal must copy it
    // back up to the replication factor.
    cluster.kill(owner);
    let report = cluster.heal().unwrap();
    assert_eq!(report.removed, vec![owner]);
    assert!(report.copies >= 1, "heal made no re-replication copies: {report:?}");
    assert!(report.batches >= 1);

    // Post-heal: a fresh router sees the shrunken ring, the dead node
    // holds nothing, and reads still match byte-for-byte.
    let client2 = cluster.client(ClusterClientConfig::default());
    let replicas2 = client2.replicas(ROOT);
    assert_eq!(replicas2.len(), 2);
    assert!(!replicas2.contains(&owner));
    for (_, holders) in cluster.directory() {
        assert!(!holders.contains(&owner));
    }
    assert_eq!(client2.read(ROOT, &TOPICS).unwrap(), baseline);

    cluster.shutdown();
}

#[test]
fn killed_server_process_fails_over_without_streaming() {
    let staging = build_staging();
    let (cluster, _gates) = start_gated_cluster(3);
    cluster.provision(&staging, &[ROOT]).unwrap();
    let client = cluster.client(ClusterClientConfig::default());

    let baseline = client.read(ROOT, &TOPICS).unwrap();
    let owner = client.replicas(ROOT)[0];
    cluster.kill(owner);

    // Plain (non-streaming) reads route around the shut-down node.
    let failovers_before = bora_obs::counter("cluster.failover").get();
    assert_eq!(client.read(ROOT, &TOPICS).unwrap(), baseline);
    assert!(bora_obs::counter("cluster.failover").get() > failovers_before);

    cluster.shutdown();
}

#[test]
fn total_replica_loss_is_reported_not_healed() {
    let staging = build_staging();
    let (cluster, gates) = start_gated_cluster(2);
    cluster.provision(&staging, &[ROOT]).unwrap();
    // R=2 on a 2-node cluster: killing both nodes loses every replica.
    for id in cluster.node_ids() {
        cluster.kill(id);
        gates.lock().unwrap().get(&id).unwrap().set_limit(0);
    }
    let err = cluster.heal().unwrap_err();
    assert!(err.to_string().contains("lost every replica"), "{err}");
}

/// Retry-budget denials this client has seen so far.
fn denied<T: Transport + Send + Sync + 'static>(client: &ClusterClient<T>) -> u64 {
    client.retry_budget_stats().expect("default config has a retry budget").1
}

#[test]
fn killed_owner_costs_streamed_and_hedged_reads_no_budget() {
    let staging = build_staging();
    let (cluster, _gates) = start_gated_cluster(3);
    cluster.provision(&staging, &[ROOT]).unwrap();
    let streams = cluster.client(ClusterClientConfig::default());
    let hedged = cluster.client(ClusterClientConfig {
        hedge: Some(HedgeConfig::default()),
        ..ClusterClientConfig::default()
    });
    let baseline = streams.read(ROOT, &TOPICS).unwrap();
    assert_eq!(hedged.read(ROOT, &TOPICS).unwrap(), baseline);
    cluster.kill(streams.replicas(ROOT)[0]);

    // Once the dead owner's breaker opens, every request goes straight
    // to the live replica; only the breaker's periodic probe still
    // reaches the dead node, and the hop after a failed probe is free.
    for i in 0..40 {
        let got: Vec<_> = streams
            .read_stream(ROOT, &TOPICS)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("read_stream {i} after the kill failed: {e}"));
        assert_eq!(got, baseline, "read_stream {i}");
        let got = hedged
            .read(ROOT, &TOPICS)
            .unwrap_or_else(|e| panic!("hedged read {i} after the kill failed: {e}"));
        assert_eq!(got, baseline, "hedged read {i}");
    }
    assert_eq!(denied(&streams), 0, "streamed reads were denied a failover");
    assert_eq!(denied(&hedged), 0, "hedged reads were denied a failover");
    cluster.shutdown();
}

#[test]
fn dead_replica_left_in_the_ring_never_fails_a_call() {
    let staging = build_staging();
    let (cluster, _gates) = start_gated_cluster(3);
    cluster.provision(&staging, &[ROOT]).unwrap();
    let client = cluster.client(ClusterClientConfig::default());
    let topics = client.topics(ROOT).unwrap();
    cluster.kill(client.replicas(ROOT)[0]);

    // No heal: the breaker re-probes the dead owner every
    // `probe_interval` calls for as long as the ring lists it.
    for i in 0..800 {
        match client.topics(ROOT) {
            Ok(t) => assert_eq!(t, topics, "call {i}"),
            Err(e) => panic!("call {i} failed with the replica dead: {e}"),
        }
    }
    assert_eq!(denied(&client), 0);
    cluster.shutdown();
}

#[test]
fn per_node_calls_agree_about_a_killed_node() {
    let staging = build_staging();
    let (cluster, _gates) = start_gated_cluster(3);
    cluster.provision(&staging, &[ROOT]).unwrap();
    let client = cluster.client(ClusterClientConfig::default());
    let victim = client.replicas(ROOT)[0];
    // Park pooled connections to the victim before it dies.
    client.read(ROOT, &TOPICS).unwrap();
    client.node_stats(victim).unwrap();
    cluster.kill(victim);

    // A shutting-down node answers one control-plane request per
    // connection and then closes it, so each call below may find its
    // pooled connection dead. They must still all tell the same story.
    let mut seen = Vec::new();
    for _ in 0..3 {
        let all = client.metrics_all();
        let (_, scrape) = all.iter().find(|(id, _)| *id == victim).unwrap();
        seen.push(("metrics_all", scrape.is_ok()));
        seen.push(("node_stats", client.node_stats(victim).is_ok()));
        seen.push(("node_metrics", client.node_metrics(victim).is_ok()));
        seen.push(("ping", client.ping(victim).is_ok()));
    }
    assert!(seen.iter().all(|&(_, ok)| ok == seen[0].1), "per-node calls disagree: {seen:?}");
    cluster.shutdown();
}

/// A transport that counts the connections it opens.
struct Counted<T> {
    inner: T,
    connects: Arc<AtomicU64>,
}

impl<T: Transport> Transport for Counted<T> {
    type Conn = T::Conn;
    fn connect(&self) -> std::io::Result<T::Conn> {
        self.connects.fetch_add(1, Ordering::SeqCst);
        self.inner.connect()
    }
}

#[test]
fn streams_count_as_load_and_reuse_pooled_connections() {
    let staging = build_staging();
    let (cluster, _gates) = start_gated_cluster(3);
    cluster.provision(&staging, &[ROOT]).unwrap();
    let connects: BTreeMap<NodeId, Arc<AtomicU64>> =
        cluster.node_ids().into_iter().map(|id| (id, Arc::default())).collect();
    let endpoints = cluster.node_ids().into_iter().map(|id| {
        let server = Arc::clone(&cluster.node(id).unwrap().server);
        (id, Counted { inner: MemTransport::new(server), connects: Arc::clone(&connects[&id]) })
    });
    let client = ClusterClient::new(
        cluster.ring(),
        endpoints,
        ClusterClientConfig { policy: RoutePolicy::Spread, ..ClusterClientConfig::default() },
    );
    let replicas = client.replicas(ROOT);
    assert_eq!(replicas.len(), 2);
    let op_count = |id: NodeId, op: &str| {
        let report = cluster.node(id).unwrap().server.metrics_report();
        report.hist(&format!("serve.op.{op}.wall_ns")).map_or(0, |h| h.count)
    };
    let counts = |op: &str| replicas.iter().map(|&id| op_count(id, op)).collect::<Vec<_>>();

    // Hold one stream open mid-answer: it is in flight on its node, so
    // Spread sends both STATs to the other replica.
    let (stats0, reads0) = (counts("stat"), counts("read_stream"));
    let mut stream = client.read_stream(ROOT, &TOPICS).unwrap();
    let first = stream.next().unwrap().unwrap();
    client.stat(ROOT).unwrap();
    client.stat(ROOT).unwrap();
    let rest: Vec<_> = stream.collect::<Result<_, _>>().unwrap();
    assert_eq!(rest.len() + 1, 400, "first message {first:?}");
    let streamed: Vec<u64> =
        counts("read_stream").iter().zip(&reads0).map(|(a, b)| a - b).collect();
    let stats: Vec<u64> = counts("stat").iter().zip(&stats0).map(|(a, b)| a - b).collect();
    let busy = streamed.iter().position(|&n| n == 1).expect("one node served the stream");
    assert_eq!(streamed[1 - busy], 0);
    assert_eq!(stats[busy], 0, "a STAT went to the node busy streaming: {stats:?}");
    assert_eq!(stats[1 - busy], 2);

    // Finished stream legs go back to the pool: sequential streams on
    // one client reuse the connections they already opened.
    let opened = || connects.values().map(|c| c.load(Ordering::SeqCst)).sum::<u64>();
    let before = opened();
    for _ in 0..20 {
        let n = client.read_stream(ROOT, &TOPICS).unwrap().count();
        assert_eq!(n, 400);
    }
    assert_eq!(opened(), before, "finished streams did not return their connections");
    cluster.shutdown();
}

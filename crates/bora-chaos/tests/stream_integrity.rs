//! Mid-stream frame faults must never silently change a streamed read.
//!
//! A 200-message read is answered by seven chunk frames and a terminal
//! frame. Each test duplicates, drops or reorders the third frame the
//! client receives, then checks the outcome: either the complete,
//! byte-identical stream, or a typed error after a correct prefix —
//! never extra, missing or out-of-order messages.

use std::sync::Arc;

use bora_chaos::{ChaosRule, ChaosState, ChaosTransport, NetFault};
use bora_cluster::{
    ClusterClient, ClusterClientConfig, ClusterTierConfig, LocalCluster, RingConfig,
};
use bora_serve::{ClientResult, MemTransport, ServeClient, Server, ServerConfig, WireMessage};
use ros_msgs::{sensor_msgs::Imu, Time};
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage};

const ROOT: &str = "/c/stream-integrity";
const MESSAGES: u32 = 200;

/// Frame events are numbered from the request send (event 0), so the
/// third received frame is event 3.
fn third_frame(fault: NetFault) -> ChaosRule {
    ChaosRule::new(fault).on_recv().window(3, 4)
}

fn staged() -> Arc<MemStorage> {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let mut w =
        BagWriter::create(&*fs, "/stage.bag", BagWriterOptions::default(), &mut ctx).unwrap();
    for i in 0..MESSAGES {
        let t = Time::new(1 + i / 10, (i % 10) * 1_000_000);
        let mut imu = Imu::default();
        imu.header.stamp = t;
        imu.header.seq = i;
        w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
    }
    w.close(&mut ctx).unwrap();
    bora::duplicate(&*fs, "/stage.bag", &*fs, ROOT, &Default::default(), &mut ctx).unwrap();
    fs
}

/// The acceptance rule: every yielded message matches the fault-free
/// stream position for position, and the stream is either complete or
/// ends in an error.
fn assert_exact_or_typed_error(
    fault: NetFault,
    got: Vec<ClientResult<WireMessage>>,
    want: &[WireMessage],
) {
    let err = got.iter().position(|r| r.is_err());
    let msgs: Vec<&WireMessage> = got.iter().filter_map(|r| r.as_ref().ok()).collect();
    if let Some(i) = err {
        assert_eq!(i, got.len() - 1, "{fault:?}: the first error must end the stream");
    } else {
        assert_eq!(msgs.len(), want.len(), "{fault:?}: stream ended early or carried extras");
    }
    assert!(
        msgs.len() <= want.len(),
        "{fault:?}: {} messages from a {}-message read",
        msgs.len(),
        want.len()
    );
    for (k, (g, w)) in msgs.iter().zip(want).enumerate() {
        assert_eq!(*g, w, "{fault:?}: message {k} differs from the fault-free stream");
    }
}

fn serve_client_case(fault: NetFault) {
    let server = Server::start(staged(), ServerConfig::default());
    let want = ServeClient::connect(&MemTransport::new(Arc::clone(&server)))
        .unwrap()
        .read(ROOT, &["/imu"])
        .unwrap();
    assert_eq!(want.len(), MESSAGES as usize);

    let state = Arc::new(ChaosState::new(1));
    state.set_rules(vec![third_frame(fault)]);
    let t = ChaosTransport::new(MemTransport::new(Arc::clone(&server)), 0, Arc::clone(&state));
    let mut client = ServeClient::connect(&t).unwrap();
    let got: Vec<_> = client.read_stream(ROOT, &["/imu"]).unwrap().collect();
    assert_eq!(state.faults_injected(), 1, "{fault:?} must fire exactly once");
    assert_exact_or_typed_error(fault, got, &want);
    server.shutdown();
}

fn cluster_case(fault: NetFault) {
    let staging = staged();
    let cluster = LocalCluster::start_with(
        ClusterTierConfig {
            nodes: 3,
            ring: RingConfig { vnodes: 64, replication: 2 },
            ..ClusterTierConfig::default()
        },
        |_| Arc::new(MemStorage::new()),
    );
    cluster.provision(&*staging, &[ROOT]).unwrap();
    let (start, end) = (Time::new(0, 0), Time::new(1_000, 0));
    let want: Vec<WireMessage> = cluster
        .client(ClusterClientConfig::default())
        .read_stream_time(ROOT, &["/imu"], start, end)
        .unwrap()
        .map(|m| m.unwrap())
        .collect();
    assert_eq!(want.len(), MESSAGES as usize);

    let state = Arc::new(ChaosState::new(2));
    state.set_rules(vec![third_frame(fault)]);
    let endpoints: Vec<_> = cluster
        .node_ids()
        .into_iter()
        .map(|id| {
            let server = Arc::clone(&cluster.node(id).unwrap().server);
            (id, ChaosTransport::new(MemTransport::new(server), id, Arc::clone(&state)))
        })
        .collect();
    let client = ClusterClient::new(cluster.ring(), endpoints, ClusterClientConfig::default());
    let got: Vec<_> = client.read_stream_time(ROOT, &["/imu"], start, end).unwrap().collect();
    assert_eq!(state.faults_injected(), 1, "{fault:?} must fire exactly once");
    assert_exact_or_typed_error(fault, got, &want);
    cluster.shutdown();
}

#[test]
fn serve_stream_survives_duplicated_chunk() {
    serve_client_case(NetFault::Duplicate);
}

#[test]
fn serve_stream_survives_dropped_chunk() {
    serve_client_case(NetFault::Drop);
}

#[test]
fn serve_stream_survives_reordered_chunk() {
    serve_client_case(NetFault::Reorder);
}

#[test]
fn cluster_stream_survives_duplicated_chunk() {
    cluster_case(NetFault::Duplicate);
}

#[test]
fn cluster_stream_survives_dropped_chunk() {
    cluster_case(NetFault::Drop);
}

#[test]
fn cluster_stream_survives_reordered_chunk() {
    cluster_case(NetFault::Reorder);
}

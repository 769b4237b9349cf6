//! Property tests for the wire codec (fixed seeds, no shrinking).
//!
//! * Requests behind every header shape — with and without a deadline
//!   and a trace context — and every `Response` variant behind its
//!   response header decode back to exactly what was encoded.
//! * Every prefix truncation and every single-bit flip of a valid
//!   encoding decodes to a typed error or to a valid value (which then
//!   re-encodes and decodes to itself); decoding never panics.

use bora_obs::{HistSummary, TraceContext, BUCKETS};
use bora_serve::proto::split_response;
use bora_serve::{
    ContainerStat, ErrorCode, Header, MetricsReport, PingInfo, Request, Response, SlowOpEntry,
    WireMessage,
};
use proptest::prelude::*;
use ros_msgs::Time;

const NAME: &str = "(/[a-z0-9_]{0,6}){0,3}";

fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
}

fn time() -> impl Strategy<Value = Time> {
    (any::<u32>(), 0u32..1_000_000_000).prop_map(|(sec, nsec)| Time { sec, nsec })
}

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

fn header() -> impl Strategy<Value = Header> {
    let trace =
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(trace_id, parent_span, sampled)| {
            TraceContext { trace_id, parent_span, sampled }
        });
    (any::<u32>(), opt(any::<u64>()), opt(trace)).prop_map(|(corr, deadline_ns, trace)| Header {
        corr,
        deadline_ns,
        trace,
    })
}

fn messages() -> impl Strategy<Value = Vec<WireMessage>> {
    prop::collection::vec(
        (NAME, time(), bytes(12)).prop_map(|(topic, time, data)| WireMessage { topic, time, data }),
        0..4,
    )
}

fn request() -> impl Strategy<Value = Request> {
    let topics = prop::collection::vec(NAME, 0..4);
    prop_oneof![
        NAME.prop_map(|container| Request::Open { container }),
        NAME.prop_map(|container| Request::Topics { container }),
        NAME.prop_map(|container| Request::Meta { container }),
        (NAME, topics, opt((time(), time())))
            .prop_map(|(container, topics, range)| Request::Read { container, topics, range }),
        (NAME, messages())
            .prop_map(|(container, messages)| Request::Append { container, messages }),
        (NAME, any::<bool>()).prop_map(|(container, compact)| Request::Seal { container, compact }),
        (NAME, "SELECT [a-z()*, ]{0,16} FROM '[a-z/]{1,6}'", any::<bool>())
            .prop_map(|(container, sql, partial)| Request::Query { container, sql, partial }),
        NAME.prop_map(|container| Request::Stat { container }),
        Just(Request::Metrics),
        Just(Request::Trace),
        Just(Request::Ping),
        Just(Request::Shutdown),
    ]
}

fn hist() -> impl Strategy<Value = HistSummary> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec((0..BUCKETS, any::<u64>()), 0..4),
    )
        .prop_map(|(count, sum, min, nonzero)| {
            let mut buckets = [0; BUCKETS];
            for (i, v) in nonzero {
                buckets[i] = v;
            }
            HistSummary { count, sum, min, buckets }
        })
}

fn stat() -> impl Strategy<Value = ContainerStat> {
    (any::<u32>(), any::<u64>(), any::<u64>(), time(), time()).prop_map(
        |(topics, messages, data_bytes, start, end)| ContainerStat {
            topics,
            messages,
            data_bytes,
            start,
            end,
        },
    )
}

fn metrics() -> impl Strategy<Value = MetricsReport> {
    let slow = (any::<u64>(), NAME, NAME, any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
        |(trace_id, op, container, wall_ns, queue_wait_ns, server_id)| SlowOpEntry {
            trace_id,
            op,
            container,
            wall_ns,
            queue_wait_ns,
            server_id,
        },
    );
    (
        (any::<u32>(), any::<u32>(), any::<u64>()),
        prop::collection::vec((NAME, any::<u64>()), 0..3),
        prop::collection::vec((NAME, any::<i64>()), 0..3),
        prop::collection::vec((NAME, hist()), 0..3),
        prop::collection::vec(slow, 0..2),
    )
        .prop_map(|((version, server_id, uptime_ns), counters, gauges, hists, slow_ops)| {
            MetricsReport { version, server_id, uptime_ns, counters, gauges, hists, slow_ops }
        })
}

const CODES: [ErrorCode; 9] = [
    ErrorCode::NotAContainer,
    ErrorCode::UnknownTopic,
    ErrorCode::Corrupt,
    ErrorCode::Io,
    ErrorCode::BadRequest,
    ErrorCode::ShuttingDown,
    ErrorCode::ChecksumMismatch,
    ErrorCode::DeadlineExceeded,
    ErrorCode::BadQuery,
];

/// One value of every `Response` variant, contents drawn at random.
fn every_response() -> impl Strategy<Value = Vec<Response>> {
    let names = || prop::collection::vec(NAME, 0..4);
    (
        (stat(), any::<bool>(), names(), bytes(16), messages(), any::<u64>()),
        (names(), bytes(16), any::<u64>(), "[a-z =\n]{0,20}", any::<u64>(), any::<u32>()),
        (metrics(), "[a-z{}\":]{0,20}", any::<u32>(), any::<u64>(), 0..CODES.len(), NAME),
    )
        .prop_map(|(a, b, c)| {
            let (stat, cached, topics, meta, msgs, n) = a;
            let (cols, blob, rows, explain, epoch, segs) = b;
            let (report, json, id, uptime, code, message) = c;
            vec![
                Response::Opened { stat: stat.clone(), cached },
                Response::Topics(topics),
                Response::Meta(meta),
                Response::StreamChunk(msgs),
                Response::StreamEnd { messages: n },
                Response::QuerySchema(cols),
                Response::QueryChunk(blob),
                Response::QueryEnd { rows, explain },
                Response::Appended { appended: n, epoch },
                Response::Sealed { epoch, sealed_segments: segs },
                Response::Stat(stat),
                Response::Metrics(report),
                Response::Trace(json),
                Response::Pong(PingInfo { server_id: id, uptime_ns: uptime, queue_depth: segs }),
                Response::ShuttingDown,
                Response::Error { code: CODES[code], message },
                Response::Overloaded,
            ]
        })
}

/// A damaged request payload must decode to an error or to a value that
/// survives its own roundtrip.
fn check_request(payload: &[u8]) -> TestCaseResult {
    if let Ok((h, req)) = Header::decode(payload) {
        prop_assert_eq!(Header::decode(&h.encode(&req)).unwrap(), (h, req));
    }
    Ok(())
}

fn check_response(payload: &[u8]) -> TestCaseResult {
    if let Ok((corr, frame, body)) = split_response(payload) {
        if let Ok(resp) = Response::decode(body) {
            let again = resp.encode_with(corr, frame);
            let (c2, f2, b2) = split_response(&again).unwrap();
            prop_assert_eq!((c2, f2), (corr, frame));
            prop_assert_eq!(Response::decode(b2).unwrap(), resp);
        }
    }
    Ok(())
}

/// Every strict prefix, then every single-bit flip, of `payload`.
fn damaged(payload: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..payload.len()).map(|n| payload[..n].to_vec());
    let flips = (0..payload.len() * 8).map(|bit| {
        let mut v = payload.to_vec();
        v[bit / 8] ^= 1 << (bit % 8);
        v
    });
    cuts.chain(flips)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_roundtrips_behind_any_header(h in header(), req in request()) {
        let wire = h.encode(&req);
        prop_assert_eq!(wire.len(), h.encoded_len() + req.encode().len());
        prop_assert_eq!(Header::decode(&wire).unwrap(), (h, req));
    }

    #[test]
    fn every_response_roundtrips(resps in every_response(), corr in any::<u32>(), frame in any::<u32>()) {
        for resp in resps {
            let wire = resp.encode_with(corr, frame);
            let (c, f, body) = split_response(&wire).unwrap();
            prop_assert_eq!((c, f), (corr, frame));
            prop_assert_eq!(Response::decode(body).unwrap(), resp);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn damaged_requests_never_panic(h in header(), req in request()) {
        let wire = h.encode(&req);
        for bad in damaged(&wire) {
            check_request(&bad)?;
        }
        // A strict prefix is never mistaken for the whole request.
        for n in 0..wire.len() {
            prop_assert!(Header::decode(&wire[..n]).is_err(), "prefix of {n} bytes decoded");
        }
    }

    #[test]
    fn damaged_responses_never_panic(resps in every_response(), corr in any::<u32>()) {
        for resp in resps {
            let wire = resp.encode_with(corr, 0);
            for bad in damaged(&wire) {
                check_response(&bad)?;
            }
        }
    }
}

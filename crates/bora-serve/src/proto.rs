//! The bora-serve wire protocol: length-prefixed binary frames.
//!
//! Every message travels as one frame: a little-endian `u32` payload
//! length followed by the payload. Operation fields use fixed
//! little-endian layouts (strings are `u16` length + UTF-8, lists are a
//! count + elements). Both ends of a deployment ship together, so there
//! is no version handshake and no fallback for older peers; unknown
//! opcodes, unknown header flags and truncated payloads decode to
//! [`ProtoError`] rather than panicking, so a malformed client cannot
//! take a worker down, and every count is checked against the bytes
//! that remain before anything is allocated for it.
//!
//! A request payload is a [`Header`] followed by the request body
//! (opcode + fields):
//!
//! ```text
//! flags u8 | corr u32 | [deadline_ns u64 if bit0] | [trace_id u64, parent_span u64 if bit1] | body
//! ```
//!
//! Bit 2 is the trace context's sampled bit (valid only with bit 1).
//! Every response frame is `corr u32 | frame u32 | body`: the request's
//! correlation id and the frame's index within its answer. The client
//! discards frames of an earlier request or an already-seen index, and
//! treats a skipped index as a protocol error — so a duplicated,
//! dropped or reordered frame can never silently change an answer.
//!
//! The protocol is request/response with one extension: `READ` and
//! `QUERY` are answered by a *sequence* of frames. A read yields zero or
//! more [`Response::StreamChunk`]s as the server's k-way merge produces
//! messages, closed by [`Response::StreamEnd`] (or a terminal
//! [`Response::Error`]). One outstanding request per connection keeps
//! the backpressure story honest: stream frames are produced no faster
//! than the transport accepts them, and a client that wants parallelism
//! opens more connections, which the server's bounded queue then sheds
//! explicitly via [`Response::Overloaded`].

use bora_obs::{HistSummary, TraceContext, BUCKETS};
use ros_msgs::Time;
use rosbag::MessageRecord;

/// Frame length prefix size (little-endian u32).
pub const FRAME_HEADER_LEN: usize = 4;

/// Upper bound on a single frame's payload; decoding rejects anything
/// larger so a corrupt length prefix cannot trigger a huge allocation.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// Bytes in front of every response body: `corr u32 | frame u32`.
pub const RESPONSE_HEADER_LEN: usize = 8;

// Request opcodes.
const OP_OPEN: u8 = 0x01;
const OP_TOPICS: u8 = 0x02;
const OP_META: u8 = 0x03;
const OP_READ: u8 = 0x04;
const OP_STAT: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x07;
const OP_TRACE: u8 = 0x08;
const OP_PING: u8 = 0x0A;
const OP_APPEND: u8 = 0x0B;
const OP_SEAL: u8 = 0x0C;
const OP_METRICS: u8 = 0x0D;
const OP_QUERY: u8 = 0x13;

// Response opcodes (request opcode | 0x80, errors in 0xE0+).
const OP_OK_OPEN: u8 = 0x81;
const OP_OK_TOPICS: u8 = 0x82;
const OP_OK_META: u8 = 0x83;
const OP_OK_STAT: u8 = 0x85;
const OP_OK_SHUTDOWN: u8 = 0x87;
const OP_OK_TRACE: u8 = 0x88;
const OP_OK_STREAM_CHUNK: u8 = 0x89;
const OP_OK_STREAM_END: u8 = 0x8A;
const OP_OK_PONG: u8 = 0x8B;
const OP_OK_APPENDED: u8 = 0x8C;
const OP_OK_SEALED: u8 = 0x8D;
const OP_OK_METRICS: u8 = 0x8E;
const OP_OK_QUERY_SCHEMA: u8 = 0x93;
const OP_OK_QUERY_CHUNK: u8 = 0x94;
const OP_OK_QUERY_END: u8 = 0x95;
const OP_ERROR: u8 = 0xE0;
const OP_OVERLOADED: u8 = 0xEE;

// Request header flags.
const FLAG_DEADLINE: u8 = 1 << 0;
const FLAG_TRACE: u8 = 1 << 1;
const FLAG_SAMPLED: u8 = 1 << 2;
const KNOWN_FLAGS: u8 = FLAG_DEADLINE | FLAG_TRACE | FLAG_SAMPLED;

// Minimum encoded sizes, used to bound pre-allocation by input length.
const MIN_STR: usize = 2;
const MIN_MSG: usize = MIN_STR + 8 + 4;
const MIN_COUNTER: usize = MIN_STR + 8;
const MIN_HIST: usize = MIN_STR + 3 * 8 + 1;
const MIN_SLOW_OP: usize = 8 + 2 * MIN_STR + 2 * 8 + 4;

/// The fixed request header in front of every request body.
///
/// `corr` is stamped per request and echoed on every frame of the
/// answer. `deadline_ns` is the caller's *relative* budget remaining at
/// send time (no clock synchronisation is assumed): the server measures
/// its own queue wait against it and sheds work whose budget is already
/// spent. `trace` carries the caller's span context so server-side spans
/// parent under it. Absent options cost no bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    pub corr: u32,
    pub deadline_ns: Option<u64>,
    pub trace: Option<TraceContext>,
}

impl Header {
    /// Encoded size of this header.
    pub fn encoded_len(&self) -> usize {
        1 + 4 + self.deadline_ns.map_or(0, |_| 8) + self.trace.map_or(0, |_| 16)
    }

    /// A request's full wire payload: this header, then `req`'s body.
    pub fn encode(&self, req: &Request) -> Vec<u8> {
        let mut w = Writer { buf: Vec::with_capacity(self.encoded_len() + 32) };
        let mut flags = 0;
        if self.deadline_ns.is_some() {
            flags |= FLAG_DEADLINE;
        }
        if let Some(t) = self.trace {
            flags |= FLAG_TRACE | if t.sampled { FLAG_SAMPLED } else { 0 };
        }
        w.u8(flags);
        w.u32(self.corr);
        if let Some(d) = self.deadline_ns {
            w.u64(d);
        }
        if let Some(t) = self.trace {
            w.u64(t.trace_id);
            w.u64(t.parent_span);
        }
        req.write(&mut w);
        w.buf
    }

    /// Split a request payload into its header and the undecoded body.
    pub fn split(payload: &[u8]) -> ProtoResult<(Header, &[u8])> {
        let mut r = Reader::new(payload);
        let flags = r.u8()?;
        if flags & !KNOWN_FLAGS != 0 || flags & (FLAG_TRACE | FLAG_SAMPLED) == FLAG_SAMPLED {
            return Err(ProtoError(format!("unknown request header flags {flags:#04x}")));
        }
        let corr = r.u32()?;
        let deadline_ns = if flags & FLAG_DEADLINE != 0 { Some(r.u64()?) } else { None };
        let trace = if flags & FLAG_TRACE != 0 {
            Some(TraceContext {
                trace_id: r.u64()?,
                parent_span: r.u64()?,
                sampled: flags & FLAG_SAMPLED != 0,
            })
        } else {
            None
        };
        Ok((Header { corr, deadline_ns, trace }, &payload[r.pos..]))
    }

    /// Decode a request payload: header, then body.
    pub fn decode(payload: &[u8]) -> ProtoResult<(Header, Request)> {
        let (h, body) = Header::split(payload)?;
        Ok((h, Request::decode(body)?))
    }
}

/// Split a response frame into `(corr, frame index, body)`.
pub fn split_response(payload: &[u8]) -> ProtoResult<(u32, u32, &[u8])> {
    let mut r = Reader::new(payload);
    let corr = r.u32()?;
    let frame = r.u32()?;
    Ok((corr, frame, &payload[RESPONSE_HEADER_LEN..]))
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open (or touch) a container, pulling it into the handle cache.
    Open { container: String },
    /// List a container's topics.
    Topics { container: String },
    /// Fetch the container's raw metadata (`ContainerMeta::encode` bytes).
    Meta { container: String },
    /// Read messages of `topics`, optionally restricted to `[start, end]`.
    /// Answered by [`Response::StreamChunk`] frames written as the
    /// server-side merge yields messages, closed by
    /// [`Response::StreamEnd`]. The worker's cache pin is held for the
    /// stream's whole lifetime.
    Read { container: String, topics: Vec<String>, range: Option<(Time, Time)> },
    /// Append live messages to an ingest root (`bora-ingest`). Messages
    /// must be per-topic chronological; the whole batch is acked as a
    /// unit once its WAL frames are group-committed. Appends are shed
    /// *before* reads under load: the queue admits them only while it is
    /// less than half full, so a recording robot cannot starve analysts.
    Append { container: String, messages: Vec<WireMessage> },
    /// Seal the ingest root's memtable into sorted segment files and, if
    /// `compact`, merge every sealed segment into the next container
    /// generation.
    Seal { container: String, compact: bool },
    /// Execute a `bora-query` statement against a container (live
    /// ingest roots included — the server reads an MVCC snapshot).
    /// Answered by one [`Response::QuerySchema`], zero or more
    /// [`Response::QueryChunk`]s and a terminal [`Response::QueryEnd`].
    /// `partial: true` asks for flattened partial-aggregate rows
    /// instead of final values — the distributed fragment mode; it is
    /// a [`ErrorCode::BadQuery`] error for non-aggregate statements.
    Query { container: String, sql: String, partial: bool },
    /// Summary numbers for one container.
    Stat { container: String },
    /// Drain the server's span buffers as a Chrome trace JSON document.
    /// Control-plane (skips the data queue); empty unless the server runs
    /// with tracing enabled (`BORA_TRACE=1`). Kept apart from `METRICS`
    /// because it drains destructively.
    Trace,
    /// Liveness/health probe. Control-plane (skips the data queue), so a
    /// saturated server still answers in O(1) — which is exactly what a
    /// cluster health tracker needs: the reply's queue depth *is* the
    /// overload signal, not a timeout.
    Ping,
    /// Full metrics scrape: the node's registry (counters, gauges,
    /// histograms with buckets) plus its slow-op tail, versioned so a
    /// newer poller can reject a layout it does not understand.
    /// Control-plane (skips the data queue) — a telemetry poller must
    /// see an overloaded node, not be shed by it.
    Metrics,
    /// Stop accepting work and shut the pool down.
    Shutdown,
}

/// Reply to [`Request::Ping`]: identity plus the two numbers a cluster
/// health tracker keys routing decisions off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PingInfo {
    /// The serving node's stable identity within a cluster (0 for a
    /// standalone server).
    pub server_id: u32,
    /// Nanoseconds since the server process started its worker pool.
    pub uptime_ns: u64,
    /// Requests sitting in the bounded queue right now.
    pub queue_depth: u32,
}

/// Summary counters for one container (`STAT`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContainerStat {
    pub topics: u32,
    pub messages: u64,
    pub data_bytes: u64,
    pub start: Time,
    pub end: Time,
}

/// One message returned by `READ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMessage {
    pub topic: String,
    pub time: Time,
    pub data: Vec<u8>,
}

impl From<MessageRecord> for WireMessage {
    fn from(m: MessageRecord) -> Self {
        WireMessage { topic: m.topic, time: m.time, data: m.data }
    }
}

/// Layout version of [`MetricsReport`]; bumped whenever the encoding
/// changes shape so pollers can reject reports they don't understand.
pub const METRICS_REPORT_VERSION: u32 = 1;

/// One entry of a node's slow-op ring (`METRICS`): an op that exceeded
/// the server's slow-op threshold, with enough identity to find its
/// spans in a merged trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlowOpEntry {
    /// Trace id of the request, 0 when the request was untraced.
    pub trace_id: u64,
    /// Op name (`read_stream`, `append`, …).
    pub op: String,
    /// Container/shard the op targeted; empty for container-less ops.
    pub container: String,
    /// Worker wall time, queue wait excluded.
    pub wall_ns: u64,
    /// Time parked in the bounded queue before a worker picked it up.
    pub queue_wait_ns: u64,
    /// The reporting node's server id.
    pub server_id: u32,
}

/// Versioned snapshot of one node's metrics registry plus its slow-op
/// tail — the `METRICS` reply a [`crate::ServeClient`] hands to the
/// cluster telemetry poller. Histograms travel with their full bucket
/// content (sparsely: only non-zero buckets), so merged cluster-wide
/// percentiles are bucket-exact rather than averages of percentiles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    /// [`METRICS_REPORT_VERSION`] at encode time.
    pub version: u32,
    pub server_id: u32,
    /// Nanoseconds since the node's worker pool started.
    pub uptime_ns: u64,
    /// Sorted by name (registry order).
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub hists: Vec<(String, HistSummary)>,
    /// Most recent slow ops, oldest first, bounded by the server's ring.
    pub slow_ops: Vec<SlowOpEntry>,
}

impl MetricsReport {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// Error category carried in an [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    NotAContainer = 1,
    UnknownTopic = 2,
    Corrupt = 3,
    Io = 4,
    BadRequest = 5,
    ShuttingDown = 6,
    /// A file's bytes failed CRC32C verification against the container
    /// MANIFEST. The server evicts the cached handle, so a retry reopens
    /// from the medium — transient read damage heals, persistent damage
    /// keeps answering with this code (then `bora fsck --repair`).
    ChecksumMismatch = 7,
    /// The request's propagated deadline budget was already spent when
    /// the server picked the job up, so it shed the work without doing
    /// it. Permanent by design: the budget is gone, and retrying or
    /// failing over cannot buy it back — the caller must either accept
    /// the miss or issue a fresh request with a fresh budget.
    DeadlineExceeded = 8,
    /// The `QUERY` statement failed to lex, parse, or plan. The message
    /// carries the position-annotated rendering; the request can never
    /// succeed as written, so the code is permanent — but the
    /// *connection* survives, exactly like any other request error.
    BadQuery = 9,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::NotAContainer,
            2 => ErrorCode::UnknownTopic,
            3 => ErrorCode::Corrupt,
            4 => ErrorCode::Io,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::ChecksumMismatch,
            8 => ErrorCode::DeadlineExceeded,
            9 => ErrorCode::BadQuery,
            _ => return None,
        })
    }

    /// Whether retrying the same request may succeed without operator
    /// intervention. `Io` faults and checksum failures can heal (the
    /// server reopens the handle); a missing container, unknown topic,
    /// structural corruption, or a malformed request will fail the same
    /// way every time.
    pub fn is_transient(self) -> bool {
        match self {
            ErrorCode::Io | ErrorCode::ChecksumMismatch => true,
            ErrorCode::NotAContainer
            | ErrorCode::UnknownTopic
            | ErrorCode::Corrupt
            | ErrorCode::BadRequest
            | ErrorCode::ShuttingDown
            | ErrorCode::DeadlineExceeded
            | ErrorCode::BadQuery => false,
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Opened {
        stat: ContainerStat,
        cached: bool,
    },
    Topics(Vec<String>),
    /// Raw `ContainerMeta::encode` bytes; the client decodes them with
    /// `bora::ContainerMeta::decode`, reusing the container's own format.
    Meta(Vec<u8>),
    /// One batch of a `READ` answer; more frames follow.
    StreamChunk(Vec<WireMessage>),
    /// Terminal frame of a `READ` answer: total messages streamed.
    StreamEnd {
        messages: u64,
    },
    /// First frame of a `QUERY` answer: result column names.
    QuerySchema(Vec<String>),
    /// One batch of a `QUERY` answer: rows in the `bora_query::wire`
    /// blob encoding (opaque to this layer).
    QueryChunk(Vec<u8>),
    /// Terminal frame of a `QUERY` answer: total rows streamed, plus
    /// the rendered plan for `EXPLAIN` / `EXPLAIN ANALYZE` (empty
    /// otherwise).
    QueryEnd {
        rows: u64,
        explain: String,
    },
    /// Reply to [`Request::Append`]: messages durably written and the
    /// store's MVCC epoch after the batch.
    Appended {
        appended: u64,
        epoch: u64,
    },
    /// Reply to [`Request::Seal`]: the epoch after the operation and how
    /// many sealed batches still await compaction (0 right after a
    /// `compact: true` seal — the compaction-lag signal).
    Sealed {
        epoch: u64,
        sealed_segments: u32,
    },
    Stat(ContainerStat),
    /// Full registry scrape (see [`Request::Metrics`]).
    Metrics(MetricsReport),
    /// Chrome `trace_event` JSON text drained from the server's span
    /// buffers (see [`Request::Trace`]).
    Trace(String),
    /// Health-probe reply (see [`Request::Ping`]).
    Pong(PingInfo),
    ShuttingDown,
    Error {
        code: ErrorCode,
        message: String,
    },
    /// The bounded request queue was full; retry later. Sent without
    /// queueing, so an overloaded server answers this in O(1).
    Overloaded,
}

impl Response {
    /// Whether more frames of the same answer follow this one.
    pub fn is_partial(&self) -> bool {
        matches!(
            self,
            Response::StreamChunk(_) | Response::QuerySchema(_) | Response::QueryChunk(_)
        )
    }
}

/// Decode failure: the frame was structurally invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

type ProtoResult<T> = Result<T, ProtoError>;

// ---------------------------------------------------------------- encoding

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn time(&mut self, t: Time) {
        self.u32(t.sec);
        self.u32(t.nsec);
    }
    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
        self.u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn strs(&mut self, v: &[String]) {
        self.u16(v.len() as u16);
        for s in v {
            self.str(s);
        }
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    fn stat(&mut self, s: &ContainerStat) {
        self.u32(s.topics);
        self.u64(s.messages);
        self.u64(s.data_bytes);
        self.time(s.start);
        self.time(s.end);
    }
    fn msgs(&mut self, msgs: &[WireMessage]) {
        self.u32(msgs.len() as u32);
        for m in msgs {
            self.str(&m.topic);
            self.time(m.time);
            self.bytes(&m.data);
        }
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Histogram with sparse buckets: exact count/sum/min, then
    /// `(index, value)` pairs for the non-zero buckets only — a typical
    /// latency histogram occupies a dozen of the 64.
    fn hist(&mut self, h: &HistSummary) {
        self.u64(h.count);
        self.u64(h.sum);
        self.u64(h.min);
        let nonzero = h.buckets.iter().filter(|&&b| b != 0).count();
        self.u8(nonzero as u8);
        for (i, &b) in h.buckets.iter().enumerate() {
            if b != 0 {
                self.u8(i as u8);
                self.u64(b);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> ProtoResult<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(ProtoError(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Capacity to reserve for `n` claimed elements of at least
    /// `min_len` encoded bytes each: never more than the remaining input
    /// could hold, so a forged count cannot allocate beyond the frame.
    fn cap(&self, n: usize, min_len: usize) -> usize {
        n.min((self.buf.len() - self.pos) / min_len)
    }
    fn u8(&mut self) -> ProtoResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> ProtoResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> ProtoResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> ProtoResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn flag(&mut self, what: &str) -> ProtoResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ProtoError(format!("bad {what} marker {v}"))),
        }
    }
    fn time(&mut self) -> ProtoResult<Time> {
        Ok(Time { sec: self.u32()?, nsec: self.u32()? })
    }
    fn str(&mut self) -> ProtoResult<String> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ProtoError("non-UTF8 string field".into()))
    }
    fn strs(&mut self) -> ProtoResult<Vec<String>> {
        let n = self.u16()? as usize;
        let mut v = Vec::with_capacity(self.cap(n, MIN_STR));
        for _ in 0..n {
            v.push(self.str()?);
        }
        Ok(v)
    }
    fn bytes(&mut self) -> ProtoResult<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }
    fn text(&mut self, what: &str) -> ProtoResult<String> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtoError(format!("{what} is not UTF-8")))
    }
    fn stat(&mut self) -> ProtoResult<ContainerStat> {
        Ok(ContainerStat {
            topics: self.u32()?,
            messages: self.u64()?,
            data_bytes: self.u64()?,
            start: self.time()?,
            end: self.time()?,
        })
    }
    fn msgs(&mut self) -> ProtoResult<Vec<WireMessage>> {
        let n = self.u32()? as usize;
        let mut messages = Vec::with_capacity(self.cap(n, MIN_MSG));
        for _ in 0..n {
            messages.push(WireMessage {
                topic: self.str()?,
                time: self.time()?,
                data: self.bytes()?,
            });
        }
        Ok(messages)
    }
    /// A `u16`-counted list of `item`s, each at least `min_len` bytes.
    fn list<T>(
        &mut self,
        min_len: usize,
        mut item: impl FnMut(&mut Self) -> ProtoResult<T>,
    ) -> ProtoResult<Vec<T>> {
        let n = self.u16()? as usize;
        let mut v = Vec::with_capacity(self.cap(n, min_len));
        for _ in 0..n {
            v.push(item(self)?);
        }
        Ok(v)
    }
    fn i64(&mut self) -> ProtoResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn hist(&mut self) -> ProtoResult<HistSummary> {
        let mut h = HistSummary {
            count: self.u64()?,
            sum: self.u64()?,
            min: self.u64()?,
            buckets: [0; BUCKETS],
        };
        let nonzero = self.u8()? as usize;
        for _ in 0..nonzero {
            let idx = self.u8()? as usize;
            if idx >= BUCKETS {
                return Err(ProtoError(format!("histogram bucket index {idx} out of range")));
            }
            h.buckets[idx] = self.u64()?;
        }
        Ok(h)
    }
    fn finish(self) -> ProtoResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError(format!("{} trailing bytes after payload", self.buf.len() - self.pos)))
        }
    }
}

impl Request {
    /// The container a data-plane request targets, if any.
    pub fn container(&self) -> Option<&str> {
        match self {
            Request::Open { container }
            | Request::Topics { container }
            | Request::Meta { container }
            | Request::Read { container, .. }
            | Request::Append { container, .. }
            | Request::Seal { container, .. }
            | Request::Query { container, .. }
            | Request::Stat { container } => Some(container),
            Request::Metrics | Request::Trace | Request::Ping | Request::Shutdown => None,
        }
    }

    /// Human-readable op name, used as the metrics key.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Topics { .. } => "topics",
            Request::Meta { .. } => "meta",
            Request::Read { .. } => "read_stream",
            Request::Append { .. } => "append",
            Request::Seal { .. } => "seal",
            Request::Query { .. } => "query",
            Request::Stat { .. } => "stat",
            Request::Metrics => "metrics",
            Request::Trace => "trace",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }

    /// The request body alone (opcode + fields), without a [`Header`].
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
        self.write(&mut w);
        w.buf
    }

    fn write(&self, w: &mut Writer) {
        match self {
            Request::Open { container } => {
                w.u8(OP_OPEN);
                w.str(container);
            }
            Request::Topics { container } => {
                w.u8(OP_TOPICS);
                w.str(container);
            }
            Request::Meta { container } => {
                w.u8(OP_META);
                w.str(container);
            }
            Request::Read { container, topics, range } => {
                w.u8(OP_READ);
                w.str(container);
                w.strs(topics);
                match range {
                    Some((start, end)) => {
                        w.u8(1);
                        w.time(*start);
                        w.time(*end);
                    }
                    None => w.u8(0),
                }
            }
            Request::Append { container, messages } => {
                w.u8(OP_APPEND);
                w.str(container);
                w.msgs(messages);
            }
            Request::Seal { container, compact } => {
                w.u8(OP_SEAL);
                w.str(container);
                w.u8(*compact as u8);
            }
            Request::Query { container, sql, partial } => {
                w.u8(OP_QUERY);
                w.str(container);
                // u32 length: query text has no natural u16 bound.
                w.bytes(sql.as_bytes());
                w.u8(*partial as u8);
            }
            Request::Stat { container } => {
                w.u8(OP_STAT);
                w.str(container);
            }
            Request::Metrics => w.u8(OP_METRICS),
            Request::Trace => w.u8(OP_TRACE),
            Request::Ping => w.u8(OP_PING),
            Request::Shutdown => w.u8(OP_SHUTDOWN),
        }
    }

    /// Decode a request body (the bytes after the [`Header`]).
    pub fn decode(payload: &[u8]) -> ProtoResult<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            OP_OPEN => Request::Open { container: r.str()? },
            OP_TOPICS => Request::Topics { container: r.str()? },
            OP_META => Request::Meta { container: r.str()? },
            OP_READ => {
                let container = r.str()?;
                let topics = r.strs()?;
                let range = if r.flag("range")? { Some((r.time()?, r.time()?)) } else { None };
                Request::Read { container, topics, range }
            }
            OP_APPEND => {
                let container = r.str()?;
                Request::Append { container, messages: r.msgs()? }
            }
            OP_SEAL => {
                let container = r.str()?;
                Request::Seal { container, compact: r.flag("compact")? }
            }
            OP_QUERY => {
                let container = r.str()?;
                let sql = r.text("query text")?;
                Request::Query { container, sql, partial: r.flag("partial")? }
            }
            OP_STAT => Request::Stat { container: r.str()? },
            OP_METRICS => Request::Metrics,
            OP_TRACE => Request::Trace,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtoError(format!("unknown request opcode {other:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// The response body alone, without the response header.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
        self.write(&mut w);
        w.buf
    }

    /// A full response frame: `corr`, the frame's index within its
    /// answer, then the body.
    pub fn encode_with(&self, corr: u32, frame: u32) -> Vec<u8> {
        let mut w = Writer { buf: Vec::with_capacity(64) };
        w.u32(corr);
        w.u32(frame);
        self.write(&mut w);
        w.buf
    }

    fn write(&self, w: &mut Writer) {
        match self {
            Response::Opened { stat, cached } => {
                w.u8(OP_OK_OPEN);
                w.stat(stat);
                w.u8(*cached as u8);
            }
            Response::Topics(topics) => {
                w.u8(OP_OK_TOPICS);
                w.strs(topics);
            }
            Response::Meta(bytes) => {
                w.u8(OP_OK_META);
                w.bytes(bytes);
            }
            Response::StreamChunk(messages) => {
                w.u8(OP_OK_STREAM_CHUNK);
                w.msgs(messages);
            }
            Response::StreamEnd { messages } => {
                w.u8(OP_OK_STREAM_END);
                w.u64(*messages);
            }
            Response::QuerySchema(cols) => {
                w.u8(OP_OK_QUERY_SCHEMA);
                w.strs(cols);
            }
            Response::QueryChunk(blob) => {
                w.u8(OP_OK_QUERY_CHUNK);
                w.bytes(blob);
            }
            Response::QueryEnd { rows, explain } => {
                w.u8(OP_OK_QUERY_END);
                w.u64(*rows);
                w.bytes(explain.as_bytes());
            }
            Response::Appended { appended, epoch } => {
                w.u8(OP_OK_APPENDED);
                w.u64(*appended);
                w.u64(*epoch);
            }
            Response::Sealed { epoch, sealed_segments } => {
                w.u8(OP_OK_SEALED);
                w.u64(*epoch);
                w.u32(*sealed_segments);
            }
            Response::Stat(stat) => {
                w.u8(OP_OK_STAT);
                w.stat(stat);
            }
            Response::Metrics(m) => {
                w.u8(OP_OK_METRICS);
                w.u32(m.version);
                w.u32(m.server_id);
                w.u64(m.uptime_ns);
                w.u16(m.counters.len() as u16);
                for (name, v) in &m.counters {
                    w.str(name);
                    w.u64(*v);
                }
                w.u16(m.gauges.len() as u16);
                for (name, v) in &m.gauges {
                    w.str(name);
                    w.i64(*v);
                }
                w.u16(m.hists.len() as u16);
                for (name, h) in &m.hists {
                    w.str(name);
                    w.hist(h);
                }
                w.u16(m.slow_ops.len() as u16);
                for s in &m.slow_ops {
                    w.u64(s.trace_id);
                    w.str(&s.op);
                    w.str(&s.container);
                    w.u64(s.wall_ns);
                    w.u64(s.queue_wait_ns);
                    w.u32(s.server_id);
                }
            }
            Response::Trace(json) => {
                w.u8(OP_OK_TRACE);
                w.bytes(json.as_bytes());
            }
            Response::Pong(p) => {
                w.u8(OP_OK_PONG);
                w.u32(p.server_id);
                w.u64(p.uptime_ns);
                w.u32(p.queue_depth);
            }
            Response::ShuttingDown => w.u8(OP_OK_SHUTDOWN),
            Response::Error { code, message } => {
                w.u8(OP_ERROR);
                w.u8(*code as u8);
                w.str(message);
            }
            Response::Overloaded => w.u8(OP_OVERLOADED),
        }
    }

    /// Decode a response body (the bytes after the response header).
    pub fn decode(payload: &[u8]) -> ProtoResult<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            OP_OK_OPEN => {
                let stat = r.stat()?;
                let cached = r.u8()? != 0;
                Response::Opened { stat, cached }
            }
            OP_OK_TOPICS => Response::Topics(r.strs()?),
            OP_OK_META => Response::Meta(r.bytes()?),
            OP_OK_STREAM_CHUNK => Response::StreamChunk(r.msgs()?),
            OP_OK_STREAM_END => Response::StreamEnd { messages: r.u64()? },
            OP_OK_QUERY_SCHEMA => Response::QuerySchema(r.strs()?),
            OP_OK_QUERY_CHUNK => Response::QueryChunk(r.bytes()?),
            OP_OK_QUERY_END => {
                let rows = r.u64()?;
                Response::QueryEnd { rows, explain: r.text("explain text")? }
            }
            OP_OK_APPENDED => Response::Appended { appended: r.u64()?, epoch: r.u64()? },
            OP_OK_SEALED => Response::Sealed { epoch: r.u64()?, sealed_segments: r.u32()? },
            OP_OK_STAT => Response::Stat(r.stat()?),
            OP_OK_METRICS => Response::Metrics(MetricsReport {
                version: r.u32()?,
                server_id: r.u32()?,
                uptime_ns: r.u64()?,
                counters: r.list(MIN_COUNTER, |r| Ok((r.str()?, r.u64()?)))?,
                gauges: r.list(MIN_COUNTER, |r| Ok((r.str()?, r.i64()?)))?,
                hists: r.list(MIN_HIST, |r| Ok((r.str()?, r.hist()?)))?,
                slow_ops: r.list(MIN_SLOW_OP, |r| {
                    Ok(SlowOpEntry {
                        trace_id: r.u64()?,
                        op: r.str()?,
                        container: r.str()?,
                        wall_ns: r.u64()?,
                        queue_wait_ns: r.u64()?,
                        server_id: r.u32()?,
                    })
                })?,
            }),
            OP_OK_TRACE => Response::Trace(r.text("trace document")?),
            OP_OK_PONG => Response::Pong(PingInfo {
                server_id: r.u32()?,
                uptime_ns: r.u64()?,
                queue_depth: r.u32()?,
            }),
            OP_OK_SHUTDOWN => Response::ShuttingDown,
            OP_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)
                    .ok_or_else(|| ProtoError("unknown error code".into()))?;
                Response::Error { code, message: r.str()? }
            }
            OP_OVERLOADED => Response::Overloaded,
            other => return Err(ProtoError(format!("unknown response opcode {other:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Wrap a payload in a length-prefixed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse a frame header, validating the length bound.
pub fn frame_len(header: [u8; FRAME_HEADER_LEN]) -> ProtoResult<usize> {
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError(format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}")));
    }
    Ok(len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let framed = resp.encode_with(7, 3);
        let (corr, frame, body) = split_response(&framed).unwrap();
        assert_eq!((corr, frame), (7, 3));
        assert_eq!(Response::decode(body).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Open { container: "/c/hs0".into() });
        roundtrip_req(Request::Topics { container: "".into() });
        roundtrip_req(Request::Meta { container: "/c".into() });
        roundtrip_req(Request::Read {
            container: "/c/hs0".into(),
            topics: vec!["/camera/depth".into(), "/imu".into()],
            range: Some((Time::new(3, 14), Time::new(10, 0))),
        });
        roundtrip_req(Request::Read { container: "/c".into(), topics: vec![], range: None });
        roundtrip_req(Request::Append {
            container: "/live".into(),
            messages: vec![
                WireMessage { topic: "/imu".into(), time: Time::new(3, 14), data: vec![1, 2] },
                WireMessage { topic: "/cam".into(), time: Time::new(3, 15), data: vec![] },
            ],
        });
        roundtrip_req(Request::Append { container: "/live".into(), messages: vec![] });
        roundtrip_req(Request::Seal { container: "/live".into(), compact: true });
        roundtrip_req(Request::Seal { container: "/live".into(), compact: false });
        roundtrip_req(Request::Query {
            container: "/c/hs0".into(),
            sql: "SELECT count() FROM '/imu' WHERE time >= 1.0".into(),
            partial: true,
        });
        roundtrip_req(Request::Query { container: "/c".into(), sql: "".into(), partial: false });
        // Query text is u32-length-prefixed: no u16 ceiling on statements.
        roundtrip_req(Request::Query {
            container: "/c".into(),
            sql: format!("SELECT time FROM '/t' WHERE {}", "x.y > 1 AND ".repeat(10_000)),
            partial: false,
        });
        roundtrip_req(Request::Stat { container: "/c".into() });
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Trace);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn header_layout_is_fixed() {
        let req =
            Request::Read { container: "/c/hs0".into(), topics: vec!["/imu".into()], range: None };
        let body = req.encode();
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF_0042, parent_span: 77, sampled: true };
        let cases = [
            (Header { corr: 9, deadline_ns: None, trace: None }, 0u8, 5usize),
            (Header { corr: 9, deadline_ns: Some(1_500_000), trace: None }, 1, 13),
            (Header { corr: 9, deadline_ns: None, trace: Some(ctx) }, 6, 21),
            (Header { corr: 9, deadline_ns: Some(42), trace: Some(ctx) }, 7, 29),
            (
                Header {
                    corr: 9,
                    deadline_ns: None,
                    trace: Some(TraceContext { sampled: false, ..ctx }),
                },
                2,
                21,
            ),
        ];
        for (h, flags, len) in cases {
            let wire = h.encode(&req);
            assert_eq!(h.encoded_len(), len);
            assert_eq!(wire.len(), len + body.len(), "{h:?}");
            assert_eq!(wire[0], flags);
            assert_eq!(&wire[1..5], &9u32.to_le_bytes());
            assert_eq!(&wire[len..], body.as_slice(), "body bytes follow the header unchanged");
            assert_eq!(Header::decode(&wire).unwrap(), (h, req.clone()));
        }
        // Unknown flag bits, and the sampled bit without a trace context,
        // are typed errors.
        for flags in [0x08u8, 0x80, 0x04, 0x05] {
            let mut wire = Header::default().encode(&req);
            wire[0] = flags;
            assert!(Header::decode(&wire).is_err(), "flags {flags:#04x}");
        }
        assert!(Header::decode(&[]).is_err());
        assert!(Header::decode(&[1, 0, 0, 0, 0, 1, 2]).is_err(), "truncated deadline");
    }

    #[test]
    fn metrics_report_roundtrips() {
        let mut hist = HistSummary { count: 3, sum: 1_000_000, min: 120, ..Default::default() };
        hist.buckets[7] = 2;
        hist.buckets[19] = 1;
        let report = MetricsReport {
            version: METRICS_REPORT_VERSION,
            server_id: 2,
            uptime_ns: 5_000_000_000,
            counters: vec![("serve.shed".into(), 4), ("cache.hits".into(), 99)],
            gauges: vec![("serve.queue_depth".into(), -1), ("serve.inflight".into(), 12)],
            hists: vec![
                ("serve.op.read_stream.wall_ns".into(), hist),
                ("empty".into(), HistSummary::default()),
            ],
            slow_ops: vec![SlowOpEntry {
                trace_id: 42,
                op: "read_stream".into(),
                container: "/c/hs0".into(),
                wall_ns: 25_000_000,
                queue_wait_ns: 3_000,
                server_id: 2,
            }],
        };
        roundtrip_resp(Response::Metrics(report.clone()));
        assert_eq!(report.counter("cache.hits"), 99);
        assert_eq!(report.counter("missing"), 0);
        assert_eq!(report.gauge("serve.queue_depth"), Some(-1));
        assert_eq!(report.hist("serve.op.read_stream.wall_ns").unwrap().count, 3);
        roundtrip_resp(Response::Metrics(MetricsReport::default()));
        // A sparse histogram with an out-of-range bucket index is rejected.
        let mut r = super::Reader::new(&[
            0, 0, 0, 0, 0, 0, 0, 0, // count
            0, 0, 0, 0, 0, 0, 0, 0, // sum
            0, 0, 0, 0, 0, 0, 0, 0, // min
            1, 64, 1, 0, 0, 0, 0, 0, 0, 0, // one bucket at index 64 (out of range)
        ]);
        assert!(r.hist().is_err());
    }

    #[test]
    fn response_roundtrips() {
        let stat = ContainerStat {
            topics: 7,
            messages: 12_345,
            data_bytes: 1 << 30,
            start: Time::new(1, 2),
            end: Time::new(100, 999_999_999),
        };
        roundtrip_resp(Response::Opened { stat: stat.clone(), cached: true });
        roundtrip_resp(Response::Topics(vec!["/imu".into(), "/tf".into()]));
        roundtrip_resp(Response::Meta(vec![1, 2, 3, 255]));
        roundtrip_resp(Response::StreamChunk(vec![
            WireMessage { topic: "/imu".into(), time: Time::new(5, 0), data: vec![0; 64] },
            WireMessage { topic: "/tf".into(), time: Time::new(5, 1), data: vec![] },
        ]));
        roundtrip_resp(Response::StreamChunk(vec![]));
        roundtrip_resp(Response::StreamEnd { messages: 42 });
        roundtrip_resp(Response::QuerySchema(vec!["time".into(), "__count".into()]));
        roundtrip_resp(Response::QuerySchema(vec![]));
        roundtrip_resp(Response::QueryChunk(vec![0, 1, 2, 254, 255]));
        roundtrip_resp(Response::QueryChunk(vec![]));
        roundtrip_resp(Response::QueryEnd { rows: 9_000, explain: "Scan topics=[/imu]".into() });
        roundtrip_resp(Response::QueryEnd { rows: 0, explain: "".into() });
        roundtrip_resp(Response::Error {
            code: ErrorCode::BadQuery,
            message: "SELECT\n^ expected an expression".into(),
        });
        roundtrip_resp(Response::Appended { appended: 17, epoch: 930 });
        roundtrip_resp(Response::Sealed { epoch: 931, sealed_segments: 3 });
        roundtrip_resp(Response::Stat(stat));
        roundtrip_resp(Response::Trace("{\"traceEvents\":[]}".into()));
        roundtrip_resp(Response::Pong(PingInfo {
            server_id: 3,
            uptime_ns: 987_654_321,
            queue_depth: 17,
        }));
        roundtrip_resp(Response::Pong(PingInfo::default()));
        roundtrip_resp(Response::ShuttingDown);
        roundtrip_resp(Response::Error { code: ErrorCode::UnknownTopic, message: "/nope".into() });
        roundtrip_resp(Response::Error {
            code: ErrorCode::ChecksumMismatch,
            message: "t/data".into(),
        });
        roundtrip_resp(Response::Overloaded);
        assert!(split_response(&[1, 0, 0, 0, 2, 0, 0]).is_err(), "short response header");
    }

    #[test]
    fn transient_classification() {
        assert!(ErrorCode::Io.is_transient());
        assert!(ErrorCode::ChecksumMismatch.is_transient());
        for code in [
            ErrorCode::NotAContainer,
            ErrorCode::UnknownTopic,
            ErrorCode::Corrupt,
            ErrorCode::BadRequest,
            ErrorCode::ShuttingDown,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadQuery,
        ] {
            assert!(!code.is_transient(), "{code:?} must be permanent");
        }
    }

    #[test]
    fn request_container_accessor() {
        assert_eq!(Request::Open { container: "/c".into() }.container(), Some("/c"));
        assert_eq!(
            Request::Read { container: "/c".into(), topics: vec![], range: None }.container(),
            Some("/c")
        );
        assert_eq!(
            Request::Append { container: "/live".into(), messages: vec![] }.container(),
            Some("/live")
        );
        assert_eq!(
            Request::Seal { container: "/live".into(), compact: false }.container(),
            Some("/live")
        );
        assert_eq!(Request::Metrics.container(), None);
        assert_eq!(Request::Ping.container(), None);
        assert_eq!(Request::Shutdown.container(), None);
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x42]).is_err(), "unknown opcode");
        // Retired opcodes (0x06, 0x09, 0x12) decode as unknown.
        for op in [0x06u8, 0x09, 0x12] {
            assert!(Request::decode(&[op]).is_err(), "{op:#04x}");
        }
        // OPEN with a length prefix pointing past the end.
        assert!(Request::decode(&[OP_OPEN, 0xFF, 0xFF, b'x']).is_err());
        // Valid request with trailing garbage.
        let mut buf = Request::Metrics.encode();
        buf.push(0);
        assert!(Request::decode(&buf).is_err());
        // Oversized frame header.
        assert!(frame_len((MAX_FRAME_LEN + 1).to_le_bytes()).is_err());
        assert_eq!(frame_len(17u32.to_le_bytes()).unwrap(), 17);
    }
}

//! Compressed columnar topic blocks.
//!
//! A block-framed topic stores its `data` file as a sequence of
//! self-describing frames, each covering a fixed-size *logical* range of
//! the topic's concatenated payload bytes (`block_size`, tail block
//! shorter). Message index entries keep addressing **logical** offsets —
//! the fine index, the coarse time index, and the ingest high-water reads
//! are untouched by the physical framing.
//!
//! ```text
//! data:   [frame 0][frame 1]...[frame n-1]
//! frame:  codec u8 | unc_len u32 | phys_len u32 | crc32c u32 | payload
//! blocks: magic | version | codec | block_size | logical_len | count
//!         then per block: varint(frame_len) varint(first_time delta)
//! ```
//!
//! * The frame CRC covers the **stored** payload bytes, so a torn or
//!   bit-flipped block surfaces as a typed
//!   [`BoraError::ChecksumMismatch`] *before* any decompression runs.
//! * The per-frame codec tag lets an incompressible block fall back to
//!   raw storage even inside an LZSS container (LZSS can expand
//!   adversarial input; the fallback bounds every frame at
//!   `unc_len + FRAME_HEADER_LEN`).
//! * The `blocks` map file carries the physical frame lengths (prefix
//!   sums give frame offsets) plus each block's first message timestamp,
//!   delta-encoded as varints — random logical access costs one map
//!   lookup, no frame scan.
//!
//! Logical block `i` covers `[i*block_size, (i+1)*block_size)`, which is
//! exactly one buffer-pool page ([`crate::bufpool`]): the cursor fill
//! path decompresses a frame straight into the pool page that serves it.

use ros_msgs::Time;
use simfs::device::cpu;
use simfs::IoCtx;

use crate::checksum::crc32c;
use crate::error::{BoraError, BoraResult};

/// Magic of the per-topic `blocks` map file ("BLKS").
const BLOCKS_MAGIC: u32 = 0x424C_4B53;
/// Version of the `blocks` map format.
const BLOCKS_VERSION: u32 = 1;
/// Bytes of a frame header: codec + unc_len + phys_len + crc32c.
pub const FRAME_HEADER_LEN: usize = 1 + 4 + 4 + 4;
/// Default logical bytes per block (= one buffer-pool page).
pub const DEFAULT_BLOCK_SIZE: u32 = 64 * 1024;

/// Payload codec of a block-framed topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockCodec {
    /// Frames but no compression: framing alone buys per-block CRCs and
    /// pool-page-aligned reads.
    #[default]
    None,
    /// Per-block LZSS (the same codec rosbag chunks use).
    Lzss,
}

impl BlockCodec {
    pub fn id(self) -> u8 {
        match self {
            BlockCodec::None => 0,
            BlockCodec::Lzss => 1,
        }
    }

    pub fn from_id(id: u8) -> BoraResult<Self> {
        match id {
            0 => Ok(BlockCodec::None),
            1 => Ok(BlockCodec::Lzss),
            other => Err(BoraError::Corrupt(format!("unknown block codec id {other}"))),
        }
    }
}

impl std::fmt::Display for BlockCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockCodec::None => write!(f, "none"),
            BlockCodec::Lzss => write!(f, "lzss"),
        }
    }
}

/// Container-level block parameters (recorded in `.bora` metadata v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockParams {
    pub codec: BlockCodec,
    /// Logical bytes per block; also the buffer-pool page size the
    /// container's pages decode into.
    pub block_size: u32,
}

impl Default for BlockParams {
    fn default() -> Self {
        BlockParams { codec: BlockCodec::Lzss, block_size: DEFAULT_BLOCK_SIZE }
    }
}

/// One block's entry in the `blocks` map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Physical offset of the frame in the `data` file.
    pub phys_off: u64,
    /// Physical frame length (header + stored payload).
    pub frame_len: u32,
    /// Timestamp of the message owning the block's first logical byte.
    pub first_time: Time,
}

/// Decoded per-topic `blocks` map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMap {
    pub codec: BlockCodec,
    pub block_size: u32,
    /// Total logical (uncompressed) bytes — what the fine index tiles.
    pub logical_len: u64,
    pub entries: Vec<BlockEntry>,
}

impl BlockMap {
    /// Logical `[start, len)` range block `i` covers.
    pub fn logical_range(&self, i: usize) -> (u64, usize) {
        let start = i as u64 * self.block_size as u64;
        let len = (self.logical_len - start).min(self.block_size as u64) as usize;
        (start, len)
    }

    /// Block index covering logical offset `off`.
    pub fn block_of(&self, off: u64) -> usize {
        (off / self.block_size as u64) as usize
    }

    /// Total physical bytes of the framed `data` file.
    pub fn phys_len(&self) -> u64 {
        self.entries.iter().map(|e| e.frame_len as u64).sum()
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.entries.len() * 4);
        out.extend_from_slice(&BLOCKS_MAGIC.to_le_bytes());
        out.extend_from_slice(&BLOCKS_VERSION.to_le_bytes());
        out.push(self.codec.id());
        out.extend_from_slice(&self.block_size.to_le_bytes());
        out.extend_from_slice(&self.logical_len.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        let mut prev_time = 0u64;
        for e in &self.entries {
            put_varint(&mut out, e.frame_len as u64);
            let t = e.first_time.as_nanos();
            put_varint(&mut out, t.saturating_sub(prev_time));
            prev_time = t;
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> BoraResult<Self> {
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.u32()? != BLOCKS_MAGIC {
            return Err(BoraError::Corrupt("blocks map magic mismatch".into()));
        }
        let ver = cur.u32()?;
        if ver != BLOCKS_VERSION {
            return Err(BoraError::Corrupt(format!("unsupported blocks map version {ver}")));
        }
        let codec = BlockCodec::from_id(cur.u8()?)?;
        let block_size = cur.u32()?;
        if block_size == 0 {
            return Err(BoraError::Corrupt("blocks map has zero block size".into()));
        }
        let logical_len = cur.u64()?;
        let count = cur.u32()? as usize;
        // Every entry takes at least two varint bytes, so the bytes left
        // bound what a forged count can make us reserve.
        let mut entries = Vec::with_capacity(count.min((bytes.len() - cur.pos) / 2));
        let (mut phys_off, mut prev_time) = (0u64, 0u64);
        for _ in 0..count {
            let frame_len = cur.varint()?;
            let delta = cur.varint()?;
            prev_time += delta;
            entries.push(BlockEntry {
                phys_off,
                frame_len: frame_len as u32,
                first_time: Time::from_nanos(prev_time),
            });
            phys_off += frame_len;
        }
        if cur.pos != bytes.len() {
            return Err(BoraError::Corrupt("trailing bytes in blocks map".into()));
        }
        let expect_blocks = logical_len.div_ceil(block_size as u64) as usize;
        if expect_blocks != entries.len() {
            return Err(BoraError::Corrupt(format!(
                "blocks map lists {} blocks for {} logical bytes (expected {})",
                entries.len(),
                logical_len,
                expect_blocks
            )));
        }
        Ok(BlockMap { codec, block_size, logical_len, entries })
    }
}

/// Encode one frame: compress (with raw fallback when compression does
/// not pay), CRC the stored bytes, prepend the header.
pub fn encode_frame(codec: BlockCodec, logical: &[u8], ctx: &mut IoCtx) -> Vec<u8> {
    let (stored_codec, stored) = match codec {
        BlockCodec::None => (BlockCodec::None, std::borrow::Cow::Borrowed(logical)),
        BlockCodec::Lzss => {
            ctx.charge_ns(logical.len() as u64 * cpu::COMPRESS_BYTE_NS);
            let packed = rosbag::compress::compress(logical);
            if packed.len() < logical.len() {
                (BlockCodec::Lzss, std::borrow::Cow::Owned(packed))
            } else {
                (BlockCodec::None, std::borrow::Cow::Borrowed(logical))
            }
        }
    };
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + stored.len());
    out.push(stored_codec.id());
    out.extend_from_slice(&(logical.len() as u32).to_le_bytes());
    out.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(&stored).to_le_bytes());
    out.extend_from_slice(&stored);
    out
}

/// Decode one frame starting at `frame[0]`, verifying the stored-byte CRC
/// before any decompression. `path` labels the [`BoraError::ChecksumMismatch`]
/// (container-relative, like manifest verification failures). The CRC does
/// not cover the header, so a claimed logical length above `block_size`
/// is rejected before anything is allocated for it. Returns the logical
/// bytes and the physical frame length consumed.
pub fn decode_frame(
    frame: &[u8],
    block_size: u32,
    path: &str,
    ctx: &mut IoCtx,
) -> BoraResult<(Vec<u8>, usize)> {
    if frame.len() < FRAME_HEADER_LEN {
        return Err(BoraError::Corrupt(format!("{path}: truncated block frame header")));
    }
    let codec = BlockCodec::from_id(frame[0])?;
    let unc_len = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
    let phys_len = u32::from_le_bytes(frame[5..9].try_into().unwrap()) as usize;
    let expected = u32::from_le_bytes(frame[9..13].try_into().unwrap());
    if unc_len > block_size as usize {
        return Err(BoraError::Corrupt(format!(
            "{path}: block frame claims {unc_len} logical bytes, block size is {block_size}"
        )));
    }
    let total = FRAME_HEADER_LEN + phys_len;
    if frame.len() < total {
        return Err(BoraError::Corrupt(format!("{path}: truncated block frame payload")));
    }
    let stored = &frame[FRAME_HEADER_LEN..total];
    let actual = crc32c(stored);
    if actual != expected {
        bora_obs::counter("verify.checksum_fail").inc();
        return Err(BoraError::ChecksumMismatch { path: path.to_owned(), expected, actual });
    }
    let logical = match codec {
        BlockCodec::None => {
            if stored.len() != unc_len {
                return Err(BoraError::Corrupt(format!("{path}: raw block length mismatch")));
            }
            stored.to_vec()
        }
        BlockCodec::Lzss => {
            ctx.charge_ns(unc_len as u64 * cpu::DECOMPRESS_BYTE_NS);
            rosbag::compress::decompress(stored, unc_len)
                .map_err(|e| BoraError::Corrupt(format!("{path}: block decompress: {e}")))?
        }
    };
    Ok((logical, total))
}

/// Streaming writer for one topic's block-framed `data` file: payloads go
/// in logically, full frames come out physically. The container writer
/// ([`crate::writer::TopicWriter`]) drives one per framed topic and
/// flushes [`BlockWriter::take_output`] to storage at its write-buffer
/// cadence.
pub struct BlockWriter {
    params: BlockParams,
    /// Pending logical bytes of the current (unfinished) block.
    buf: Vec<u8>,
    /// Timestamp owning the current block's first logical byte.
    cur_first: Option<Time>,
    /// Encoded frames not yet taken by the caller.
    out: Vec<u8>,
    entries: Vec<BlockEntry>,
    logical_len: u64,
    phys_len: u64,
    crc: crate::checksum::Crc32c,
}

impl BlockWriter {
    pub fn new(params: BlockParams) -> Self {
        BlockWriter {
            params,
            buf: Vec::with_capacity(params.block_size as usize),
            cur_first: None,
            out: Vec::new(),
            entries: Vec::new(),
            logical_len: 0,
            phys_len: 0,
            crc: crate::checksum::Crc32c::new(),
        }
    }

    /// Append one message payload; frames drain into the output buffer as
    /// blocks fill. Messages may span block boundaries.
    pub fn push(&mut self, time: Time, payload: &[u8], ctx: &mut IoCtx) {
        if self.cur_first.is_none() {
            self.cur_first = Some(time);
        }
        self.buf.extend_from_slice(payload);
        self.logical_len += payload.len() as u64;
        let bs = self.params.block_size as usize;
        let mut drained = false;
        while self.buf.len() >= bs {
            let rest = self.buf.split_off(bs);
            let full = std::mem::replace(&mut self.buf, rest);
            self.emit(&full, ctx);
            drained = true;
        }
        // Any remainder after a drain is a tail of *this* payload (the
        // pre-existing bytes were < block_size, so they all drained).
        if drained {
            self.cur_first = if self.buf.is_empty() { None } else { Some(time) };
        }
    }

    fn emit(&mut self, logical: &[u8], ctx: &mut IoCtx) {
        let frame = encode_frame(self.params.codec, logical, ctx);
        self.entries.push(BlockEntry {
            phys_off: self.phys_len,
            frame_len: frame.len() as u32,
            first_time: self.cur_first.expect("block has at least one byte"),
        });
        self.phys_len += frame.len() as u64;
        self.crc.update(&frame);
        self.out.extend_from_slice(&frame);
    }

    /// Encoded frames accumulated since the last take (drain for append).
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    pub fn pending_output(&self) -> usize {
        self.out.len()
    }

    /// Flush the final partial block and return the finished topic:
    /// remaining frame bytes, the encoded `blocks` map, and the physical
    /// (len, crc32c) the MANIFEST records for the `data` file.
    pub fn finish(mut self, ctx: &mut IoCtx) -> (Vec<u8>, BlockMap, u64, u32) {
        if !self.buf.is_empty() {
            let tail = std::mem::take(&mut self.buf);
            self.emit(&tail, ctx);
        }
        let map = BlockMap {
            codec: self.params.codec,
            block_size: self.params.block_size,
            logical_len: self.logical_len,
            entries: self.entries,
        };
        (self.out, map, self.phys_len, self.crc.finish())
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> BoraResult<&[u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(BoraError::Corrupt("truncated blocks map".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> BoraResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> BoraResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> BoraResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn varint(&mut self) -> BoraResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(BoraError::Corrupt("varint overruns 64 bits".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: BlockCodec, block_size: u32, payloads: &[Vec<u8>]) {
        let mut ctx = IoCtx::new();
        let mut w = BlockWriter::new(BlockParams { codec, block_size });
        let mut logical = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            w.push(Time::new(i as u32, 0), p, &mut ctx);
            logical.extend_from_slice(p);
        }
        let (frames, map, phys_len, _crc) = w.finish(&mut ctx);
        assert_eq!(phys_len, frames.len() as u64);
        assert_eq!(map.logical_len, logical.len() as u64);
        assert_eq!(map.phys_len(), phys_len);
        // Map round-trips, and per-block random access agrees.
        let map2 = BlockMap::decode(&map.encode()).unwrap();
        assert_eq!(map2, map);
        let mut decoded = Vec::new();
        for (i, e) in map.entries.iter().enumerate() {
            let (start, len) = map.logical_range(i);
            let (block, consumed) = decode_frame(
                &frames[e.phys_off as usize..(e.phys_off + e.frame_len as u64) as usize],
                block_size,
                "t/data",
                &mut ctx,
            )
            .unwrap();
            assert_eq!(consumed as u32, e.frame_len);
            assert_eq!(block.as_slice(), &logical[start as usize..start as usize + len]);
            decoded.extend_from_slice(&block);
        }
        assert_eq!(decoded, logical, "codec {codec:?} bs {block_size}");
    }

    #[test]
    fn empty_topic() {
        roundtrip(BlockCodec::Lzss, 64, &[]);
    }

    #[test]
    fn messages_spanning_blocks() {
        let payloads: Vec<Vec<u8>> = (0u8..40).map(|i| vec![i; 37]).collect();
        for codec in [BlockCodec::None, BlockCodec::Lzss] {
            for bs in [16u32, 64, 1024] {
                roundtrip(codec, bs, &payloads);
            }
        }
    }

    #[test]
    fn incompressible_block_falls_back_to_raw() {
        // PRNG-ish bytes LZSS cannot shrink: the frame must store them
        // raw (codec tag 0) and stay within header + unc_len.
        let mut x = 0x1234_5678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        let mut ctx = IoCtx::new();
        let frame = encode_frame(BlockCodec::Lzss, &data, &mut ctx);
        assert_eq!(frame[0], BlockCodec::None.id());
        assert_eq!(frame.len(), FRAME_HEADER_LEN + data.len());
        let (back, _) = decode_frame(&frame, 4096, "t/data", &mut ctx).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn corrupt_frame_is_typed_checksum_mismatch() {
        let data = vec![7u8; 500];
        let mut ctx = IoCtx::new();
        let mut frame = encode_frame(BlockCodec::Lzss, &data, &mut ctx);
        let mid = FRAME_HEADER_LEN + (frame.len() - FRAME_HEADER_LEN) / 2;
        frame[mid] ^= 0x20;
        match decode_frame(&frame, 500, "imu/data", &mut ctx) {
            Err(BoraError::ChecksumMismatch { path, .. }) => assert_eq!(path, "imu/data"),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_is_corrupt_not_panic() {
        let data = vec![3u8; 500];
        let mut ctx = IoCtx::new();
        let frame = encode_frame(BlockCodec::Lzss, &data, &mut ctx);
        for cut in [0, 5, FRAME_HEADER_LEN, frame.len() - 1] {
            assert!(decode_frame(&frame[..cut], 500, "t/data", &mut ctx).is_err());
        }
    }

    #[test]
    fn first_times_follow_spanning_messages() {
        // block_size 10, payload 8 bytes per message: block 1 starts
        // mid-message-1, so its first_time is message 1's stamp.
        let mut ctx = IoCtx::new();
        let mut w = BlockWriter::new(BlockParams { codec: BlockCodec::None, block_size: 10 });
        for i in 0..4u32 {
            w.push(Time::new(i, 0), &[i as u8; 8], &mut ctx);
        }
        let (_, map, ..) = w.finish(&mut ctx);
        // 32 logical bytes → blocks at 0..10 (msg0), 10..20 (msg1),
        // 20..30 (msg2), 30..32 (msg3).
        let firsts: Vec<u32> = map.entries.iter().map(|e| e.first_time.sec).collect();
        assert_eq!(firsts, vec![0, 1, 2, 3]);
        assert_eq!(map.logical_len, 32);
    }

    #[test]
    fn map_rejects_corruption() {
        let map = BlockMap {
            codec: BlockCodec::Lzss,
            block_size: 64,
            logical_len: 100,
            entries: vec![
                BlockEntry { phys_off: 0, frame_len: 30, first_time: Time::new(1, 0) },
                BlockEntry { phys_off: 30, frame_len: 20, first_time: Time::new(2, 0) },
            ],
        };
        let good = map.encode();
        assert_eq!(BlockMap::decode(&good).unwrap(), map);
        let mut bad = good.clone();
        bad[0] ^= 1;
        assert!(BlockMap::decode(&bad).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(BlockMap::decode(&trailing).is_err());
        assert!(BlockMap::decode(&good[..good.len() - 1]).is_err());
    }
}

//! The container writer: the one module that lays out and commits a
//! container (paper §III.B, Fig. 6). The organizer, ingest compaction
//! (every generation, the empty generation 0 included) and fsck's
//! per-topic repair all write through it, so one message stream yields
//! the same bytes whichever path wrote it.
//!
//! * [`TopicWriter`] turns a topic's `(time, payload)` stream into its
//!   `data` file (v1 or [`crate::block`] frames), then `blocks`, `index`
//!   and `tindex`, digesting each file as it is written so the MANIFEST
//!   costs no re-read.
//! * [`stage`] and [`commit`] bracket the crash-atomic protocol: build
//!   under `<root>.staging`, write the MANIFEST last, rename. A crash
//!   before the rename leaves staging debris and no `<root>` at all.

use ros_msgs::Time;
use simfs::{IoCtx, Storage};

use crate::block::{BlockParams, BlockWriter};
use crate::checksum::{crc32c, Crc32c};
use crate::error::BoraResult;
use crate::layout::{
    encode_topic, manifest_path, staging_path, TopicPaths, BLOCKS_FILE, DATA_FILE, INDEX_FILE,
    META_FILE, TINDEX_FILE,
};
use crate::manifest::{Manifest, ManifestEntry};
use crate::meta::ContainerMeta;
use crate::time_index::TimeIndex;
use crate::topic_index::{encode_entries, TopicIndexEntry};

/// Streaming writer for one topic's files.
pub struct TopicWriter {
    /// Root-relative topic directory (what MANIFEST paths start with).
    dir: String,
    paths: TopicPaths,
    window_ns: u64,
    /// `data` bytes buffered before an append; unbounded by default, so
    /// the whole file goes out in one append at finish.
    write_buffer: usize,
    entries: Vec<TopicIndexEntry>,
    /// Logical payload bytes so far (what index offsets address).
    bytes: u64,
    body: Body,
}

enum Body {
    /// v1: payloads concatenated, digested as they are buffered.
    Raw { buf: Vec<u8>, crc: Crc32c },
    /// Block-framed: the frame encoder keeps its own physical digest.
    Blocked(BlockWriter),
}

/// What [`TopicWriter::finish`] wrote.
#[derive(Debug, Clone)]
pub struct TopicSummary {
    /// MANIFEST entries for every file of the topic.
    pub files: Vec<ManifestEntry>,
    pub message_count: u64,
    /// Logical payload bytes.
    pub bytes: u64,
    /// Time of the first and last message, if any.
    pub span: Option<(Time, Time)>,
}

impl TopicWriter {
    /// Start `topic`'s files under `root` (normally a staging root),
    /// creating its directory. `block` selects the framed layout.
    pub fn create<S: Storage>(
        storage: &S,
        root: &str,
        topic: &str,
        window_ns: u64,
        block: Option<BlockParams>,
        ctx: &mut IoCtx,
    ) -> BoraResult<Self> {
        let paths = TopicPaths::new(root, topic);
        storage.mkdir_all(&paths.dir, ctx)?;
        Ok(TopicWriter {
            dir: encode_topic(topic),
            paths,
            window_ns,
            write_buffer: usize::MAX,
            entries: Vec::new(),
            bytes: 0,
            body: match block {
                Some(params) => Body::Blocked(BlockWriter::new(params)),
                None => Body::Raw { buf: Vec::new(), crc: Crc32c::new() },
            },
        })
    }

    /// Append `data` whenever this many bytes are pending, instead of
    /// once at finish. Only the number of appends changes, never the bytes.
    pub fn with_write_buffer(mut self, bytes: usize) -> Self {
        self.write_buffer = bytes;
        self
    }

    /// Add one message. Messages must arrive in the topic's order.
    pub fn push<S: Storage>(
        &mut self,
        storage: &S,
        time: Time,
        payload: &[u8],
        ctx: &mut IoCtx,
    ) -> BoraResult<()> {
        self.entries.push(TopicIndexEntry { time, offset: self.bytes, len: payload.len() as u32 });
        self.bytes += payload.len() as u64;
        match &mut self.body {
            Body::Raw { buf, crc } => {
                crc.update(payload);
                buf.extend_from_slice(payload);
                if buf.len() >= self.write_buffer {
                    storage.append(&self.paths.data, buf, ctx)?;
                    buf.clear();
                }
            }
            Body::Blocked(w) => {
                w.push(time, payload, ctx);
                if w.pending_output() >= self.write_buffer {
                    storage.append(&self.paths.data, &w.take_output(), ctx)?;
                }
            }
        }
        Ok(())
    }

    /// Flush `data`, write the topic's remaining files, and return their
    /// MANIFEST entries.
    pub fn finish<S: Storage>(self, storage: &S, ctx: &mut IoCtx) -> BoraResult<TopicSummary> {
        let TopicWriter { dir, paths, window_ns, entries, bytes, body, .. } = self;
        let entry = |name: &str, len: u64, crc32c: u32| ManifestEntry {
            path: format!("{dir}/{name}"),
            len,
            crc32c,
        };
        let put = |path: &str, name: &str, content: &[u8], ctx: &mut IoCtx| {
            storage.append(path, content, ctx)?;
            BoraResult::Ok(entry(name, content.len() as u64, crc32c(content)))
        };
        let mut files = Vec::with_capacity(4);
        match body {
            Body::Raw { buf, crc } => {
                // An empty topic still gets its (empty) data file.
                if !buf.is_empty() || bytes == 0 {
                    storage.append(&paths.data, &buf, ctx)?;
                }
                files.push(entry(DATA_FILE, bytes, crc.finish()));
            }
            Body::Blocked(w) => {
                let (tail, map, phys_len, phys_crc) = w.finish(ctx);
                storage.append(&paths.data, &tail, ctx)?;
                files.push(entry(DATA_FILE, phys_len, phys_crc));
                files.push(put(&paths.blocks, BLOCKS_FILE, &map.encode(), ctx)?);
            }
        }
        files.push(put(&paths.index, INDEX_FILE, &encode_entries(&entries), ctx)?);
        let tindex = TimeIndex::build(&entries, window_ns).encode();
        files.push(put(&paths.tindex, TINDEX_FILE, &tindex, ctx)?);
        Ok(TopicSummary {
            files,
            message_count: entries.len() as u64,
            bytes,
            span: entries.first().zip(entries.last()).map(|(a, b)| (a.time, b.time)),
        })
    }
}

/// Prepare the staging root a container at `root` is built under,
/// sweeping the debris of an earlier crashed attempt. Returns its path.
pub fn stage<S: Storage>(storage: &S, root: &str, ctx: &mut IoCtx) -> BoraResult<String> {
    let stage = staging_path(root);
    if storage.exists(&stage, ctx) {
        storage.remove_dir_all(&stage, ctx)?;
    }
    storage.mkdir_all(&stage, ctx)?;
    Ok(stage)
}

/// Commit the container staged for `root`: write the metadata, then each
/// `extra` root file, then the MANIFEST over `files` plus those, flush
/// it, and rename the staging root to `root`.
pub fn commit<S: Storage>(
    storage: &S,
    root: &str,
    meta: &ContainerMeta,
    extra: &[(&str, Vec<u8>)],
    mut files: Vec<ManifestEntry>,
    ctx: &mut IoCtx,
) -> BoraResult<()> {
    let stage = staging_path(root);
    let meta_bytes = meta.encode();
    let root_files = std::iter::once((META_FILE, &meta_bytes));
    for (name, content) in root_files.chain(extra.iter().map(|(name, c)| (*name, c))) {
        storage.append(&format!("{stage}/{name}"), content, ctx)?;
        files.push(ManifestEntry {
            path: name.to_owned(),
            len: content.len() as u64,
            crc32c: crc32c(content),
        });
    }
    Manifest::new(files)?.store(storage, &stage, ctx)?;
    storage.flush(&manifest_path(&stage), ctx)?;
    storage.rename(&stage, root, ctx)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockCodec;
    use simfs::{FaultyStorage, MemStorage};

    fn write_topic<S: Storage>(
        fs: &S,
        root: &str,
        block: Option<BlockParams>,
        write_buffer: usize,
    ) -> TopicSummary {
        let mut ctx = IoCtx::new();
        let mut w = TopicWriter::create(fs, root, "/imu", 1_000, block, &mut ctx)
            .unwrap()
            .with_write_buffer(write_buffer);
        for i in 0..200u64 {
            let payload = vec![(i % 7) as u8; 30 + (i % 50) as usize];
            w.push(fs, Time::from_nanos(i * 100), &payload, &mut ctx).unwrap();
        }
        w.finish(fs, &mut ctx).unwrap()
    }

    #[test]
    fn write_buffer_changes_append_count_not_bytes() {
        let lz = Some(BlockParams { codec: BlockCodec::Lzss, block_size: 512 });
        for block in [None, lz] {
            let fs = FaultyStorage::new(MemStorage::new());
            let one = write_topic(&fs, "/one", block, usize::MAX);
            let one_ops = fs.mutations();
            let many = write_topic(&fs, "/many", block, 256);
            assert!(fs.mutations() - one_ops > one_ops, "{block:?}");
            assert_eq!(one.files, many.files, "{block:?}");
            assert_eq!((one.message_count, one.bytes), (200, many.bytes));
            let mut ctx = IoCtx::new();
            for f in ["data", "index", "tindex", "blocks"] {
                let (a, b) = (format!("/one/imu/{f}"), format!("/many/imu/{f}"));
                assert_eq!(fs.exists(&a, &mut ctx), f != "blocks" || block.is_some());
                if fs.exists(&a, &mut ctx) {
                    let bytes = fs.read_all(&a, &mut ctx).unwrap();
                    assert_eq!(bytes, fs.read_all(&b, &mut ctx).unwrap(), "{f} {block:?}");
                    let e = one.files.iter().find(|e| e.path == format!("imu/{f}")).unwrap();
                    assert_eq!((e.len, e.crc32c), (bytes.len() as u64, crc32c(&bytes)));
                }
            }
        }
    }

    #[test]
    fn commit_publishes_a_clean_container() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let stage = stage(&fs, "/c", &mut ctx).unwrap();
        let quiet = TopicWriter::create(&fs, &stage, "/quiet", 1_000, None, &mut ctx).unwrap();
        let quiet = quiet.finish(&fs, &mut ctx).unwrap();
        assert_eq!((quiet.message_count, quiet.span), (0, None));
        let mut files = write_topic(&fs, &stage, None, usize::MAX).files;
        files.extend(quiet.files);
        commit(&fs, "/c", &ContainerMeta::default(), &[("extra", b"x".to_vec())], files, &mut ctx)
            .unwrap();

        assert!(!fs.exists("/c.staging", &mut ctx));
        assert_eq!(fs.len("/c/quiet/data", &mut ctx).unwrap(), 0);
        let manifest = Manifest::load(&fs, "/c", &mut ctx).unwrap().unwrap();
        assert!(manifest.entry("extra").is_some() && manifest.entry(META_FILE).is_some());
        let report = crate::fsck::check(&fs, "/c", &mut ctx).unwrap();
        assert!(report.is_clean() && report.unknown_files.is_empty(), "{report:?}");
    }
}

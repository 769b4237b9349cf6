//! Compaction through the shared container writer.
//!
//! * Compaction copies the old generation forward through a verified
//!   open, so damage in it fails the compaction with a typed error and
//!   the current generation stays in place — bad bytes never get a
//!   fresh MANIFEST that vouches for them.
//! * The organizer (offline: bag → container) and ingest compaction
//!   (online: append → seal → compact) write through the same writer, so
//!   the same message stream yields byte-identical topic files on both
//!   paths, v1 and block-framed alike.

use bora::layout::TopicPaths;
use bora::manifest::{Manifest, ManifestEntry};
use bora::{crc32c, BlockParams, BoraError, OrganizerOptions};
use bora_ingest::{IngestConfig, IngestStore};
use ros_msgs::sensor_msgs::Imu;
use ros_msgs::{RosMessage, Time};
use rosbag::{BagWriter, BagWriterOptions};
use simfs::{IoCtx, MemStorage, Storage};

const ROOT: &str = "/live";
const GEN1: &str = "/live/gen/C00000001";

fn imu(i: u32) -> (Time, Vec<u8>) {
    let t = Time::from_nanos(1_000_000_000 + i as u64 * 5_000_000);
    let mut m = Imu::default();
    m.header.seq = i;
    m.header.stamp = t;
    m.angular_velocity.x = (i % 64) as f64 * 0.01;
    m.linear_acceleration.z = 9.81;
    (t, m.to_bytes())
}

/// A store whose generation 1 holds `/imu` messages 0..200, with
/// messages 200..210 sealed on top, ready for the next compaction.
fn store_with_pending_seal(
    fs: &MemStorage,
    block: Option<BlockParams>,
    damage: impl FnOnce(&MemStorage),
) -> IngestStore<&MemStorage> {
    let mut ctx = IoCtx::new();
    let st =
        IngestStore::create(fs, ROOT, IngestConfig { block, ..IngestConfig::default() }, &mut ctx)
            .unwrap();
    let mut append = |range: std::ops::Range<u32>| {
        for i in range {
            let (t, data) = imu(i);
            st.append("/imu", t, &data, &mut ctx).unwrap();
        }
        st.seal(&mut ctx).unwrap();
    };
    append(0..200);
    st.compact(&mut IoCtx::new()).unwrap();
    damage(fs);
    append(200..210);
    st
}

/// XOR `mask` into byte `off` of `path`.
fn flip(fs: &MemStorage, path: &str, off: u64, mask: u8) {
    let mut ctx = IoCtx::new();
    let b = fs.read_at(path, off, 1, &mut ctx).unwrap()[0];
    fs.write_at(path, off, &[b ^ mask], &mut ctx).unwrap();
}

/// The failed compaction left generation 1 current and its seal pending.
fn assert_unchanged(st: &IngestStore<&MemStorage>, fs: &MemStorage) {
    let s = st.stat();
    assert_eq!(s.generation, 1);
    assert_eq!(s.sealed_messages, 10);
    let mut ctx = IoCtx::new();
    assert!(fs.exists(&format!("{GEN1}/MANIFEST"), &mut ctx));
    assert!(!fs.exists("/live/gen/C00000002", &mut ctx));
}

#[test]
fn compaction_rejects_bit_rot_in_v1_data() {
    let fs = MemStorage::new();
    let st =
        store_with_pending_seal(&fs, None, |fs| flip(fs, &format!("{GEN1}/imu/data"), 777, 0x10));
    match st.compact(&mut IoCtx::new()) {
        Err(BoraError::ChecksumMismatch { path, .. }) => assert_eq!(path, "imu/data"),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    assert_unchanged(&st, &fs);
}

#[test]
fn compaction_rejects_forged_index_offset_in_blocked_generation() {
    let fs = MemStorage::new();
    let st = store_with_pending_seal(&fs, Some(BlockParams::default()), |fs| {
        // High byte of the last entry's offset (time u64, offset u64, len u32).
        let index = format!("{GEN1}/imu/index");
        let len = fs.len(&index, &mut IoCtx::new()).unwrap();
        flip(fs, &index, len - 20 + 8 + 7, 0x80);
    });
    match st.compact(&mut IoCtx::new()) {
        Err(BoraError::ChecksumMismatch { path, .. }) => assert_eq!(path, "imu/index"),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    assert_unchanged(&st, &fs);
}

#[test]
fn compaction_rejects_index_past_data_even_when_manifest_agrees() {
    // The same forged offset, with the MANIFEST rewritten to vouch for
    // it: the copy must still fail typed rather than slice out of range.
    let fs = MemStorage::new();
    let st = store_with_pending_seal(&fs, Some(BlockParams::default()), |fs| {
        let mut ctx = IoCtx::new();
        let index = format!("{GEN1}/imu/index");
        let mut bytes = fs.read_all(&index, &mut ctx).unwrap();
        let n = bytes.len();
        bytes[n - 20 + 8 + 7] ^= 0x80;
        fs.remove_file(&index, &mut ctx).unwrap();
        fs.append(&index, &bytes, &mut ctx).unwrap();
        let old = Manifest::load(fs, GEN1, &mut ctx).unwrap().unwrap();
        let entries: Vec<ManifestEntry> = old
            .entries()
            .iter()
            .map(|e| match e.path.as_str() {
                "imu/index" => ManifestEntry { crc32c: crc32c(&bytes), ..e.clone() },
                _ => e.clone(),
            })
            .collect();
        fs.remove_file(&format!("{GEN1}/MANIFEST"), &mut ctx).unwrap();
        Manifest::new(entries).unwrap().store(fs, GEN1, &mut ctx).unwrap();
    });
    match st.compact(&mut IoCtx::new()) {
        Err(BoraError::Corrupt(msg)) => assert!(msg.contains("past end of data"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_unchanged(&st, &fs);
}

#[test]
fn organizer_and_compaction_write_identical_topic_files() {
    const N: u32 = 3000;
    for block in [None, Some(BlockParams::default())] {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();

        // Offline: record a bag, duplicate it into a container.
        let mut w = BagWriter::create(
            &fs,
            "/b.bag",
            BagWriterOptions { chunk_size: 8192, ..Default::default() },
            &mut ctx,
        )
        .unwrap();
        for i in 0..N {
            let (t, data) = imu(i);
            let conn = w.add_connection("/imu", &ros_msgs::MessageDescriptor::of::<Imu>());
            w.write_message(conn, t, &data, &mut ctx).unwrap();
        }
        w.close(&mut ctx).unwrap();
        let opts = OrganizerOptions { block, ..OrganizerOptions::default() };
        bora::duplicate(&fs, "/b.bag", &fs, "/offline", &opts, &mut ctx).unwrap();

        // Online: the same stream through append/seal/compact, twice, so
        // the second compaction copies the first generation forward.
        let cfg = IngestConfig { block, ..IngestConfig::default() };
        let st = IngestStore::create(&fs, ROOT, cfg, &mut ctx).unwrap();
        for half in [0..N / 2, N / 2..N] {
            for i in half {
                let (t, data) = imu(i);
                st.append("/imu", t, &data, &mut ctx).unwrap();
            }
            st.seal(&mut ctx).unwrap();
            st.compact(&mut ctx).unwrap();
        }
        assert_eq!(st.stat().generation, 2);

        let offline = TopicPaths::new("/offline", "/imu");
        let online = TopicPaths::new("/live/gen/C00000002", "/imu");
        let mut files = vec![(&offline.data, &online.data), (&offline.index, &online.index)];
        files.push((&offline.tindex, &online.tindex));
        if block.is_some() {
            files.push((&offline.blocks, &online.blocks));
        }
        for (a, b) in files {
            let a_bytes = fs.read_all(a, &mut ctx).unwrap();
            assert!(!a_bytes.is_empty(), "{a} is empty");
            assert_eq!(a_bytes, fs.read_all(b, &mut ctx).unwrap(), "{a} != {b} ({block:?})");
        }
        assert_eq!(fs.exists(&online.blocks, &mut ctx), block.is_some());
    }
}

//! Block decoders' allocations are bounded by what the input can hold.
//!
//! A frame's CRC covers only its stored payload, so the header's logical
//! length can be forged without tripping it; a `blocks` map's entry count
//! is a bare `u32`. Each forged input below must fail with a typed error,
//! and a counting global allocator shows the attempt never holds more
//! than 1 MiB.
//!
//! This binary holds a single test so no other test thread allocates
//! while the peak is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bora::block::{decode_frame, encode_frame, DEFAULT_BLOCK_SIZE};
use bora::{BlockCodec, BlockMap};
use simfs::IoCtx;

struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let now = CURRENT.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(now, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        CURRENT.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const LIMIT: usize = 1 << 20;

/// Peak bytes allocated above the starting level while `f` runs.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = CURRENT.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

#[test]
fn forged_lengths_fail_typed_without_large_allocations() {
    let mut ctx = IoCtx::new();

    // An LZSS frame whose header claims 4 GiB of logical bytes; the
    // stored payload and its CRC are untouched.
    let mut frame = encode_frame(BlockCodec::Lzss, &[7u8; 500], &mut ctx);
    assert_eq!(frame[0], BlockCodec::Lzss.id());
    frame[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    let (res, peak) = peak_during(|| decode_frame(&frame, DEFAULT_BLOCK_SIZE, "t/data", &mut ctx));
    assert!(res.is_err(), "forged unc_len must be a typed error");
    assert!(peak < LIMIT, "frame decode allocated {peak} bytes");

    // A 25-byte `blocks` map claiming 2^32-1 entries.
    let empty = BlockMap {
        codec: BlockCodec::Lzss,
        block_size: DEFAULT_BLOCK_SIZE,
        logical_len: 0,
        entries: Vec::new(),
    };
    let mut map = empty.encode();
    assert_eq!(map.len(), 25);
    let n = map.len();
    map[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    let (res, peak) = peak_during(|| BlockMap::decode(&map));
    assert!(res.is_err(), "forged entry count must be a typed error");
    assert!(peak < LIMIT, "blocks map decode allocated {peak} bytes");
}

//! Decoder allocations are bounded by input length.
//!
//! Every count on the wire (messages, topics, metrics entries, query
//! row cells) is checked against the bytes that remain before capacity
//! is reserved for it. Each crafted frame below claims a huge count in
//! a few bytes: decoding must fail with a typed error, and a counting
//! global allocator shows the attempt never holds more than 1 MiB.
//!
//! This binary holds a single test so no other test thread allocates
//! while the peak is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bora_serve::{Header, Request, Response};

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

fn response(op: u8, tail: &[u8]) -> Vec<u8> {
    let mut v = vec![op];
    v.extend_from_slice(tail);
    v
}

/// A METRICS reply header (version, server id, uptime) followed by
/// `lists`: the four `u16`-counted sections in order.
fn metrics(lists: &[u16]) -> Vec<u8> {
    let mut v = vec![0x8E];
    v.extend_from_slice(&1u32.to_le_bytes());
    v.extend_from_slice(&0u32.to_le_bytes());
    v.extend_from_slice(&0u64.to_le_bytes());
    for n in lists {
        v.extend_from_slice(&n.to_le_bytes());
    }
    v
}

#[test]
fn forged_counts_fail_typed_without_large_allocations() {
    let huge32 = u32::MAX.to_le_bytes();
    let huge16 = u16::MAX.to_le_bytes();
    let responses: Vec<(&str, Vec<u8>)> = vec![
        ("stream chunk, 2^32-1 messages", response(0x89, &huge32)),
        ("topics, 65535 names", response(0x82, &huge16)),
        ("query schema, 65535 columns", response(0x93, &huge16)),
        ("metrics, 65535 counters", metrics(&[u16::MAX])),
        ("metrics, 65535 gauges", metrics(&[0, u16::MAX])),
        ("metrics, 65535 histograms", metrics(&[0, 0, u16::MAX])),
        ("metrics, 65535 slow ops", metrics(&[0, 0, 0, u16::MAX])),
    ];
    for (what, body) in &responses {
        let (res, peak) = peak_during(|| Response::decode(body));
        assert!(res.is_err(), "{what}: forged count must be a typed error");
        assert!(peak < LIMIT, "{what}: decoding allocated {peak} bytes");
    }

    // Requests, behind the header as a server receives them.
    let hdr = Header { corr: 1, ..Header::default() }.encode(&Request::Ping);
    let prefix = &hdr[..hdr.len() - 1];
    let mut append = prefix.to_vec();
    append.extend_from_slice(&[0x0B, 0, 0]); // APPEND, empty container name
    append.extend_from_slice(&huge32);
    let mut read = prefix.to_vec();
    read.extend_from_slice(&[0x04, 0, 0]); // READ, empty container name
    read.extend_from_slice(&huge16);
    for (what, payload) in [("append, 2^32-1 messages", append), ("read, 65535 topics", read)] {
        let (res, peak) = peak_during(|| Header::decode(&payload));
        assert!(res.is_err(), "{what}: forged count must be a typed error");
        assert!(peak < LIMIT, "{what}: decoding allocated {peak} bytes");
    }

    // QUERY chunk rows, which `ServeClient::query` decodes from the
    // server's bytes: one row claiming 65535 cells in a 7-byte blob.
    let mut rows = 1u32.to_le_bytes().to_vec();
    rows.extend_from_slice(&huge16);
    rows.push(0); // one NULL cell, then the blob ends
    let (res, peak) = peak_during(|| bora_query::decode_rows(&rows));
    assert!(res.is_err(), "query rows, 65535 cells: forged count must be a typed error");
    assert!(peak < LIMIT, "query rows, 65535 cells: decoding allocated {peak} bytes");
}

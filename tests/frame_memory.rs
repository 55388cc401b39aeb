//! Live-heap cost of moving one large frame across the dist wire.
//!
//! A coordinator holds one received snapshot frame per job in its
//! window, so every copy the receive path makes multiplies its memory
//! peak. This suite pins that cost with a counting global allocator:
//! reading one framed 4 MiB `Frame::Snapshot` through `FrameReader`
//! may hold at most the frame buffer plus the decoded frame (2×, with
//! a little room for the read scratch), and `write_frame` at most the
//! one buffer it encodes into.
//!
//! The file holds a single test so no other test's allocations run
//! concurrently with the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

use loopspec::dist::wire::{write_frame, Frame, FrameReader};

/// Counts live heap bytes and their high-water mark. A `realloc` is
/// charged the old and the new block together until it returns, as a
/// moving reallocation holds both.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn charge(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn release(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        release(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        let p = System.realloc(ptr, layout, new_size);
        release(if p.is_null() { new_size } else { layout.size() });
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the heap high-water mark it
/// reached above the live bytes at entry.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

#[test]
fn one_large_frame_costs_at_most_two_payloads_to_receive_and_one_to_send() {
    const PAYLOAD: usize = 4 << 20;
    let frame = Frame::Snapshot {
        job: 1,
        instructions: 25_000,
        bytes: vec![0x5a; PAYLOAD],
    };

    let mut sink = io::sink();
    let (sent, peak) = peak_during(|| write_frame(&mut sink, &frame));
    sent.expect("write_frame succeeds");
    let ratio = peak as f64 / PAYLOAD as f64;
    assert!(
        ratio <= 1.05,
        "write_frame peaked at {ratio:.2}x the payload"
    );

    let mut stream = Vec::new();
    write_frame(&mut stream, &frame).expect("write_frame succeeds");
    let mut reader = FrameReader::new(&stream[..]);
    let (got, peak) = peak_during(|| reader.read_frame());
    assert_eq!(got.expect("frame reads").as_ref(), Some(&frame));
    let ratio = peak as f64 / PAYLOAD as f64;
    assert!(
        ratio <= 2.1,
        "FrameReader peaked at {ratio:.2}x the payload"
    );
}

//! Regression wall for the pooled codec path: after warm-up, a full
//! `encode_into` → erase → `reconstruct_with` round trip must perform **zero** heap
//! allocations. A counting `#[global_allocator]` makes the property
//! directly measurable; any future change that sneaks a per-block `Vec`
//! back into the hot path fails this test immediately.
//!
//! This file deliberately contains a single `#[test]` so no concurrent test
//! thread can perturb the allocation counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use uno_erasure::{CodecScratch, ReedSolomon, ShardPool};

/// Counts every allocation entry point; frees are uncounted (the property
/// under test is "no new memory requested", not "no memory released").
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const SHARD_LEN: usize = 256;
const DATA: usize = 8;
const PARITY: usize = 2;
const BLOCKS: usize = 20;
const ERASED: [usize; 2] = [1, 9]; // one data, one parity — stable pattern

/// One full round trip over reusable state, block by block. Parity is
/// encoded into the encoder's buffers, which are swapped with the block's
/// receive slots (capacities travel both ways); data shards are copied into
/// their slots; two shards per block are "lost" back into the pool, and
/// reconstruction recovers them from the pool.
fn round_trip(
    rs: &ReedSolomon,
    msg: &[u8],
    pool: &mut ShardPool,
    scratch: &mut CodecScratch,
    parity: &mut [Vec<u8>],
    rx: &mut Vec<Vec<Option<Vec<u8>>>>,
) {
    rx.resize_with(BLOCKS, || vec![None; DATA + PARITY]);
    for (block, slots) in msg.chunks_exact(DATA * SHARD_LEN).zip(rx.iter_mut()) {
        let data: [&[u8]; DATA] =
            std::array::from_fn(|s| &block[s * SHARD_LEN..(s + 1) * SHARD_LEN]);
        rs.encode_into(&data, parity).expect("encode");

        // Deliver: nothing is dropped, nothing is allocated once every slot
        // holds a buffer of shard capacity.
        for (slot, shard) in slots.iter_mut().zip(data) {
            let buf = slot.get_or_insert_with(|| pool.take(SHARD_LEN));
            buf.clear();
            buf.extend_from_slice(shard);
        }
        for (slot, out) in slots[DATA..].iter_mut().zip(parity.iter_mut()) {
            match slot.as_mut() {
                Some(old) => std::mem::swap(old, out),
                None => *slot = Some(std::mem::take(out)),
            }
        }
        for &e in &ERASED {
            if let Some(lost) = slots[e].take() {
                pool.put(lost);
            }
        }

        rs.reconstruct_with(slots, scratch, pool)
            .expect("round trip must reconstruct");
        for (slot, shard) in slots.iter().zip(data) {
            assert_eq!(
                slot.as_deref(),
                Some(shard),
                "reconstruction corrupted the block"
            );
        }
    }
}

#[test]
fn warm_round_trip_allocates_nothing() {
    let rs = ReedSolomon::new(DATA, PARITY);
    let msg: Vec<u8> = (0..(BLOCKS * DATA * SHARD_LEN) as u32)
        .map(|i| (i * 37 % 251) as u8)
        .collect();
    let mut pool = ShardPool::new();
    let mut scratch = CodecScratch::new();
    let mut parity: Vec<Vec<u8>> = vec![Vec::new(); PARITY];
    let mut rx: Vec<Vec<Option<Vec<u8>>>> = Vec::new();

    // Warm-up: buffers, pool, scratch, receive slots, and the decoding
    // matrix cache all reach steady state.
    for _ in 0..3 {
        round_trip(&rs, &msg, &mut pool, &mut scratch, &mut parity, &mut rx);
    }
    assert_eq!(rs.cached_inversions(), 1, "one stable erasure pattern");

    // Measured steady state: not a single allocation across full
    // encode → erase → reconstruct round trips.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for round in 0..5 {
        round_trip(&rs, &msg, &mut pool, &mut scratch, &mut parity, &mut rx);
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "round {round} allocated {} time(s) after warm-up",
            after - before
        );
    }

    // The pool really was exercised (losses flowed through it), and no
    // take ever missed after the warm-up phase established capacity.
    let (takes, misses) = pool.stats();
    assert!(
        takes > 0,
        "reconstruction must draw recovered shards from the pool"
    );
    assert!(
        misses < takes,
        "steady state must reuse pooled buffers, not allocate fresh ones"
    );
}

//! Discrete-event scheduler: a bucketed timing wheel (calendar queue) with
//! a binary-heap overflow for far-future events.
//!
//! The engine's former scheduler was a plain `BinaryHeap`, which costs
//! `O(log n)` cache-hostile sift operations per push/pop once hundreds of
//! thousands of events are pending. This queue keeps the exact same public
//! API and the exact same `(time, seq)` total order (FIFO tie-breaking at
//! equal times), but schedules into an array of time buckets:
//!
//! * the **wheel** covers a sliding window of `NUM_BUCKETS` ticks of
//!   `1 << BUCKET_SHIFT` ns each (1.024 µs buckets, a ~4.2 ms window —
//!   wide enough for serialization/propagation events, intra-DC RTOs and
//!   the 2×inter-RTT timers that dominate the engine's traffic);
//! * events beyond the window go to a **heap fallback** and migrate into
//!   the wheel when the cursor reaches their neighbourhood — each event is
//!   touched at most once extra, so the amortized cost stays `O(1)`;
//! * a bucket is ordered only when the cursor reaches it: its entries are
//!   moved into a small min-heap, so both draining it and pushing new
//!   events at the current time cost `O(log bucket)`. (An earlier design
//!   kept the cursor bucket as a sorted `Vec` with binary-search inserts;
//!   each insert memmoves the tail, which turns quadratic when a
//!   synchronized start — e.g. a 32k-flow permutation — lands millions of
//!   events in one 1 µs bucket.)
//!
//! Wheel memory tracks pending events: when the cursor drains a bucket
//! into its heap, the bucket's buffer goes back to the allocator, and a
//! bucket that fills again grows a fresh vector from memory recycled from
//! earlier drains. Parking drained buffers in the wheel instead would make
//! its storage the sum of all buckets' peak sizes, not the pending count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ids::{FlowId, LinkId};
use crate::packet::Packet;
use crate::time::Time;

/// Events processed by the simulation engine.
#[derive(Clone, Debug)]
pub enum Event {
    /// A link finished serializing a packet; start the next one if queued.
    LinkFree(LinkId),
    /// A packet reaches the far end of a link (post propagation). Carries
    /// the link's failure epoch at transmission time: if the link went down
    /// while the packet was propagating, the epochs no longer match and the
    /// packet is lost even if the link has since recovered.
    Arrive(LinkId, Packet, u32),
    /// A flow-requested timer fires with an opaque token.
    FlowTimer {
        /// The flow whose timer fired.
        flow: FlowId,
        /// Opaque token passed back to [`crate::engine::FlowLogic::on_timer`].
        token: u64,
    },
    /// A registered flow starts.
    FlowStart(FlowId),
    /// Fail a link.
    LinkDown(LinkId),
    /// Restore a failed link.
    LinkUp(LinkId),
    /// A periodic statistics sampler ticks.
    Sample(u32),
    /// The periodic telemetry collector ticks (see
    /// [`crate::engine::Simulator::enable_telemetry`]).
    Telemetry,
    /// An installed fault (by fault-plane index) reaches its onset time.
    FaultStart(u32),
    /// An installed fault reaches its healing time.
    FaultEnd(u32),
    /// A flapping fault's Markov process toggles between up and down.
    FaultFlap(u32),
    /// A PFC PAUSE frame reaches the feeder link's transmitter: the egress
    /// port `by` (downstream) crossed XOFF, halting this link. `depth` is
    /// the pause-tree depth attributed to the assertion (1 = directly
    /// congested port, +1 per level of upstream cascade).
    PfcPause {
        /// The feeder link being paused.
        link: LinkId,
        /// The congested egress port that asserted the pause.
        by: LinkId,
        /// Pause-tree depth of the assertion.
        depth: u32,
    },
    /// A PFC RESUME frame reaches the feeder link's transmitter: egress
    /// port `by` drained to XON, releasing its hold on this link.
    PfcResume {
        /// The feeder link being released.
        link: LinkId,
        /// The egress port releasing its pause.
        by: LinkId,
    },
}

/// Nanoseconds per bucket, as a shift (1.024 µs).
const BUCKET_SHIFT: u32 = 10;
/// Buckets in the wheel (must be a power of two). Window ≈ 4.19 ms.
const NUM_BUCKETS: usize = 4096;
const BUCKET_MASK: u64 = (NUM_BUCKETS - 1) as u64;
/// Words in the occupancy bitmap.
const WORDS: usize = NUM_BUCKETS / 64;

#[derive(Debug)]
struct Entry {
    time: Time,
    seq: u64,
    event: Event,
}

impl Entry {
    #[inline]
    fn tick(&self) -> u64 {
        self.time >> BUCKET_SHIFT
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Timestamped event queue with FIFO tie-breaking for determinism.
///
/// Pops in strict `(time, seq)` order, where `seq` is the push order — the
/// same contract the previous `BinaryHeap` scheduler provided (a replayed
/// push/pop trace produces an identical pop order; `uno-sim`'s differential
/// test holds the two implementations against each other).
#[derive(Debug)]
pub struct EventQueue {
    /// The wheel: bucket `i` holds entries whose tick ≡ `i` (mod
    /// `NUM_BUCKETS`) within the current window `[cur_tick, cur_tick + N)`.
    buckets: Vec<Vec<Entry>>,
    /// One bit per bucket: set while the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Tick of the cursor. All wheel entries live in
    /// `[cur_tick, cur_tick + NUM_BUCKETS)`; only `pop`/`peek_time` advance
    /// it (to the global minimum tick), so it never passes a pending event.
    cur_tick: u64,
    /// Tick whose entries currently live in `cursor` instead of the wheel.
    cursor_tick: Option<u64>,
    /// Min-heap over the cursor tick's entries: the head is the global
    /// minimum `(time, seq)` whenever it is non-empty. Pushes at the
    /// current tick land here directly in `O(log n)`.
    cursor: BinaryHeap<Reverse<Entry>>,
    /// Entries currently in the wheel (excluding the cursor heap).
    wheel_len: usize,
    /// Far-future events (tick beyond the window at push time). Entries
    /// migrate into the wheel when the cursor catches up.
    overflow: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    /// Largest time ever popped: the queue's notion of "now". Pushes are
    /// never scheduled before it (see [`EventQueue::push`]).
    floor: Time,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            cur_tick: 0,
            cursor_tick: None,
            cursor: BinaryHeap::new(),
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            floor: 0,
            len: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// `time` must not precede the time of the last popped event (the
    /// simulation clock): the engine guarantees this by clamping timers to
    /// `now`. A past time would corrupt a calendar queue's bucket order, so
    /// it is clamped to the queue floor here — scheduling *at* the floor is
    /// fine and orders after already-queued events of the same time (FIFO).
    pub fn push(&mut self, time: Time, event: Event) {
        debug_assert!(
            time >= self.floor,
            "event scheduled at {time} ns, before the queue floor {} ns",
            self.floor
        );
        let time = time.max(self.floor);
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Entry { time, seq, event };
        self.len += 1;
        if self.cursor_tick.is_some_and(|ct| e.tick() <= ct) {
            // Schedule-at-now (and anything else at or before the cursor
            // tick): straight into the min-heap, O(log n) regardless of how
            // many events share the tick. The at-or-*before* case matters:
            // `peek_time` advances the cursor to the minimum *pending* tick
            // without popping, and a caller may then legally push an
            // earlier event (still at/after the floor). The engine does
            // exactly this: `run_until(end)` peeks a head beyond `end` and
            // stops, and the caller may then schedule at the new `now` —
            // between run slices, or before `install_faults` /
            // `schedule_link_down` — in a tick the cursor has skipped.
            // Such an event must not be filed into a wheel bucket the
            // cursor has already passed, or it would surface a whole lap
            // late and pop out of order. In the cursor heap it keeps the
            // invariant that the heap head is the global minimum (its tick
            // stays ≤ every wheel/overflow tick).
            self.cursor.push(Reverse(e));
        } else if e.tick() >= self.cur_tick + NUM_BUCKETS as u64 {
            self.overflow.push(Reverse(e));
        } else {
            self.insert_wheel(e);
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        if !self.normalize() {
            return None;
        }
        let Reverse(e) = self.cursor.pop().expect("normalized cursor non-empty");
        self.len -= 1;
        self.floor = e.time;
        Some((e.time, e.event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<Time> {
        if !self.normalize() {
            return None;
        }
        self.cursor.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Place an entry (whose tick is within the current window, and is not
    /// the cursor tick) into its wheel bucket. Buckets are append-only;
    /// ordering happens when the cursor reaches them.
    fn insert_wheel(&mut self, e: Entry) {
        let tick = e.tick();
        debug_assert!(tick < self.cur_tick + NUM_BUCKETS as u64);
        debug_assert!(self.cursor_tick != Some(tick));
        debug_assert!(
            self.cursor_tick.is_none() || tick > self.cur_tick,
            "wheel insert at tick {tick} behind the cursor tick {}",
            self.cur_tick
        );
        let idx = (tick & BUCKET_MASK) as usize;
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
        self.buckets[idx].push(e);
        self.wheel_len += 1;
    }

    /// Ensure the cursor heap holds the global minimum tick's entries:
    /// advance the cursor to that tick, migrate overflow entries that now
    /// fall inside the window, and move the tick's bucket into the heap.
    /// Returns `false` when the queue is empty.
    fn normalize(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        if !self.cursor.is_empty() {
            // The cursor heap's tick is the queue floor's tick, so its head
            // is still the global minimum — nothing to do.
            return true;
        }
        self.cursor_tick = None;
        let wheel_tick = if self.wheel_len > 0 {
            let idx = self.next_occupied((self.cur_tick & BUCKET_MASK) as usize);
            Some(self.buckets[idx][0].tick())
        } else {
            None
        };
        let over_tick = self.overflow.peek().map(|Reverse(e)| e.tick());
        let target = match (wheel_tick, over_tick) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 but no entries"),
        };
        self.cur_tick = target;
        // Pull far-future entries that the new window now covers. Each
        // overflow entry migrates at most once, so this is O(1) amortized.
        while let Some(Reverse(e)) = self.overflow.peek() {
            if e.tick() < target + NUM_BUCKETS as u64 {
                let Reverse(e) = self.overflow.pop().expect("peeked");
                self.insert_wheel(e);
            } else {
                break;
            }
        }
        // Move the target bucket's entries into the cursor heap and release
        // the bucket's buffer: the wheel holds storage only for pending
        // events.
        let idx = (target & BUCKET_MASK) as usize;
        let v = std::mem::take(&mut self.buckets[idx]);
        self.wheel_len -= v.len();
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        self.cursor.extend(v.into_iter().map(Reverse));
        self.cursor_tick = Some(target);
        true
    }

    /// Index of the first occupied bucket at or (circularly) after
    /// `from_idx`. Wheel ticks all lie within one window of `NUM_BUCKETS`
    /// ticks, so circular index order equals tick order.
    fn next_occupied(&self, from_idx: usize) -> usize {
        debug_assert!(self.wheel_len > 0);
        let (word, bit) = (from_idx / 64, from_idx % 64);
        let masked = self.occupied[word] & (!0u64 << bit);
        if masked != 0 {
            return word * 64 + masked.trailing_zeros() as usize;
        }
        for i in 1..=WORDS {
            let w = (word + i) % WORDS;
            if self.occupied[w] != 0 {
                return w * 64 + self.occupied[w].trailing_zeros() as usize;
            }
        }
        unreachable!("wheel_len > 0 but no occupied bucket");
    }
}

#[cfg(test)]
impl EventQueue {
    /// Entries the queue's buffers can hold without reallocating: every
    /// wheel bucket, the cursor heap and the overflow heap together.
    fn retained_capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.cursor.capacity()
            + self.overflow.capacity()
    }
}

/// Reference scheduler: the original `BinaryHeap` implementation, kept as
/// the differential oracle for the calendar queue (`tests` below replay
/// randomized push/pop traces through both and require identical output).
#[cfg(test)]
pub(crate) struct ReferenceHeapQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
}

#[cfg(test)]
impl ReferenceHeapQueue {
    pub(crate) fn new() -> Self {
        ReferenceHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub(crate) fn push(&mut self, time: Time, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    pub(crate) fn pop(&mut self) -> Option<(Time, Event)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Sample(3));
        q.push(10, Event::Sample(1));
        q.push(20, Event::Sample(2));
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.push(100, Event::Sample(i));
        }
        for i in 0..5u32 {
            match q.pop().unwrap().1 {
                Event::Sample(s) => assert_eq!(s, i),
                e => panic!("unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5, Event::Sample(0));
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = EventQueue::new();
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        // Mix of near events and events far beyond one wheel window.
        q.push(3 * window, Event::Sample(3));
        q.push(100, Event::Sample(0));
        q.push(10 * window, Event::Sample(4));
        q.push(window - 1, Event::Sample(1));
        q.push(window + 7, Event::Sample(2));
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Sample(s) => s,
                e => panic!("unexpected {e:?}"),
            })
        })
        .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn schedule_at_now_orders_after_queued_same_time_events() {
        // A push at exactly the current floor (schedule-at-now, the engine's
        // `Timer { at: at.max(now) }` path) must order after events already
        // queued for that same time — FIFO on seq, never before them.
        let mut q = EventQueue::new();
        q.push(50, Event::Sample(0));
        q.push(100, Event::Sample(1));
        q.push(100, Event::Sample(2));
        assert_eq!(q.pop().unwrap().0, 50); // floor is now 50
        q.push(100, Event::Sample(3)); // same time as queued events
        q.push(100, Event::Sample(4));
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| {
                assert_eq!(t, 100);
                match e {
                    Event::Sample(s) => s,
                    e => panic!("unexpected {e:?}"),
                }
            })
        })
        .collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn push_behind_a_peek_advanced_cursor_stays_ordered() {
        // `peek_time` advances the cursor to the minimum pending tick
        // without popping; a later push may land in an *earlier* tick while
        // still respecting the floor (the engine's run-slice → schedule-at-
        // now pattern). The earlier event must still pop first.
        let mut q = EventQueue::new();
        q.push(22_134, Event::Sample(1)); // tick 21
        assert_eq!(q.peek_time(), Some(22_134)); // cursor now at tick 21
        q.push(14_264, Event::Sample(0)); // tick 13, behind the cursor
        assert_eq!(q.pop().unwrap().0, 14_264);
        assert_eq!(q.pop().unwrap().0, 22_134);
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_at_floor_after_drain_still_works() {
        // Drain the queue completely, then schedule at exactly the floor
        // and in the near past-window of the cursor position.
        let mut q = EventQueue::new();
        q.push(1_000_000, Event::Sample(0));
        assert_eq!(q.pop().unwrap().0, 1_000_000);
        assert!(q.is_empty());
        q.push(1_000_000, Event::Sample(1)); // exactly at the floor
        q.push(1_000_001, Event::Sample(2));
        assert_eq!(q.pop().unwrap().0, 1_000_000);
        assert_eq!(q.pop().unwrap().0, 1_000_001);
        assert!(q.pop().is_none());
    }

    /// A synchronized-start burst: many events share one bucket (the 32k
    /// permutation pattern that made the sorted-`Vec` cursor quadratic).
    /// Pushes interleave with pops inside the same tick; the order must
    /// still match the reference heap exactly.
    #[test]
    fn same_bucket_burst_stays_ordered() {
        let mut rng = SmallRng::seed_from_u64(0x0B00_C4E7);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now: Time;
        for i in 0..50_000u32 {
            let t = rng.gen_range(0..1_000); // all inside bucket 0
            cal.push(t, Event::Sample(i));
            heap.push(t, Event::Sample(i));
        }
        let mut tag = 50_000u32;
        while let Some((tc, ec)) = cal.pop() {
            let (th, eh) = heap.pop().expect("same length");
            assert_eq!(tc, th);
            match (ec, eh) {
                (Event::Sample(a), Event::Sample(b)) => assert_eq!(a, b),
                _ => unreachable!(),
            }
            now = tc;
            // Reschedule at now (same tick) for a while, like an engine
            // handling a burst of same-time timers.
            if tag < 80_000 {
                let t = now + rng.gen_range(0..8u64);
                cal.push(t, Event::Sample(tag));
                heap.push(t, Event::Sample(tag));
                tag += 1;
            }
        }
        assert!(heap.pop().is_none());
    }

    /// A steady burst: 64 events land two ticks ahead of the cursor and pop
    /// as it arrives, for three laps of the wheel. Storage must track the
    /// ~200 pending events, not the sum of 4096 buckets' peak sizes.
    #[test]
    fn wheel_storage_tracks_pending_events() {
        const BURST: u64 = 64;
        fn push_burst(q: &mut EventQueue, tick: u64) {
            for i in 0..BURST {
                q.push((tick << BUCKET_SHIFT) + i, Event::Sample(i as u32));
            }
        }
        let mut q = EventQueue::new();
        push_burst(&mut q, 0);
        push_burst(&mut q, 1);
        let (mut peak_len, mut peak_capacity) = (0, 0);
        for tick in 0..3 * NUM_BUCKETS as u64 {
            push_burst(&mut q, tick + 2);
            peak_len = peak_len.max(q.len());
            for _ in 0..BURST {
                let (t, _) = q.pop().expect("burst pending");
                assert_eq!(t >> BUCKET_SHIFT, tick);
            }
            peak_capacity = peak_capacity.max(q.retained_capacity());
        }
        assert_eq!(peak_len, 3 * BURST as usize);
        assert!(
            peak_capacity <= 4 * peak_len,
            "queue retained {peak_capacity} entries for at most {peak_len} pending"
        );
    }

    /// The satellite differential oracle: 1M randomized (time, seq)
    /// push/pop operations replayed through the calendar queue and the
    /// reference heap must produce an identical pop order.
    #[test]
    fn differential_oracle_vs_reference_heap_1m_ops() {
        let mut rng = SmallRng::seed_from_u64(0xCA1E_0DA2);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now: Time = 0;
        let mut ops: u64 = 0;
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        while ops < 1_000_000 {
            // Bias towards pushes while small, pops while large, mirroring
            // an engine run's grow/drain phases.
            let push = cal.len() < 4 || (cal.len() < 200_000 && rng.gen_bool(0.55));
            if push {
                // Times span same-tick, same-window, and far-future
                // (overflow) cases, plus exact schedule-at-now ties.
                let dt = match rng.gen_range(0..10u32) {
                    0 => 0,
                    1..=4 => rng.gen_range(0..2_000),
                    5..=7 => rng.gen_range(0..window / 2),
                    8 => rng.gen_range(0..2 * window),
                    _ => rng.gen_range(0..8 * window),
                };
                let tag = ops as u32;
                cal.push(now + dt, Event::Sample(tag));
                heap.push(now + dt, Event::Sample(tag));
            } else {
                let (tc, ec) = cal.pop().expect("calendar queue non-empty");
                let (th, eh) = heap.pop().expect("reference heap non-empty");
                assert_eq!(tc, th, "pop time diverged at op {ops}");
                match (ec, eh) {
                    (Event::Sample(a), Event::Sample(b)) => {
                        assert_eq!(a, b, "pop order diverged at op {ops}");
                    }
                    _ => unreachable!(),
                }
                assert!(tc >= now, "time went backwards");
                now = tc;
            }
            assert_eq!(cal.len(), heap.len());
            ops += 1;
        }
        // Drain both completely and compare the tail too.
        while let Some((tc, ec)) = cal.pop() {
            let (th, eh) = heap.pop().expect("same length");
            assert_eq!(tc, th);
            match (ec, eh) {
                (Event::Sample(a), Event::Sample(b)) => assert_eq!(a, b),
                _ => unreachable!(),
            }
        }
        assert!(heap.pop().is_none());
    }
}

//! Discrete-event scheduler: a two-level timing wheel (calendar queue) with
//! a binary-heap overflow for far-future events.
//!
//! The engine's former scheduler was a plain `BinaryHeap`, which costs
//! `O(log n)` cache-hostile sift operations per push/pop once hundreds of
//! thousands of events are pending. This queue keeps the exact same public
//! API and the exact same `(time, seq)` total order (FIFO tie-breaking at
//! equal times), but schedules into arrays of time slots:
//!
//! * the **wheel** covers a sliding window of `NUM_BUCKETS` ticks of
//!   `1 << BUCKET_SHIFT` ns each (1.024 µs buckets, a ~4.2 ms window —
//!   wide enough for serialization/propagation events, intra-DC RTOs and
//!   the 2×inter-RTT timers that dominate the engine's traffic);
//! * events beyond the window go to a **heap fallback** and migrate into
//!   the wheel when the cursor reaches their neighbourhood — each event is
//!   touched at most once extra, so the amortized cost stays `O(1)`;
//! * a bucket is ordered only when the cursor reaches it: its buffer
//!   becomes the **lane**, a second wheel level with one FIFO per
//!   nanosecond of the tick, threaded through the buffer by `u32` links
//!   and found through a 1024-bit occupancy bitmap. Draining the tick and
//!   pushing events at the current tick are both `O(1)` and never compare
//!   `(time, seq)`. (Two earlier designs ordered the cursor tick by
//!   comparison: a sorted `Vec` with binary-search inserts, which turned
//!   quadratic when a synchronized start — e.g. a 32k-flow permutation —
//!   landed millions of events in one 1 µs bucket, then a min-heap, whose
//!   sifts took about a third of a packet-level run's host time.)
//!
//! The per-nanosecond FIFOs give exact `(time, seq)` order because every
//! entry of a given nanosecond reaches the lane in push order: a bucket is
//! appended to in `seq` order; overflow entries migrate into a tick before
//! any direct push to that tick can happen (a tick leaves the overflow
//! range for good when the window first covers it), and they migrate in
//! heap order; a push into the lane carries the newest `seq`. Two kinds of
//! entry break that rule and go to a small **side heap** instead, whose
//! head `pop` and `peek_time` merge with the lane's by `(time, seq)`: a
//! push into a tick that `peek_time` moved the cursor past, and a push
//! into a **reserved slot**. `EventQueue::reserve` takes the next `seq`
//! without scheduling anything, and `EventQueue::push_reserved` may fill
//! it later, so the event pops exactly where it would have had it been
//! pushed at reservation time. The engine reserves the slot of every
//! `LinkFree` that would find its port's queue empty, and fills it only
//! if a packet arrives while the port serializes.
//!
//! Wheel memory tracks pending events: when the cursor reaches a bucket,
//! the bucket's buffer moves into the lane and the previous lane's buffer
//! goes back to the allocator, and a bucket that fills again grows a fresh
//! vector from memory recycled from earlier drains. Parking drained buffers
//! in the wheel instead would make its storage the sum of all buckets' peak
//! sizes, not the pending count. The lane retains only its links (4 bytes
//! per entry of the largest tick) and 8 KiB of per-nanosecond head/tail
//! indices.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ids::{FlowId, LinkId};
use crate::pool::PacketRef;
use crate::time::Time;

/// Events processed by the simulation engine.
///
/// Every variant fits in 12 bytes of payload, so an `Event` is 16 bytes and
/// a scheduled entry 32: packets stay in the engine's
/// [`crate::pool::PacketPool`] and travel here as handles.
#[derive(Clone, Debug)]
pub enum Event {
    /// A link finished serializing a packet; start the next one if queued.
    ///
    /// The engine schedules it only when the port has a packet waiting: at
    /// transmit time if the queue is non-empty after the dequeue, otherwise
    /// into the transmission's reserved slot once a packet is accepted
    /// while the port serializes. A transition nothing waits for is never
    /// scheduled; the port's free position in `LinkTable` stands in for
    /// it.
    LinkFree(LinkId),
    /// A packet reaches the far end of a link (post propagation). Carries
    /// the link's failure epoch at transmission time: if the link went down
    /// while the packet was propagating, the epochs no longer match and the
    /// packet is lost even if the link has since recovered.
    Arrive(LinkId, PacketRef, u32),
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
/// Lane slots: one per nanosecond of a bucket's tick.
const LANE_SLOTS: usize = 1 << BUCKET_SHIFT;
const LANE_MASK: u64 = (LANE_SLOTS - 1) as u64;
/// Words in the lane's occupancy bitmap.
const LANE_WORDS: usize = LANE_SLOTS / 64;
/// End-of-FIFO link. Lane indices stay below it.
const NIL: u32 = u32::MAX;

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

/// The cursor tick's entries, one FIFO per nanosecond of the tick.
///
/// The FIFOs are threaded in place through the tick's bucket buffer by
/// `u32` links, and an occupancy bitmap finds the first non-empty
/// nanosecond, so push and pop are `O(1)` and never compare `(time, seq)`.
/// A popped entry stays in the buffer (its event moved out) until the next
/// tick's bucket takes the buffer's place.
#[derive(Debug)]
struct Lane {
    /// The cursor tick's bucket buffer, followed by pushes at that tick.
    entries: Vec<Entry>,
    /// `next[i]`: the entry after `entries[i]` in its nanosecond's FIFO, or
    /// `NIL`. Kept across ticks; it only ever grows to the largest lane.
    next: Vec<u32>,
    /// First entry of each occupied nanosecond's FIFO.
    head: [u32; LANE_SLOTS],
    /// Last entry of each occupied nanosecond's FIFO.
    tail: [u32; LANE_SLOTS],
    /// One bit per nanosecond: set while its FIFO is non-empty.
    occupied: [u64; LANE_WORDS],
    /// No occupancy word before this one has a bit set.
    first_word: usize,
    /// Entries linked and not yet popped.
    pending: usize,
}

impl Lane {
    fn new() -> Self {
        Lane {
            entries: Vec::new(),
            next: Vec::new(),
            head: [NIL; LANE_SLOTS],
            tail: [NIL; LANE_SLOTS],
            occupied: [0; LANE_WORDS],
            first_word: 0,
            pending: 0,
        }
    }

    /// Make `bucket` (one tick's entries, in push order) the lane. The
    /// previous buffer, fully popped, goes back to the allocator.
    fn load(&mut self, bucket: Vec<Entry>) {
        debug_assert_eq!(self.pending, 0, "lane replaced while entries pend");
        assert!(
            bucket.len() < NIL as usize,
            "{} events in one tick overflow the lane's u32 links",
            bucket.len()
        );
        self.entries = bucket;
        self.next.clear();
        self.next.resize(self.entries.len(), NIL);
        self.first_word = 0;
        for i in 0..self.entries.len() {
            let slot = (self.entries[i].time & LANE_MASK) as usize;
            self.link(i as u32, slot);
        }
        self.pending = self.entries.len();
    }

    /// Append `e`, an entry of the lane's tick, to its nanosecond's FIFO.
    fn push(&mut self, e: Entry) {
        let i = self.entries.len();
        assert!(
            i < NIL as usize,
            "{i} events in one tick overflow the lane's u32 links"
        );
        let slot = (e.time & LANE_MASK) as usize;
        self.entries.push(e);
        self.next.push(NIL);
        self.link(i as u32, slot);
        // The time may precede the lane's head (a push after `peek_time`).
        self.first_word = self.first_word.min(slot / 64);
        self.pending += 1;
    }

    /// Append entry `i`, whose link is `NIL`, to the tail of `slot`'s FIFO.
    #[inline]
    fn link(&mut self, i: u32, slot: usize) {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            self.head[slot] = i;
        } else {
            self.next[self.tail[slot] as usize] = i;
        }
        self.tail[slot] = i;
    }

    /// The earliest occupied nanosecond. The lane must not be empty.
    #[inline]
    fn first_slot(&mut self) -> usize {
        debug_assert!(self.pending > 0);
        while self.occupied[self.first_word] == 0 {
            self.first_word += 1;
        }
        self.first_word * 64 + self.occupied[self.first_word].trailing_zeros() as usize
    }

    /// `(time, seq)` of the earliest entry. The lane must not be empty.
    fn head(&mut self) -> (Time, u64) {
        let slot = self.first_slot();
        let e = &self.entries[self.head[slot] as usize];
        (e.time, e.seq)
    }

    /// Pop the head of the earliest occupied nanosecond's FIFO.
    fn pop(&mut self) -> (Time, u64, Event) {
        let slot = self.first_slot();
        let i = self.head[slot] as usize;
        match self.next[i] {
            NIL => self.occupied[slot / 64] &= !(1u64 << (slot % 64)),
            next => self.head[slot] = next,
        }
        self.pending -= 1;
        let e = &mut self.entries[i];
        (
            e.time,
            e.seq,
            std::mem::replace(&mut e.event, Event::Telemetry),
        )
    }
}

/// Timestamped event queue with FIFO tie-breaking for determinism.
///
/// Pops in strict `(time, seq)` order, where `seq` is the push order — the
/// same contract the previous `BinaryHeap` scheduler provided (a replayed
/// push/pop trace produces an identical pop order; `uno-sim`'s differential
/// test holds the two implementations against each other). A reserved slot
/// (`EventQueue::reserve`) takes a `seq` in push order like a push does.
#[derive(Debug)]
pub struct EventQueue {
    /// The wheel: bucket `i` holds entries whose tick ≡ `i` (mod
    /// `NUM_BUCKETS`) within the window `(cur_tick, cur_tick + N)`.
    buckets: Vec<Vec<Entry>>,
    /// One bit per bucket: set while the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Tick of the cursor, whose entries live in `lane`. Only
    /// `pop`/`peek_time` advance it (to the minimum lane/wheel/overflow
    /// tick), so it never passes a pending lane, wheel or overflow entry.
    cur_tick: u64,
    /// The cursor tick's entries. Pushes at the cursor tick land here.
    lane: Lane,
    /// Entries that cannot join the FIFOs in `seq` order, at any tick:
    /// pushes at a tick before the cursor tick, which can happen once
    /// `peek_time` has moved the cursor past the queue floor (see
    /// [`EventQueue::push`]), and fills of reserved slots, whose `seq` is
    /// older than entries already filed. Its head pops when it orders
    /// before the lane's.
    side: BinaryHeap<Reverse<Entry>>,
    /// Entries currently in the wheel's buckets.
    wheel_len: usize,
    /// Far-future events (tick beyond the window at push time). Entries
    /// migrate into the wheel when the cursor catches up.
    overflow: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    /// `(time, seq)` of the last popped event: the queue's notion of "now".
    /// Every pending entry orders after it, and pushes are never scheduled
    /// before its time (see [`EventQueue::push`]).
    position: (Time, u64),
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
            lane: Lane::new(),
            side: BinaryHeap::new(),
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            position: (0, 0),
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
        let floor = self.position.0;
        debug_assert!(
            time >= floor,
            "event scheduled at {time} ns, before the queue floor {floor} ns"
        );
        let time = time.max(floor);
        let seq = self.reserve();
        let e = Entry { time, seq, event };
        self.len += 1;
        let tick = e.tick();
        if tick == self.cur_tick {
            // Schedule-at-now and anything else in the cursor tick: the
            // tail of its nanosecond's FIFO. It carries the newest `seq`,
            // so it orders after every queued entry of the same time.
            self.lane.push(e);
        } else if tick < self.cur_tick {
            // `peek_time` advances the cursor to the minimum *pending* tick
            // without popping, and a caller may then legally push an
            // earlier event (still at/after the floor). The engine does
            // exactly this: `run_until(end)` peeks a head beyond `end` and
            // stops, and the caller may then schedule at the new `now` —
            // between run slices, or before `install_faults` /
            // `schedule_link_down` — in a tick the cursor has skipped.
            // Such an event must not be filed into a wheel bucket the
            // cursor has already passed, or it would surface a whole lap
            // late and pop out of order. Its tick is below every lane,
            // wheel and overflow tick, so the side heap pops it first.
            self.side.push(Reverse(e));
        } else if tick >= self.cur_tick + NUM_BUCKETS as u64 {
            self.overflow.push(Reverse(e));
        } else {
            self.insert_wheel(e);
        }
    }

    /// Take the next `seq` without scheduling anything: a slot in push
    /// order that [`EventQueue::push_reserved`] may fill later. A slot
    /// never filled costs nothing.
    #[inline]
    pub(crate) fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `time` in the slot `seq` returned by
    /// [`EventQueue::reserve`]: it pops exactly where a push at reservation
    /// time would have. Each slot is filled at most once, and only while
    /// `(time, seq)` still orders after the last popped event.
    ///
    /// The entry goes to the side heap: its `seq` is older than entries
    /// already filed in the lane's FIFOs or the wheel's append-only
    /// buckets, so it cannot join them in order. Sorting it into its
    /// nanosecond's FIFO instead would walk that FIFO on every fill, and a
    /// synchronized start makes those FIFOs thousands of entries long.
    pub(crate) fn push_reserved(&mut self, time: Time, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "slot {seq} was never reserved");
        debug_assert!(
            (time, seq) > self.position,
            "reserved slot ({time}, {seq}) filled after the queue passed it at {:?}",
            self.position
        );
        self.side.push(Reverse(Entry { time, seq, event }));
        self.len += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        if !self.normalize() {
            return None;
        }
        let (time, seq, event) = if self.side_first() {
            let Reverse(e) = self.side.pop().expect("side_first saw a head");
            (e.time, e.seq, e.event)
        } else {
            self.lane.pop()
        };
        self.len -= 1;
        self.position = (time, seq);
        Some((time, event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<Time> {
        if !self.normalize() {
            return None;
        }
        Some(if self.side_first() {
            self.side.peek().expect("side_first saw a head").0.time
        } else {
            self.lane.head().0
        })
    }

    /// `(time, seq)` of the last popped event — for the engine, the
    /// position of the event being handled. `(0, 0)` before the first pop.
    #[inline]
    pub(crate) fn position(&self) -> (Time, u64) {
        self.position
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Place an entry whose tick is within the current window into its
    /// wheel bucket. Buckets are append-only; ordering happens when the
    /// cursor reaches them.
    fn insert_wheel(&mut self, e: Entry) {
        let tick = e.tick();
        debug_assert!(tick < self.cur_tick + NUM_BUCKETS as u64);
        // Equality only while `normalize` fills the bucket the lane is
        // about to take over.
        debug_assert!(
            tick >= self.cur_tick,
            "wheel insert at tick {tick} behind the cursor tick {}",
            self.cur_tick
        );
        let idx = (tick & BUCKET_MASK) as usize;
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
        self.buckets[idx].push(e);
        self.wheel_len += 1;
    }

    /// Ensure the earliest pending entry heads the lane or the side heap.
    /// Once the lane is empty, advance the cursor to the minimum wheel or
    /// overflow tick, migrate overflow entries that now fall inside the
    /// window, and make the tick's bucket the lane — unless the side heap's
    /// head lies in an earlier tick, in which case it pops first and the
    /// cursor stays. Returns `false` when the queue is empty.
    fn normalize(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        if self.lane.pending > 0 {
            // Lane ticks precede every wheel and overflow tick, so the
            // earlier of the lane's and the side heap's heads is the
            // global minimum.
            return true;
        }
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
            // Only the side heap holds entries.
            (None, None) => return true,
        };
        if self.side.peek().is_some_and(|Reverse(e)| e.tick() < target) {
            return true;
        }
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
        // The target bucket's buffer becomes the lane, and the previous
        // lane's buffer goes back to the allocator: the wheel holds storage
        // only for pending events.
        let idx = (target & BUCKET_MASK) as usize;
        let bucket = std::mem::take(&mut self.buckets[idx]);
        self.wheel_len -= bucket.len();
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        self.lane.load(bucket);
        true
    }

    /// After `normalize`: true when the side heap's head is the earliest
    /// pending entry, false when the lane's is.
    #[inline]
    fn side_first(&mut self) -> bool {
        match self.side.peek() {
            None => false,
            Some(Reverse(e)) => self.lane.pending == 0 || (e.time, e.seq) < self.lane.head(),
        }
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
    /// wheel bucket, the lane with its links, and both heaps together.
    fn retained_capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.lane.entries.capacity()
            + self.lane.next.capacity()
            + self.side.capacity()
            + self.overflow.capacity()
    }
}

/// Reference scheduler: the original `BinaryHeap` implementation, kept as
/// the differential oracle for the calendar queue (`tests` below replay
/// randomized push/pop traces through both and require identical output).
/// A reserved slot is a `seq` taken in push order, filled by an ordinary
/// heap push.
#[cfg(test)]
pub(crate) struct ReferenceHeapQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    position: (Time, u64),
}

#[cfg(test)]
impl ReferenceHeapQueue {
    pub(crate) fn new() -> Self {
        ReferenceHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            position: (0, 0),
        }
    }

    pub(crate) fn push(&mut self, time: Time, event: Event) {
        let seq = self.reserve();
        self.push_reserved(time, seq, event);
    }

    pub(crate) fn reserve(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    pub(crate) fn push_reserved(&mut self, time: Time, seq: u64, event: Event) {
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    pub(crate) fn pop(&mut self) -> Option<(Time, Event)> {
        let Reverse(e) = self.heap.pop()?;
        self.position = (e.time, e.seq);
        Some((e.time, e.event))
    }

    pub(crate) fn position(&self) -> (Time, u64) {
        self.position
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

    /// Equal-time entries reach one tick three ways — migrated from the
    /// overflow heap, pushed straight into the tick's wheel bucket, and
    /// pushed into the lane once the cursor sits on the tick — and must
    /// still pop in push order.
    #[test]
    fn equal_times_via_overflow_wheel_and_lane_pop_in_push_order() {
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let t = window + 700; // tick NUM_BUCKETS: beyond the first window
        let mut q = EventQueue::new();
        q.push(t, Event::Sample(0));
        q.push(t, Event::Sample(1));
        q.push(t + 1, Event::Sample(90)); // a later nanosecond, same tick
        assert_eq!(q.overflow.len(), 3);
        // Popping an event at tick 1 slides the window over t's tick, so
        // the overflow entries migrate into its bucket.
        q.push(1 << BUCKET_SHIFT, Event::Sample(99));
        assert_eq!(q.pop().map(|(time, _)| time), Some(1 << BUCKET_SHIFT));
        assert_eq!((q.overflow.len(), q.wheel_len), (0, 3));
        q.push(t, Event::Sample(2));
        q.push(t - 1, Event::Sample(89)); // an earlier nanosecond, same tick
        q.push(t, Event::Sample(3));
        assert_eq!(q.wheel_len, 6);
        // Peeking moves the cursor onto the tick: its bucket becomes the
        // lane, and later pushes at the tick append to it.
        assert_eq!(q.peek_time(), Some(t - 1));
        assert_eq!((q.wheel_len, q.lane.pending), (0, 6));
        q.push(t, Event::Sample(4));
        q.push(t, Event::Sample(5));
        assert_eq!(q.lane.pending, 8);
        let order: Vec<(Time, u32)> = std::iter::from_fn(|| {
            q.pop().map(|(time, e)| match e {
                Event::Sample(s) => (time, s),
                e => panic!("unexpected {e:?}"),
            })
        })
        .collect();
        assert_eq!(
            order,
            vec![
                (t - 1, 89),
                (t, 0),
                (t, 1),
                (t, 2),
                (t, 3),
                (t, 4),
                (t, 5),
                (t + 1, 90)
            ]
        );
    }

    /// A reserved slot pops where a push at reservation time would have:
    /// after earlier-`seq` entries of its nanosecond, before later ones,
    /// and after a wheel tick that precedes it although the side heap
    /// holds it from the moment it is filled.
    #[test]
    fn filled_reserved_slot_pops_in_push_order() {
        let t = 5 << BUCKET_SHIFT; // tick 5
        let mut q = EventQueue::new();
        q.push(t, Event::Sample(0));
        let slot = q.reserve();
        q.push(t, Event::Sample(2));
        q.push(2 << BUCKET_SHIFT, Event::Sample(99)); // tick 2, popped first
        q.push(3 << BUCKET_SHIFT, Event::Sample(100)); // tick 3, stays in the wheel
        assert_eq!(q.pop().map(|(time, _)| time), Some(2 << BUCKET_SHIFT));
        // The lane is empty and tick 3 waits in the wheel when the slot
        // is filled at tick 5: the cursor must still visit tick 3 first.
        q.push_reserved(t, slot, Event::Sample(1));
        q.push(t, Event::Sample(3));
        let order: Vec<(Time, u32)> = std::iter::from_fn(|| {
            q.pop().map(|(time, e)| match e {
                Event::Sample(s) => (time, s),
                e => panic!("unexpected {e:?}"),
            })
        })
        .collect();
        assert_eq!(
            order,
            vec![(3 << BUCKET_SHIFT, 100), (t, 0), (t, 1), (t, 2), (t, 3)]
        );
        assert_eq!(q.position(), (t, 5));
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
    /// reference heap must produce an identical pop order, once per
    /// push-time distribution. One push in eight reserves its slot instead
    /// and fills it later, or never, as the engine does with `LinkFree`.
    #[test]
    fn differential_oracle_vs_reference_heap_1m_ops() {
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        // Times span same-tick, same-window, and far-future (overflow)
        // cases, plus exact schedule-at-now ties.
        let (_, filled) =
            replay_against_reference_heap(0xCA1E_0DA2, |rng| match rng.gen_range(0..10u32) {
                0 => 0,
                1..=4 => rng.gen_range(0..2_000),
                5..=7 => rng.gen_range(0..window / 2),
                8 => rng.gen_range(0..2 * window),
                _ => rng.gen_range(0..8 * window),
            });
        assert!(filled >= 10_000, "only {filled} reserved slots filled");
        // Dense: most pushes land 0-64 ns ahead, so thousands of events
        // pend in one tick and same-nanosecond ties are frequent.
        let (peak_lane, filled) =
            replay_against_reference_heap(0xDE45_E71E, |rng| match rng.gen_range(0..10u32) {
                0..=7 => rng.gen_range(0..64),
                8 => rng.gen_range(0..2_000),
                _ => rng.gen_range(0..2 * window),
            });
        assert!(
            peak_lane >= 1_000,
            "the dense input pended at most {peak_lane} events in one tick"
        );
        assert!(filled >= 10_000, "only {filled} reserved slots filled");
    }

    /// Replay 1M randomized push/pop operations, with push times `dt(rng)`
    /// after the last popped time, through the calendar queue and the
    /// reference heap, asserting identical pops. Some pushes reserve a slot
    /// at their time instead; a later operation fills it if neither queue
    /// has passed it yet, and drops it otherwise. Returns the most events
    /// that pended in the lane at once and the number of filled slots.
    fn replay_against_reference_heap(
        seed: u64,
        dt: impl Fn(&mut SmallRng) -> Time,
    ) -> (usize, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now: Time = 0;
        let mut ops: u64 = 0;
        let mut peak_lane = 0;
        // Open reserved slots: (time, seq, tag).
        let mut reserved: Vec<(Time, u64, u32)> = Vec::new();
        let mut filled = 0;
        while ops < 1_000_000 {
            // Bias towards pushes while small, pops while large, mirroring
            // an engine run's grow/drain phases.
            let push = cal.len() < 4 || (cal.len() < 200_000 && rng.gen_bool(0.55));
            if push {
                let t = now + dt(&mut rng);
                let tag = ops as u32;
                if rng.gen_range(0..8u32) == 0 {
                    let seq = cal.reserve();
                    assert_eq!(heap.reserve(), seq, "reserved seq diverged at op {ops}");
                    reserved.push((t, seq, tag));
                } else {
                    cal.push(t, Event::Sample(tag));
                    heap.push(t, Event::Sample(tag));
                }
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
                assert_eq!(cal.position(), heap.position());
                now = tc;
            }
            if !reserved.is_empty() && rng.gen_bool(0.3) {
                let (t, seq, tag) = reserved.swap_remove(rng.gen_range(0..reserved.len()));
                if (t, seq) > heap.position() {
                    cal.push_reserved(t, seq, Event::Sample(tag));
                    heap.push_reserved(t, seq, Event::Sample(tag));
                    filled += 1;
                }
            }
            peak_lane = peak_lane.max(cal.lane.pending);
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
        (peak_lane, filled)
    }
}

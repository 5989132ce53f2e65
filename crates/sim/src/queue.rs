//! Output-port queues: byte-limited FIFO with RED ECN marking and an
//! optional phantom queue (HULL-style virtual queue, paper §4.1.3).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::blocks::{BlockList, BlockPool, PacketSlot};
use crate::pool::{PacketPool, PacketRef};
use crate::time::{Bps, Time, SECONDS};

/// Random Early Detection marking thresholds, as fractions of capacity.
///
/// The paper (§5.1) never marks below `min_frac` of the queue capacity,
/// always marks above `max_frac`, and marks with linearly increasing
/// probability in between (25% / 75% by default).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RedParams {
    /// Occupancy fraction below which packets are never marked.
    pub min_frac: f64,
    /// Occupancy fraction above which packets are always marked.
    pub max_frac: f64,
}

impl Default for RedParams {
    fn default() -> Self {
        RedParams {
            min_frac: 0.25,
            max_frac: 0.75,
        }
    }
}

impl RedParams {
    /// Marking probability for `occupancy` bytes in a queue of `capacity`.
    ///
    /// Degenerate parameter sets are clamped rather than trusted: a zero
    /// `capacity` never marks, and `max_frac <= min_frac` (where the linear
    /// region is empty and the slope would divide by zero) collapses to a
    /// step function at `min_frac`.
    #[inline]
    pub fn mark_probability(&self, occupancy: u64, capacity: u64) -> f64 {
        if capacity == 0 {
            return 0.0;
        }
        let frac = occupancy as f64 / capacity as f64;
        if frac < self.min_frac {
            0.0
        } else if self.max_frac <= self.min_frac || frac >= self.max_frac {
            1.0
        } else {
            (frac - self.min_frac) / (self.max_frac - self.min_frac)
        }
    }
}

/// The constants of a phantom queue (paper §4.1.3): it drains at a constant
/// rate slightly below the physical line rate.
///
/// When present, ECN marking is driven by phantom occupancy against the
/// phantom's (virtual, arbitrarily large) capacity, which lets the marking
/// threshold match inter-DC BDPs regardless of physical buffer size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhantomProfile {
    /// Drain rate in bits per second (`drain_factor × line_rate`).
    drain_bps: f64,
    /// Virtual capacity in bytes used for RED marking decisions.
    pub capacity: u64,
    /// Marking thresholds applied to the virtual occupancy.
    pub red: RedParams,
}

impl PhantomProfile {
    /// A phantom queue draining at `drain_factor × line_rate_bps`.
    pub fn new(line_rate_bps: Bps, drain_factor: f64, capacity: u64, red: RedParams) -> Self {
        assert!(drain_factor > 0.0 && drain_factor <= 1.0);
        PhantomProfile {
            drain_bps: line_rate_bps as f64 * drain_factor,
            capacity,
            red,
        }
    }
}

/// The state of a phantom queue: a counter that grows with every enqueued
/// byte and drains lazily at its [`PhantomProfile`]'s rate.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhantomQueue {
    /// Virtual occupancy in bytes (fractional to avoid drain rounding bias).
    occupancy: f64,
    last_update: Time,
}

impl PhantomQueue {
    /// The counter drained up to `now`, without storing it.
    #[inline]
    fn drained(&self, p: &PhantomProfile, now: Time) -> f64 {
        if now > self.last_update {
            let dt = (now - self.last_update) as f64 / SECONDS as f64;
            (self.occupancy - dt * p.drain_bps / 8.0).max(0.0)
        } else {
            self.occupancy
        }
    }

    /// Lazily drain the counter up to `now`.
    #[inline]
    fn drain_to(&mut self, p: &PhantomProfile, now: Time) {
        if now > self.last_update {
            self.occupancy = self.drained(p, now);
            self.last_update = now;
        }
    }

    /// Account an enqueued packet and decide whether it should be marked.
    pub fn on_enqueue<R: Rng>(
        &mut self,
        p: &PhantomProfile,
        size: u32,
        now: Time,
        rng: &mut R,
    ) -> bool {
        self.drain_to(p, now);
        let prob = p.red.mark_probability(self.occupancy as u64, p.capacity);
        self.occupancy = (self.occupancy + size as f64).min(p.capacity as f64 * 4.0);
        prob > 0.0 && rng.gen::<f64>() < prob
    }

    /// Virtual occupancy at `now`. A pure read: the counter drains only on
    /// enqueue, so observers (telemetry, queue samplers) reading it at any
    /// times leave its later values, and so RED marking, bit-identical.
    pub fn occupancy(&self, p: &PhantomProfile, now: Time) -> u64 {
        self.drained(p, now) as u64
    }
}

/// Result of attempting to enqueue a packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnqueueOutcome {
    /// Packet accepted (possibly ECN-marked in place).
    Enqueued {
        /// The packet was ECN-marked on this enqueue.
        marked: bool,
        /// The mark was driven by the phantom queue (false covers both the
        /// unmarked case and physical RED backstop marks).
        phantom: bool,
    },
    /// Packet dropped: the physical queue was full.
    Dropped,
}

impl EnqueueOutcome {
    /// True when the packet was accepted.
    pub fn is_enqueued(&self) -> bool {
        matches!(self, EnqueueOutcome::Enqueued { .. })
    }
}

/// The constants of an output port, shared by every port of a link
/// profile ([`crate::tables::LinkProfile`]): capacity, RED thresholds, the
/// phantom queue's and PFC's. The port itself, a [`PortQueue`], keeps only
/// its state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueProfile {
    /// Physical capacity in bytes.
    pub capacity: u64,
    /// Physical RED marking thresholds.
    pub red: RedParams,
    /// Optional phantom queue; when present it drives ECN marking.
    pub phantom: Option<PhantomProfile>,
    /// PFC XOFF threshold in bytes; 0 disables PFC on the port (the
    /// default, so lossy fabrics never touch the pause path).
    pub xoff_bytes: u64,
    /// PFC XON threshold in bytes (release pause at or below this).
    pub xon_bytes: u64,
}

impl QueueProfile {
    /// A port with `capacity` bytes of physical buffering.
    pub fn new(capacity: u64, red: RedParams) -> Self {
        QueueProfile {
            capacity,
            red,
            phantom: None,
            xoff_bytes: 0,
            xon_bytes: 0,
        }
    }

    /// Attach a phantom queue (marking will then be phantom-driven, with the
    /// physical RED retained as a backstop for deep physical congestion).
    pub fn with_phantom(mut self, phantom: PhantomProfile) -> Self {
        self.phantom = Some(phantom);
        self
    }

    /// Arm PFC on the port: assert PAUSE upstream when occupancy reaches
    /// `xoff` bytes, release once it drains back to `xon` bytes or below.
    pub fn with_pfc(mut self, xoff: u64, xon: u64) -> Self {
        assert!(xoff > 0 && xon < xoff, "PFC needs 0 <= xon < xoff");
        self.xoff_bytes = xoff;
        self.xon_bytes = xon;
        self
    }

    /// True when PFC is armed on the port.
    #[inline]
    pub fn pfc_enabled(&self) -> bool {
        self.xoff_bytes > 0
    }
}

/// Packets a port FIFO holds without a block.
const INLINE: usize = 2;

/// A port's FIFO of `(handle, wire size)` slots: the oldest packets in two
/// inline slots, the rest in a chain of blocks from the shared
/// [`BlockPool`]. The inline slots fill only while the chain is empty, so a
/// port holding two packets or fewer takes no block, and a drained port
/// holds none.
#[derive(Debug)]
struct Fifo {
    inline: [PacketSlot; INLINE],
    inline_len: u8,
    blocks: BlockList,
}

impl Default for Fifo {
    fn default() -> Self {
        Fifo {
            inline: [(PacketRef::VACANT, 0); INLINE],
            inline_len: 0,
            blocks: BlockList::default(),
        }
    }
}

impl Clone for Fifo {
    /// Copies a FIFO that holds no block (as every port of a topology that
    /// has not run): a copied chain would share its blocks.
    fn clone(&self) -> Self {
        assert!(
            self.blocks.is_empty(),
            "a port FIFO that holds blocks cannot be cloned"
        );
        Fifo {
            inline: self.inline,
            inline_len: self.inline_len,
            blocks: BlockList::default(),
        }
    }
}

impl Fifo {
    #[inline]
    fn len(&self) -> usize {
        self.inline_len as usize + self.blocks.len()
    }

    #[inline]
    fn push(&mut self, slot: PacketSlot, pool: &mut BlockPool) {
        let n = self.inline_len as usize;
        if n < INLINE && self.blocks.is_empty() {
            self.inline[n] = slot;
            self.inline_len += 1;
        } else {
            self.blocks.push(|| slot, pool);
        }
    }

    #[inline]
    fn pop(&mut self, pool: &mut BlockPool) -> Option<PacketSlot> {
        if self.inline_len == 0 {
            return self.blocks.pop_front(pool);
        }
        let head = self.inline[0];
        self.inline[0] = self.inline[1];
        self.inline_len -= 1;
        Some(head)
    }
}

/// The state of a byte-limited FIFO output queue with RED ECN marking and
/// an optional phantom queue; its constants are its [`QueueProfile`].
///
/// The FIFO holds handles into the engine's [`PacketPool`] next to each
/// packet's wire size, 8 bytes a slot, so dequeue and byte accounting never
/// touch the packet pool. Past two packets, the slots live in blocks of
/// the [`BlockPool`] that every operation that moves packets borrows: the
/// engine's, which its scheduler shares.
#[derive(Clone, Debug, Default)]
pub struct PortQueue {
    fifo: Fifo,
    bytes: u64,
    /// Phantom-queue state; it stays at zero on a port whose profile has
    /// no phantom queue.
    phantom: PhantomQueue,
    /// Cumulative count of dropped packets.
    pub drops: u64,
    /// Cumulative count of ECN-marked packets.
    pub marks: u64,
    /// Of [`PortQueue::marks`], how many were driven by the phantom queue.
    pub phantom_marks: u64,
    /// High-water mark of physical occupancy in bytes.
    pub max_bytes_seen: u64,
    /// Cumulative count of PAUSE assertions by this port.
    pub pauses_sent: u64,
    /// True while this port holds its upstream feeders paused.
    pub pause_asserted: bool,
}

const _: () = assert!(std::mem::size_of::<PortQueue>() <= 104);

impl PortQueue {
    /// An empty queue.
    pub fn new() -> Self {
        PortQueue::default()
    }

    /// True when occupancy crossed XOFF and no PAUSE is outstanding — the
    /// engine then asserts pause upstream and calls [`PortQueue::note_pause`].
    #[inline]
    pub fn should_assert_pause(&self, p: &QueueProfile) -> bool {
        p.xoff_bytes > 0 && !self.pause_asserted && self.bytes >= p.xoff_bytes
    }

    /// True when a PAUSE is outstanding and occupancy drained to XON — the
    /// engine then resumes upstream and calls [`PortQueue::note_resume`].
    #[inline]
    pub fn should_release_pause(&self, p: &QueueProfile) -> bool {
        self.pause_asserted && self.bytes <= p.xon_bytes
    }

    /// Record that the engine asserted PAUSE on behalf of this port.
    pub fn note_pause(&mut self) {
        debug_assert!(!self.pause_asserted);
        self.pause_asserted = true;
        self.pauses_sent += 1;
    }

    /// Record that the engine released this port's outstanding PAUSE.
    pub fn note_resume(&mut self) {
        debug_assert!(self.pause_asserted);
        self.pause_asserted = false;
    }

    /// Physical occupancy in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Phantom occupancy at `now`, when the profile has a phantom queue.
    pub fn phantom_occupancy(&self, p: &QueueProfile, now: Time) -> Option<u64> {
        p.phantom.as_ref().map(|ph| self.phantom.occupancy(ph, now))
    }

    /// Number of queued packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True when no packets are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fifo.len() == 0
    }

    /// Try to enqueue the packet behind `pkt`, applying drop-tail and ECN
    /// marking (the mark is set on the pooled packet in place). An accepted
    /// packet past the second takes its slot in `blocks`.
    ///
    /// Control packets (ACK/NACK) are never ECN-marked but still consume
    /// buffer space and can be dropped when the queue is full. A dropped
    /// handle stays live: releasing it is the caller's job.
    pub fn try_enqueue<R: Rng>(
        &mut self,
        profile: &QueueProfile,
        pkt: PacketRef,
        packets: &mut PacketPool,
        blocks: &mut BlockPool,
        now: Time,
        rng: &mut R,
    ) -> EnqueueOutcome {
        let p = packets.get_mut(pkt);
        let size = p.size;
        if self.bytes + size as u64 > profile.capacity {
            self.drops += 1;
            return EnqueueOutcome::Dropped;
        }
        let mut mark = false;
        let mut phantom_mark = false;
        if !p.is_control() {
            if let Some(ph) = &profile.phantom {
                phantom_mark = self.phantom.on_enqueue(ph, size, now, rng);
                mark |= phantom_mark;
            }
            // Physical RED is evaluated regardless: with a phantom queue it
            // acts as a backstop signal for deep physical congestion.
            let prob = profile.red.mark_probability(self.bytes, profile.capacity);
            if prob > 0.0 && rng.gen::<f64>() < prob {
                mark = true;
            }
            if mark {
                p.ecn = true;
                self.marks += 1;
                if phantom_mark {
                    self.phantom_marks += 1;
                }
            }
        } else if let Some(ph) = &profile.phantom {
            // Control packets still add load to the virtual queue.
            let _ = self.phantom.on_enqueue(ph, size, now, rng);
        }
        self.bytes += size as u64;
        self.max_bytes_seen = self.max_bytes_seen.max(self.bytes);
        self.fifo.push((pkt, size), blocks);
        EnqueueOutcome::Enqueued {
            marked: mark,
            phantom: phantom_mark,
        }
    }

    /// Dequeue the head-of-line packet's handle and wire size, if any. A
    /// block the FIFO no longer needs goes back to `blocks`.
    #[inline]
    pub fn dequeue(&mut self, blocks: &mut BlockPool) -> Option<(PacketRef, u32)> {
        let (pkt, size) = self.fifo.pop(blocks)?;
        self.bytes -= size as u64;
        Some((pkt, size))
    }

    /// Drop every queued packet (used when a link fails), counting the
    /// drops, and hand each purged handle, in FIFO order, to `purged` for
    /// the caller to release. Every block goes back to `blocks`. Returns
    /// the number of packets purged.
    pub fn clear(&mut self, blocks: &mut BlockPool, mut purged: impl FnMut(PacketRef)) -> usize {
        let n = self.fifo.len();
        self.drops += n as u64;
        self.bytes = 0;
        while let Some((pkt, _)) = self.fifo.pop(blocks) {
            purged(pkt);
        }
        n
    }
}

#[cfg(test)]
impl PortQueue {
    /// Packets queued in blocks, past the inline slots.
    pub(crate) fn in_blocks(&self) -> usize {
        self.fifo.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId};
    use crate::packet::Packet;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A pooled data packet of `size` bytes.
    fn pkt(pool: &mut PacketPool, size: u32) -> PacketRef {
        pool.alloc(Packet::data(FlowId(0), 0, size, NodeId(1)))
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn red_probability_regions() {
        let red = RedParams::default();
        assert_eq!(red.mark_probability(0, 1000), 0.0);
        assert_eq!(red.mark_probability(249, 1000), 0.0);
        assert_eq!(red.mark_probability(750, 1000), 1.0);
        assert_eq!(red.mark_probability(1000, 1000), 1.0);
        let mid = red.mark_probability(500, 1000);
        assert!((mid - 0.5).abs() < 1e-9, "{mid}");
    }

    #[test]
    fn red_zero_capacity_is_safe() {
        let red = RedParams::default();
        assert_eq!(red.mark_probability(10, 0), 0.0);
        assert_eq!(red.mark_probability(0, 0), 0.0);
    }

    #[test]
    fn red_degenerate_thresholds_step_without_nan() {
        // min == max: the linear region is empty; must behave as a step
        // function at the threshold instead of dividing by zero.
        let step = RedParams {
            min_frac: 0.5,
            max_frac: 0.5,
        };
        assert_eq!(step.mark_probability(499, 1000), 0.0);
        assert_eq!(step.mark_probability(500, 1000), 1.0);
        assert_eq!(step.mark_probability(1000, 1000), 1.0);
        // Inverted thresholds clamp the same way (never NaN, never negative).
        let inverted = RedParams {
            min_frac: 0.8,
            max_frac: 0.2,
        };
        for occ in [0u64, 199, 200, 500, 799, 800, 1000] {
            let p = inverted.mark_probability(occ, 1000);
            assert!(p.is_finite() && (0.0..=1.0).contains(&p), "p({occ})={p}");
        }
        assert_eq!(inverted.mark_probability(799, 1000), 0.0);
        assert_eq!(inverted.mark_probability(800, 1000), 1.0);
    }

    #[test]
    fn pfc_thresholds_assert_and_release() {
        let prof = QueueProfile::new(10_000, RedParams::default()).with_pfc(3000, 1000);
        let mut q = PortQueue::new();
        let (mut pool, mut blocks, mut r) = (PacketPool::new(), BlockPool::new(), rng());
        assert!(prof.pfc_enabled());
        assert!(!q.should_assert_pause(&prof));
        for _ in 0..3 {
            let p = pkt(&mut pool, 1000);
            assert!(q
                .try_enqueue(&prof, p, &mut pool, &mut blocks, 0, &mut r)
                .is_enqueued());
        }
        assert!(q.should_assert_pause(&prof), "occupancy 3000 >= xoff 3000");
        q.note_pause();
        assert!(!q.should_assert_pause(&prof), "already asserted");
        assert!(!q.should_release_pause(&prof), "still above xon");
        q.dequeue(&mut blocks);
        q.dequeue(&mut blocks);
        assert!(q.should_release_pause(&prof), "occupancy 1000 <= xon 1000");
        q.note_resume();
        assert!(!q.should_release_pause(&prof));
        assert_eq!(q.pauses_sent, 1);
        // PFC-off queues never report pause work: the lossy hot path stays
        // a pair of always-false comparisons.
        let off = QueueProfile::new(10_000, RedParams::default());
        let mut lossy = PortQueue::new();
        assert!(!off.pfc_enabled());
        assert!(!lossy.should_assert_pause(&off) && !lossy.should_release_pause(&off));
        for _ in 0..5 {
            let p = pkt(&mut pool, 1000);
            assert!(lossy
                .try_enqueue(&off, p, &mut pool, &mut blocks, 0, &mut r)
                .is_enqueued());
        }
        assert!(!lossy.should_assert_pause(&off) && !lossy.should_release_pause(&off));
    }

    #[test]
    fn fifo_order_and_byte_accounting() {
        let prof = QueueProfile::new(10_000, RedParams::default());
        let mut q = PortQueue::new();
        let (mut pool, mut blocks, mut r) = (PacketPool::new(), BlockPool::new(), rng());
        for i in 0..3 {
            let p = pkt(&mut pool, 1000);
            pool.get_mut(p).seq = i;
            assert!(q
                .try_enqueue(&prof, p, &mut pool, &mut blocks, 0, &mut r)
                .is_enqueued());
        }
        assert_eq!(q.bytes(), 3000);
        assert_eq!(q.len(), 3);
        let (head, size) = q.dequeue(&mut blocks).unwrap();
        assert_eq!((pool.get(head).seq, size), (0, 1000));
        assert_eq!(pool.get(q.dequeue(&mut blocks).unwrap().0).seq, 1);
        assert_eq!(q.bytes(), 1000);
    }

    #[test]
    fn drop_tail_when_full() {
        let prof = QueueProfile::new(2048, RedParams::default());
        let mut q = PortQueue::new();
        let (mut pool, mut blocks, mut r) = (PacketPool::new(), BlockPool::new(), rng());
        let full = pkt(&mut pool, 2048);
        assert!(q
            .try_enqueue(&prof, full, &mut pool, &mut blocks, 0, &mut r)
            .is_enqueued());
        let extra = pkt(&mut pool, 1);
        assert_eq!(
            q.try_enqueue(&prof, extra, &mut pool, &mut blocks, 0, &mut r),
            EnqueueOutcome::Dropped
        );
        assert_eq!(q.drops, 1);
        assert_eq!((q.len(), q.bytes()), (1, 2048), "a drop leaves no trace");
    }

    #[test]
    fn marks_above_max_threshold() {
        let prof = QueueProfile::new(1000, RedParams::default());
        let mut q = PortQueue::new();
        let (mut pool, mut blocks, mut r) = (PacketPool::new(), BlockPool::new(), rng());
        // Fill past 75%: subsequent packets must be marked.
        let (a, b) = (pkt(&mut pool, 800), pkt(&mut pool, 100));
        assert_eq!(
            q.try_enqueue(&prof, a, &mut pool, &mut blocks, 0, &mut r),
            EnqueueOutcome::Enqueued {
                marked: false,
                phantom: false
            }
        );
        assert_eq!(
            q.try_enqueue(&prof, b, &mut pool, &mut blocks, 0, &mut r),
            EnqueueOutcome::Enqueued {
                marked: true,
                phantom: false
            }
        );
        let (marked, _) = q.dequeue(&mut blocks).unwrap(); // first packet: queue was empty, unmarked
        assert!(!pool.get(marked).ecn);
        let (second, _) = q.dequeue(&mut blocks).unwrap();
        assert!(
            pool.get(second).ecn,
            "occupancy 800/1000 > max_frac must mark"
        );
        assert_eq!(q.marks, 1);
    }

    #[test]
    fn control_packets_never_marked() {
        let prof = QueueProfile::new(1000, RedParams::default());
        let mut q = PortQueue::new();
        let (mut pool, mut blocks, mut r) = (PacketPool::new(), BlockPool::new(), rng());
        let fill = pkt(&mut pool, 900);
        let _ = q.try_enqueue(&prof, fill, &mut pool, &mut blocks, 0, &mut r);
        let data = Packet::data(FlowId(0), 0, 50, NodeId(1));
        let ack = Packet::ack_for(&data, NodeId(0), 50, 0);
        assert!(!ack.ecn);
        let ack = pool.alloc(ack);
        let _ = q.try_enqueue(&prof, ack, &mut pool, &mut blocks, 0, &mut r);
        q.dequeue(&mut blocks);
        assert!(!pool.get(q.dequeue(&mut blocks).unwrap().0).ecn);
    }

    #[test]
    fn phantom_drains_at_configured_rate() {
        // 8 Gbps drain => 1 byte/ns.
        let p = PhantomProfile::new(8_000_000_000, 1.0, 1_000_000, RedParams::default());
        let mut ph = PhantomQueue::default();
        let mut r = rng();
        let _ = ph.on_enqueue(&p, 10_000, 0, &mut r);
        assert_eq!(ph.occupancy(&p, 0), 10_000);
        assert_eq!(ph.occupancy(&p, 4_000), 6_000);
        assert_eq!(ph.occupancy(&p, 100_000), 0);
    }

    #[test]
    fn reading_a_phantom_queue_does_not_change_it() {
        use rand::Rng;
        // 4 KiB packets into a 100 Gbps port draining at 0.9 (364 ns per
        // packet), at random gaps averaging about that, so the counter
        // wanders through the marking region; one copy is also read at
        // several random times between enqueues.
        let p = PhantomProfile::new(100_000_000_000, 0.9, 256 << 10, RedParams::default());
        let (mut quiet, mut read) = (PhantomQueue::default(), PhantomQueue::default());
        let (mut r_quiet, mut r_read, mut gaps) = (rng(), rng(), SmallRng::seed_from_u64(11));
        let mut now = 0;
        let mut marks = 0;
        let mut unmarked_in_region = 0;
        for _ in 0..20_000 {
            let gap: Time = gaps.gen_range(0..730);
            for _ in 0..3 {
                let _ = read.occupancy(&p, now + gaps.gen_range(0..=gap));
            }
            now += gap;
            let a = quiet.on_enqueue(&p, 4096, now, &mut r_quiet);
            let b = read.on_enqueue(&p, 4096, now, &mut r_read);
            assert_eq!(a, b, "mark decisions diverged at {now} ns");
            assert_eq!(quiet.occupancy.to_bits(), read.occupancy.to_bits());
            marks += a as u32;
            let frac = quiet.occupancy / p.capacity as f64;
            unmarked_in_region += (!a && (0.3..0.7).contains(&frac)) as u32;
        }
        assert!(marks > 0, "the queue must reach its marking region");
        assert!(unmarked_in_region > 0, "marks must be random draws too");
        assert_eq!(quiet.last_update, read.last_update);
    }

    #[test]
    fn phantom_marks_when_virtually_congested() {
        // Tiny virtual capacity so a single packet exceeds max_frac.
        let prof = QueueProfile::new(1 << 20, RedParams::default()).with_phantom(
            PhantomProfile::new(100_000_000_000, 0.9, 1000, RedParams::default()),
        );
        let mut q = PortQueue::new();
        let (mut pool, mut blocks, mut r) = (PacketPool::new(), BlockPool::new(), rng());
        let (a, b) = (pkt(&mut pool, 900), pkt(&mut pool, 900));
        let _ = q.try_enqueue(&prof, a, &mut pool, &mut blocks, 0, &mut r); // phantom occ 0 -> no mark
        let out = q.try_enqueue(&prof, b, &mut pool, &mut blocks, 0, &mut r); // phantom occ 900/1000 -> mark
        assert_eq!(
            out,
            EnqueueOutcome::Enqueued {
                marked: true,
                phantom: true
            }
        );
        assert_eq!(q.marks, 1);
        assert_eq!(q.phantom_marks, 1, "mark must be attributed to the phantom");
        q.dequeue(&mut blocks);
        assert!(pool.get(q.dequeue(&mut blocks).unwrap().0).ecn);
    }

    #[test]
    fn clear_counts_drops() {
        let prof = QueueProfile::new(10_000, RedParams::default());
        let mut q = PortQueue::new();
        let (mut pool, mut blocks, mut r) = (PacketPool::new(), BlockPool::new(), rng());
        let mut queued = Vec::new();
        for _ in 0..4 {
            let p = pkt(&mut pool, 100);
            assert!(q
                .try_enqueue(&prof, p, &mut pool, &mut blocks, 0, &mut r)
                .is_enqueued());
            queued.push(p);
        }
        let mut purged = Vec::new();
        assert_eq!(q.clear(&mut blocks, |p| purged.push(p)), 4);
        assert_eq!(purged, queued, "every handle, in order");
        assert_eq!(q.drops, 4);
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
    }
}

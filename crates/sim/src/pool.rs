//! The simulator's slabs, and the rule by which drained buffers shrink.
//!
//! A `Slab` hands out `u32`-indexed slots. It grows in fixed-size chunks
//! that are never moved: its memory follows the most slots ever live at
//! once, without the up-to-2x overshoot of a doubling `Vec`, and a chunk's
//! pages become resident only as its slots are first handed out. Freed
//! slots are recycled last-in first-out through a free list threaded
//! through the free slots themselves, so a released slot is reused while it
//! is still in cache. Two slabs use it: the packet slab, [`PacketPool`], and
//! the block slab of queue storage, [`crate::blocks::BlockPool`].
//!
//! Every in-flight packet lives in one [`PacketPool`], and the scheduler and
//! port queues carry 4-byte [`PacketRef`] handles. A packet enters the pool
//! when a flow's [`crate::Action::Send`] injects it and leaves it exactly
//! once: when a host consumes it, or when a drop path (drop-tail, link loss,
//! a link-down purge, a misrouted or unroutable packet) releases it. In
//! between it is read in place, once per hop, when it arrives at a node.

use crate::packet::Packet;

/// Handle to a packet held in a [`PacketPool`].
///
/// A handle is valid from [`PacketPool::alloc`] until the
/// [`PacketPool::release`] or [`PacketPool::take`] that frees it; after
/// that its slot may hold another packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketRef(u32);

impl PacketRef {
    /// A handle no packet ever has, for storage that holds no packet yet.
    pub(crate) const VACANT: PacketRef = PacketRef(NIL);
}

/// Bytes per chunk, at most: 4096 packets or 256 queue-storage blocks.
/// Chunks this small leave glibc's adaptive `mmap` threshold where the
/// packet chunks alone put it: freeing a 1 MiB block chunk raised it, and
/// the next simulator in the process kept up to 3.7 MiB more of its freed
/// memory resident.
const CHUNK_BYTES: usize = 128 << 10;
/// End of the free list, and the index no slot has.
pub(crate) const NIL: u32 = u32::MAX;

/// A value, or a link in the free list. Costs no more than the value when
/// the value leaves a niche for the discriminant, as [`Packet`] does in
/// [`crate::PacketKind`].
#[derive(Debug)]
enum Slot<T> {
    Used(T),
    Free(u32),
}

/// Slots of `T` addressed by `u32` index, in chunks that never move.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    /// Fixed-capacity chunks of `CHUNK` slots; every chunk but the last is
    /// full, and the last grows by push until it is.
    chunks: Vec<Vec<Slot<T>>>,
    /// Most recently released slot, or `NIL`.
    free_head: u32,
    /// Slots allocated and not yet released.
    #[cfg(test)]
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            chunks: Vec::new(),
            free_head: NIL,
            #[cfg(test)]
            live: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Slots per chunk, as a shift: the most slots, a power of two, that
    /// fit in `CHUNK_BYTES`.
    const SHIFT: u32 = (CHUNK_BYTES / std::mem::size_of::<Slot<T>>()).ilog2();
    const CHUNK: usize = 1 << Self::SHIFT;

    /// Store `value` and return its slot: the most recently freed one, or
    /// a new one past every slot handed out so far.
    #[inline(always)]
    pub(crate) fn alloc(&mut self, value: T) -> u32 {
        if self.free_head == NIL {
            self.grow();
        }
        let i = self.free_head;
        let slot = self.slot_mut(i);
        let Slot::Free(next) = *slot else {
            unreachable!("free list reaches a used slot");
        };
        *slot = Slot::Used(value);
        self.free_head = next;
        #[cfg(test)]
        {
            self.live += 1;
        }
        i
    }

    /// Put one free slot past every slot handed out on the free list,
    /// starting a chunk when the last one is full. Out of line, so that
    /// `alloc` stays small enough to store its value in place.
    #[inline(never)]
    fn grow(&mut self) {
        if self.chunks.last().is_none_or(|c| c.len() == Self::CHUNK) {
            assert!(
                self.chunks.len() < (NIL as usize) >> Self::SHIFT,
                "slab exhausted its u32 indices"
            );
            self.chunks.push(Vec::with_capacity(Self::CHUNK));
        }
        let base = (self.chunks.len() - 1) << Self::SHIFT;
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        self.free_head = (base + chunk.len()) as u32;
        chunk.push(Slot::Free(NIL));
    }

    /// The value in slot `i`, or `None` when the slot is free.
    #[inline]
    pub(crate) fn get(&self, i: u32) -> Option<&T> {
        match self.slot(i) {
            Slot::Used(value) => Some(value),
            Slot::Free(_) => None,
        }
    }

    /// The value in slot `i`, mutably, or `None` when the slot is free.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: u32) -> Option<&mut T> {
        match self.slot_mut(i) {
            Slot::Used(value) => Some(value),
            Slot::Free(_) => None,
        }
    }

    /// Free slot `i`. Returns false, and changes nothing, when it is
    /// already free.
    #[inline]
    pub(crate) fn release(&mut self, i: u32) -> bool {
        let next = self.free_head;
        let slot = self.slot_mut(i);
        if matches!(slot, Slot::Free(_)) {
            return false;
        }
        *slot = Slot::Free(next);
        self.free_head = i;
        #[cfg(test)]
        {
            self.live -= 1;
        }
        true
    }

    #[inline]
    fn slot(&self, i: u32) -> &Slot<T> {
        let i = i as usize;
        &self.chunks[i >> Self::SHIFT][i & (Self::CHUNK - 1)]
    }

    #[inline]
    fn slot_mut(&mut self, i: u32) -> &mut Slot<T> {
        let i = i as usize;
        &mut self.chunks[i >> Self::SHIFT][i & (Self::CHUNK - 1)]
    }
}

#[cfg(test)]
impl<T> Slab<T> {
    /// Slots allocated and not yet released.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Most slots the slab has held at once: the slots it has handed out.
    pub(crate) fn high_water(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| ((self.chunks.len() - 1) << Self::SHIFT) + c.len())
    }

    /// Chunks allocated.
    pub(crate) fn chunks(&self) -> usize {
        self.chunks.len()
    }
}

/// Slab of in-flight packets, addressed by [`PacketRef`].
#[derive(Debug, Default)]
pub struct PacketPool {
    slab: Slab<Packet>,
}

impl PacketPool {
    /// An empty pool. It allocates nothing until the first packet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `pkt` and return its handle.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> PacketRef {
        PacketRef(self.slab.alloc(pkt))
    }

    /// The packet behind `r`.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet {
        self.slab
            .get(r.0)
            .unwrap_or_else(|| panic!("read of released packet handle {r:?}"))
    }

    /// The packet behind `r`, mutably (e.g. to set its ECN mark).
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        self.slab
            .get_mut(r.0)
            .unwrap_or_else(|| panic!("write to released packet handle {r:?}"))
    }

    /// Free `r`'s slot. `r` must not be used again.
    #[inline]
    pub fn release(&mut self, r: PacketRef) {
        assert!(self.slab.release(r.0), "packet handle {r:?} released twice");
    }

    /// Copy out `r`'s packet and free its slot.
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let pkt = *self.get(r);
        self.release(r);
        pkt
    }
}

#[cfg(test)]
impl PacketPool {
    /// Handles allocated and not yet released.
    pub(crate) fn live(&self) -> usize {
        self.slab.live()
    }

    /// Most packets the pool has held at once: the slots it has handed out.
    pub(crate) fn high_water(&self) -> usize {
        self.slab.high_water()
    }
}

/// Buffers below this capacity never shrink.
const SHRINK_ABOVE: usize = 64;
/// A buffer shrinks once its live length falls to 1/`SHRINK_AT` of its
/// capacity.
const SHRINK_AT: usize = 4;

/// The storage rule of buffers that fill and drain (the scheduler's lane,
/// and the sender deques of the transport): once the live length `len`
/// falls to 1/4 of a `capacity` above 64 entries, the capacity drops to
/// twice the live length. Returns that capacity when the rule applies. A
/// shrink leaves the buffer half full, so its length must change by a
/// quarter of its capacity before the storage moves again, and copying
/// stays amortised O(1) per push or pop.
pub fn shrunk_capacity(len: usize, capacity: usize) -> Option<usize> {
    (capacity > SHRINK_ABOVE && len * SHRINK_AT <= capacity).then_some(2 * len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId};

    fn pkt(seq: u32) -> Packet {
        Packet::data(FlowId(0), seq, 1000, NodeId(1))
    }

    #[test]
    fn slot_costs_no_more_than_a_packet() {
        assert_eq!(
            std::mem::size_of::<Slot<Packet>>(),
            std::mem::size_of::<Packet>()
        );
        assert_eq!(std::mem::size_of::<PacketRef>(), 4);
        // A block's kind leaves the free link a niche too.
        assert_eq!(
            std::mem::size_of::<Slot<crate::blocks::Block>>(),
            std::mem::size_of::<crate::blocks::Block>()
        );
    }

    #[test]
    fn alloc_get_release_round_trip() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(1));
        let b = pool.alloc(pkt(2));
        assert_eq!((pool.get(a).seq, pool.get(b).seq), (1, 2));
        pool.get_mut(a).ecn = true;
        assert!(pool.get(a).ecn);
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.take(a).seq, 1);
        pool.release(b);
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.high_water(), 2);
    }

    #[test]
    fn released_slots_are_reused_last_in_first_out() {
        let mut pool = PacketPool::new();
        let refs: Vec<PacketRef> = (0..4).map(|s| pool.alloc(pkt(s))).collect();
        pool.release(refs[1]);
        pool.release(refs[3]);
        assert_eq!(pool.alloc(pkt(10)), refs[3]);
        assert_eq!(pool.alloc(pkt(11)), refs[1]);
        assert_eq!(pool.alloc(pkt(12)), PacketRef(4), "free list empty: bump");
        assert_eq!(pool.high_water(), 5);
        assert_eq!(pool.get(refs[1]).seq, 11);
    }

    #[test]
    fn grows_in_fixed_chunks_without_moving_packets() {
        const CHUNK: usize = Slab::<Packet>::CHUNK;
        assert_eq!(CHUNK, 4096);
        let mut pool = PacketPool::new();
        let refs: Vec<PacketRef> = (0..CHUNK as u32 * 2 + 5)
            .map(|s| pool.alloc(pkt(s)))
            .collect();
        assert_eq!(pool.slab.chunks.len(), 3);
        assert!(pool.slab.chunks.iter().all(|c| c.capacity() == CHUNK));
        for (s, &r) in refs.iter().enumerate() {
            assert_eq!(pool.get(r).seq, s as u32);
        }
        assert_eq!(pool.high_water(), 2 * CHUNK + 5);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_is_caught() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(0));
        pool.release(a);
        pool.release(a);
    }

    #[test]
    #[should_panic(expected = "released packet handle")]
    fn read_after_release_is_caught() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(0));
        pool.release(a);
        let _ = pool.get(a);
    }

    #[test]
    fn shrink_rule_halves_the_slack_of_a_drained_buffer() {
        assert_eq!(shrunk_capacity(0, 64), None, "small buffers keep storage");
        assert_eq!(shrunk_capacity(16, 128), Some(32));
        assert_eq!(shrunk_capacity(33, 128), None, "over a quarter full");
        assert_eq!(shrunk_capacity(0, 1 << 17), Some(0));
    }
}

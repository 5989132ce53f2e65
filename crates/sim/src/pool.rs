//! The packet slab: every in-flight packet lives in one [`PacketPool`], and
//! the scheduler and port queues carry 4-byte [`PacketRef`] handles.
//!
//! A packet enters the pool when a flow's [`crate::Action::Send`] injects it
//! and leaves it exactly once: when a host consumes it, or when a drop path
//! (drop-tail, link loss, a link-down purge, a misrouted or unroutable
//! packet) releases it. In between it is read in place, once per hop, when
//! it arrives at a node.
//!
//! Slots are recycled last-in first-out through a free list threaded through
//! the free slots themselves, so a released slot is reused while it is still
//! in cache. The pool grows in fixed-size chunks that are never moved: its
//! memory follows the most packets ever in flight at once, without the
//! up-to-2x overshoot of a doubling `Vec`, and a chunk's pages become
//! resident only as its slots are first handed out.

use crate::packet::Packet;

/// Handle to a packet held in a [`PacketPool`].
///
/// A handle is valid from [`PacketPool::alloc`] until the
/// [`PacketPool::release`] or [`PacketPool::take`] that frees it; after
/// that its slot may hold another packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketRef(u32);

/// Slots per chunk, as a shift (4096 slots, 128 KiB of 32-byte packets).
const CHUNK_SHIFT: u32 = 12;
const CHUNK: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: usize = CHUNK - 1;
/// End of the free list.
const NIL: u32 = u32::MAX;

/// A packet, or a link in the free list. Costs no more than the packet: the
/// discriminant lives in a niche of [`crate::PacketKind`].
#[derive(Debug)]
enum Slot {
    Used(Packet),
    Free(u32),
}

/// Slab of in-flight packets, addressed by [`PacketRef`].
#[derive(Debug)]
pub struct PacketPool {
    /// Fixed-capacity chunks of `CHUNK` slots; every chunk but the last is
    /// full, and the last grows by push until it is.
    chunks: Vec<Vec<Slot>>,
    /// Most recently released slot, or `NIL`.
    free_head: u32,
    /// Handles allocated and not yet released.
    #[cfg(test)]
    live: usize,
}

impl Default for PacketPool {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketPool {
    /// An empty pool. It allocates nothing until the first packet.
    pub fn new() -> Self {
        PacketPool {
            chunks: Vec::new(),
            free_head: NIL,
            #[cfg(test)]
            live: 0,
        }
    }

    /// Store `pkt` and return its handle.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> PacketRef {
        #[cfg(test)]
        {
            self.live += 1;
        }
        if self.free_head != NIL {
            let i = self.free_head;
            let slot = self.slot_mut(i);
            let Slot::Free(next) = *slot else {
                unreachable!("free list reaches a used slot");
            };
            *slot = Slot::Used(pkt);
            self.free_head = next;
            return PacketRef(i);
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            assert!(
                self.chunks.len() < (NIL as usize) >> CHUNK_SHIFT,
                "packet pool exhausted its u32 handles"
            );
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let base = (self.chunks.len() - 1) << CHUNK_SHIFT;
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        let i = base + chunk.len();
        chunk.push(Slot::Used(pkt));
        PacketRef(i as u32)
    }

    /// The packet behind `r`.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet {
        match self.slot(r.0) {
            Slot::Used(pkt) => pkt,
            Slot::Free(_) => panic!("read of released packet handle {r:?}"),
        }
    }

    /// The packet behind `r`, mutably (e.g. to set its ECN mark).
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        match self.slot_mut(r.0) {
            Slot::Used(pkt) => pkt,
            Slot::Free(_) => panic!("write to released packet handle {r:?}"),
        }
    }

    /// Free `r`'s slot. `r` must not be used again.
    #[inline]
    pub fn release(&mut self, r: PacketRef) {
        let next = self.free_head;
        let slot = self.slot_mut(r.0);
        assert!(
            matches!(slot, Slot::Used(_)),
            "packet handle {r:?} released twice"
        );
        *slot = Slot::Free(next);
        self.free_head = r.0;
        #[cfg(test)]
        {
            self.live -= 1;
        }
    }

    /// Copy out `r`'s packet and free its slot.
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let pkt = *self.get(r);
        self.release(r);
        pkt
    }

    #[inline]
    fn slot(&self, i: u32) -> &Slot {
        let i = i as usize;
        &self.chunks[i >> CHUNK_SHIFT][i & CHUNK_MASK]
    }

    #[inline]
    fn slot_mut(&mut self, i: u32) -> &mut Slot {
        let i = i as usize;
        &mut self.chunks[i >> CHUNK_SHIFT][i & CHUNK_MASK]
    }
}

#[cfg(test)]
impl PacketPool {
    /// Handles allocated and not yet released.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Most packets the pool has held at once: the slots it has handed out.
    pub(crate) fn high_water(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| ((self.chunks.len() - 1) << CHUNK_SHIFT) + c.len())
    }
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
        assert_eq!(std::mem::size_of::<Slot>(), std::mem::size_of::<Packet>());
        assert_eq!(std::mem::size_of::<PacketRef>(), 4);
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
        let mut pool = PacketPool::new();
        let refs: Vec<PacketRef> = (0..CHUNK as u32 * 2 + 5)
            .map(|s| pool.alloc(pkt(s)))
            .collect();
        assert_eq!(pool.chunks.len(), 3);
        assert!(pool.chunks.iter().all(|c| c.capacity() == CHUNK));
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
}

//! Queue storage: the scheduler's wheel buckets and the ports' FIFOs keep
//! their entries in chains of fixed blocks drawn from one [`BlockPool`].
//!
//! A block holds 256 bytes of entries, either 8 scheduler entries of 32 B or
//! 32 port slots of 8 B (a [`PacketRef`] and its wire size), behind an
//! 8-byte header that names its kind and the next block of its chain. The
//! pool is the slab of [`crate::pool`]: blocks come from chunks that never
//! move and go back to a last-in first-out free list as soon as a chain
//! drains past them.
//!
//! Sharing one pool is the point. On a multi-DC fabric every NIC first parks
//! its whole window in its port FIFO; as the ports drain, those packets
//! become scheduled `Arrive` events, and the blocks the draining FIFOs free
//! are the next blocks the wheel takes. With a doubling container per
//! bucket and per port, each stage kept the memory it had grown, and the
//! allocator could not move it from one to the other.

use crate::event::Entry;
use crate::pool::{PacketRef, Slab, NIL};

/// Scheduler entries per block.
pub(crate) const ENTRIES: usize = 8;
/// Port slots per block.
pub(crate) const SLOTS: usize = 32;

/// A port FIFO slot: a packet's handle and its wire size.
pub(crate) type PacketSlot = (PacketRef, u32);

/// One block of a chain: its kind, the next block of its chain (or `NIL`)
/// and its items.
#[derive(Debug)]
pub(crate) enum Block {
    /// Scheduler entries of one wheel bucket.
    Entries { next: u32, items: [Entry; ENTRIES] },
    /// Slots of one port FIFO.
    Packets {
        next: u32,
        items: [PacketSlot; SLOTS],
    },
}

impl Block {
    #[inline]
    fn next(&self) -> u32 {
        match self {
            Block::Entries { next, .. } | Block::Packets { next, .. } => *next,
        }
    }

    #[inline]
    fn set_next(&mut self, b: u32) {
        match self {
            Block::Entries { next, .. } | Block::Packets { next, .. } => *next = b,
        }
    }
}

/// What a [`BlockList`] chains: scheduler entries or port slots.
pub(crate) trait Item: Copy {
    /// Items per block.
    const PER_BLOCK: usize;
    /// A block of this kind that holds no item yet.
    const EMPTY: Block;
    /// The items of `block`, which must be of this kind.
    fn items(block: &Block) -> &[Self];
    /// The items of `block`, mutably.
    fn items_mut(block: &mut Block) -> &mut [Self];
}

impl Item for Entry {
    const PER_BLOCK: usize = ENTRIES;

    const EMPTY: Block = Block::Entries {
        next: NIL,
        items: [Entry::VACANT; ENTRIES],
    };

    #[inline]
    fn items(block: &Block) -> &[Self] {
        match block {
            Block::Entries { items, .. } => items,
            Block::Packets { .. } => unreachable!("a wheel bucket chains a FIFO block"),
        }
    }

    #[inline]
    fn items_mut(block: &mut Block) -> &mut [Self] {
        match block {
            Block::Entries { items, .. } => items,
            Block::Packets { .. } => unreachable!("a wheel bucket chains a FIFO block"),
        }
    }
}

impl Item for PacketSlot {
    const PER_BLOCK: usize = SLOTS;

    const EMPTY: Block = Block::Packets {
        next: NIL,
        items: [(PacketRef::VACANT, 0); SLOTS],
    };

    #[inline]
    fn items(block: &Block) -> &[Self] {
        match block {
            Block::Packets { items, .. } => items,
            Block::Entries { .. } => unreachable!("a port FIFO chains a wheel block"),
        }
    }

    #[inline]
    fn items_mut(block: &mut Block) -> &mut [Self] {
        match block {
            Block::Packets { items, .. } => items,
            Block::Entries { .. } => unreachable!("a port FIFO chains a wheel block"),
        }
    }
}

/// The block slab that wheel buckets and port FIFOs share.
///
/// The engine keeps one, inside its event queue, and lends it to every
/// port's [`crate::PortQueue::try_enqueue`], [`crate::PortQueue::dequeue`]
/// and [`crate::PortQueue::clear`]. A standalone port queue takes any pool,
/// as long as it always passes the same one.
#[derive(Debug, Default)]
pub struct BlockPool {
    slab: Slab<Block>,
}

impl BlockPool {
    /// An empty pool. It allocates nothing until the first block.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn block(&self, b: u32) -> &Block {
        self.slab.get(b).expect("a chained block is live")
    }

    #[inline]
    fn block_mut(&mut self, b: u32) -> &mut Block {
        self.slab.get_mut(b).expect("a chained block is live")
    }

    #[inline]
    fn release(&mut self, b: u32) {
        let freed = self.slab.release(b);
        debug_assert!(freed, "block {b} released twice");
    }
}

#[cfg(test)]
impl BlockPool {
    /// Blocks in chains.
    pub(crate) fn live(&self) -> usize {
        self.slab.live()
    }

    /// Most blocks the pool has held at once: the blocks it has handed out.
    pub(crate) fn high_water(&self) -> usize {
        self.slab.high_water()
    }

    /// Chunks allocated.
    pub(crate) fn chunks(&self) -> usize {
        self.slab.chunks()
    }
}

/// A FIFO of items in a chain of blocks from a [`BlockPool`]: the items at
/// positions `front..front + len` of the chain's blocks laid end to end.
/// Only the head block has been popped from and only the tail block has
/// room, and an empty list holds no block. It owns its blocks, so it is
/// neither `Copy` nor `Clone`.
#[derive(Debug)]
pub(crate) struct BlockList {
    head: u32,
    tail: u32,
    /// Position of the first item in the head block.
    front: u32,
    len: u32,
}

impl Default for BlockList {
    fn default() -> Self {
        BlockList {
            head: NIL,
            tail: NIL,
            front: 0,
            len: 0,
        }
    }
}

impl BlockList {
    /// Number of items.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the list holds no item, and so no block.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append the item `make` builds, taking a block from `pool` when the
    /// tail is full. Each branch builds the item where it is stored: an
    /// item built before the branch is staged on the stack field by field
    /// and reloaded whole, which defeats store-to-load forwarding.
    #[inline(always)]
    pub(crate) fn push<T: Item>(&mut self, make: impl FnOnce() -> T, pool: &mut BlockPool) {
        let at = (self.front as usize + self.len()) % T::PER_BLOCK;
        if at == 0 {
            // Empty (so `front` is 0), or the tail block is full.
            self.push_block(make(), pool);
        } else {
            T::items_mut(pool.block_mut(self.tail))[at] = make();
            self.len += 1;
        }
    }

    /// Append `item` in a new block. Kept out of line, so that the
    /// common push into the tail block needs no stack frame. Every block
    /// starts here, so the length check covers the pushes that fill it.
    #[inline(never)]
    fn push_block<T: Item>(&mut self, item: T, pool: &mut BlockPool) {
        assert!(
            self.len() + T::PER_BLOCK <= u32::MAX as usize,
            "block list length overflows u32"
        );
        let b = pool.slab.alloc(T::EMPTY);
        T::items_mut(pool.block_mut(b))[0] = item;
        if self.len == 0 {
            self.head = b;
        } else {
            pool.block_mut(self.tail).set_next(b);
        }
        self.tail = b;
        self.len += 1;
    }

    /// Remove the first item. A block goes back to `pool` once popped past.
    #[inline]
    pub(crate) fn pop_front<T: Item>(&mut self, pool: &mut BlockPool) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let head = pool.block(self.head);
        let item = T::items(head)[self.front as usize];
        let next = head.next();
        self.len -= 1;
        self.front += 1;
        if self.len == 0 {
            pool.release(self.head);
            *self = BlockList::default();
        } else if self.front as usize == T::PER_BLOCK {
            pool.release(self.head);
            self.head = next;
            self.front = 0;
        }
        Some(item)
    }

    /// The first item, if any.
    #[inline]
    pub(crate) fn first<'a, T: Item>(&self, pool: &'a BlockPool) -> Option<&'a T> {
        (self.len > 0).then(|| &T::items(pool.block(self.head))[self.front as usize])
    }

    /// Hand every item, in order, to `f`, a block's worth at a time, and
    /// return every block to `pool`, leaving the list empty.
    #[inline]
    pub(crate) fn drain<T: Item>(&mut self, pool: &mut BlockPool, mut f: impl FnMut(&[T])) {
        let (mut b, mut front, mut left) = (self.head, self.front as usize, self.len());
        while left > 0 {
            let block = pool.block(b);
            let n = (T::PER_BLOCK - front).min(left);
            f(&T::items(block)[front..front + n]);
            let next = block.next();
            pool.release(b);
            (b, front, left) = (next, 0, left - n);
        }
        *self = BlockList::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Entry, Event};
    use crate::pool::PacketPool;
    use crate::{FlowId, NodeId, Packet};

    #[test]
    fn a_block_is_256_bytes_of_items_behind_an_8_byte_header() {
        assert_eq!(std::mem::size_of::<[Entry; ENTRIES]>(), 256);
        assert_eq!(std::mem::size_of::<[PacketSlot; SLOTS]>(), 256);
        assert_eq!(std::mem::size_of::<Block>(), 264);
    }

    /// `n` pooled packet slots with sizes `1..=n`.
    fn slots(n: u32) -> Vec<PacketSlot> {
        let mut packets = PacketPool::new();
        (1..=n)
            .map(|s| (packets.alloc(Packet::data(FlowId(0), s, s, NodeId(1))), s))
            .collect()
    }

    #[test]
    fn a_list_pops_in_push_order_across_block_boundaries() {
        let mut pool = BlockPool::new();
        let mut list = BlockList::default();
        let items = slots(3 * SLOTS as u32 + 5);
        for (i, &s) in items.iter().enumerate() {
            list.push(|| s, &mut pool);
            assert_eq!(pool.live(), i / SLOTS + 1);
        }
        assert_eq!(list.first::<PacketSlot>(&pool), Some(&items[0]));
        for (i, &s) in items.iter().enumerate() {
            assert_eq!(list.pop_front(&mut pool), Some(s));
            // The blocks that positions `i + 1..` still span.
            let popped = i + 1;
            let spanned = if popped == items.len() {
                0
            } else {
                (items.len() - 1) / SLOTS - popped / SLOTS + 1
            };
            assert_eq!(pool.live(), spanned, "after {popped} pops");
        }
        assert_eq!(list.pop_front::<PacketSlot>(&mut pool), None);
        assert_eq!(pool.live(), 0, "a drained list holds no block");
        assert_eq!(pool.high_water(), 4);
    }

    #[test]
    fn drain_hands_over_from_a_popped_head_and_frees_every_block() {
        let mut pool = BlockPool::new();
        let mut list = BlockList::default();
        let entries: Vec<Entry> = (0..40u32)
            .map(|i| Entry {
                time: 0,
                seq: i as u64,
                event: Event::Sample(i),
            })
            .collect();
        for &e in &entries {
            list.push(|| e, &mut pool);
        }
        for &e in &entries[..3] {
            assert_eq!(
                list.pop_front::<Entry>(&mut pool).map(|p| p.seq),
                Some(e.seq)
            );
        }
        let mut out: Vec<Entry> = Vec::new();
        list.drain(&mut pool, |items| out.extend_from_slice(items));
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (3..40).collect::<Vec<u64>>());
        assert!(list.is_empty());
        assert_eq!(pool.live(), 0);
        // The freed blocks come back last in, first out.
        list.push(|| entries[0], &mut pool);
        assert_eq!(pool.high_water(), 5, "no new block for a reused one");
    }
}

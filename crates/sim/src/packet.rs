//! Packet representation.
//!
//! Simulation packets carry metadata only (no payload bytes): the byte size
//! field is what links and queues account against. Control packets (ACK /
//! NACK) are modelled as real packets so the reverse path consumes bandwidth
//! and experiences queuing, exactly as in htsim.

use crate::ids::{FlowId, NodeId};
use crate::time::Time;

/// What role a packet plays on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// Payload-bearing data packet.
    Data,
    /// Per-packet acknowledgement, echoing ECN and the original send time.
    Ack,
    /// UnoRC negative acknowledgement requesting retransmission of a block.
    Nack,
}

/// A simulated packet.
///
/// `entropy` models the ECMP-relevant header entropy (e.g. the UDP source
/// port): switches hash it (together with the flow id and a per-switch salt)
/// to pick among equal-cost ports. Load-balancing schemes differ *only* in
/// how senders assign this field.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Data / Ack / Nack.
    pub kind: PacketKind,
    /// Data: packet sequence number. Ack: sequence being acknowledged.
    /// Nack: erasure-coding block id whose retransmission is requested.
    pub seq: u64,
    /// Wire size in bytes (headers included).
    pub size: u32,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Path-selection entropy (hashed by switches at ECMP fan-out points).
    pub entropy: u16,
    /// ECN Congestion Experienced mark. On ACKs this is the echo of the
    /// acknowledged data packet's mark.
    pub ecn: bool,
    /// Time the corresponding *data* packet was (re)transmitted; echoed on
    /// ACKs so the sender can measure RTT and run epoch bookkeeping.
    pub sent_at: Time,
    /// Erasure-coding block id (0 when EC is disabled).
    pub block: u32,
    /// Index of this packet within its EC block (data 0..x, parity x..x+y).
    pub index_in_block: u8,
    /// True for EC parity packets.
    pub is_parity: bool,
    /// True when this is a retransmission.
    pub is_rtx: bool,
    /// On ACKs for erasure-coded flows: the receiver has enough packets of
    /// `block` to reconstruct it (the sender can stop caring about the
    /// block's remaining packets even if their individual ACKs were lost).
    pub block_complete: bool,
    /// For ACKs: wire size of the data packet being acknowledged, so the
    /// sender's congestion control can meter acknowledged wire bytes.
    pub acked_size: u32,
}

impl Packet {
    /// Construct a data packet; callers fill in EC fields as needed.
    pub fn data(flow: FlowId, seq: u64, size: u32, src: NodeId, dst: NodeId) -> Self {
        Packet {
            flow,
            kind: PacketKind::Data,
            seq,
            size,
            src,
            dst,
            entropy: 0,
            ecn: false,
            sent_at: 0,
            block: 0,
            index_in_block: 0,
            is_parity: false,
            is_rtx: false,
            block_complete: false,
            acked_size: 0,
        }
    }

    /// Construct the ACK for `data`, travelling the reverse direction.
    pub fn ack_for(data: &Packet, ack_size: u32, entropy: u16) -> Self {
        Packet {
            flow: data.flow,
            kind: PacketKind::Ack,
            seq: data.seq,
            size: ack_size,
            src: data.dst,
            dst: data.src,
            entropy,
            ecn: data.ecn,
            sent_at: data.sent_at,
            block: data.block,
            index_in_block: data.index_in_block,
            is_parity: data.is_parity,
            is_rtx: data.is_rtx,
            block_complete: false,
            acked_size: data.size,
        }
    }

    /// Construct a NACK for EC `block` of `flow`, sent from the receiver
    /// (`src`) back to the sender (`dst`).
    pub fn nack(flow: FlowId, block: u32, size: u32, src: NodeId, dst: NodeId) -> Self {
        Packet {
            flow,
            kind: PacketKind::Nack,
            seq: block as u64,
            size,
            src,
            dst,
            entropy: 0,
            ecn: false,
            sent_at: 0,
            block,
            index_in_block: 0,
            is_parity: false,
            is_rtx: false,
            block_complete: false,
            acked_size: 0,
        }
    }

    /// True for ACK/NACK control packets, which are exempt from ECN marking.
    #[inline]
    pub fn is_control(&self) -> bool {
        matches!(self.kind, PacketKind::Ack | PacketKind::Nack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Packet {
        let mut p = Packet::data(FlowId(1), 42, 4096, NodeId(0), NodeId(9));
        p.ecn = true;
        p.sent_at = 1234;
        p.block = 5;
        p.index_in_block = 3;
        p
    }

    #[test]
    fn ack_echoes_data_fields() {
        let d = sample_data();
        let a = Packet::ack_for(&d, 64, 7);
        assert_eq!(a.kind, PacketKind::Ack);
        assert_eq!(a.src, d.dst);
        assert_eq!(a.dst, d.src);
        assert_eq!(a.seq, d.seq);
        assert!(a.ecn);
        assert_eq!(a.sent_at, 1234);
        assert_eq!(a.acked_size, 4096);
        assert_eq!(a.block, 5);
        assert_eq!(a.index_in_block, 3);
        assert!(a.is_control());
    }

    #[test]
    fn nack_identifies_block() {
        let n = Packet::nack(FlowId(2), 17, 64, NodeId(9), NodeId(0));
        assert_eq!(n.kind, PacketKind::Nack);
        assert_eq!(n.block, 17);
        assert_eq!(n.seq, 17);
        assert!(n.is_control());
    }

    #[test]
    fn data_is_not_control() {
        assert!(!sample_data().is_control());
    }

    #[test]
    fn packet_is_small_enough_to_copy_cheaply() {
        // Keep the hot-path copy under one cache line pair.
        assert!(std::mem::size_of::<Packet>() <= 64);
    }

    #[test]
    fn events_carry_packet_handles_not_packets() {
        // Packets stay in the slab and events carry a 4-byte handle, so a
        // scheduled calendar-queue entry is 32 bytes, not 72.
        assert!(std::mem::size_of::<crate::event::Event>() <= 16);
    }
}

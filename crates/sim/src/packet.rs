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

/// A simulated packet: 32 bytes, so a slot of the engine's packet slab sits
/// in one cache line.
///
/// A packet carries only what its receiver cannot derive. Its source is the
/// flow's other endpoint: the engine injects a packet at the endpoint of
/// the flow's [`crate::FlowMeta`] that is not `dst`. An erasure-coded data
/// packet's block and the wire size an ACK acknowledges are functions of
/// `seq` and the flow's geometry, which the transport derives.
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
    pub seq: u32,
    /// Wire size in bytes (headers included).
    pub size: u32,
    /// Destination host.
    pub dst: NodeId,
    /// Path-selection entropy (hashed by switches at ECMP fan-out points).
    pub entropy: u16,
    /// ECN Congestion Experienced mark. On ACKs this is the echo of the
    /// acknowledged data packet's mark.
    pub ecn: bool,
    /// On ACKs for erasure-coded flows: the receiver has enough packets of
    /// the acknowledged packet's block to reconstruct it (the sender can
    /// stop caring about the block's remaining packets even if their
    /// individual ACKs were lost).
    pub block_complete: bool,
    /// Time the corresponding *data* packet was (re)transmitted; echoed on
    /// ACKs so the sender can measure RTT and run epoch bookkeeping.
    pub sent_at: Time,
}

const _: () = assert!(std::mem::size_of::<Packet>() == 32);

impl Packet {
    /// Construct a data packet for `dst`.
    pub fn data(flow: FlowId, seq: u32, size: u32, dst: NodeId) -> Self {
        Packet {
            flow,
            kind: PacketKind::Data,
            seq,
            size,
            dst,
            entropy: 0,
            ecn: false,
            block_complete: false,
            sent_at: 0,
        }
    }

    /// Construct the ACK for `data`, travelling back to `dst`, the data
    /// packet's source.
    pub fn ack_for(data: &Packet, dst: NodeId, ack_size: u32, entropy: u16) -> Self {
        Packet {
            flow: data.flow,
            kind: PacketKind::Ack,
            seq: data.seq,
            size: ack_size,
            dst,
            entropy,
            ecn: data.ecn,
            block_complete: false,
            sent_at: data.sent_at,
        }
    }

    /// Construct a NACK for EC `block` of `flow`, sent from the receiver
    /// back to the sender `dst`.
    pub fn nack(flow: FlowId, block: u32, size: u32, dst: NodeId) -> Self {
        Packet {
            flow,
            kind: PacketKind::Nack,
            seq: block,
            size,
            dst,
            entropy: 0,
            ecn: false,
            block_complete: false,
            sent_at: 0,
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
        let mut p = Packet::data(FlowId(1), 42, 4096, NodeId(9));
        p.ecn = true;
        p.sent_at = 1234;
        p
    }

    #[test]
    fn ack_echoes_data_fields() {
        let d = sample_data();
        let a = Packet::ack_for(&d, NodeId(0), 64, 7);
        assert_eq!(a.kind, PacketKind::Ack);
        assert_eq!(a.dst, NodeId(0));
        assert_eq!((a.flow, a.seq, a.size, a.entropy), (d.flow, 42, 64, 7));
        assert!(a.ecn);
        assert_eq!(a.sent_at, 1234);
        assert!(!a.block_complete);
        assert!(a.is_control());
    }

    #[test]
    fn nack_identifies_block() {
        let n = Packet::nack(FlowId(2), 17, 64, NodeId(0));
        assert_eq!(n.kind, PacketKind::Nack);
        assert_eq!(n.seq, 17);
        assert_eq!(n.dst, NodeId(0));
        assert!(n.is_control());
    }

    #[test]
    fn data_is_not_control() {
        assert!(!sample_data().is_control());
    }

    #[test]
    fn events_carry_packet_handles_not_packets() {
        // Packets stay in the slab and events carry a 4-byte handle, so a
        // scheduled calendar-queue entry is 32 bytes, not 72.
        assert!(std::mem::size_of::<crate::event::Event>() <= 16);
    }
}

//! # uno-transport — transport protocols for the Uno reproduction
//!
//! Implements the paper's congestion controllers and the generic message
//! transport they plug into:
//!
//! * [`UnoCc`] — the paper's unified AIMD controller with
//!   intra-RTT epochs, phantom/physical congestion disambiguation and Quick
//!   Adapt (§4.1, Algorithm 1);
//! * [`Gemini`] — the cross-DC baseline (ICNP '19): ECN for
//!   intra-DC congestion, delay for WAN congestion, per-own-RTT reaction;
//! * [`Mprdma`] — per-ACK ECN controller (NSDI '18), the
//!   intra-DC half of the MPRDMA+BBR baseline;
//! * [`Bbr`] — delivery-rate / min-RTT model with gain cycling
//!   (CACM '17), the WAN half of MPRDMA+BBR;
//! * [`MessageFlow`] — window/pacing machinery, RTO and
//!   reorder-tolerant fast retransmit, UnoRC erasure-coded block framing
//!   with receiver NACK timers, and the [`LoadBalancer`]
//!   policies (ECMP / RPS / PLB / UnoLB, §4.2 Algorithm 2).

#![warn(missing_docs)]

pub mod bbr;
pub mod cc;
pub mod flow;
pub mod gemini;
pub mod lb;
pub mod mprdma;
pub mod rtt;
pub mod unocc;

pub use bbr::Bbr;
pub use cc::{AckEvent, CcAlgorithm, CcConfig};
pub use flow::{wire_packets, FaultInjection, FlowConfig, MessageFlow, MAX_WIRE_PACKETS};
pub use gemini::Gemini;
pub use lb::{LbMode, LoadBalancer, PlbParams};
pub use mprdma::Mprdma;
pub use rtt::RttEstimator;
pub use unocc::UnoCc;

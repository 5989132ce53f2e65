//! The congestion-control interface shared by UnoCC and the baselines.

use serde::{Deserialize, Serialize};
use uno_sim::{FlowClass, Time, TopologyParams, MICROS};

/// Everything a congestion controller learns from one acknowledgement.
#[derive(Clone, Copy, Debug)]
pub struct AckEvent {
    /// Current time.
    pub now: Time,
    /// Wire bytes acknowledged by this ACK.
    pub bytes: u64,
    /// ECN-CE echo.
    pub ecn: bool,
    /// Measured round-trip time of the acknowledged packet.
    pub rtt: Time,
    /// When the acknowledged packet was (re)transmitted — UnoCC's epoch
    /// bookkeeping keys off this.
    pub pkt_sent_at: Time,
    /// Cumulative delivered bytes at the time the packet was sent (for
    /// BBR-style delivery-rate sampling).
    pub delivered_at_send: u64,
    /// Cumulative delivered bytes now.
    pub delivered_now: u64,
    /// Bytes still in flight after processing this ACK.
    pub inflight: u64,
}

impl AckEvent {
    /// Delivery-rate sample in bytes/second implied by this ACK.
    pub fn delivery_rate(&self) -> f64 {
        let dt = self.now.saturating_sub(self.pkt_sent_at);
        if dt == 0 {
            return 0.0;
        }
        let delivered = self.delivered_now.saturating_sub(self.delivered_at_send);
        delivered as f64 * (uno_sim::SECONDS as f64 / dt as f64)
    }
}

/// A window/rate controller. Implementations: [`crate::unocc::UnoCc`],
/// [`crate::gemini::Gemini`], [`crate::mprdma::Mprdma`], [`crate::bbr::Bbr`].
pub trait CcAlgorithm: Send {
    /// Process one acknowledgement.
    fn on_ack(&mut self, ev: &AckEvent);
    /// A data packet of `bytes` was (re)transmitted. Default: ignored.
    /// UnoCC uses this to exempt send-stalled windows from Quick Adapt.
    fn on_send(&mut self, bytes: u64, now: Time) {
        let _ = (bytes, now);
    }
    /// A loss event was detected (RTO, NACK or reorder-based); called at
    /// most once per RTT by the flow machinery.
    fn on_loss(&mut self, now: Time);
    /// Current congestion window in bytes.
    fn cwnd(&self) -> f64;
    /// Pacing rate in bits/s for rate-based controllers (BBR); `None` for
    /// pure window-based ones.
    fn pacing_bps(&self) -> Option<f64> {
        None
    }
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
    /// Multiplicative decreases applied so far (observability; controllers
    /// without an MD notion report 0).
    fn md_count(&self) -> u64 {
        0
    }
    /// Quick Adapt activations so far (UnoCC-specific; others report 0).
    fn qa_count(&self) -> u64 {
        0
    }
    /// Congestion epochs terminated so far (UnoCC-specific; others 0).
    fn epoch_count(&self) -> u64 {
        0
    }
    /// Current EWMA ECN fraction, when the controller tracks one.
    fn ecn_fraction(&self) -> f64 {
        0.0
    }
}

/// UnoCC's additive increase α as a fraction of the flow's BDP (Table 2:
/// α = 0.001 × BDP).
pub const ALPHA_FRAC: f64 = 0.001;
/// Quick Adapt ratio β (Table 2: 0.5).
pub const BETA: f64 = 0.5;
/// UnoCC's MD constant `K` as a fraction of the intra-DC BDP (Table 2: 1/7).
pub const K_FRAC: f64 = 1.0 / 7.0;
/// Relative-delay threshold below which ECN marks are attributed to phantom
/// (not physical) queues (§4.1, "delay == 0").
pub const PHANTOM_DELAY_THRESH: Time = 8 * MICROS;

/// Static per-flow parameters shared by the controllers. The paper's
/// Table 2 constants are [`ALPHA_FRAC`], [`BETA`], [`K_FRAC`] and
/// [`PHANTOM_DELAY_THRESH`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CcConfig {
    /// MTU (bytes on the wire per data packet).
    pub mtu: u32,
    /// This flow's bandwidth-delay product in bytes. UnoCC and MPRDMA start
    /// their window here and BBR paces its first round from it: flows start
    /// at line rate, which is what makes inter-DC messages latency-bound
    /// (paper §1/Fig. 1) and what Quick Adapt exists to tame under incast.
    pub bdp: f64,
    /// The network's intra-DC BDP in bytes (UnoCC's `K` is `intra BDP / 7`).
    pub intra_bdp: f64,
    /// This flow's base (propagation) RTT.
    pub base_rtt: Time,
    /// The network's intra-DC base RTT (UnoCC's unified epoch period).
    pub intra_rtt: Time,
}

impl CcConfig {
    /// The configuration of a `class` flow on `p`'s network: the MTU, the
    /// class's base RTT and BDP, and the intra-DC RTT and BDP that set
    /// UnoCC's epoch period and `K` for both classes.
    pub fn for_class(p: &TopologyParams, class: FlowClass) -> Self {
        let (base_rtt, bdp) = match class {
            FlowClass::Intra => (p.intra_rtt, p.intra_bdp()),
            FlowClass::Inter => (p.inter_rtt, p.inter_bdp()),
        };
        CcConfig {
            mtu: p.mtu,
            bdp: bdp as f64,
            intra_bdp: p.intra_bdp() as f64,
            base_rtt,
            intra_rtt: p.intra_rtt,
        }
    }

    /// The AI increment α in bytes.
    pub fn alpha(&self) -> f64 {
        ALPHA_FRAC * self.bdp
    }

    /// The MD constant K in bytes.
    pub fn k(&self) -> f64 {
        K_FRAC * self.intra_bdp
    }

    /// Minimum congestion window (one MTU).
    pub fn min_cwnd(&self) -> f64 {
        self.mtu as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uno_sim::SECONDS;

    #[test]
    fn delivery_rate_sample() {
        let ev = AckEvent {
            now: SECONDS,
            bytes: 4096,
            ecn: false,
            rtt: 1000,
            pkt_sent_at: 0,
            delivered_at_send: 0,
            delivered_now: 125_000_000, // 125 MB over 1 s = 1 Gbps
            inflight: 0,
        };
        assert!((ev.delivery_rate() - 125e6).abs() < 1.0);
    }

    #[test]
    fn delivery_rate_zero_dt_is_zero() {
        let ev = AckEvent {
            now: 5,
            bytes: 1,
            ecn: false,
            rtt: 0,
            pkt_sent_at: 5,
            delivered_at_send: 0,
            delivered_now: 100,
            inflight: 0,
        };
        assert_eq!(ev.delivery_rate(), 0.0);
    }

    #[test]
    fn paper_defaults_match_table2() {
        // The paper's network: 100 Gbps links, 14 us and 2 ms base RTTs.
        let c = CcConfig::for_class(&TopologyParams::default(), FlowClass::Inter);
        assert!((c.alpha() - 25_000.0).abs() < 1.0); // 0.001 x 25 MB
        assert!((c.k() - 25_000.0).abs() < 1.0); // 175 KB / 7
        assert_eq!(c.min_cwnd(), 4096.0);
        assert!((BETA - 0.5).abs() < 1e-12);
        assert_eq!(PHANTOM_DELAY_THRESH, 8_000);
    }

    #[test]
    fn unocc_md_factor_is_dctcp_like_for_intra() {
        // 4K/(K+BDP) with K = BDP/7 gives exactly 1/2 for intra flows.
        let c = CcConfig::for_class(&TopologyParams::default(), FlowClass::Intra);
        let f = 4.0 * c.k() / (c.k() + c.bdp);
        assert!((f - 0.5).abs() < 1e-9, "{f}");
    }
}

//! MPRDMA baseline (Lu et al., NSDI 2018): multi-path RDMA transport whose
//! congestion control reacts to ECN at per-ACK granularity, DCTCP-style.
//! In the Uno paper's MPRDMA+BBR baseline it handles the intra-DC traffic
//! (paired with packet-level multipathing, which our harness provides via
//! the spraying load balancer).
//!
//! Control law (simplified from §4.2 of the MPRDMA paper): every unmarked
//! ACK grows the window by one MTU per window (`mtu·bytes/cwnd`); every
//! marked ACK shrinks it by half of the acknowledged bytes, which aggregates
//! to the DCTCP `cwnd/2 · F` reduction over a fully marked window but at
//! sub-RTT reaction latency.

use uno_sim::Time;

use crate::cc::{AckEvent, CcAlgorithm, CcConfig};

/// MPRDMA controller state.
#[derive(Clone, Debug)]
pub struct Mprdma {
    cfg: CcConfig,
    cwnd: f64,
    max_cwnd: f64,
    loss_guard_until: Time,
}

impl Mprdma {
    /// Create an MPRDMA controller.
    pub fn new(cfg: CcConfig) -> Self {
        Mprdma {
            cwnd: cfg.bdp.max(cfg.min_cwnd()),
            max_cwnd: 2.0 * cfg.bdp,
            cfg,
            loss_guard_until: 0,
        }
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.clamp(self.cfg.min_cwnd(), self.max_cwnd);
    }
}

impl CcAlgorithm for Mprdma {
    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.ecn {
            // Per-ACK multiplicative component: fully marked window => /2.
            self.cwnd -= ev.bytes as f64 / 2.0;
        } else {
            // +1 MTU per window of unmarked ACKs.
            self.cwnd += self.cfg.mtu as f64 * ev.bytes as f64 / self.cwnd;
        }
        self.clamp();
    }

    fn on_loss(&mut self, now: Time) {
        if now < self.loss_guard_until {
            return;
        }
        self.cwnd *= 0.5;
        self.clamp();
        self.loss_guard_until = now + self.cfg.base_rtt;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "MPRDMA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uno_sim::{FlowClass, TopologyParams, MICROS, MILLIS};

    fn cfg() -> CcConfig {
        CcConfig::for_class(&TopologyParams::default(), FlowClass::Intra)
    }

    fn ack(ecn: bool) -> AckEvent {
        AckEvent {
            now: MILLIS,
            bytes: 4096,
            ecn,
            rtt: 14 * MICROS,
            pkt_sent_at: 0,
            delivered_at_send: 0,
            delivered_now: 0,
            inflight: 0,
        }
    }

    #[test]
    fn fully_marked_window_halves() {
        let mut m = Mprdma::new(cfg());
        let w0 = m.cwnd();
        let acks = (w0 / 4096.0).round() as usize;
        for _ in 0..acks {
            m.on_ack(&ack(true));
        }
        assert!(
            (m.cwnd() - 0.5 * w0).abs() / w0 < 0.02,
            "cwnd {} vs half of {}",
            m.cwnd(),
            w0
        );
    }

    #[test]
    fn clean_window_grows_one_mtu() {
        let mut m = Mprdma::new(cfg());
        let w0 = m.cwnd();
        let acks = (w0 / 4096.0).round() as usize;
        for _ in 0..acks {
            m.on_ack(&ack(false));
        }
        let grown = m.cwnd() - w0;
        assert!((grown - 4096.0).abs() / 4096.0 < 0.05, "grew {grown}");
    }

    #[test]
    fn reacts_sub_rtt() {
        // A single marked ACK already moves the window (no window barrier).
        let mut m = Mprdma::new(cfg());
        let w0 = m.cwnd();
        m.on_ack(&ack(true));
        assert!(m.cwnd() < w0);
    }

    #[test]
    fn floor_and_loss() {
        let mut m = Mprdma::new(cfg());
        for _ in 0..1000 {
            m.on_ack(&ack(true));
        }
        assert!(m.cwnd() >= 4096.0);
        let w = m.cwnd();
        m.on_loss(10 * MILLIS);
        assert!(m.cwnd() <= w);
    }
}

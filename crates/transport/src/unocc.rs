//! UnoCC — the paper's unified congestion controller (§4.1, Algorithm 1).
//!
//! Window-based AIMD with three congestion regimes:
//!
//! 1. **Uncongested** — per-ACK additive increase `α·bytes/cwnd` (so ≈ +α per
//!    RTT), α = 0.001·BDP.
//! 2. **Congested** — multiplicative decrease at most once per *epoch*, where
//!    the epoch period is proportional to the **intra-DC** RTT for both intra
//!    and inter flows (the paper's key unification: identical reaction
//!    granularity yields fast convergence to fairness). The MD factor is
//!    `E·(4K/(K+BDP))` with `E` the EWMA of per-epoch ECN fractions and
//!    `K = intra-BDP/7`; when marks come from phantom queues only (relative
//!    delay ≈ 0) the reduction is scaled down by `MD_scale ← 0.3·MD_scale`.
//! 3. **Extremely congested** — *Quick Adapt*: once per RTT, if acked bytes
//!    fall below `β·cwnd`, the window collapses to the bytes actually acked,
//!    then QA/MD pause for one RTT.

use uno_sim::Time;

use crate::cc::{AckEvent, CcAlgorithm, CcConfig, BETA, PHANTOM_DELAY_THRESH};

/// EWMA gain for the across-epoch ECN fraction (DCTCP's g).
const ECN_EWMA_GAIN: f64 = 1.0 / 16.0;

/// UnoCC controller state.
#[derive(Clone, Debug)]
pub struct UnoCc {
    cfg: CcConfig,
    cwnd: f64,
    max_cwnd: f64,
    // --- epoch state (MD granularity) ---
    epoch_started: bool,
    t_epoch: Time,
    epoch_bytes: u64,
    epoch_ecn_bytes: u64,
    epoch_max_rel_delay: Time,
    /// EWMA of per-epoch ECN fractions (the paper's E).
    ewma_ecn: f64,
    /// Gentle-reduction scale for phantom-only congestion (Alg. 1 l.10).
    md_scale: f64,
    // --- Quick Adapt state ---
    qa_deadline: Time,
    qa_bytes: u64,
    /// Bytes transmitted during the current QA window: a window in which
    /// the sender barely transmitted (e.g. stalled on in-flight packets
    /// awaiting NACK/RTO cleanup) carries no congestion information and is
    /// exempt from QA.
    qa_sent: u64,
    /// cwnd snapshot at the start of the current QA window: comparing the
    /// window's acked bytes against the *entry* window avoids punishing
    /// growth that happened inside the window.
    qa_cwnd_snapshot: f64,
    /// QA and MD are paused until this time after a QA fires (§4.1.2).
    skip_until: Time,
    /// Smoothed RTT used to size the QA window (acked bytes need a full
    /// *actual* round trip to arrive, not a propagation-delay one).
    srtt: f64,
    min_rtt: Time,
    // --- counters for tests/diagnostics ---
    /// Number of multiplicative decreases applied.
    pub md_count: u64,
    /// Number of Quick Adapt activations.
    pub qa_count: u64,
    /// Number of epochs terminated (with or without an MD).
    pub epoch_count: u64,
    /// Disable Quick Adapt (ablation studies only).
    pub qa_enabled: bool,
}

impl UnoCc {
    /// Create a controller with the paper's Table 2 parameters in `cfg`.
    pub fn new(cfg: CcConfig) -> Self {
        UnoCc {
            cwnd: cfg.bdp.max(cfg.min_cwnd()),
            max_cwnd: 2.0 * cfg.bdp,
            cfg,
            epoch_started: false,
            t_epoch: 0,
            epoch_bytes: 0,
            epoch_ecn_bytes: 0,
            epoch_max_rel_delay: 0,
            ewma_ecn: 0.0,
            md_scale: 1.0,
            qa_deadline: 0,
            qa_bytes: 0,
            qa_sent: 0,
            qa_cwnd_snapshot: 0.0,
            skip_until: 0,
            srtt: 0.0,
            min_rtt: Time::MAX,
            md_count: 0,
            qa_count: 0,
            epoch_count: 0,
            qa_enabled: true,
        }
    }

    /// The configured epoch period (set from the intra-DC RTT for *all*
    /// flows — the unification knob; see the epoch-granularity ablation).
    pub fn epoch_period(&self) -> Time {
        self.cfg.intra_rtt
    }

    /// Current EWMA ECN fraction.
    pub fn ecn_fraction(&self) -> f64 {
        self.ewma_ecn
    }

    fn clamp_cwnd(&mut self) {
        self.cwnd = self.cwnd.clamp(self.cfg.min_cwnd(), self.max_cwnd);
    }

    fn end_epoch(&mut self, ev: &AckEvent) {
        self.epoch_count += 1;
        let frac = if self.epoch_bytes > 0 {
            self.epoch_ecn_bytes as f64 / self.epoch_bytes as f64
        } else {
            0.0
        };
        self.ewma_ecn = ECN_EWMA_GAIN * frac + (1.0 - ECN_EWMA_GAIN) * self.ewma_ecn;
        if frac > 0.0 && ev.now >= self.skip_until {
            // Alg. 1 ONEPOCH: distinguish phantom-only congestion via delay.
            // Phantom-only marks get the gentle 0.3x reduction scale. (A
            // literal reading of Alg. 1 compounds MD_scale by 0.3 on every
            // phantom epoch; under sustained phantom congestion that decays
            // to zero and disables backoff entirely, freezing unfair
            // allocations — so the scale is held at 0.3.)
            if self.epoch_max_rel_delay < PHANTOM_DELAY_THRESH {
                self.md_scale = 0.3; // gentle reduction
            } else {
                self.md_scale = 1.0;
            }
            let md_ecn = self.ewma_ecn * (4.0 * self.cfg.k() / (self.cfg.k() + self.cfg.bdp));
            self.cwnd *= 1.0 - (md_ecn * self.md_scale).min(0.5);
            self.md_count += 1;
            self.clamp_cwnd();
        }
        // Re-activate the epoch: advance by one period, but never behind the
        // send time of the terminating packet (prevents MD storms after
        // idle periods — each epoch must observe fresh packets).
        self.t_epoch = (self.t_epoch + self.epoch_period()).max(ev.pkt_sent_at);
        self.epoch_bytes = 0;
        self.epoch_ecn_bytes = 0;
        self.epoch_max_rel_delay = 0;
    }

    fn quick_adapt(&mut self, ev: &AckEvent) {
        if ev.now < self.qa_deadline {
            self.qa_bytes += ev.bytes;
            return;
        }
        // Window elapsed: evaluate QA (Alg. 1 ONQA) unless paused. The
        // shortfall is judged against the window-entry cwnd, and windows of
        // a few MTUs are exempt — they are already minimal, and their acked
        // bytes quantize too coarsely for the β test to be meaningful.
        if self.qa_enabled
            && ev.now >= self.skip_until
            && self.qa_cwnd_snapshot > 4.0 * self.cfg.mtu as f64
            && self.qa_sent >= self.qa_bytes
            && (self.qa_bytes as f64) < self.qa_cwnd_snapshot * BETA
        {
            self.cwnd = (self.qa_bytes as f64).max(self.cfg.min_cwnd());
            self.qa_count += 1;
            // Skip one RTT of QAs and MDs to avoid over-reacting.
            self.skip_until = ev.now + self.qa_window();
        }
        self.qa_deadline = ev.now + self.qa_window();
        self.qa_bytes = ev.bytes;
        self.qa_sent = 0;
        self.qa_cwnd_snapshot = self.cwnd;
    }

    /// QA window: one *measured* round trip (acked bytes take a real RTT,
    /// including queuing, to come back — a propagation-delay window would
    /// fire spuriously under benign queuing).
    fn qa_window(&self) -> Time {
        (self.srtt as Time).max(self.cfg.base_rtt)
    }
}

impl CcAlgorithm for UnoCc {
    fn on_ack(&mut self, ev: &AckEvent) {
        self.min_rtt = self.min_rtt.min(ev.rtt);
        self.srtt = if self.srtt == 0.0 {
            ev.rtt as f64
        } else {
            0.875 * self.srtt + 0.125 * ev.rtt as f64
        };
        if !self.epoch_started {
            // First ACK of the flow initializes the epoch and QA windows.
            self.epoch_started = true;
            self.t_epoch = ev.now;
            self.qa_deadline = ev.now + self.qa_window();
            self.qa_bytes = 0;
            self.qa_cwnd_snapshot = self.cwnd;
        }

        // Alg. 1 ONACK: additive increase on unmarked ACKs.
        if !ev.ecn {
            self.cwnd += self.cfg.alpha() * ev.bytes as f64 / self.cwnd;
            self.clamp_cwnd();
        }

        // Epoch accounting.
        self.epoch_bytes += ev.bytes;
        if ev.ecn {
            self.epoch_ecn_bytes += ev.bytes;
        }
        let rel = ev.rtt.saturating_sub(self.min_rtt);
        self.epoch_max_rel_delay = self.epoch_max_rel_delay.max(rel);
        if ev.pkt_sent_at >= self.t_epoch {
            self.end_epoch(ev);
        }

        self.quick_adapt(ev);
    }

    fn on_send(&mut self, bytes: u64, _now: Time) {
        self.qa_sent += bytes;
    }

    fn on_loss(&mut self, now: Time) {
        if now < self.skip_until {
            return;
        }
        self.cwnd *= 0.5;
        self.clamp_cwnd();
        self.skip_until = now + self.cfg.base_rtt;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// UnoCC paces at `cwnd / RTT` (paper §6: "Uno uses hardware pacing for
    /// congestion control"). Without pacing, sub-BDP windows leave the NIC
    /// as line-rate bursts whose overlap keeps phantom queues marking even
    /// at low average utilization.
    fn pacing_bps(&self) -> Option<f64> {
        let window = self.qa_window().max(1) as f64;
        Some(self.cwnd * 8.0 * uno_sim::SECONDS as f64 / window)
    }

    fn name(&self) -> &'static str {
        "UnoCC"
    }

    fn md_count(&self) -> u64 {
        self.md_count
    }

    fn qa_count(&self) -> u64 {
        self.qa_count
    }

    fn epoch_count(&self) -> u64 {
        self.epoch_count
    }

    fn ecn_fraction(&self) -> f64 {
        self.ewma_ecn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uno_sim::{FlowClass, TopologyParams, MICROS, MILLIS};

    fn intra_cfg() -> CcConfig {
        CcConfig::for_class(&TopologyParams::default(), FlowClass::Intra)
    }

    fn inter_cfg() -> CcConfig {
        CcConfig::for_class(&TopologyParams::default(), FlowClass::Inter)
    }

    fn ack(now: Time, ecn: bool, sent_at: Time, rtt: Time) -> AckEvent {
        AckEvent {
            now,
            bytes: 4096,
            ecn,
            rtt,
            pkt_sent_at: sent_at,
            delivered_at_send: 0,
            delivered_now: 0,
            inflight: 100_000,
        }
    }

    /// Drive `cc` with a steady ACK stream at ~13.6 Gbps goodput (one MTU
    /// per 300 ns), fast enough that Quick Adapt never engages; returns the
    /// final timestamp.
    fn drive(cc: &mut UnoCc, n: usize, ecn: impl Fn(usize) -> bool, rtt: Time) -> Time {
        let mut now = rtt;
        for i in 0..n {
            let a = ack(now, ecn(i), now - rtt, rtt);
            cc.on_ack(&a);
            now += 300;
        }
        now
    }

    #[test]
    fn clean_acks_grow_cwnd_by_alpha_per_window() {
        let cfg = intra_cfg();
        let mut cc = UnoCc::new(cfg);
        let w0 = cc.cwnd();
        // One cwnd worth of clean ACKs => growth ~= alpha.
        let acks = (w0 / 4096.0) as usize;
        drive(&mut cc, acks, |_| false, 14 * MICROS);
        let grown = cc.cwnd() - w0;
        assert!(
            (grown - cfg.alpha()).abs() / cfg.alpha() < 0.05,
            "grew {grown}, alpha {}",
            cfg.alpha()
        );
    }

    #[test]
    fn ecn_epoch_causes_md() {
        let mut cc = UnoCc::new(intra_cfg());
        let w0 = cc.cwnd();
        // All ACKs marked, with *physical* queueing delay (relative delay
        // above the threshold): full-strength MD expected.
        drive(&mut cc, 500, |_| true, 14 * MICROS + 20 * MICROS);
        assert!(cc.md_count > 0, "epochs must terminate and apply MD");
        assert!(cc.cwnd() < w0, "cwnd must shrink under persistent ECN");
    }

    #[test]
    fn phantom_congestion_reduces_gently() {
        // Same marking pattern; one run sees physical delay, the other none.
        // Both first observe the uncongested RTT floor (14 us).
        let mut phys = UnoCc::new(intra_cfg());
        phys.on_ack(&ack(14 * MICROS, false, 0, 14 * MICROS));
        drive(&mut phys, 400, |_| true, 14 * MICROS + 20 * MICROS);
        let mut phan = UnoCc::new(intra_cfg());
        phan.on_ack(&ack(14 * MICROS, false, 0, 14 * MICROS));
        drive(&mut phan, 400, |_| true, 14 * MICROS); // rel delay == 0
        assert!(
            phan.cwnd() > phys.cwnd(),
            "phantom-only congestion must reduce less: phantom {} vs physical {}",
            phan.cwnd(),
            phys.cwnd()
        );
    }

    #[test]
    fn intra_md_factor_matches_dctcp_half() {
        // For an intra flow, 4K/(K+BDP) = 1/2, so with E = 1 the per-epoch
        // reduction approaches 1 - 1/2 = 50% (capped at 0.5 in code).
        let cfg = intra_cfg();
        let f = 4.0 * cfg.k() / (cfg.k() + cfg.bdp);
        assert!((f - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inter_md_is_tiny_per_epoch() {
        let cfg = inter_cfg();
        let f = 4.0 * cfg.k() / (cfg.k() + cfg.bdp);
        assert!(f < 0.01, "inter per-epoch MD must be small, got {f}");
    }

    #[test]
    fn quick_adapt_collapses_cwnd_when_starved() {
        let cfg = intra_cfg();
        let mut cc = UnoCc::new(cfg);
        let w0 = cc.cwnd();
        // First ACK opens the QA window, then a starvation RTT: the sender
        // keeps transmitting a full window but only a couple of ACKs return.
        cc.on_ack(&ack(14 * MICROS, false, 0, 14 * MICROS));
        cc.on_send(w0 as u64, 14 * MICROS);
        cc.on_ack(&ack(15 * MICROS, false, MICROS, 14 * MICROS));
        // Next ack past the deadline triggers the QA evaluation.
        cc.on_ack(&ack(30 * MICROS, false, 16 * MICROS, 14 * MICROS));
        assert_eq!(cc.qa_count, 1);
        assert!(cc.cwnd() < 0.2 * w0, "cwnd {} vs {}", cc.cwnd(), w0);
    }

    #[test]
    fn qa_skips_send_stalled_windows() {
        // Same starvation pattern, but the sender transmitted (almost)
        // nothing during the window — e.g. stalled on in-flight cleanup.
        // QA must not misread that as extreme congestion.
        let cfg = intra_cfg();
        let mut cc = UnoCc::new(cfg);
        let w0 = cc.cwnd();
        cc.on_ack(&ack(14 * MICROS, false, 0, 14 * MICROS));
        cc.on_ack(&ack(15 * MICROS, false, MICROS, 14 * MICROS));
        cc.on_ack(&ack(30 * MICROS, false, 16 * MICROS, 14 * MICROS));
        assert_eq!(cc.qa_count, 0);
        assert!(cc.cwnd() >= 0.9 * w0);
    }

    #[test]
    fn qa_pauses_md_for_one_rtt() {
        let cfg = intra_cfg();
        let mut cc = UnoCc::new(cfg);
        cc.on_ack(&ack(14 * MICROS, false, 0, 14 * MICROS));
        cc.on_send(cc.cwnd() as u64, 14 * MICROS);
        cc.on_ack(&ack(30 * MICROS, false, 16 * MICROS, 14 * MICROS));
        assert_eq!(cc.qa_count, 1);
        let w_after_qa = cc.cwnd();
        // ECN-marked epoch right after QA must NOT reduce further.
        cc.on_ack(&ack(32 * MICROS, true, 31 * MICROS, 34 * MICROS));
        assert!(cc.cwnd() >= w_after_qa * 0.99, "MD must be paused after QA");
    }

    #[test]
    fn cwnd_never_below_one_mtu() {
        let mut cc = UnoCc::new(intra_cfg());
        for i in 0..200 {
            cc.on_loss((i as u64 + 1) * 20 * MILLIS);
        }
        assert!(cc.cwnd() >= 4096.0);
    }

    #[test]
    fn cwnd_capped_at_twice_bdp() {
        let cfg = intra_cfg();
        let mut cc = UnoCc::new(cfg);
        drive(&mut cc, 2_000_000 / 50, |_| false, 14 * MICROS);
        assert!(cc.cwnd() <= 2.0 * cfg.bdp + 1.0);
    }

    #[test]
    fn loss_halves_window_once_per_rtt() {
        let mut cc = UnoCc::new(intra_cfg());
        let w0 = cc.cwnd();
        cc.on_loss(MILLIS);
        cc.on_loss(MILLIS + 1); // within the guard window: ignored
        assert!((cc.cwnd() - w0 * 0.5).abs() < 1.0);
    }
}

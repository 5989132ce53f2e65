//! Scheme specifications: which congestion controller, load balancer,
//! erasure-coding geometry and switch features a run uses.
//!
//! These correspond one-to-one to the systems compared in the paper's
//! evaluation: **Uno** (UnoCC + UnoRC), **Uno+ECMP** (UnoCC without UnoRC),
//! **Gemini**, and **MPRDMA+BBR**, plus the Fig. 13 load-balancer matrix
//! (UnoLB / RPS / PLB, each with and without EC).

use serde::{Deserialize, Serialize};
use uno_erasure::EcParams;
use uno_transport::LbMode;

/// Which congestion-control family drives the flows.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CcKind {
    /// UnoCC for both intra- and inter-DC flows (unified loop).
    UnoCc,
    /// Gemini for both (per-own-RTT reaction granularity).
    Gemini,
    /// MPRDMA for intra-DC flows, BBR for inter-DC flows (split loops).
    MprdmaBbr,
}

/// A complete scheme under test.
#[derive(Clone, Debug)]
pub struct SchemeSpec {
    /// Display name used in result tables.
    pub name: &'static str,
    /// Congestion controller family.
    pub cc: CcKind,
    /// Load balancing for intra-DC flows.
    pub lb_intra: LbMode,
    /// Load balancing for inter-DC flows.
    pub lb_inter: LbMode,
    /// Erasure coding applied to inter-DC flows (UnoRC), if any.
    pub ec_inter: Option<EcParams>,
    /// Whether switches run phantom queues (UnoCC's marking substrate).
    pub phantom_queues: bool,
}

impl SchemeSpec {
    /// Full Uno: UnoCC + phantom queues + UnoLB + (8,2) erasure coding on
    /// inter-DC flows.
    pub fn uno() -> Self {
        let ec = EcParams::PAPER_DEFAULT;
        SchemeSpec {
            name: "Uno",
            cc: CcKind::UnoCc,
            lb_intra: LbMode::UnoLb { subflows: 8 },
            lb_inter: LbMode::UnoLb {
                subflows: ec.total() as usize,
            },
            ec_inter: Some(ec),
            phantom_queues: true,
        }
    }

    /// UnoCC with plain ECMP and no erasure coding ("Uno+ECMP" in Figs.
    /// 9–12): isolates the congestion-control contribution.
    pub fn uno_ecmp() -> Self {
        SchemeSpec {
            name: "Uno+ECMP",
            cc: CcKind::UnoCc,
            lb_intra: LbMode::Ecmp,
            lb_inter: LbMode::Ecmp,
            ec_inter: None,
            phantom_queues: true,
        }
    }

    /// The Gemini baseline (ECMP, standard RED/ECN switches).
    pub fn gemini() -> Self {
        SchemeSpec {
            name: "Gemini",
            cc: CcKind::Gemini,
            lb_intra: LbMode::Ecmp,
            lb_inter: LbMode::Ecmp,
            ec_inter: None,
            phantom_queues: false,
        }
    }

    /// The MPRDMA+BBR baseline: split control loops, ECMP routing.
    pub fn mprdma_bbr() -> Self {
        SchemeSpec {
            name: "MPRDMA+BBR",
            cc: CcKind::MprdmaBbr,
            lb_intra: LbMode::Ecmp,
            lb_inter: LbMode::Ecmp,
            ec_inter: None,
            phantom_queues: false,
        }
    }

    /// UnoCC with a chosen inter-DC load balancer and optional EC — the
    /// Fig. 13 matrix ("we use UnoCC as congestion control for all
    /// experiments" in §5.2.3).
    pub fn unocc_with(name: &'static str, lb: LbMode, ec: Option<EcParams>) -> Self {
        SchemeSpec {
            name,
            cc: CcKind::UnoCc,
            lb_intra: lb,
            lb_inter: lb,
            ec_inter: ec,
            phantom_queues: true,
        }
    }

    /// Fig. 13 competitors: UnoLB / RPS / PLB, each ± EC.
    pub fn fig13_matrix() -> Vec<SchemeSpec> {
        let ec = EcParams::PAPER_DEFAULT;
        let n = ec.total() as usize;
        vec![
            Self::unocc_with("UnoLB+EC", LbMode::UnoLb { subflows: n }, Some(ec)),
            Self::unocc_with("UnoLB", LbMode::UnoLb { subflows: n }, None),
            Self::unocc_with("RPS+EC", LbMode::Spray, Some(ec)),
            Self::unocc_with("RPS", LbMode::Spray, None),
            Self::unocc_with("PLB+EC", LbMode::Plb, Some(ec)),
            Self::unocc_with("PLB", LbMode::Plb, None),
        ]
    }

    /// Force every flow onto a given load balancer (Fig. 8 uses packet
    /// spraying for all schemes, since LB is immaterial under incast).
    pub fn with_lb(mut self, lb: LbMode) -> Self {
        self.lb_intra = lb;
        self.lb_inter = lb;
        self
    }

    /// Override phantom-queue deployment (Fig. 4 compares UnoCC with and
    /// without phantom queues; the ablations sweep drain factors).
    pub fn with_phantom(mut self, on: bool) -> Self {
        self.phantom_queues = on;
        self
    }

    /// Rename the scheme for result tables.
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The load balancer used for a flow of the given class.
    pub fn lb_for(&self, inter: bool) -> LbMode {
        if inter {
            self.lb_inter
        } else {
            self.lb_intra
        }
    }

    /// Erasure coding for a flow of the given class (inter only, §4.2).
    pub fn ec_for(&self, inter: bool) -> Option<EcParams> {
        if inter {
            self.ec_inter
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uno_scheme_shape() {
        let u = SchemeSpec::uno();
        assert_eq!(u.cc, CcKind::UnoCc);
        assert!(u.phantom_queues);
        assert!(u.ec_for(true).is_some());
        assert!(u.ec_for(false).is_none(), "EC applies to inter flows only");
        assert!(matches!(u.lb_for(true), LbMode::UnoLb { subflows: 10 }));
    }

    #[test]
    fn baselines_have_no_phantom() {
        assert!(!SchemeSpec::gemini().phantom_queues);
        assert!(!SchemeSpec::mprdma_bbr().phantom_queues);
    }

    #[test]
    fn fig13_matrix_is_six_schemes() {
        let m = SchemeSpec::fig13_matrix();
        assert_eq!(m.len(), 6);
        assert_eq!(m.iter().filter(|s| s.ec_inter.is_some()).count(), 3);
        // All use UnoCC per §5.2.3.
        assert!(m.iter().all(|s| s.cc == CcKind::UnoCc));
    }

    #[test]
    fn with_lb_overrides_both_classes() {
        let s = SchemeSpec::uno().with_lb(LbMode::Spray);
        assert!(matches!(s.lb_for(true), LbMode::Spray));
        assert!(matches!(s.lb_for(false), LbMode::Spray));
    }
}

//! Flow-completion-time statistics, the paper's primary evaluation metric
//! (§5.1: "mean and tail (99th percentile) FCT").

use serde::{Deserialize, Serialize};
use uno_sim::{FailRecord, FctRecord, FlowClass, FlowOutcome, StallCause, Time};

use crate::stats::{mean, percentile_of_sorted};

/// Definite-outcome accounting for a run. Under fault injection, flows can
/// terminate without completing (stalled by the watchdog, aborted by the
/// bounded-retry logic) or survive to the horizon with no verdict at all
/// (censored). Reporting these counts next to FCT summaries keeps
/// gray-failure results honest: a scheme that "wins" on mean FCT while
/// abandoning half its flows is not winning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Flows that finished successfully.
    pub completed: usize,
    /// Flows the stall watchdog terminated (any cause).
    pub stalled: usize,
    /// Subset of `stalled` the watchdog attributed to PFC backpressure
    /// (source NIC uplink paused at declaration time) — only ever non-zero
    /// on a lossless fabric.
    #[serde(default)]
    pub pfc_stalled: usize,
    /// Flows the bounded-retry logic aborted.
    pub aborted: usize,
    /// Flows still running at the horizon (no definite outcome).
    pub censored: usize,
}

impl OutcomeCounts {
    /// Tally a run's completion, failure, and censored records.
    pub fn tally(fcts: &[FctRecord], failures: &[FailRecord], censored: &[FctRecord]) -> Self {
        OutcomeCounts {
            completed: fcts.len(),
            stalled: failures.iter().filter(|f| f.outcome.is_stalled()).count(),
            pfc_stalled: failures
                .iter()
                .filter(|f| {
                    matches!(
                        f.outcome,
                        FlowOutcome::Stalled {
                            cause: StallCause::PfcBackpressure
                        }
                    )
                })
                .count(),
            aborted: failures
                .iter()
                .filter(|f| f.outcome == FlowOutcome::Aborted)
                .count(),
            censored: censored.len(),
        }
    }

    /// Total flows accounted for.
    pub fn total(&self) -> usize {
        self.completed + self.stalled + self.aborted + self.censored
    }

    /// True when every flow reached a definite outcome (nothing censored).
    pub fn all_terminated(&self) -> bool {
        self.censored == 0
    }
}

/// Field-by-field sum, for totals over the runs of one figure cell.
impl std::ops::AddAssign for OutcomeCounts {
    fn add_assign(&mut self, o: OutcomeCounts) {
        self.completed += o.completed;
        self.stalled += o.stalled;
        self.pfc_stalled += o.pfc_stalled;
        self.aborted += o.aborted;
        self.censored += o.censored;
    }
}

impl std::iter::Sum for OutcomeCounts {
    fn sum<I: Iterator<Item = OutcomeCounts>>(iter: I) -> Self {
        iter.fold(OutcomeCounts::default(), |mut total, o| {
            total += o;
            total
        })
    }
}

impl std::fmt::Display for OutcomeCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "completed={} stalled={} aborted={} censored={}",
            self.completed, self.stalled, self.aborted, self.censored
        )?;
        if self.pfc_stalled > 0 {
            write!(f, " (pfc_stalled={})", self.pfc_stalled)?;
        }
        Ok(())
    }
}

/// Summary of a set of FCTs, in seconds.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct FctSummary {
    /// Number of flows.
    pub n: usize,
    /// Mean FCT (s).
    pub mean_s: f64,
    /// Median FCT (s).
    pub p50_s: f64,
    /// 99th percentile FCT (s).
    pub p99_s: f64,
    /// 99.9th percentile FCT (s).
    pub p999_s: f64,
    /// Maximum FCT (s).
    pub max_s: f64,
}

impl FctSummary {
    /// Summarize FCTs given in seconds.
    pub fn of_secs(mut fcts: Vec<f64>) -> Self {
        if fcts.is_empty() {
            return FctSummary::default();
        }
        fcts.sort_by(|a, b| a.partial_cmp(b).expect("NaN FCT"));
        FctSummary {
            n: fcts.len(),
            mean_s: mean(&fcts),
            p50_s: percentile_of_sorted(&fcts, 0.50),
            p99_s: percentile_of_sorted(&fcts, 0.99),
            p999_s: percentile_of_sorted(&fcts, 0.999),
            max_s: *fcts.last().unwrap(),
        }
    }
}

impl std::fmt::Display for FctSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={:5} mean={:10.6}s p50={:10.6}s p99={:10.6}s max={:10.6}s",
            self.n, self.mean_s, self.p50_s, self.p99_s, self.max_s
        )
    }
}

/// FCT analysis over a run's completion records, with intra/inter splits and
/// slowdown computation.
#[derive(Clone, Debug, Default)]
pub struct FctTable {
    records: Vec<FctRecord>,
    /// Ideal (unloaded) FCT per record, used for slowdowns; filled by
    /// [`FctTable::with_ideal`].
    ideals: Vec<Time>,
}

impl FctTable {
    /// Build from a simulator's completion records.
    pub fn new(records: Vec<FctRecord>) -> Self {
        FctTable {
            records,
            ideals: Vec::new(),
        }
    }

    /// Attach ideal FCTs computed by `f(record) -> Time` for slowdowns.
    pub fn with_ideal<F: Fn(&FctRecord) -> Time>(mut self, f: F) -> Self {
        self.ideals = self.records.iter().map(f).collect();
        self
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are present.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records.
    pub fn records(&self) -> &[FctRecord] {
        &self.records
    }

    fn secs(&self, filter: Option<FlowClass>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| filter.is_none_or(|c| r.class == c))
            .map(|r| uno_sim::time::as_secs_f64(r.fct()))
            .collect()
    }

    /// Summary over all flows.
    pub fn summary(&self) -> FctSummary {
        FctSummary::of_secs(self.secs(None))
    }

    /// Summary over one flow class.
    pub fn summary_class(&self, class: FlowClass) -> FctSummary {
        FctSummary::of_secs(self.secs(Some(class)))
    }

    /// FCT slowdowns (measured / ideal) for `class` (or all when `None`).
    /// Requires [`FctTable::with_ideal`]; panics otherwise.
    pub fn slowdowns(&self, class: Option<FlowClass>) -> Vec<f64> {
        assert_eq!(
            self.ideals.len(),
            self.records.len(),
            "call with_ideal before slowdowns"
        );
        self.records
            .iter()
            .zip(&self.ideals)
            .filter(|(r, _)| class.is_none_or(|c| r.class == c))
            .map(|(r, &ideal)| r.fct() as f64 / ideal.max(1) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uno_sim::FlowId;

    fn rec(id: u32, fct_us: u64, class: FlowClass) -> FctRecord {
        FctRecord {
            flow: FlowId(id),
            size: 1 << 20,
            start: 0,
            end: fct_us * 1_000,
            class,
        }
    }

    #[test]
    fn summary_splits_by_class() {
        let t = FctTable::new(vec![
            rec(0, 100, FlowClass::Intra),
            rec(1, 200, FlowClass::Intra),
            rec(2, 4000, FlowClass::Inter),
        ]);
        let all = t.summary();
        assert_eq!(all.n, 3);
        let intra = t.summary_class(FlowClass::Intra);
        assert_eq!(intra.n, 2);
        assert!((intra.mean_s - 150e-6).abs() < 1e-12);
        let inter = t.summary_class(FlowClass::Inter);
        assert_eq!(inter.n, 1);
        assert!((inter.mean_s - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn p99_is_tail() {
        let mut recs: Vec<FctRecord> = (0..95).map(|i| rec(i, 100, FlowClass::Intra)).collect();
        recs.extend((95..100).map(|i| rec(i, 10_000, FlowClass::Intra)));
        let s = FctTable::new(recs).summary();
        assert!(s.p99_s > 5e-3, "p99 must catch the straggler: {}", s.p99_s);
        assert!(s.p50_s < 2e-4);
    }

    #[test]
    fn slowdowns_against_ideal() {
        let t = FctTable::new(vec![rec(0, 100, FlowClass::Intra)])
            .with_ideal(|_| 50_000 /* 50us ideal */);
        let s = t.slowdowns(None);
        assert_eq!(s.len(), 1);
        assert!((s[0] - 2.0).abs() < 1e-9);
        assert!(t.slowdowns(Some(FlowClass::Inter)).is_empty());
    }

    #[test]
    fn empty_table() {
        let t = FctTable::new(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.summary().n, 0);
    }

    #[test]
    #[should_panic(expected = "call with_ideal")]
    fn slowdowns_without_ideal_panics() {
        let t = FctTable::new(vec![rec(0, 1, FlowClass::Intra)]);
        let _ = t.slowdowns(None);
    }

    #[test]
    fn outcome_counts_tally_and_display() {
        let fail = |id: u32, outcome| FailRecord {
            flow: FlowId(id),
            size: 1 << 20,
            start: 0,
            end: 1_000,
            class: FlowClass::Inter,
            outcome,
        };
        let c = OutcomeCounts::tally(
            &[rec(0, 100, FlowClass::Intra)],
            &[
                fail(
                    1,
                    FlowOutcome::Stalled {
                        cause: StallCause::Congestion,
                    },
                ),
                fail(2, FlowOutcome::Aborted),
                fail(
                    3,
                    FlowOutcome::Stalled {
                        cause: StallCause::PfcBackpressure,
                    },
                ),
            ],
            &[rec(4, 500, FlowClass::Inter)],
        );
        assert_eq!(
            c,
            OutcomeCounts {
                completed: 1,
                stalled: 2,
                pfc_stalled: 1,
                aborted: 1,
                censored: 1
            }
        );
        assert_eq!(c.total(), 5);
        assert!(!c.all_terminated());
        assert_eq!(
            c.to_string(),
            "completed=1 stalled=2 aborted=1 censored=1 (pfc_stalled=1)"
        );
        let done = OutcomeCounts { censored: 0, ..c };
        assert!(done.all_terminated());
        let total: OutcomeCounts = [c, done].into_iter().sum();
        assert_eq!(
            total,
            OutcomeCounts {
                completed: 2,
                stalled: 4,
                pfc_stalled: 2,
                aborted: 2,
                censored: 1
            }
        );
    }
}

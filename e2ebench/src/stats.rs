//! Order statistics, the regression-bound check, failure accounting and the
//! FNV-1a digest the correctness checks compare.

/// Median, quartiles, minimum and sample count of one metric over a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `values`; `None` when there are none. Quartiles use the
    /// same "exclusive" interpolation as Python's
    /// `statistics.quantiles(values, n=4)`, so numbers printed here match a
    /// reader's own analysis of the raw values.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (v[0], v[0])
        } else {
            (exclusive_quantile(&v, 1), exclusive_quantile(&v, 3))
        };
        Some(Summary {
            median,
            q1,
            q3,
            min: v[0],
            n,
        })
    }

    /// The reported value (the minimum when `fastest`, else the median)
    /// with the quartile spread of the samples behind it.
    pub fn reading(&self, fastest: bool) -> Reading {
        Reading {
            value: if fastest { self.min } else { self.median },
            iqr: self.q3 - self.q1,
        }
    }
}

/// One run's reported value of a metric and the distance between the
/// quartiles of the samples it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub iqr: f64,
}

/// The `i`-th of the three quartile cut points of `sorted` (len ≥ 2),
/// transcribed from CPython's `statistics.quantiles(method='exclusive')`.
fn exclusive_quantile(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Share of the base value.
    pub rel: f64,
    /// Absolute allowance in the metric's unit; the larger of the two wins.
    pub abs_floor: f64,
    pub higher_is_better: bool,
}

/// Outcome of comparing one metric between two runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Outside,
    /// Either side's quartile spread is wider than the allowance, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Outside => "OUTSIDE bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base` under `bound`.
pub fn judge(base: Reading, new: Reading, bound: Bound) -> Verdict {
    let allowed = (bound.rel * base.value.abs()).max(bound.abs_floor);
    if base.iqr.max(new.iqr) > allowed {
        return Verdict::Unresolved;
    }
    let worse_by = if bound.higher_is_better {
        base.value - new.value
    } else {
        new.value - base.value
    };
    if worse_by > allowed {
        Verdict::Outside
    } else {
        Verdict::Within
    }
}

/// Cells attempted and failed, with a description of each failed check.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one cell; it failed when any of its checks reported a problem.
    pub fn record(&mut self, label: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.iter().map(|p| format!("{label}: {p}")));
        }
    }

    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values).unwrap()
    }

    #[test]
    fn odd_n_median_and_quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let x = s(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((x.q1, x.median, x.q3, x.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let x = s(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((x.q1, x.median, x.q3), (2.0, 4.0, 6.0));
    }

    #[test]
    fn even_n_median_and_quartiles_match_python() {
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let x = s(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((x.q1, x.median, x.q3, x.n), (1.25, 2.5, 3.75, 4));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let x = s(&v);
        assert_eq!((x.q1, x.median, x.q3), (2.75, 5.5, 8.25));
        // Two points: Python extrapolates past both ends, and so do we.
        let x = s(&[1.0, 3.0]);
        assert_eq!((x.q1, x.median, x.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn single_and_empty_samples() {
        let x = s(&[7.0]);
        assert_eq!((x.q1, x.median, x.q3, x.min, x.n), (7.0, 7.0, 7.0, 7.0, 1));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn reading_reports_minimum_or_median() {
        let x = s(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!(x.reading(true).value, 1.0);
        assert_eq!(x.reading(false).value, 2.5);
        assert_eq!(x.reading(true).iqr, x.q3 - x.q1);
    }

    fn tight(value: f64) -> Reading {
        Reading { value, iqr: 0.0 }
    }

    #[test]
    fn relative_bound_in_both_directions() {
        let lower = Bound {
            rel: 0.10,
            abs_floor: 0.0,
            higher_is_better: false,
        };
        assert_eq!(judge(tight(1.0), tight(1.09), lower), Verdict::Within);
        assert_eq!(judge(tight(1.0), tight(1.11), lower), Verdict::Outside);
        assert_eq!(judge(tight(1.0), tight(0.5), lower), Verdict::Within);
        let higher = Bound {
            higher_is_better: true,
            ..lower
        };
        assert_eq!(judge(tight(1.0), tight(0.85), higher), Verdict::Outside);
        assert_eq!(judge(tight(1.0), tight(1.5), higher), Verdict::Within);
    }

    #[test]
    fn absolute_floor_covers_tiny_medians() {
        // 15% of 10 ms is 1.5 ms; the 0.02 s floor allows the 15 ms rise.
        let b = Bound {
            rel: 0.15,
            abs_floor: 0.02,
            higher_is_better: false,
        };
        assert_eq!(judge(tight(0.010), tight(0.025), b), Verdict::Within);
        assert_eq!(judge(tight(0.010), tight(0.031), b), Verdict::Outside);
        // Above the floor the relative share governs again.
        assert_eq!(judge(tight(1.0), tight(1.16), b), Verdict::Outside);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let b = Bound {
            rel: 0.10,
            abs_floor: 0.0,
            higher_is_better: false,
        };
        let noisy = Reading {
            value: 1.0,
            iqr: 0.4,
        };
        assert_eq!(judge(tight(1.0), noisy, b), Verdict::Unresolved);
        assert_eq!(judge(noisy, tight(1.5), b), Verdict::Unresolved);
    }

    #[test]
    fn fail_rate_counts_cells_not_problems() {
        let mut t = Tally::default();
        assert_eq!(t.fail_rate(), 0.0);
        t.record("a", &[]);
        t.record("b", &["x".into(), "y".into()]);
        t.record("c", &[]);
        t.record("d", &["z".into()]);
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_rate(), 0.5);
        assert_eq!(t.problems, ["b: x", "b: y", "d: z"]);
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }
}

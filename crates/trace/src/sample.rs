//! Deterministic in-simulation time-series sampling with bounded memory.
//!
//! A [`Telemetry`] collector rides the simulator's event queue on a fixed
//! period and snapshots per-link queue state, per-flow transport state and
//! fault-plane state into [`Series`] — append-only `(time, value)` vectors
//! that stay within a fixed point budget by 2x-downsampling themselves
//! whenever they fill up (drop every other point, double the stride). A
//! week-long or 32k-host run therefore costs the same memory per series as
//! a toy run; only the effective resolution degrades, and it degrades
//! deterministically.
//!
//! Everything recorded here is a function of simulated state only (virtual
//! clock, queue bytes, cwnd, …), so for a fixed seed the serialized
//! `telemetry` section is byte-identical across runs — unlike the span
//! profiler (`profile.rs`), whose wall-clock numbers live outside the
//! determinism guarantee.

use serde::{Serialize, Value};

use crate::event::Time;

/// Per-series point budget of a [`Telemetry`] collector: at 512 points a
/// series occupies 8 KiB and a compaction halves it to 256.
pub const SERIES_CAPACITY: usize = 512;

/// Configuration for [`Telemetry`] sampling.
#[derive(Clone, Copy, Debug)]
pub struct SampleConfig {
    /// Base sampling period in simulated nanoseconds.
    pub interval: Time,
}

impl SampleConfig {
    /// Sampling every `interval` ns.
    pub fn every(interval: Time) -> Self {
        SampleConfig {
            interval: interval.max(1),
        }
    }
}

/// A bounded-memory `(time, value)` time series.
///
/// Points are accepted at a stride that starts at the sampling interval and
/// doubles every time the series reaches its capacity: on overflow every
/// other retained point is discarded, so the series never exceeds
/// `capacity` points yet always spans the full run. Acceptance is driven
/// purely by simulated timestamps, keeping the contents deterministic.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(Time, u64)>,
    cap: usize,
    stride: Time,
    next: Time,
}

impl Series {
    /// Empty series accepting one point per `interval` ns, holding at most
    /// `capacity` points (clamped to at least 8).
    pub fn new(interval: Time, capacity: usize) -> Self {
        Series {
            points: Vec::new(),
            cap: capacity.max(8),
            stride: interval.max(1),
            next: 0,
        }
    }

    /// Offer a sample; it is recorded only if the series' current stride
    /// has elapsed since the last accepted point.
    pub fn push(&mut self, t: Time, v: u64) {
        if t < self.next {
            return;
        }
        self.points.push((t, v));
        if self.points.len() >= self.cap {
            // 2x-downsampling compaction: keep every other point (starting
            // with the oldest) and double the stride going forward.
            let mut i = 0usize;
            self.points.retain(|_| {
                let keep = i.is_multiple_of(2);
                i += 1;
                keep
            });
            self.stride *= 2;
        }
        self.next = t + self.stride;
    }

    /// Retained `(time, value)` points, oldest first.
    pub fn points(&self) -> &[(Time, u64)] {
        &self.points
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Current acceptance stride in ns (doubles on each compaction).
    pub fn stride(&self) -> Time {
        self.stride
    }

    /// Most recently retained point.
    pub fn last(&self) -> Option<(Time, u64)> {
        self.points.last().copied()
    }

    fn to_value(&self) -> Value {
        Value::Array(
            self.points
                .iter()
                .map(|&(t, v)| Value::Array(vec![Value::U64(t), Value::U64(v)]))
                .collect(),
        )
    }
}

impl Serialize for Series {
    fn serialize_value(&self) -> Value {
        self.to_value()
    }
}

/// One per-flow telemetry snapshot, produced by a transport's
/// `FlowLogic::telemetry_sample` implementation.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowSample {
    /// Congestion window in bytes.
    pub cwnd: u64,
    /// Smoothed RTT estimate in ns (0 before the first sample).
    pub srtt: Time,
    /// Unacknowledged bytes in flight.
    pub outstanding: u64,
    /// Cumulative delivered (acked) bytes — the sampler differentiates
    /// consecutive snapshots into a delivery-rate series.
    pub delivered: u64,
}

/// Per-link series bundle: physical queue depth, phantom-queue occupancy
/// and link up/down state. The PFC pause series are allocated only once a
/// link actually pauses, so lossy-fabric artifacts carry no pause keys and
/// stay byte-identical to the pre-PFC format.
#[derive(Clone, Debug)]
struct LinkSeries {
    queue: Series,
    phantom: Series,
    up: Series,
    pause: Option<PauseSeries>,
}

/// Pause-state series for a link that has been PFC-paused at least once:
/// instantaneous paused state (0/1) and cumulative paused nanoseconds.
#[derive(Clone, Debug)]
struct PauseSeries {
    paused: Series,
    paused_ns: Series,
}

/// Per-flow series bundle plus the last `(time, delivered)` pair used to
/// differentiate cumulative delivered bytes into a rate.
#[derive(Clone, Debug)]
struct FlowSeries {
    cwnd: Series,
    rate: Series,
    srtt: Series,
    outstanding: Series,
    last_t: Time,
    last_delivered: u64,
}

/// The in-sim telemetry collector.
///
/// The engine drives it from a periodic event: each tick it offers every
/// link's queue state ([`Telemetry::record_link`]), every live flow's
/// transport snapshot ([`Telemetry::record_flow`]) and the fault plane's
/// aggregate state ([`Telemetry::record_fault`]). Link series are created
/// lazily on the first non-idle observation (non-empty queue, phantom
/// occupancy, or a down link), so an idle 32k-host fabric records nothing.
///
/// Link and flow series live in dense tables indexed by the entity id (ids
/// are dense indices interned at topology/flow creation time), so recording
/// a sample is an array index, not a map lookup, and iteration order is id
/// order by construction — independent of insertion order.
#[derive(Clone, Debug)]
pub struct Telemetry {
    interval: Time,
    ticks: u64,
    links: Vec<Option<LinkSeries>>,
    flows: Vec<Option<FlowSeries>>,
    fault_active: Series,
    links_down: Series,
}

impl Telemetry {
    /// Fresh collector sampling per `cfg`.
    pub fn new(cfg: SampleConfig) -> Self {
        let interval = cfg.interval.max(1);
        Telemetry {
            interval,
            ticks: 0,
            links: Vec::new(),
            flows: Vec::new(),
            fault_active: Series::new(interval, SERIES_CAPACITY),
            links_down: Series::new(interval, SERIES_CAPACITY),
        }
    }

    /// Base sampling period in ns.
    pub fn interval(&self) -> Time {
        self.interval
    }

    /// Number of sampling ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Count one sampling tick (the engine calls this once per periodic
    /// telemetry event, after feeding all `record_*` methods).
    pub fn tick(&mut self) {
        self.ticks += 1;
    }

    /// Offer link `id`'s state at time `t`. The link's series are created
    /// on its first non-idle observation and recorded every tick after.
    /// `paused`/`paused_ns` carry the link's PFC pause state; a link that
    /// never pauses (every link on a lossy fabric) records no pause series.
    #[allow(clippy::too_many_arguments)]
    pub fn record_link(
        &mut self,
        id: u32,
        t: Time,
        queue_bytes: u64,
        phantom: u64,
        up: bool,
        paused: bool,
        paused_ns: u64,
    ) {
        let i = id as usize;
        if self.links.get(i).is_none_or(|s| s.is_none()) {
            if queue_bytes == 0 && phantom == 0 && up && !paused && paused_ns == 0 {
                return; // idle link: no series yet
            }
            if i >= self.links.len() {
                self.links.resize_with(i + 1, || None);
            }
            self.links[i] = Some(LinkSeries {
                queue: Series::new(self.interval, SERIES_CAPACITY),
                phantom: Series::new(self.interval, SERIES_CAPACITY),
                up: Series::new(self.interval, SERIES_CAPACITY),
                pause: None,
            });
        }
        let s = self.links[i].as_mut().expect("just inserted");
        s.queue.push(t, queue_bytes);
        s.phantom.push(t, phantom);
        s.up.push(t, up as u64);
        if s.pause.is_none() && (paused || paused_ns > 0) {
            s.pause = Some(PauseSeries {
                paused: Series::new(self.interval, SERIES_CAPACITY),
                paused_ns: Series::new(self.interval, SERIES_CAPACITY),
            });
        }
        if let Some(p) = &mut s.pause {
            p.paused.push(t, paused as u64);
            p.paused_ns.push(t, paused_ns);
        }
    }

    /// Record flow `id`'s transport snapshot at time `t`.
    pub fn record_flow(&mut self, id: u32, t: Time, sample: FlowSample) {
        let i = id as usize;
        if i >= self.flows.len() {
            self.flows.resize_with(i + 1, || None);
        }
        let s = self.flows[i].get_or_insert_with(|| FlowSeries {
            cwnd: Series::new(self.interval, SERIES_CAPACITY),
            rate: Series::new(self.interval, SERIES_CAPACITY),
            srtt: Series::new(self.interval, SERIES_CAPACITY),
            outstanding: Series::new(self.interval, SERIES_CAPACITY),
            last_t: t,
            last_delivered: sample.delivered,
        });
        s.cwnd.push(t, sample.cwnd);
        s.srtt.push(t, sample.srtt);
        s.outstanding.push(t, sample.outstanding);
        if t > s.last_t {
            let dt = t - s.last_t;
            let delta = sample.delivered.saturating_sub(s.last_delivered);
            // Integer bits-per-second; u128 keeps large byte deltas exact.
            let bps = (delta as u128 * 8 * 1_000_000_000 / dt as u128) as u64;
            s.rate.push(t, bps);
            s.last_t = t;
            s.last_delivered = sample.delivered;
        }
    }

    /// Record the fault plane's aggregate state at time `t`: number of
    /// active fault entries and number of links currently down.
    pub fn record_fault(&mut self, t: Time, active: u64, links_down: u64) {
        self.fault_active.push(t, active);
        self.links_down.push(t, links_down);
    }

    /// Serialize the collected series as the `telemetry` section of a run
    /// artifact. Keys are emitted in sorted numeric id order, values are
    /// integers of simulated state only — byte-identical across repeated
    /// seeded runs.
    pub fn to_value(&self) -> Value {
        let links = Value::Object(
            self.links
                .iter()
                .enumerate()
                .filter_map(|(id, s)| s.as_ref().map(|s| (id, s)))
                .map(|(id, s)| {
                    let mut fields = vec![
                        ("queue".into(), s.queue.to_value()),
                        ("phantom".into(), s.phantom.to_value()),
                        ("up".into(), s.up.to_value()),
                    ];
                    if let Some(p) = &s.pause {
                        fields.push(("paused".into(), p.paused.to_value()));
                        fields.push(("paused_ns".into(), p.paused_ns.to_value()));
                    }
                    (id.to_string(), Value::Object(fields))
                })
                .collect(),
        );
        let flows = Value::Object(
            self.flows
                .iter()
                .enumerate()
                .filter_map(|(id, s)| s.as_ref().map(|s| (id, s)))
                .map(|(id, s)| {
                    (
                        id.to_string(),
                        Value::Object(vec![
                            ("cwnd".into(), s.cwnd.to_value()),
                            ("rate_bps".into(), s.rate.to_value()),
                            ("srtt_ns".into(), s.srtt.to_value()),
                            ("outstanding".into(), s.outstanding.to_value()),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("interval_ns".into(), Value::U64(self.interval)),
            ("ticks".into(), Value::U64(self.ticks)),
            ("links".into(), links),
            ("flows".into(), flows),
            (
                "fault".into(),
                Value::Object(vec![
                    ("active".into(), self.fault_active.to_value()),
                    ("links_down".into(), self.links_down.to_value()),
                ]),
            ),
        ])
    }
}

impl Serialize for Telemetry {
    fn serialize_value(&self) -> Value {
        self.to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_respects_stride() {
        let mut s = Series::new(10, 8);
        s.push(0, 1);
        s.push(5, 2); // rejected: inside the stride
        s.push(10, 3);
        assert_eq!(s.points(), &[(0, 1), (10, 3)]);
    }

    #[test]
    fn series_compacts_at_capacity() {
        let mut s = Series::new(1, 8);
        for t in 0..8 {
            s.push(t, t);
        }
        // Hitting capacity 8 keeps points 0,2,4,6 and doubles the stride.
        assert_eq!(s.points(), &[(0, 0), (2, 2), (4, 4), (6, 6)]);
        assert_eq!(s.stride(), 2);
        // The next accepted point must be >= 7 + 2.
        s.push(8, 8);
        assert_eq!(s.len(), 4);
        s.push(9, 9);
        assert_eq!(s.points().last(), Some(&(9, 9)));
    }

    #[test]
    fn series_memory_stays_bounded() {
        let mut s = Series::new(1, 16);
        for t in 0..100_000u64 {
            s.push(t, t);
        }
        assert!(s.len() < 16);
        assert!(s.stride() >= 100_000 / 16);
        // Still spans the run: first point at 0, last near the end.
        assert_eq!(s.points()[0].0, 0);
        assert!(s.last().unwrap().0 > 90_000);
    }

    #[test]
    fn idle_links_record_nothing() {
        let mut t = Telemetry::new(SampleConfig::every(10));
        t.record_link(3, 0, 0, 0, true, false, 0);
        assert!(t
            .to_value()
            .get("links")
            .unwrap()
            .as_object()
            .unwrap()
            .is_empty());
        t.record_link(3, 10, 100, 0, true, false, 0);
        assert_eq!(
            t.to_value()
                .get("links")
                .unwrap()
                .as_object()
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn pause_series_only_for_paused_links() {
        let mut t = Telemetry::new(SampleConfig::every(10));
        t.record_link(0, 0, 100, 0, true, false, 0);
        t.record_link(1, 0, 100, 0, true, true, 0);
        // A pause observation alone (empty queue) is non-idle.
        t.record_link(2, 0, 0, 0, true, false, 55);
        let v = t.to_value();
        let links = v.get("links").unwrap();
        assert!(links.get("0").unwrap().get("paused").is_none());
        assert!(links.get("1").unwrap().get("paused").is_some());
        assert!(links.get("1").unwrap().get("paused_ns").is_some());
        assert!(links.get("2").unwrap().get("paused_ns").is_some());
    }

    #[test]
    fn flow_rate_is_delivered_delta() {
        let mut t = Telemetry::new(SampleConfig::every(1000));
        let s0 = FlowSample {
            cwnd: 10,
            srtt: 5,
            outstanding: 4,
            delivered: 0,
        };
        t.record_flow(0, 0, s0);
        t.record_flow(
            0,
            1000,
            FlowSample {
                delivered: 125, // 125 B over 1 µs = 1 Gbit/s
                ..s0
            },
        );
        let v = t.to_value();
        let rate = v
            .get("flows")
            .and_then(|f| f.get("0"))
            .and_then(|f| f.get("rate_bps"))
            .and_then(|r| r.as_array())
            .unwrap();
        let last = rate.last().and_then(|p| p.as_array()).unwrap();
        assert_eq!(last[1].as_f64(), Some(1_000_000_000.0));
    }

    /// A collector fed 1200 ticks of two links (one of them pausing), one
    /// flow and the fault plane: past [`SERIES_CAPACITY`], so every series
    /// has compacted.
    fn build() -> Telemetry {
        let mut t = Telemetry::new(SampleConfig::every(10));
        for tick in 0..1200u64 {
            let now = tick * 10;
            t.record_link(
                7,
                now,
                tick * 3,
                tick % 5,
                tick % 9 != 0,
                tick % 7 == 0,
                tick,
            );
            t.record_link(2, now, tick, 0, true, false, 0);
            t.record_flow(
                1,
                now,
                FlowSample {
                    cwnd: 100 + tick,
                    srtt: 500,
                    outstanding: tick,
                    delivered: tick * 40,
                },
            );
            t.record_fault(now, tick % 2, tick % 3);
            t.tick();
        }
        t
    }

    #[test]
    fn serialization_is_deterministic() {
        let json = || serde_json::to_string(&build().to_value());
        assert_eq!(json(), json());
    }
}

//! Simulation time and bandwidth units.
//!
//! Time is a `u64` count of nanoseconds since simulation start. One 4096 B
//! MTU serializes in ~328 ns at 100 Gbps, so nanosecond resolution is ample
//! while still covering ~584 years of simulated time.

/// Simulated time in nanoseconds.
pub type Time = u64;

/// One nanosecond.
pub const NANOS: Time = 1;
/// One microsecond in nanoseconds.
pub const MICROS: Time = 1_000;
/// One millisecond in nanoseconds.
pub const MILLIS: Time = 1_000_000;
/// One second in nanoseconds.
pub const SECONDS: Time = 1_000_000_000;

/// Convert a [`Time`] to fractional seconds (for reporting only).
#[inline]
pub fn as_secs_f64(t: Time) -> f64 {
    t as f64 / SECONDS as f64
}

/// Convert fractional seconds to a [`Time`]. Saturates at zero for negatives.
#[inline]
pub fn from_secs_f64(s: f64) -> Time {
    if s <= 0.0 {
        0
    } else {
        (s * SECONDS as f64).round() as Time
    }
}

/// Link bandwidth in bits per second.
pub type Bps = u64;

/// Gigabits per second, expressed in [`Bps`].
pub const GBPS: Bps = 1_000_000_000;

/// Time to serialize `bytes` onto a link of bandwidth `bps`, in nanoseconds.
///
/// Uses 128-bit intermediates so that multi-gigabyte transfers at low rates
/// cannot overflow.
#[inline]
pub fn serialization_time(bytes: u64, bps: Bps) -> Time {
    debug_assert!(bps > 0, "link bandwidth must be positive");
    ((bytes as u128 * 8 * SECONDS as u128) / bps as u128) as Time
}

/// Number of bytes a link of bandwidth `bps` transfers in `t` nanoseconds.
#[inline]
pub fn bytes_in(t: Time, bps: Bps) -> u64 {
    ((t as u128 * bps as u128) / (8 * SECONDS as u128)) as u64
}

/// Bandwidth-delay product in bytes for a link/path of bandwidth `bps` and
/// round-trip time `rtt`.
#[inline]
pub fn bdp_bytes(bps: Bps, rtt: Time) -> u64 {
    bytes_in(rtt, bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_mtu_100g() {
        // 4096 B at 100 Gbps = 4096*8/100e9 s = 327.68 ns.
        let t = serialization_time(4096, 100 * GBPS);
        assert_eq!(t, 327); // truncated
    }

    #[test]
    fn serialization_time_large_message_low_rate() {
        // 4 GiB at 1 Gbps = 34.36 s; must not overflow.
        let t = serialization_time(4 << 30, GBPS);
        assert!(t > 34 * SECONDS && t < 35 * SECONDS);
    }

    #[test]
    fn bdp_matches_paper_example() {
        // Paper S2: 10 ms RTT x 400 Gbps ~= 500 MB.
        let bdp = bdp_bytes(400 * GBPS, 10 * MILLIS);
        assert_eq!(bdp, 500_000_000);
    }

    #[test]
    fn bytes_in_inverts_serialization() {
        let bps = 100 * GBPS;
        let t = serialization_time(1_000_000, bps);
        let b = bytes_in(t, bps);
        // Truncation loses at most a few bytes.
        assert!((999_990..=1_000_000).contains(&b), "{b}");
    }

    #[test]
    fn secs_round_trip() {
        assert_eq!(from_secs_f64(1.5), 1_500_000_000);
        assert_eq!(as_secs_f64(2 * SECONDS), 2.0);
        assert_eq!(from_secs_f64(-1.0), 0);
    }
}

//! Per-link-direction statistics.
//!
//! Everything the evaluation needs from the network side: delivered bytes
//! (→ Fig. 11 link utilization), mark/drop counts, and a time-weighted
//! queue-depth average (→ buffer-occupancy claims).

use std::fmt;
use xmp_des::{ByteSize, SimTime};

/// Depth buckets for the occupancy histogram: `[0, 1, 2, 4, 8, 16, 32,
/// 64, 128, ≥256)` packets — power-of-two edges cover the paper's
/// 100-packet queues with useful resolution near K.
pub const DEPTH_BUCKETS: [usize; 10] = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Counters for one link direction.
///
/// The memory order is not the reading order: the struct sits at byte 48
/// of a line-aligned [`Direction`](crate::link::Direction), and its fields are
/// laid out (`repr(C)`) so that what `on_deliver` counts closes that
/// direction's first cache line, what `Direction::offer` and the retire
/// loop update fills the second, and the counters of rare events come last
/// (DESIGN.md §13.4; `link::tests` pins the lines). The [`Debug`](fmt::Debug)
/// form keeps the reading order, whatever the layout does.
#[derive(Default, Clone)]
#[repr(C)]
pub struct DirStats {
    /// Packets fully delivered to the far end.
    pub delivered: u64,
    /// Bytes fully delivered to the far end.
    pub delivered_bytes: ByteSize,
    /// Packets accepted into the queue (marked or not).
    pub enqueued: u64,
    /// Packets CE-marked on arrival.
    pub marked: u64,
    /// Maximum observed queue depth (waiting + on-wire), packets.
    pub max_depth: usize,
    // Time-weighted queue depth accumulator, ns x packets. u64 holds a
    // standing depth of 256 packets for 2.28 years of simulated time (100,
    // the paper's buffer, for 5.8); the scale cells run seconds.
    pub(crate) depth_weighted_ns: u64,
    pub(crate) last_sample: Option<(SimTime, usize)>,
    // Time (ns) spent in each DEPTH_BUCKETS band; sums to at most `now`.
    pub(crate) depth_hist_ns: [u64; DEPTH_BUCKETS.len()],
    /// Packets dropped by the queue discipline (incl. overflow).
    pub dropped: u64,
    /// Packets dropped by fault injection.
    pub fault_dropped: u64,
    /// Packets corrupted in transit and discarded by the receiving end.
    pub corrupted: u64,
    /// Packets blackholed by a link failure: offered while the direction
    /// was down, or purged mid-flight when it went down.
    pub blackholed: u64,
}

/// What `#[derive(Debug)]` printed before the fields were reordered for the
/// cache, field for field. Recorded run outcomes hash this string
/// (`network::tests`), and the reference-port test diffs it: it is an
/// output format, and `tests::debug_form_is_pinned` holds it still.
impl fmt::Debug for DirStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirStats")
            .field("enqueued", &self.enqueued)
            .field("marked", &self.marked)
            .field("dropped", &self.dropped)
            .field("fault_dropped", &self.fault_dropped)
            .field("corrupted", &self.corrupted)
            .field("blackholed", &self.blackholed)
            .field("delivered", &self.delivered)
            .field("delivered_bytes", &self.delivered_bytes)
            .field("max_depth", &self.max_depth)
            .field("depth_weighted_ns", &self.depth_weighted_ns)
            .field("depth_hist_ns", &self.depth_hist_ns)
            .field("last_sample", &self.last_sample)
            .finish()
    }
}

/// Index of the [`DEPTH_BUCKETS`] band holding `depth`: 0 for an empty
/// queue, else one band per bit length, the last band open-ended.
fn bucket_of(depth: usize) -> usize {
    let bits = (usize::BITS - depth.leading_zeros()) as usize;
    bits.min(DEPTH_BUCKETS.len() - 1)
}

impl DirStats {
    /// Record the queue depth at `now`; the previous depth is weighted by
    /// the elapsed time since the last observation.
    pub fn observe_backlog(&mut self, now: SimTime, depth: usize) {
        if let Some((t0, d0)) = self.last_sample {
            let dt = now.as_nanos().saturating_sub(t0.as_nanos());
            self.depth_weighted_ns += dt * d0 as u64;
            self.depth_hist_ns[bucket_of(d0)] += dt;
        }
        self.max_depth = self.max_depth.max(depth);
        self.last_sample = Some((now, depth));
    }

    /// Fraction of time (up to the last observation) the queue spent at a
    /// depth of at least `depth` packets — e.g. `occupancy_at_least(K)` is
    /// how often arrivals were being marked.
    pub fn occupancy_at_least(&self, depth: usize) -> f64 {
        let total: u64 = self.depth_hist_ns.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let from = bucket_of(depth);
        let above: u64 = self.depth_hist_ns[from..].iter().sum();
        above as f64 / total as f64
    }

    /// The time-weighted depth histogram as `(bucket lower edge, fraction
    /// of time)` pairs.
    pub fn depth_histogram(&self) -> Vec<(usize, f64)> {
        let total: u64 = self.depth_hist_ns.iter().sum();
        DEPTH_BUCKETS
            .iter()
            .zip(self.depth_hist_ns.iter())
            .map(|(&lo, &ns)| {
                let f = if total == 0 {
                    0.0
                } else {
                    ns as f64 / total as f64
                };
                (lo, f)
            })
            .collect()
    }

    /// Time-weighted mean queue depth over `[0, now]`, in packets.
    pub fn mean_depth(&self, now: SimTime) -> f64 {
        let mut acc = self.depth_weighted_ns;
        if let Some((t0, d0)) = self.last_sample {
            let dt = now.as_nanos().saturating_sub(t0.as_nanos());
            acc += dt * d0 as u64;
        }
        if now.as_nanos() == 0 {
            0.0
        } else {
            acc as f64 / now.as_nanos() as f64
        }
    }

    /// Utilization of a direction with capacity `bandwidth_bps` over `[0, dur]`.
    pub fn utilization(&self, bandwidth_bps: u64, duration_ns: u64) -> f64 {
        if bandwidth_bps == 0 || duration_ns == 0 {
            return 0.0;
        }
        let sent_bits = self.delivered_bytes.as_bytes() as f64 * 8.0;
        let cap_bits = bandwidth_bps as f64 * duration_ns as f64 / 1e9;
        sent_bits / cap_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmp_des::SimDuration;

    #[test]
    fn mean_depth_time_weighted() {
        let mut s = DirStats::default();
        s.observe_backlog(SimTime::ZERO, 0);
        s.observe_backlog(SimTime::from_micros(10), 10); // depth 0 for 10us
        s.observe_backlog(SimTime::from_micros(20), 0); // depth 10 for 10us
                                                        // mean over [0, 20us] = (0*10 + 10*10)/20 = 5
        assert!((s.mean_depth(SimTime::from_micros(20)) - 5.0).abs() < 1e-9);
        assert_eq!(s.max_depth, 10);
    }

    #[test]
    fn mean_depth_extends_last_sample() {
        let mut s = DirStats::default();
        s.observe_backlog(SimTime::ZERO, 4);
        // Constant depth 4, never observed again: still 4 on average.
        assert!((s.mean_depth(SimTime::from_millis(1)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_mapping() {
        // The bit-length form against the table it indexes: the last band
        // whose lower edge is at or below the depth.
        for depth in (0..=1025).chain([usize::MAX / 2, usize::MAX]) {
            let want = DEPTH_BUCKETS.iter().rposition(|&lo| depth >= lo).unwrap();
            assert_eq!(bucket_of(depth), want, "depth {depth}");
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(100), 7);
        assert_eq!(bucket_of(5000), 9);
    }

    #[test]
    fn accumulators_hold_a_full_queue_for_two_years() {
        // The stated overflow horizon of the u64 accumulators: the deepest
        // histogram band, standing, for two years of simulated time.
        let two_years = SimTime::from_nanos(2 * 365 * 86_400 * 1_000_000_000);
        let mut s = DirStats::default();
        s.observe_backlog(SimTime::ZERO, 256);
        s.observe_backlog(two_years, 256);
        assert_eq!(s.mean_depth(two_years), 256.0);
        assert_eq!(s.occupancy_at_least(256), 1.0);
        // ...and not for three: the horizon is 2.28 years.
        assert!(256u64.checked_mul(3 * two_years.as_nanos() / 2).is_none());
    }

    #[test]
    fn histogram_is_time_weighted() {
        let mut s = DirStats::default();
        s.observe_backlog(SimTime::ZERO, 0);
        s.observe_backlog(SimTime::from_micros(30), 10); // depth 0 for 30us
        s.observe_backlog(SimTime::from_micros(40), 0); // depth 10 for 10us
        let h = s.depth_histogram();
        let f0 = h.iter().find(|&&(lo, _)| lo == 0).unwrap().1;
        let f8 = h.iter().find(|&&(lo, _)| lo == 8).unwrap().1;
        assert!((f0 - 0.75).abs() < 1e-9, "f0={f0}");
        assert!((f8 - 0.25).abs() < 1e-9, "f8={f8}");
        assert!((s.occupancy_at_least(8) - 0.25).abs() < 1e-9);
        assert!((s.occupancy_at_least(0) - 1.0).abs() < 1e-9);
        assert_eq!(s.occupancy_at_least(128), 0.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = DirStats::default();
        assert_eq!(s.occupancy_at_least(1), 0.0);
        assert!(s.depth_histogram().iter().all(|&(_, f)| f == 0.0));
    }

    /// Golden strings, captured from the derived impl before the fields
    /// were reordered (see the `Debug` impl for who depends on them).
    #[test]
    fn debug_form_is_pinned() {
        assert_eq!(
            format!("{:?}", DirStats::default()),
            "DirStats { enqueued: 0, marked: 0, dropped: 0, fault_dropped: 0, corrupted: 0, \
             blackholed: 0, delivered: 0, delivered_bytes: 0B, max_depth: 0, \
             depth_weighted_ns: 0, depth_hist_ns: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \
             last_sample: None }"
        );
        let mut s = DirStats {
            enqueued: 1,
            marked: 2,
            dropped: 3,
            fault_dropped: 4,
            corrupted: 5,
            blackholed: 6,
            delivered: 7,
            delivered_bytes: ByteSize::from_bytes(8_000),
            ..DirStats::default()
        };
        s.observe_backlog(SimTime::from_nanos(100), 9);
        s.observe_backlog(SimTime::from_nanos(350), 300);
        s.observe_backlog(SimTime::from_nanos(360), 0);
        assert_eq!(
            format!("{s:?}"),
            "DirStats { enqueued: 1, marked: 2, dropped: 3, fault_dropped: 4, corrupted: 5, \
             blackholed: 6, delivered: 7, delivered_bytes: 8000B, max_depth: 300, \
             depth_weighted_ns: 5250, depth_hist_ns: [0, 0, 0, 0, 250, 0, 0, 0, 0, 10], \
             last_sample: Some((t=360ns, 0)) }"
        );
        // The pretty form goes through the same field list.
        assert!(format!("{s:#?}").starts_with("DirStats {\n    enqueued: 1,\n    marked: 2,\n"));
    }

    #[test]
    fn utilization_full_link() {
        // 1 Gbps for 1 ms = 125_000 bytes.
        let s = DirStats {
            delivered_bytes: ByteSize::from_bytes(125_000),
            ..DirStats::default()
        };
        let u = s.utilization(1_000_000_000, SimDuration::from_millis(1).as_nanos());
        assert!((u - 1.0).abs() < 1e-9);
        assert_eq!(s.utilization(0, 1), 0.0);
    }
}

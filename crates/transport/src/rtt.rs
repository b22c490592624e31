//! Round-trip time estimation and retransmission timeouts (RFC 6298),
//! with microsecond granularity as in the paper's Linux implementation
//! (`TCP_CONG_RTT_STAMP`).

use xmp_des::SimDuration;

/// SRTT/RTTVAR estimator plus RTO computation with exponential backoff.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto_min: SimDuration,
    rto_max: SimDuration,
    rto_initial: SimDuration,
    backoff: u32,
}

impl RttEstimator {
    /// New estimator with the given RTO clamps.
    pub fn new(rto_min: SimDuration, rto_max: SimDuration, rto_initial: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto_min,
            rto_max,
            rto_initial,
            backoff: 0,
        }
    }

    /// Smoothed RTT, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Incorporate a new RTT sample (RFC 6298 §2).
    pub fn sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R'|
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = self.rttvar * 3 / 4 + err / 4;
                // SRTT = 7/8 SRTT + 1/8 R'
                self.srtt = Some(srtt * 7 / 8 + rtt / 8);
            }
        }
        // A valid sample ends any timeout backoff (the path is alive).
        self.backoff = 0;
    }

    /// Current retransmission timeout, including backoff.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => self.rto_initial,
            Some(srtt) => {
                // RTO = SRTT + max(G, 4*RTTVAR); G (clock granularity) ~ 1us.
                let var = self.rttvar.saturating_mul(4);
                let var = var.clamp(SimDuration::from_micros(1), SimDuration::MAX);
                srtt + var
            }
        };
        base.clamp(self.rto_min, self.rto_max)
            .saturating_mul(1u64 << self.backoff.min(16))
            .clamp(self.rto_min, self.rto_max)
    }

    /// Double the RTO (called on each timeout).
    pub fn backoff(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
            SimDuration::from_millis(200),
        )
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = est();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(), SimDuration::from_millis(200));
        e.sample(SimDuration::from_micros(300));
        assert_eq!(e.srtt(), Some(SimDuration::from_micros(300)));
    }

    #[test]
    fn converges_towards_stable_rtt() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(SimDuration::from_micros(250));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_micros() as i64 - 250).unsigned_abs() <= 2,
            "srtt={srtt}"
        );
    }

    #[test]
    fn rto_clamped_to_min() {
        // DCN RTTs of a few hundred us never push RTO above RTOmin=200ms.
        let mut e = est();
        for _ in 0..10 {
            e.sample(SimDuration::from_micros(225));
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        e.sample(SimDuration::from_micros(300));
        assert_eq!(e.rto(), SimDuration::from_millis(200));
        e.backoff();
        assert_eq!(e.rto(), SimDuration::from_millis(400));
        e.backoff();
        assert_eq!(e.rto(), SimDuration::from_millis(800));
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
        // A fresh sample clears the backoff.
        e.sample(SimDuration::from_micros(300));
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn variance_tracks_jitter() {
        let mut lo = est();
        let mut hi = est();
        for i in 0..50 {
            lo.sample(SimDuration::from_micros(300));
            hi.sample(SimDuration::from_micros(if i % 2 == 0 { 100 } else { 500 }));
        }
        // Same mean, but the jittery path must not have a smaller RTO base.
        let rto_min_off = |e: &RttEstimator| {
            // Strip the clamp by reading srtt + 4*rttvar directly.
            e.srtt().unwrap() + e.rttvar.saturating_mul(4)
        };
        assert!(rto_min_off(&hi) > rto_min_off(&lo));
    }
}

//! Strongly-typed quantities: bandwidth and data size.
//!
//! Keeping bits vs bytes and Mbps vs Gbps in the type system removes a whole
//! class of off-by-8 errors from link and congestion-window arithmetic.

use crate::time::SimDuration;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Link or flow bandwidth, stored as bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth (a disabled link).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// From bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// From kilobits per second (10^3 factor — networking convention).
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1_000)
    }

    /// From megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// From gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// From fractional gigabits per second (e.g. the paper's 0.8 Gbps torus link).
    pub fn from_gbps_f64(gbps: f64) -> Self {
        debug_assert!(gbps >= 0.0);
        Bandwidth((gbps * 1e9).round() as u64)
    }

    /// Bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Gigabits per second as a float.
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `size` onto a link of this bandwidth.
    ///
    /// # Panics
    /// Panics if the bandwidth is zero.
    pub fn transmission_time(self, size: ByteSize) -> SimDuration {
        assert!(self.0 > 0, "transmission over a zero-bandwidth link");
        // ns = bits / (bits/s) * 1e9. Every packet (anything under 2.3 GB)
        // keeps the product inside u64 and takes one hardware divide; the
        // u128 form, same quotient, covers the rest.
        let ns = match size.as_bytes().checked_mul(8 * 1_000_000_000) {
            Some(bit_ns) => bit_ns / self.0,
            None => (size.as_bytes() as u128 * 8 * 1_000_000_000 / self.0 as u128) as u64,
        };
        SimDuration::from_nanos(ns)
    }

    /// How many bytes this bandwidth carries in `d` (truncating).
    pub fn bytes_in(self, d: SimDuration) -> ByteSize {
        let bits = self.0 as u128 * d.as_nanos() as u128 / 1_000_000_000;
        ByteSize::from_bytes((bits / 8) as u64)
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 && self.0.is_multiple_of(100_000_000) {
            write!(f, "{}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}Mbps", self.0 / 1_000_000)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A count of bytes (payload sizes, queue depths in bytes, transfer volumes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// From raw bytes.
    pub const fn from_bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// From kilobytes (2^10).
    pub const fn from_kib(k: u64) -> Self {
        ByteSize(k * 1024)
    }

    /// From megabytes (2^20).
    pub const fn from_mib(m: u64) -> Self {
        ByteSize(m * 1024 * 1024)
    }

    /// From gigabytes (2^30).
    pub const fn from_gib(g: u64) -> Self {
        ByteSize(g * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1 << 30 && self.0.is_multiple_of(1 << 30) {
            write!(f, "{}GiB", self.0 >> 30)
        } else if self.0 >= 1 << 20 && self.0.is_multiple_of(1 << 20) {
            write!(f, "{}MiB", self.0 >> 20)
        } else if self.0 >= 1 << 10 && self.0.is_multiple_of(1 << 10) {
            write!(f, "{}KiB", self.0 >> 10)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_packet_serialization_is_12us() {
        // The paper: "one buffered packet will increase RTT by 12 us" at 1 Gbps.
        let d = Bandwidth::from_gbps(1).transmission_time(ByteSize::from_bytes(1500));
        assert_eq!(d.as_micros(), 12);
    }

    #[test]
    fn bdp_examples_from_the_paper() {
        // 1 Gbps x 225 us / (8 x 1500) ~= 19 packets (paper Section 2.1).
        let bytes = Bandwidth::from_gbps(1).bytes_in(SimDuration::from_micros(225));
        let pkts = bytes.as_bytes() / 1500;
        assert_eq!(pkts, 18); // 18.75 truncated; paper rounds to ~19
                              // 1 Gbps x 400 us -> ~33 packets (Section 2.1 / 3).
        let bytes = Bandwidth::from_gbps(1).bytes_in(SimDuration::from_micros(400));
        assert_eq!(bytes.as_bytes() / 1500, 33);
    }

    #[test]
    fn transmission_time_large_values_no_overflow() {
        let d = Bandwidth::from_kbps(1).transmission_time(ByteSize::from_gib(1));
        // 2^30 bytes * 8 bits / 1000 bps = 8.59e6 s
        assert!(d.as_secs_f64() > 8.5e6 && d.as_secs_f64() < 8.7e6);
    }

    #[test]
    fn transmission_time_u64_path_equals_the_u128_form() {
        let wide = |bps: u64, bytes: u64| (bytes as u128 * 8 * 1_000_000_000 / bps as u128) as u64;
        // The last size whose bit-nanosecond product fits u64, and the
        // sizes around it.
        let edge = u64::MAX / 8_000_000_000;
        assert!(edge.checked_mul(8_000_000_000).is_some());
        assert!((edge + 1).checked_mul(8_000_000_000).is_none());
        let sizes = [
            0,
            1,
            40,
            1500,
            9000,
            edge - 1,
            edge,
            edge + 1,
            edge + 2,
            1 << 40,
        ];
        for bps in [
            1,
            999,
            1_000_000,
            800_000_000,
            1_000_000_000,
            10_000_000_007,
        ] {
            for bytes in sizes {
                let got = Bandwidth::from_bps(bps).transmission_time(ByteSize::from_bytes(bytes));
                assert_eq!(got.as_nanos(), wide(bps, bytes), "{bytes} B at {bps} bps");
            }
        }
    }

    #[test]
    fn fractional_gbps() {
        assert_eq!(Bandwidth::from_gbps_f64(0.8).as_bps(), 800_000_000);
        assert_eq!(format!("{}", Bandwidth::from_gbps_f64(1.2)), "1.2Gbps");
        assert_eq!(format!("{}", Bandwidth::from_mbps(300)), "300Mbps");
    }

    #[test]
    fn bytesize_formatting_and_math() {
        assert_eq!(format!("{}", ByteSize::from_mib(64)), "64MiB");
        assert_eq!(format!("{}", ByteSize::from_kib(64)), "64KiB");
        assert_eq!(format!("{}", ByteSize::from_bytes(1500)), "1500B");
        let a = ByteSize::from_kib(2) + ByteSize::from_kib(3);
        assert_eq!(a.as_bytes(), 5 * 1024);
        assert_eq!(
            ByteSize::from_kib(1).saturating_sub(ByteSize::from_kib(2)),
            ByteSize::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn zero_bandwidth_tx_panics() {
        Bandwidth::ZERO.transmission_time(ByteSize::from_bytes(1));
    }
}

//! Simulated time.
//!
//! The simulator is not cycle-accurate; it charges analytically-modelled
//! durations to per-CPE local clocks and reconciles them at synchronisation
//! points (register-communication receives take `max(local, sender)`,
//! barriers take the mesh-wide max). This is the classic conservative
//! parallel-discrete-event shortcut and is exact for the bulk-synchronous
//! kernels swDNN uses.

use std::ops::{Add, AddAssign, Sub};

/// A simulated duration / instant, in seconds.
///
/// Stored as `f64` seconds; at nanosecond granularity this is exact far
/// beyond any simulation length we run.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0.0);

    #[inline]
    pub fn from_seconds(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "negative/NaN sim time: {s}");
        SimTime(s)
    }

    #[inline]
    pub fn from_cycles(cycles: f64) -> Self {
        SimTime::from_seconds(crate::arch::cycles_to_seconds(cycles))
    }

    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

/// Whether kernels actually move and compute data, or only charge time.
///
/// `Functional` is used by tests and examples (results are bit-checked
/// against reference implementations); `TimingOnly` is used by the large
/// table/figure sweeps where a functional VGG-16 batch-128 iteration would
/// be terabytes of host arithmetic. The *time charged is identical* in both
/// modes: the cost model depends only on shapes and plans, never on values.
///
/// `HostNative` is the third face: kernels compute the same values as
/// `Functional` (bit-for-bit — the host path runs the mesh kernels'
/// arithmetic with the same types and accumulation order) but run as
/// plain blocked host loops on `threads` OS threads with **no timing
/// model**: reports carry zero simulated time and zero counters. Kernels
/// without a host path fall back to the functional mesh, so results stay
/// bit-identical even for partially-ported pipelines.
///
/// This is the one value that says where a kernel runs: every `swdnn`
/// kernel matches on its core group's mode directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    #[default]
    Functional,
    TimingOnly,
    HostNative {
        /// Worker threads for the host execution path (0 = one per
        /// available core, resolved at dispatch time).
        threads: usize,
    },
}

impl ExecMode {
    /// True when kernels materialise real values (both the simulated mesh
    /// and the host-native path); false when only time is charged.
    #[inline]
    pub fn is_functional(self) -> bool {
        !matches!(self, ExecMode::TimingOnly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = SimTime::from_seconds(1.0);
        let b = SimTime::from_seconds(2.5);
        assert_eq!((a + b).seconds(), 3.5);
        assert_eq!((b - a).seconds(), 1.5);
        // Saturating subtraction: durations never go negative.
        assert_eq!((a - b).seconds(), 0.0);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn cycle_conversion() {
        let t = SimTime::from_cycles(1.45e9);
        assert!((t.seconds() - 1.0).abs() < 1e-12);
    }
}

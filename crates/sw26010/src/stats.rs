//! Hardware activity counters.
//!
//! Every CPE accumulates a private [`Stats`] during a kernel launch; the
//! mesh sums them at join time, and core groups / chips aggregate launch
//! totals. No atomics are needed because accumulation is thread-local.

use crate::time::SimTime;

/// Counters for one simulation scope (CPE, launch, core group, or chip).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stats {
    /// Bytes moved memory -> LDM via DMA get.
    pub dma_get_bytes: u64,
    /// Bytes moved LDM -> memory via DMA put.
    pub dma_put_bytes: u64,
    /// Number of DMA requests issued (each pays the start-up latency).
    pub dma_requests: u64,
    /// Bytes sent over the register-communication fabric.
    pub rlc_bytes: u64,
    /// Register-communication messages (P2P sends count once; a broadcast
    /// counts once per its 7 receivers, matching bus occupancy).
    pub rlc_messages: u64,
    /// Floating-point operations charged to the CPE pipelines.
    pub flops: u64,
    /// Floating-point operations charged to MPE code paths.
    pub mpe_flops: u64,
    /// Mesh kernel launches.
    pub launches: u64,
    /// Total simulated busy time attributed to this scope.
    pub busy: SimTime,
}

impl Stats {
    pub fn merge(&mut self, other: &Stats) {
        self.dma_get_bytes += other.dma_get_bytes;
        self.dma_put_bytes += other.dma_put_bytes;
        self.dma_requests += other.dma_requests;
        self.rlc_bytes += other.rlc_bytes;
        self.rlc_messages += other.rlc_messages;
        self.flops += other.flops;
        self.mpe_flops += other.mpe_flops;
        self.launches += other.launches;
        self.busy += other.busy;
    }

    /// Counters accumulated since `earlier` was snapshotted, i.e. the
    /// inverse of [`Stats::merge`]: `earlier.merge(&d)` restores `self`
    /// when `earlier` is a prefix of this scope. Saturates rather than
    /// wrapping if a stale snapshot is passed after a reset.
    pub fn delta(&self, earlier: &Stats) -> Stats {
        Stats {
            dma_get_bytes: self.dma_get_bytes.saturating_sub(earlier.dma_get_bytes),
            dma_put_bytes: self.dma_put_bytes.saturating_sub(earlier.dma_put_bytes),
            dma_requests: self.dma_requests.saturating_sub(earlier.dma_requests),
            rlc_bytes: self.rlc_bytes.saturating_sub(earlier.rlc_bytes),
            rlc_messages: self.rlc_messages.saturating_sub(earlier.rlc_messages),
            flops: self.flops.saturating_sub(earlier.flops),
            mpe_flops: self.mpe_flops.saturating_sub(earlier.mpe_flops),
            launches: self.launches.saturating_sub(earlier.launches),
            busy: self.busy - earlier.busy, // SimTime subtraction saturates
        }
    }

    /// Total DMA traffic in bytes.
    pub fn dma_bytes(&self) -> u64 {
        self.dma_get_bytes + self.dma_put_bytes
    }

    /// Achieved arithmetic intensity (flops per DMA byte). Returns `None`
    /// when no DMA traffic occurred.
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        let bytes = self.dma_bytes();
        (bytes > 0).then(|| self.flops as f64 / bytes as f64)
    }
}

/// Result of one mesh kernel launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchReport {
    /// Wall-clock (simulated) duration of the launch: spawn overhead plus
    /// the maximum per-CPE finish time.
    pub elapsed: SimTime,
    /// Counters summed over all participating CPEs.
    pub stats: Stats,
}

impl LaunchReport {
    pub fn merge(&mut self, other: &LaunchReport) {
        self.elapsed += other.elapsed;
        self.stats.merge(&other.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = Stats {
            dma_get_bytes: 10,
            flops: 100,
            ..Default::default()
        };
        let b = Stats {
            dma_get_bytes: 5,
            dma_put_bytes: 7,
            flops: 50,
            busy: SimTime::from_seconds(1.0),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dma_get_bytes, 15);
        assert_eq!(a.dma_put_bytes, 7);
        assert_eq!(a.flops, 150);
        assert_eq!(a.dma_bytes(), 22);
        assert_eq!(a.busy.seconds(), 1.0);
    }

    #[test]
    fn merge_then_delta_is_identity() {
        let a = Stats {
            dma_get_bytes: 11,
            dma_put_bytes: 3,
            dma_requests: 2,
            rlc_bytes: 64,
            rlc_messages: 2,
            flops: 500,
            mpe_flops: 9,
            launches: 1,
            busy: SimTime::from_seconds(0.25),
        };
        let b = Stats {
            dma_get_bytes: 7,
            dma_put_bytes: 1,
            dma_requests: 1,
            rlc_bytes: 32,
            rlc_messages: 1,
            flops: 100,
            mpe_flops: 4,
            launches: 1,
            busy: SimTime::from_seconds(0.5),
        };
        let mut total = a;
        total.merge(&b);
        assert_eq!(total.delta(&a), b);
        assert_eq!(total.delta(&b), a);
        // Merge with the zero element is the identity.
        let mut c = a;
        c.merge(&Stats::default());
        assert_eq!(c, a);
        // Delta against a *later* snapshot saturates to zero.
        assert_eq!(a.delta(&total), Stats::default());
    }

    #[test]
    fn merge_is_commutative() {
        let a = Stats {
            dma_get_bytes: 5,
            flops: 7,
            launches: 1,
            ..Default::default()
        };
        let b = Stats {
            dma_put_bytes: 9,
            rlc_messages: 3,
            ..Default::default()
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn arithmetic_intensity() {
        let s = Stats {
            dma_get_bytes: 50,
            dma_put_bytes: 50,
            flops: 2650,
            ..Default::default()
        };
        assert!((s.arithmetic_intensity().unwrap() - 26.5).abs() < 1e-12);
        assert!(Stats::default().arithmetic_intensity().is_none());
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "launches:        {}", self.launches)?;
        writeln!(
            f,
            "DMA:             {:.2} MB get / {:.2} MB put over {} requests",
            self.dma_get_bytes as f64 / 1e6,
            self.dma_put_bytes as f64 / 1e6,
            self.dma_requests
        )?;
        writeln!(
            f,
            "register comm:   {:.2} MB over {} messages",
            self.rlc_bytes as f64 / 1e6,
            self.rlc_messages
        )?;
        writeln!(
            f,
            "flops:           {:.3} G (CPE) + {:.3} M (MPE)",
            self.flops as f64 / 1e9,
            self.mpe_flops as f64 / 1e6
        )?;
        write!(f, "busy:            {:.3} ms", self.busy.seconds() * 1e3)?;
        if let Some(ai) = self.arithmetic_intensity() {
            write!(f, "   arithmetic intensity: {ai:.1} flops/B")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let s = Stats {
            dma_get_bytes: 2_000_000,
            dma_put_bytes: 1_000_000,
            dma_requests: 42,
            rlc_bytes: 500_000,
            rlc_messages: 128,
            flops: 3_000_000_000,
            mpe_flops: 1_000_000,
            launches: 7,
            busy: SimTime::from_seconds(0.005),
        };
        let text = s.to_string();
        assert!(text.contains("launches:        7"));
        assert!(text.contains("2.00 MB get"));
        assert!(text.contains("3.000 G"));
        assert!(text.contains("arithmetic intensity: 1000.0"));
    }
}

//! Architectural constants of the SW26010 many-core processor.
//!
//! Numbers come from the swCaffe paper (Table I, Section II-A, Fig. 2) and
//! the public SW26010 benchmarking literature it cites. They parameterise
//! the timing model; the functional simulator enforces the *structural*
//! constraints (LDM capacity, mesh shape, row/column-only register
//! communication) independently of these values.

/// Core groups per chip.
pub const CORE_GROUPS: usize = 4;

/// CPE mesh dimension: the cluster is `MESH_DIM x MESH_DIM`.
pub const MESH_DIM: usize = 8;

/// Computing processing elements per core group.
pub(crate) const CPES_PER_CG: usize = MESH_DIM * MESH_DIM;

/// Clock frequency of both MPE and CPE cores, in Hz (1.45 GHz).
pub const CLOCK_HZ: f64 = 1.45e9;

/// Local directive memory (scratch pad) per CPE, in bytes (64 KB).
pub const LDM_BYTES: usize = 64 * 1024;

/// Peak double-precision throughput of one CPE, flops/cycle
/// (256-bit fused multiply-add: 4 lanes x 2 flops).
pub const CPE_DP_FLOPS_PER_CYCLE: f64 = 8.0;

/// Peak double-precision performance of the whole 8x8 CPE cluster of one
/// core group: 64 * 8 flops/cycle * 1.45 GHz = 742.4 GFlops.
pub const CPE_CLUSTER_PEAK_FLOPS: f64 = CPES_PER_CG as f64 * CPE_DP_FLOPS_PER_CYCLE * CLOCK_HZ;

/// Peak performance of the management processing element (11.6 GFlops).
pub(crate) const MPE_PEAK_FLOPS: f64 = 11.6e9;

/// Theoretical memory bandwidth per core group (one 128-bit DDR3 channel),
/// in bytes/second. 4 channels give the chip-level 136 GB/s figure.
pub(crate) const CG_MEM_BANDWIDTH: f64 = 34.0e9;

/// Measured saturating DMA bandwidth per core group (Fig. 2): ~28 GB/s for
/// both get and put when all 64 CPEs issue large continuous transfers.
pub const DMA_PEAK_BANDWIDTH: f64 = 28.0e9;

/// Bandwidth of MPE-mediated memory-to-memory copies (Principle 2): 9.9 GB/s.
pub(crate) const MPE_MEMCPY_BANDWIDTH: f64 = 9.9e9;

/// Per-CPE DMA link bandwidth (the single-CPE saturation level in Fig. 2).
pub(crate) const DMA_CPE_LINK_BANDWIDTH: f64 = 6.0e9;

/// DMA start-up latency per request ("hundreds of cycles" of LDM transfer
/// latency, paper Principle 3). ~1450 cycles at 1.45 GHz.
pub(crate) const DMA_STARTUP_SECONDS: f64 = 1.0e-6;

/// Extra fixed overhead per strided block (descriptor processing + DRAM
/// row activation), calibrated so that <256-byte blocks lose most of the
/// bandwidth, matching the right half of Fig. 2.
pub(crate) const DMA_STRIDED_BLOCK_OVERHEAD_SECONDS: f64 = 2.0e-7;

/// RLC message granularity in bytes (one 256-bit vector register).
pub(crate) const RLC_PACKET_BYTES: usize = 32;

/// Depth of the RLC send/receive FIFOs, in 256-bit packets. Senders stall
/// when the receiving FIFO is full (anonymous producer-consumer semantics).
pub const RLC_FIFO_DEPTH: usize = 4;

/// Efficiency factor applied to hand-tuned compute kernels (register
/// blocking + dual-issue of the float and memory pipelines never reaches
/// 100% of peak; swDNN reports ~85-95% on large GEMM inner kernels).
pub const KERNEL_COMPUTE_EFFICIENCY: f64 = 0.88;

/// Overhead of spawning + joining a CPE-cluster kernel via the athread
/// runtime (thread launch, argument marshalling, completion polling).
pub const ATHREAD_LAUNCH_OVERHEAD_SECONDS: f64 = 2.0e-6;

/// Flop-per-byte ratio of the core group: 742.4 GFlops / 28 GB/s = 26.5
/// (paper, Principle 3).
pub fn flop_per_byte_ratio() -> f64 {
    CPE_CLUSTER_PEAK_FLOPS / DMA_PEAK_BANDWIDTH
}

/// Cycles to seconds at the SW26010 clock.
#[inline]
pub(crate) fn cycles_to_seconds(cycles: f64) -> f64 {
    cycles / CLOCK_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_peak_matches_paper() {
        assert!((CPE_CLUSTER_PEAK_FLOPS - 742.4e9).abs() / 742.4e9 < 1e-3);
    }

    #[test]
    fn flop_per_byte_matches_paper() {
        // Paper, Principle 3: 742.4 GFlops / 28 GB/s = 26.5.
        assert!((flop_per_byte_ratio() - 26.5).abs() < 0.1);
    }

    #[test]
    fn mesh_has_64_cpes() {
        assert_eq!(CPES_PER_CG, 64);
    }

    #[test]
    fn rlc_packet_is_256_bits() {
        assert_eq!(RLC_PACKET_BYTES * 8, 256);
    }
}

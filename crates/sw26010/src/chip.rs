//! The chip's network-on-chip between its four core groups.
//!
//! swCaffe treats the four CGs as four quasi-independent workers that share
//! nothing but main-memory bandwidth for the gradient sum (Algorithm 1);
//! the one chip-level cost is therefore the NoC transfer used when CG0
//! gathers the other CGs' gradients and re-broadcasts the weights.

use crate::arch::CG_MEM_BANDWIDTH;
use crate::time::SimTime;

/// Cross-CG transfer bandwidth over the network-on-chip. Inter-CG traffic
/// goes through main memory, so it is bounded by a CG's memory bandwidth.
const NOC_BANDWIDTH: f64 = CG_MEM_BANDWIDTH;

/// Time to move `bytes` from one CG's memory space to another's.
pub fn noc_transfer_time(bytes: usize) -> SimTime {
    SimTime::from_seconds(bytes as f64 / NOC_BANDWIDTH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noc_transfer_uses_memory_bandwidth() {
        let t = noc_transfer_time(34_000_000); // 1 ms at 34 GB/s
        assert!((t.seconds() - 1.0e-3).abs() < 1e-9);
    }
}

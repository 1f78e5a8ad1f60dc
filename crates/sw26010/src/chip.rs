//! Whole-chip model: four core groups behind a network-on-chip.
//!
//! swCaffe treats the four CGs as four quasi-independent workers that share
//! nothing but main-memory bandwidth for the gradient sum (Algorithm 1);
//! the chip model therefore only needs CG containers plus the NoC transfer
//! cost used when CG0 gathers the other CGs' gradients.

use crate::arch::{CG_MEM_BANDWIDTH, CORE_GROUPS};
use crate::cg::CoreGroup;
use crate::time::{ExecMode, SimTime};

/// Cross-CG transfer bandwidth over the network-on-chip. Inter-CG traffic
/// goes through main memory, so it is bounded by a CG's memory bandwidth.
pub(crate) const NOC_BANDWIDTH: f64 = CG_MEM_BANDWIDTH;

/// One SW26010 chip: 4 core groups.
#[derive(Debug, Default)]
pub struct Chip {
    pub cgs: Vec<CoreGroup>,
}

impl Chip {
    pub fn new(mode: ExecMode) -> Self {
        Chip {
            cgs: (0..CORE_GROUPS).map(|_| CoreGroup::new(mode)).collect(),
        }
    }

    /// A chip whose four core groups all record sanitizer traces.
    pub fn new_checked(mode: ExecMode) -> Self {
        Chip {
            cgs: (0..CORE_GROUPS)
                .map(|_| CoreGroup::new_checked(mode))
                .collect(),
        }
    }

    /// Drain recorded kernel traces from all core groups, in CG order.
    pub fn take_traces(&mut self) -> Vec<crate::check::KernelTrace> {
        self.cgs
            .iter_mut()
            .flat_map(|cg| cg.take_traces())
            .collect()
    }

    /// Time to move `bytes` from one CG's memory space to another's.
    pub fn noc_transfer_time(bytes: usize) -> SimTime {
        SimTime::from_seconds(bytes as f64 / NOC_BANDWIDTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_has_four_core_groups() {
        let chip = Chip::new(ExecMode::TimingOnly);
        assert_eq!(chip.cgs.len(), 4);
    }

    #[test]
    fn noc_transfer_uses_memory_bandwidth() {
        let t = Chip::noc_transfer_time(34_000_000); // 1 ms at 34 GB/s
        assert!((t.seconds() - 1.0e-3).abs() < 1e-9);
    }
}

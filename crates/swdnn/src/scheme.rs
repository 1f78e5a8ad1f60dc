//! Declarative tiling schemes for the CPE-mesh GEMM family.
//!
//! A [`TilingScheme`] is the whole description of a GEMM kernel: the LDM
//! block extents (`mt`/`nt`/`kt`), the DMA staging depth (synchronous vs
//! prefetched tile loads) and how tiles reach the CPEs (row+col bus
//! broadcasts vs per-CPE DMA replication). This module defines the type
//! and what makes a value of it admissible; [`crate::gemm`] holds the
//! one kernel body the scheme parameterises and derives the rest from
//! it there — [`TilingScheme::kernel_plan`] from the LDM buffer table
//! the kernel allocates, [`TilingScheme::time_model`] and
//! `TilingScheme::stats_model` from the shared per-phase cost terms.
//! The strategy enums are parameters of that one body, not selectors
//! between sibling kernels. The `swtune` searcher enumerates the space;
//! the hand-picked default is just one point in it
//! ([`TilingScheme::hand`]).
//!
//! Feasibility is part of the type's contract: [`TilingScheme::validate`]
//! goes through the same [`sw26010::KernelPlan::validate`] the launch
//! path enforces, so an infeasible scheme is rejected with the
//! named-buffer diagnostic in release builds.

use sw26010::PlanViolation;

use crate::gemm::TilePlan;
use crate::shapes::GemmDims;

/// DMA staging depth of the tile loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffering {
    /// Synchronous loads: each K panel's tiles are fetched, then used.
    Single,
    /// Two staging pairs; the next panel's fetch overlaps this panel's
    /// broadcast-and-accumulate steps (async DMA engine).
    Double,
}

/// How tiles reach the CPEs that need them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Broadcast {
    /// Row and column bus broadcasts (Fig. 3 / Principle 4): each element
    /// of A and B is DMA-fetched once per panel pass.
    RowCol,
    /// No register communication: every CPE DMA-replicates the full A row
    /// strip and B column strip itself (~8x the traffic). Kept in the
    /// search space as an honest, runnable alternative — the searcher has
    /// to *show* the broadcasts win rather than assume it.
    DmaReplicate,
}

/// One point in the GEMM design space: block extents + strategy enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingScheme {
    pub tile: TilePlan,
    pub buffering: Buffering,
    pub broadcast: Broadcast,
}

impl TilingScheme {
    /// The hand-picked plan every kernel shipped before the tuner: the
    /// `TilePlan::choose` extents, synchronous loads, bus broadcasts.
    pub fn hand(dims: GemmDims) -> TilingScheme {
        TilingScheme {
            tile: TilePlan::choose(dims),
            buffering: Buffering::Single,
            broadcast: Broadcast::RowCol,
        }
    }

    /// Structural feasibility: positive extents, a strategy pair the
    /// kernel implements, and an LDM-fitting working set for *this*
    /// variant (double buffering and DMA replication both cost more LDM
    /// than the base kernel). Replicated strips have no prefetch path, so
    /// `(DmaReplicate, Double)` is not a kernel and is rejected.
    pub fn validate(&self) -> Result<(), PlanViolation> {
        let TilePlan { mt, nt, kt } = self.tile;
        let no_such_kernel =
            self.broadcast == Broadcast::DmaReplicate && self.buffering == Buffering::Double;
        if mt == 0 || nt == 0 || kt == 0 || no_such_kernel {
            return Err(PlanViolation::BadGeometry {
                plan: format!("{} ({})", self.kernel_plan().name, self.label()),
                n_cpes: 0,
            });
        }
        self.kernel_plan().validate()
    }

    /// Compact display form, e.g. `16x24x32+db` or `8x8x8+norlc`.
    pub fn label(&self) -> String {
        let mut s = format!("{}x{}x{}", self.tile.mt, self.tile.nt, self.tile.kt);
        if self.buffering == Buffering::Double {
            s.push_str("+db");
        }
        if self.broadcast == Broadcast::DmaReplicate {
            s.push_str("+norlc");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trans;

    #[test]
    fn hand_scheme_is_feasible_for_extreme_dims() {
        for dims in [
            GemmDims::new(1, 1, 1),
            GemmDims::new(4096, 4096, 4096),
            GemmDims::new(64, 50176, 27),
        ] {
            TilingScheme::hand(dims).validate().unwrap();
        }
    }

    #[test]
    fn variant_feasibility_binds_at_different_extents() {
        // A tile that fits the broadcast kernel can overflow the no-RLC
        // kernel (8x strips) — validate() must see the variant.
        let tile = TilePlan {
            mt: 32,
            nt: 32,
            kt: 32,
        };
        let rowcol = TilingScheme {
            tile,
            buffering: Buffering::Single,
            broadcast: Broadcast::RowCol,
        };
        rowcol.validate().unwrap();
        let norlc = TilingScheme {
            broadcast: Broadcast::DmaReplicate,
            ..rowcol
        };
        assert!(matches!(
            norlc.validate(),
            Err(PlanViolation::LdmOverflow { .. })
        ));
    }

    #[test]
    fn replicated_strips_cannot_be_double_buffered() {
        // There is no prefetch path over replicated strips: running the
        // pair single-buffered would mislabel it `+db+norlc`.
        let s = TilingScheme {
            tile: TilePlan {
                mt: 2,
                nt: 2,
                kt: 2,
            },
            buffering: Buffering::Double,
            broadcast: Broadcast::DmaReplicate,
        };
        match s.validate() {
            Err(PlanViolation::BadGeometry { plan, .. }) => {
                assert!(plan.contains("+db+norlc"), "{plan}")
            }
            other => panic!("expected BadGeometry, got {other:?}"),
        }
        let refused = std::panic::catch_unwind(|| {
            let mut cg = sw26010::CoreGroup::new(sw26010::ExecMode::TimingOnly);
            let dims = GemmDims::new(16, 16, 16);
            crate::gemm::gemm_with_scheme(&mut cg, dims, Trans::No, Trans::No, 0.0, s, None)
        });
        assert!(refused.is_err(), "the kernel entry must refuse the pair");
    }

    #[test]
    fn labels_are_compact() {
        let s = TilingScheme {
            tile: TilePlan {
                mt: 16,
                nt: 24,
                kt: 32,
            },
            buffering: Buffering::Double,
            broadcast: Broadcast::RowCol,
        };
        assert_eq!(s.label(), "16x24x32+db");
    }
}

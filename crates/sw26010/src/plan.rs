//! Declarative kernel metadata for static (pre-execution) checking.
//!
//! Every swdnn kernel registers a [`KernelPlan`]: the LDM buffers it will
//! allocate, its register-communication pattern, and how many DMA
//! requests it keeps in flight. The plan is a *claim* that can be
//! validated without running anything — most importantly that the working
//! set fits the 64 KB LDM for a given problem shape — so an overflowing
//! shape is **rejected before launch** with a named-buffer diagnostic
//! instead of panicking (or silently corrupting state) mid-kernel. The
//! `swcheck` crate lints the plans of the whole kernel zoo across the
//! benchmark shape sweep, and its sanitizer cross-checks the claims
//! against recorded traces (observed high water ≤ planned bytes).

use crate::arch::{CPES_PER_CG, LDM_BYTES};

/// One named LDM buffer a kernel plans to allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanBuffer {
    pub(crate) name: String,
    pub(crate) bytes: usize,
}

/// The register-communication schedule class of a kernel. Coarse on
/// purpose: enough for the linter to know which buses must be matched and
/// for diagnostics to describe the kernel, without encoding every send.
/// Any pattern but `None` also gives the launch its register buses and
/// barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RlcPattern {
    /// Independent bodies: no register communication and no barrier. The
    /// launch builds neither, and an RLC or barrier call in it panics.
    #[default]
    None,
    /// Each step one CPE broadcasts along its row bus.
    RowBroadcast,
    /// Each step one CPE broadcasts along its column bus.
    ColBroadcast,
    /// Row and column broadcasts in the same kernel (broadcast GEMM).
    RowAndColBroadcast,
    /// Point-to-point sends between mesh neighbours.
    PointToPoint,
}

/// Declarative description of one mesh kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPlan {
    pub name: String,
    pub(crate) n_cpes: usize,
    pub(crate) buffers: Vec<PlanBuffer>,
    pub(crate) rlc: RlcPattern,
    /// Maximum DMA requests the kernel keeps un-waited at any time.
    pub(crate) max_inflight_dma: usize,
}

/// Why a [`KernelPlan`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// The planned working set exceeds LDM capacity. Lists every buffer
    /// so the offender is obvious.
    LdmOverflow {
        plan: String,
        required: usize,
        capacity: usize,
        buffers: Vec<PlanBuffer>,
    },
    /// `n_cpes` outside `1..=64`.
    BadGeometry { plan: String, n_cpes: usize },
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanViolation::LdmOverflow {
                plan,
                required,
                capacity,
                buffers,
            } => {
                write!(
                    f,
                    "kernel plan `{plan}` overflows LDM: {required} B planned \
                     vs {capacity} B capacity ("
                )?;
                for (i, b) in buffers.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{} {} B", b.name, b.bytes)?;
                }
                write!(f, "); choose a smaller block size for this shape")
            }
            PlanViolation::BadGeometry { plan, n_cpes } => write!(
                f,
                "kernel plan `{plan}` requests {n_cpes} CPEs (must be 1..=64)"
            ),
        }
    }
}

impl std::error::Error for PlanViolation {}

impl KernelPlan {
    pub fn new(name: impl Into<String>, n_cpes: usize) -> Self {
        KernelPlan {
            name: name.into(),
            n_cpes,
            buffers: Vec::new(),
            rlc: RlcPattern::None,
            max_inflight_dma: 1,
        }
    }

    /// Declare an LDM buffer (builder style).
    pub fn buffer(mut self, name: impl Into<String>, bytes: usize) -> Self {
        self.buffers.push(PlanBuffer {
            name: name.into(),
            bytes,
        });
        self
    }

    pub fn rlc(mut self, pattern: RlcPattern) -> Self {
        self.rlc = pattern;
        self
    }

    pub fn inflight_dma(mut self, n: usize) -> Self {
        self.max_inflight_dma = n;
        self
    }

    /// Total planned LDM working set in bytes.
    pub fn ldm_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.bytes).sum()
    }

    /// Check the plan against the hardware's structural limits.
    pub fn validate(&self) -> Result<(), PlanViolation> {
        if !(1..=CPES_PER_CG).contains(&self.n_cpes) {
            return Err(PlanViolation::BadGeometry {
                plan: self.name.clone(),
                n_cpes: self.n_cpes,
            });
        }
        let required = self.ldm_bytes();
        if required > LDM_BYTES {
            return Err(PlanViolation::LdmOverflow {
                plan: self.name.clone(),
                required,
                capacity: LDM_BYTES,
                buffers: self.buffers.clone(),
            });
        }
        Ok(())
    }

    /// Panic with the violation message if the plan is invalid. Kernel
    /// entry points call this so bad shapes fail *before* the launch.
    pub(crate) fn assert_valid(&self) {
        if let Err(v) = self.validate() {
            panic!("{v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitting_plan_validates() {
        let p = KernelPlan::new("gemm", 64)
            .buffer("a_tile", 16 * 1024)
            .buffer("b_tile", 16 * 1024)
            .buffer("c_tile", 16 * 1024)
            .rlc(RlcPattern::RowAndColBroadcast)
            .inflight_dma(2);
        assert_eq!(p.ldm_bytes(), 48 * 1024);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn overflowing_plan_is_rejected_with_buffer_names() {
        let p = KernelPlan::new("huge", 64)
            .buffer("a", 40 * 1024)
            .buffer("b", 40 * 1024);
        let err = p.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("overflows LDM"), "{msg}");
        assert!(msg.contains("a 40960 B + b 40960 B"), "{msg}");
        assert!(msg.contains("81920 B planned vs 65536 B capacity"), "{msg}");
    }

    #[test]
    fn bad_geometry_is_rejected() {
        assert!(matches!(
            KernelPlan::new("none", 0).validate(),
            Err(PlanViolation::BadGeometry { .. })
        ));
        assert!(matches!(
            KernelPlan::new("big", 65).validate(),
            Err(PlanViolation::BadGeometry { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "overflows LDM")]
    fn assert_valid_panics_on_overflow() {
        KernelPlan::new("huge", 64)
            .buffer("a", 128 * 1024)
            .assert_valid();
    }
}

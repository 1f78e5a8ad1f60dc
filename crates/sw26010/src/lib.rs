//! # sw26010 — functional + timing simulator of the SW26010 many-core processor
//!
//! The SW26010 powers the Sunway TaihuLight supercomputer. Each chip has
//! four *core groups* (CG); each CG pairs a management processing element
//! (MPE) with an 8x8 mesh of compute processing elements (CPE). CPEs have
//! no cache — only a 64 KB software-managed scratch-pad (LDM) — and reach
//! main memory exclusively through DMA. CPEs in the same row or column can
//! exchange 256-bit packets over register buses.
//!
//! This crate simulates that machine at the level algorithm design
//! happens: kernels are closures over a [`cpe::Cpe`] context that exposes
//! exactly the hardware resources (LDM allocation, continuous/strided DMA,
//! row/column register communication, vector pipelines, mesh barrier).
//! Kernels execute *functionally* — data really moves, and the CPE bodies
//! of a launch run as cooperative tasks on the launching thread, so a
//! register receive really waits for its sender and a wrong schedule
//! really deadlocks (see [`mesh`]) — while every operation is charged to
//! a calibrated timing model:
//!
//! * DMA bandwidth as a function of transfer size, stride block size and
//!   CPE concurrency, calibrated to Fig. 2 of the swCaffe paper;
//! * register communication at one 256-bit packet per cycle per bus;
//! * vector compute at 8 double-precision flops per CPE cycle (the chip
//!   has no native single precision — Table I's float and double peaks are
//!   identical, and the simulator inherits that);
//! * MPE-mediated copies at 9.9 GB/s (why Principle 2 exists).
//!
//! ```
//! use sw26010::{CoreGroup, ExecMode, MemView, MemViewMut};
//!
//! // Scale a vector by 2 on all 64 CPEs: DMA in, compute, DMA out.
//! let input = vec![1.0f32; 64 * 256];
//! let mut output = vec![0.0f32; 64 * 256];
//! let src = MemView::new(&input);
//! let dst = MemViewMut::new(&mut output);
//! let report = CoreGroup::new(ExecMode::Functional).run(64, |cpe| {
//!     let n = 256;
//!     let mut buf = cpe.ldm.alloc_f32(n);
//!     cpe.dma_get(src, cpe.idx() * n, &mut buf);
//!     cpe.compute(n as u64, || {
//!         for v in buf.iter_mut() {
//!             *v *= 2.0;
//!         }
//!     });
//!     cpe.dma_put(dst, cpe.idx() * n, &buf);
//! });
//! assert!(output.iter().all(|&v| v == 2.0));
//! assert!(report.elapsed.seconds() > 0.0);
//! ```

pub mod arch;
pub mod cg;
pub mod check;
pub mod chip;
pub mod cpe;
pub mod dma;
pub mod ldm;
pub mod mesh;
pub mod phase;
pub mod plan;
pub mod rlc;
pub mod stats;
pub mod time;
pub mod view;

pub use cg::CoreGroup;
pub use check::{BlockedOn, CheckMode, CpeEvent, CpeTrace, KernelTrace, MemRange};
pub use chip::Chip;
pub use cpe::{Cpe, DmaHandle};
pub use ldm::{Ldm, LdmBuf, LdmOverflow};
pub use phase::{PhaseRecorder, ScopeRecord};
pub use plan::{KernelPlan, PlanBuffer, PlanViolation, RlcPattern};
pub use stats::{LaunchReport, Stats};
pub use time::{ExecMode, SimTime};
pub use view::{MemView, MemViewMut};

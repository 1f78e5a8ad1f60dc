//! # swdnn — DNN kernels for the (simulated) SW26010 CPE cluster
//!
//! Rust reproduction of the layer-kernel library behind swCaffe
//! (Section IV of the paper, building on swDNN \[4\]): register-communication
//! GEMM, explicit (im2col/col2im) and implicit convolution with a mixed
//! autotuning strategy, tensor layout transformation, pooling, and the
//! element-wise / normalisation kernels the five benchmark networks need.
//!
//! Every kernel runs under three interpreters, picked per launch by the
//! core group's [`sw26010::ExecMode`] (each kernel matches on
//! `cg.mode()` itself): `Functional` runs the mesh on the `sw26010`
//! simulator, `HostNative { threads }` runs on the host's own cores, and
//! `TimingOnly` charges the analytic timing model. A kernel has a host
//! body only if a benchmark workload or probe runs it on `HostNative`;
//! the rest (the implicit convolution, LRN, RCNB -> NCHW, `copy_blocks`,
//! `sumsq`) run their mesh body there, on a `Functional` core group of
//! their own, and charge the caller nothing. The mesh and host paths of
//! every other non-GEMM kernel call one shared per-item function, so they
//! agree bit for bit by construction; the GEMM family's host side
//! ([`mod@host`]) agrees with the mesh by written contract. Both are
//! checked against the scalar oracles in [`mod@reference`] and against
//! inline f64 oracles, and the timing models against mesh execution.
//!
//! A kernel keeps no state of its own between calls. What it stages in
//! main memory (the explicit convolution's column matrix, the host
//! GEMM's packed operands) lives in the launching core group's
//! [`sw26010::Workspace`], which every kernel reaches through the
//! `&mut CoreGroup` it already takes: the buffers are reused for as long
//! as that core group lives, and their contents never reach a result.
//! The host path forks onto that core group's [`sw26010::Workers`] the
//! same way, so a kernel starts no thread of its own.

pub mod bn;
pub mod conv;
pub mod conv_explicit;
pub mod conv_implicit;
pub mod elementwise;
pub mod fused;
pub mod gemm;
pub mod host;
pub mod im2col;
pub mod lrn;
pub mod pool;
pub mod reference;
pub mod scheme;
pub mod shapes;
pub mod softmax;
mod tile;
pub mod transform;

pub use conv_explicit::ExplicitSchemes;
pub use conv_implicit::{ConvTiles, ImplicitPass};
pub use scheme::{Broadcast, Buffering, TilingScheme};
pub use shapes::{ConvShape, GemmDims, PoolMethod, PoolShape, ShapeError, Trans};

use sw26010::arch::{CPE_DP_FLOPS_PER_CYCLE, KERNEL_COMPUTE_EFFICIENCY};
use sw26010::{CoreGroup, ExecMode, LaunchReport, SimTime};

/// Both functional backends: the unit tests run each kernel with a host
/// body on both against their independent oracles.
#[cfg(test)]
pub(crate) const FUNCTIONAL_MODES: [sw26010::ExecMode; 2] = [
    sw26010::ExecMode::Functional,
    sw26010::ExecMode::HostNative { threads: 2 },
];

/// Duration of `flops` vector operations at the tuned-kernel rate — the
/// unit the per-kernel timing models are built from.
pub(crate) fn gemm_flop_time(flops: u64) -> SimTime {
    SimTime::from_cycles(flop_cycles(flops))
}

/// Cycles of `flops` vector operations at the tuned-kernel rate.
pub(crate) fn flop_cycles(flops: u64) -> f64 {
    flops as f64 / (CPE_DP_FLOPS_PER_CYCLE * KERNEL_COMPUTE_EFFICIENCY)
}

/// What every kernel does in timing-only mode: charge its modelled
/// duration to the core group's timeline and report it. (Only the GEMM
/// has a counter model to report alongside.)
pub(crate) fn charge_model(cg: &mut CoreGroup, elapsed: SimTime) -> LaunchReport {
    cg.charge(elapsed);
    LaunchReport {
        elapsed,
        stats: Default::default(),
    }
}

/// What a kernel without a host body does in `HostNative` mode: run its
/// mesh body (`kernel`, called on a `Functional` core group of its own)
/// and report what a host body would, no time and no counters. The
/// caller's core group is left untouched: no clock, no trace, no thread.
pub(crate) fn run_mesh_body(kernel: impl FnOnce(&mut CoreGroup) -> LaunchReport) -> LaunchReport {
    kernel(&mut CoreGroup::new(ExecMode::Functional));
    LaunchReport::default()
}

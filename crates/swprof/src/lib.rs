//! # swprof — structured benchmark reports for the swCaffe stack
//!
//! Every table/figure regenerator in `crates/bench` used to print
//! free-form text, which made the paper's quantitative claims (Figs.
//! 2/5-11, Tables 1-3) impossible to regression-test. This crate defines
//! the machine-readable [`Report`] those binaries now emit alongside
//! their text output:
//!
//! * hierarchical **phase timings** (the compute/intra/allreduce/update
//!   breakdown of [`ChipIteration`](../swtrain) iterations),
//! * per-kernel **hardware-counter snapshots** ([`StatsSnap`], mirroring
//!   [`sw26010::Stats`]: DMA bytes/requests, register-communication
//!   traffic, flops, busy time),
//! * derived **roofline attribution** ([`Bound`]): whether a kernel or
//!   layer is bandwidth- or compute-bound on a given machine balance,
//! * flat **metrics** that `bench check` diffs against checked-in
//!   baselines with per-class tolerances ([`compare()`]).
//!
//! Counter metrics are exact (`u64`, 0% tolerance — the simulator is
//! deterministic); timing metrics carry a relative tolerance so small,
//! intentional cost-model recalibrations can be absorbed by re-blessing.

pub mod compare;
pub mod report;
pub mod serve;

pub use compare::{compare, Drift, DriftKind, Tolerance};
pub use report::{Bound, KernelRecord, Metric, MetricValue, PhaseTiming, Report, StatsSnap};
pub use serve::ServeHealthCounters;

//! # swcheck — kernel sanitizer + static lint pass for SW26010 kernels
//!
//! Correctness tooling for the simulated SW26010 kernel zoo, in two
//! halves:
//!
//! * **Dynamic sanitizer** (`sanitize`): replays the typed event
//!   traces a [`sw26010::CheckMode::Record`] core group captures
//!   (every DMA issue/wait, register-communication send/recv, mesh
//!   barrier, and LDM alloc/free on every CPE) and proves
//!   happens-before properties — no use of a buffer before its
//!   `dma_wait`, no double-waits or leaked handles, matched send/recv
//!   counts on both buses, uniform barrier arrival, no declared
//!   register-communication pattern left unused — and classifies
//!   stalled launches as deadlock or barrier divergence with per-CPE
//!   blocked-on diagnostics.
//! * **Static lint** ([`lint`]): validates the [`sw26010::KernelPlan`]
//!   every swdnn kernel registers, across the benchmark shape sweep,
//!   proving LDM fit *before* execution and rejecting overflowing
//!   shapes with named-buffer diagnostics.
//!
//! [`suite`] drives the whole swdnn kernel zoo under the sanitizer and
//! [`report`] serializes findings as deterministic `swjson` documents
//! for CI artifacts.

pub mod comm;
pub mod graph;
pub mod lint;
pub mod report;
pub(crate) mod sanitize;
pub mod suite;

pub use comm::{check_schedule, check_spec, CheckMode, CommOutcome, CommViolation};
pub use graph::{check_model_zoo, check_net_def, GraphOutcome};
pub use lint::{lint_benchmark_sweep, lint_plans, LintOutcome};
pub use report::{comm_report_json, graph_report_json, report_json};
pub use sanitize::{check_trace_against_plan, check_traces, Violation, ViolationKind};
pub use suite::{drive_kernel_zoo, run_suite, summarize, SuiteOutcome};

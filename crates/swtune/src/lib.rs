//! # swtune — offline LDM tiling-plan search (ROADMAP item 2)
//!
//! swCaffe's kernels historically shipped with hand-picked blocking:
//! `TilePlan::choose` for the register-communication GEMM and the
//! `div_ceil(8)` channel/batch tiles of the implicit-GEMM convolution.
//! This crate replaces those constants with a *searched* choice:
//!
//! * [`space`] enumerates the candidate [`swdnn::TilingScheme`]s and
//!   [`swdnn::ConvTiles`] a layer shape admits. Every candidate passes
//!   the same `KernelPlan::validate` feasibility gate the launch path
//!   enforces — the searcher cannot emit an LDM-overflowing plan.
//! * [`search`] scores candidates with the kernels' own analytic cost
//!   models (the exact times a `TimingOnly` core group would charge) and
//!   picks a per-layer, per-pass winner. The visit order is seedable but
//!   the winner is an order-independent argmin, so results are
//!   deterministic regardless of seed.
//! * [`db`] persists the winners in a JSON tune DB (via `swjson`) keyed
//!   by layer shape, with an invalidation key tied to the machine model
//!   and the search-space version.
//! * [`shapes`] owns the canonical Table II layer sweep (VGG-16 conv
//!   layers at batch 128) that the benchmarks and `swcheck` share.
//!
//! The `swtune` binary regenerates `docs/tune/tune_db.json` and, with
//! `--check`, verifies the committed DB is byte-identical to a fresh
//! search — the CI determinism gate.

pub mod db;
pub mod search;
pub mod shapes;
pub mod space;

pub use db::TuneDb;
pub use search::{tune_all, LayerTuning, PassTuning, TunedPlan, DEFAULT_SEED};
pub use shapes::vgg_conv_shapes;

//! # swtrain — scaling swCaffe across the (simulated) TaihuLight
//!
//! Section V of the paper: Algorithm 1's four-core-group synchronous SGD
//! with its priced handshake (Fig. 5), gradient packing, the
//! topology-aware all-reduce across nodes, and the scaling analytics
//! behind Figs. 10 and 11.
//!
//! Functional mode runs every core group (and every node, at small
//! scales) with real threads and real gradients — tests prove the
//! distributed update is bit-for-bit the large-batch centralised update.
//! Timing mode drives the same code paths against the cost models for the
//! 1024-node sweeps.
//!
//! Beyond the paper, [`buckets`] adds a backward-overlapped communication
//! mode ([`CommMode::Overlapped`]): per-layer gradient-ready events from
//! backward are grouped into size-targeted buckets and each bucket's
//! segmented all-reduce overlaps the remaining compute. The schedule is
//! bit-identical to the paper's monolithic packed reduce (asserted per
//! algorithm) and the serialized path stays the default.

pub mod buckets;
pub mod cluster;
pub mod packing;
pub mod profile;
pub mod scaling;
pub mod ssgd;
pub mod trainer;

pub use buckets::{
    build_buckets, overlapped_allreduce_ft, GradBucket, OverlapModel, OverlapOutcome, OverlapPoint,
    DEFAULT_BUCKET_BYTES,
};
pub use cluster::{ClusterConfig, ClusterIteration, ClusterTrainer, CommMode, Recovery};
pub use packing::{pack_gradients, pack_params, unpack_gradients, unpack_params};
pub use scaling::{ScalingModel, ScalingPoint};
pub use ssgd::{evaluate, CgBatch, ChipIteration, ChipTrainer};
pub use swnet::{CollectiveFault, FaultPlan, FaultReport, FaultSession};
pub use trainer::{TrainConfig, TrainRecord, Trainer};

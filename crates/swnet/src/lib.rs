//! # swnet — TaihuLight interconnect model and collectives
//!
//! The substrate for Sec. V of the paper: the two-level network topology
//! (supernodes of 256 under a quarter-bandwidth central switch), the
//! alpha-beta-gamma cost model calibrated to the Fig. 6 microbenchmarks,
//! and four all-reduce implementations — ring, binomial tree, MPICH-style
//! recursive halving/doubling, and the paper's contribution: the same
//! halving/doubling under a round-robin supernode rank mapping that keeps
//! the heavy steps off the over-subscribed switch, plus CPE-cluster
//! offload of the reduction arithmetic.
//!
//! All collectives run *functionally* over per-node buffers (so tests can
//! assert every algorithm computes the same sums) while a bulk-synchronous
//! step machinery accumulates simulated time; `analysis` carries the
//! closed-form Equations 2-6 and the Fig. 7 example, cross-validated
//! against the machinery.

pub mod analysis;
pub(crate) mod collectives;
pub mod cost;
pub(crate) mod primitives;
pub mod schedule;
pub mod topology;

pub use collectives::{allreduce, allreduce_segment_ft, Algorithm, AllreduceReport};
pub use cost::{NetParams, ReduceEngine, Route, Transfer, TransferClass};
pub use primitives::parameter_server_round;
pub use schedule::{
    ChunkSpan, CommPhase, CommSchedule, CommSpec, RankOp, ScheduleError, StepClasses, StepOps,
    UniformStep,
};
pub use swfault::{CollectiveFault, FaultPlan, FaultReport, FaultSession};
pub use topology::{RankMap, Topology, TopologyError, OVERSUBSCRIPTION, SUPERNODE_SIZE};

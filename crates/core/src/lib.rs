//! # swcaffe-core — the swCaffe framework
//!
//! Caffe's three components (layers / net / solvers, Sec. II-C of the
//! paper) re-hosted on the simulated SW26010: layers wrap the `swdnn`
//! kernel library, the net schedules forward/backward over a DAG of
//! blobs, and the SGD solver exposes the hooks the distributed trainer
//! (`swtrain`) uses for synchronous data-parallel training.
//!
//! Networks are declared as JSON-serialisable [`netdef::NetDef`] values;
//! [`models`] provides the five networks the paper evaluates (AlexNet-BN,
//! VGG-16, VGG-19, ResNet-50, GoogLeNet) with their Table III batch sizes.

pub mod blob;
pub mod filler;
pub mod layer;
pub mod layers;
pub mod lint;
pub mod models;
pub mod net;
pub mod netdef;
pub mod rng;
pub mod snapshot;
pub mod solver;

pub use blob::Blob;
pub use layer::{Layer, Phase};
pub use lint::{infer_shapes, lint_def, GraphViolation};
pub use net::{GradReady, LayerOp, LayerSnapshot, LayerTimes, Net};
pub use netdef::{ConvFormat, LayerDef, LayerKind, NetDef, PoolKind, TransDir};
pub use solver::{SgdSolver, SolverConfig};

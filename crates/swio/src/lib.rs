//! # swio — parallel I/O substrate (Sec. V-B of the paper)
//!
//! Three pieces: a disk-array/striping model of the TaihuLight shared
//! filesystem (single-split vs the paper's 32-way, 256 MB round-robin
//! striping), a deterministic synthetic ImageNet stand-in (the real
//! dataset is not available here; record sizes match the paper's 192 MB
//! per 256-image mini-batch), and a real background prefetch thread per
//! worker that hides simulated disk time behind compute.

pub mod dataset;
pub mod prefetch;
pub(crate) mod stripefs;

pub use dataset::{SyntheticImageNet, CLASSES};
pub use prefetch::{io_stall, Batch, Prefetcher, ReadError};
pub use stripefs::{IoModel, Layout};

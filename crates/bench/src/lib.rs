//! # swcaffe-bench — regenerators for every table and figure in the paper
//!
//! Each experiment in DESIGN.md's index is a scenario in [`scenarios`]:
//! it produces the paper-style text table *and* a structured
//! [`swprof::Report`]. The one `bench` binary runs a scenario by name
//! (`bench fig7_allreduce [--json PATH]`) or gates the reports against
//! the checked-in baselines (`bench check`).

pub mod scenarios;

pub use scenarios::{find, Scenario, SCENARIOS};

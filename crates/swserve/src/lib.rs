//! # swserve — batched multi-CG inference serving for swCaffe
//!
//! Five pieces, composable and individually testable:
//!
//! - [`graph`]: freeze a trained `Net` into a [`FrozenGraph`] — weights
//!   captured, training-only nodes removed, inverse transforms folded,
//!   conv+BN+ReLU chains fused (bit-identically), and a topological
//!   eval schedule computed.
//! - [`engine`]: execute a frozen graph on one core group in any
//!   `ExecMode` — the same engine runs on the simulated SW26010 mesh,
//!   host-native threads, or timing-only.
//! - [`batcher`]: the deterministic virtual-time dynamic-batching
//!   policy that coalesces an open-loop arrival stream into batches
//!   under a latency SLO and dispatches them across replicas — its
//!   types, trace generators, admission check and fault-free entry
//!   [`simulate`].
//! - [`resilient`]: the one serving event loop, which runs that policy
//!   with the fault-tolerance layer built in — per-replica health state
//!   machine, deadline-aware retry with failover, hedged dispatch,
//!   snapshot re-warm and tiered brown-out degradation, all driven by a
//!   seeded `swfault` serving fault plan (empty for [`simulate`]).
//! - [`error`]: the typed [`ServeError`] every fallible serving path
//!   returns instead of panicking.
//!
//! [`Cluster`] ties them together: one engine per core group (the
//! chip's four CGs serve as independent replicas, mirroring how
//! `swtrain` uses them as data-parallel trainers), driven by the event
//! loop over a shared virtual clock.

pub mod batcher;
pub mod engine;
pub mod error;
pub mod graph;
pub mod resilient;

pub use batcher::{
    poisson_trace, poisson_trace_tiered, simulate, BatchConfig, Request, ServeOutcome,
};
pub use engine::{bucket, verify_response, Engine};
pub use error::ServeError;
pub use graph::{def_with_batch, optimize, topo_schedule, FrozenGraph, OptimizeStats};
pub use resilient::{simulate_ft, FtServeOutcome, Health, HealthTransition, ResilienceConfig};

use sw26010::{arch, ExecMode};
use swfault::serve::{ServeFaultPlan, ServeFaultSession};

/// A chip-level serving cluster: one [`Engine`] replica per core group.
pub struct Cluster {
    engines: Vec<Engine>,
}

impl Cluster {
    /// One replica per core group (the chip's 4 CGs).
    pub fn new(graph: &FrozenGraph, mode: ExecMode) -> Cluster {
        Cluster {
            engines: (0..arch::CORE_GROUPS)
                .map(|_| Engine::new(graph.clone(), mode))
                .collect(),
        }
    }

    pub fn engines_mut(&mut self) -> &mut [Engine] {
        &mut self.engines
    }

    /// Latency model shared by all replicas (they are identical).
    pub fn latency_seconds(&mut self, batch: usize) -> Result<f64, ServeError> {
        self.engines[0].latency_seconds(batch)
    }

    /// Memoized per-bucket latency table covering batches `1..=max`,
    /// indexed by bucket exponent — lets the simulation loop read the
    /// latency model infallibly after one fallible warm-up.
    fn latency_lut(&mut self, max: usize) -> Result<Vec<f64>, ServeError> {
        let top = engine::bucket(max.max(1));
        let mut lut = Vec::new();
        let mut b = 1usize;
        loop {
            lut.push(self.engines[0].latency_seconds(b)?);
            if b >= top {
                break;
            }
            b *= 2;
        }
        Ok(lut)
    }

    /// Serve `trace` fault-free ([`batcher::simulate`]) with this
    /// cluster's replicas and latency model.
    pub fn serve(
        &mut self,
        trace: &[Request],
        cfg: &BatchConfig,
    ) -> Result<ServeOutcome, ServeError> {
        let replicas = self.engines.len();
        let lut = self.latency_lut(cfg.max_batch)?;
        batcher::simulate(trace, replicas, cfg, &mut |b| {
            lut[(engine::bucket(b).trailing_zeros() as usize).min(lut.len() - 1)]
        })
    }

    /// Drive the serving event loop over `trace` under `plan`. The
    /// per-request SLO, retry budget and brown-out policy come from
    /// `cfg`/`res`; every fault comes from the seeded plan, so the whole
    /// outcome replays bit-identically.
    pub fn serve_ft(
        &mut self,
        trace: &[Request],
        cfg: &BatchConfig,
        res: &ResilienceConfig,
        plan: &ServeFaultPlan,
    ) -> Result<FtServeOutcome, ServeError> {
        let replicas = self.engines.len();
        let lut = self.latency_lut(cfg.max_batch)?;
        let mut session = ServeFaultSession::new(plan.clone());
        resilient::simulate_ft(trace, replicas, cfg, res, &mut session, &mut |b| {
            lut[(engine::bucket(b).trailing_zeros() as usize).min(lut.len() - 1)]
        })
    }
}

//! Deterministic dynamic batching over a virtual clock: the policy's
//! types, the arrival-trace generators, the admission check and the
//! fault-free entry point [`simulate`].
//!
//! The simulation is a pure function of the arrival trace, the latency
//! model and the configuration — no wall clock, no OS scheduling, no
//! randomness — so the same seed and trace always produce identical
//! batch boundaries and per-request latencies on every backend.
//!
//! Policy: requests queue FIFO; the earliest-free replica dispatches a
//! batch either when `max_batch` requests have queued or when the
//! earliest queued request's *queueing budget* (SLO minus the worst-case
//! full-batch execution time) is about to run out. Requests whose
//! budget already expired before the earliest possible dispatch are
//! shed — so every *admitted* request provably meets the SLO.
//!
//! There is one serving simulator: [`simulate`] runs the event loop of
//! [`crate::resilient`] with nothing to inject.

use swcaffe_core::rng::SplitMix64;
use swfault::serve::{ServeFaultPlan, ServeFaultSession};

use crate::error::ServeError;
use crate::resilient::{simulate_ft, ResilienceConfig};

/// Dynamic-batching configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Largest batch a single dispatch may carry.
    pub max_batch: usize,
    /// End-to-end latency objective (seconds) for admitted requests.
    pub slo: f64,
    /// Maximum coalescing wait (seconds) before an unfilled batch is
    /// dispatched anyway. Clamped to the queueing budget, so it can
    /// never push an admitted request past the SLO.
    pub timeout: f64,
}

/// One inference request in the open-loop arrival trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub id: u64,
    /// Arrival time on the virtual clock (seconds).
    pub arrival: f64,
    /// Priority tier: higher keeps service longer under brown-out.
    /// Tier 0 (the default) is the first traffic shed when the
    /// resilience layer's capacity-loss policy escalates to shedding.
    pub tier: u8,
}

/// An admitted request with its simulated life cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedRequest {
    pub id: u64,
    pub arrival: f64,
    pub dispatch: f64,
    pub completion: f64,
    pub replica: usize,
}

impl ServedRequest {
    pub fn latency(&self) -> f64 {
        self.completion - self.arrival
    }
}

/// One dispatched batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    pub replica: usize,
    pub dispatch: f64,
    pub completion: f64,
    pub request_ids: Vec<u64>,
}

/// Result of a serving simulation.
///
/// `served` and `batches` are in resolution order — the order the
/// batches' responses completed on the virtual clock — not in dispatch
/// order, so `served` need not be id-monotone even though admission is
/// FIFO: sort by `(dispatch, id)` to see the dispatch order.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    pub served: Vec<ServedRequest>,
    /// Requests shed because their queueing budget expired before the
    /// earliest possible dispatch (overload).
    pub shed: Vec<u64>,
    pub batches: Vec<BatchRecord>,
    /// Busy seconds per replica.
    pub busy: Vec<f64>,
    /// Completion time of the last batch (virtual seconds).
    pub makespan: f64,
    /// The queueing budget the simulation ran with: SLO minus the
    /// worst-case (full-bucket) execution time.
    pub queue_budget: f64,
}

impl ServeOutcome {
    /// Sorted per-request latencies of admitted requests.
    pub fn latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.served.iter().map(|s| s.latency()).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile of admitted latencies. Degenerate inputs
    /// have pinned results instead of relying on float-cast saturation:
    /// an empty sample returns 0.0, `p` is clamped into `[0, 100]`, and
    /// a NaN `p` reads as the minimum (p = 0).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let v = self.latencies();
        if v.is_empty() {
            return 0.0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)]
    }

    /// Admitted requests per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.served.len() as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Busy fraction per replica over the makespan.
    pub fn utilization(&self) -> Vec<f64> {
        self.busy
            .iter()
            .map(|&b| {
                if self.makespan > 0.0 {
                    b / self.makespan
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Seeded open-loop Poisson arrival trace: `n` requests at `qps`
/// expected arrivals per second, all tier 0.
pub fn poisson_trace(seed: u64, qps: f64, n: usize) -> Vec<Request> {
    poisson_trace_tiered(seed, qps, n, &[0])
}

/// Seeded open-loop Poisson arrival trace with priority tiers assigned
/// round-robin from `tiers` (deterministic in the seed and the tier
/// list), for exercising the brown-out policy's tiered shedding.
pub fn poisson_trace_tiered(seed: u64, qps: f64, n: usize, tiers: &[u8]) -> Vec<Request> {
    assert!(qps > 0.0, "qps must be positive");
    assert!(!tiers.is_empty(), "need at least one tier");
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    (0..n as u64)
        .map(|id| {
            t += -rng.next_f64_open0().ln() / qps;
            Request {
                id,
                arrival: t,
                tier: tiers[(id as usize) % tiers.len()],
            }
        })
        .collect()
}

/// The admission check of the serving event loop: at least one replica,
/// a non-zero batch limit, an SLO a full batch can meet, and arrival
/// times that are finite and non-negative. Returns the trace in
/// processing order — `(arrival, id)` ascending — and the queueing
/// budget (SLO minus the worst-case full-batch execution time).
///
/// `-0.0` counts as negative, so on the accepted domain `total_cmp` and
/// numeric order coincide and hostile inputs are a typed error instead
/// of a panic (or of a silently arbitrary order).
pub(crate) fn admit(
    trace: &[Request],
    replicas: usize,
    cfg: &BatchConfig,
    latency: &mut dyn FnMut(usize) -> f64,
) -> Result<(Vec<Request>, f64), ServeError> {
    if replicas == 0 {
        return Err(ServeError::NoReplicas);
    }
    if cfg.max_batch == 0 {
        return Err(ServeError::ZeroMaxBatch);
    }
    let worst = latency(cfg.max_batch);
    let budget = cfg.slo - worst;
    if budget.is_nan() || budget < 0.0 {
        return Err(ServeError::InfeasibleSlo {
            slo: cfg.slo,
            max_batch: cfg.max_batch,
            worst,
        });
    }
    let unordered = |r: &&Request| !(r.arrival.is_finite() && r.arrival.is_sign_positive());
    if let Some(bad) = trace.iter().find(unordered) {
        return Err(ServeError::BadArrival {
            id: bad.id,
            arrival: bad.arrival,
        });
    }
    let mut requests: Vec<Request> = trace.to_vec();
    requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
    Ok((requests, budget))
}

/// Simulate fault-free serving of `trace` on `replicas` identical
/// replicas. `latency` maps a batch size to its execution time in seconds
/// (the engine buckets internally); it must be monotone in the batch
/// size. This is [`simulate_ft`]'s event loop with an empty fault plan
/// and the default [`ResilienceConfig`].
pub fn simulate(
    trace: &[Request],
    replicas: usize,
    cfg: &BatchConfig,
    latency: &mut dyn FnMut(usize) -> f64,
) -> Result<ServeOutcome, ServeError> {
    let mut session = ServeFaultSession::new(ServeFaultPlan::new(0));
    let res = ResilienceConfig::default();
    simulate_ft(trace, replicas, cfg, &res, &mut session, latency).map(|o| o.outcome)
}

//! Deterministic dynamic batcher over a virtual clock.
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

use std::collections::VecDeque;

use swcaffe_core::rng::SplitMix64;

use crate::error::ServeError;

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

/// The one admission check of both simulators ([`simulate`] and
/// [`crate::resilient::simulate_ft`]): at least one replica, a non-zero
/// batch limit, an SLO a full batch can meet, and arrival times that are
/// finite and non-negative. Returns the trace in processing order —
/// `(arrival, id)` ascending — and the queueing budget (SLO minus the
/// worst-case full-batch execution time).
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

/// Simulate serving `trace` on `replicas` identical replicas. `latency`
/// maps a batch size to its execution time in seconds (the engine
/// buckets internally); it must be monotone in the batch size.
pub fn simulate(
    trace: &[Request],
    replicas: usize,
    cfg: &BatchConfig,
    latency: &mut dyn FnMut(usize) -> f64,
) -> Result<ServeOutcome, ServeError> {
    let (requests, budget) = admit(trace, replicas, cfg, latency)?;

    let mut out = ServeOutcome {
        busy: vec![0.0; replicas],
        queue_budget: budget,
        ..Default::default()
    };
    let mut free = vec![0.0f64; replicas];
    let mut queue: VecDeque<Request> = VecDeque::new();
    let mut i = 0usize;

    while i < requests.len() || !queue.is_empty() {
        // Earliest-free replica, lowest index on ties.
        let r = (0..replicas)
            .reduce(|best, k| if free[k] < free[best] { k } else { best })
            .unwrap();
        let t_free = free[r];

        while i < requests.len() && requests[i].arrival <= t_free {
            queue.push_back(requests[i]);
            i += 1;
        }
        if queue.is_empty() {
            // Idle: jump the clock to the next arrival (and co-arrivals).
            let t = requests[i].arrival;
            while i < requests.len() && requests[i].arrival <= t {
                queue.push_back(requests[i]);
                i += 1;
            }
        }

        let now = t_free.max(queue.front().unwrap().arrival);
        // Shed requests that can no longer be dispatched inside their
        // budget even by the earliest-free replica. FIFO order means
        // deadlines are monotone, so only the front can be expired.
        while let Some(front) = queue.front() {
            if front.arrival + budget < now {
                out.shed.push(front.id);
                queue.pop_front();
            } else {
                break;
            }
        }
        if queue.is_empty() {
            continue;
        }

        // Coalesce: wait for more arrivals until the batch fills or the
        // coalescing timer fires. The timer is anchored at the earliest
        // queued arrival and clamped to its budget, so waiting can never
        // push an admitted request past the SLO.
        let horizon = queue.front().unwrap().arrival + cfg.timeout.min(budget);
        let mut dispatch = now;
        while queue.len() < cfg.max_batch && i < requests.len() && requests[i].arrival <= horizon {
            dispatch = dispatch.max(requests[i].arrival);
            queue.push_back(requests[i]);
            i += 1;
        }
        if queue.len() < cfg.max_batch {
            // Timed out waiting: the timer fires at the horizon.
            dispatch = dispatch.max(horizon).max(now);
        }

        let size = queue.len().min(cfg.max_batch);
        let exec = latency(size);
        let completion = dispatch + exec;
        let mut ids = Vec::with_capacity(size);
        for _ in 0..size {
            let req = queue.pop_front().unwrap();
            ids.push(req.id);
            out.served.push(ServedRequest {
                id: req.id,
                arrival: req.arrival,
                dispatch,
                completion,
                replica: r,
            });
        }
        out.batches.push(BatchRecord {
            replica: r,
            dispatch,
            completion,
            request_ids: ids,
        });
        out.busy[r] += exec;
        out.makespan = out.makespan.max(completion);
        free[r] = completion;
    }
    Ok(out)
}

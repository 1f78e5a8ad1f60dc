//! Typed serving errors.
//!
//! Every fallible path in the serving stack — engine inference, cluster
//! dispatch, batcher configuration — returns a [`ServeError`] value
//! instead of panicking, so injected faults and malformed inputs surface
//! as data the resilience layer (and its negative tests) can match on,
//! never as aborts.

use std::fmt;

use sw26010::ExecMode;

/// Why a serving operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// `Engine::infer` needs a value-producing backend.
    NonFunctionalBackend { mode: ExecMode },
    /// The input buffer does not match `batch * per_image` floats.
    InputShape {
        got: usize,
        batch: usize,
        per_image: usize,
    },
    /// A frozen def failed to build as a `Net` (graph-level failure).
    Graph(String),
    /// Loading the frozen weight snapshots into a bucket net failed.
    Snapshot(String),
    /// The cluster has no replicas to dispatch on.
    NoReplicas,
    /// `BatchConfig::max_batch` was zero.
    ZeroMaxBatch,
    /// The SLO cannot be met even by an empty queue: a full batch takes
    /// longer than the SLO itself.
    InfeasibleSlo {
        slo: f64,
        max_batch: usize,
        worst: f64,
    },
    /// A request's arrival time is NaN, infinite or negative (`-0.0`
    /// included), so the trace has no arrival order to simulate.
    BadArrival { id: u64, arrival: f64 },
    /// Every replica is declared crashed before the trace begins — the
    /// resilience layer cannot serve anything.
    AllReplicasDead,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NonFunctionalBackend { mode } => {
                write!(
                    f,
                    "Engine::infer requires a functional backend, got {mode:?}"
                )
            }
            ServeError::InputShape {
                got,
                batch,
                per_image,
            } => write!(
                f,
                "input length {got} != batch {batch} x per-image {per_image}"
            ),
            ServeError::Graph(e) => write!(f, "frozen graph failed to build: {e}"),
            ServeError::Snapshot(e) => write!(f, "frozen snapshot load failed: {e}"),
            ServeError::NoReplicas => write!(f, "need at least one replica"),
            ServeError::ZeroMaxBatch => write!(f, "max_batch must be at least 1"),
            ServeError::InfeasibleSlo {
                slo,
                max_batch,
                worst,
            } => write!(
                f,
                "SLO {slo:.6}s infeasible: a full batch of {max_batch} takes {worst:.6}s"
            ),
            ServeError::BadArrival { id, arrival } => write!(
                f,
                "request {id} arrives at {arrival}: arrivals must be finite and non-negative"
            ),
            ServeError::AllReplicasDead => {
                write!(f, "every replica is crashed before the trace begins")
            }
        }
    }
}

impl std::error::Error for ServeError {}

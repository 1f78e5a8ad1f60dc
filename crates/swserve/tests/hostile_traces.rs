//! Hostile arrival traces: the serving event loop's one admission check
//! turns a trace with no usable arrival order into a typed error —
//! never a panic (`partial_cmp().unwrap()` on a NaN), never a silently
//! arbitrary order (NaN sorted as equal to everything).

use swserve::batcher::{simulate, BatchConfig, Request, ServeOutcome};
use swserve::ServeError;

fn model_latency(b: usize) -> f64 {
    0.002 + 0.0001 * b as f64
}

const CFG: BatchConfig = BatchConfig {
    max_batch: 8,
    slo: 0.0112,
    timeout: 0.0014,
};

fn request(id: u64, arrival: f64) -> Request {
    Request {
        id,
        arrival,
        tier: 0,
    }
}

fn serve(trace: &[Request], cfg: &BatchConfig) -> Result<ServeOutcome, ServeError> {
    simulate(trace, 4, cfg, &mut model_latency)
}

#[test]
fn unordered_arrivals_are_a_typed_error() {
    for bad in [f64::NAN, -1.0e-3, -0.0, f64::INFINITY, f64::NEG_INFINITY] {
        let trace = [request(0, 0.001), request(7, bad), request(2, 0.002)];
        match serve(&trace, &CFG) {
            Err(ServeError::BadArrival { id: 7, arrival }) => {
                assert_eq!(arrival.to_bits(), bad.to_bits())
            }
            other => panic!("arrival {bad}: expected BadArrival, got {other:?}"),
        }
    }
}

#[test]
fn a_nan_slo_is_infeasible_not_unbounded() {
    let cfg = BatchConfig {
        slo: f64::NAN,
        ..CFG
    };
    let trace = [request(0, 0.001)];
    assert!(matches!(
        serve(&trace, &cfg),
        Err(ServeError::InfeasibleSlo { .. })
    ));
}

#[test]
fn duplicate_arrivals_are_served_in_id_order_whatever_the_input_order() {
    // 40 requests on 3 distinct instants, ids deliberately not in
    // arrival order, one id repeated at the same instant.
    let mut trace: Vec<Request> = (0..40u64)
        .map(|i| request(39 - i, [0.0, 0.004, 0.004, 0.009][(i % 4) as usize]))
        .collect();
    trace.push(request(5, 0.004));
    let reversed: Vec<Request> = trace.iter().rev().copied().collect();

    let want = serve(&trace, &CFG).unwrap();
    assert_eq!(want.served.len() + want.shed.len(), trace.len());
    for b in &want.batches {
        let firsts: Vec<(u64, u64)> = b
            .request_ids
            .iter()
            .map(|id| {
                let at = trace.iter().find(|r| r.id == *id).unwrap().arrival;
                (at.to_bits(), *id)
            })
            .collect();
        assert!(
            firsts.is_sorted(),
            "batch not in (arrival, id) order: {firsts:?}"
        );
    }
    let got = serve(&reversed, &CFG).unwrap();
    let key = |o: &ServeOutcome| {
        let mut v: Vec<(u64, u64, u64, usize)> = o
            .served
            .iter()
            .map(|s| {
                (
                    s.id,
                    s.dispatch.to_bits(),
                    s.completion.to_bits(),
                    s.replica,
                )
            })
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(key(&got), key(&want), "reversed input");
    assert_eq!(got.shed.len(), want.shed.len(), "reversed input");
}

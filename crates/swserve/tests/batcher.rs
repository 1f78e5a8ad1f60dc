//! Dynamic-batcher properties: determinism (same seed + trace ⇒
//! identical batch boundaries and per-request latencies) and SLO safety
//! (no admitted request's queueing delay may exceed the configured
//! budget — overload sheds instead of silently violating the SLO).

use sw26010::ExecMode;
use swcaffe_core::models;
use swserve::batcher::{poisson_trace, simulate, BatchConfig};
use swserve::graph::optimize;
use swserve::Cluster;

fn model_latency(b: usize) -> f64 {
    // Monotone synthetic latency: launch cost plus per-image work.
    0.002 + 0.0001 * b as f64
}

const CFG: BatchConfig = BatchConfig {
    max_batch: 8,
    slo: 0.025,
    timeout: 0.004,
};

#[test]
fn same_seed_and_trace_give_identical_outcomes() {
    let trace = poisson_trace(7, 400.0, 600);
    let a = simulate(&trace, 4, &CFG, &mut model_latency).unwrap();
    let b = simulate(&trace, 4, &CFG, &mut model_latency).unwrap();
    assert_eq!(a.served, b.served, "per-request life cycles must match");
    assert_eq!(a.batches, b.batches, "batch boundaries must match");
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.makespan, b.makespan);
    // And the trace itself is a pure function of the seed.
    assert_eq!(trace, poisson_trace(7, 400.0, 600));
    assert_ne!(trace, poisson_trace(8, 400.0, 600));
}

#[test]
fn admitted_requests_never_exceed_the_slo() {
    for qps in [50.0, 500.0, 5000.0, 20000.0] {
        let trace = poisson_trace(13, qps, 800);
        let out = simulate(&trace, 2, &CFG, &mut model_latency).unwrap();
        // Every request is accounted for exactly once.
        assert_eq!(out.served.len() + out.shed.len(), trace.len(), "qps {qps}");
        for s in &out.served {
            let queueing = s.dispatch - s.arrival;
            assert!(
                queueing <= out.queue_budget + 1e-9,
                "qps {qps} req {}: queueing delay {queueing} > budget {}",
                s.id,
                out.queue_budget
            );
            assert!(
                s.latency() <= CFG.slo + 1e-9,
                "qps {qps} req {}: latency {} > SLO {}",
                s.id,
                s.latency(),
                CFG.slo
            );
        }
    }
    // Far past capacity (2 replicas x 8/batch / ~2.8ms ≈ 5.7k qps),
    // the batcher must shed rather than stretch latencies.
    let trace = poisson_trace(13, 20000.0, 800);
    let out = simulate(&trace, 2, &CFG, &mut model_latency).unwrap();
    assert!(!out.shed.is_empty(), "overload must shed");
    // At a tenth of capacity nothing is shed.
    let trace = poisson_trace(13, 500.0, 800);
    let out = simulate(&trace, 2, &CFG, &mut model_latency).unwrap();
    assert!(out.shed.is_empty(), "no shedding under light load");
}

#[test]
fn batches_respect_limits_and_fifo_order() {
    let trace = poisson_trace(29, 3000.0, 500);
    let out = simulate(&trace, 4, &CFG, &mut model_latency).unwrap();
    assert!(!out.batches.is_empty());
    for b in &out.batches {
        assert!(b.request_ids.len() <= CFG.max_batch);
        assert!(!b.request_ids.is_empty());
        assert!(b.completion > b.dispatch);
    }
    // Admission is FIFO: served ids in dispatch order are increasing.
    // `served` is in completion order, so sort by (dispatch, id) first.
    let mut by_dispatch = out.served.clone();
    by_dispatch.sort_by(|a, b| a.dispatch.total_cmp(&b.dispatch).then(a.id.cmp(&b.id)));
    let ids: Vec<u64> = by_dispatch.iter().map(|s| s.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "FIFO admission order violated");
    // Utilization is a sane per-replica busy fraction.
    let util = out.utilization();
    assert_eq!(util.len(), 4);
    assert!(util.iter().all(|u| (0.0..=1.0 + 1e-9).contains(u)));
    assert!(out.throughput() > 0.0);
    // Percentiles come from the admitted latency distribution.
    let p50 = out.latency_percentile(50.0);
    let p99 = out.latency_percentile(99.0);
    assert!(p50 > 0.0 && p50 <= p99 && p99 <= CFG.slo + 1e-9);
}

#[test]
fn coalescing_fills_batches_under_load() {
    // At high qps with generous timeout, dispatches should actually
    // batch rather than degrade to single-request dispatches.
    let trace = poisson_trace(3, 4000.0, 400);
    let out = simulate(&trace, 1, &CFG, &mut model_latency).unwrap();
    let avg = out
        .batches
        .iter()
        .map(|b| b.request_ids.len())
        .sum::<usize>() as f64
        / out.batches.len() as f64;
    assert!(avg > 2.0, "expected real batching, got avg size {avg}");
}

#[test]
fn infeasible_slo_is_rejected() {
    let trace = poisson_trace(1, 100.0, 10);
    let cfg = BatchConfig {
        max_batch: 8,
        slo: 0.001,
        timeout: 0.001,
    };
    let err = simulate(&trace, 2, &cfg, &mut model_latency).unwrap_err();
    assert!(
        matches!(err, swserve::ServeError::InfeasibleSlo { .. }),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("infeasible"));
}

/// Cluster-level determinism across functional backends: the virtual
/// clock comes from the TimingOnly twin, so serving outcomes are
/// identical whether the value path is the simulated mesh or host
/// threads.
#[test]
fn serving_outcome_is_backend_independent() {
    let def = models::tiny_cnn(4, 10);
    let graph = optimize(&def).unwrap();
    let trace = poisson_trace(21, 50.0, 120);

    let mut outcomes = Vec::new();
    for mode in [
        ExecMode::Functional,
        ExecMode::HostNative { threads: 2 },
        ExecMode::TimingOnly,
    ] {
        let mut cluster = Cluster::new(&graph, mode);
        let worst = cluster.latency_seconds(8).unwrap();
        let cfg = BatchConfig {
            max_batch: 8,
            slo: 4.0 * worst,
            timeout: worst,
        };
        outcomes.push(cluster.serve(&trace, &cfg).unwrap());
    }
    for o in &outcomes[1..] {
        assert_eq!(outcomes[0].served, o.served);
        assert_eq!(outcomes[0].batches, o.batches);
        assert_eq!(outcomes[0].shed, o.shed);
    }
    assert_eq!(outcomes[0].served.len() + outcomes[0].shed.len(), 120);
}

#[test]
fn latency_percentile_edge_cases_are_pinned() {
    use swserve::batcher::{ServeOutcome, ServedRequest};

    // Empty sample: defined zero, for any p including NaN.
    let empty = ServeOutcome::default();
    assert_eq!(empty.latency_percentile(50.0), 0.0);
    assert_eq!(empty.latency_percentile(f64::NAN), 0.0);

    let serve = |lat: &[f64]| ServeOutcome {
        served: lat
            .iter()
            .enumerate()
            .map(|(i, l)| ServedRequest {
                id: i as u64,
                arrival: 0.0,
                dispatch: 0.0,
                completion: *l,
                replica: 0,
            })
            .collect(),
        ..Default::default()
    };

    // Single sample: every percentile is that sample.
    let single = serve(&[0.25]);
    for p in [0.0, 37.5, 100.0, -10.0, 1e9, f64::NAN] {
        assert_eq!(single.latency_percentile(p), 0.25, "p = {p}");
    }

    // p = 0 and p = 100 hit the exact extremes of the sorted sample.
    let five = serve(&[0.5, 0.1, 0.4, 0.2, 0.3]);
    assert_eq!(five.latency_percentile(0.0), 0.1);
    assert_eq!(five.latency_percentile(100.0), 0.5);
    assert_eq!(five.latency_percentile(50.0), 0.3);

    // Out-of-range and NaN p clamp to the ends instead of relying on
    // float-to-usize cast behaviour.
    assert_eq!(five.latency_percentile(-5.0), 0.1);
    assert_eq!(five.latency_percentile(250.0), 0.5);
    assert_eq!(five.latency_percentile(f64::NAN), 0.1);
}

//! Differential pin: with no faults to inject, the fault-tolerant
//! event-driven simulator (`simulate_ft`, empty plan, default
//! `ResilienceConfig`) must make the decisions of the plain batcher
//! (`simulate`) — the pair ROADMAP item 4 wants reduced to one event
//! loop, which is only safe once this holds.

use sw26010::arch::CORE_GROUPS;
use sw26010::ExecMode;
use swcaffe_core::models;
use swfault::serve::ServeFaultPlan;
use swserve::batcher::{poisson_trace, BatchConfig, BatchRecord, ServedRequest};
use swserve::graph::optimize;
use swserve::{Cluster, ResilienceConfig};

fn by_id(mut served: Vec<ServedRequest>) -> Vec<ServedRequest> {
    served.sort_by_key(|s| s.id);
    served
}

fn by_dispatch(mut batches: Vec<BatchRecord>) -> Vec<BatchRecord> {
    batches.sort_by(|a, b| {
        (a.dispatch.total_cmp(&b.dispatch)).then(a.request_ids[0].cmp(&b.request_ids[0]))
    });
    batches
}

#[test]
fn fault_free_simulate_ft_makes_the_batchers_decisions() {
    // The two `serve_qps` models with that scenario's configuration,
    // seeds and load steps, plus a 120% overload step that sheds.
    for (mi, (def, max_batch)) in [(models::alexnet_bn(16), 16), (models::vgg16(8), 8)]
        .into_iter()
        .enumerate()
    {
        let graph = optimize(&def).expect("model optimizes");
        let mut cluster = Cluster::new(&graph, ExecMode::TimingOnly);
        let worst = cluster.latency_seconds(max_batch).expect("graph builds");
        let capacity = CORE_GROUPS as f64 * max_batch as f64 / worst;
        let cfg = BatchConfig {
            max_batch,
            slo: 4.0 * worst,
            timeout: 0.5 * worst,
        };
        for (pct, frac, n) in [
            (25, 0.25, 240),
            (50, 0.5, 240),
            (100, 1.0, 240),
            (120, 1.2, 2000),
        ] {
            let what = format!("model {mi} load {pct}%");
            let trace = poisson_trace(1000 + mi as u64 * 100 + pct, capacity * frac, n);
            let plain = cluster.serve(&trace, &cfg).expect("SLO feasible");
            let ft = cluster
                .serve_ft(
                    &trace,
                    &cfg,
                    &ResilienceConfig::default(),
                    &ServeFaultPlan::new(7),
                )
                .expect("SLO feasible");
            assert_eq!(ft.transitions, vec![], "{what}: no faults, no transitions");
            let ft = ft.outcome;

            let sorted = |mut v: Vec<u64>| {
                v.sort_unstable();
                v
            };
            assert_eq!(
                sorted(ft.shed.clone()),
                sorted(plain.shed.clone()),
                "{what}: shed ids"
            );
            if pct == 120 {
                assert!(!plain.shed.is_empty(), "{what}: overload must shed");
            }
            // Batch membership, replica, and dispatch / completion
            // times, bit for bit (`BatchRecord` / `ServedRequest`
            // equality is f64 `==`).
            assert_eq!(
                by_dispatch(ft.batches),
                by_dispatch(plain.batches),
                "{what}: batches"
            );
            assert_eq!(by_id(ft.served), by_id(plain.served), "{what}: life cycles");
            assert_eq!(ft.busy, plain.busy, "{what}: busy seconds");
            assert_eq!(
                ft.makespan.to_bits(),
                plain.makespan.to_bits(),
                "{what}: makespan"
            );
        }
    }
}

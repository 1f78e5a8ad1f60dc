//! Fault-tolerant serving properties.
//!
//! The contract under test: with a seeded `swfault` serving plan
//! injecting crashes, degradation, stragglers and response corruption,
//!
//! * every request is accounted for exactly once (served xor shed),
//! * every *served* request meets the SLO — faults shed, never stretch,
//! * the whole outcome (life cycles, batch boundaries, health
//!   transitions, counters) replays bit-identically across reruns,
//!   plan replays and functional backends,
//! * replicas walk the documented state machine: a crashed replica is
//!   detected by deadline timeout, re-warms, and rejoins; a corrupting
//!   or straggling replica degrades and recovers after probation,
//! * capacity loss escalates the brown-out tiers, shedding the lowest
//!   request tiers first.

use sw26010::ExecMode;
use swcaffe_core::models;
use swfault::serve::ServeFaultPlan;
use swserve::batcher::{poisson_trace, poisson_trace_tiered, BatchConfig};
use swserve::graph::optimize;
use swserve::resilient::simulate_ft;
use swserve::{Cluster, FtServeOutcome, Health, ResilienceConfig, ServeError};

fn model_latency(b: usize) -> f64 {
    // Monotone synthetic latency: launch cost plus per-image work.
    0.002 + 0.0001 * b as f64
}

const CFG: BatchConfig = BatchConfig {
    max_batch: 8,
    slo: 0.0112, // 4x the full-batch execution (2.8 ms)
    timeout: 0.0014,
};

/// ~11.4k qps: 4 replicas x 8 per batch / 2.8 ms.
const CAPACITY_QPS: f64 = 4.0 * 8.0 / 0.0028;

fn run_plan(
    trace: &[swserve::Request],
    replicas: usize,
    res: &ResilienceConfig,
    plan: &ServeFaultPlan,
) -> FtServeOutcome {
    let mut session = swfault::serve::ServeFaultSession::new(plan.clone());
    simulate_ft(trace, replicas, &CFG, res, &mut session, &mut model_latency).unwrap()
}

/// Every id appears exactly once across served + shed, and every served
/// request is inside the SLO.
/// Health of `replica` after the trace drained: its last transition's
/// target, or healthy if it never left.
fn final_health(out: &FtServeOutcome, replica: usize) -> Health {
    out.transitions
        .iter()
        .rev()
        .find(|t| t.replica == replica)
        .map_or(Health::Healthy, |t| t.to)
}

fn assert_invariants(out: &FtServeOutcome, n: usize) {
    let mut ids: Vec<u64> = out.outcome.served.iter().map(|s| s.id).collect();
    ids.extend(&out.outcome.shed);
    ids.sort_unstable();
    let expect: Vec<u64> = (0..n as u64).collect();
    assert_eq!(ids, expect, "each request must be served xor shed, once");
    for s in &out.outcome.served {
        assert!(
            s.latency() <= CFG.slo + 1e-9,
            "req {} served late: {} > SLO {}",
            s.id,
            s.latency(),
            CFG.slo
        );
    }
    // Within-batch FIFO: the queue is kept in (arrival, id) order and
    // never overtaken, so each batch carries consecutive-oldest ids.
    for b in &out.outcome.batches {
        let mut sorted = b.request_ids.clone();
        sorted.sort_unstable();
        assert_eq!(b.request_ids, sorted, "batch ids must be FIFO-ordered");
    }
}

#[test]
fn crash_mid_trace_stays_inside_slo_with_zero_shed() {
    let n = 600;
    let trace = poisson_trace(7, 0.5 * CAPACITY_QPS, n);
    let plan = ServeFaultPlan::new(11)
        .crash(1, 0.03)
        .detect_timeout_s(0.0005)
        .backoff_base_s(20.0e-6);
    let res = ResilienceConfig { rewarm_s: 0.02 };
    let out = run_plan(&trace, 4, &res, &plan);
    assert_invariants(&out, n);

    // Losing 1 of 4 replicas at 50% load must not shed anything: the
    // lost batch retries on a live replica inside its deadline budget.
    assert!(
        out.outcome.shed.is_empty(),
        "crash at 50% load shed {:?}",
        out.outcome.shed
    );
    assert_eq!(out.faults.crashes, 1);
    assert_eq!(out.health.dead_transitions, 1);
    assert!(out.health.failovers >= 1, "lost batch must fail over");
    assert!(out.health.retries >= 1);
    assert!(out.health.detect_latency_s > 0.0);
    assert_eq!(out.health.rewarms, 1, "replica must re-warm and rejoin");
    assert_eq!(final_health(&out, 1), Health::Healthy);

    // The dead window is real: no batch runs on replica 1 between the
    // Dead transition and the rejoin.
    let dead_at = out
        .transitions
        .iter()
        .find(|t| t.replica == 1 && t.to == Health::Dead)
        .expect("dead transition recorded")
        .at;
    let back_at = out
        .transitions
        .iter()
        .find(|t| t.replica == 1 && t.to == Health::Healthy)
        .expect("rejoin recorded")
        .at;
    assert!(back_at >= dead_at + res.rewarm_s - 1e-12);
    for b in out.outcome.batches.iter().filter(|b| b.replica == 1) {
        assert!(
            b.dispatch < dead_at || b.dispatch >= back_at,
            "batch dispatched on dead replica at {}",
            b.dispatch
        );
    }
    // And the replica actually rejoined service.
    assert!(
        out.outcome
            .batches
            .iter()
            .any(|b| b.replica == 1 && b.dispatch >= back_at),
        "rejoined replica never served again"
    );
}

#[test]
fn fault_outcomes_replay_bit_identically() {
    let n = 500;
    let trace = poisson_trace(3, 0.6 * CAPACITY_QPS, n);
    let plan = ServeFaultPlan::new(99)
        .crash(2, 0.02)
        .straggle(3, 0.3, 4.0, 0.0..0.08)
        .corrupt_output(1, 0.4, 0.01..0.05)
        .detect_timeout_s(0.0004)
        .backoff_base_s(20.0e-6);
    let res = ResilienceConfig::default();
    let a = run_plan(&trace, 4, &res, &plan);
    let b = run_plan(&trace, 4, &res, &plan);
    assert_eq!(a.outcome.served, b.outcome.served);
    assert_eq!(a.outcome.batches, b.outcome.batches);
    assert_eq!(a.outcome.shed, b.outcome.shed);
    assert_eq!(a.outcome.makespan, b.outcome.makespan);
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.health, b.health);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.shed_by_tier, b.shed_by_tier);
    assert_invariants(&a, n);
    // A different plan seed perturbs the schedule.
    let c = run_plan(
        &trace,
        4,
        &res,
        &ServeFaultPlan::new(100).straggle(3, 0.3, 4.0, 0.0..0.08),
    );
    assert_ne!(a.health, c.health);
}

#[test]
fn corrupted_responses_are_retried_and_the_replica_recovers() {
    let n = 300;
    // Light load so retries always fit in the deadline budget.
    let trace = poisson_trace(5, 0.15 * CAPACITY_QPS, n);
    let plan = ServeFaultPlan::new(21)
        .corrupt_output(0, 0.5, 0.0..0.015)
        .detect_timeout_s(0.0005)
        .backoff_base_s(20.0e-6);
    let res = ResilienceConfig::default();
    let out = run_plan(&trace, 2, &res, &plan);
    assert_invariants(&out, n);
    assert!(out.faults.corrupted_responses >= 1, "window must corrupt");
    assert!(out.health.retries >= 1, "corruption must trigger retries");
    assert!(
        out.health.backoff_s > 0.0,
        "retries charge jittered backoff"
    );
    assert!(
        out.health.degraded_transitions >= 1,
        "a corrupting replica must be marked Degraded"
    );
    assert!(
        out.health.recovered_transitions >= 1,
        "clean probation after the window must recover the replica"
    );
    assert_eq!(final_health(&out, 0), Health::Healthy);
    assert_eq!(out.health.dead_transitions, 0, "nothing crashed");
}

#[test]
fn straggling_primary_is_hedged_and_the_hedge_wins() {
    let n = 400;
    let trace = poisson_trace(17, 0.3 * CAPACITY_QPS, n);
    // Replica 0 straggles hard for most of the trace: the first late
    // batch degrades it, after which dispatches to it are raced against
    // an idle healthy replica.
    let plan = ServeFaultPlan::new(31)
        .straggle(0, 0.9, 6.0, 0.0..0.1)
        .detect_timeout_s(0.0005)
        .backoff_base_s(20.0e-6);
    let res = ResilienceConfig::default();
    let out = run_plan(&trace, 4, &res, &plan);
    assert_invariants(&out, n);
    assert!(out.faults.straggled_batches >= 1);
    assert!(out.health.degraded_transitions >= 1);
    assert!(out.health.hedges >= 1, "degraded primary must be hedged");
    assert!(
        out.health.hedge_wins >= 1,
        "a clean hedge copy must beat a 6x straggler"
    );
    assert!(out.health.hedge_wins <= out.health.hedges);
}

#[test]
fn capacity_loss_escalates_brownout_and_sheds_lowest_tier_first() {
    let n = 480;
    // Alternate tiers 0/1; drop 3 of 4 replicas early with a re-warm
    // longer than the trace, pinning capacity at 25%.
    let trace = poisson_trace_tiered(9, 0.35 * CAPACITY_QPS, n, &[0, 1]);
    let plan = ServeFaultPlan::new(41)
        .crash(0, 0.004)
        .crash(1, 0.004)
        .crash(2, 0.004)
        .detect_timeout_s(0.0004)
        .backoff_base_s(20.0e-6);
    let res = ResilienceConfig { rewarm_s: 10.0 };
    let out = run_plan(&trace, 4, &res, &plan);
    assert_invariants(&out, n);
    assert_eq!(out.faults.crashes, 3);
    assert!(
        out.health.brownout_shed >= 1,
        "25% capacity must shed tier-0 traffic at admission"
    );
    let shed_t0 = out
        .shed_by_tier
        .iter()
        .find(|e| e.0 == 0)
        .map(|e| e.1)
        .unwrap_or(0);
    let shed_t1 = out
        .shed_by_tier
        .iter()
        .find(|e| e.0 == 1)
        .map(|e| e.1)
        .unwrap_or(0);
    assert!(
        shed_t0 > shed_t1,
        "brown-out must shed tier 0 before tier 1 ({shed_t0} vs {shed_t1})"
    );
    // Tier-1 traffic keeps flowing on the surviving replica.
    let served_t1 = out
        .outcome
        .served
        .iter()
        .filter(|s| trace[s.id as usize].tier == 1)
        .count();
    assert!(served_t1 > 0, "tier-1 requests must keep being served");
}

/// Satellite: the batcher under a mid-trace replica-count change — a CG
/// dies and later rejoins — preserves FIFO admission, SLO safety and
/// seed determinism.
#[test]
fn replica_loss_and_rejoin_keeps_fifo_slo_and_determinism() {
    let n = 700;
    let trace = poisson_trace(23, 0.4 * CAPACITY_QPS, n);
    let plan = ServeFaultPlan::new(51)
        .crash(2, 0.02)
        .detect_timeout_s(0.0005)
        .backoff_base_s(20.0e-6);
    let res = ResilienceConfig { rewarm_s: 0.015 };
    let a = run_plan(&trace, 4, &res, &plan);
    let b = run_plan(&trace, 4, &res, &plan);
    assert_invariants(&a, n);
    assert_eq!(a.outcome.served, b.outcome.served);
    assert_eq!(a.transitions, b.transitions);
    // FIFO across batches too: each batch's first id exceeds the
    // previous batch's first id *except* where a retried cohort (older
    // arrivals) legitimately re-enters after a failure.
    let mut batches = a.outcome.batches.clone();
    batches.sort_by(|x, y| x.dispatch.total_cmp(&y.dispatch));
    let regressions = batches
        .windows(2)
        .filter(|w| w[1].request_ids[0] < w[0].request_ids[0])
        .count();
    assert!(
        regressions as u64 <= a.health.retries,
        "id-order regressions ({regressions}) must all be retry cohorts"
    );
    // The crash actually interrupted service and the replica rejoined.
    assert_eq!(a.health.dead_transitions, 1);
    assert_eq!(a.health.rewarms, 1);
    assert_eq!(final_health(&a, 2), Health::Healthy);
    assert!(a.outcome.shed.is_empty(), "40% load absorbs a 1-CG loss");
}

/// Satellite: typed errors out of the resilience layer and the engine —
/// injected faults and malformed inputs are data, not panics.
#[test]
fn serve_errors_are_typed() {
    let trace = poisson_trace(1, 100.0, 10);
    let res = ResilienceConfig::default();
    let mk = |plan: ServeFaultPlan| swfault::serve::ServeFaultSession::new(plan);

    let mut s = mk(ServeFaultPlan::new(1));
    let err = simulate_ft(&trace, 0, &CFG, &res, &mut s, &mut model_latency).unwrap_err();
    assert_eq!(err, ServeError::NoReplicas);

    let cfg0 = BatchConfig {
        max_batch: 0,
        ..CFG
    };
    let err = simulate_ft(&trace, 2, &cfg0, &res, &mut s, &mut model_latency).unwrap_err();
    assert_eq!(err, ServeError::ZeroMaxBatch);

    let tight = BatchConfig {
        max_batch: 8,
        slo: 0.0001,
        timeout: 0.0001,
    };
    let err = simulate_ft(&trace, 2, &tight, &res, &mut s, &mut model_latency).unwrap_err();
    assert!(matches!(err, ServeError::InfeasibleSlo { .. }));

    let mut dead = mk(ServeFaultPlan::new(1).crash(0, 0.0).crash(1, 0.0));
    let err = simulate_ft(&trace, 2, &CFG, &res, &mut dead, &mut model_latency).unwrap_err();
    assert_eq!(err, ServeError::AllReplicasDead);
}

#[test]
fn engine_inference_errors_are_typed_and_checksums_verify() {
    use swcaffe_core::{Net, Phase};
    use swserve::engine::Engine;
    use swserve::graph::FrozenGraph;
    use swserve::verify_response;

    let def = models::tiny_cnn(4, 10);
    let mut net = Net::from_def_mode_seeded(&def, ExecMode::Functional, 42).unwrap();
    net.set_phase(Phase::Test);
    let graph = FrozenGraph::freeze(&def, &net).unwrap();
    let per = graph.per_image;

    // A non-functional backend cannot produce values.
    let mut timing = Engine::new(graph.clone(), ExecMode::TimingOnly);
    let err = timing.infer(2, &vec![0.0; 2 * per]).unwrap_err();
    assert!(matches!(err, ServeError::NonFunctionalBackend { .. }));

    // Shape mismatches are rejected with the observed sizes.
    let mut eng = Engine::new(graph, ExecMode::Functional);
    let err = eng.infer(2, &vec![0.0; 2 * per + 1]).unwrap_err();
    assert_eq!(
        err,
        ServeError::InputShape {
            got: 2 * per + 1,
            batch: 2,
            per_image: per,
        }
    );

    // The checked path stamps a Fletcher-64 tag that verifies — and a
    // single corrupted float breaks it.
    let input: Vec<f32> = (0..2 * per).map(|i| (i % 7) as f32 * 0.25).collect();
    let (out, tag) = eng.infer_checked(2, &input).unwrap();
    assert!(verify_response(&out, tag));
    let mut tampered = out.clone();
    tampered[0] += 1.0;
    assert!(!verify_response(&tampered, tag));
}

/// Cluster-level fault tolerance is backend-independent: the virtual
/// clock comes from the TimingOnly twin and every fault from the seeded
/// plan, so the full fault schedule — crashes, retries, health
/// transitions — replays identically on the simulated mesh, host
/// threads, and timing-only.
#[test]
fn fault_tolerant_serving_is_backend_independent() {
    let def = models::tiny_cnn(4, 10);
    let graph = optimize(&def).unwrap();
    let trace = poisson_trace(21, 40.0, 100);
    let plan = ServeFaultPlan::new(77)
        .crash(1, 0.1)
        .corrupt_output(0, 0.3, 0.0..0.2)
        .detect_timeout_s(0.002)
        .backoff_base_s(50.0e-6);

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
            slo: 6.0 * worst,
            timeout: worst,
        };
        let res = ResilienceConfig {
            rewarm_s: 4.0 * worst,
        };
        outcomes.push(cluster.serve_ft(&trace, &cfg, &res, &plan).unwrap());
    }
    for o in &outcomes[1..] {
        assert_eq!(outcomes[0].outcome.served, o.outcome.served);
        assert_eq!(outcomes[0].outcome.batches, o.outcome.batches);
        assert_eq!(outcomes[0].outcome.shed, o.outcome.shed);
        assert_eq!(outcomes[0].transitions, o.transitions);
        assert_eq!(outcomes[0].health, o.health);
        assert_eq!(outcomes[0].faults, o.faults);
    }
    assert_eq!(
        outcomes[0].outcome.served.len() + outcomes[0].outcome.shed.len(),
        100
    );
    assert_eq!(outcomes[0].faults.crashes, 1, "the crash must be observed");
}

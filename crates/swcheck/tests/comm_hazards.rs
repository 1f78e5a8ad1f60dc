//! Hazard-injection tests for `swcheck::comm`: mutate materialized
//! collective schedules in targeted ways and prove the checker reports
//! each class of violation — and nothing on the unmutated baselines.
//!
//! Also exercises the `swtrain` integration: a crash followed by
//! `ShrinkAndContinue` must leave the cluster with a schedulable,
//! verifiably clean collective configuration.

use sw26010::ExecMode;
use swcaffe_core::{models, SolverConfig};
use swcheck::comm::{check_schedule, check_spec, CommViolation};
use swnet::{Algorithm, CommPhase, CommSchedule, CommSpec, RankMap, RankOp, Topology};
use swtrain::{ClusterConfig, ClusterTrainer, FaultPlan, FaultSession, Recovery};

fn materialize(algo: Algorithm, p: usize) -> CommSchedule {
    CommSpec::monolithic(
        Topology::with_supernode(p, (p / 2).max(1)),
        RankMap::RoundRobin,
        algo,
        4096,
    )
    .unwrap()
    .extract()
}

/// The collective a cluster's monolithic gradient reduce of `elems`
/// elements runs under its current configuration.
fn comm_spec(config: &ClusterConfig, elems: usize) -> CommSpec {
    CommSpec::monolithic(config.topology(), config.rank_map, config.algorithm, elems).unwrap()
}

fn kinds(sched: &CommSchedule) -> Vec<&'static str> {
    check_schedule(sched)
        .violations
        .iter()
        .map(CommViolation::kind)
        .collect()
}

#[test]
fn mismatched_peer_is_reported() {
    let mut sched = materialize(Algorithm::RecursiveHalvingDoubling, 8);
    assert!(check_schedule(&sched).is_clean());
    // Rank 1's reduce recv in step 0 claims the wrong source: its true
    // partner's send now has no receiver, and the claimed channel
    // carries a recv that is never sent.
    let op = sched.steps[0]
        .1
        .iter_mut()
        .find(|o| !o.is_send && o.rank == 1)
        .unwrap();
    assert_eq!(op.peer, 5, "RHD step 0 pairs rank 1 with 1 ^ 4");
    op.peer = 6;
    let found = kinds(&sched);
    assert!(found.contains(&"unmatched_send"), "{found:?}");
    assert!(found.contains(&"unmatched_recv"), "{found:?}");
}

#[test]
fn dropped_recv_is_reported() {
    let mut sched = materialize(Algorithm::RecursiveHalvingDoubling, 4);
    assert!(check_schedule(&sched).is_clean());
    // Remove rank 2's reduce recv entirely: its partner's send can
    // never complete.
    let pos = sched.steps[0]
        .1
        .iter()
        .position(|o| !o.is_send && o.rank == 2)
        .unwrap();
    sched.steps[0].1.remove(pos);
    let found = kinds(&sched);
    assert!(found.contains(&"unmatched_send"), "{found:?}");
}

#[test]
fn double_reduced_segment_is_reported() {
    let mut sched = materialize(Algorithm::RecursiveHalvingDoubling, 4);
    assert!(check_schedule(&sched).is_clean());
    // Duplicate a matched reduce pair in step 1 (mask 1: 0 <-> 1): the
    // receiver folds its partner's partial sum twice, so the owner ends
    // the reduce phase with doubled contributions — and the duplicate
    // delivery within one step makes the fold order ambiguous.
    let dup: Vec<RankOp> = sched.steps[1]
        .1
        .iter()
        .filter(|o| (o.rank == 0 && o.is_send) || (o.rank == 1 && !o.is_send))
        .copied()
        .collect();
    sched.steps[1].1.extend(dup);
    let found = kinds(&sched);
    assert!(found.contains(&"reduce_count_mismatch"), "{found:?}");
    assert!(found.contains(&"nondeterministic_fold"), "{found:?}");
}

#[test]
fn send_recv_overlap_is_reported() {
    let mut sched = materialize(Algorithm::RecursiveHalvingDoubling, 8);
    assert!(check_schedule(&sched).is_clean());
    // Rank 2 keeps chunks 0..4 in step 0 and sends 4..8 to rank 6.
    // Widen that send, and rank 6's matching recv, to 2..8: the message
    // stays matched, but rank 2 now sends chunks 2 and 3 while folding
    // rank 6's copy of them in, so delivering in place would send a
    // value the step has already changed.
    for op in sched.steps[0].1.iter_mut() {
        if (op.rank == 2 && op.is_send) || (op.rank == 6 && !op.is_send) {
            assert_eq!(op.chunks, swnet::ChunkSpan::new(4, 8), "{op:?}");
            op.chunks = swnet::ChunkSpan::new(2, 8);
        }
    }
    let out = check_schedule(&sched);
    assert!(
        out.violations.contains(&CommViolation::SendRecvOverlap {
            step: 0,
            rank: 2,
            chunk: 2,
        }),
        "{:?}",
        out.violations
    );
}

#[test]
fn wait_for_cycle_is_reported() {
    // Skew a 2-rank RHD exchange so both ranks post their sends in one
    // step and their recvs in the next: under rendezvous semantics
    // neither send can complete, the classic head-to-head deadlock.
    let base = materialize(Algorithm::RecursiveHalvingDoubling, 2);
    assert!(check_schedule(&base).is_clean());
    let (phase0, ops0) = base.steps[0].clone();
    let sends: Vec<RankOp> = ops0.iter().filter(|o| o.is_send).copied().collect();
    let recvs: Vec<RankOp> = ops0.iter().filter(|o| !o.is_send).copied().collect();
    let mut steps = vec![(phase0, sends), (phase0, recvs)];
    steps.extend(base.steps[1..].iter().cloned());
    let sched = CommSchedule {
        spec: base.spec,
        steps,
    };
    let out = check_schedule(&sched);
    let found: Vec<_> = out.violations.iter().map(CommViolation::kind).collect();
    assert!(found.contains(&"wait_for_cycle"), "{found:?}");
}

#[test]
fn payload_mismatch_is_reported() {
    let mut sched = materialize(Algorithm::Ring, 5);
    assert!(check_schedule(&sched).is_clean());
    // A recv that expects a different chunk than its sender carries.
    let op = sched.steps[2]
        .1
        .iter_mut()
        .find(|o| !o.is_send && o.rank == 3)
        .unwrap();
    op.chunks = swnet::ChunkSpan::new(1, 2);
    let found = kinds(&sched);
    assert!(found.contains(&"payload_mismatch"), "{found:?}");
}

#[test]
fn dropped_gather_step_is_reported() {
    let mut sched = materialize(Algorithm::Ring, 5);
    assert!(check_schedule(&sched).is_clean());
    // Delete the final gather step: every rank is left one chunk short
    // of the fully reduced buffer.
    assert_eq!(sched.steps.last().unwrap().0, CommPhase::Gather);
    sched.steps.pop();
    let found = kinds(&sched);
    assert!(found.contains(&"incomplete_gather"), "{found:?}");
}

#[test]
fn rerouted_reduce_chunk_is_reported() {
    let mut sched = materialize(Algorithm::Ring, 4);
    assert!(check_schedule(&sched).is_clean());
    // Reroute one matched reduce exchange to a different chunk: the
    // original chunk misses a contribution (count 0 at its owner) and
    // the rerouted one is folded twice.
    for op in sched.steps[1].1.iter_mut() {
        if (op.rank == 0 && op.is_send && op.peer == 1) || (op.rank == 1 && !op.is_send) {
            op.chunks = swnet::ChunkSpan::new(0, 1);
        }
    }
    let found = kinds(&sched);
    assert!(found.contains(&"reduce_count_mismatch"), "{found:?}");
}

#[test]
fn non_canonical_emission_order_is_reported() {
    let mut sched = materialize(Algorithm::Binomial, 8);
    assert!(check_schedule(&sched).is_clean());
    // Swap two ops in one step: the deterministic cost-accounting order
    // (ascending rank, send before recv) is broken even though the
    // schedule still matches and reduces correctly.
    sched.steps[0].1.swap(0, 1);
    let found = kinds(&sched);
    assert!(found.contains(&"non_canonical_order"), "{found:?}");
}

#[test]
fn shrink_and_continue_yields_a_verifiably_clean_schedule() {
    // 4-node paper configuration (RHD over round-robin supernodes).
    let def = models::tiny_cnn(1, 3);
    let mut cluster = ClusterTrainer::new(
        &def,
        SolverConfig::default(),
        ClusterConfig {
            supernode_size: 2,
            ..ClusterConfig::swcaffe(4)
        },
        ExecMode::Functional,
    )
    .unwrap();
    let pre = comm_spec(&cluster.config, 100_000);
    assert_eq!(pre.algo, Algorithm::RecursiveHalvingDoubling);
    assert!(check_spec(&pre).is_clean());

    // Node 3 dies; the job shrinks to 3 survivors. RHD needs a power of
    // two, so recovery reconfigures to Ring over the natural mapping.
    let mut faults = FaultSession::new(FaultPlan::new(11).crash(3, 1));
    faults.begin_iteration(1);
    cluster
        .recover(&mut faults, Recovery::ShrinkAndContinue, None)
        .unwrap();
    assert_eq!(cluster.config.nodes, 3);

    let post = comm_spec(&cluster.config, 100_000);
    assert_eq!(post.algo, Algorithm::Ring);
    assert_eq!(post.map, RankMap::Natural);
    let out = check_spec(&post);
    assert!(out.is_clean(), "{:?}", out.violations);

    // An 8-node job losing one rank keeps shrinking to 7 — still ring —
    // and that schedule verifies clean too.
    let mut cluster8 = ClusterTrainer::new(
        &def,
        SolverConfig::default(),
        ClusterConfig {
            supernode_size: 4,
            ..ClusterConfig::swcaffe(8)
        },
        ExecMode::Functional,
    )
    .unwrap();
    let mut faults8 = FaultSession::new(FaultPlan::new(7).crash(5, 1));
    faults8.begin_iteration(1);
    cluster8
        .recover(&mut faults8, Recovery::ShrinkAndContinue, None)
        .unwrap();
    let post8 = comm_spec(&cluster8.config, 50_000);
    assert_eq!(post8.topo.nodes, 7);
    assert!(check_spec(&post8).is_clean());
}

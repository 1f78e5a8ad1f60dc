//! Class pricing against the per-transfer walk it replaced.
//!
//! Every collective step is priced from its transfer classes. Three
//! derivations of each collective's report must agree bit for bit:
//!
//! * the symbolic classes of [`CommSpec::transfer_classes`], as
//!   `allreduce_segment_ft` prices them;
//! * classes folded from the fully expanded op list
//!   ([`CommSpec::expand_step_into`]);
//! * `reference_step_time`, a copy of the original per-transfer `max`
//!   loop, kept here as the reference.
//!
//! A fault session that fires nothing must not move a bit either.

use sw26010::SimTime;
use swnet::cost::{class_step_time, fold_transfers};
use swnet::topology::OVERSUBSCRIPTION;
use swnet::{
    allreduce_segment_ft, Algorithm, CommSpec, FaultPlan, FaultSession, NetParams, RankMap,
    ReduceEngine, Topology, Transfer, TransferClass,
};

/// The original step pricing: one float expression per transfer, the
/// step ends with the slowest.
fn reference_step_time(topo: &Topology, params: &NetParams, transfers: &[Transfer]) -> SimTime {
    if transfers.is_empty() {
        return SimTime::ZERO;
    }
    let mut outflows = vec![0usize; topo.supernodes()];
    for t in transfers {
        if topo.crosses(t.src, t.dst) {
            outflows[topo.supernode_of(t.src)] += 1;
        }
    }
    let mut worst = 0.0f64;
    for t in transfers {
        let share = if topo.crosses(t.src, t.dst) {
            let c = outflows[topo.supernode_of(t.src)] as f64;
            (c * OVERSUBSCRIPTION as f64 / topo.q() as f64).max(1.0)
        } else {
            1.0
        };
        let wire = t.bytes as f64 * params.beta1 * share / params.collective_efficiency;
        let time = params.alpha(t.bytes) + wire + t.reduce_bytes as f64 * params.gamma();
        worst = worst.max(time);
    }
    worst += params.straggler_coeff * (topo.nodes.max(2) as f64).ln();
    SimTime::from_seconds(worst)
}

/// `(elapsed bits, steps, cross_bytes, total_bytes)`.
type Summary = (u64, usize, u64, u64);

fn expanded_transfers(spec: &CommSpec, step: usize) -> Vec<Transfer> {
    let chunks = spec.chunk_table();
    let mut ops = Vec::new();
    spec.expand_step_into(step, &mut ops);
    ops.iter()
        .filter(|o| o.is_send)
        .map(|o| {
            let (lo, hi) = CommSpec::elem_span(&chunks, o.chunks);
            let bytes = (hi - lo) * 4;
            Transfer {
                src: spec.map.physical(&spec.topo, o.rank),
                dst: spec.map.physical(&spec.topo, o.peer),
                bytes,
                reduce_bytes: if o.reduce { bytes } else { 0 },
            }
        })
        .collect()
}

/// Classes in a canonical order with equal keys merged.
fn canonical(classes: &[TransferClass]) -> Vec<TransferClass> {
    let mut merged: Vec<TransferClass> = Vec::new();
    for c in classes {
        match merged
            .iter_mut()
            .find(|m| m.bytes == c.bytes && m.reduce_bytes == c.reduce_bytes && m.route == c.route)
        {
            Some(m) => m.count += c.count,
            None => merged.push(*c),
        }
    }
    let key = |c: &TransferClass| {
        (
            c.bytes,
            c.reduce_bytes,
            c.route.crosses,
            c.route.share.to_bits(),
        )
    };
    merged.sort_by_key(key);
    merged
}

/// Check one configuration three ways.
fn check(spec: &CommSpec, params: &NetParams) {
    let topo = &spec.topo;
    let what = format!(
        "{:?}/{:?} p={} ss={} elems={} seg={}..{}",
        spec.algo,
        spec.map,
        topo.nodes,
        topo.supernode_size,
        spec.total_elems,
        spec.seg_lo,
        spec.seg_hi
    );
    let symbolic = allreduce_segment_ft(
        topo,
        params,
        spec.map,
        spec.algo,
        spec.total_elems,
        spec.seg_lo..spec.seg_hi,
        None,
        None,
    )
    .unwrap_or_else(|e| panic!("{what}: {e:?}"));
    let symbolic = (
        symbolic.elapsed.seconds().to_bits(),
        symbolic.steps,
        symbolic.cross_bytes,
        symbolic.total_bytes,
    );

    // Walk the expanded transfers once, pricing each step by folding and
    // by the reference loop, and compare the folded classes with the
    // symbolic ones.
    let mut table = spec.transfer_classes();
    let (mut derived, mut folded) = (Vec::new(), Vec::new());
    let (mut by_fold, mut by_reference) = (SimTime::ZERO, SimTime::ZERO);
    let (mut cross, mut total) = (0u64, 0u64);
    for step in 0..spec.num_steps() {
        let transfers = expanded_transfers(spec, step);
        fold_transfers(topo, &transfers, &mut folded);
        by_fold += class_step_time(topo, params, &folded);
        by_reference += reference_step_time(topo, params, &transfers);
        table.step_into(step, &mut derived);
        assert_eq!(
            canonical(&derived),
            canonical(&folded),
            "{what} step {step}: symbolic classes differ from the folded expansion"
        );
        for t in &transfers {
            total += t.bytes as u64;
            if topo.crosses(t.src, t.dst) {
                cross += t.bytes as u64;
            }
        }
    }
    let summary = |t: SimTime| (t.seconds().to_bits(), spec.num_steps(), cross, total);
    assert_eq!(
        symbolic,
        summary(by_reference),
        "{what}: symbolic vs reference walk"
    );
    assert_eq!(
        summary(by_fold),
        summary(by_reference),
        "{what}: folded vs reference walk"
    );
}

fn params() -> NetParams {
    NetParams::sunway_allreduce(ReduceEngine::CpeClusters)
}

/// The grid's buffer geometries for `p` ranks: `(total, segment)`.
fn geometries(p: usize) -> [(usize, std::ops::Range<usize>); 4] {
    [
        // Monolithic with a ragged tail of larger blocks.
        (10 * p + 3, 0..10 * p + 3),
        // Interior segment cutting blocks at both ends.
        (16 * p + 5, 3 * p + 1..11 * p + 2),
        // Empty segment: every block clamps to nothing.
        (8 * p + 1, 4 * p..4 * p),
        // Fewer elements than ranks: some blocks are empty.
        (p - 1, 0..p - 1),
    ]
}

fn supernode_sizes(p: usize) -> Vec<usize> {
    let mut sizes = vec![1, 2, 3, p / 2, 256, 384];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

fn check_grid(p: usize, pick: &mut impl FnMut() -> bool) {
    for algo in [
        Algorithm::Ring,
        Algorithm::RecursiveHalvingDoubling,
        Algorithm::Binomial,
    ] {
        if algo != Algorithm::Ring && !p.is_power_of_two() {
            continue;
        }
        for map in [RankMap::Natural, RankMap::RoundRobin] {
            for ss in supernode_sizes(p) {
                for (total, seg) in geometries(p) {
                    if !pick() {
                        continue;
                    }
                    let spec =
                        CommSpec::new(Topology::with_supernode(p, ss), map, algo, total, seg)
                            .unwrap();
                    check(&spec, &params());
                }
            }
        }
    }
}

#[test]
fn class_pricing_matches_the_walk_up_to_64_ranks() {
    for p in 2..=64 {
        check_grid(p, &mut || true);
    }
}

/// A seeded sample of the grid up to the 4,096 ranks of the benchmark's
/// largest ring. Run in release: `cargo test --release -p swnet --test
/// class_pricing -- --include-ignored`.
#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn class_pricing_matches_the_walk_up_to_4096_ranks() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut sizes: Vec<usize> = (0..10).map(|_| 65 + (next() % 4032) as usize).collect();
    sizes.extend([128, 1024, 1500, 4096]);
    for p in sizes {
        // About one configuration in eight, at least one per size.
        let mut first = true;
        check_grid(p, &mut || {
            let take = first || next() % 8 == 0;
            first = false;
            take
        });
    }
}

fn summary(
    algo: Algorithm,
    topo: &Topology,
    elems: usize,
    faults: Option<&mut FaultSession>,
) -> Summary {
    let r = allreduce_segment_ft(
        topo,
        &params(),
        RankMap::RoundRobin,
        algo,
        elems,
        0..elems,
        None,
        faults,
    )
    .unwrap();
    (
        r.elapsed.seconds().to_bits(),
        r.steps,
        r.cross_bytes,
        r.total_bytes,
    )
}

#[test]
fn inert_fault_session_prices_like_no_session() {
    let topo = Topology::with_supernode(96, 16);
    for algo in [Algorithm::Ring, Algorithm::RecursiveHalvingDoubling] {
        let topo = if algo == Algorithm::Ring {
            topo
        } else {
            Topology::with_supernode(128, 16)
        };
        let healthy = summary(algo, &topo, 50_001, None);
        // No events at all, a crash outside the allocation, a crash at a
        // later iteration and a corruption rate of 0: nothing fires.
        for plan in [
            FaultPlan::new(1),
            FaultPlan::new(2).crash(100_000, 0),
            FaultPlan::new(3).crash(5, 10),
            FaultPlan::new(4).corruption(0.0),
        ] {
            let mut session = FaultSession::new(plan);
            session.begin_iteration(2);
            assert_eq!(
                summary(algo, &topo, 50_001, Some(&mut session)),
                healthy,
                "{algo:?}"
            );
        }
    }
}

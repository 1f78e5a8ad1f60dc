//! Standalone collective primitives beyond all-reduce: broadcast, reduce
//! and reduce-scatter. S-Caffe (ref \[24\] of the paper) builds its
//! training on reduce/broadcast pairs; having them here lets the ablation
//! suite compare that design point against the all-reduce the paper
//! chose, and gives the library the surface a downstream user expects.
//!
//! Broadcast and reduce move whole buffers along a binomial tree through
//! the all-reduce's in-place `deliver`. In a tree step a rank sends or
//! receives, never both, so delivering each move in place reads exactly
//! what the step started with.

use sw26010::SimTime;

use crate::collectives::deliver;
use crate::cost::{step_time, NetParams, Transfer};
use crate::topology::{RankMap, Topology};

/// Outcome of a primitive collective.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveReport {
    pub elapsed: SimTime,
    pub steps: usize,
}

/// Binomial-tree broadcast from logical rank 0.
pub fn broadcast(
    topo: &Topology,
    params: &NetParams,
    map: RankMap,
    elems: usize,
    mut data: Option<&mut [Vec<f32>]>,
) -> CollectiveReport {
    let p = topo.nodes;
    assert!(
        p.is_power_of_two(),
        "binomial broadcast needs a power-of-two node count"
    );
    if let Some(d) = data.as_deref() {
        assert_eq!(d.len(), p, "one buffer per node");
        assert!(
            d.iter().all(|v| v.len() == elems),
            "every buffer holds {elems} elements"
        );
    }
    let bytes = elems * 4;
    let mut elapsed = SimTime::ZERO;
    let mut steps = 0;
    let mut mask = p / 2;
    while mask >= 1 {
        let mut transfers = Vec::new();
        let mut moves: Vec<(usize, usize)> = Vec::new();
        for r in (0..p).step_by(mask * 2) {
            let dst = r + mask;
            if dst < p {
                let src_phys = map.physical(topo, r);
                let dst_phys = map.physical(topo, dst);
                transfers.push(Transfer {
                    src: src_phys,
                    dst: dst_phys,
                    bytes,
                    reduce_bytes: 0,
                });
                moves.push((src_phys, dst_phys));
            }
        }
        elapsed += step_time(topo, params, &transfers);
        steps += 1;
        if let Some(d) = data.as_deref_mut() {
            for (src, dst) in moves {
                deliver(d, src, dst, 0..elems, false);
            }
        }
        mask /= 2;
    }
    CollectiveReport { elapsed, steps }
}

/// Binomial-tree sum-reduce to logical rank 0.
pub fn reduce(
    topo: &Topology,
    params: &NetParams,
    map: RankMap,
    elems: usize,
    mut data: Option<&mut [Vec<f32>]>,
) -> CollectiveReport {
    let p = topo.nodes;
    assert!(
        p.is_power_of_two(),
        "binomial reduce needs a power-of-two node count"
    );
    if let Some(d) = data.as_deref() {
        assert_eq!(d.len(), p, "one buffer per node");
        assert!(
            d.iter().all(|v| v.len() == elems),
            "every buffer holds {elems} elements"
        );
    }
    let bytes = elems * 4;
    let mut elapsed = SimTime::ZERO;
    let mut steps = 0;
    let mut mask = 1;
    while mask < p {
        let mut transfers = Vec::new();
        let mut moves: Vec<(usize, usize)> = Vec::new();
        for r in (0..p).step_by(mask * 2) {
            let src = r + mask;
            if src < p {
                let src_phys = map.physical(topo, src);
                let dst_phys = map.physical(topo, r);
                transfers.push(Transfer {
                    src: src_phys,
                    dst: dst_phys,
                    bytes,
                    reduce_bytes: bytes,
                });
                moves.push((src_phys, dst_phys));
            }
        }
        elapsed += step_time(topo, params, &transfers);
        steps += 1;
        if let Some(d) = data.as_deref_mut() {
            for (src, dst) in moves {
                deliver(d, src, dst, 0..elems, true);
            }
        }
        mask *= 2;
    }
    CollectiveReport { elapsed, steps }
}

/// The parameter-server-style synchronisation the paper argues *against*
/// (Sec. V-A): every worker sends its gradient to one server rank, which
/// sums and sends updated state back. All traffic funnels through one
/// node's single network port.
pub fn parameter_server_round(
    topo: &Topology,
    params: &NetParams,
    server_phys: usize,
    elems: usize,
) -> CollectiveReport {
    let p = topo.nodes;
    let bytes = elems * 4;
    // Inbound: p-1 simultaneous sends into one port — serialised.
    let mut elapsed = SimTime::ZERO;
    for _ in 0..p - 1 {
        elapsed += step_time(
            topo,
            params,
            &[Transfer {
                src: (server_phys + 1) % p,
                dst: server_phys,
                bytes,
                reduce_bytes: bytes,
            }],
        );
    }
    // Outbound: p-1 sends of the fresh parameters.
    for _ in 0..p - 1 {
        elapsed += step_time(
            topo,
            params,
            &[Transfer {
                src: server_phys,
                dst: (server_phys + 1) % p,
                bytes,
                reduce_bytes: 0,
            }],
        );
    }
    CollectiveReport {
        elapsed,
        steps: 2 * (p - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce, Algorithm};
    use crate::cost::ReduceEngine;

    fn data(p: usize, elems: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let d: Vec<Vec<f32>> = (0..p)
            .map(|r| (0..elems).map(|i| (r * 3 + i) as f32).collect())
            .collect();
        let mut sum = vec![0.0f32; elems];
        for row in &d {
            for (s, v) in sum.iter_mut().zip(row) {
                *s += v;
            }
        }
        (d, sum)
    }

    #[test]
    fn broadcast_copies_root_everywhere() {
        let topo = Topology::with_supernode(8, 4);
        let params = NetParams::sunway(ReduceEngine::Mpe);
        let (mut d, _) = data(8, 13);
        let root = d[0].clone();
        let r = broadcast(&topo, &params, RankMap::Natural, 13, Some(&mut d));
        assert_eq!(r.steps, 3);
        for row in &d {
            assert_eq!(row, &root);
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        let topo = Topology::with_supernode(8, 4);
        let params = NetParams::sunway(ReduceEngine::Mpe);
        let (mut d, want) = data(8, 9);
        let r = reduce(&topo, &params, RankMap::Natural, 9, Some(&mut d));
        assert_eq!(r.steps, 3);
        assert_eq!(d[0], want);
    }

    #[test]
    #[should_panic(expected = "one buffer per node")]
    fn reduce_rejects_a_short_buffer_list() {
        let topo = Topology::with_supernode(8, 4);
        let params = NetParams::sunway(ReduceEngine::Mpe);
        let (mut d, _) = data(7, 9);
        reduce(&topo, &params, RankMap::Natural, 9, Some(&mut d));
    }

    #[test]
    #[should_panic(expected = "every buffer holds 9 elements")]
    fn reduce_rejects_a_short_buffer() {
        let topo = Topology::with_supernode(8, 4);
        let params = NetParams::sunway(ReduceEngine::Mpe);
        let (mut d, _) = data(8, 9);
        d[5].pop();
        reduce(&topo, &params, RankMap::Natural, 9, Some(&mut d));
    }

    #[test]
    #[should_panic(expected = "every buffer holds 9 elements")]
    fn broadcast_rejects_a_short_buffer() {
        let topo = Topology::with_supernode(8, 4);
        let params = NetParams::sunway(ReduceEngine::Mpe);
        let (mut d, _) = data(8, 9);
        d[3].pop();
        broadcast(&topo, &params, RankMap::Natural, 9, Some(&mut d));
    }

    #[test]
    #[should_panic(expected = "one buffer per node")]
    fn reduce_rejects_a_long_buffer_list() {
        let topo = Topology::with_supernode(8, 4);
        let params = NetParams::sunway(ReduceEngine::Mpe);
        let (mut d, _) = data(9, 9);
        reduce(&topo, &params, RankMap::Natural, 9, Some(&mut d));
    }

    #[test]
    fn reduce_plus_broadcast_equals_allreduce_result() {
        let topo = Topology::with_supernode(8, 4);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let (mut d1, want) = data(8, 21);
        reduce(&topo, &params, RankMap::Natural, 21, Some(&mut d1));
        broadcast(&topo, &params, RankMap::Natural, 21, Some(&mut d1));
        for row in &d1 {
            for (g, w) in row.iter().zip(&want) {
                assert!((g - w).abs() < 1e-4);
            }
        }
        let (mut d2, _) = data(8, 21);
        allreduce(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::RecursiveHalvingDoubling,
            21,
            Some(&mut d2),
        );
        for (a, b) in d1.iter().zip(&d2) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn parameter_server_loses_to_allreduce_at_scale() {
        // The paper's Sec. V-A argument: one network port serialises all
        // gradient traffic.
        let topo = Topology::new(256);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let elems = 10_000_000; // 40 MB
        let ps = parameter_server_round(&topo, &params, 0, elems);
        let ar = allreduce(
            &topo,
            &params,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            elems,
            None,
        );
        assert!(
            ps.elapsed.seconds() > 10.0 * ar.elapsed.seconds(),
            "parameter server {} vs all-reduce {}",
            ps.elapsed.seconds(),
            ar.elapsed.seconds()
        );
    }
}

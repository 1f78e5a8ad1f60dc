//! Randomised-but-deterministic tests of the collectives: every algorithm
//! must compute the exact same sums for many node counts, payload sizes
//! and topologies, and the structural traffic invariants must hold.
//!
//! Cases are drawn from a fixed-seed SplitMix64 stream instead of a
//! property-testing framework so the suite runs with zero external
//! dependencies and every failure reproduces exactly.

use swnet::{allreduce, Algorithm, NetParams, RankMap, ReduceEngine, Topology};

/// Deterministic case generator (SplitMix64).
struct CaseRng {
    state: u64,
}

impl CaseRng {
    fn new(seed: u64) -> Self {
        CaseRng { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn node_data(p: usize, elems: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
    let data: Vec<Vec<f32>> = (0..p)
        .map(|r| {
            (0..elems)
                .map(|i| {
                    let x = ((r * 1000 + i) as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    ((x >> 40) % 100) as f32 / 10.0 - 5.0
                })
                .collect()
        })
        .collect();
    let mut want = vec![0.0f32; elems];
    for row in &data {
        for (w, v) in want.iter_mut().zip(row) {
            *w += v;
        }
    }
    (data, want)
}

#[test]
fn all_algorithms_compute_the_same_sum() {
    let mut rng = CaseRng::new(0xA11);
    for _ in 0..16 {
        let log_p = rng.range(1, 5) as u32;
        let elems = rng.range(1, 200);
        let q_div = rng.range(1, 3);
        let round_robin = rng.flag();
        let p = 1usize << log_p;
        let q = (p / (1 << q_div)).max(1);
        let topo = Topology::with_supernode(p, q);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let map = if round_robin {
            RankMap::RoundRobin
        } else {
            RankMap::Natural
        };
        let (_, want) = node_data(p, elems);
        for algo in [
            Algorithm::RecursiveHalvingDoubling,
            Algorithm::Ring,
            Algorithm::Binomial,
        ] {
            let (mut data, _) = node_data(p, elems);
            allreduce(&topo, &params, map, algo, elems, Some(&mut data));
            for (r, row) in data.iter().enumerate() {
                for (i, (g, w)) in row.iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() < 1e-3 * w.abs().max(1.0),
                        "{algo:?}/{map:?} p={p} q={q}: node {r} elem {i}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn ring_works_for_any_node_count() {
    let mut rng = CaseRng::new(0x4165);
    for _ in 0..16 {
        let p = rng.range(2, 12);
        let elems = rng.range(1, 100);
        let topo = Topology::with_supernode(p, (p / 2).max(1));
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let (mut data, want) = node_data(p, elems);
        allreduce(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::Ring,
            elems,
            Some(&mut data),
        );
        for row in &data {
            for (g, w) in row.iter().zip(&want) {
                assert!((g - w).abs() < 1e-3 * w.abs().max(1.0));
            }
        }
    }
}

#[test]
fn round_robin_never_increases_cross_traffic() {
    let mut rng = CaseRng::new(0x4242);
    for _ in 0..16 {
        let log_p = rng.range(2, 6) as u32;
        let q_div = rng.range(1, 3);
        let elems = rng.range(64, 10_000);
        let p = 1usize << log_p;
        let q = (p / (1 << q_div)).max(2);
        let topo = Topology::with_supernode(p, q);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let nat = allreduce(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::RecursiveHalvingDoubling,
            elems,
            None,
        );
        let rr = allreduce(
            &topo,
            &params,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            elems,
            None,
        );
        assert!(
            rr.cross_bytes <= nat.cross_bytes,
            "remap increased cross traffic: {} vs {}",
            rr.cross_bytes,
            nat.cross_bytes
        );
        assert_eq!(rr.total_bytes, nat.total_bytes);
        assert_eq!(rr.steps, nat.steps);
    }
}

#[test]
fn allreduce_time_is_monotone_in_payload() {
    let mut rng = CaseRng::new(0x7107);
    for _ in 0..16 {
        let log_p = rng.range(1, 6) as u32;
        let elems = rng.range(64, 100_000);
        let p = 1usize << log_p;
        let topo = Topology::new(p);
        let params = NetParams::sunway_allreduce(ReduceEngine::CpeClusters);
        let t1 = allreduce(
            &topo,
            &params,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            elems,
            None,
        )
        .elapsed
        .seconds();
        let t2 = allreduce(
            &topo,
            &params,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            2 * elems,
            None,
        )
        .elapsed
        .seconds();
        assert!(t2 >= t1);
    }
}

//! In-place delivery against a staged reference.
//!
//! The runtime delivers each functional message straight from the
//! sender's buffer into the receiver's. The reference here does what the
//! bulk-synchronous model says: copy every payload a step sends, then
//! apply them all, in emission order. It is built only from the public
//! schedule (`CommSpec::expand_step_into`, `chunk_table`, `elem_span`),
//! so it shares no delivery code with the runtime. Both must agree bit
//! for bit on data whose sums depend on the order of addition.

use std::ops::Range;

use swnet::{
    allreduce_segment_ft, Algorithm, CommSpec, FaultPlan, FaultSession, NetParams, RankMap,
    ReduceEngine, Topology,
};

const MAPS: [RankMap; 2] = [RankMap::Natural, RankMap::RoundRobin];

/// Run steps `steps` of `spec` over `data` (indexed by physical rank) with
/// every payload copied at send time and applied after the step's sends.
fn staged(spec: &CommSpec, steps: Range<usize>, data: &mut [Vec<f32>]) {
    let topo = spec.topo;
    let chunks = spec.chunk_table();
    let mut ops = Vec::new();
    for step in steps {
        ops.clear();
        spec.expand_step_into(step, &mut ops);
        let msgs: Vec<(usize, usize, Vec<f32>, bool)> = ops
            .iter()
            .filter(|o| o.is_send)
            .map(|op| {
                let (lo, hi) = CommSpec::elem_span(&chunks, op.chunks);
                let src = spec.map.physical(&topo, op.rank);
                let dst = spec.map.physical(&topo, op.peer);
                (dst, lo, data[src][lo..hi].to_vec(), op.reduce)
            })
            .collect();
        for (dst, lo, payload, fold) in msgs {
            let target = &mut data[dst][lo..lo + payload.len()];
            if fold {
                for (t, v) in target.iter_mut().zip(&payload) {
                    *t += *v;
                }
            } else {
                target.copy_from_slice(&payload);
            }
        }
    }
}

/// Seeded values spread over forty binary orders of magnitude, both
/// signs: any change to which operands meet, or in what order, changes
/// the bits of the sums.
fn rough_data(p: usize, elems: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..p)
        .map(|_| {
            (0..elems)
                .map(|_| {
                    let r = next();
                    let mantissa = 1.0 + (r >> 40) as f32 / (1u64 << 24) as f32;
                    let exp = (r % 41) as i32 - 20;
                    let sign = if r & (1 << 8) != 0 { -1.0 } else { 1.0 };
                    sign * mantissa * 2f32.powi(exp)
                })
                .collect()
        })
        .collect()
}

fn assert_bits_eq(got: &[Vec<f32>], want: &[Vec<f32>], what: &str) {
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        for (i, (x, y)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: rank {rank} elem {i}: {x} vs {y}"
            );
        }
    }
}

/// The runtime against the staged reference for one configuration, once
/// over the whole buffer and once as three consecutive segments.
fn check_allreduce(algo: Algorithm, map: RankMap, p: usize, supernode: usize, elems: usize) {
    let topo = Topology::with_supernode(p, supernode);
    let params = NetParams::sunway(ReduceEngine::CpeClusters);
    let split = [0, elems / 5, elems / 2 + 3, elems];
    for cuts in [&[0, elems][..], &split[..]] {
        let what = format!(
            "{algo:?}/{map:?} p={p} supernode={supernode} elems={elems} {} segment(s)",
            cuts.len() - 1
        );
        let mut got = rough_data(p, elems, p as u64 * 1000 + elems as u64);
        let mut want = got.clone();
        for seg in cuts.windows(2).map(|w| w[0]..w[1]) {
            allreduce_segment_ft(
                &topo,
                &params,
                map,
                algo,
                elems,
                seg.clone(),
                Some(&mut got),
                None,
            )
            .unwrap();
            let spec = CommSpec::new(topo, map, algo, elems, seg).unwrap();
            staged(&spec, 0..spec.num_steps(), &mut want);
        }
        assert_bits_eq(&got, &want, &what);
    }
}

fn tree_sizes(max: usize) -> impl Iterator<Item = usize> {
    (1..).map(|k| 1usize << k).take_while(move |&p| p <= max)
}

#[test]
fn ring_delivers_like_the_staged_reference() {
    for map in MAPS {
        for p in 2..=33 {
            for supernode in [(p / 2).max(1), 3] {
                check_allreduce(Algorithm::Ring, map, p, supernode, 257);
            }
        }
    }
}

#[test]
fn trees_deliver_like_the_staged_reference() {
    for algo in [Algorithm::RecursiveHalvingDoubling, Algorithm::Binomial] {
        for map in MAPS {
            for p in tree_sizes(32) {
                for supernode in [(p / 2).max(1), 3] {
                    check_allreduce(algo, map, p, supernode, 257);
                }
            }
        }
    }
}

#[test]
fn corrupted_messages_are_delivered_like_the_staged_reference() {
    // Retransmission verifies a damaged copy and then delivers from the
    // sender's buffer: the result must not depend on the fault plan.
    let elems = 301;
    for algo in [
        Algorithm::RecursiveHalvingDoubling,
        Algorithm::Ring,
        Algorithm::Binomial,
    ] {
        let p = 8;
        let topo = Topology::with_supernode(p, 4);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let mut got = rough_data(p, elems, 7);
        let mut want = got.clone();
        let mut session = FaultSession::new(FaultPlan::new(2024).corruption(0.3).max_retries(16));
        session.begin_iteration(0);
        allreduce_segment_ft(
            &topo,
            &params,
            RankMap::RoundRobin,
            algo,
            elems,
            0..elems,
            Some(&mut got),
            Some(&mut session),
        )
        .unwrap();
        assert!(session.report.corrupted_msgs > 0, "{algo:?}");
        let spec = CommSpec::monolithic(topo, RankMap::RoundRobin, algo, elems).unwrap();
        staged(&spec, 0..spec.num_steps(), &mut want);
        assert_bits_eq(&got, &want, &format!("{algo:?} under corruption"));
    }
}

/// Larger grid for release runs: every ring size up to 64, a spread of
/// ring sizes up to 256 (primes, powers of two and their neighbours) and
/// the trees at 64-256 ranks, plus one 1 M-element buffer per algorithm.
#[test]
#[ignore = "larger grid; run in release with --include-ignored"]
fn large_grid_delivers_like_the_staged_reference() {
    for map in MAPS {
        for p in (34..=64).chain([97, 127, 128, 129, 193, 255, 256]) {
            check_allreduce(Algorithm::Ring, map, p, (p / 4).max(1), 4099);
        }
        for p in [64, 128, 256] {
            for algo in [Algorithm::RecursiveHalvingDoubling, Algorithm::Binomial] {
                check_allreduce(algo, map, p, p / 4, 4099);
            }
        }
        for algo in [
            Algorithm::RecursiveHalvingDoubling,
            Algorithm::Ring,
            Algorithm::Binomial,
        ] {
            check_allreduce(algo, map, 8, 4, 1 << 20);
        }
    }
}

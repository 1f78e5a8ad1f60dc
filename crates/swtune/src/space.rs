//! Candidate enumeration: the finite, feasibility-filtered design space
//! the searcher walks.
//!
//! Two axes of determinism matter here. The *contents* of the space are
//! a pure function of the layer shape — candidates come off fixed
//! ladders, filtered through the same `validate()` the launch path
//! enforces, so the set can never contain an LDM-overflowing or
//! non-batch-dividing plan. The *order* is seedable: `shuffle` is a
//! splitmix64-driven Fisher–Yates, so two runs with the same seed visit
//! candidates identically, while the argmin in [`crate::search`] makes
//! the winner independent of the order altogether.

use sw26010::KernelPlan;
use swdnn::conv_implicit::{ConvTiles, ImplicitPass};
use swdnn::gemm::TilePlan;
use swdnn::{Broadcast, Buffering, ConvShape, GemmDims, TilingScheme};

use crate::search;

/// Version tag of the enumeration below. Part of the tune-DB
/// invalidation key: bump it whenever the ladders or variants change so
/// stale DBs are rejected rather than silently reused.
pub(crate) const SPACE_VERSION: &str = "gemm-v1.conv-v1";

/// Tile-extent ladder for the GEMM block search. Spans the feasible
/// range (`MAX_TILE` = 32) with denser coverage at the small end where
/// the LDM trade-offs bite.
pub(crate) const GEMM_EXTENTS: [usize; 9] = [1, 2, 4, 6, 8, 12, 16, 24, 32];

/// Channel-tile ladder for the implicit-conv search.
pub(crate) const CONV_EXTENTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Kernel-variant axis of the GEMM space. `(DmaReplicate, Double)` is
/// excluded: the no-RLC kernel has a single staging depth, so that
/// combination would duplicate `(DmaReplicate, Single)` under another
/// label.
const GEMM_VARIANTS: [(Buffering, Broadcast); 3] = [
    (Buffering::Single, Broadcast::RowCol),
    (Buffering::Double, Broadcast::RowCol),
    (Buffering::Single, Broadcast::DmaReplicate),
];

/// All feasible GEMM schemes for `dims`: the hand pick plus every
/// ladder/variant combination that validates. The hand point is always
/// first and always present, so the searched winner can never be worse
/// than the hand choice under the cost model.
pub fn gemm_candidates(dims: GemmDims) -> Vec<TilingScheme> {
    let hand = TilingScheme::hand(dims);
    let mut out = vec![hand];
    for &mt in &GEMM_EXTENTS {
        for &nt in &GEMM_EXTENTS {
            for &kt in &GEMM_EXTENTS {
                for (buffering, broadcast) in GEMM_VARIANTS {
                    let s = TilingScheme {
                        tile: TilePlan { mt, nt, kt },
                        buffering,
                        broadcast,
                    };
                    if s != hand && s.validate().is_ok() {
                        out.push(s);
                    }
                }
            }
        }
    }
    out
}

/// Divisors of `batch` usable as the batch-fibre tile, capped at the
/// largest extent the kernels block for.
fn fibre_candidates(batch: usize) -> Vec<usize> {
    (1..=batch.min(64))
        .filter(|d| batch.is_multiple_of(*d))
        .collect()
}

/// All feasible implicit-conv tile triples for `pass` on `shape`: the
/// hand pick plus every channel-ladder x batch-divisor combination that
/// validates (LDM fit and batch divisibility included).
pub fn conv_tiles_candidates(shape: &ConvShape, pass: ImplicitPass) -> Vec<ConvTiles> {
    let hand = search::hand_tiles(shape, pass);
    let mut out = vec![hand];
    for &a in &CONV_EXTENTS {
        for &b in &CONV_EXTENTS {
            for &fibre in &fibre_candidates(shape.batch) {
                // `nt` spans the batch fibre except in the weight-gradient
                // kernel, where `kt` does.
                let t = match pass {
                    ImplicitPass::BackwardWeights => ConvTiles {
                        mt: a,
                        nt: b,
                        kt: fibre,
                    },
                    _ => ConvTiles {
                        mt: a,
                        nt: fibre,
                        kt: b,
                    },
                };
                if t != hand && t.validate(pass, shape).is_ok() {
                    out.push(t);
                }
            }
        }
    }
    out
}

/// Every kernel plan the searcher can emit for `shape`, labelled and
/// deduplicated — the zoo the `swcheck` static lint sweeps. GEMM plans
/// are shape-independent modulo the hand point, so duplicates across the
/// three passes collapse to one entry.
pub fn zoo_plans(shape: &ConvShape) -> Vec<(String, KernelPlan)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for pass in [
        ImplicitPass::Forward,
        ImplicitPass::BackwardWeights,
        ImplicitPass::BackwardInput,
    ] {
        for s in gemm_candidates(search::gemm_dims_for(shape, pass)) {
            let label = format!("gemm/{}", s.label());
            if seen.insert(label.clone()) {
                out.push((label, s.kernel_plan()));
            }
        }
        if search::implicit_allowed(shape, pass) {
            for t in conv_tiles_candidates(shape, pass) {
                let plan = t.kernel_plan(pass);
                let label = format!("{}/{}x{}x{}", plan.name, t.mt, t.nt, t.kt);
                if seen.insert(label.clone()) {
                    out.push((label, plan));
                }
            }
        }
    }
    out
}

/// Deterministic seeded Fisher–Yates driven by splitmix64. Same seed,
/// same order; the empty and single-element cases are no-ops.
pub(crate) fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shape() -> ConvShape {
        ConvShape {
            batch: 128,
            in_c: 128,
            in_h: 28,
            in_w: 28,
            out_c: 128,
            k: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn gemm_candidates_all_validate_and_include_hand() {
        let dims = GemmDims::new(128, 100352, 1152);
        let cands = gemm_candidates(dims);
        assert_eq!(cands[0], TilingScheme::hand(dims));
        assert!(cands.len() > 100, "space too small: {}", cands.len());
        for s in &cands {
            s.validate()
                .unwrap_or_else(|v| panic!("{}: {v}", s.label()));
        }
        // No duplicates: labels identify schemes uniquely.
        let mut labels: Vec<String> = cands.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cands.len());
    }

    #[test]
    fn conv_candidates_divide_batch_and_fit_ldm() {
        let shape = small_shape();
        for pass in [
            ImplicitPass::Forward,
            ImplicitPass::BackwardWeights,
            ImplicitPass::BackwardInput,
        ] {
            let cands = conv_tiles_candidates(&shape, pass);
            assert_eq!(cands[0], search::hand_tiles(&shape, pass));
            assert!(cands.len() > 20, "space too small: {}", cands.len());
            for t in &cands {
                t.validate(pass, &shape).unwrap();
                assert!(shape.batch.is_multiple_of(t.fibre_tile(pass)));
            }
        }
    }

    #[test]
    fn enumeration_is_a_pure_function_of_shape() {
        let dims = GemmDims::new(64, 50176, 27);
        assert_eq!(gemm_candidates(dims), gemm_candidates(dims));
        let shape = small_shape();
        assert_eq!(
            conv_tiles_candidates(&shape, ImplicitPass::Forward),
            conv_tiles_candidates(&shape, ImplicitPass::Forward),
        );
    }

    #[test]
    fn shuffle_is_seed_deterministic_and_a_permutation() {
        let base: Vec<usize> = (0..97).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        shuffle(&mut a, 42);
        shuffle(&mut b, 42);
        assert_eq!(a, b, "same seed must give the same order");
        let mut c = base.clone();
        shuffle(&mut c, 43);
        assert_ne!(a, c, "different seeds should give different orders");
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, base, "shuffle must be a permutation");
    }

    #[test]
    fn zoo_plans_are_unique_and_nonempty() {
        let zoo = zoo_plans(&small_shape());
        assert!(zoo.len() > 100, "zoo too small: {}", zoo.len());
        let mut labels: Vec<&String> = zoo.iter().map(|(l, _)| l).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), zoo.len());
    }
}

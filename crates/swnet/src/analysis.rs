//! Closed-form all-reduce costs — Equations 2-6 of the paper — and the
//! Fig. 7 worked example (8 nodes in 2 supernodes).
//!
//! The equations assume a constant per-message latency `alpha`; our step
//! machinery uses the protocol-dependent latency of Fig. 6, so tests
//! compare against the equations evaluated with the same per-step alphas.

use crate::cost::NetParams;

/// Inputs of the closed-form model.
#[derive(Debug, Clone, Copy)]
pub struct EqInputs {
    /// Total nodes, power of two.
    pub p: usize,
    /// Nodes per supernode.
    pub q: usize,
    /// Message bytes.
    pub n: usize,
}

/// Eq. 3: original reduce-scatter.
/// `log p * alpha + (q-1) beta1 n/p + (p-q) beta2 n/p + (p-1)/p n gamma`.
pub(crate) fn original_reduce_scatter(
    i: EqInputs,
    alpha: f64,
    beta1: f64,
    beta2: f64,
    gamma: f64,
) -> f64 {
    let (p, q, n) = (i.p as f64, i.q as f64, i.n as f64);
    p.log2() * alpha
        + (q - 1.0) * beta1 * n / p
        + (p - q) * beta2 * n / p
        + (p - 1.0) / p * n * gamma
}

/// Eq. 4: original allgather (no reduction term).
pub(crate) fn original_allgather(i: EqInputs, alpha: f64, beta1: f64, beta2: f64) -> f64 {
    let (p, q, n) = (i.p as f64, i.q as f64, i.n as f64);
    p.log2() * alpha + (q - 1.0) * beta1 * n / p + (p - q) * beta2 * n / p
}

/// Eq. 5: improved (round-robin) reduce-scatter.
/// `log p * alpha + (p - p/q) beta1 n/p + (p/q - 1) beta2 n/p + (p-1)/p n gamma`.
pub(crate) fn improved_reduce_scatter(
    i: EqInputs,
    alpha: f64,
    beta1: f64,
    beta2: f64,
    gamma: f64,
) -> f64 {
    let (p, q, n) = (i.p as f64, i.q as f64, i.n as f64);
    p.log2() * alpha
        + (p - p / q) * beta1 * n / p
        + (p / q - 1.0) * beta2 * n / p
        + (p - 1.0) / p * n * gamma
}

/// Eq. 6: improved allgather.
pub(crate) fn improved_allgather(i: EqInputs, alpha: f64, beta1: f64, beta2: f64) -> f64 {
    let (p, q, n) = (i.p as f64, i.q as f64, i.n as f64);
    p.log2() * alpha + (p - p / q) * beta1 * n / p + (p / q - 1.0) * beta2 * n / p
}

/// Eq. 2: whole all-reduce under either mapping.
pub fn allreduce_closed_form(i: EqInputs, params: &NetParams, improved: bool) -> f64 {
    // Use the rendezvous alpha as the representative constant (gradient
    // payloads are far beyond the eager limit).
    let alpha = params.alpha_rendezvous;
    let (b1, b2, g) = (params.beta1, params.beta2(), params.gamma());
    if improved {
        improved_reduce_scatter(i, alpha, b1, b2, g) + improved_allgather(i, alpha, b1, b2)
    } else {
        original_reduce_scatter(i, alpha, b1, b2, g) + original_allgather(i, alpha, b1, b2)
    }
}

/// The Fig. 7 example: 8 nodes in 2 supernodes. Returns
/// `(original, improved)` costs in the figure's symbolic units evaluated
/// numerically: `6 alpha + 7/8 n gamma + (beta-terms)`.
pub fn fig7_example(n: usize, alpha: f64, beta1: f64, beta2: f64, gamma: f64) -> (f64, f64) {
    let nf = n as f64;
    // Original: 6a + 7/8 n gamma + 3/4 n beta1 + n beta2.
    let original = 6.0 * alpha + 7.0 / 8.0 * nf * gamma + 0.75 * nf * beta1 + nf * beta2;
    // Improved: 6a + 7/8 n gamma + 3/2 n beta1 + 1/4 n beta2.
    let improved = 6.0 * alpha + 7.0 / 8.0 * nf * gamma + 1.5 * nf * beta1 + 0.25 * nf * beta2;
    (original, improved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce, Algorithm};
    use crate::cost::ReduceEngine;
    use crate::topology::{RankMap, Topology};

    /// Sum of beta/gamma terms must match the step machinery exactly
    /// (alphas differ because the machinery uses size-dependent latency).
    fn machinery_time(p: usize, q: usize, n_elems: usize, map: RankMap) -> (f64, usize) {
        let topo = Topology::with_supernode(p, q);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let r = allreduce(
            &topo,
            &params,
            map,
            Algorithm::RecursiveHalvingDoubling,
            n_elems,
            None,
        );
        (r.elapsed.seconds(), r.steps)
    }

    fn alphas_of_steps(p: usize, n_elems: usize, params: &NetParams) -> f64 {
        // Step message sizes: n/2, n/4, ..., n/p then back up.
        let n = n_elems * 4;
        let mut total = 0.0;
        let mut m = p / 2;
        while m >= 1 {
            total += 2.0 * params.alpha(n * m / p);
            m /= 2;
        }
        total
    }

    #[test]
    fn closed_form_matches_step_machinery() {
        for (p, q) in [(8, 4), (16, 4), (32, 8)] {
            let n_elems = 1 << 18; // 1 MB
            let params = NetParams::sunway(ReduceEngine::CpeClusters);
            let i = EqInputs {
                p,
                q,
                n: n_elems * 4,
            };
            let (b1, b2, g) = (params.beta1, params.beta2(), params.gamma());

            for (map, improved) in [(RankMap::Natural, false), (RankMap::RoundRobin, true)] {
                let (machine, steps) = machinery_time(p, q, n_elems, map);
                assert_eq!(steps, 2 * (p as f64).log2() as usize);
                let closed = if improved {
                    improved_reduce_scatter(i, 0.0, b1, b2, g) + improved_allgather(i, 0.0, b1, b2)
                } else {
                    original_reduce_scatter(i, 0.0, b1, b2, g) + original_allgather(i, 0.0, b1, b2)
                } + alphas_of_steps(p, n_elems, &params);
                let rel = (machine - closed).abs() / machine;
                assert!(
                    rel < 0.02,
                    "p={p} q={q} improved={improved}: machine {machine} vs closed {closed}"
                );
            }
        }
    }

    #[test]
    fn improvement_reduces_beta2_coefficient() {
        // From p - q to p/q - 1, e.g. 1024 nodes in 4 supernodes:
        // 768 -> 3.
        let i = EqInputs {
            p: 1024,
            q: 256,
            n: 232 << 20,
        };
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let orig = allreduce_closed_form(i, &params, false);
        let imp = allreduce_closed_form(i, &params, true);
        assert!(imp < 0.55 * orig, "improved {imp} vs original {orig}");
    }

    #[test]
    fn fig7_numbers() {
        // With the figure's worked coefficients, the improved plan wins
        // whenever beta2 = 4 beta1 (0.75 + 4 = 4.75 vs 1.5 + 1 = 2.5
        // bandwidth units).
        let (orig, imp) = fig7_example(1 << 20, 0.0, 1.0, 4.0, 0.0);
        let n = (1 << 20) as f64;
        assert!((orig - 4.75 * n).abs() < 1.0);
        assert!((imp - 2.5 * n).abs() < 1.0);
    }

    #[test]
    fn fig7_matches_machinery_for_8_nodes() {
        let n_elems = 1 << 18;
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let (machine_nat, _) = machinery_time(8, 4, n_elems, RankMap::Natural);
        let (machine_rr, _) = machinery_time(8, 4, n_elems, RankMap::RoundRobin);
        let alphas = alphas_of_steps(8, n_elems, &params);
        let (orig, imp) = fig7_example(
            n_elems * 4,
            0.0,
            params.beta1,
            params.beta2(),
            params.gamma(),
        );
        let rel_o = (machine_nat - (orig + alphas)).abs() / machine_nat;
        let rel_i = (machine_rr - (imp + alphas)).abs() / machine_rr;
        assert!(rel_o < 0.02, "original: {machine_nat} vs {}", orig + alphas);
        assert!(rel_i < 0.02, "improved: {machine_rr} vs {}", imp + alphas);
    }
}

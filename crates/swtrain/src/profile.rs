//! Bridges the trainer's timing breakdown into a `swprof` phase tree.
//!
//! [`ChipIteration`] carries the per-phase simulated times of
//! Algorithm 1; [`chip_phase`] renders them as the hierarchical
//! [`PhaseTiming`] the benchmark reports serialise, using one canonical
//! set of phase names so baselines stay comparable across binaries.

use swprof::PhaseTiming;

use crate::ssgd::{ChipIteration, ChipTrainer};

/// Phase tree of one single-chip iteration:
/// `iteration{compute, intra, update}`.
pub fn chip_phase(r: &ChipIteration) -> PhaseTiming {
    PhaseTiming::new("iteration", ChipTrainer::iteration_time(r).seconds())
        .child(PhaseTiming::leaf("compute", r.compute))
        .child(PhaseTiming::leaf("intra", r.intra))
        .child(PhaseTiming::leaf("update", r.update))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::SimTime;

    #[test]
    fn chip_phase_sums_to_iteration_time() {
        let r = ChipIteration {
            loss: 0.5,
            compute: SimTime::from_seconds(2.0),
            intra: SimTime::from_seconds(0.3),
            update: SimTime::from_seconds(0.1),
        };
        let p = chip_phase(&r);
        assert_eq!(p.name, "iteration");
        let child_sum: f64 = p.children.iter().map(|c| c.seconds).sum();
        assert!((p.seconds - child_sum).abs() < 1e-12);
        assert!((p.seconds - 2.4).abs() < 1e-12);
    }
}

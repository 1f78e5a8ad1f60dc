//! Mixed convolution strategy (Sec. IV-B / VI-A).
//!
//! swCaffe keeps both convolution plans and picks per layer and per
//! direction: the implicit plan where its channel gates admit it and it
//! models/measures faster, the explicit plan otherwise. The paper does the
//! measurement online during the first two training iterations; the
//! [`AutoTuner`] reproduces that protocol (`examples/conv_autotune.rs`).

use sw26010::SimTime;

/// Which convolution plan to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    Explicit,
    Implicit,
}

/// Online autotuner reproducing the paper's protocol: run both candidate
/// plans for the first `trial_iters` iterations, record measured times,
/// then lock in the faster plan for the rest of training.
#[derive(Debug)]
pub struct AutoTuner {
    trial_iters: usize,
    seen: usize,
    explicit_total: f64,
    implicit_total: f64,
    implicit_allowed: bool,
    locked: Option<Strategy>,
}

impl AutoTuner {
    pub fn new(trial_iters: usize, implicit_allowed: bool) -> Self {
        AutoTuner {
            trial_iters,
            seen: 0,
            explicit_total: 0.0,
            implicit_total: 0.0,
            implicit_allowed,
            locked: if implicit_allowed {
                None
            } else {
                Some(Strategy::Explicit)
            },
        }
    }

    /// Strategy to use for the next iteration. During the trial window the
    /// tuner alternates so both plans get measured.
    pub fn next_strategy(&self) -> Strategy {
        match self.locked {
            Some(s) => s,
            None => {
                if self.seen.is_multiple_of(2) {
                    Strategy::Explicit
                } else {
                    Strategy::Implicit
                }
            }
        }
    }

    /// Record a measured duration for the plan that ran.
    pub fn record(&mut self, strategy: Strategy, elapsed: SimTime) {
        if self.locked.is_some() {
            return;
        }
        match strategy {
            Strategy::Explicit => self.explicit_total += elapsed.seconds(),
            Strategy::Implicit => self.implicit_total += elapsed.seconds(),
        }
        self.seen += 1;
        if self.seen >= 2 * self.trial_iters {
            self.locked = Some(
                if self.implicit_allowed && self.implicit_total < self.explicit_total {
                    Strategy::Implicit
                } else {
                    Strategy::Explicit
                },
            );
        }
    }

    /// The decision, once made.
    pub fn locked(&self) -> Option<Strategy> {
        self.locked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::ConvShape;
    use crate::{conv_explicit, conv_implicit};

    fn vgg_layer(ni: usize, no: usize, hw: usize) -> ConvShape {
        ConvShape {
            batch: 128,
            in_c: ni,
            in_h: hw,
            in_w: hw,
            out_c: no,
            k: 3,
            stride: 1,
            pad: 1,
        }
    }

    /// Model-predicted best forward plan: implicit where its channel gates
    /// admit it and its model is faster (Table II).
    fn choose_forward(shape: &ConvShape) -> Strategy {
        if conv_implicit::supports_forward(shape)
            && conv_implicit::forward_time(shape) < conv_explicit::forward_time(shape)
        {
            Strategy::Implicit
        } else {
            Strategy::Explicit
        }
    }

    /// Model-predicted best backward plan, both gradients together, as
    /// swCaffe schedules them as one phase.
    fn choose_backward(shape: &ConvShape) -> Strategy {
        let implicit =
            conv_implicit::backward_weights_time(shape) + conv_implicit::backward_input_time(shape);
        let explicit =
            conv_explicit::backward_weights_time(shape) + conv_explicit::backward_input_time(shape);
        if conv_implicit::supports_backward(shape) && implicit < explicit {
            Strategy::Implicit
        } else {
            Strategy::Explicit
        }
    }

    #[test]
    fn conv1_1_must_be_explicit() {
        // Paper Table II: implicit cannot handle 3 input channels.
        assert_eq!(choose_forward(&vgg_layer(3, 64, 224)), Strategy::Explicit);
        assert_eq!(choose_backward(&vgg_layer(3, 64, 224)), Strategy::Explicit);
    }

    #[test]
    fn early_backward_layers_fall_back_to_explicit() {
        // conv1_2 and conv2_1 backward: implicit gated out below 128 ch.
        assert_eq!(choose_backward(&vgg_layer(64, 64, 224)), Strategy::Explicit);
        assert_eq!(
            choose_backward(&vgg_layer(64, 128, 112)),
            Strategy::Explicit
        );
    }

    #[test]
    fn conv1_2_forward_prefers_implicit() {
        // Paper Table II: 4.30 s implicit vs 7.79 s explicit.
        assert_eq!(choose_forward(&vgg_layer(64, 64, 224)), Strategy::Implicit);
    }

    #[test]
    fn deep_small_image_layers_prefer_implicit() {
        // conv5_x: 512 channels at 14x14 — implicit wins (0.40 vs 0.62).
        assert_eq!(choose_forward(&vgg_layer(512, 512, 14)), Strategy::Implicit);
    }

    #[test]
    fn autotuner_locks_after_trials() {
        let mut t = AutoTuner::new(2, true);
        assert!(t.locked().is_none());
        // Feed measurements: implicit consistently faster.
        for i in 0..4 {
            let s = t.next_strategy();
            let elapsed = match s {
                Strategy::Explicit => SimTime::from_seconds(2.0),
                Strategy::Implicit => SimTime::from_seconds(1.0),
            };
            t.record(s, elapsed);
            if i < 3 {
                assert_eq!(t.locked().is_some(), i >= 3);
            }
        }
        assert_eq!(t.locked(), Some(Strategy::Implicit));
        assert_eq!(t.next_strategy(), Strategy::Implicit);
    }

    #[test]
    fn autotuner_respects_gate() {
        let mut t = AutoTuner::new(2, false);
        assert_eq!(t.locked(), Some(Strategy::Explicit));
        t.record(Strategy::Explicit, SimTime::from_seconds(5.0));
        assert_eq!(t.next_strategy(), Strategy::Explicit);
    }
}

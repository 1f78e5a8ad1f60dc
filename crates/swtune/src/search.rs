//! The searcher: score every candidate with the kernels' own analytic
//! cost models and keep a per-layer, per-pass winner.
//!
//! The scoring function is exactly what a `TimingOnly` core group
//! charges for the candidate — `TilingScheme::time_model` for the
//! explicit plan's GEMMs (plus the pass's fixed im2col/col2im cost) and
//! the `conv_implicit::*_time_with` models for the implicit plan — so a
//! winner's `tuned_seconds` is the time the benchmarks will actually
//! report for it.
//!
//! Determinism: candidates are visited in a seed-shuffled order, but the
//! winner is the argmin under the total order `(seconds, label)`, which
//! is independent of visit order. `tune_pass(seed: a) == tune_pass(seed:
//! b)` for all seeds — the property the CI determinism gate pins.

use swdnn::conv_implicit::{ConvTiles, ImplicitPass};
use swdnn::{conv_explicit, conv_implicit, ConvShape, GemmDims, TilingScheme};

use crate::shapes;
use crate::space;

/// Default search seed; affects only the visit order, never the winner.
pub const DEFAULT_SEED: u64 = 0x5CA1AB1E;

/// One searched plan: which convolution strategy won and its blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunedPlan {
    /// Explicit im2col+GEMM plan under this GEMM tiling scheme.
    Explicit(TilingScheme),
    /// Implicit-GEMM plan under these tile extents.
    Implicit(ConvTiles),
}

impl TunedPlan {
    /// Unique display form, e.g. `ex:16x24x32+db` or `im:8x16x4`. The
    /// argmin tie-break orders on this, so uniqueness within a pass's
    /// candidate set is what makes the winner order-independent.
    pub fn label(&self) -> String {
        match self {
            TunedPlan::Explicit(s) => format!("ex:{}", s.label()),
            TunedPlan::Implicit(t) => format!("im:{}x{}x{}", t.mt, t.nt, t.kt),
        }
    }

    /// Predicted whole-batch seconds of `pass` on `shape` under this
    /// plan — the searcher's objective.
    pub fn seconds(&self, shape: &ConvShape, pass: ImplicitPass) -> f64 {
        match self {
            TunedPlan::Explicit(s) => explicit_seconds(shape, pass, *s),
            TunedPlan::Implicit(t) => implicit_seconds(shape, pass, *t),
        }
    }
}

/// The tuning result for one pass of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct PassTuning {
    pub pass: ImplicitPass,
    /// The searched winner.
    pub plan: TunedPlan,
    /// Cost-model seconds of the winner.
    pub tuned_seconds: f64,
    /// Cost-model seconds of the pre-tuner chooser: best of the
    /// hand-blocked explicit plan and (where supported) the hand-blocked
    /// implicit plan.
    pub hand_seconds: f64,
    /// Number of candidates scored.
    pub candidates: usize,
}

/// The tuning result for one layer: forward, weight-gradient and
/// input-gradient passes, in that order.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTuning {
    pub name: String,
    pub(crate) shape: ConvShape,
    pub passes: Vec<PassTuning>,
}

impl LayerTuning {
    /// The passes a training step actually runs: the first layer of a
    /// network (raw image input) never needs an input gradient.
    pub(crate) fn training_passes(&self) -> impl Iterator<Item = &PassTuning> {
        let first_layer = self.shape.in_c == 3;
        self.passes
            .iter()
            .filter(move |p| !(first_layer && p.pass == ImplicitPass::BackwardInput))
    }

    /// Total searched seconds over the training passes.
    pub fn tuned_total(&self) -> f64 {
        self.training_passes().map(|p| p.tuned_seconds).sum()
    }

    /// Total hand-blocked seconds over the training passes.
    pub fn hand_total(&self) -> f64 {
        self.training_passes().map(|p| p.hand_seconds).sum()
    }

    /// Did the search strictly beat the hand blocking on this layer's
    /// training total?
    pub fn is_win(&self) -> bool {
        self.tuned_total() < self.hand_total()
    }
}

/// The GEMM problem behind `pass` of the explicit plan on `shape`.
pub fn gemm_dims_for(shape: &ConvShape, pass: ImplicitPass) -> GemmDims {
    match pass {
        ImplicitPass::Forward => conv_explicit::fwd_gemm_dims(shape),
        ImplicitPass::BackwardWeights => conv_explicit::bwd_weights_gemm_dims(shape),
        ImplicitPass::BackwardInput => conv_explicit::bwd_input_gemm_dims(shape),
    }
}

/// The hand-picked implicit tiles for `pass` — the chooser's pre-tuner
/// defaults, always present in the candidate set.
pub(crate) fn hand_tiles(shape: &ConvShape, pass: ImplicitPass) -> ConvTiles {
    match pass {
        ImplicitPass::Forward => ConvTiles::hand_forward(shape),
        ImplicitPass::BackwardWeights => ConvTiles::hand_backward_weights(shape),
        ImplicitPass::BackwardInput => ConvTiles::hand_backward_input(shape),
    }
}

/// Whether the implicit plan's strategy gate admits `pass` on `shape`
/// (same gate the runtime chooser applies).
pub fn implicit_allowed(shape: &ConvShape, pass: ImplicitPass) -> bool {
    match pass {
        ImplicitPass::Forward => conv_implicit::supports_forward(shape),
        _ => conv_implicit::supports_backward(shape),
    }
}

fn explicit_seconds(shape: &ConvShape, pass: ImplicitPass, scheme: TilingScheme) -> f64 {
    match pass {
        ImplicitPass::Forward => conv_explicit::forward_time_with_scheme(shape, scheme),
        ImplicitPass::BackwardWeights => {
            conv_explicit::backward_weights_time_with_scheme(shape, scheme)
        }
        ImplicitPass::BackwardInput => {
            conv_explicit::backward_input_time_with_scheme(shape, scheme)
        }
    }
    .seconds()
}

fn implicit_seconds(shape: &ConvShape, pass: ImplicitPass, tiles: ConvTiles) -> f64 {
    match pass {
        ImplicitPass::Forward => conv_implicit::forward_time_with(shape, tiles),
        ImplicitPass::BackwardWeights => conv_implicit::backward_weights_time_with(shape, tiles),
        ImplicitPass::BackwardInput => conv_implicit::backward_input_time_with(shape, tiles),
    }
    .seconds()
}

/// Search one pass of one layer. `seed` steers only the candidate visit
/// order; the returned winner is the order-independent argmin over
/// `(seconds, label)`.
pub(crate) fn tune_pass(shape: &ConvShape, pass: ImplicitPass, seed: u64) -> PassTuning {
    let dims = gemm_dims_for(shape, pass);
    let hand_explicit = explicit_seconds(shape, pass, TilingScheme::hand(dims));
    let hand_seconds = if implicit_allowed(shape, pass) {
        hand_explicit.min(implicit_seconds(shape, pass, hand_tiles(shape, pass)))
    } else {
        hand_explicit
    };

    let mut candidates: Vec<TunedPlan> = space::gemm_candidates(dims)
        .into_iter()
        .map(TunedPlan::Explicit)
        .collect();
    if implicit_allowed(shape, pass) {
        candidates.extend(
            space::conv_tiles_candidates(shape, pass)
                .into_iter()
                .map(TunedPlan::Implicit),
        );
    }
    space::shuffle(&mut candidates, seed);

    let n = candidates.len();
    let mut best: Option<(f64, String, TunedPlan)> = None;
    for plan in candidates {
        let secs = plan.seconds(shape, pass);
        let label = plan.label();
        let better = match &best {
            None => true,
            Some((bs, bl, _)) => secs < *bs || (secs == *bs && label < *bl),
        };
        if better {
            best = Some((secs, label, plan));
        }
    }
    let (tuned_seconds, _, plan) = best.expect("candidate set always contains the hand point");
    PassTuning {
        pass,
        plan,
        tuned_seconds,
        hand_seconds,
        candidates: n,
    }
}

/// Search all three passes of one layer.
pub(crate) fn tune_layer(name: &str, shape: &ConvShape, seed: u64) -> LayerTuning {
    LayerTuning {
        name: name.to_string(),
        shape: *shape,
        passes: [
            ImplicitPass::Forward,
            ImplicitPass::BackwardWeights,
            ImplicitPass::BackwardInput,
        ]
        .into_iter()
        .map(|pass| tune_pass(shape, pass, seed))
        .collect(),
    }
}

/// Search the full canonical sweep ([`crate::shapes::vgg_conv_shapes`]).
pub fn tune_all(seed: u64) -> Vec<LayerTuning> {
    shapes::vgg_conv_shapes()
        .iter()
        .map(|(name, shape)| tune_layer(name, shape, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid_shape() -> ConvShape {
        // VGG conv4_2 at a reduced batch: big enough that the trade-offs
        // are real, small enough for fast unit tests.
        ConvShape {
            batch: 16,
            in_c: 512,
            in_h: 28,
            in_w: 28,
            out_c: 512,
            k: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn winner_is_independent_of_seed() {
        let shape = mid_shape();
        for pass in [
            ImplicitPass::Forward,
            ImplicitPass::BackwardWeights,
            ImplicitPass::BackwardInput,
        ] {
            let a = tune_pass(&shape, pass, 1);
            let b = tune_pass(&shape, pass, 0xDEAD_BEEF);
            assert_eq!(a, b, "seed changed the winner for {pass:?}");
        }
    }

    #[test]
    fn tuned_never_loses_to_hand() {
        // The hand point is in the candidate set, so the winner can be
        // at most equal to it under the cost model.
        let shape = mid_shape();
        let tuning = tune_layer("test", &shape, DEFAULT_SEED);
        for p in &tuning.passes {
            assert!(
                p.tuned_seconds <= p.hand_seconds,
                "{:?}: tuned {} > hand {}",
                p.pass,
                p.tuned_seconds,
                p.hand_seconds
            );
            assert!(p.candidates > 100);
        }
    }

    #[test]
    fn winner_seconds_match_its_own_cost_model() {
        let shape = mid_shape();
        let p = tune_pass(&shape, ImplicitPass::Forward, DEFAULT_SEED);
        assert_eq!(
            p.tuned_seconds,
            p.plan.seconds(&shape, ImplicitPass::Forward)
        );
    }

    #[test]
    fn first_layer_training_total_skips_input_gradient() {
        let shape = ConvShape {
            batch: 8,
            in_c: 3,
            in_h: 32,
            in_w: 32,
            out_c: 16,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let tuning = tune_layer("first", &shape, DEFAULT_SEED);
        assert_eq!(tuning.passes.len(), 3);
        assert_eq!(tuning.training_passes().count(), 2);
    }
}

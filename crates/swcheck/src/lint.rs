//! The static lint pass: collect the [`KernelPlan`] of every swdnn
//! kernel across a benchmark shape sweep and validate each one *before*
//! anything executes, so an LDM-overflowing shape is rejected with a
//! named-buffer diagnostic instead of corrupting a run.

use sw26010::{KernelPlan, PlanViolation};
use swdnn::shapes::PoolMethod;
use swdnn::transform::TransShape;
use swdnn::{
    bn, conv_implicit, elementwise, fused, im2col, lrn, pool, softmax, transform, Buffering,
    ConvShape, ConvTiles, GemmDims, ImplicitPass, PoolShape, TilingScheme,
};
use swtune::shapes::vgg_conv_shapes;

/// Result of linting a set of plans.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Number of plans validated.
    pub checked: usize,
    /// Plans that failed validation, with the shape label they came from.
    pub rejected: Vec<(String, PlanViolation)>,
}

impl LintOutcome {
    pub fn is_clean(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// Every kernel plan a convolution layer of this shape can reach during
/// training: the explicit path's im2col/GEMM/col2im plans plus (when the
/// strategy gate allows it) the implicit-GEMM plans and their layout
/// transforms.
pub(crate) fn conv_shape_plans(shape: &ConvShape) -> Vec<KernelPlan> {
    let mut plans = Vec::new();
    // Explicit path: forward GEMM is (out_c x col_rows) * (col_rows x
    // col_cols); the backward GEMMs transpose the same three extents, so
    // their tile plans are drawn from the same dimension set.
    let dims = GemmDims::new(shape.out_c, shape.col_cols(), shape.col_rows());
    let hand = TilingScheme::hand(dims);
    let double = TilingScheme {
        buffering: Buffering::Double,
        ..hand
    };
    plans.push(hand.kernel_plan());
    plans.push(double.kernel_plan());
    plans.push(im2col::im2col_plan(shape));
    plans.push(im2col::col2im_plan(shape));
    // Implicit path, gated exactly like the strategy chooser.
    if conv_implicit::supports_forward(shape) {
        plans.push(ConvTiles::hand_forward(shape).kernel_plan(ImplicitPass::Forward));
        let ts = TransShape {
            batch: shape.batch,
            channels: shape.in_c,
            height: shape.in_h,
            width: shape.in_w,
        };
        plans.push(transform::kernel_plan("swdnn.nchw_to_rcnb", &ts));
        plans.push(transform::kernel_plan("swdnn.rcnb_to_nchw", &ts));
    }
    if conv_implicit::supports_backward(shape) {
        plans.push(ConvTiles::hand_backward_input(shape).kernel_plan(ImplicitPass::BackwardInput));
        plans.push(
            ConvTiles::hand_backward_weights(shape).kernel_plan(ImplicitPass::BackwardWeights),
        );
    }
    plans
}

/// Representative plans for the non-convolution kernel zoo at the
/// largest extents the five benchmark networks reach.
pub(crate) fn auxiliary_plans() -> Vec<KernelPlan> {
    let pool_shape = PoolShape {
        batch: 128,
        channels: 64,
        in_h: 224,
        in_w: 224,
        k: 2,
        stride: 2,
        pad: 0,
        method: PoolMethod::Max,
    };
    vec![
        pool::forward_plan(&pool_shape),
        pool::backward_plan(&pool_shape),
        lrn::forward_plan(96, 55),
        lrn::backward_plan(96, 55),
        bn::forward_stats_plan(224 * 224),
        bn::forward_normalize_plan(512, 224 * 224),
        bn::backward_reduce_plan(224 * 224),
        bn::backward_normalize_plan(512, 224 * 224),
        bn::inference_plan(512, 224 * 224),
        fused::epilogue_plan(512, 224 * 224),
        softmax::forward_plan(1000),
        softmax::backward_plan(1000),
        elementwise::stream_plan("swdnn.unary_map", 1),
        elementwise::stream_plan("swdnn.binary_map", 2),
        elementwise::bias_forward_plan(512, 224 * 224),
        elementwise::bias_backward_plan(224 * 224),
        elementwise::bias_rows_plan(4096),
        elementwise::col_sums_plan(),
        elementwise::copy_blocks_plan(224 * 224),
    ]
}

/// Validate a list of labelled plans.
pub fn lint_plans<'a>(plans: impl IntoIterator<Item = (String, &'a KernelPlan)>) -> LintOutcome {
    let mut out = LintOutcome::default();
    for (label, plan) in plans {
        out.checked += 1;
        if let Err(v) = plan.validate() {
            out.rejected.push((label, v));
        }
    }
    out
}

/// The full static sweep: every VGG-16 conv layer of the Table II
/// benchmark (batch 128) contributes its reachable plans, plus the
/// auxiliary kernel zoo. A clean outcome proves no benchmark shape can
/// overflow the 64 KB LDM at run time.
pub fn lint_benchmark_sweep() -> LintOutcome {
    let mut labelled: Vec<(String, KernelPlan)> = Vec::new();
    for (layer, shape) in vgg_conv_shapes() {
        for plan in conv_shape_plans(&shape) {
            labelled.push((format!("conv{layer}/{}", plan.name), plan));
        }
    }
    for plan in auxiliary_plans() {
        labelled.push((format!("aux/{}", plan.name), plan));
    }
    lint_plans(labelled.iter().map(|(l, p)| (l.clone(), p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_sweep_is_clean() {
        let outcome = lint_benchmark_sweep();
        assert!(
            outcome.checked > 100,
            "sweep too small: {}",
            outcome.checked
        );
        assert!(outcome.is_clean(), "rejected plans: {:?}", outcome.rejected);
    }

    /// Lint the *searched* plan zoo: every kernel plan the `swtune`
    /// candidate enumeration can emit for every Table II layer. A clean
    /// outcome proves the tuner cannot hand the runtime an LDM-overflowing
    /// plan, independent of which candidate wins.
    #[test]
    fn searched_plan_zoo_is_clean() {
        let mut labelled: Vec<(String, KernelPlan)> = Vec::new();
        for (layer, shape) in vgg_conv_shapes() {
            for (label, plan) in swtune::space::zoo_plans(&shape) {
                labelled.push((format!("conv{layer}/{label}"), plan));
            }
        }
        let outcome = lint_plans(labelled.iter().map(|(l, p)| (l.clone(), p)));
        assert!(
            outcome.checked > 10_000,
            "zoo too small: {}",
            outcome.checked
        );
        assert!(outcome.is_clean(), "rejected plans: {:?}", outcome.rejected);
    }

    #[test]
    fn overflowing_plan_is_rejected_with_buffer_names() {
        let bad = KernelPlan::new("swdnn.bogus", 64)
            .buffer("a_tile", 48 * 1024)
            .buffer("b_tile", 48 * 1024);
        let outcome = lint_plans([("bogus".to_string(), &bad)]);
        assert_eq!(outcome.rejected.len(), 1);
        let msg = outcome.rejected[0].1.to_string();
        assert!(msg.contains("overflows LDM"), "{msg}");
        assert!(msg.contains("a_tile"), "{msg}");
    }
}

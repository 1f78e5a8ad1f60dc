//! Softmax + cross-entropy loss (Caffe's `SoftmaxWithLoss`).
//!
//! One work item per image: the logit row (1000 entries for ImageNet) fits
//! comfortably in LDM, so each CPE streams rows, computes a numerically
//! stable softmax, and emits the probability row plus its per-image loss.

use sw26010::{dma, CoreGroup, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime};

/// Static LDM descriptor of the softmax forward kernel (one class row).
pub fn forward_plan(classes: usize) -> KernelPlan {
    KernelPlan::new("swdnn.softmax.fwd", 64).buffer("row", classes * 4)
}

/// Static LDM descriptor of the softmax backward kernel.
pub fn backward_plan(classes: usize) -> KernelPlan {
    KernelPlan::new("swdnn.softmax.bwd", 64).buffer("row", classes * 4)
}

/// Charged cost of one exp/log evaluation, in flops (software
/// transcendentals on the CPE pipelines).
const TRANSCENDENTAL_FLOPS: u64 = 20;

/// Functional operands of the forward pass.
pub struct SoftmaxFwdOperands<'a> {
    /// Logits, `(B, C)` row-major.
    pub logits: &'a [f32],
    /// Class labels, one per image (integral values stored as f32).
    pub labels: &'a [f32],
    /// Output probabilities, `(B, C)`.
    pub probs: &'a mut [f32],
    /// Per-image losses, `(B)`.
    pub losses: &'a mut [f32],
}

/// Softmax + cross-entropy forward.
pub fn forward(
    cg: &mut CoreGroup,
    batch: usize,
    classes: usize,
    ops: Option<SoftmaxFwdOperands<'_>>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, forward_time(batch, classes));
    }
    let ops = ops.expect("functional softmax requires operands");
    assert_eq!(ops.logits.len(), batch * classes);
    assert_eq!(ops.labels.len(), batch);
    assert_eq!(ops.probs.len(), batch * classes);
    assert_eq!(ops.losses.len(), batch);
    check_labels(ops.labels, classes);
    if let ExecMode::HostNative { .. } = cg.mode() {
        let rows: Vec<_> = ops
            .probs
            .chunks_mut(classes)
            .zip(ops.losses.iter_mut())
            .enumerate()
            .collect();
        cg.workers().run(rows, |(b, (prow, loss))| {
            prow.copy_from_slice(&ops.logits[b * classes..][..classes]);
            *loss = forward_row(prow, ops.labels[b] as usize);
        });
        return LaunchReport::default();
    }
    let x = MemView::new(ops.logits);
    let labels = MemView::new(ops.labels);
    let probs = MemViewMut::new(ops.probs);
    let losses = MemViewMut::new(ops.losses);
    cg.run_planned(&forward_plan(classes), move |cpe| {
        let mut row = cpe.ldm.alloc_f32(classes);
        let mut lab = [0.0f32; 1];
        let mut b = cpe.idx();
        while b < batch {
            cpe.dma_get(x, b * classes, &mut row);
            cpe.dma_get(labels, b, &mut lab);
            let loss = cpe.compute(classes as u64 * (TRANSCENDENTAL_FLOPS + 3), || {
                forward_row(&mut row, lab[0] as usize)
            });
            cpe.dma_put(probs, b * classes, &row);
            cpe.dma_put(losses, b, &[loss]);
            b += 64;
        }
    })
}

/// The class a stored label names. Labels are integral values stored as
/// f32; anything else (negative, fractional, NaN, or `classes` and up)
/// panics naming the image, rather than casting to some class.
pub fn label_class(label: f32, classes: usize, image: usize) -> usize {
    assert!(
        label.is_finite() && label.fract() == 0.0 && label >= 0.0 && (label as usize) < classes,
        "label {label} of image {image} is not a class in 0..{classes}"
    );
    label as usize
}

/// Every label of a batch names a class (checked once, before either
/// backend runs).
fn check_labels(labels: &[f32], classes: usize) {
    for (image, label) in labels.iter().enumerate() {
        label_class(*label, classes, image);
    }
}

/// Softmax of one logit row in place, and its cross-entropy loss against
/// class `label`: the arithmetic both backends run. The exp sum
/// accumulates the *unrounded* f64 exponentials while the row stores
/// their f32 roundings.
pub(crate) fn forward_row(row: &mut [f32], label: usize) -> f32 {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    let mut sum = 0.0f64;
    for v in row.iter_mut() {
        let e = ((*v as f64) - max).exp();
        *v = e as f32;
        sum += e;
    }
    for v in row.iter_mut() {
        *v = (*v as f64 / sum) as f32;
    }
    (-(row[label].max(f32::MIN_POSITIVE) as f64).ln()) as f32
}

/// Gradient of one probability row in place: `(p - onehot) * loss_weight`,
/// pure f32.
pub(crate) fn backward_row(row: &mut [f32], label: usize, loss_weight: f32) {
    for (c, v) in row.iter_mut().enumerate() {
        let onehot = if c == label { 1.0 } else { 0.0 };
        *v = (*v - onehot) * loss_weight;
    }
}

/// Functional operands of the backward pass.
pub struct SoftmaxBwdOperands<'a> {
    pub probs: &'a [f32],
    pub labels: &'a [f32],
    /// Gradient w.r.t. the logits, `(B, C)`: `(p - onehot) * loss_weight`.
    pub in_grad: &'a mut [f32],
}

/// Softmax + cross-entropy backward. `loss_weight` is typically `1/B`.
pub fn backward(
    cg: &mut CoreGroup,
    batch: usize,
    classes: usize,
    loss_weight: f32,
    ops: Option<SoftmaxBwdOperands<'_>>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, backward_time(batch, classes));
    }
    let ops = ops.expect("functional softmax requires operands");
    assert_eq!(ops.probs.len(), batch * classes);
    assert_eq!(ops.in_grad.len(), batch * classes);
    assert_eq!(ops.labels.len(), batch);
    check_labels(ops.labels, classes);
    if let ExecMode::HostNative { .. } = cg.mode() {
        let rows: Vec<_> = ops.in_grad.chunks_mut(classes).enumerate().collect();
        cg.workers().run(rows, |(b, drow)| {
            drow.copy_from_slice(&ops.probs[b * classes..][..classes]);
            backward_row(drow, ops.labels[b] as usize, loss_weight);
        });
        return LaunchReport::default();
    }
    let p = MemView::new(ops.probs);
    let labels = MemView::new(ops.labels);
    let dx = MemViewMut::new(ops.in_grad);
    cg.run_planned(&backward_plan(classes), move |cpe| {
        let mut row = cpe.ldm.alloc_f32(classes);
        let mut lab = [0.0f32; 1];
        let mut b = cpe.idx();
        while b < batch {
            cpe.dma_get(p, b * classes, &mut row);
            cpe.dma_get(labels, b, &mut lab);
            cpe.compute(2 * classes as u64, || {
                backward_row(&mut row, lab[0] as usize, loss_weight)
            });
            cpe.dma_put(dx, b * classes, &row);
            b += 64;
        }
    })
}

/// Duration of the forward pass.
pub fn forward_time(batch: usize, classes: usize) -> SimTime {
    let per_item = dma::continuous_time(classes * 4, 64).seconds() * 2.0
        + crate::gemm_flop_time(classes as u64 * (TRANSCENDENTAL_FLOPS + 3)).seconds();
    SimTime::from_seconds(
        sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS + batch.div_ceil(64) as f64 * per_item,
    )
}

/// Duration of the backward pass.
pub(crate) fn backward_time(batch: usize, classes: usize) -> SimTime {
    let per_item = dma::continuous_time(classes * 4, 64).seconds() * 2.0
        + crate::gemm_flop_time(2 * classes as u64).seconds();
    SimTime::from_seconds(
        sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS + batch.div_ceil(64) as f64 * per_item,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one_and_loss_is_correct() {
        let (b, c) = (70, 11);
        let logits: Vec<f32> = (0..b * c)
            .map(|i| ((i * 7) % 13) as f32 * 0.3 - 2.0)
            .collect();
        let labels: Vec<f32> = (0..b).map(|i| (i % c) as f32).collect();
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut probs = vec![0.0; b * c];
            let mut losses = vec![0.0; b];
            forward(
                &mut cg,
                b,
                c,
                Some(SoftmaxFwdOperands {
                    logits: &logits,
                    labels: &labels,
                    probs: &mut probs,
                    losses: &mut losses,
                }),
            );
            for bi in 0..b {
                let row = &probs[bi * c..][..c];
                let sum: f32 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "row {bi} sums to {sum}");
                assert!(row.iter().all(|v| *v >= 0.0));
                let want = -(row[labels[bi] as usize]).ln();
                assert!((losses[bi] - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn backward_is_p_minus_onehot() {
        let (b, c) = (5, 4);
        let logits: Vec<f32> = (0..b * c).map(|i| (i % 7) as f32 * 0.5).collect();
        let labels: Vec<f32> = vec![0.0, 1.0, 2.0, 3.0, 1.0];
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut probs = vec![0.0; b * c];
            let mut losses = vec![0.0; b];
            forward(
                &mut cg,
                b,
                c,
                Some(SoftmaxFwdOperands {
                    logits: &logits,
                    labels: &labels,
                    probs: &mut probs,
                    losses: &mut losses,
                }),
            );
            let mut dx = vec![0.0; b * c];
            backward(
                &mut cg,
                b,
                c,
                1.0 / b as f32,
                Some(SoftmaxBwdOperands {
                    probs: &probs,
                    labels: &labels,
                    in_grad: &mut dx,
                }),
            );
            for bi in 0..b {
                for ci in 0..c {
                    let onehot = if ci == labels[bi] as usize { 1.0 } else { 0.0 };
                    let want = (probs[bi * c + ci] - onehot) / b as f32;
                    assert!((dx[bi * c + ci] - want).abs() < 1e-6);
                }
            }
            // Gradient rows sum to ~0 (softmax property).
            for bi in 0..b {
                let s: f32 = dx[bi * c..][..c].iter().sum();
                assert!(s.abs() < 1e-5);
            }
        }
    }

    /// A label that names no class — negative, NaN, fractional, or one
    /// past the last class — is rejected before either backend runs, with
    /// one message naming the image, in both passes.
    #[test]
    fn bad_labels_panic_identically_on_both_backends() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (b, c) = (3, 4);
        let logits: Vec<f32> = (0..b * c).map(|i| i as f32 * 0.1).collect();
        let probs = vec![0.25f32; b * c];
        let message = |run: &mut dyn FnMut()| -> String {
            let err = catch_unwind(AssertUnwindSafe(run)).expect_err("bad label accepted");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        for bad in [-1.0, f32::NAN, 2.5, c as f32] {
            let labels = vec![0.0, bad, 1.0];
            let mut seen = Vec::new();
            for mode in crate::FUNCTIONAL_MODES {
                let mut cg = CoreGroup::new(mode);
                let (mut p, mut l, mut dx) = (vec![0.0; b * c], vec![0.0; b], vec![0.0; b * c]);
                seen.push(message(&mut || {
                    let ops = SoftmaxFwdOperands {
                        logits: &logits,
                        labels: &labels,
                        probs: &mut p,
                        losses: &mut l,
                    };
                    forward(&mut cg, b, c, Some(ops));
                }));
                seen.push(message(&mut || {
                    let ops = SoftmaxBwdOperands {
                        probs: &probs,
                        labels: &labels,
                        in_grad: &mut dx,
                    };
                    backward(&mut cg, b, c, 1.0, Some(ops));
                }));
            }
            let want = format!("label {bad} of image 1 is not a class in 0..{c}");
            assert!(seen.iter().all(|m| *m == want), "{bad}: {seen:?}");
        }
    }

    #[test]
    fn numerically_stable_for_large_logits() {
        let (b, c) = (2, 3);
        let logits = vec![1000.0, 1001.0, 999.0, -1000.0, -1000.5, -999.0];
        let labels = vec![1.0, 2.0];
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut probs = vec![0.0; b * c];
            let mut losses = vec![0.0; b];
            forward(
                &mut cg,
                b,
                c,
                Some(SoftmaxFwdOperands {
                    logits: &logits,
                    labels: &labels,
                    probs: &mut probs,
                    losses: &mut losses,
                }),
            );
            assert!(probs.iter().all(|v| v.is_finite()));
            assert!(losses.iter().all(|v| v.is_finite()));
        }
    }
}

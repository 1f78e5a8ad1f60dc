//! Pooling on the CPE cluster (Sec. IV-D).
//!
//! Pooling is pure memory movement, so the kernels are DMA plans chosen by
//! image size, as the paper prescribes: each work item is one output row
//! of one channel; the CPE stages the K input rows it needs (continuous
//! DMA of whole rows — the largest contiguous blocks available), reduces
//! the windows in LDM, and puts one output row (plus, for max pooling, an
//! argmax row consumed by the backward pass).
//!
//! Backward items are keyed on *input* rows so the overlapping-window
//! scatter (AlexNet pools with K=3, S=2) never collides across CPEs.

use std::ops::Range;

use sw26010::{dma, CoreGroup, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime};
use swbackend::par_tasks;

use crate::shapes::{PoolMethod, PoolShape};

/// Static LDM descriptor of the pooling forward kernel: `K` input rows
/// plus one output row and one argmax row.
pub fn forward_plan(shape: &PoolShape) -> KernelPlan {
    let mut p = KernelPlan::new("swdnn.pool.fwd", 64);
    for r in 0..shape.k {
        p = p.buffer(format!("row{r}"), shape.in_w * 4);
    }
    p.buffer("out_row", shape.out_w() * 4)
        .buffer("am_row", shape.out_w() * 4)
}

/// Static LDM descriptor of the pooling backward kernel.
pub fn backward_plan(shape: &PoolShape) -> KernelPlan {
    KernelPlan::new("swdnn.pool.bwd", 64)
        .buffer("acc", shape.in_w * 4)
        .buffer("grow", shape.out_w() * 4)
        .buffer("arow", shape.out_w() * 4)
}

/// Functional operands of a pooling forward pass (NCHW).
pub struct PoolFwdOperands<'a> {
    pub input: &'a [f32],
    pub output: &'a mut [f32],
    /// For max pooling: per-output argmax (index into the channel image),
    /// stored as f32 (exactly representable for any image the paper uses).
    pub argmax: Option<&'a mut [f32]>,
}

/// Functional operands of a pooling backward pass (NCHW).
pub struct PoolBwdOperands<'a> {
    pub out_grad: &'a [f32],
    pub argmax: Option<&'a [f32]>,
    pub in_grad: &'a mut [f32],
}

/// Panic with the typed shape diagnostic if `shape` is degenerate —
/// e.g. a zero window (underflows `oy_lo` in the backward scatter) or a
/// window larger than the padded image.
fn guard_shape(shape: &PoolShape) {
    if let Err(e) = shape.validate() {
        panic!("swdnn.pool rejected shape: {e}");
    }
}

/// Pooling forward.
pub fn forward(
    cg: &mut CoreGroup,
    shape: &PoolShape,
    ops: Option<PoolFwdOperands<'_>>,
) -> LaunchReport {
    guard_shape(shape);
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, forward_time(shape));
    }
    let ops = ops.expect("functional pooling requires operands");
    assert_eq!(ops.input.len(), shape.input_len());
    assert_eq!(ops.output.len(), shape.output_len());
    check_argmax(
        shape,
        ops.argmax.as_deref(),
        "forward needs an argmax buffer",
    );
    let s = *shape;
    let (ih, iw, oh, ow) = (s.in_h, s.in_w, s.out_h(), s.out_w());
    let input = ops.input;
    if let ExecMode::HostNative { threads } = cg.mode() {
        let mut arows = ops.argmax.map(|am| am.chunks_mut(ow));
        let rows: Vec<_> = ops
            .output
            .chunks_mut(ow)
            .map(|orow| (orow, arows.as_mut().and_then(Iterator::next)))
            .enumerate()
            .collect();
        par_tasks(threads, rows, |(item, (orow, arow))| {
            let (bc, oy) = (item / oh, item % oh);
            let row = |y: usize| &input[(bc * ih + y) * iw..][..iw];
            forward_row(&s, oy, row, orow, arow);
        });
        return LaunchReport::default();
    }
    let input = MemView::new(input);
    let output = MemViewMut::new(ops.output);
    let argmax = ops.argmax.map(MemViewMut::new);
    let items = s.batch * s.channels * oh;

    cg.run_planned(&forward_plan(&s), move |cpe| {
        let mut rows: Vec<_> = (0..s.k).map(|_| cpe.ldm.alloc_f32(iw)).collect();
        let mut out_row = cpe.ldm.alloc_f32(ow);
        let mut am_row = cpe.ldm.alloc_f32(ow);
        let mut item = cpe.idx();
        while item < items {
            let (bc, oy) = (item / oh, item % oh);
            // Window row `ky` is staged in `rows[ky]`.
            let ky = |y: usize| y + s.pad - oy * s.stride;
            for y in span(&s, oy, ih) {
                cpe.dma_get(input, (bc * ih + y) * iw, &mut rows[ky(y)]);
            }
            cpe.compute((ow * s.k * s.k) as u64, || {
                forward_row(
                    &s,
                    oy,
                    |y| &rows[ky(y)][..],
                    &mut out_row,
                    Some(&mut am_row),
                );
            });
            cpe.dma_put(output, (bc * oh + oy) * ow, &out_row);
            if let Some(am) = argmax {
                cpe.dma_put(am, (bc * oh + oy) * ow, &am_row);
            }
            item += 64;
        }
    })
}

/// The operand checks both backends share: an argmax buffer, where one
/// is given, covers the output, and max pooling has one.
fn check_argmax(shape: &PoolShape, argmax: Option<&[f32]>, missing: &str) {
    if let Some(am) = argmax {
        assert_eq!(am.len(), shape.output_len(), "argmax size");
    }
    if matches!(shape.method, PoolMethod::Max) {
        assert!(argmax.is_some(), "max pooling {missing}");
    }
}

/// The in-image part `lo..hi` of the window of output coordinate `o`
/// along an input axis of `extent`: `o*S - P .. o*S - P + K`, clipped.
fn span(s: &PoolShape, o: usize, extent: usize) -> Range<usize> {
    let start = o * s.stride;
    start.saturating_sub(s.pad)..(start + s.k).saturating_sub(s.pad).min(extent)
}

/// One output row of pooling forward, the arithmetic both backends run.
/// `row(y)` is input row `y` of the channel image (asked only for rows
/// under the window). Max pooling keeps the strictly-greater first
/// maximum and, given an `argmax` row, its index into the channel
/// image; average pooling divides the clipped window's f64 sum by its
/// size.
pub(crate) fn forward_row<'a>(
    s: &PoolShape,
    oy: usize,
    row: impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
    mut argmax: Option<&mut [f32]>,
) {
    let rows = span(s, oy, s.in_h);
    for (ox, o) in out.iter_mut().enumerate() {
        let cols = span(s, ox, s.in_w);
        match s.method {
            PoolMethod::Max => {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for y in rows.clone() {
                    let r = row(y);
                    for x in cols.clone() {
                        if r[x] > best {
                            best = r[x];
                            best_i = y * s.in_w + x;
                        }
                    }
                }
                *o = if best == f32::NEG_INFINITY { 0.0 } else { best };
                if let Some(am) = argmax.as_deref_mut() {
                    am[ox] = best_i as f32;
                }
            }
            PoolMethod::Average => {
                let mut sum = 0.0f64;
                for y in rows.clone() {
                    let r = row(y);
                    for x in cols.clone() {
                        sum += r[x] as f64;
                    }
                }
                let count = rows.len() * cols.len();
                *o = if count > 0 {
                    (sum / count as f64) as f32
                } else {
                    0.0
                };
            }
        }
    }
}

/// Pooling backward.
pub fn backward(
    cg: &mut CoreGroup,
    shape: &PoolShape,
    ops: Option<PoolBwdOperands<'_>>,
) -> LaunchReport {
    guard_shape(shape);
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, backward_time(shape));
    }
    let ops = ops.expect("functional pooling requires operands");
    assert_eq!(ops.out_grad.len(), shape.output_len());
    assert_eq!(ops.in_grad.len(), shape.input_len());
    check_argmax(shape, ops.argmax, "backward needs the argmax");
    let s = *shape;
    let (ih, iw, oh, ow) = (s.in_h, s.in_w, s.out_h(), s.out_w());
    let (out_grad, argmax) = (ops.out_grad, ops.argmax);
    if let ExecMode::HostNative { threads } = cg.mode() {
        let rows: Vec<_> = ops.in_grad.chunks_mut(iw).enumerate().collect();
        par_tasks(threads, rows, |(item, acc)| {
            let (bc, y) = (item / ih, item % ih);
            acc.fill(0.0);
            for oy in covering_rows(&s, y) {
                let at = (bc * oh + oy) * ow;
                let arow = argmax.map(|am| &am[at..][..ow]);
                backward_row(&s, y, oy, &out_grad[at..][..ow], arow, acc);
            }
        });
        return LaunchReport::default();
    }
    let dy = MemView::new(out_grad);
    let dx = MemViewMut::new(ops.in_grad);
    let argmax = argmax.map(MemView::new);
    let items = s.batch * s.channels * ih;

    cg.run_planned(&backward_plan(&s), move |cpe| {
        let mut acc = cpe.ldm.alloc_f32(iw);
        let mut grow = cpe.ldm.alloc_f32(ow);
        let mut arow = cpe.ldm.alloc_f32(ow);
        let mut item = cpe.idx();
        while item < items {
            let (bc, y) = (item / ih, item % ih);
            if cpe.functional() {
                acc.fill(0.0);
            }
            for oy in covering_rows(&s, y) {
                cpe.dma_get(dy, (bc * oh + oy) * ow, &mut grow);
                let ops = match s.method {
                    PoolMethod::Max => {
                        cpe.dma_get(argmax.unwrap(), (bc * oh + oy) * ow, &mut arow);
                        ow
                    }
                    PoolMethod::Average => ow * s.k,
                };
                cpe.compute(ops as u64, || {
                    backward_row(&s, y, oy, &grow, Some(&arow), &mut acc);
                });
            }
            cpe.dma_put(dx, (bc * ih + y) * iw, &acc);
            item += 64;
        }
    })
}

/// Output rows whose window covers input row `y`:
/// `oy*S - P <= y < oy*S - P + K`.
fn covering_rows(s: &PoolShape, y: usize) -> std::ops::RangeInclusive<usize> {
    let lo = (y + s.pad).saturating_sub(s.k - 1).div_ceil(s.stride);
    let hi = ((y + s.pad) / s.stride).min(s.out_h() - 1);
    lo..=hi
}

/// Scatter output row `oy`'s gradient `grow` into input row `y`'s
/// accumulator `acc`, the arithmetic both backends run: max pooling adds
/// each gradient where `argmax` points into row `y`; average pooling
/// adds each window's f32 share, its gradient over the clipped window
/// size, across the window's columns (if the window covers row `y`).
pub(crate) fn backward_row(
    s: &PoolShape,
    y: usize,
    oy: usize,
    grow: &[f32],
    argmax: Option<&[f32]>,
    acc: &mut [f32],
) {
    match s.method {
        PoolMethod::Max => {
            let arow = argmax.expect("max pooling backward needs the argmax");
            for (g, a) in grow.iter().zip(arow) {
                let idx = *a as usize;
                if idx / s.in_w == y {
                    acc[idx % s.in_w] += *g;
                }
            }
        }
        PoolMethod::Average => {
            let rows = span(s, oy, s.in_h);
            if !rows.contains(&y) {
                return;
            }
            for (ox, g) in grow.iter().enumerate() {
                let cols = span(s, ox, s.in_w);
                let count = rows.len() * cols.len();
                if count > 0 {
                    let share = *g / count as f32;
                    for x in cols {
                        acc[x] += share;
                    }
                }
            }
        }
    }
}

/// Closed-form duration of pooling forward.
pub fn forward_time(shape: &PoolShape) -> SimTime {
    let s = *shape;
    let (oh, ow) = (s.out_h(), s.out_w());
    let items = s.batch * s.channels * oh;
    let per_item = s.k as f64 * dma::continuous_time(s.in_w * 4, 64).seconds()
        + crate::gemm_flop_time((ow * s.k * s.k) as u64).seconds()
        + dma::continuous_time(ow * 4, 64).seconds()
        + if matches!(s.method, PoolMethod::Max) {
            dma::continuous_time(ow * 4, 64).seconds()
        } else {
            0.0
        };
    SimTime::from_seconds(
        sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS + items.div_ceil(64) as f64 * per_item,
    )
}

/// Closed-form duration of pooling backward.
pub fn backward_time(shape: &PoolShape) -> SimTime {
    let s = *shape;
    let (oh, ow) = (s.out_h(), s.out_w());
    let items = s.batch * s.channels * s.in_h;
    // Each input row is covered by ~K/S output rows.
    let cover = (s.k as f64 / s.stride as f64).min(oh as f64).max(1.0);
    let loads = match s.method {
        PoolMethod::Max => 2.0, // gradient + argmax rows
        PoolMethod::Average => 1.0,
    };
    let ops_per_row = match s.method {
        PoolMethod::Max => ow as u64,
        PoolMethod::Average => (ow * s.k) as u64,
    };
    let per_item = cover
        * (loads * dma::continuous_time(ow * 4, 64).seconds()
            + crate::gemm_flop_time(ops_per_row).seconds())
        + dma::continuous_time(s.in_w * 4, 64).seconds();
    SimTime::from_seconds(
        sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS + items.div_ceil(64) as f64 * per_item,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sw26010::ExecMode;

    fn pattern(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x2545F4914F6CDD1D)
                    .wrapping_add(seed);
                ((x >> 40) % 97) as f32 - 48.0
            })
            .collect()
    }

    /// Both functional backends against the scalar oracle in `reference`.
    fn check(shape: PoolShape) {
        for mode in [ExecMode::Functional, ExecMode::HostNative { threads: 2 }] {
            check_on(mode, shape, &pattern(shape.input_len(), 7));
        }
    }

    fn check_on(mode: ExecMode, shape: PoolShape, input: &[f32]) {
        let mut want_out = vec![0.0; shape.output_len()];
        let mut want_am = vec![0usize; shape.output_len()];
        let is_max = matches!(shape.method, PoolMethod::Max);
        reference::pool_forward(
            &shape,
            input,
            &mut want_out,
            is_max.then_some(&mut want_am[..]),
        );

        let mut cg = CoreGroup::new(mode);
        let mut got_out = vec![f32::NAN; shape.output_len()];
        let mut got_am = vec![0.0f32; shape.output_len()];
        forward(
            &mut cg,
            &shape,
            Some(PoolFwdOperands {
                input,
                output: &mut got_out,
                argmax: is_max.then_some(&mut got_am[..]),
            }),
        );
        assert_eq!(got_out, want_out, "forward {mode:?} {shape:?}");
        if is_max {
            for (g, w) in got_am.iter().zip(&want_am) {
                assert_eq!(*g as usize, *w, "argmax {mode:?} {shape:?}");
            }
        }

        // Backward.
        let dy = pattern(shape.output_len(), 9);
        let mut want_dx = vec![0.0; shape.input_len()];
        reference::pool_backward(&shape, &dy, is_max.then_some(&want_am[..]), &mut want_dx);
        let mut got_dx = vec![f32::NAN; shape.input_len()];
        backward(
            &mut cg,
            &shape,
            Some(PoolBwdOperands {
                out_grad: &dy,
                argmax: is_max.then_some(&got_am[..]),
                in_grad: &mut got_dx,
            }),
        );
        for (i, (g, w)) in got_dx.iter().zip(&want_dx).enumerate() {
            assert!(
                (g - w).abs() < 1e-4,
                "backward {mode:?} {shape:?} elem {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn max_pool_2x2_stride2() {
        check(PoolShape {
            batch: 2,
            channels: 3,
            in_h: 8,
            in_w: 8,
            k: 2,
            stride: 2,
            pad: 0,
            method: PoolMethod::Max,
        });
    }

    #[test]
    fn max_pool_overlapping_3x3_stride2() {
        // AlexNet-style overlapping pooling, odd size.
        check(PoolShape {
            batch: 2,
            channels: 2,
            in_h: 13,
            in_w: 13,
            k: 3,
            stride: 2,
            pad: 0,
            method: PoolMethod::Max,
        });
    }

    #[test]
    fn max_pool_padded() {
        check(PoolShape {
            batch: 1,
            channels: 2,
            in_h: 7,
            in_w: 7,
            k: 3,
            stride: 2,
            pad: 1,
            method: PoolMethod::Max,
        });
    }

    #[test]
    fn avg_pool() {
        check(PoolShape {
            batch: 2,
            channels: 2,
            in_h: 8,
            in_w: 8,
            k: 2,
            stride: 2,
            pad: 0,
            method: PoolMethod::Average,
        });
    }

    /// Windows full of equal values: the argmax is the *first* maximum in
    /// window order, on both backends, and the gradient follows it.
    #[test]
    fn max_pool_ties_pick_the_first_maximum() {
        let shape = PoolShape {
            batch: 1,
            channels: 2,
            in_h: 7,
            in_w: 7,
            k: 3,
            stride: 2,
            pad: 1,
            method: PoolMethod::Max,
        };
        let input: Vec<f32> = (0..shape.input_len()).map(|i| (i % 3 / 2) as f32).collect();
        for mode in crate::FUNCTIONAL_MODES {
            check_on(mode, shape, &input);
        }
    }

    #[test]
    fn avg_pool_padded() {
        // Clipped windows at every border: the divisor is the window's
        // in-image size, forward and backward.
        check(PoolShape {
            batch: 1,
            channels: 2,
            in_h: 7,
            in_w: 6,
            k: 3,
            stride: 2,
            pad: 1,
            method: PoolMethod::Average,
        });
    }

    #[test]
    #[should_panic(expected = "argmax size")]
    fn backward_rejects_short_argmax() {
        let s = PoolShape {
            batch: 1,
            channels: 1,
            in_h: 4,
            in_w: 4,
            k: 2,
            stride: 2,
            pad: 0,
            method: PoolMethod::Max,
        };
        let dy = vec![1.0f32; s.output_len()];
        let am = vec![0.0f32; s.output_len() - 1];
        let mut dx = vec![0.0f32; s.input_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        backward(
            &mut cg,
            &s,
            Some(PoolBwdOperands {
                out_grad: &dy,
                argmax: Some(&am),
                in_grad: &mut dx,
            }),
        );
    }

    #[test]
    fn global_avg_pool_resnet_style() {
        check(PoolShape {
            batch: 2,
            channels: 4,
            in_h: 7,
            in_w: 7,
            k: 7,
            stride: 1,
            pad: 0,
            method: PoolMethod::Average,
        });
    }

    #[test]
    fn forward_model_matches_mesh() {
        let shape = PoolShape {
            batch: 4,
            channels: 16,
            in_h: 28,
            in_w: 28,
            k: 2,
            stride: 2,
            pad: 0,
            method: PoolMethod::Max,
        };
        let input = vec![0.0f32; shape.input_len()];
        let mut out = vec![0.0f32; shape.output_len()];
        let mut am = vec![0.0f32; shape.output_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mesh = forward(
            &mut cg,
            &shape,
            Some(PoolFwdOperands {
                input: &input,
                output: &mut out,
                argmax: Some(&mut am),
            }),
        );
        let model = forward_time(&shape);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < 0.1,
            "mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );
    }

    #[test]
    #[should_panic(expected = "swdnn.pool rejected shape")]
    fn zero_window_fails_with_typed_diagnostic() {
        // k = 0 would underflow the backward scatter's `oy_lo` arithmetic
        // (`saturating_sub(k - 1)` on usize); the typed guard fires first.
        let s = PoolShape {
            batch: 1,
            channels: 1,
            in_h: 8,
            in_w: 8,
            k: 0,
            stride: 2,
            pad: 0,
            method: PoolMethod::Max,
        };
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        backward(&mut cg, &s, None);
    }

    #[test]
    #[should_panic(expected = "swdnn.pool rejected shape")]
    fn oversized_window_fails_with_typed_diagnostic() {
        let s = PoolShape {
            batch: 1,
            channels: 1,
            in_h: 4,
            in_w: 4,
            k: 7,
            stride: 2,
            pad: 0,
            method: PoolMethod::Average,
        };
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        forward(&mut cg, &s, None);
    }

    #[test]
    fn pooling_is_bandwidth_bound() {
        // Sanity: pooling achieves a tiny fraction of peak flops — it's the
        // class of layer the paper calls out as bandwidth-bound on SW26010.
        let shape = PoolShape {
            batch: 256,
            channels: 96,
            in_h: 55,
            in_w: 55,
            k: 3,
            stride: 2,
            pad: 0,
            method: PoolMethod::Max,
        };
        let t = forward_time(&shape).seconds();
        let bytes = (shape.input_len() + 2 * shape.output_len()) as f64 * 4.0;
        let achieved_bw = bytes / t;
        // Bounded by the DMA peak, and achieving a decent fraction of it.
        assert!(achieved_bw < sw26010::arch::DMA_PEAK_BANDWIDTH);
        assert!(achieved_bw > 0.05 * sw26010::arch::DMA_PEAK_BANDWIDTH);
    }
}

#[cfg(test)]
mod model_validation {
    use super::*;
    use sw26010::ExecMode;

    #[test]
    fn backward_model_matches_mesh() {
        let shape = PoolShape {
            batch: 4,
            channels: 16,
            in_h: 28,
            in_w: 28,
            k: 3,
            stride: 2,
            pad: 0,
            method: PoolMethod::Max,
        };
        // Produce a consistent argmax first.
        let input = vec![0.5f32; shape.input_len()];
        let mut out = vec![0.0f32; shape.output_len()];
        let mut am = vec![0.0f32; shape.output_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        forward(
            &mut cg,
            &shape,
            Some(PoolFwdOperands {
                input: &input,
                output: &mut out,
                argmax: Some(&mut am),
            }),
        );
        let dy = vec![1.0f32; shape.output_len()];
        let mut dx = vec![0.0f32; shape.input_len()];
        let mesh = backward(
            &mut cg,
            &shape,
            Some(PoolBwdOperands {
                out_grad: &dy,
                argmax: Some(&am),
                in_grad: &mut dx,
            }),
        );
        let model = backward_time(&shape);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < 0.25,
            "mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );
    }
}

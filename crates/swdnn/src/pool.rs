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

use sw26010::{dma, CoreGroup, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime};

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
    if let swbackend::Path::Host { threads } = swbackend::dispatch(cg.mode()) {
        if let Some(ref m) = ops.argmax {
            assert_eq!(m.len(), shape.output_len(), "argmax size");
        }
        if matches!(shape.method, PoolMethod::Max) {
            assert!(
                ops.argmax.is_some(),
                "max pooling forward needs an argmax buffer"
            );
        }
        crate::host::pool_forward(threads, shape, ops.input, ops.output, ops.argmax);
        return LaunchReport::default();
    }
    let s = *shape;
    let (ih, iw, oh, ow) = (s.in_h, s.in_w, s.out_h(), s.out_w());
    let input = MemView::new(ops.input);
    let output = MemViewMut::new(ops.output);
    let argmax = ops.argmax.map(|m| {
        assert_eq!(m.len(), s.output_len(), "argmax size");
        MemViewMut::new(m)
    });
    if matches!(s.method, PoolMethod::Max) {
        assert!(
            argmax.is_some(),
            "max pooling forward needs an argmax buffer"
        );
    }
    let items = s.batch * s.channels * oh;

    cg.run_planned(&forward_plan(&s), move |cpe| {
        let mut rows: Vec<_> = (0..s.k).map(|_| cpe.ldm.alloc_f32(iw)).collect();
        let mut out_row = cpe.ldm.alloc_f32(ow);
        let mut am_row = cpe.ldm.alloc_f32(ow);
        let mut valid = vec![false; s.k];
        let mut item = cpe.idx();
        while item < items {
            let bc = item / oh;
            let oy = item % oh;
            for (ky, row) in rows.iter_mut().enumerate() {
                let y = (oy * s.stride + ky) as isize - s.pad as isize;
                valid[ky] = y >= 0 && (y as usize) < ih;
                if valid[ky] {
                    cpe.dma_get(input, (bc * ih + y as usize) * iw, row);
                }
            }
            cpe.compute((ow * s.k * s.k) as u64, || {
                for ox in 0..ow {
                    let x0 = (ox * s.stride) as isize - s.pad as isize;
                    match s.method {
                        PoolMethod::Max => {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_i = 0usize;
                            for ky in 0..s.k {
                                if !valid[ky] {
                                    continue;
                                }
                                let y = (oy * s.stride + ky) - s.pad;
                                for kx in 0..s.k {
                                    let x = x0 + kx as isize;
                                    if x >= 0 && (x as usize) < iw {
                                        let v = rows[ky][x as usize];
                                        if v > best {
                                            best = v;
                                            best_i = y * iw + x as usize;
                                        }
                                    }
                                }
                            }
                            out_row[ox] = if best == f32::NEG_INFINITY { 0.0 } else { best };
                            am_row[ox] = best_i as f32;
                        }
                        PoolMethod::Average => {
                            let mut sum = 0.0f64;
                            let mut count = 0usize;
                            for ky in 0..s.k {
                                if !valid[ky] {
                                    continue;
                                }
                                for kx in 0..s.k {
                                    let x = x0 + kx as isize;
                                    if x >= 0 && (x as usize) < iw {
                                        sum += rows[ky][x as usize] as f64;
                                        count += 1;
                                    }
                                }
                            }
                            out_row[ox] = if count > 0 {
                                (sum / count as f64) as f32
                            } else {
                                0.0
                            };
                        }
                    }
                }
            });
            cpe.dma_put(output, (bc * oh + oy) * ow, &out_row);
            if let Some(am) = argmax {
                cpe.dma_put(am, (bc * oh + oy) * ow, &am_row);
            }
            item += 64;
        }
    })
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
    if let swbackend::Path::Host { threads } = swbackend::dispatch(cg.mode()) {
        if matches!(shape.method, PoolMethod::Max) {
            assert!(
                ops.argmax.is_some(),
                "max pooling backward needs the argmax"
            );
        }
        crate::host::pool_backward(threads, shape, ops.out_grad, ops.argmax, ops.in_grad);
        return LaunchReport::default();
    }
    let s = *shape;
    let (ih, iw, oh, ow) = (s.in_h, s.in_w, s.out_h(), s.out_w());
    let dy = MemView::new(ops.out_grad);
    let dx = MemViewMut::new(ops.in_grad);
    let argmax = ops.argmax.map(MemView::new);
    if matches!(s.method, PoolMethod::Max) {
        assert!(argmax.is_some(), "max pooling backward needs the argmax");
    }
    let items = s.batch * s.channels * ih;

    cg.run_planned(&backward_plan(&s), move |cpe| {
        let mut acc = cpe.ldm.alloc_f32(iw);
        let mut grow = cpe.ldm.alloc_f32(ow);
        let mut arow = cpe.ldm.alloc_f32(ow);
        let mut item = cpe.idx();
        while item < items {
            let bc = item / ih;
            let y = item % ih;
            if cpe.functional() {
                acc.fill(0.0);
            }
            // Output rows whose window covers input row y:
            // oy*S - P <= y < oy*S - P + K.
            let oy_lo = (y + s.pad).saturating_sub(s.k - 1).div_ceil(s.stride);
            let oy_hi = ((y + s.pad) / s.stride).min(oh.saturating_sub(1));
            for oy in oy_lo..=oy_hi.min(oh.saturating_sub(1)) {
                if oy >= oh {
                    break;
                }
                cpe.dma_get(dy, (bc * oh + oy) * ow, &mut grow);
                match s.method {
                    PoolMethod::Max => {
                        let am = argmax.unwrap();
                        cpe.dma_get(am, (bc * oh + oy) * ow, &mut arow);
                        cpe.compute(ow as u64, || {
                            for ox in 0..ow {
                                let idx = arow[ox] as usize;
                                if idx / iw == y {
                                    acc[idx % iw] += grow[ox];
                                }
                            }
                        });
                    }
                    PoolMethod::Average => {
                        cpe.compute((ow * s.k) as u64, || {
                            for ox in 0..ow {
                                let x0 = (ox * s.stride) as isize - s.pad as isize;
                                let y0 = (oy * s.stride) as isize - s.pad as isize;
                                // Window size after clipping (matches forward).
                                let mut count = 0usize;
                                let mut covers_y = false;
                                for ky in 0..s.k {
                                    let yy = y0 + ky as isize;
                                    if yy < 0 || yy as usize >= ih {
                                        continue;
                                    }
                                    if yy as usize == y {
                                        covers_y = true;
                                    }
                                    for kx in 0..s.k {
                                        let xx = x0 + kx as isize;
                                        if xx >= 0 && (xx as usize) < iw {
                                            count += 1;
                                        }
                                    }
                                }
                                if covers_y && count > 0 {
                                    let share = grow[ox] / count as f32;
                                    for kx in 0..s.k {
                                        let xx = x0 + kx as isize;
                                        if xx >= 0 && (xx as usize) < iw {
                                            acc[xx as usize] += share;
                                        }
                                    }
                                }
                            }
                        });
                    }
                }
            }
            cpe.dma_put(dx, (bc * ih + y) * iw, &acc);
            item += 64;
        }
    })
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

    fn check(shape: PoolShape) {
        let input = pattern(shape.input_len(), 7);
        let mut want_out = vec![0.0; shape.output_len()];
        let mut want_am = vec![0usize; shape.output_len()];
        let is_max = matches!(shape.method, PoolMethod::Max);
        reference::pool_forward(
            &shape,
            &input,
            &mut want_out,
            is_max.then_some(&mut want_am[..]),
        );

        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut got_out = vec![f32::NAN; shape.output_len()];
        let mut got_am = vec![0.0f32; shape.output_len()];
        forward(
            &mut cg,
            &shape,
            Some(PoolFwdOperands {
                input: &input,
                output: &mut got_out,
                argmax: is_max.then_some(&mut got_am[..]),
            }),
        );
        assert_eq!(got_out, want_out, "forward {shape:?}");
        if is_max {
            for (g, w) in got_am.iter().zip(&want_am) {
                assert_eq!(*g as usize, *w, "argmax {shape:?}");
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
                "backward {shape:?} elem {i}: {g} vs {w}"
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

//! im2col / col2im on the CPE cluster — the DMA plan of Fig. 4.
//!
//! Two data-movement strategies, selected by image size (the same
//! size-adaptive approach the paper applies to its memory-bound layers):
//!
//! * **Row plan** (large images): work items are (channel, output-row)
//!   pairs distributed round-robin over the 64 CPEs. Each CPE DMA-gets the
//!   K input rows its output row touches, assembles the K*K shifted/padded
//!   lines in LDM, and DMA-puts each line into the column matrix.
//! * **Channel plan** (small images): when a whole channel image plus one
//!   column-matrix row fits in LDM, the work item is a channel. The CPE
//!   stages the channel once and emits K*K *full* column-matrix rows as
//!   large contiguous puts — far better DMA block sizes than per-row
//!   emission on a 28x28 image.
//!
//! col2im mirrors both plans in reverse; its items are keyed on *input*
//! rows/channels so scatter-add writes never collide across CPEs.
//!
//! The row-plan line granularity is why the paper's first convolutional
//! layers are im2col-bound: the DMA blocks are single image rows (~1 KB at
//! width 224), well below what saturates the memory controller (Fig. 2).

use sw26010::{
    dma, CoreGroup, Cpe, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime,
};

use crate::shapes::ConvShape;

/// LDM budget (bytes) a strategy may plan against; the rest is head-room
/// for the runtime's own buffers.
const LDM_BUDGET: usize = 48 * 1024;

/// True when the small-image (whole-channel) plan applies.
pub(crate) fn channel_plan_applies(shape: &ConvShape) -> bool {
    let img = shape.in_h * shape.in_w * 4;
    let line = shape.out_h() * shape.out_w() * 4;
    img + line <= LDM_BUDGET
}

/// Data-movement strategy of the lowering kernels. [`Im2colStrategy::Auto`]
/// is the size-adaptive default and the only one the kernels run; the
/// forced variants exist for the unit tests, where the row plan is the
/// independent oracle for the channel plan on small images
/// (`forced_row_strategy_matches_auto_bitwise`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Im2colStrategy {
    /// Channel plan when the whole image fits the LDM budget, row plan
    /// otherwise — the shipped heuristic.
    Auto,
    /// Force the whole-channel plan (infeasible on large images).
    Channel,
    /// Force the sliding-row plan (always feasible).
    Row,
}

impl Im2colStrategy {
    /// Whether this strategy runs the channel plan on `shape`.
    pub fn channel(self, shape: &ConvShape) -> bool {
        match self {
            Im2colStrategy::Auto => channel_plan_applies(shape),
            Im2colStrategy::Channel => true,
            Im2colStrategy::Row => false,
        }
    }

    /// Whether this strategy's working set fits LDM on `shape` — the
    /// tuner's candidate filter (a forced channel plan can overflow).
    pub fn applies(self, shape: &ConvShape) -> bool {
        im2col_plan_with(shape, self).validate().is_ok()
            && col2im_plan_with(shape, self).validate().is_ok()
    }
}

/// Static LDM descriptor of the im2col kernel that `shape` selects:
/// whole image + one output line for the channel plan, `K` input rows +
/// one output row for the sliding-row plan.
pub fn im2col_plan(shape: &ConvShape) -> KernelPlan {
    im2col_plan_with(shape, Im2colStrategy::Auto)
}

/// [`im2col_plan`] under an explicit strategy.
pub(crate) fn im2col_plan_with(shape: &ConvShape, strategy: Im2colStrategy) -> KernelPlan {
    if strategy.channel(shape) {
        KernelPlan::new("swdnn.im2col.channel", 64)
            .buffer("img", shape.in_h * shape.in_w * 4)
            .buffer("line", shape.out_h() * shape.out_w() * 4)
    } else {
        let mut p = KernelPlan::new("swdnn.im2col.row", 64);
        for r in 0..shape.k {
            p = p.buffer(format!("row{r}"), shape.in_w * 4);
        }
        p.buffer("line", shape.out_w() * 4)
    }
}

/// Static LDM descriptor of the col2im kernel that `shape` selects.
pub fn col2im_plan(shape: &ConvShape) -> KernelPlan {
    col2im_plan_with(shape, Im2colStrategy::Auto)
}

/// [`col2im_plan`] under an explicit strategy.
pub(crate) fn col2im_plan_with(shape: &ConvShape, strategy: Im2colStrategy) -> KernelPlan {
    if strategy.channel(shape) {
        KernelPlan::new("swdnn.col2im.channel", 64)
            .buffer("acc", shape.in_h * shape.in_w * 4)
            .buffer("line", shape.out_h() * shape.out_w() * 4)
    } else {
        KernelPlan::new("swdnn.col2im.row", 64)
            .buffer("acc", shape.in_w * 4)
            .buffer("line", shape.out_w() * 4)
    }
}

/// Panic with the typed shape diagnostic if `shape` is degenerate.
pub(crate) fn guard_shape(shape: &ConvShape) {
    if let Err(e) = shape.validate() {
        panic!("swdnn.im2col rejected shape: {e}");
    }
}

/// Operands for a functional im2col call (one image).
pub struct Im2colOperands<'a> {
    /// Input image, `(N_i, R_i, C_i)` row-major.
    pub image: &'a [f32],
    /// Output column matrix, `(K*K*N_i, R_o*C_o)` row-major.
    pub cols: &'a mut [f32],
}

/// Mesh im2col for one image (size-adaptive strategy).
pub fn im2col(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    ops: Option<Im2colOperands<'_>>,
) -> LaunchReport {
    im2col_with_strategy(cg, shape, Im2colStrategy::Auto, ops)
}

/// Mesh im2col for one image under an explicit strategy.
pub(crate) fn im2col_with_strategy(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    strategy: Im2colStrategy,
    ops: Option<Im2colOperands<'_>>,
) -> LaunchReport {
    guard_shape(shape);
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, time_model_im2col_with(shape, strategy));
    }
    let ops = ops.expect("functional im2col requires operands");
    assert_eq!(ops.image.len(), shape.in_c * shape.in_h * shape.in_w);
    assert_eq!(ops.cols.len(), shape.col_rows() * shape.col_cols());
    if let ExecMode::HostNative { .. } = cg.mode() {
        crate::host::im2col(cg.workers(), shape, ops.image, ops.cols);
        return LaunchReport::default();
    }
    let image = MemView::new(ops.image);
    let cols = MemViewMut::new(ops.cols);
    let kplan = im2col_plan_with(shape, strategy);
    if strategy.channel(shape) {
        let shape = *shape;
        cg.run_planned(&kplan, move |cpe| {
            im2col_channel_plan(cpe, &shape, image, cols)
        })
    } else {
        let shape = *shape;
        cg.run_planned(&kplan, move |cpe| im2col_row_plan(cpe, &shape, image, cols))
    }
}

fn im2col_row_plan(cpe: &mut Cpe, shape: &ConvShape, image: MemView<'_>, cols: MemViewMut<'_>) {
    let (ih, iw) = (shape.in_h, shape.in_w);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let (kk, s, p) = (shape.k, shape.stride, shape.pad);
    let items = shape.in_c * oh;
    let mut rows: Vec<_> = (0..kk).map(|_| cpe.ldm.alloc_f32(iw)).collect();
    let mut line = cpe.ldm.alloc_f32(ow);
    let mut valid = vec![false; kk];
    let mut item = cpe.idx();
    while item < items {
        let c = item / oh;
        let oy = item % oh;
        for (ky, row) in rows.iter_mut().enumerate() {
            let y = (oy * s + ky) as isize - p as isize;
            valid[ky] = y >= 0 && (y as usize) < ih;
            if valid[ky] {
                cpe.dma_get(image, (c * ih + y as usize) * iw, row);
            }
        }
        for ky in 0..kk {
            for kx in 0..kk {
                cpe.compute(ow as u64, || {
                    for ox in 0..ow {
                        let x = (ox * s + kx) as isize - p as isize;
                        line[ox] = if valid[ky] && x >= 0 && (x as usize) < iw {
                            rows[ky][x as usize]
                        } else {
                            0.0
                        };
                    }
                });
                let col_row = (c * kk + ky) * kk + kx;
                cpe.dma_put(cols, col_row * (oh * ow) + oy * ow, &line);
            }
        }
        item += 64;
    }
}

fn im2col_channel_plan(cpe: &mut Cpe, shape: &ConvShape, image: MemView<'_>, cols: MemViewMut<'_>) {
    let (ih, iw) = (shape.in_h, shape.in_w);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let (kk, s, p) = (shape.k, shape.stride, shape.pad);
    let mut img = cpe.ldm.alloc_f32(ih * iw);
    let mut line = cpe.ldm.alloc_f32(oh * ow);
    let mut c = cpe.idx();
    while c < shape.in_c {
        cpe.dma_get(image, c * ih * iw, &mut img);
        for ky in 0..kk {
            for kx in 0..kk {
                cpe.compute((oh * ow) as u64, || {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let y = (oy * s + ky) as isize - p as isize;
                            let x = (ox * s + kx) as isize - p as isize;
                            line[oy * ow + ox] =
                                if y >= 0 && x >= 0 && (y as usize) < ih && (x as usize) < iw {
                                    img[y as usize * iw + x as usize]
                                } else {
                                    0.0
                                };
                        }
                    }
                });
                let col_row = (c * kk + ky) * kk + kx;
                cpe.dma_put(cols, col_row * (oh * ow), &line);
            }
        }
        c += 64;
    }
}

/// Operands for a functional col2im call (one image).
pub struct Col2imOperands<'a> {
    /// Column-matrix gradient, `(K*K*N_i, R_o*C_o)` row-major.
    pub cols: &'a [f32],
    /// Output: image-gradient target, `(N_i, R_i, C_i)`; overwritten.
    pub image: &'a mut [f32],
}

/// Mesh col2im for one image (size-adaptive strategy).
pub fn col2im(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    ops: Option<Col2imOperands<'_>>,
) -> LaunchReport {
    col2im_with_strategy(cg, shape, Im2colStrategy::Auto, ops)
}

/// Mesh col2im for one image under an explicit strategy.
pub(crate) fn col2im_with_strategy(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    strategy: Im2colStrategy,
    ops: Option<Col2imOperands<'_>>,
) -> LaunchReport {
    guard_shape(shape);
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, time_model_col2im_with(shape, strategy));
    }
    let ops = ops.expect("functional col2im requires operands");
    assert_eq!(ops.image.len(), shape.in_c * shape.in_h * shape.in_w);
    assert_eq!(ops.cols.len(), shape.col_rows() * shape.col_cols());
    if let ExecMode::HostNative { .. } = cg.mode() {
        crate::host::col2im(cg.workers(), shape, ops.cols, ops.image);
        return LaunchReport::default();
    }
    let cols = MemView::new(ops.cols);
    let image = MemViewMut::new(ops.image);
    let kplan = col2im_plan_with(shape, strategy);
    if strategy.channel(shape) {
        let shape = *shape;
        cg.run_planned(&kplan, move |cpe| {
            col2im_channel_plan(cpe, &shape, cols, image)
        })
    } else {
        let shape = *shape;
        cg.run_planned(&kplan, move |cpe| col2im_row_plan(cpe, &shape, cols, image))
    }
}

fn col2im_row_plan(cpe: &mut Cpe, shape: &ConvShape, cols: MemView<'_>, image: MemViewMut<'_>) {
    let (ih, iw) = (shape.in_h, shape.in_w);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let (kk, s, p) = (shape.k, shape.stride, shape.pad);
    let items = shape.in_c * ih;
    let mut acc = cpe.ldm.alloc_f32(iw);
    let mut line = cpe.ldm.alloc_f32(ow);
    let mut item = cpe.idx();
    while item < items {
        let c = item / ih;
        let y = item % ih;
        if cpe.functional() {
            acc.fill(0.0);
        }
        for ky in 0..kk {
            let oy_num = y as isize + p as isize - ky as isize;
            if oy_num < 0 || !(oy_num as usize).is_multiple_of(s) {
                continue;
            }
            let oy = oy_num as usize / s;
            if oy >= oh {
                continue;
            }
            for kx in 0..kk {
                let col_row = (c * kk + ky) * kk + kx;
                cpe.dma_get(cols, col_row * (oh * ow) + oy * ow, &mut line);
                cpe.compute(ow as u64, || {
                    for ox in 0..ow {
                        let x = (ox * s + kx) as isize - p as isize;
                        if x >= 0 && (x as usize) < iw {
                            acc[x as usize] += line[ox];
                        }
                    }
                });
            }
        }
        cpe.dma_put(image, (c * ih + y) * iw, &acc);
        item += 64;
    }
}

fn col2im_channel_plan(cpe: &mut Cpe, shape: &ConvShape, cols: MemView<'_>, image: MemViewMut<'_>) {
    let (ih, iw) = (shape.in_h, shape.in_w);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let (kk, s, p) = (shape.k, shape.stride, shape.pad);
    let mut acc = cpe.ldm.alloc_f32(ih * iw);
    let mut line = cpe.ldm.alloc_f32(oh * ow);
    let mut c = cpe.idx();
    while c < shape.in_c {
        if cpe.functional() {
            acc.fill(0.0);
        }
        for ky in 0..kk {
            for kx in 0..kk {
                let col_row = (c * kk + ky) * kk + kx;
                cpe.dma_get(cols, col_row * (oh * ow), &mut line);
                cpe.compute((oh * ow) as u64, || {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let y = (oy * s + ky) as isize - p as isize;
                            let x = (ox * s + kx) as isize - p as isize;
                            if y >= 0 && x >= 0 && (y as usize) < ih && (x as usize) < iw {
                                acc[y as usize * iw + x as usize] += line[oy * ow + ox];
                            }
                        }
                    }
                });
            }
        }
        cpe.dma_put(image, c * ih * iw, &acc);
        c += 64;
    }
}

/// Closed-form duration of [`im2col`].
pub(crate) fn time_model_im2col(shape: &ConvShape) -> SimTime {
    time_model_im2col_with(shape, Im2colStrategy::Auto)
}

/// [`time_model_im2col`] under an explicit strategy.
pub(crate) fn time_model_im2col_with(shape: &ConvShape, strategy: Im2colStrategy) -> SimTime {
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let kk = shape.k;
    let per_cpe_time = if strategy.channel(shape) {
        let per_channel = dma::continuous_time(shape.in_h * shape.in_w * 4, 64).seconds()
            + (kk * kk) as f64
                * (crate::gemm_flop_time((oh * ow) as u64).seconds()
                    + dma::continuous_time(oh * ow * 4, 64).seconds());
        shape.in_c.div_ceil(64) as f64 * per_channel
    } else {
        let per_item = kk as f64 * dma::continuous_time(shape.in_w * 4, 64).seconds()
            + (kk * kk) as f64
                * (crate::gemm_flop_time(ow as u64).seconds()
                    + dma::continuous_time(ow * 4, 64).seconds());
        (shape.in_c * oh).div_ceil(64) as f64 * per_item
    };
    SimTime::from_seconds(sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS + per_cpe_time)
}

/// Closed-form duration of [`col2im`].
pub(crate) fn time_model_col2im(shape: &ConvShape) -> SimTime {
    time_model_col2im_with(shape, Im2colStrategy::Auto)
}

/// [`time_model_col2im`] under an explicit strategy.
pub(crate) fn time_model_col2im_with(shape: &ConvShape, strategy: Im2colStrategy) -> SimTime {
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let kk = shape.k;
    let per_cpe_time = if strategy.channel(shape) {
        let per_channel = (kk * kk) as f64
            * (dma::continuous_time(oh * ow * 4, 64).seconds()
                + crate::gemm_flop_time((oh * ow) as u64).seconds())
            + dma::continuous_time(shape.in_h * shape.in_w * 4, 64).seconds();
        shape.in_c.div_ceil(64) as f64 * per_channel
    } else {
        // On average K/S of the K vertical taps hit a valid output row.
        let k_eff = (kk as f64 / shape.stride as f64).min(oh as f64);
        let per_item = k_eff
            * kk as f64
            * (dma::continuous_time(ow * 4, 64).seconds()
                + crate::gemm_flop_time(ow as u64).seconds())
            + dma::continuous_time(shape.in_w * 4, 64).seconds();
        (shape.in_c * shape.in_h).div_ceil(64) as f64 * per_item
    };
    SimTime::from_seconds(sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS + per_cpe_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sw26010::ExecMode;

    fn shape(batch: usize, ic: usize, h: usize, k: usize, s: usize, p: usize) -> ConvShape {
        ConvShape {
            batch,
            in_c: ic,
            in_h: h,
            in_w: h,
            out_c: 4,
            k,
            stride: s,
            pad: p,
        }
    }

    fn check_im2col(shape: ConvShape) {
        let image: Vec<f32> = (0..shape.in_c * shape.in_h * shape.in_w)
            .map(|i| ((i * 13) % 31) as f32 - 15.0)
            .collect();
        let mut want = vec![0.0; shape.col_rows() * shape.col_cols()];
        reference::im2col(&shape, &image, &mut want);
        for mode in crate::FUNCTIONAL_MODES {
            let mut got = vec![f32::NAN; want.len()];
            let mut cg = CoreGroup::new(mode);
            im2col(
                &mut cg,
                &shape,
                Some(Im2colOperands {
                    image: &image,
                    cols: &mut got,
                }),
            );
            assert_eq!(got, want, "{mode:?} {shape:?}");
        }
    }

    fn check_col2im(shape: ConvShape) {
        let cols: Vec<f32> = (0..shape.col_rows() * shape.col_cols())
            .map(|i| ((i * 7) % 23) as f32 * 0.5 - 5.0)
            .collect();
        let mut want = vec![0.0; shape.in_c * shape.in_h * shape.in_w];
        reference::col2im(&shape, &cols, &mut want);
        for mode in crate::FUNCTIONAL_MODES {
            let mut got = vec![f32::NAN; want.len()];
            let mut cg = CoreGroup::new(mode);
            col2im(
                &mut cg,
                &shape,
                Some(Col2imOperands {
                    cols: &cols,
                    image: &mut got,
                }),
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() < 1e-4,
                    "{mode:?} {shape:?} elem {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn im2col_matches_reference_padded() {
        check_im2col(shape(1, 3, 8, 3, 1, 1));
    }

    #[test]
    fn im2col_matches_reference_strided() {
        check_im2col(shape(1, 2, 11, 3, 2, 0));
    }

    #[test]
    fn im2col_matches_reference_big_kernel() {
        check_im2col(shape(1, 3, 15, 5, 3, 2));
    }

    #[test]
    fn im2col_row_plan_matches_reference() {
        // 120x120 image: too large for the channel plan.
        let s = shape(1, 2, 120, 3, 1, 1);
        assert!(!channel_plan_applies(&s));
        check_im2col(s);
    }

    #[test]
    fn col2im_matches_reference_padded() {
        check_col2im(shape(1, 3, 8, 3, 1, 1));
    }

    #[test]
    fn col2im_matches_reference_strided() {
        check_col2im(shape(1, 2, 11, 3, 2, 0));
    }

    #[test]
    fn col2im_matches_reference_big_kernel() {
        check_col2im(shape(1, 3, 15, 5, 3, 2));
    }

    #[test]
    fn col2im_row_plan_matches_reference() {
        let s = shape(1, 2, 120, 3, 1, 1);
        assert!(!channel_plan_applies(&s));
        check_col2im(s);
    }

    #[test]
    fn plan_selection_by_image_size() {
        assert!(channel_plan_applies(&shape(1, 16, 28, 3, 1, 1)));
        assert!(channel_plan_applies(&shape(1, 16, 56, 3, 1, 1)));
        assert!(!channel_plan_applies(&shape(1, 3, 224, 3, 1, 1)));
    }

    fn model_check(s: ConvShape, tol: f64) {
        let image = vec![0.0f32; s.in_c * s.in_h * s.in_w];
        let mut cols = vec![0.0f32; s.col_rows() * s.col_cols()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mesh = im2col(
            &mut cg,
            &s,
            Some(Im2colOperands {
                image: &image,
                cols: &mut cols,
            }),
        );
        let model = time_model_im2col(&s);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < tol,
            "im2col {s:?}: mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );

        let mut image2 = vec![0.0f32; image.len()];
        let mesh = col2im(
            &mut cg,
            &s,
            Some(Col2imOperands {
                cols: &cols,
                image: &mut image2,
            }),
        );
        let model = time_model_col2im(&s);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < tol,
            "col2im {s:?}: mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );
    }

    #[test]
    fn models_match_mesh_channel_plan() {
        model_check(shape(1, 64, 32, 3, 1, 1), 0.1);
    }

    #[test]
    fn models_match_mesh_row_plan() {
        model_check(shape(1, 4, 130, 3, 1, 1), 0.15);
    }

    #[test]
    fn forced_row_strategy_matches_auto_bitwise() {
        // Small image: Auto picks the channel plan. Forcing the row plan
        // must produce the identical column matrix (pure data movement).
        let s = shape(1, 3, 8, 3, 1, 1);
        assert!(channel_plan_applies(&s));
        let image: Vec<f32> = (0..s.in_c * s.in_h * s.in_w)
            .map(|i| ((i * 13) % 31) as f32 - 15.0)
            .collect();
        let run = |strategy| {
            let mut cols = vec![f32::NAN; s.col_rows() * s.col_cols()];
            let mut cg = CoreGroup::new(ExecMode::Functional);
            im2col_with_strategy(
                &mut cg,
                &s,
                strategy,
                Some(Im2colOperands {
                    image: &image,
                    cols: &mut cols,
                }),
            );
            cols
        };
        assert_eq!(run(Im2colStrategy::Row), run(Im2colStrategy::Auto));
    }

    #[test]
    fn forced_channel_plan_is_infeasible_on_large_images() {
        let big = shape(1, 3, 224, 3, 1, 1);
        assert!(!Im2colStrategy::Channel.applies(&big));
        assert!(Im2colStrategy::Row.applies(&big));
        assert!(Im2colStrategy::Auto.applies(&big));
        let small = shape(1, 16, 28, 3, 1, 1);
        assert!(Im2colStrategy::Channel.applies(&small));
    }

    #[test]
    #[should_panic(expected = "swdnn.im2col rejected shape")]
    fn degenerate_shape_fails_with_typed_diagnostic() {
        let mut s = shape(1, 3, 8, 3, 1, 1);
        s.in_w = 0;
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        im2col(&mut cg, &s, None);
    }

    #[test]
    #[should_panic(expected = "swdnn.im2col rejected shape")]
    fn oversized_window_fails_before_underflow() {
        // k = 9 on an unpadded 4x4 image: out extents would underflow in
        // the plan arithmetic; the typed guard must fire first.
        let s = shape(1, 3, 4, 9, 1, 0);
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        col2im(&mut cg, &s, None);
    }

    #[test]
    fn channel_plan_improves_small_image_lowering() {
        // The whole point of the adaptive strategy: the channel plan's big
        // contiguous puts beat the per-row plan on a 28x28x256 layer.
        let s = shape(1, 256, 28, 3, 1, 1);
        assert!(channel_plan_applies(&s));
        let fast = time_model_im2col(&s).seconds();
        // Force the row-plan cost formula for comparison.
        let kk = s.k as f64;
        let ow = s.out_w();
        let per_item = kk * dma::continuous_time(s.in_w * 4, 64).seconds()
            + kk * kk
                * (crate::gemm_flop_time(ow as u64).seconds()
                    + dma::continuous_time(ow * 4, 64).seconds());
        let slow = (s.in_c * s.out_h()).div_ceil(64) as f64 * per_item;
        assert!(fast < 0.5 * slow, "fast={fast} slow={slow}");
    }
}

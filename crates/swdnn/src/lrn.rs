//! Across-channel local response normalisation (GoogLeNet still uses it;
//! the paper's AlexNet refinement swaps it for BN).
//!
//! `scale_i = k + (alpha / n) * sum_{j in window(i)} x_j^2`,
//! `y_i = x_i * scale_i^{-beta}`.
//!
//! Work items are (image, row) pairs; the CPE stages a channels-by-width
//! slab via strided DMA (one block per channel), so the cross-channel
//! window is entirely LDM-resident.

use sw26010::{dma, CoreGroup, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime};

/// LRN hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct LrnParams {
    /// Window size (channels), odd.
    pub local_size: usize,
    pub alpha: f32,
    pub beta: f32,
    pub k: f32,
}

impl Default for LrnParams {
    fn default() -> Self {
        // Caffe / AlexNet defaults.
        LrnParams {
            local_size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 1.0,
        }
    }
}

/// Width chunk that keeps `bufs` channel slabs within the LDM budget.
fn width_chunk(channels: usize, width: usize, bufs: usize) -> usize {
    let budget = 44 * 1024;
    (budget / (bufs * channels * 4)).clamp(1, width)
}

/// Static LDM descriptor of the LRN forward kernel: two all-channel slabs
/// of `width_chunk` pixels.
pub fn forward_plan(channels: usize, width: usize) -> KernelPlan {
    let wc = width_chunk(channels, width, 2);
    KernelPlan::new("swdnn.lrn.fwd", 64)
        .buffer("xs", channels * wc * 4)
        .buffer("ys", channels * wc * 4)
}

/// Static LDM descriptor of the LRN backward kernel (three slabs).
pub fn backward_plan(channels: usize, width: usize) -> KernelPlan {
    let wc = width_chunk(channels, width, 3);
    KernelPlan::new("swdnn.lrn.bwd", 64)
        .buffer("xs", channels * wc * 4)
        .buffer("gs", channels * wc * 4)
        .buffer("ds", channels * wc * 4)
}

/// `k + (alpha / n) * sum_{j in window(c)} x_j^2` at one pixel, reading
/// channel `j` of the pixel's fibre through `xs(j)`.
fn scale_at(p: &LrnParams, channels: usize, xs: impl Fn(usize) -> f64, c: usize) -> f64 {
    let half = p.local_size / 2;
    let lo = c.saturating_sub(half);
    let hi = (c + half).min(channels - 1);
    let mut acc = 0.0f64;
    for j in lo..=hi {
        let v = xs(j);
        acc += v * v;
    }
    p.k as f64 + p.alpha as f64 / p.local_size as f64 * acc
}

/// `y_c` at one pixel.
fn forward_at(p: &LrnParams, channels: usize, xs: impl Fn(usize) -> f64, c: usize) -> f32 {
    let scale = scale_at(p, channels, &xs, c);
    (xs(c) * scale.powf(-(p.beta as f64))) as f32
}

/// `dx_c` at one pixel from the fibres `xs` of the input and `gs` of the
/// output gradient: the direct term plus a cross term for every `j`
/// whose window contains `c`.
fn backward_at(
    p: &LrnParams,
    channels: usize,
    xs: impl Fn(usize) -> f64,
    gs: impl Fn(usize) -> f32,
    c: usize,
) -> f32 {
    let half = p.local_size / 2;
    let scale_c = scale_at(p, channels, &xs, c);
    let mut v = gs(c) as f64 * scale_c.powf(-(p.beta as f64));
    let lo = c.saturating_sub(half);
    let hi = (c + half).min(channels - 1);
    for j in lo..=hi {
        let scale_j = scale_at(p, channels, &xs, j);
        let yj = xs(j) * scale_j.powf(-(p.beta as f64));
        v -= 2.0 * p.alpha as f64 * p.beta as f64 / p.local_size as f64 * xs(c) * gs(j) as f64 * yj
            / scale_j;
    }
    v as f32
}

/// LRN forward over an NCHW tensor.
pub fn forward(
    cg: &mut CoreGroup,
    batch: usize,
    channels: usize,
    height: usize,
    width: usize,
    p: LrnParams,
    io: Option<(&[f32], &mut [f32])>,
) -> LaunchReport {
    if let ExecMode::HostNative { .. } = cg.mode() {
        return crate::run_mesh_body(|mesh| forward(mesh, batch, channels, height, width, p, io));
    }
    if !cg.mode().is_functional() {
        return crate::charge_model(
            cg,
            time_model(batch, channels, height, width, p.local_size, 2),
        );
    }
    let (input, output) = io.expect("functional LRN requires operands");
    let len = batch * channels * height * width;
    assert_eq!(input.len(), len);
    assert_eq!(output.len(), len);
    let x = MemView::new(input);
    let y = MemViewMut::new(output);
    let wc = width_chunk(channels, width, 2);
    let items = batch * height;
    cg.run_planned(&forward_plan(channels, width), move |cpe| {
        let mut xs = cpe.ldm.alloc_f32(channels * wc);
        let mut ys = cpe.ldm.alloc_f32(channels * wc);
        let mut item = cpe.idx();
        while item < items {
            let b = item / height;
            let row = item % height;
            let mut x0 = 0;
            while x0 < width {
                let n = wc.min(width - x0);
                // Slab: one strided block per channel.
                cpe.dma_get_strided(
                    x,
                    (b * channels * height + row) * width + x0,
                    n,
                    height * width,
                    channels,
                    &mut xs[..channels * n],
                );
                cpe.compute((channels * n * (p.local_size + 10)) as u64, || {
                    for xi in 0..n {
                        let x = |j: usize| xs[j * n + xi] as f64;
                        for c in 0..channels {
                            ys[c * n + xi] = forward_at(&p, channels, x, c);
                        }
                    }
                });
                cpe.dma_put_strided(
                    y,
                    (b * channels * height + row) * width + x0,
                    n,
                    height * width,
                    channels,
                    &ys[..channels * n],
                );
                x0 += n;
            }
            item += 64;
        }
    })
}

/// LRN backward over an NCHW tensor.
pub fn backward(
    cg: &mut CoreGroup,
    batch: usize,
    channels: usize,
    height: usize,
    width: usize,
    p: LrnParams,
    io: Option<(&[f32], &[f32], &mut [f32])>,
) -> LaunchReport {
    if let ExecMode::HostNative { .. } = cg.mode() {
        return crate::run_mesh_body(|mesh| backward(mesh, batch, channels, height, width, p, io));
    }
    if !cg.mode().is_functional() {
        return crate::charge_model(
            cg,
            time_model(batch, channels, height, width, 2 * p.local_size, 3),
        );
    }
    let (input, out_grad, in_grad) = io.expect("functional LRN requires operands");
    let len = batch * channels * height * width;
    assert_eq!(input.len(), len);
    assert_eq!(out_grad.len(), len);
    assert_eq!(in_grad.len(), len);
    let x = MemView::new(input);
    let dy = MemView::new(out_grad);
    let dx = MemViewMut::new(in_grad);
    let wc = width_chunk(channels, width, 3);
    let items = batch * height;
    cg.run_planned(&backward_plan(channels, width), move |cpe| {
        let mut xs = cpe.ldm.alloc_f32(channels * wc);
        let mut gs = cpe.ldm.alloc_f32(channels * wc);
        let mut ds = cpe.ldm.alloc_f32(channels * wc);
        let mut item = cpe.idx();
        while item < items {
            let b = item / height;
            let row = item % height;
            let mut x0 = 0;
            while x0 < width {
                let n = wc.min(width - x0);
                let base = (b * channels * height + row) * width + x0;
                cpe.dma_get_strided(
                    x,
                    base,
                    n,
                    height * width,
                    channels,
                    &mut xs[..channels * n],
                );
                cpe.dma_get_strided(
                    dy,
                    base,
                    n,
                    height * width,
                    channels,
                    &mut gs[..channels * n],
                );
                cpe.compute((channels * n * (2 * p.local_size + 15)) as u64, || {
                    for xi in 0..n {
                        let (x, g) = (|j: usize| xs[j * n + xi] as f64, |j: usize| gs[j * n + xi]);
                        for c in 0..channels {
                            ds[c * n + xi] = backward_at(&p, channels, x, g, c);
                        }
                    }
                });
                cpe.dma_put_strided(dx, base, n, height * width, channels, &ds[..channels * n]);
                x0 += n;
            }
            item += 64;
        }
    })
}

/// Shared timing model: `streams` slabs moved per chunk, window-dependent
/// flops per element.
pub fn time_model(
    batch: usize,
    channels: usize,
    height: usize,
    width: usize,
    window_ops: usize,
    streams: usize,
) -> SimTime {
    let wc = width_chunk(channels, width, streams);
    let chunks = width.div_ceil(wc);
    let per_chunk = streams as f64 * dma::strided_time(wc * 4, channels, 64).seconds()
        + crate::gemm_flop_time((channels * wc * (window_ops + 10)) as u64).seconds();
    let per_item = chunks as f64 * per_chunk;
    SimTime::from_seconds(
        sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS
            + (batch * height).div_ceil(64) as f64 * per_item,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::ExecMode;

    fn pattern(len: usize, seed: i64) -> Vec<f32> {
        (0..len)
            .map(|i| (((i as i64 * 23 + seed) % 13) - 6) as f32 * 0.21)
            .collect()
    }

    /// Independent f64 oracle of the forward pass, straight from the
    /// definition in the module doc (shares no code with the kernels).
    fn host_forward(b: usize, c: usize, h: usize, w: usize, p: &LrnParams, x: &[f32]) -> Vec<f32> {
        let at = |bi: usize, ci: usize, yi: usize, xi: usize| ((bi * c + ci) * h + yi) * w + xi;
        let half = (p.local_size / 2) as isize;
        let mut y = vec![0.0f32; x.len()];
        for bi in 0..b {
            for yi in 0..h {
                for xi in 0..w {
                    for ci in 0..c {
                        let sumsq: f64 = (ci as isize - half..=ci as isize + half)
                            .filter(|j| (0..c as isize).contains(j))
                            .map(|j| (x[at(bi, j as usize, yi, xi)] as f64).powi(2))
                            .sum();
                        let scale = p.k as f64 + p.alpha as f64 / p.local_size as f64 * sumsq;
                        y[at(bi, ci, yi, xi)] =
                            (x[at(bi, ci, yi, xi)] as f64 / scale.powf(p.beta as f64)) as f32;
                    }
                }
            }
        }
        y
    }

    #[test]
    fn forward_matches_host() {
        let (b, c, h, w) = (2, 7, 4, 6);
        let p = LrnParams::default();
        let x = pattern(b * c * h * w, 1);
        let want = host_forward(b, c, h, w, &p, &x);
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut got = vec![0.0; x.len()];
        forward(&mut cg, b, c, h, w, p, Some((&x, &mut got)));
        for i in 0..x.len() {
            assert!(
                (got[i] - want[i]).abs() < 1e-5,
                "elem {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let (b, c, h, w) = (1, 6, 2, 3);
        let p = LrnParams {
            local_size: 3,
            alpha: 0.1,
            beta: 0.5,
            k: 2.0,
        };
        let x = pattern(b * c * h * w, 3);
        let dy = pattern(x.len(), 5);
        let loss = |xv: &[f32]| -> f64 {
            host_forward(b, c, h, w, &p, xv)
                .iter()
                .zip(&dy)
                .map(|(a, g)| *a as f64 * *g as f64)
                .sum()
        };
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut dx = vec![0.0; x.len()];
        backward(&mut cg, b, c, h, w, p, Some((&x, &dy, &mut dx)));
        let hh = 1e-3f32;
        let mut xp = x.clone();
        for idx in [0usize, 5, 17, 30] {
            let orig = xp[idx];
            xp[idx] = orig + hh;
            let up = loss(&xp);
            xp[idx] = orig - hh;
            let down = loss(&xp);
            xp[idx] = orig;
            let fd = (up - down) / (2.0 * hh as f64);
            assert!(
                (fd - dx[idx] as f64).abs() < 1e-3,
                "dx[{idx}]: fd {fd} vs {}",
                dx[idx]
            );
        }
    }

    #[test]
    fn wide_rows_are_chunked() {
        // 192 channels x 56 wide (GoogLeNet norm2 geometry, shrunk batch).
        let (b, c, h, w) = (1, 192, 3, 56);
        assert!(width_chunk(c, w, 3) < w);
        let p = LrnParams::default();
        let x = pattern(b * c * h * w, 7);
        let want = host_forward(b, c, h, w, &p, &x);
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut got = vec![0.0; x.len()];
        forward(&mut cg, b, c, h, w, p, Some((&x, &mut got)));
        for i in 0..x.len() {
            assert!((got[i] - want[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn timing_mode_charges_model() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let p = LrnParams::default();
        let r = forward(&mut cg, 128, 64, 56, 56, p, None);
        assert_eq!(r.elapsed, time_model(128, 64, 56, 56, p.local_size, 2));
    }
}

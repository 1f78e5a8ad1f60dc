//! Batch normalisation on the CPE cluster.
//!
//! The paper's AlexNet refinement replaces LRN with BN, so every Fig. 8
//! "conv/bn" bar goes through these kernels. The reduction phase assigns
//! whole channels to CPEs (no cross-CPE accumulation); the normalise
//! phase streams rows like the element-wise kernels.

use sw26010::{dma, CoreGroup, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime};

use crate::elementwise::CHUNK;

/// Static LDM descriptor of the BN forward statistics pass.
pub fn forward_stats_plan(spatial: usize) -> KernelPlan {
    let row_chunk = CHUNK.min(spatial.max(1));
    KernelPlan::new("swdnn.bn.fwd_stats", 64).buffer("buf", row_chunk * 4)
}

/// Static LDM descriptor of the BN forward normalisation pass (four
/// per-channel vectors plus one row chunk).
pub fn forward_normalize_plan(channels: usize, spatial: usize) -> KernelPlan {
    let row_chunk = CHUNK.min(spatial.max(1));
    KernelPlan::new("swdnn.bn.fwd_norm", 64)
        .buffer("gamma", channels * 4)
        .buffer("beta", channels * 4)
        .buffer("mean", channels * 4)
        .buffer("istd", channels * 4)
        .buffer("buf", row_chunk * 4)
}

/// Static LDM descriptor of the BN backward reduction pass.
pub fn backward_reduce_plan(spatial: usize) -> KernelPlan {
    let row_chunk = CHUNK.min(spatial.max(1));
    KernelPlan::new("swdnn.bn.bwd_reduce", 64)
        .buffer("xbuf", row_chunk * 4)
        .buffer("gbuf", row_chunk * 4)
}

/// Static LDM descriptor of the BN backward normalisation pass (five
/// per-channel vectors plus two half row chunks).
pub fn backward_normalize_plan(channels: usize, spatial: usize) -> KernelPlan {
    let row_chunk = (CHUNK / 2).min(spatial.max(1));
    KernelPlan::new("swdnn.bn.bwd_norm", 64)
        .buffer("gamma", channels * 4)
        .buffer("mean", channels * 4)
        .buffer("istd", channels * 4)
        .buffer("dgamma", channels * 4)
        .buffer("dbeta", channels * 4)
        .buffer("xbuf", row_chunk * 4)
        .buffer("ybuf", row_chunk * 4)
}

/// Static LDM descriptor of the BN inference pass.
pub fn inference_plan(channels: usize, spatial: usize) -> KernelPlan {
    let row_chunk = CHUNK.min(spatial.max(1));
    KernelPlan::new("swdnn.bn.inference", 64)
        .buffer("gamma", channels * 4)
        .buffer("beta", channels * 4)
        .buffer("mean", channels * 4)
        .buffer("var", channels * 4)
        .buffer("buf", row_chunk * 4)
}

/// Functional operands of a BN forward pass over an NCHW tensor.
pub struct BnFwdOperands<'a> {
    pub input: &'a [f32],
    pub gamma: &'a [f32],
    pub beta: &'a [f32],
    pub output: &'a mut [f32],
    /// Saved per-channel batch mean (consumed by backward).
    pub save_mean: &'a mut [f32],
    /// Saved per-channel inverse standard deviation.
    pub save_istd: &'a mut [f32],
}

/// Functional operands of a BN backward pass.
pub struct BnBwdOperands<'a> {
    pub input: &'a [f32],
    pub gamma: &'a [f32],
    pub out_grad: &'a [f32],
    pub save_mean: &'a [f32],
    pub save_istd: &'a [f32],
    pub in_grad: &'a mut [f32],
    pub gamma_grad: &'a mut [f32],
    pub beta_grad: &'a mut [f32],
}

/// BN forward (training statistics).
pub fn forward(
    cg: &mut CoreGroup,
    batch: usize,
    channels: usize,
    spatial: usize,
    eps: f32,
    ops: Option<BnFwdOperands<'_>>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, forward_time(batch, channels, spatial));
    }
    let ops = ops.expect("functional BN requires operands");
    let len = batch * channels * spatial;
    assert_eq!(ops.input.len(), len);
    assert_eq!(ops.output.len(), len);
    assert_eq!(ops.gamma.len(), channels);
    assert_eq!(ops.beta.len(), channels);
    assert_eq!(ops.save_mean.len(), channels);
    assert_eq!(ops.save_istd.len(), channels);
    let n_per_c = (batch * spatial) as f64;
    let row_chunk = CHUNK.min(spatial.max(1));
    if let ExecMode::HostNative { .. } = cg.mode() {
        let workers = cg.workers();
        let BnFwdOperands {
            input,
            gamma,
            beta,
            output,
            save_mean,
            save_istd,
        } = ops;
        let chans: Vec<_> = save_mean
            .iter_mut()
            .zip(save_istd.iter_mut())
            .enumerate()
            .collect();
        workers.run(chans, |(c, (mean, istd))| {
            let (mut sum, mut sq) = (0.0f64, 0.0f64);
            for b in 0..batch {
                for chunk in input[(b * channels + c) * spatial..][..spatial].chunks(row_chunk) {
                    let (s, q) = moments(chunk);
                    sum += s;
                    sq += q;
                }
            }
            (*mean, *istd) = stats(sum, sq, n_per_c, eps);
        });
        let (save_mean, save_istd) = (&*save_mean, &*save_istd);
        let rows: Vec<_> = output.chunks_mut(spatial.max(1)).enumerate().collect();
        workers.run(rows, |(row, orow)| {
            let c = row % channels;
            let (g, be, m, is) = (gamma[c], beta[c], save_mean[c], save_istd[c]);
            for (o, v) in orow.iter_mut().zip(&input[row * spatial..]) {
                *o = normalize(*v, g, be, m, is);
            }
        });
        return LaunchReport::default();
    }
    let x = MemView::new(ops.input);
    let gamma = MemView::new(ops.gamma);
    let beta = MemView::new(ops.beta);
    let y = MemViewMut::new(ops.output);
    let mean_out = MemViewMut::new(ops.save_mean);
    let istd_out = MemViewMut::new(ops.save_istd);

    // Phase A: per-channel statistics (channel c owned by CPE c % 64).
    let mut total = cg.run_planned(&forward_stats_plan(spatial), |cpe| {
        let mut buf = cpe.ldm.alloc_f32(row_chunk);
        let mut c = cpe.idx();
        while c < channels {
            let mut sum = 0.0f64;
            let mut sq = 0.0f64;
            for b in 0..batch {
                let mut off = 0;
                while off < spatial {
                    let n = row_chunk.min(spatial - off);
                    cpe.dma_get(x, (b * channels + c) * spatial + off, &mut buf[..n]);
                    let (s, q) = cpe.compute(2 * n as u64, || moments(&buf[..n]));
                    sum += s;
                    sq += q;
                    off += n;
                }
            }
            let (mean, istd) = stats(sum, sq, n_per_c, eps);
            cpe.charge_scalar_ops(10);
            cpe.dma_put(mean_out, c, &[mean]);
            cpe.dma_put(istd_out, c, &[istd]);
            c += 64;
        }
    });

    // Phase B: normalise.
    let report = cg.run_planned(&forward_normalize_plan(channels, spatial), |cpe| {
        let mut gbuf = cpe.ldm.alloc_f32(channels);
        let mut bbuf = cpe.ldm.alloc_f32(channels);
        let mut mbuf = cpe.ldm.alloc_f32(channels);
        let mut ibuf = cpe.ldm.alloc_f32(channels);
        cpe.dma_get(gamma, 0, &mut gbuf);
        cpe.dma_get(beta, 0, &mut bbuf);
        cpe.dma_get(mean_out.as_view(), 0, &mut mbuf);
        cpe.dma_get(istd_out.as_view(), 0, &mut ibuf);
        let mut buf = cpe.ldm.alloc_f32(row_chunk);
        let rows = batch * channels;
        let mut row = cpe.idx();
        while row < rows {
            let c = row % channels;
            let mut off = 0;
            while off < spatial {
                let n = row_chunk.min(spatial - off);
                cpe.dma_get(x, row * spatial + off, &mut buf[..n]);
                cpe.compute(3 * n as u64, || {
                    for v in buf[..n].iter_mut() {
                        *v = normalize(*v, gbuf[c], bbuf[c], mbuf[c], ibuf[c]);
                    }
                });
                cpe.dma_put(y, row * spatial + off, &buf[..n]);
                off += n;
            }
            row += 64;
        }
    });
    total.merge(&report);
    total
}

/// BN backward.
pub fn backward(
    cg: &mut CoreGroup,
    batch: usize,
    channels: usize,
    spatial: usize,
    ops: Option<BnBwdOperands<'_>>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, backward_time(batch, channels, spatial));
    }
    let ops = ops.expect("functional BN requires operands");
    let len = batch * channels * spatial;
    assert_eq!(ops.input.len(), len);
    assert_eq!(ops.out_grad.len(), len);
    assert_eq!(ops.in_grad.len(), len);
    let n_per_c = (batch * spatial) as f64;
    let row_chunk = CHUNK.min(spatial.max(1));
    if let ExecMode::HostNative { .. } = cg.mode() {
        let workers = cg.workers();
        let BnBwdOperands {
            input,
            gamma,
            out_grad,
            save_mean,
            save_istd,
            in_grad,
            gamma_grad,
            beta_grad,
        } = ops;
        let chans: Vec<_> = gamma_grad
            .iter_mut()
            .zip(beta_grad.iter_mut())
            .enumerate()
            .collect();
        workers.run(chans, |(c, (dgc, dbc))| {
            let (m, is) = (save_mean[c] as f64, save_istd[c] as f64);
            let (mut dg, mut db) = (0.0f64, 0.0f64);
            for b in 0..batch {
                let base = (b * channels + c) * spatial;
                let xs = input[base..][..spatial].chunks(row_chunk);
                for (x, dy) in xs.zip(out_grad[base..][..spatial].chunks(row_chunk)) {
                    let (a, bb) = grad_moments(x, dy, m, is);
                    dg += a;
                    db += bb;
                }
            }
            (*dgc, *dbc) = (dg as f32, db as f32);
        });
        let (gamma_grad, beta_grad) = (&*gamma_grad, &*beta_grad);
        let rows: Vec<_> = in_grad.chunks_mut(spatial.max(1)).enumerate().collect();
        workers.run(rows, |(row, drow)| {
            let c = row % channels;
            let coeffs = InputGrad::new(
                n_per_c,
                gamma[c],
                save_mean[c],
                save_istd[c],
                gamma_grad[c],
                beta_grad[c],
            );
            let (xs, dys) = (&input[row * spatial..], &out_grad[row * spatial..]);
            for ((d, x), dy) in drow.iter_mut().zip(xs).zip(dys) {
                *d = coeffs.dx(*x, *dy);
            }
        });
        return LaunchReport::default();
    }
    let x = MemView::new(ops.input);
    let dy = MemView::new(ops.out_grad);
    let gamma = MemView::new(ops.gamma);
    let mean = MemView::new(ops.save_mean);
    let istd = MemView::new(ops.save_istd);
    let dx = MemViewMut::new(ops.in_grad);
    let dgamma = MemViewMut::new(ops.gamma_grad);
    let dbeta = MemViewMut::new(ops.beta_grad);

    // Phase A: per-channel dgamma / dbeta.
    let mut total = cg.run_planned(&backward_reduce_plan(spatial), |cpe| {
        let mut xbuf = cpe.ldm.alloc_f32(row_chunk);
        let mut gbuf = cpe.ldm.alloc_f32(row_chunk);
        let mut mbuf = [0.0f32; 1];
        let mut ibuf = [0.0f32; 1];
        let mut c = cpe.idx();
        while c < channels {
            cpe.dma_get(mean, c, &mut mbuf);
            cpe.dma_get(istd, c, &mut ibuf);
            let (m, is) = (mbuf[0] as f64, ibuf[0] as f64);
            let mut dg = 0.0f64;
            let mut db = 0.0f64;
            for b in 0..batch {
                let mut off = 0;
                while off < spatial {
                    let n = row_chunk.min(spatial - off);
                    let base = (b * channels + c) * spatial + off;
                    cpe.dma_get(x, base, &mut xbuf[..n]);
                    cpe.dma_get(dy, base, &mut gbuf[..n]);
                    let (a, bb) =
                        cpe.compute(4 * n as u64, || grad_moments(&xbuf[..n], &gbuf[..n], m, is));
                    dg += a;
                    db += bb;
                    off += n;
                }
            }
            cpe.dma_put(dgamma, c, &[dg as f32]);
            cpe.dma_put(dbeta, c, &[db as f32]);
            c += 64;
        }
    });

    // Phase B: dx = (gamma * istd / N) * (N*dy - dbeta - xhat * dgamma).
    let report = cg.run_planned(&backward_normalize_plan(channels, spatial), |cpe| {
        let mut gbuf = cpe.ldm.alloc_f32(channels);
        let mut mbuf = cpe.ldm.alloc_f32(channels);
        let mut ibuf = cpe.ldm.alloc_f32(channels);
        let mut dgb = cpe.ldm.alloc_f32(channels);
        let mut dbb = cpe.ldm.alloc_f32(channels);
        cpe.dma_get(gamma, 0, &mut gbuf);
        cpe.dma_get(mean, 0, &mut mbuf);
        cpe.dma_get(istd, 0, &mut ibuf);
        cpe.dma_get(dgamma.as_view(), 0, &mut dgb);
        cpe.dma_get(dbeta.as_view(), 0, &mut dbb);
        let half_chunk = (CHUNK / 2).min(spatial.max(1));
        let mut xbuf = cpe.ldm.alloc_f32(half_chunk);
        let mut ybuf = cpe.ldm.alloc_f32(half_chunk);
        let rows = batch * channels;
        let mut row = cpe.idx();
        while row < rows {
            let c = row % channels;
            let coeffs = InputGrad::new(n_per_c, gbuf[c], mbuf[c], ibuf[c], dgb[c], dbb[c]);
            let mut off = 0;
            while off < spatial {
                let n = half_chunk.min(spatial - off);
                let base = row * spatial + off;
                cpe.dma_get(x, base, &mut xbuf[..n]);
                cpe.dma_get(dy, base, &mut ybuf[..n]);
                cpe.compute(6 * n as u64, || {
                    for (g, v) in ybuf[..n].iter_mut().zip(&xbuf[..n]) {
                        *g = coeffs.dx(*v, *g);
                    }
                });
                cpe.dma_put(dx, base, &ybuf[..n]);
                off += n;
            }
            row += 64;
        }
    });
    total.merge(&report);
    total
}

/// Sum and sum of squares of one staged chunk of a channel, in f64: the
/// statistics arithmetic both backends run, chunk by chunk.
pub(crate) fn moments(chunk: &[f32]) -> (f64, f64) {
    let mut s = 0.0f64;
    let mut q = 0.0f64;
    for v in chunk {
        s += *v as f64;
        q += (*v as f64) * (*v as f64);
    }
    (s, q)
}

/// A channel's saved `(mean, istd)` from its f64 sums over `n` values.
pub(crate) fn stats(sum: f64, sq: f64, n: f64, eps: f32) -> (f32, f32) {
    let mean = sum / n;
    let var = (sq / n - mean * mean).max(0.0);
    let istd = 1.0 / (var + eps as f64).sqrt();
    (mean as f32, istd as f32)
}

/// Training-mode normalisation of one element, pure f32 on the saved
/// statistics.
pub(crate) fn normalize(x: f32, gamma: f32, beta: f32, mean: f32, istd: f32) -> f32 {
    gamma * (x - mean) * istd + beta
}

/// `(dgamma, dbeta)` partial sums of one staged chunk, in f64.
pub(crate) fn grad_moments(x: &[f32], dy: &[f32], mean: f64, istd: f64) -> (f64, f64) {
    let mut a = 0.0f64;
    let mut b = 0.0f64;
    for (x, g) in x.iter().zip(dy) {
        let xhat = (*x as f64 - mean) * istd;
        a += *g as f64 * xhat;
        b += *g as f64;
    }
    (a, b)
}

/// One channel's data-gradient coefficients:
/// `dx = (gamma * istd / N) * (N*dy - dbeta - xhat * dgamma)`, in f64 on
/// the rounded f32 statistics and parameter gradients.
pub(crate) struct InputGrad {
    n: f64,
    mean: f64,
    istd: f64,
    scale: f64,
    dgamma: f64,
    dbeta: f64,
}

impl InputGrad {
    pub(crate) fn new(n: f64, gamma: f32, mean: f32, istd: f32, dgamma: f32, dbeta: f32) -> Self {
        InputGrad {
            n,
            mean: mean as f64,
            istd: istd as f64,
            scale: gamma as f64 * istd as f64 / n,
            dgamma: dgamma as f64,
            dbeta: dbeta as f64,
        }
    }

    pub(crate) fn dx(&self, x: f32, dy: f32) -> f32 {
        let xhat = (x as f64 - self.mean) * self.istd;
        (self.scale * (self.n * dy as f64 - self.dbeta - xhat * self.dgamma)) as f32
    }
}

/// `1 / sqrt(var + eps)` of a running variance, in f64.
pub(crate) fn running_istd(var: f32, eps: f32) -> f64 {
    1.0 / (var as f64 + eps as f64).sqrt()
}

/// Inference-mode normalisation of one element with running statistics,
/// in f64 rounded once to f32.
pub(crate) fn infer(x: f32, gamma: f32, beta: f32, mean: f32, istd: f64) -> f32 {
    (gamma as f64 * (x as f64 - mean as f64) * istd + beta as f64) as f32
}

/// Duration of the BN forward pass (mirrors the two launch phases).
pub fn forward_time(batch: usize, channels: usize, spatial: usize) -> SimTime {
    use crate::elementwise::{chunk_walk_time, CHUNK};
    let launch = sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS;
    // Phase A: per-channel reduction + two scalar puts.
    let per_channel = batch as f64 * chunk_walk_time(spatial, CHUNK, 1, 2)
        + 2.0 * dma::continuous_time(4, 64).seconds();
    let phase_a = launch + channels.div_ceil(64) as f64 * per_channel;
    // Phase B: 4 parameter-vector loads, then per-row normalise.
    let phase_b = launch
        + 4.0 * dma::continuous_time(channels * 4, 64).seconds()
        + (batch * channels).div_ceil(64) as f64 * chunk_walk_time(spatial, CHUNK, 2, 3);
    SimTime::from_seconds(phase_a + phase_b)
}

/// Duration of the BN backward pass (mirrors the two launch phases).
pub(crate) fn backward_time(batch: usize, channels: usize, spatial: usize) -> SimTime {
    use crate::elementwise::{chunk_walk_time, CHUNK};
    let launch = sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS;
    // Phase A: per-channel dgamma/dbeta: 2 scalar gets, the data sweep,
    // 2 scalar puts.
    let per_channel = 4.0 * dma::continuous_time(4, 64).seconds()
        + batch as f64 * chunk_walk_time(spatial, CHUNK, 2, 4);
    let phase_a = launch + channels.div_ceil(64) as f64 * per_channel;
    // Phase B: 5 parameter-vector loads, then per-row dx with half-size
    // chunks (two staging buffers share the LDM budget).
    let phase_b = launch
        + 5.0 * dma::continuous_time(channels * 4, 64).seconds()
        + (batch * channels).div_ceil(64) as f64 * chunk_walk_time(spatial, CHUNK / 2, 3, 6);
    SimTime::from_seconds(phase_a + phase_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::ExecMode;

    fn pattern(len: usize, seed: i64) -> Vec<f32> {
        (0..len)
            .map(|i| (((i as i64 * 31 + seed * 7) % 17) - 8) as f32 * 0.3)
            .collect()
    }

    fn host_bn_forward(
        b: usize,
        c: usize,
        s: usize,
        eps: f32,
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = (b * s) as f64;
        let mut y = vec![0.0f32; x.len()];
        let mut means = vec![0.0f32; c];
        let mut istds = vec![0.0f32; c];
        for ch in 0..c {
            let vals: Vec<f64> = (0..b)
                .flat_map(|bi| (0..s).map(move |si| (bi * c + ch) * s + si))
                .map(|i| x[i] as f64)
                .collect();
            let mean = vals.iter().sum::<f64>() / n;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            let istd = 1.0 / (var + eps as f64).sqrt();
            means[ch] = mean as f32;
            istds[ch] = istd as f32;
            for bi in 0..b {
                for si in 0..s {
                    let i = (bi * c + ch) * s + si;
                    y[i] =
                        (gamma[ch] as f64 * (x[i] as f64 - mean) * istd + beta[ch] as f64) as f32;
                }
            }
        }
        (y, means, istds)
    }

    #[test]
    fn forward_matches_host() {
        let (b, c, s) = (4, 6, 25);
        let x = pattern(b * c * s, 1);
        let gamma = pattern(c, 2).iter().map(|v| v + 2.0).collect::<Vec<_>>();
        let beta = pattern(c, 3);
        let (want_y, want_m, want_i) = host_bn_forward(b, c, s, 1e-5, &x, &gamma, &beta);
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut y = vec![0.0; x.len()];
            let mut sm = vec![0.0; c];
            let mut si = vec![0.0; c];
            forward(
                &mut cg,
                b,
                c,
                s,
                1e-5,
                Some(BnFwdOperands {
                    input: &x,
                    gamma: &gamma,
                    beta: &beta,
                    output: &mut y,
                    save_mean: &mut sm,
                    save_istd: &mut si,
                }),
            );
            for i in 0..x.len() {
                assert!(
                    (y[i] - want_y[i]).abs() < 1e-4,
                    "y[{i}]: {} vs {}",
                    y[i],
                    want_y[i]
                );
            }
            for ch in 0..c {
                assert!((sm[ch] - want_m[ch]).abs() < 1e-5);
                assert!((si[ch] - want_i[ch]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        // Check dL/dx for L = sum(w .* y) against finite differences.
        let (b, c, s) = (2, 3, 8);
        let x = pattern(b * c * s, 4);
        let gamma: Vec<f32> = pattern(c, 5).iter().map(|v| v + 1.5).collect();
        let beta = pattern(c, 6);
        let w = pattern(b * c * s, 7);
        let eps = 1e-3f32;

        let loss = |xv: &[f32]| -> f64 {
            let (y, _, _) = host_bn_forward(b, c, s, eps, xv, &gamma, &beta);
            y.iter().zip(&w).map(|(a, b)| *a as f64 * *b as f64).sum()
        };

        let (_, sm, si) = host_bn_forward(b, c, s, eps, &x, &gamma, &beta);
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut dx = vec![0.0; x.len()];
            let mut dg = vec![0.0; c];
            let mut db = vec![0.0; c];
            backward(
                &mut cg,
                b,
                c,
                s,
                Some(BnBwdOperands {
                    input: &x,
                    gamma: &gamma,
                    out_grad: &w,
                    save_mean: &sm,
                    save_istd: &si,
                    in_grad: &mut dx,
                    gamma_grad: &mut dg,
                    beta_grad: &mut db,
                }),
            );

            let h = 1e-2f32;
            let mut xp = x.clone();
            for idx in [0usize, 7, 20, 33] {
                let orig = xp[idx];
                xp[idx] = orig + h;
                let up = loss(&xp);
                xp[idx] = orig - h;
                let down = loss(&xp);
                xp[idx] = orig;
                let fd = (up - down) / (2.0 * h as f64);
                assert!(
                    (fd - dx[idx] as f64).abs() < 2e-2,
                    "dx[{idx}]: fd {fd} vs analytic {}",
                    dx[idx]
                );
            }
            // dbeta is just the sum of dy per channel.
            for ch in 0..c {
                let want: f32 = (0..b)
                    .flat_map(|bi| {
                        let w = &w;
                        (0..s).map(move |si2| w[(bi * c + ch) * s + si2])
                    })
                    .sum();
                assert!((db[ch] - want).abs() < 1e-4);
            }
        }
    }

    /// The channel sums add one f64 partial per `CHUNK`-element piece of
    /// each row, in order. Rows `[A, 1, .., -A, 1]` with `A = 2^60` tell
    /// the schedule apart: a 1 added to a partial holding `A` is lost, so
    /// the sum is 1 when `A` and `-A` share a piece and 0 when a chunk
    /// boundary falls between them. Checked on the forward mean and the
    /// backward dbeta, on both backends.
    #[test]
    fn sums_follow_the_chunk_schedule() {
        let big = 2f32.powi(60);
        for (spatial, neg_at, want_sum) in [(4, 2, 1.0f64), (CHUNK + 2, CHUNK, 0.0)] {
            let mut x = vec![0.0f32; spatial];
            (x[0], x[1], x[neg_at], x[neg_at + 1]) = (big, 1.0, -big, 1.0);
            let want_mean = (want_sum / spatial as f64) as f32;
            for mode in crate::FUNCTIONAL_MODES {
                let mut cg = CoreGroup::new(mode);
                let (mut y, mut mean, mut istd) = (vec![0.0; spatial], [0.0], [0.0]);
                let ops = BnFwdOperands {
                    input: &x,
                    gamma: &[1.0],
                    beta: &[0.0],
                    output: &mut y,
                    save_mean: &mut mean,
                    save_istd: &mut istd,
                };
                forward(&mut cg, 1, 1, spatial, 1e-5, Some(ops));
                assert_eq!(mean[0], want_mean, "{mode:?} spatial {spatial}");
                let (mut dx, mut dg, mut db) = (vec![0.0; spatial], [0.0], [0.0]);
                let ops = BnBwdOperands {
                    input: &x,
                    gamma: &[1.0],
                    out_grad: &x,
                    save_mean: &mean,
                    save_istd: &istd,
                    in_grad: &mut dx,
                    gamma_grad: &mut dg,
                    beta_grad: &mut db,
                };
                backward(&mut cg, 1, 1, spatial, Some(ops));
                assert_eq!(db[0], want_sum as f32, "{mode:?} spatial {spatial}");
            }
        }
    }

    #[test]
    fn timing_mode_charges_models() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let f = forward(&mut cg, 256, 96, 55 * 55, 1e-5, None);
        assert_eq!(f.elapsed, forward_time(256, 96, 55 * 55));
        let b = backward(&mut cg, 256, 96, 55 * 55, None);
        assert_eq!(b.elapsed, backward_time(256, 96, 55 * 55));
    }
}

/// Operands of [`forward_inference`]:
/// `(input, gamma, beta, running_mean, running_var, output)`.
pub(crate) type InferenceIo<'a> = (
    &'a [f32],
    &'a [f32],
    &'a [f32],
    &'a [f32],
    &'a [f32],
    &'a mut [f32],
);

/// BN inference forward: normalise with *running* statistics instead of
/// batch statistics (the `Test`-phase path; single streaming pass).
#[allow(clippy::too_many_arguments)]
pub fn forward_inference(
    cg: &mut CoreGroup,
    batch: usize,
    channels: usize,
    spatial: usize,
    eps: f32,
    io: Option<InferenceIo<'_>>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        let t = sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS
            + 4.0 * dma::continuous_time(channels * 4, 64).seconds()
            + crate::elementwise::row_stream_time(
                batch * channels,
                spatial,
                crate::elementwise::CHUNK,
                2,
                3,
            );
        return crate::charge_model(cg, SimTime::from_seconds(t));
    }
    let (input, gamma, beta, mean, var, output) =
        io.expect("functional BN inference requires operands");
    let len = batch * channels * spatial;
    assert_eq!(input.len(), len);
    assert_eq!(output.len(), len);
    assert_eq!(gamma.len(), channels);
    assert_eq!(beta.len(), channels);
    assert_eq!(mean.len(), channels);
    assert_eq!(var.len(), channels);
    if let ExecMode::HostNative { .. } = cg.mode() {
        let rows: Vec<_> = output.chunks_mut(spatial.max(1)).enumerate().collect();
        cg.workers().run(rows, |(row, orow)| {
            let c = row % channels;
            let istd = running_istd(var[c], eps);
            for (o, v) in orow.iter_mut().zip(&input[row * spatial..]) {
                *o = infer(*v, gamma[c], beta[c], mean[c], istd);
            }
        });
        return LaunchReport::default();
    }
    let x = MemView::new(input);
    let g = MemView::new(gamma);
    let bt = MemView::new(beta);
    let m = MemView::new(mean);
    let v = MemView::new(var);
    let y = MemViewMut::new(output);
    cg.run_planned(&inference_plan(channels, spatial), move |cpe| {
        let mut gbuf = cpe.ldm.alloc_f32(channels);
        let mut bbuf = cpe.ldm.alloc_f32(channels);
        let mut mbuf = cpe.ldm.alloc_f32(channels);
        let mut vbuf = cpe.ldm.alloc_f32(channels);
        cpe.dma_get(g, 0, &mut gbuf);
        cpe.dma_get(bt, 0, &mut bbuf);
        cpe.dma_get(m, 0, &mut mbuf);
        cpe.dma_get(v, 0, &mut vbuf);
        let row_chunk = crate::elementwise::CHUNK.min(spatial.max(1));
        let mut buf = cpe.ldm.alloc_f32(row_chunk);
        let rows = batch * channels;
        let mut row = cpe.idx();
        while row < rows {
            let c = row % channels;
            let istd = running_istd(vbuf[c], eps);
            let mut off = 0;
            while off < spatial {
                let n = row_chunk.min(spatial - off);
                cpe.dma_get(x, row * spatial + off, &mut buf[..n]);
                cpe.compute(3 * n as u64, || {
                    for val in buf[..n].iter_mut() {
                        *val = infer(*val, gbuf[c], bbuf[c], mbuf[c], istd);
                    }
                });
                cpe.dma_put(y, row * spatial + off, &buf[..n]);
                off += n;
            }
            row += 64;
        }
    })
}

#[cfg(test)]
mod inference_tests {
    use super::*;

    #[test]
    fn inference_uses_provided_stats() {
        let (b, c, s) = (2, 3, 10);
        let x: Vec<f32> = (0..b * c * s).map(|i| (i % 7) as f32 - 3.0).collect();
        let gamma = vec![2.0f32, 1.0, 0.5];
        let beta = vec![0.1f32, -0.2, 0.3];
        let mean = vec![0.5f32, -0.5, 0.0];
        let var = vec![1.0f32, 4.0, 0.25];
        let eps = 1e-5;
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut y = vec![0.0f32; x.len()];
            forward_inference(
                &mut cg,
                b,
                c,
                s,
                eps,
                Some((&x, &gamma, &beta, &mean, &var, &mut y)),
            );
            for bi in 0..b {
                for ci in 0..c {
                    for si in 0..s {
                        let i = (bi * c + ci) * s + si;
                        let want =
                            gamma[ci] * (x[i] - mean[ci]) / (var[ci] + eps).sqrt() + beta[ci];
                        assert!((y[i] - want).abs() < 1e-5, "elem {i}: {} vs {want}", y[i]);
                    }
                }
            }
        }
    }
}

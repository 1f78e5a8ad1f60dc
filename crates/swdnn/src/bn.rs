//! Batch normalisation on the CPE cluster.
//!
//! The paper's AlexNet refinement replaces LRN with BN, so every Fig. 8
//! "conv/bn" bar goes through these kernels. The reduction phase assigns
//! whole channels to CPEs (no cross-CPE accumulation); the normalise
//! phase streams rows like the element-wise kernels.

use sw26010::{dma, CoreGroup, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime};

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
    if let swbackend::Path::Host { threads } = swbackend::dispatch(cg.mode()) {
        crate::host::bn_forward(
            threads,
            batch,
            channels,
            spatial,
            eps,
            ops.input,
            ops.gamma,
            ops.beta,
            ops.output,
            ops.save_mean,
            ops.save_istd,
        );
        return LaunchReport::default();
    }
    let x = MemView::new(ops.input);
    let gamma = MemView::new(ops.gamma);
    let beta = MemView::new(ops.beta);
    let y = MemViewMut::new(ops.output);
    let mean_out = MemViewMut::new(ops.save_mean);
    let istd_out = MemViewMut::new(ops.save_istd);
    let n_per_c = (batch * spatial) as f64;

    // Phase A: per-channel statistics (channel c owned by CPE c % 64).
    let mut total = cg.run_planned(&forward_stats_plan(spatial), |cpe| {
        let row_chunk = CHUNK.min(spatial.max(1));
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
                    let (s, q) = cpe.compute(2 * n as u64, || {
                        let mut s = 0.0f64;
                        let mut q = 0.0f64;
                        for v in &buf[..n] {
                            s += *v as f64;
                            q += (*v as f64) * (*v as f64);
                        }
                        (s, q)
                    });
                    sum += s;
                    sq += q;
                    off += n;
                }
            }
            let mean = sum / n_per_c;
            let var = (sq / n_per_c - mean * mean).max(0.0);
            let istd = 1.0 / (var + eps as f64).sqrt();
            cpe.charge_scalar_ops(10);
            cpe.dma_put(mean_out, c, &[mean as f32]);
            cpe.dma_put(istd_out, c, &[istd as f32]);
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
        let row_chunk = CHUNK.min(spatial.max(1));
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
                        *v = gbuf[c] * (*v - mbuf[c]) * ibuf[c] + bbuf[c];
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
    if let swbackend::Path::Host { threads } = swbackend::dispatch(cg.mode()) {
        crate::host::bn_backward(
            threads,
            batch,
            channels,
            spatial,
            ops.input,
            ops.gamma,
            ops.out_grad,
            ops.save_mean,
            ops.save_istd,
            ops.in_grad,
            ops.gamma_grad,
            ops.beta_grad,
        );
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
    let n_per_c = (batch * spatial) as f64;

    // Phase A: per-channel dgamma / dbeta.
    let mut total = cg.run_planned(&backward_reduce_plan(spatial), |cpe| {
        let row_chunk = CHUNK.min(spatial.max(1));
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
                    let (a, bb) = cpe.compute(4 * n as u64, || {
                        let mut a = 0.0f64;
                        let mut bb = 0.0f64;
                        for i in 0..n {
                            let xhat = (xbuf[i] as f64 - m) * is;
                            a += gbuf[i] as f64 * xhat;
                            bb += gbuf[i] as f64;
                        }
                        (a, bb)
                    });
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
        let row_chunk = (CHUNK / 2).min(spatial.max(1));
        let mut xbuf = cpe.ldm.alloc_f32(row_chunk);
        let mut ybuf = cpe.ldm.alloc_f32(row_chunk);
        let rows = batch * channels;
        let mut row = cpe.idx();
        while row < rows {
            let c = row % channels;
            let scale = gbuf[c] as f64 * ibuf[c] as f64 / n_per_c;
            let mut off = 0;
            while off < spatial {
                let n = row_chunk.min(spatial - off);
                let base = row * spatial + off;
                cpe.dma_get(x, base, &mut xbuf[..n]);
                cpe.dma_get(dy, base, &mut ybuf[..n]);
                cpe.compute(6 * n as u64, || {
                    for i in 0..n {
                        let xhat = (xbuf[i] as f64 - mbuf[c] as f64) * ibuf[c] as f64;
                        let v = scale
                            * (n_per_c * ybuf[i] as f64 - dbb[c] as f64 - xhat * dgb[c] as f64);
                        ybuf[i] = v as f32;
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
pub fn backward_time(batch: usize, channels: usize, spatial: usize) -> SimTime {
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
        let mut y = vec![0.0; x.len()];
        let mut sm = vec![0.0; c];
        let mut si = vec![0.0; c];
        let mut cg = CoreGroup::new(ExecMode::Functional);
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
        let mut dx = vec![0.0; x.len()];
        let mut dg = vec![0.0; c];
        let mut db = vec![0.0; c];
        let mut cg = CoreGroup::new(ExecMode::Functional);
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
pub type InferenceIo<'a> = (
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
    if let swbackend::Path::Host { threads } = swbackend::dispatch(cg.mode()) {
        crate::host::bn_inference(
            threads, batch, channels, spatial, eps, input, gamma, beta, mean, var, output,
        );
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
            let istd = 1.0 / (vbuf[c] as f64 + eps as f64).sqrt();
            let mut off = 0;
            while off < spatial {
                let n = row_chunk.min(spatial - off);
                cpe.dma_get(x, row * spatial + off, &mut buf[..n]);
                cpe.compute(3 * n as u64, || {
                    for val in buf[..n].iter_mut() {
                        *val = (gbuf[c] as f64 * (*val as f64 - mbuf[c] as f64) * istd
                            + bbuf[c] as f64) as f32;
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
    use sw26010::ExecMode;

    #[test]
    fn inference_uses_provided_stats() {
        let (b, c, s) = (2, 3, 10);
        let x: Vec<f32> = (0..b * c * s).map(|i| (i % 7) as f32 - 3.0).collect();
        let gamma = vec![2.0f32, 1.0, 0.5];
        let beta = vec![0.1f32, -0.2, 0.3];
        let mean = vec![0.5f32, -0.5, 0.0];
        let var = vec![1.0f32, 4.0, 0.25];
        let eps = 1e-5;
        let mut y = vec![0.0f32; x.len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
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
                    let want = gamma[ci] * (x[i] - mean[ci]) / (var[ci] + eps).sqrt() + beta[ci];
                    assert!((y[i] - want).abs() < 1e-5, "elem {i}: {} vs {want}", y[i]);
                }
            }
        }
    }
}

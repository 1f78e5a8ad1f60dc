//! Fused convolution + batch-norm (inference) + ReLU — the serving hot
//! path produced by `swserve`'s graph optimizer.
//!
//! The unfused inference sequence runs four kernels over the conv output
//! tensor: bias add, BN normalisation with running statistics, and ReLU,
//! each a full DMA round trip through main memory plus an athread launch.
//! The fused epilogue applies all three transforms while each output
//! chunk is staged in LDM once: one launch, one round trip.
//!
//! **Bit-identity contract:** the fused path computes *exactly* the same
//! arithmetic as `conv_explicit::forward` → `elementwise::bias_forward` →
//! `bn::forward_inference` → `elementwise::relu_forward`, in the same
//! order with the same f32/f64 widening points, so outputs are
//! bit-for-bit identical to the unfused three-layer sequence (pinned by
//! `tests/fused_agreement.rs`). Only the simulated time differs: the
//! epilogue saves two full tensor round trips and two kernel launches.
//! The epilogue is built from the unfused kernels' own per-element
//! functions (`bn::infer`, `elementwise::relu`), so that agreement is
//! mostly by construction; `tests::epilogue_matches_f64_oracle` checks
//! the arithmetic itself.

use sw26010::{
    arch, dma, CoreGroup, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime,
};

use crate::elementwise::{relu, row_stream_time, CHUNK};
use crate::shapes::ConvShape;
use crate::{bn, conv_explicit};

/// Functional operands of the fused forward pass, all NCHW row-major:
/// input `(B, N_i, R_i, C_i)`, weights `(N_o, N_i, K, K)`, per-channel
/// `bias`/`gamma`/`beta`/`mean`/`var` of length `N_o`, output
/// `(B, N_o, R_o, C_o)`.
pub struct ConvBnReluOperands<'a> {
    pub input: &'a [f32],
    pub weights: &'a [f32],
    pub bias: Option<&'a [f32]>,
    pub gamma: &'a [f32],
    pub beta: &'a [f32],
    pub mean: &'a [f32],
    pub var: &'a [f32],
    pub output: &'a mut [f32],
}

/// Launch plan of the fused epilogue: the five per-channel vectors plus
/// one streaming row chunk per CPE.
pub fn epilogue_plan(channels: usize, spatial: usize) -> KernelPlan {
    let chunk = CHUNK.min(spatial.max(1));
    KernelPlan::new("swdnn.fused_epilogue", 64)
        .buffer("bias", channels * 4)
        .buffer("gamma", channels * 4)
        .buffer("beta", channels * 4)
        .buffer("mean", channels * 4)
        .buffer("var", channels * 4)
        .buffer("row", chunk * 4)
}

/// Analytic time of the fused epilogue: one launch, the channel-vector
/// stages, and a single read+write streaming pass at 5 flops/element
/// (bias add, the three BN ops, the ReLU max).
pub(crate) fn epilogue_time(batch: usize, channels: usize, spatial: usize) -> SimTime {
    SimTime::from_seconds(
        arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS
            + 5.0 * dma::continuous_time(channels * 4, 64).seconds()
            + row_stream_time(batch * channels, spatial, CHUNK, 2, 5),
    )
}

/// Analytic time of the whole fused forward: the explicit-plan conv plus
/// the epilogue. Strictly below the unfused sum, which pays three
/// separate round trips (bias, BN, ReLU) over the same tensor.
pub fn forward_time(shape: &ConvShape) -> SimTime {
    conv_explicit::forward_time(shape)
        + epilogue_time(shape.batch, shape.out_c, shape.out_h() * shape.out_w())
}

/// Fused conv+BN+ReLU forward (explicit conv plan, NCHW).
pub fn forward(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    eps: f32,
    ops: Option<ConvBnReluOperands<'_>>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        let conv = conv_explicit::forward(cg, shape, None);
        let spatial = shape.out_h() * shape.out_w();
        let epi = crate::charge_model(cg, epilogue_time(shape.batch, shape.out_c, spatial));
        let mut total = conv;
        total.merge(&epi);
        return total;
    }
    let ops = ops.expect("functional fused conv requires operands");
    let channels = shape.out_c;
    let spatial = shape.out_h() * shape.out_w();
    assert_eq!(ops.gamma.len(), channels);
    assert_eq!(ops.beta.len(), channels);
    assert_eq!(ops.mean.len(), channels);
    assert_eq!(ops.var.len(), channels);
    if let Some(bias) = ops.bias {
        assert_eq!(bias.len(), channels);
    }
    let mut total = conv_explicit::forward(
        cg,
        shape,
        Some(crate::conv_explicit::ConvFwdOperands {
            input: ops.input,
            weights: ops.weights,
            output: ops.output,
        }),
    );
    if let ExecMode::HostNative { .. } = cg.mode() {
        let rows: Vec<_> = ops.output.chunks_mut(spatial.max(1)).enumerate().collect();
        cg.workers().run(rows, |(row, drow)| {
            let c = row % channels;
            let bias = ops.bias.map(|b| b[c]);
            let istd = bn::running_istd(ops.var[c], eps);
            for v in drow.iter_mut() {
                *v = epilogue(*v, bias, ops.gamma[c], ops.beta[c], ops.mean[c], istd);
            }
        });
        return total;
    }
    let bias = ops.bias.map(MemView::new);
    let g = MemView::new(ops.gamma);
    let bt = MemView::new(ops.beta);
    let m = MemView::new(ops.mean);
    let v = MemView::new(ops.var);
    let y = MemViewMut::new(ops.output);
    let rows = shape.batch * channels;
    let epi = cg.run_planned(&epilogue_plan(channels, spatial), move |cpe| {
        let bias_buf = bias.map(|bv| {
            let mut buf = cpe.ldm.alloc_f32(channels);
            cpe.dma_get(bv, 0, &mut buf);
            buf
        });
        let mut gbuf = cpe.ldm.alloc_f32(channels);
        let mut bbuf = cpe.ldm.alloc_f32(channels);
        let mut mbuf = cpe.ldm.alloc_f32(channels);
        let mut vbuf = cpe.ldm.alloc_f32(channels);
        cpe.dma_get(g, 0, &mut gbuf);
        cpe.dma_get(bt, 0, &mut bbuf);
        cpe.dma_get(m, 0, &mut mbuf);
        cpe.dma_get(v, 0, &mut vbuf);
        let row_chunk = CHUNK.min(spatial.max(1));
        let mut buf = cpe.ldm.alloc_f32(row_chunk);
        let mut row = cpe.idx();
        while row < rows {
            let c = row % channels;
            let bias = bias_buf.as_ref().map(|b| b[c]);
            let istd = bn::running_istd(vbuf[c], eps);
            let mut off = 0;
            while off < spatial {
                let n = row_chunk.min(spatial - off);
                cpe.dma_get(y.as_view(), row * spatial + off, &mut buf[..n]);
                cpe.compute(5 * n as u64, || {
                    for val in buf[..n].iter_mut() {
                        *val = epilogue(*val, bias, gbuf[c], bbuf[c], mbuf[c], istd);
                    }
                });
                cpe.dma_put(y, row * spatial + off, &buf[..n]);
                off += n;
            }
            row += 64;
        }
    });
    total.merge(&epi);
    total
}

/// The epilogue of one conv output element, the arithmetic both backends
/// run. Same rounding points as the unfused sequence: f32 bias add (none
/// at all without a bias: `-0.0 + 0.0` is not `-0.0`), f64 BN transform
/// rounded to f32, then the ReLU max on the rounded value.
pub(crate) fn epilogue(
    v: f32,
    bias: Option<f32>,
    gamma: f32,
    beta: f32,
    mean: f32,
    istd: f64,
) -> f32 {
    let t = match bias {
        Some(b) => v + b,
        None => v,
    };
    relu(bn::infer(t, gamma, beta, mean, istd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementwise as ew;
    use crate::elementwise::stream_time;
    use sw26010::ExecMode;

    fn small_shape() -> ConvShape {
        ConvShape {
            batch: 2,
            in_c: 3,
            in_h: 6,
            in_w: 6,
            out_c: 4,
            k: 3,
            stride: 1,
            pad: 1,
        }
    }

    fn values(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed);
                ((x >> 33) % 2000) as f32 / 500.0 - 2.0
            })
            .collect()
    }

    /// The epilogue's raison d'être: fused time is strictly below the
    /// unfused bias + BN-inference + ReLU sum for every relevant shape.
    #[test]
    fn fused_time_beats_unfused_sum() {
        for shape in [
            small_shape(),
            ConvShape {
                batch: 4,
                in_c: 64,
                in_h: 28,
                in_w: 28,
                out_c: 128,
                k: 3,
                stride: 1,
                pad: 1,
            },
        ] {
            let spatial = shape.out_h() * shape.out_w();
            let len = shape.batch * shape.out_c * spatial;
            let mut cg = CoreGroup::new(ExecMode::TimingOnly);
            let unfused = conv_explicit::forward(&mut cg, &shape, None).elapsed
                + ew::bias_forward(&mut cg, shape.batch, shape.out_c, spatial, None).elapsed
                + bn::forward_inference(&mut cg, shape.batch, shape.out_c, spatial, 1e-5, None)
                    .elapsed
                + ew::relu_forward(&mut cg, len, None).elapsed;
            let fused = forward_time(&shape);
            assert!(
                fused.seconds() < unfused.seconds(),
                "fused {} !< unfused {} for {shape:?}",
                fused.seconds(),
                unfused.seconds()
            );
        }
    }

    #[test]
    fn timing_mode_charges_the_model() {
        let shape = small_shape();
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let r = forward(&mut cg, &shape, 1e-5, None);
        assert_eq!(r.elapsed, forward_time(&shape));
        assert_eq!(cg.elapsed(), forward_time(&shape));
    }

    #[test]
    fn epilogue_time_is_one_round_trip() {
        // Structure check: one fused pass beats the three separate
        // epilogue kernels (bias, BN inference, ReLU) it replaces.
        let (b, c, s) = (4, 32, 28 * 28);
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let separate = ew::bias_forward(&mut cg, b, c, s, None).elapsed.seconds()
            + bn::forward_inference(&mut cg, b, c, s, 1e-5, None)
                .elapsed
                .seconds()
            + stream_time(b * c * s, 1, 1, 1).seconds();
        assert!(epilogue_time(b, c, s).seconds() < separate);
    }

    /// Both functional backends against an independent f64 oracle: the
    /// scalar reference convolution, then bias, BN with running statistics
    /// and ReLU straight from their definitions (shares no code with the
    /// epilogue, unlike the unfused kernel sequence).
    #[test]
    fn epilogue_matches_f64_oracle() {
        let shape = small_shape();
        let spatial = shape.out_h() * shape.out_w();
        let len = shape.batch * shape.out_c * spatial;
        let input = values(shape.input_len(), 1);
        let weights = values(shape.weight_len(), 2);
        let bias = values(shape.out_c, 3);
        let gamma = values(shape.out_c, 4);
        let beta = values(shape.out_c, 5);
        let mean = values(shape.out_c, 6);
        let var: Vec<f32> = values(shape.out_c, 7).iter().map(|v| v * v + 0.1).collect();
        let eps = 1e-5f32;
        let mut conv = vec![0.0f32; len];
        crate::reference::conv_forward(&shape, &input, &weights, &mut conv);
        for mode in crate::FUNCTIONAL_MODES {
            for with_bias in [false, true] {
                let mut got = vec![f32::NAN; len];
                let ops = ConvBnReluOperands {
                    input: &input,
                    weights: &weights,
                    bias: with_bias.then_some(bias.as_slice()),
                    gamma: &gamma,
                    beta: &beta,
                    mean: &mean,
                    var: &var,
                    output: &mut got,
                };
                forward(&mut CoreGroup::new(mode), &shape, eps, Some(ops));
                for (i, g) in got.iter().enumerate() {
                    let c = (i / spatial) % shape.out_c;
                    let t = conv[i] as f64 + if with_bias { bias[c] as f64 } else { 0.0 };
                    let bn = gamma[c] as f64 * (t - mean[c] as f64)
                        / (var[c] as f64 + eps as f64).sqrt()
                        + beta[c] as f64;
                    let want = bn.max(0.0);
                    assert!(
                        (*g as f64 - want).abs() < 1e-4,
                        "{mode:?} bias={with_bias} elem {i}: {g} vs {want}"
                    );
                }
            }
        }
    }

    /// Functional mesh agreement against the unfused kernel sequence,
    /// with and without the conv bias.
    #[test]
    fn mesh_matches_unfused_sequence_bitwise() {
        let shape = small_shape();
        let spatial = shape.out_h() * shape.out_w();
        let len = shape.batch * shape.out_c * spatial;
        let input = values(shape.input_len(), 1);
        let weights = values(shape.weight_len(), 2);
        let bias = values(shape.out_c, 3);
        let gamma = values(shape.out_c, 4);
        let beta = values(shape.out_c, 5);
        let mean = values(shape.out_c, 6);
        let var: Vec<f32> = values(shape.out_c, 7).iter().map(|v| v * v + 0.1).collect();
        let eps = 1e-5;
        for with_bias in [false, true] {
            // Unfused reference: conv -> (bias) -> bn inference -> relu.
            let mut cg = CoreGroup::new(ExecMode::Functional);
            let mut conv_out = vec![0.0f32; len];
            conv_explicit::forward(
                &mut cg,
                &shape,
                Some(crate::conv_explicit::ConvFwdOperands {
                    input: &input,
                    weights: &weights,
                    output: &mut conv_out,
                }),
            );
            if with_bias {
                ew::bias_forward(
                    &mut cg,
                    shape.batch,
                    shape.out_c,
                    spatial,
                    Some((&bias, &mut conv_out)),
                );
            }
            let mut bn_out = vec![0.0f32; len];
            bn::forward_inference(
                &mut cg,
                shape.batch,
                shape.out_c,
                spatial,
                eps,
                Some((&conv_out, &gamma, &beta, &mean, &var, &mut bn_out)),
            );
            let mut want = vec![0.0f32; len];
            ew::relu_forward(&mut cg, len, Some((&bn_out, &mut want)));

            let mut cg2 = CoreGroup::new(ExecMode::Functional);
            let mut got = vec![0.0f32; len];
            forward(
                &mut cg2,
                &shape,
                eps,
                Some(ConvBnReluOperands {
                    input: &input,
                    weights: &weights,
                    bias: with_bias.then_some(bias.as_slice()),
                    gamma: &gamma,
                    beta: &beta,
                    mean: &mean,
                    var: &var,
                    output: &mut got,
                }),
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "bias={with_bias} elem {i}: fused {g} vs unfused {w}"
                );
            }
        }
    }
}

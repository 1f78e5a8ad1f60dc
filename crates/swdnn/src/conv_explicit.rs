//! Explicit-GEMM convolution: im2col -> GEMM -> col2im (Sec. IV-B-1).
//!
//! This is the plan inherited from original Caffe, re-hosted on the CPE
//! cluster: the lowering runs as the Fig. 4 DMA kernels and the matrix
//! product as the register-communication GEMM. It is the only plan that
//! handles arbitrary channel counts (the first layers of every network),
//! at the price of materialising the `(K*K*N_i) x (R_o*C_o)` column matrix
//! in main memory once per image and direction.

use sw26010::{CoreGroup, ExecMode, LaunchReport, SimTime};

use crate::gemm::{self, GemmOperands};
use crate::im2col::{self, Col2imOperands, Im2colOperands};
use crate::scheme::TilingScheme;
use crate::shapes::{ConvShape, GemmDims, Trans};

/// The GEMM tiling schemes of the three explicit-plan passes. Each pass
/// runs one GEMM per image; the scheme parameterises it so the tuner can
/// search per-layer, with [`ExplicitSchemes::hand`] as the default point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplicitSchemes {
    pub forward: TilingScheme,
    pub backward_weights: TilingScheme,
    pub backward_input: TilingScheme,
}

impl ExplicitSchemes {
    /// The hand-picked schemes every caller got before the tuner.
    pub fn hand(shape: &ConvShape) -> ExplicitSchemes {
        ExplicitSchemes {
            forward: TilingScheme::hand(fwd_gemm_dims(shape)),
            backward_weights: TilingScheme::hand(bwd_weights_gemm_dims(shape)),
            backward_input: TilingScheme::hand(bwd_input_gemm_dims(shape)),
        }
    }
}

/// Functional operands of a forward convolution, all NCHW row-major:
/// input `(B, N_i, R_i, C_i)`, weights `(N_o, N_i, K, K)`,
/// output `(B, N_o, R_o, C_o)`.
pub struct ConvFwdOperands<'a> {
    pub input: &'a [f32],
    pub weights: &'a [f32],
    pub output: &'a mut [f32],
}

/// Functional operands of a backward convolution. Either gradient target
/// may be omitted (e.g. the first layer never needs `in_grad`).
pub struct ConvBwdOperands<'a> {
    pub input: &'a [f32],
    pub weights: &'a [f32],
    pub out_grad: &'a [f32],
    pub in_grad: Option<&'a mut [f32]>,
    /// Overwritten (not accumulated) — the batch loop accumulates
    /// internally via the GEMM's beta.
    pub w_grad: Option<&'a mut [f32]>,
}

/// Dims of the forward GEMM (`W x cols`), exposed so the tuner can key
/// its GEMM search on the exact per-pass problem.
pub fn fwd_gemm_dims(shape: &ConvShape) -> GemmDims {
    GemmDims::new(shape.out_c, shape.col_cols(), shape.col_rows())
}

/// Dims of the weight-gradient GEMM (`dY x cols^T`).
pub fn bwd_weights_gemm_dims(shape: &ConvShape) -> GemmDims {
    GemmDims::new(shape.out_c, shape.col_rows(), shape.col_cols())
}

/// Dims of the input-gradient GEMM (`W^T x dY`).
pub fn bwd_input_gemm_dims(shape: &ConvShape) -> GemmDims {
    GemmDims::new(shape.col_rows(), shape.col_cols(), shape.out_c)
}

/// Forward convolution with the explicit plan and hand-picked blocking.
pub fn forward(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    ops: Option<ConvFwdOperands<'_>>,
) -> LaunchReport {
    forward_with_scheme(cg, shape, TilingScheme::hand(fwd_gemm_dims(shape)), ops)
}

/// Forward convolution with an explicit GEMM tiling scheme (the tuner's
/// entry point; the scheme only steers the per-image GEMM).
pub fn forward_with_scheme(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    scheme: TilingScheme,
    ops: Option<ConvFwdOperands<'_>>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, forward_time_with_scheme(shape, scheme));
    }
    let ops = ops.expect("functional conv requires operands");
    assert_eq!(ops.input.len(), shape.input_len());
    assert_eq!(ops.weights.len(), shape.weight_len());
    assert_eq!(ops.output.len(), shape.output_len());
    if let ExecMode::HostNative { .. } = cg.mode() {
        im2col::guard_shape(shape);
        gemm::check_scheme(scheme);
        let (ws, workers) = cg.workspace_and_workers();
        crate::host::conv_explicit_forward(ws, workers, shape, ops.input, ops.weights, ops.output);
        return LaunchReport::default();
    }
    let per_in = shape.in_c * shape.in_h * shape.in_w;
    let per_out = shape.out_c * shape.out_h() * shape.out_w();
    // The column matrix is the core group's: im2col overwrites all of it.
    let mut held = std::mem::take(&mut cg.workspace().cols);
    let cols = crate::host::staged(&mut held, shape.col_rows() * shape.col_cols());
    let mut total = LaunchReport::default();
    for b in 0..shape.batch {
        total.merge(&im2col::im2col(
            cg,
            shape,
            Some(Im2colOperands {
                image: &ops.input[b * per_in..][..per_in],
                cols,
            }),
        ));
        total.merge(&gemm::gemm_with_scheme(
            cg,
            fwd_gemm_dims(shape),
            Trans::No,
            Trans::No,
            0.0,
            scheme,
            Some(GemmOperands {
                a: ops.weights,
                b: cols,
                c: &mut ops.output[b * per_out..][..per_out],
            }),
        ));
    }
    cg.workspace().cols = held;
    total
}

/// Backward convolution with the explicit plan and hand-picked blocking.
pub fn backward(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    ops: Option<ConvBwdOperands<'_>>,
) -> LaunchReport {
    let hand = ExplicitSchemes::hand(shape);
    backward_with_schemes(cg, shape, hand, ops)
}

/// Backward convolution with explicit per-pass GEMM tiling schemes.
pub fn backward_with_schemes(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    schemes: ExplicitSchemes,
    ops: Option<ConvBwdOperands<'_>>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        // Timing mode has no operand optionality information; charge the
        // full backward (both gradients), the common case during training.
        return crate::charge_model(
            cg,
            backward_weights_time_with_scheme(shape, schemes.backward_weights)
                + backward_input_time_with_scheme(shape, schemes.backward_input),
        );
    }
    let mut ops = ops.expect("functional conv requires operands");
    if let Some(w_grad) = &ops.w_grad {
        assert_eq!(w_grad.len(), shape.weight_len());
    }
    if let Some(in_grad) = &ops.in_grad {
        assert_eq!(in_grad.len(), shape.input_len());
    }
    if let ExecMode::HostNative { .. } = cg.mode() {
        // The rejections the per-image kernels make on the mesh path.
        im2col::guard_shape(shape);
        gemm::check_scheme(schemes.backward_weights);
        gemm::check_scheme(schemes.backward_input);
        let (ws, workers) = cg.workspace_and_workers();
        crate::host::conv_explicit_backward(
            ws,
            workers,
            shape,
            ops.input,
            ops.weights,
            ops.out_grad,
            ops.in_grad,
            ops.w_grad,
        );
        return LaunchReport::default();
    }
    let per_in = shape.in_c * shape.in_h * shape.in_w;
    let per_out = shape.out_c * shape.out_h() * shape.out_w();
    // The column matrix is the core group's: each pass overwrites all of
    // it (im2col, or the beta-0 GEMM) before reading it.
    let mut held = std::mem::take(&mut cg.workspace().cols);
    let cols = crate::host::staged(&mut held, shape.col_rows() * shape.col_cols());
    let mut total = LaunchReport::default();

    if let Some(w_grad) = ops.w_grad.as_deref_mut() {
        for b in 0..shape.batch {
            total.merge(&im2col::im2col(
                cg,
                shape,
                Some(Im2colOperands {
                    image: &ops.input[b * per_in..][..per_in],
                    cols,
                }),
            ));
            // dW (No x KKNi) += dY_b (No x CoRo) * cols_b^T.
            total.merge(&gemm::gemm_with_scheme(
                cg,
                bwd_weights_gemm_dims(shape),
                Trans::No,
                Trans::Yes,
                if b == 0 { 0.0 } else { 1.0 },
                schemes.backward_weights,
                Some(GemmOperands {
                    a: &ops.out_grad[b * per_out..][..per_out],
                    b: cols,
                    c: w_grad,
                }),
            ));
        }
    }

    if let Some(in_grad) = ops.in_grad.as_deref_mut() {
        for b in 0..shape.batch {
            // dCols (KKNi x CoRo) = W^T * dY_b, then col2im.
            total.merge(&gemm::gemm_with_scheme(
                cg,
                bwd_input_gemm_dims(shape),
                Trans::Yes,
                Trans::No,
                0.0,
                schemes.backward_input,
                Some(GemmOperands {
                    a: ops.weights,
                    b: &ops.out_grad[b * per_out..][..per_out],
                    c: cols,
                }),
            ));
            total.merge(&im2col::col2im(
                cg,
                shape,
                Some(Col2imOperands {
                    cols,
                    image: &mut in_grad[b * per_in..][..per_in],
                }),
            ));
        }
    }
    cg.workspace().cols = held;
    total
}

/// Duration of the explicit forward pass for the whole batch.
pub fn forward_time(shape: &ConvShape) -> SimTime {
    forward_time_with_scheme(shape, TilingScheme::hand(fwd_gemm_dims(shape)))
}

/// [`forward_time`] under an explicit GEMM scheme — the tuner's cost
/// model for the explicit plan.
pub fn forward_time_with_scheme(shape: &ConvShape, scheme: TilingScheme) -> SimTime {
    let dims = fwd_gemm_dims(shape);
    let per_image =
        im2col::time_model_im2col(shape).seconds() + scheme.time_model(dims, 0.0).seconds();
    SimTime::from_seconds(shape.batch as f64 * per_image)
}

/// Duration of the explicit weight-gradient pass for the whole batch.
pub fn backward_weights_time(shape: &ConvShape) -> SimTime {
    backward_weights_time_with_scheme(shape, TilingScheme::hand(bwd_weights_gemm_dims(shape)))
}

/// [`backward_weights_time`] under an explicit GEMM scheme.
pub fn backward_weights_time_with_scheme(shape: &ConvShape, scheme: TilingScheme) -> SimTime {
    let dims = bwd_weights_gemm_dims(shape);
    let per_image =
        im2col::time_model_im2col(shape).seconds() + scheme.time_model(dims, 1.0).seconds();
    SimTime::from_seconds(shape.batch as f64 * per_image)
}

/// Duration of the explicit input-gradient pass for the whole batch.
pub fn backward_input_time(shape: &ConvShape) -> SimTime {
    backward_input_time_with_scheme(shape, TilingScheme::hand(bwd_input_gemm_dims(shape)))
}

/// [`backward_input_time`] under an explicit GEMM scheme.
pub fn backward_input_time_with_scheme(shape: &ConvShape, scheme: TilingScheme) -> SimTime {
    let dims = bwd_input_gemm_dims(shape);
    let per_image =
        scheme.time_model(dims, 0.0).seconds() + im2col::time_model_col2im(shape).seconds();
    SimTime::from_seconds(shape.batch as f64 * per_image)
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
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(seed);
                ((x >> 40) % 200) as f32 / 100.0 - 1.0
            })
            .collect()
    }

    fn check_shape(shape: ConvShape) {
        shape.validate().unwrap();
        let input = pattern(shape.input_len(), 11);
        let weights = pattern(shape.weight_len(), 22);
        let out_grad = pattern(shape.output_len(), 33);
        let mut want_out = vec![0.0; shape.output_len()];
        reference::conv_forward(&shape, &input, &weights, &mut want_out);
        let mut want_ig = vec![0.0; shape.input_len()];
        let mut want_wg = vec![0.0; shape.weight_len()];
        reference::conv_backward(
            &shape,
            &input,
            &weights,
            &out_grad,
            &mut want_ig,
            &mut want_wg,
        );

        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut got_out = vec![0.0; shape.output_len()];
            forward(
                &mut cg,
                &shape,
                Some(ConvFwdOperands {
                    input: &input,
                    weights: &weights,
                    output: &mut got_out,
                }),
            );
            for (i, (g, w)) in got_out.iter().zip(&want_out).enumerate() {
                assert!(
                    (g - w).abs() < 1e-3 * w.abs().max(1.0),
                    "{mode:?} fwd {shape:?} elem {i}: {g} vs {w}"
                );
            }

            let mut got_ig = vec![0.0; shape.input_len()];
            let mut got_wg = vec![0.0; shape.weight_len()];
            backward(
                &mut cg,
                &shape,
                Some(ConvBwdOperands {
                    input: &input,
                    weights: &weights,
                    out_grad: &out_grad,
                    in_grad: Some(&mut got_ig),
                    w_grad: Some(&mut got_wg),
                }),
            );
            for (i, (g, w)) in got_wg.iter().zip(&want_wg).enumerate() {
                assert!(
                    (g - w).abs() < 1e-2 * w.abs().max(1.0),
                    "{mode:?} w_grad {shape:?} elem {i}: {g} vs {w}"
                );
            }
            for (i, (g, w)) in got_ig.iter().zip(&want_ig).enumerate() {
                assert!(
                    (g - w).abs() < 1e-2 * w.abs().max(1.0),
                    "{mode:?} in_grad {shape:?} elem {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn padded_stride1() {
        check_shape(ConvShape {
            batch: 2,
            in_c: 3,
            in_h: 8,
            in_w: 8,
            out_c: 5,
            k: 3,
            stride: 1,
            pad: 1,
        });
    }

    #[test]
    fn strided_unpadded() {
        check_shape(ConvShape {
            batch: 2,
            in_c: 2,
            in_h: 11,
            in_w: 11,
            out_c: 4,
            k: 3,
            stride: 2,
            pad: 0,
        });
    }

    #[test]
    fn kernel_5_stride_3() {
        check_shape(ConvShape {
            batch: 1,
            in_c: 2,
            in_h: 13,
            in_w: 13,
            out_c: 3,
            k: 5,
            stride: 3,
            pad: 2,
        });
    }

    #[test]
    fn one_by_one_conv() {
        check_shape(ConvShape {
            batch: 2,
            in_c: 6,
            in_h: 5,
            in_w: 5,
            out_c: 4,
            k: 1,
            stride: 1,
            pad: 0,
        });
    }

    #[test]
    fn timing_mode_charges_models() {
        let shape = ConvShape {
            batch: 4,
            in_c: 64,
            in_h: 56,
            in_w: 56,
            out_c: 128,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let f = forward(&mut cg, &shape, None);
        assert_eq!(f.elapsed, forward_time(&shape));
        let b = backward(&mut cg, &shape, None);
        assert_eq!(
            b.elapsed,
            backward_weights_time(&shape) + backward_input_time(&shape)
        );
        assert!((cg.elapsed().seconds() - (f.elapsed + b.elapsed).seconds()).abs() < 1e-12);
    }

    #[test]
    fn early_layers_pay_more_for_im2col() {
        // Paper Sec. VI-A: im2col/col2im account for most of the time in
        // the first layers (large images, few channels) and little in the
        // deep layers. Compare the im2col share of conv1_1 vs conv4_1.
        let conv1_1 = ConvShape {
            batch: 1,
            in_c: 3,
            in_h: 224,
            in_w: 224,
            out_c: 64,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let conv4_1 = ConvShape {
            batch: 1,
            in_c: 256,
            in_h: 28,
            in_w: 28,
            out_c: 512,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let share =
            |s: &ConvShape| im2col::time_model_im2col(s).seconds() / forward_time(s).seconds();
        let early = share(&conv1_1);
        let deep = share(&conv4_1);
        assert!(
            early > 2.0 * deep,
            "early share {early:.3} should dwarf deep share {deep:.3}"
        );
        // And conv1_1's effective rate must be far below peak (the paper
        // reports single-digit Gflops there vs ~740 peak).
        let dims = fwd_gemm_dims(&conv1_1);
        let flops = 2.0 * dims.m as f64 * dims.n as f64 * dims.k as f64;
        let gflops = flops / forward_time(&conv1_1).seconds() / 1e9;
        assert!(
            gflops < 120.0,
            "conv1_1 at {gflops:.0} Gflops is implausibly fast"
        );
    }
}

//! The dynamic sanitizer suite: drive the whole swdnn kernel zoo
//! functionally on a recording core group, then replay the traces
//! through the happens-before checker.
//!
//! The driver is deliberately reusable with a *non*-recording core
//! group so the `swcheck` binary can measure sanitizer overhead by
//! running the identical workload twice.

use sw26010::{CoreGroup, ExecMode, KernelTrace};
use swdnn::shapes::PoolMethod;
use swdnn::transform::TransShape;
use swdnn::{
    bn, conv_explicit, conv_implicit, elementwise, gemm, im2col, lrn, pool, softmax, transform,
    Broadcast, Buffering, ConvShape, GemmDims, PoolShape, TilingScheme, Trans,
};

use crate::sanitize::{check_traces, Violation};

/// What one sanitizer-suite run observed.
#[derive(Debug, Default)]
pub struct SuiteOutcome {
    /// Distinct kernel names traced, in first-launch order.
    pub kernels: Vec<String>,
    /// Total traced launches.
    pub launches: usize,
    /// Total recorded events across all CPEs of all launches.
    pub events: usize,
    pub violations: Vec<Violation>,
}

impl SuiteOutcome {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Deterministic fill in roughly `[-1, 1)` (splitmix64-derived, no
/// external randomness so traced and untraced runs see identical data).
pub fn fill(seed: u64, buf: &mut [f32]) {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    for v in buf.iter_mut() {
        let mut z = state;
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        *v = ((z >> 40) as f32) / ((1u64 << 23) as f32) - 1.0;
    }
}

fn vec_filled(seed: u64, len: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    fill(seed, &mut v);
    v
}

/// The three variants of the one GEMM body: the hand scheme, the same
/// tile with prefetched loads, and with DMA-replicated strips.
pub fn gemm_variants(dims: GemmDims) -> [TilingScheme; 3] {
    let hand = TilingScheme::hand(dims);
    [
        hand,
        TilingScheme {
            buffering: Buffering::Double,
            ..hand
        },
        TilingScheme {
            broadcast: Broadcast::DmaReplicate,
            ..hand
        },
    ]
}

fn drive_gemm(cg: &mut CoreGroup) {
    let dims = GemmDims::new(40, 36, 24);
    let a = vec_filled(1, dims.m * dims.k);
    let b = vec_filled(2, dims.k * dims.n);
    for scheme in gemm_variants(dims) {
        let mut c = vec_filled(3, dims.m * dims.n);
        gemm::gemm_with_scheme(
            cg,
            dims,
            Trans::No,
            Trans::No,
            0.5,
            scheme,
            Some(gemm::GemmOperands {
                a: &a,
                b: &b,
                c: &mut c,
            }),
        );
    }
}

fn drive_conv_explicit(cg: &mut CoreGroup) {
    let shape = ConvShape {
        batch: 2,
        in_c: 3,
        in_h: 8,
        in_w: 8,
        out_c: 8,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let input = vec_filled(10, shape.input_len());
    let weights = vec_filled(11, shape.weight_len());
    let mut output = vec![0.0f32; shape.output_len()];
    conv_explicit::forward(
        cg,
        &shape,
        Some(conv_explicit::ConvFwdOperands {
            input: &input,
            weights: &weights,
            output: &mut output,
        }),
    );
    let out_grad = vec_filled(12, shape.output_len());
    let mut in_grad = vec![0.0f32; shape.input_len()];
    let mut w_grad = vec![0.0f32; shape.weight_len()];
    conv_explicit::backward(
        cg,
        &shape,
        Some(conv_explicit::ConvBwdOperands {
            input: &input,
            weights: &weights,
            out_grad: &out_grad,
            in_grad: Some(&mut in_grad),
            w_grad: Some(&mut w_grad),
        }),
    );
    // The explicit path's building blocks, standalone (one image).
    let image = vec_filled(13, shape.in_c * shape.in_h * shape.in_w);
    let mut cols = vec![0.0f32; shape.col_rows() * shape.col_cols()];
    im2col::im2col(
        cg,
        &shape,
        Some(im2col::Im2colOperands {
            image: &image,
            cols: &mut cols,
        }),
    );
    let mut image_grad = vec![0.0f32; image.len()];
    im2col::col2im(
        cg,
        &shape,
        Some(im2col::Col2imOperands {
            cols: &cols,
            image: &mut image_grad,
        }),
    );
}

fn drive_conv_implicit(cg: &mut CoreGroup) {
    // The implicit path only engages from 128 channels on each side.
    let shape = ConvShape {
        batch: 4,
        in_c: 128,
        in_h: 6,
        in_w: 6,
        out_c: 128,
        k: 3,
        stride: 1,
        pad: 1,
    };
    assert!(conv_implicit::supports_forward(&shape));
    assert!(conv_implicit::supports_backward(&shape));
    let input = vec_filled(20, shape.input_len());
    let weights = vec_filled(21, shape.weight_len());
    let mut output = vec![0.0f32; shape.output_len()];
    conv_implicit::forward(
        cg,
        &shape,
        Some(conv_implicit::ImplicitFwdOperands {
            input: &input,
            weights: &weights,
            output: &mut output,
        }),
    );
    let out_grad = vec_filled(22, shape.output_len());
    let mut in_grad = vec![0.0f32; shape.input_len()];
    let mut w_grad = vec![0.0f32; shape.weight_len()];
    conv_implicit::backward(
        cg,
        &shape,
        Some(conv_implicit::ImplicitBwdOperands {
            input: &input,
            weights: &weights,
            out_grad: &out_grad,
            in_grad: Some(&mut in_grad),
            w_grad: Some(&mut w_grad),
        }),
    );
}

fn drive_pool(cg: &mut CoreGroup) {
    for method in [PoolMethod::Max, PoolMethod::Average] {
        let shape = PoolShape {
            batch: 2,
            channels: 3,
            in_h: 8,
            in_w: 8,
            k: 2,
            stride: 2,
            pad: 0,
            method,
        };
        let input = vec_filled(30, shape.input_len());
        let mut output = vec![0.0f32; shape.output_len()];
        let mut argmax = vec![0.0f32; shape.output_len()];
        let is_max = matches!(method, PoolMethod::Max);
        pool::forward(
            cg,
            &shape,
            Some(pool::PoolFwdOperands {
                input: &input,
                output: &mut output,
                argmax: is_max.then_some(&mut argmax[..]),
            }),
        );
        let out_grad = vec_filled(31, shape.output_len());
        let mut in_grad = vec![0.0f32; shape.input_len()];
        pool::backward(
            cg,
            &shape,
            Some(pool::PoolBwdOperands {
                out_grad: &out_grad,
                argmax: is_max.then_some(&argmax[..]),
                in_grad: &mut in_grad,
            }),
        );
    }
}

fn drive_lrn(cg: &mut CoreGroup) {
    let (batch, channels, h, w) = (2, 8, 6, 6);
    let len = batch * channels * h * w;
    let x = vec_filled(40, len);
    let mut y = vec![0.0f32; len];
    let p = lrn::LrnParams::default();
    lrn::forward(cg, batch, channels, h, w, p, Some((&x, &mut y)));
    let dy = vec_filled(41, len);
    let mut dx = vec![0.0f32; len];
    lrn::backward(cg, batch, channels, h, w, p, Some((&x, &dy, &mut dx)));
}

fn drive_bn(cg: &mut CoreGroup) {
    let (batch, channels, spatial) = (2, 4, 16);
    let len = batch * channels * spatial;
    let input = vec_filled(50, len);
    let gamma = vec_filled(51, channels);
    let beta = vec_filled(52, channels);
    let mut output = vec![0.0f32; len];
    let mut save_mean = vec![0.0f32; channels];
    let mut save_istd = vec![0.0f32; channels];
    bn::forward(
        cg,
        batch,
        channels,
        spatial,
        1e-5,
        Some(bn::BnFwdOperands {
            input: &input,
            gamma: &gamma,
            beta: &beta,
            output: &mut output,
            save_mean: &mut save_mean,
            save_istd: &mut save_istd,
        }),
    );
    let out_grad = vec_filled(53, len);
    let mut in_grad = vec![0.0f32; len];
    let mut gamma_grad = vec![0.0f32; channels];
    let mut beta_grad = vec![0.0f32; channels];
    bn::backward(
        cg,
        batch,
        channels,
        spatial,
        Some(bn::BnBwdOperands {
            input: &input,
            gamma: &gamma,
            out_grad: &out_grad,
            save_mean: &save_mean,
            save_istd: &save_istd,
            in_grad: &mut in_grad,
            gamma_grad: &mut gamma_grad,
            beta_grad: &mut beta_grad,
        }),
    );
    let var: Vec<f32> = save_istd.iter().map(|s| 1.0 / (s * s) - 1e-5).collect();
    let mut inf_out = vec![0.0f32; len];
    bn::forward_inference(
        cg,
        batch,
        channels,
        spatial,
        1e-5,
        Some((
            &input[..],
            &gamma[..],
            &beta[..],
            &save_mean[..],
            &var[..],
            &mut inf_out[..],
        )),
    );
}

fn drive_softmax(cg: &mut CoreGroup) {
    let (batch, classes) = (8, 10);
    let logits = vec_filled(60, batch * classes);
    let labels: Vec<f32> = (0..batch).map(|i| (i % classes) as f32).collect();
    let mut probs = vec![0.0f32; batch * classes];
    let mut losses = vec![0.0f32; batch];
    softmax::forward(
        cg,
        batch,
        classes,
        Some(softmax::SoftmaxFwdOperands {
            logits: &logits,
            labels: &labels,
            probs: &mut probs,
            losses: &mut losses,
        }),
    );
    let mut in_grad = vec![0.0f32; batch * classes];
    softmax::backward(
        cg,
        batch,
        classes,
        1.0 / batch as f32,
        Some(softmax::SoftmaxBwdOperands {
            probs: &probs,
            labels: &labels,
            in_grad: &mut in_grad,
        }),
    );
}

fn drive_transform(cg: &mut CoreGroup) {
    let shape = TransShape {
        batch: 4,
        channels: 3,
        height: 4,
        width: 5,
    };
    let x = vec_filled(70, shape.len());
    let mut rcnb = vec![0.0f32; shape.len()];
    transform::nchw_to_rcnb(cg, &shape, Some((&x, &mut rcnb)));
    let mut back = vec![0.0f32; shape.len()];
    transform::rcnb_to_nchw(cg, &shape, Some((&rcnb, &mut back)));
}

fn drive_elementwise(cg: &mut CoreGroup) {
    let len = 2000;
    let x = vec_filled(80, len);
    let dy = vec_filled(81, len);
    let mut y = vec![0.0f32; len];
    elementwise::relu_forward(cg, len, Some((&x, &mut y)));
    let mut dx = vec![0.0f32; len];
    elementwise::relu_backward(cg, len, Some((&dy, &x, &mut dx)));
    let mut sum = vec![0.0f32; len];
    elementwise::add(cg, len, Some((&x, &dy, &mut sum)));
    let mask = vec_filled(82, len);
    let mut masked = vec![0.0f32; len];
    elementwise::apply_mask(cg, len, Some((&x, &mask, &mut masked)));
    let mut acc = vec_filled(83, len);
    elementwise::axpy(cg, len, 0.5, Some((&x, &mut acc)));

    let (batch, channels, spatial) = (2, 3, 20);
    let bias = vec_filled(84, channels);
    let mut data = vec_filled(85, batch * channels * spatial);
    elementwise::bias_forward(cg, batch, channels, spatial, Some((&bias, &mut data)));
    let mut db = vec![0.0f32; channels];
    elementwise::bias_backward(cg, batch, channels, spatial, Some((&data, &mut db)));

    let (rows, row_len) = (5, 33);
    let rbias = vec_filled(86, row_len);
    let mut rdata = vec_filled(87, rows * row_len);
    elementwise::bias_rows(cg, rows, row_len, Some((&rbias, &mut rdata)));

    // Crosses the 64-column chunk boundary so two CPEs own chunks.
    let (srows, scols) = (7, 130);
    let m = vec_filled(88, srows * scols);
    let mut colsum = vec![0.0f32; scols];
    elementwise::col_sums(cg, srows, scols, Some((&m, &mut colsum)));

    let (block_len, nblocks) = (10, 6);
    let src = vec_filled(89, nblocks * 12);
    let mut dst = vec![0.0f32; nblocks * 15];
    elementwise::copy_blocks(cg, block_len, nblocks, Some((&src, 0, 12, &mut dst, 2, 15)));

    let mut scaled = vec_filled(90, len);
    elementwise::scale(cg, len, 0.25, Some(&mut scaled));
    elementwise::sumsq(cg, len, Some(&x));
}

/// Run the whole swdnn kernel zoo functionally on `cg`. Identical work
/// regardless of the core group's [`CheckMode`](sw26010::CheckMode), so
/// checked and unchecked runs are directly comparable.
pub fn drive_kernel_zoo(cg: &mut CoreGroup) {
    drive_gemm(cg);
    drive_conv_explicit(cg);
    drive_conv_implicit(cg);
    drive_pool(cg);
    drive_lrn(cg);
    drive_bn(cg);
    drive_softmax(cg);
    drive_transform(cg);
    drive_elementwise(cg);
}

/// Fold a batch of traces into a [`SuiteOutcome`] via the checker.
pub fn summarize(traces: &[KernelTrace]) -> SuiteOutcome {
    let mut kernels: Vec<String> = Vec::new();
    for t in traces {
        if !kernels.contains(&t.name) {
            kernels.push(t.name.clone());
        }
    }
    SuiteOutcome {
        kernels,
        launches: traces.len(),
        events: traces
            .iter()
            .flat_map(|t| &t.per_cpe)
            .map(|c| c.events.len())
            .sum(),
        violations: check_traces(traces),
    }
}

/// Drive the zoo on a recording core group and check every trace.
pub fn run_suite() -> SuiteOutcome {
    let mut cg = CoreGroup::new_checked(ExecMode::Functional);
    assert!(cg.check_mode().is_on());
    drive_kernel_zoo(&mut cg);
    let traces = cg.take_traces();
    summarize(&traces)
}

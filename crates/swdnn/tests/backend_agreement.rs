//! Bitwise agreement between the Sw26010 functional backend (mesh
//! simulation) and the HostNative backend, for every swdnn kernel.
//!
//! A kernel with a host body promises *bit-for-bit* identical results to
//! the mesh path — same accumulator widths, same reduction orders, same
//! rounding points — independent of the host thread count. Both paths
//! call one per-item function per kernel (`tile::accumulate` for the GEMM
//! family), so what these tests pin is the staging around it: packing,
//! chunk boundaries, lane folds, accumulator seeds and partitioning. A
//! bug inside the shared function is the unit oracle tests' to catch.
//! Each such kernel runs under `ExecMode::Functional` and under
//! `ExecMode::HostNative` with one and with several threads, and the
//! outputs are compared via `f32::to_bits`. Agreement alone cannot tell
//! a host run from a mesh fallback, so every `HostNative` run also
//! asserts it charged no simulated time and no counters
//! ([`assert_host_path`]).
//!
//! A kernel without a host body (the implicit convolution, LRN, and the
//! rest `delegated_kernels_run_their_mesh_body` lists) runs its mesh body
//! under `HostNative` too; one case pins that it does so on a core group
//! of its own.
//!
//! Shapes are small (the mesh path is a cycle-level simulation), some of
//! them randomized from the same zero-dependency SplitMix64 stream the
//! proptests use.

use sw26010::{CoreGroup, ExecMode, SimTime, Stats};
use swdnn::bn::{BnBwdOperands, BnFwdOperands};
use swdnn::conv_explicit::{ConvBwdOperands, ConvFwdOperands};
use swdnn::conv_implicit::{ImplicitBwdOperands, ImplicitFwdOperands};
use swdnn::gemm::GemmOperands;
use swdnn::im2col::{Col2imOperands, Im2colOperands};
use swdnn::lrn::LrnParams;
use swdnn::pool::{PoolBwdOperands, PoolFwdOperands};
use swdnn::softmax::{SoftmaxBwdOperands, SoftmaxFwdOperands};
use swdnn::transform::TransShape;
use swdnn::{ConvShape, GemmDims, PoolMethod, PoolShape, Trans};

/// Host modes every kernel must agree with the mesh under: single thread
/// (serial host path) and several threads (parallel partitioning must
/// not change any reduction order).
const HOST_MODES: [ExecMode; 2] = [
    ExecMode::HostNative { threads: 1 },
    ExecMode::HostNative { threads: 3 },
];

/// Deterministic case generator (SplitMix64), as in `proptests.rs`.
struct CaseRng {
    state: u64,
}

impl CaseRng {
    fn new(seed: u64) -> Self {
        CaseRng { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
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

/// Sparse-ish values: a fraction of exact zeros, exercising the zero-skip
/// of the GEMM family's accumulate kernel.
fn sparse_values(len: usize, seed: u64) -> Vec<f32> {
    values(len, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            if (i * 7 + seed as usize).is_multiple_of(5) {
                0.0
            } else {
                v
            }
        })
        .collect()
}

#[track_caller]
fn assert_bits_eq(tag: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{tag}: elem {i} differs: host {g} vs mesh {w}"
        );
    }
}

/// A `HostNative` core group must still read zero simulated time and zero
/// counters after its launches (DESIGN.md §7 invariant 2): a kernel whose
/// host branch fell through to the mesh computes the same bits but
/// charges mesh time, and this is what catches it. No-op for other modes.
#[track_caller]
fn assert_host_path(cg: &CoreGroup) {
    if let ExecMode::HostNative { .. } = cg.mode() {
        assert_eq!(
            cg.elapsed(),
            SimTime::ZERO,
            "HostNative run charged mesh time"
        );
        assert_eq!(
            *cg.stats(),
            Stats::default(),
            "HostNative run counted mesh work"
        );
    }
}

fn random_conv_shapes(seed: u64, n: usize) -> Vec<ConvShape> {
    let mut rng = CaseRng::new(seed);
    let mut shapes = Vec::new();
    while shapes.len() < n {
        let hw = rng.range(3, 10);
        let k = rng.range(1, 4);
        let pad = rng.range(0, 2);
        if hw + 2 * pad < k {
            continue;
        }
        shapes.push(ConvShape {
            batch: rng.range(1, 5),
            in_c: rng.range(1, 6),
            in_h: hw,
            in_w: hw,
            out_c: rng.range(1, 6),
            k,
            stride: rng.range(1, 3),
            pad,
        });
    }
    shapes
}

// ---------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------

fn check_gemm(dims: GemmDims, ta: Trans, tb: Trans, beta: f32, double_buffered: bool) {
    let (m, n, k) = (dims.m, dims.n, dims.k);
    let a = sparse_values(m * k, 1);
    let b = values(k * n, 2);
    let c0 = values(m * n, 3);
    let run = |mode: ExecMode| {
        let mut c = c0.clone();
        let mut cg = CoreGroup::new(mode);
        let ops = Some(GemmOperands {
            a: &a,
            b: &b,
            c: &mut c,
        });
        let mut scheme = swdnn::TilingScheme::hand(dims);
        if double_buffered {
            scheme.buffering = swdnn::Buffering::Double;
        }
        swdnn::gemm::gemm_with_scheme(&mut cg, dims, ta, tb, beta, scheme, ops);
        assert_host_path(&cg);
        c
    };
    let want = run(ExecMode::Functional);
    for mode in HOST_MODES {
        let got = run(mode);
        assert_bits_eq(
            &format!("gemm {dims:?} ta={ta:?} tb={tb:?} beta={beta}"),
            &got,
            &want,
        );
    }
}

#[test]
fn gemm_agrees_across_backends() {
    let mut rng = CaseRng::new(0xB17_0001);
    for _ in 0..8 {
        let dims = GemmDims::new(rng.range(1, 200), rng.range(1, 200), rng.range(1, 200));
        let ta = if rng.flag() { Trans::Yes } else { Trans::No };
        let tb = if rng.flag() { Trans::Yes } else { Trans::No };
        let beta = if rng.flag() { 1.0 } else { 0.0 };
        check_gemm(dims, ta, tb, beta, false);
    }
    // Table II flavour: an explicit-conv GEMM (out_c x (k*k*in_c) by cols).
    check_gemm(GemmDims::new(64, 36, 27), Trans::No, Trans::No, 0.0, false);
}

#[test]
fn double_buffered_gemm_agrees_across_backends() {
    let mut rng = CaseRng::new(0xB17_0002);
    for _ in 0..4 {
        let dims = GemmDims::new(rng.range(8, 64), rng.range(8, 64), rng.range(8, 64));
        check_gemm(
            dims,
            Trans::No,
            Trans::No,
            if rng.flag() { 1.0 } else { 0.0 },
            true,
        );
    }
}

/// One GEMM on `mode`, hand scheme, from the given operands.
#[allow(clippy::too_many_arguments)]
fn gemm_on(
    mode: ExecMode,
    dims: GemmDims,
    ta: Trans,
    tb: Trans,
    beta: f32,
    a: &[f32],
    b: &[f32],
    c0: &[f32],
) -> Vec<f32> {
    let mut c = c0.to_vec();
    let mut cg = CoreGroup::new(mode);
    let ops = Some(GemmOperands { a, b, c: &mut c });
    swdnn::gemm::gemm(&mut cg, dims, ta, tb, beta, ops);
    assert_host_path(&cg);
    c
}

/// `m` and `n` on both sides of every blocking edge of the host kernel
/// — the register tile at either panel width, and the column split
/// between forked tasks — in all four transpositions, with dead, plain
/// and scaling betas, from a single k-step to a long reduction, on one,
/// two and three threads. The host runs the widest instantiation this
/// CPU supports; `swdnn::host`'s unit tests hold it to the baseline one.
#[test]
fn gemm_agrees_across_block_edges() {
    use swdnn::host::{GEMM_FORK_FLOPS, GEMM_NR, GEMM_NR_AVX2};
    let straddle = |edges: &[usize]| {
        let mut v = vec![1];
        for &edge in edges {
            v.extend([edge - 1, edge, edge + 1, 2 * edge + 3]);
        }
        v.retain(|x| *x > 0);
        v.sort_unstable();
        v.dedup();
        v
    };
    let (ms, ns, ks) = (
        straddle(&[1]),
        straddle(&[GEMM_NR, GEMM_NR_AVX2]),
        [1, 7, 64, 300],
    );
    let mut cases: Vec<(usize, usize, usize)> = Vec::new();
    for &m in &ms {
        for &n in &ns {
            cases.extend(ks.iter().map(|&k| (m, n, k)));
        }
    }
    // Wide enough to fork, so that two and three tasks split the column
    // panels between them: a whole number of panels, one column short of
    // it (a ragged last task) and one over (a last panel of one column),
    // at either panel width.
    let (m, k) = (5, 300);
    for nr in [GEMM_NR, GEMM_NR_AVX2] {
        let n = (GEMM_FORK_FLOPS.div_ceil(2 * m * k * nr) + 2) * nr;
        cases.extend([(m, n - 1, k), (m, n, k), (m, n + 1, k)]);
    }
    for (m, n, k) in cases {
        let dims = GemmDims::new(m, n, k);
        let a = sparse_values(m * k, 1);
        let b = values(k * n, 2);
        let c0 = values(m * n, 3);
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            for beta in [0.0, 1.0, -0.5] {
                let want = gemm_on(ExecMode::Functional, dims, ta, tb, beta, &a, &b, &c0);
                for threads in [1, 2, 3] {
                    let mode = ExecMode::HostNative { threads };
                    assert_bits_eq(
                        &format!("gemm {dims:?} ta={ta:?} tb={tb:?} beta={beta} threads={threads}"),
                        &gemm_on(mode, dims, ta, tb, beta, &a, &b, &c0),
                        &want,
                    );
                }
            }
        }
    }
}

/// A zero in A *skips* its k-step; it does not add a zero product. The
/// two differ exactly where this test looks: a zero (of either sign)
/// opposite a NaN or an infinity in B would poison the sum, and adding
/// `+0.0` to an accumulator seeded with `-0.0` would flip its sign.
#[test]
fn gemm_zero_skip_is_not_add_zero() {
    for n in [swdnn::host::GEMM_NR + 1, swdnn::host::GEMM_NR_AVX2 + 1] {
        gemm_zero_skip_at(n);
    }
}

/// [`gemm_zero_skip_is_not_add_zero`] with `n` columns.
fn gemm_zero_skip_at(n: usize) {
    let dims = GemmDims::new(3, n, 5);
    #[rustfmt::skip]
    let a = [
        0.0, -0.0, 1.5, 0.0, 2.0, // zeros opposite every hostile row of B
        0.0, -0.0, 0.0, -0.0, 0.0, // skipped entirely: C keeps its seed
        -1.0, 0.5, 0.25, 3.0, -2.0, // no zeros: meets the hostile rows
    ];
    let mut b = values(5 * n, 4);
    for j in 0..n {
        b[j] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][j % 3];
        b[n + j] = [f32::NEG_INFINITY, f32::NAN, f32::INFINITY][j % 3];
        b[3 * n + j] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
    }
    // Seeds: beta * c is -0.0 all along row 1, whichever sign beta has.
    for (beta, zero) in [(1.0, -0.0f32), (-0.5, 0.0)] {
        let mut c0 = values(3 * n, 5);
        c0[n..2 * n].fill(zero);
        let want = gemm_on(
            ExecMode::Functional,
            dims,
            Trans::No,
            Trans::No,
            beta,
            &a,
            &b,
            &c0,
        );
        assert!(want[..n].iter().all(|v| v.is_finite()), "row 0: {want:?}");
        assert!(
            want[n..2 * n]
                .iter()
                .all(|v| v.to_bits() == (-0.0f32).to_bits()),
            "row 1: {want:?}"
        );
        assert!(
            want[2 * n..].iter().all(|v| !v.is_finite()),
            "row 2: {want:?}"
        );
        for threads in [1, 2, 3] {
            let mode = ExecMode::HostNative { threads };
            assert_bits_eq(
                &format!("hostile gemm beta={beta} threads={threads}"),
                &gemm_on(mode, dims, Trans::No, Trans::No, beta, &a, &b, &c0),
                &want,
            );
        }
    }
}

// ---------------------------------------------------------------------
// im2col / col2im
// ---------------------------------------------------------------------

#[test]
fn im2col_col2im_agree_across_backends() {
    for (i, shape) in random_conv_shapes(0xB17_0003, 6).into_iter().enumerate() {
        let image = values(shape.input_len() / shape.batch, 4);
        let single = ConvShape { batch: 1, ..shape };
        let cols_len = single.col_rows() * single.col_cols();

        let run_fwd = |mode: ExecMode| {
            let mut cols = vec![f32::NAN; cols_len];
            let mut cg = CoreGroup::new(mode);
            swdnn::im2col::im2col(
                &mut cg,
                &single,
                Some(Im2colOperands {
                    image: &image,
                    cols: &mut cols,
                }),
            );
            assert_host_path(&cg);
            cols
        };
        let want = run_fwd(ExecMode::Functional);
        for mode in HOST_MODES {
            assert_bits_eq(&format!("im2col case {i}"), &run_fwd(mode), &want);
        }

        let cols = values(cols_len, 5);
        let run_bwd = |mode: ExecMode| {
            let mut img = vec![f32::NAN; single.input_len()];
            let mut cg = CoreGroup::new(mode);
            swdnn::im2col::col2im(
                &mut cg,
                &single,
                Some(Col2imOperands {
                    cols: &cols,
                    image: &mut img,
                }),
            );
            assert_host_path(&cg);
            img
        };
        let want = run_bwd(ExecMode::Functional);
        for mode in HOST_MODES {
            assert_bits_eq(&format!("col2im case {i}"), &run_bwd(mode), &want);
        }
    }
}

// ---------------------------------------------------------------------
// Kernels without a host body
// ---------------------------------------------------------------------

/// Runs `kernel` on a `Functional` core group and on a checked
/// `HostNative { threads: 3 }` one, and returns (host, mesh). The host
/// core group must end as it began: no simulated time, no counters, no
/// trace and no worker thread, since the kernel ran on a mesh of its own.
fn on_both<T>(kernel: impl Fn(&mut CoreGroup) -> T) -> (T, T) {
    let want = kernel(&mut CoreGroup::new(ExecMode::Functional));
    let mut cg = CoreGroup::new_checked(HOST_MODES[1]);
    let got = kernel(&mut cg);
    assert_eq!(
        cg.elapsed(),
        SimTime::ZERO,
        "HostNative run charged mesh time"
    );
    assert_eq!(
        *cg.stats(),
        Stats::default(),
        "HostNative run counted mesh work"
    );
    assert!(
        cg.take_traces().is_empty(),
        "HostNative run recorded a trace"
    );
    assert_eq!(cg.workers().started(), 0, "HostNative run started a thread");
    (got, want)
}

/// Every entry point that runs its mesh body under `HostNative` (the
/// implicit convolution's passes, both LRN passes, RCNB -> NCHW,
/// `copy_blocks` and `sumsq`) gives the `Functional` result bit for bit
/// and leaves the caller's core group untouched.
#[test]
fn delegated_kernels_run_their_mesh_body() {
    let shape = ConvShape {
        batch: 4,
        in_c: 6,
        in_h: 5,
        in_w: 6,
        out_c: 5,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let input = values(shape.input_len(), 6);
    let weights = sparse_values(shape.weight_len(), 7);
    let out_grad = sparse_values(shape.output_len(), 8);
    let (got, want) = on_both(|cg| {
        let mut out = vec![f32::NAN; shape.output_len()];
        let ops = ImplicitFwdOperands {
            input: &input,
            weights: &weights,
            output: &mut out,
        };
        swdnn::conv_implicit::forward(cg, &shape, Some(ops));
        out
    });
    assert_bits_eq("implicit fwd", &got, &want);
    let (got, want) = on_both(|cg| {
        let mut in_grad = vec![f32::NAN; shape.input_len()];
        let mut w_grad = vec![f32::NAN; shape.weight_len()];
        let ops = ImplicitBwdOperands {
            input: &input,
            weights: &weights,
            out_grad: &out_grad,
            in_grad: Some(&mut in_grad),
            w_grad: Some(&mut w_grad),
        };
        swdnn::conv_implicit::backward(cg, &shape, Some(ops));
        [in_grad, w_grad]
    });
    assert_bits_eq("implicit bwd-in", &got[0], &want[0]);
    assert_bits_eq("implicit bwd-w", &got[1], &want[1]);

    let (b, c, h, w, p) = (2, 7, 3, 5, LrnParams::default());
    let x = values(b * c * h * w, 23);
    let dy = values(x.len(), 24);
    let (got, want) = on_both(|cg| {
        let mut y = vec![f32::NAN; x.len()];
        swdnn::lrn::forward(cg, b, c, h, w, p, Some((&x, &mut y)));
        y
    });
    assert_bits_eq("lrn fwd", &got, &want);
    let (got, want) = on_both(|cg| {
        let mut dx = vec![f32::NAN; x.len()];
        swdnn::lrn::backward(cg, b, c, h, w, p, Some((&x, &dy, &mut dx)));
        dx
    });
    assert_bits_eq("lrn bwd", &got, &want);

    let tshape = TransShape {
        batch: 3,
        channels: 5,
        height: 4,
        width: 6,
    };
    let t = values(tshape.len(), 12);
    let (got, want) = on_both(|cg| {
        let mut out = vec![f32::NAN; tshape.len()];
        swdnn::transform::rcnb_to_nchw(cg, &tshape, Some((&t, &mut out)));
        out
    });
    assert_bits_eq("rcnb to nchw", &got, &want);

    use swdnn::elementwise as ew;
    let src = values(400, 32);
    let (got, want) = on_both(|cg| {
        // Untouched destination slots stay NaN on both; compare bits.
        let mut dst = vec![f32::NAN; 500];
        ew::copy_blocks(cg, 7, 12, Some((&src, 3, 30, &mut dst, 5, 40)));
        dst
    });
    assert_bits_eq("copy blocks", &got, &want);
    let v = values(ew::CHUNK * 3 + 41, 33);
    let (got, want) = on_both(|cg| ew::sumsq(cg, v.len(), Some(&v)).0);
    assert_eq!(got.to_bits(), want.to_bits(), "sumsq: {got} vs {want}");
}

// ---------------------------------------------------------------------
// Explicit convolution (transitive: im2col + gemm + col2im chain)
// ---------------------------------------------------------------------

#[test]
fn explicit_conv_agrees_across_backends() {
    for (i, shape) in random_conv_shapes(0xB17_0005, 4).into_iter().enumerate() {
        let input = values(shape.input_len(), 9);
        let weights = sparse_values(shape.weight_len(), 10);
        let out_grad = values(shape.output_len(), 11);

        let run_fwd = |mode: ExecMode| {
            let mut out = vec![f32::NAN; shape.output_len()];
            let mut cg = CoreGroup::new(mode);
            swdnn::conv_explicit::forward(
                &mut cg,
                &shape,
                Some(ConvFwdOperands {
                    input: &input,
                    weights: &weights,
                    output: &mut out,
                }),
            );
            assert_host_path(&cg);
            out
        };
        let want = run_fwd(ExecMode::Functional);
        for mode in HOST_MODES {
            assert_bits_eq(&format!("explicit fwd {i}"), &run_fwd(mode), &want);
        }

        let run_bwd = |mode: ExecMode| {
            let mut in_grad = vec![f32::NAN; shape.input_len()];
            let mut w_grad = vec![f32::NAN; shape.weight_len()];
            let mut cg = CoreGroup::new(mode);
            swdnn::conv_explicit::backward(
                &mut cg,
                &shape,
                Some(ConvBwdOperands {
                    input: &input,
                    weights: &weights,
                    out_grad: &out_grad,
                    in_grad: Some(&mut in_grad),
                    w_grad: Some(&mut w_grad),
                }),
            );
            assert_host_path(&cg);
            (in_grad, w_grad)
        };
        let (want_dx, want_dw) = run_bwd(ExecMode::Functional);
        for mode in HOST_MODES {
            let (dx, dw) = run_bwd(mode);
            assert_bits_eq(&format!("explicit bwd-in {i}"), &dx, &want_dx);
            assert_bits_eq(&format!("explicit bwd-w {i}"), &dw, &want_dw);
        }
    }
}

/// Explicit conv forward, backward and the fused conv+BN+ReLU forward
/// of one shape on `cg`: `[output, in_grad, w_grad, fused output]`.
fn explicit_passes(shape: &ConvShape, cg: &mut CoreGroup) -> [Vec<f32>; 4] {
    let input = values(shape.input_len(), 9);
    let weights = sparse_values(shape.weight_len(), 10);
    let out_grad = sparse_values(shape.output_len(), 11);
    let channel = |seed: u64| values(shape.out_c, seed);
    let var: Vec<f32> = channel(16).iter().map(|v| v * v + 0.1).collect();

    let mut out = vec![f32::NAN; shape.output_len()];
    swdnn::conv_explicit::forward(
        cg,
        shape,
        Some(ConvFwdOperands {
            input: &input,
            weights: &weights,
            output: &mut out,
        }),
    );
    let mut in_grad = vec![f32::NAN; shape.input_len()];
    let mut w_grad = vec![f32::NAN; shape.weight_len()];
    swdnn::conv_explicit::backward(
        cg,
        shape,
        Some(ConvBwdOperands {
            input: &input,
            weights: &weights,
            out_grad: &out_grad,
            in_grad: Some(&mut in_grad),
            w_grad: Some(&mut w_grad),
        }),
    );
    let mut fused = vec![f32::NAN; shape.output_len()];
    swdnn::fused::forward(
        cg,
        shape,
        1e-5,
        Some(swdnn::fused::ConvBnReluOperands {
            input: &input,
            weights: &weights,
            bias: Some(&channel(12)),
            gamma: &channel(13),
            beta: &channel(14),
            mean: &channel(15),
            var: &var,
            output: &mut fused,
        }),
    );
    [out, in_grad, w_grad, fused]
}

/// A core group keeps `cols` and the host GEMM's pack buffers in its
/// workspace across calls. Two shapes back to back on one core group,
/// the larger first (its GEMMs fork), so the smaller one finds every
/// buffer full of the other's data: nothing it did not write itself may
/// reach a result.
#[test]
fn explicit_conv_ignores_stale_scratch() {
    let shapes = [
        ConvShape {
            batch: 3,
            in_c: 8,
            in_h: 16,
            in_w: 16,
            out_c: 32,
            k: 3,
            stride: 1,
            pad: 1,
        },
        ConvShape {
            batch: 4,
            in_c: 3,
            in_h: 7,
            in_w: 7,
            out_c: 5,
            k: 3,
            stride: 2,
            pad: 1,
        },
    ];
    let want = shapes.map(|s| explicit_passes(&s, &mut CoreGroup::new(ExecMode::Functional)));
    for mode in HOST_MODES {
        let mut cg = CoreGroup::new(mode);
        for (i, (shape, want)) in shapes.iter().zip(&want).enumerate() {
            let got = explicit_passes(shape, &mut cg);
            assert_host_path(&cg);
            for (pass, (got, want)) in ["fwd", "bwd-in", "bwd-w", "fused"]
                .iter()
                .zip(got.iter().zip(want))
            {
                assert_bits_eq(&format!("{mode:?} shape {i} explicit {pass}"), got, want);
            }
        }
    }
}

/// Every pass that can stage operands in the core group's workspace,
/// on `cg`: the GEMM at beta 0 and 1 (large enough to fork), and explicit
/// conv forward, backward and fused forward.
fn workspace_passes(cg: &mut CoreGroup) -> Vec<Vec<f32>> {
    let dims = GemmDims::new(24, 100, 240);
    let a = sparse_values(dims.m * dims.k, 1);
    let b = values(dims.k * dims.n, 2);
    let mut results = Vec::new();
    for beta in [0.0, 1.0] {
        let mut c = values(dims.m * dims.n, 3);
        let ops = Some(GemmOperands {
            a: &a,
            b: &b,
            c: &mut c,
        });
        swdnn::gemm::gemm(cg, dims, Trans::No, Trans::Yes, beta, ops);
        results.push(c);
    }
    let shape = ConvShape {
        batch: 2,
        in_c: 3,
        in_h: 8,
        in_w: 8,
        out_c: 5,
        k: 3,
        stride: 1,
        pad: 1,
    };
    results.extend(explicit_passes(&shape, cg));
    results
}

/// A workspace's contents are unspecified when a kernel starts. Filled
/// with NaN at the size a fresh core group grows it to, it must change
/// no bit of any result on either functional backend: every kernel
/// writes each staged element before it reads it.
#[test]
fn dirty_workspace_changes_no_result() {
    let passes = [
        "gemm beta=0",
        "gemm beta=1",
        "explicit fwd",
        "explicit bwd-in",
        "explicit bwd-w",
        "fused",
    ];
    for mode in [ExecMode::Functional, HOST_MODES[0], HOST_MODES[1]] {
        let mut fresh = CoreGroup::new(mode);
        let want = workspace_passes(&mut fresh);
        let full = fresh.workspace();
        assert!(!full.cols.is_empty(), "{mode:?}: nothing staged in cols");
        if mode != ExecMode::Functional {
            assert!(
                !full.a.is_empty() && !full.b.is_empty(),
                "{mode:?}: nothing packed"
            );
        }
        let mut dirty = CoreGroup::new(mode);
        let ws = dirty.workspace();
        ws.a = vec![f64::NAN; full.a.capacity()];
        ws.b = vec![f64::NAN; full.b.capacity()];
        ws.cols = vec![f32::NAN; full.cols.capacity()];
        let got = workspace_passes(&mut dirty);
        assert_host_path(&dirty);
        for ((pass, got), want) in passes.iter().zip(&got).zip(&want) {
            assert_bits_eq(&format!("{mode:?} dirty workspace {pass}"), got, want);
        }
    }
}

// ---------------------------------------------------------------------
// Layout transforms
// ---------------------------------------------------------------------

#[test]
fn transforms_agree_across_backends() {
    let mut rng = CaseRng::new(0xB17_0006);
    for i in 0..6 {
        let shape = TransShape {
            batch: rng.range(1, 8),
            channels: rng.range(1, 8),
            height: rng.range(1, 9),
            width: rng.range(1, 9),
        };
        let x = values(shape.len(), 12);
        let run = |mode: ExecMode| {
            let mut out = vec![f32::NAN; shape.len()];
            let mut cg = CoreGroup::new(mode);
            swdnn::transform::nchw_to_rcnb(&mut cg, &shape, Some((&x, &mut out)));
            assert_host_path(&cg);
            out
        };
        let want = run(ExecMode::Functional);
        for mode in HOST_MODES {
            assert_bits_eq(&format!("transform case {i}"), &run(mode), &want);
        }
    }
}

// ---------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------

#[test]
fn pooling_agrees_across_backends() {
    let mut rng = CaseRng::new(0xB17_0007);
    let mut cases = Vec::new();
    while cases.len() < 6 {
        let hw = rng.range(4, 12);
        let k = rng.range(2, 4);
        let pad = rng.range(0, 2);
        if hw + 2 * pad < k {
            continue;
        }
        cases.push(PoolShape {
            batch: rng.range(1, 3),
            channels: rng.range(1, 4),
            in_h: hw,
            in_w: hw,
            k,
            stride: rng.range(1, 3),
            pad,
            method: if rng.flag() {
                PoolMethod::Max
            } else {
                PoolMethod::Average
            },
        });
    }
    // AlexNet's overlapping max pool, always.
    cases.push(PoolShape {
        batch: 2,
        channels: 3,
        in_h: 13,
        in_w: 13,
        k: 3,
        stride: 2,
        pad: 0,
        method: PoolMethod::Max,
    });

    for (i, shape) in cases.into_iter().enumerate() {
        let is_max = matches!(shape.method, PoolMethod::Max);
        let input = values(shape.input_len(), 13);
        let dy = values(shape.output_len(), 14);

        let run_fwd = |mode: ExecMode| {
            let mut out = vec![f32::NAN; shape.output_len()];
            let mut am = vec![f32::NAN; shape.output_len()];
            let mut cg = CoreGroup::new(mode);
            swdnn::pool::forward(
                &mut cg,
                &shape,
                Some(PoolFwdOperands {
                    input: &input,
                    output: &mut out,
                    argmax: is_max.then_some(&mut am[..]),
                }),
            );
            assert_host_path(&cg);
            (out, am)
        };
        let (want_out, want_am) = run_fwd(ExecMode::Functional);
        for mode in HOST_MODES {
            let (out, am) = run_fwd(mode);
            assert_bits_eq(&format!("pool fwd {i}"), &out, &want_out);
            if is_max {
                assert_bits_eq(&format!("pool argmax {i}"), &am, &want_am);
            }
        }

        let run_bwd = |mode: ExecMode| {
            let mut dx = vec![f32::NAN; shape.input_len()];
            let mut cg = CoreGroup::new(mode);
            swdnn::pool::backward(
                &mut cg,
                &shape,
                Some(PoolBwdOperands {
                    out_grad: &dy,
                    argmax: is_max.then_some(&want_am[..]),
                    in_grad: &mut dx,
                }),
            );
            assert_host_path(&cg);
            dx
        };
        let want_dx = run_bwd(ExecMode::Functional);
        for mode in HOST_MODES {
            assert_bits_eq(&format!("pool bwd {i}"), &run_bwd(mode), &want_dx);
        }
    }
}

// ---------------------------------------------------------------------
// Batch normalisation
// ---------------------------------------------------------------------

#[test]
fn bn_agrees_across_backends() {
    let mut rng = CaseRng::new(0xB17_0008);
    for i in 0..5 {
        let (b, c, s) = (rng.range(1, 5), rng.range(1, 8), rng.range(1, 40));
        let eps = 1e-5f32;
        let x = values(b * c * s, 15);
        let gamma: Vec<f32> = values(c, 16).iter().map(|v| v + 2.5).collect();
        let beta = values(c, 17);
        let dy = values(b * c * s, 18);

        let run_fwd = |mode: ExecMode| {
            let mut y = vec![f32::NAN; x.len()];
            let mut sm = vec![f32::NAN; c];
            let mut si = vec![f32::NAN; c];
            let mut cg = CoreGroup::new(mode);
            swdnn::bn::forward(
                &mut cg,
                b,
                c,
                s,
                eps,
                Some(BnFwdOperands {
                    input: &x,
                    gamma: &gamma,
                    beta: &beta,
                    output: &mut y,
                    save_mean: &mut sm,
                    save_istd: &mut si,
                }),
            );
            assert_host_path(&cg);
            (y, sm, si)
        };
        let (want_y, want_m, want_i) = run_fwd(ExecMode::Functional);
        for mode in HOST_MODES {
            let (y, sm, si) = run_fwd(mode);
            assert_bits_eq(&format!("bn fwd y {i}"), &y, &want_y);
            assert_bits_eq(&format!("bn fwd mean {i}"), &sm, &want_m);
            assert_bits_eq(&format!("bn fwd istd {i}"), &si, &want_i);
        }

        let run_bwd = |mode: ExecMode| {
            let mut dx = vec![f32::NAN; x.len()];
            let mut dg = vec![f32::NAN; c];
            let mut db = vec![f32::NAN; c];
            let mut cg = CoreGroup::new(mode);
            swdnn::bn::backward(
                &mut cg,
                b,
                c,
                s,
                Some(BnBwdOperands {
                    input: &x,
                    gamma: &gamma,
                    out_grad: &dy,
                    save_mean: &want_m,
                    save_istd: &want_i,
                    in_grad: &mut dx,
                    gamma_grad: &mut dg,
                    beta_grad: &mut db,
                }),
            );
            assert_host_path(&cg);
            (dx, dg, db)
        };
        let (want_dx, want_dg, want_db) = run_bwd(ExecMode::Functional);
        for mode in HOST_MODES {
            let (dx, dg, db) = run_bwd(mode);
            assert_bits_eq(&format!("bn bwd dx {i}"), &dx, &want_dx);
            assert_bits_eq(&format!("bn bwd dgamma {i}"), &dg, &want_dg);
            assert_bits_eq(&format!("bn bwd dbeta {i}"), &db, &want_db);
        }

        let mean = values(c, 19);
        let var: Vec<f32> = values(c, 20).iter().map(|v| v.abs() + 0.5).collect();
        let run_inf = |mode: ExecMode| {
            let mut y = vec![f32::NAN; x.len()];
            let mut cg = CoreGroup::new(mode);
            swdnn::bn::forward_inference(
                &mut cg,
                b,
                c,
                s,
                eps,
                Some((&x, &gamma, &beta, &mean, &var, &mut y)),
            );
            assert_host_path(&cg);
            y
        };
        let want = run_inf(ExecMode::Functional);
        for mode in HOST_MODES {
            assert_bits_eq(&format!("bn inference {i}"), &run_inf(mode), &want);
        }
    }
    // A spatial extent above the streaming CHUNK, so the chunk-boundary
    // partial-sum order is exercised.
    let (b, c, s) = (2, 2, swdnn::elementwise::CHUNK + 123);
    let x = values(b * c * s, 21);
    let gamma = vec![1.3f32, 0.8];
    let beta = vec![0.1f32, -0.4];
    let run = |mode: ExecMode| {
        let mut y = vec![f32::NAN; x.len()];
        let mut sm = vec![f32::NAN; c];
        let mut si = vec![f32::NAN; c];
        let mut cg = CoreGroup::new(mode);
        swdnn::bn::forward(
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
        assert_host_path(&cg);
        (y, sm, si)
    };
    let (want_y, want_m, want_i) = run(ExecMode::Functional);
    for mode in HOST_MODES {
        let (y, sm, si) = run(mode);
        assert_bits_eq("bn fwd chunked y", &y, &want_y);
        assert_bits_eq("bn fwd chunked mean", &sm, &want_m);
        assert_bits_eq("bn fwd chunked istd", &si, &want_i);
    }
}

// ---------------------------------------------------------------------
// Softmax + cross-entropy
// ---------------------------------------------------------------------

#[test]
fn softmax_agrees_across_backends() {
    let mut rng = CaseRng::new(0xB17_0009);
    for i in 0..5 {
        let (b, c) = (rng.range(1, 80), rng.range(2, 20));
        let logits = values(b * c, 22);
        let labels: Vec<f32> = (0..b).map(|j| ((j * 3) % c) as f32).collect();

        let run_fwd = |mode: ExecMode| {
            let mut probs = vec![f32::NAN; b * c];
            let mut losses = vec![f32::NAN; b];
            let mut cg = CoreGroup::new(mode);
            swdnn::softmax::forward(
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
            assert_host_path(&cg);
            (probs, losses)
        };
        let (want_p, want_l) = run_fwd(ExecMode::Functional);
        for mode in HOST_MODES {
            let (p, l) = run_fwd(mode);
            assert_bits_eq(&format!("softmax fwd probs {i}"), &p, &want_p);
            assert_bits_eq(&format!("softmax fwd losses {i}"), &l, &want_l);
        }

        let run_bwd = |mode: ExecMode| {
            let mut dx = vec![f32::NAN; b * c];
            let mut cg = CoreGroup::new(mode);
            swdnn::softmax::backward(
                &mut cg,
                b,
                c,
                1.0 / b as f32,
                Some(SoftmaxBwdOperands {
                    probs: &want_p,
                    labels: &labels,
                    in_grad: &mut dx,
                }),
            );
            assert_host_path(&cg);
            dx
        };
        let want_dx = run_bwd(ExecMode::Functional);
        for mode in HOST_MODES {
            assert_bits_eq(&format!("softmax bwd {i}"), &run_bwd(mode), &want_dx);
        }
    }
}

// ---------------------------------------------------------------------
// Element-wise kernels
// ---------------------------------------------------------------------

#[test]
fn elementwise_agrees_across_backends() {
    use swdnn::elementwise as ew;
    let len = ew::CHUNK * 2 + 77;
    let x = values(len, 25);
    let y0 = values(len, 26);

    // relu forward
    let run = |mode: ExecMode| {
        let mut out = vec![f32::NAN; len];
        let mut cg = CoreGroup::new(mode);
        ew::relu_forward(&mut cg, len, Some((&x, &mut out)));
        assert_host_path(&cg);
        out
    };
    let want = run(ExecMode::Functional);
    for mode in HOST_MODES {
        assert_bits_eq("relu fwd", &run(mode), &want);
    }

    // relu backward
    let run = |mode: ExecMode| {
        let mut dx = vec![f32::NAN; len];
        let mut cg = CoreGroup::new(mode);
        ew::relu_backward(&mut cg, len, Some((&y0, &x, &mut dx)));
        assert_host_path(&cg);
        dx
    };
    let want = run(ExecMode::Functional);
    for mode in HOST_MODES {
        assert_bits_eq("relu bwd", &run(mode), &want);
    }

    // add + apply_mask
    for (tag, f) in [("add", true), ("mask", false)] {
        let run = |mode: ExecMode| {
            let mut out = vec![f32::NAN; len];
            let mut cg = CoreGroup::new(mode);
            if f {
                ew::add(&mut cg, len, Some((&x, &y0, &mut out)));
            } else {
                ew::apply_mask(&mut cg, len, Some((&x, &y0, &mut out)));
            }
            assert_host_path(&cg);
            out
        };
        let want = run(ExecMode::Functional);
        for mode in HOST_MODES {
            assert_bits_eq(tag, &run(mode), &want);
        }
    }

    // axpy + scale (in place)
    let run = |mode: ExecMode| {
        let mut acc = y0.clone();
        let mut cg = CoreGroup::new(mode);
        ew::axpy(&mut cg, len, -0.37, Some((&x, &mut acc)));
        ew::scale(&mut cg, len, 1.13, Some(&mut acc));
        assert_host_path(&cg);
        acc
    };
    let want = run(ExecMode::Functional);
    for mode in HOST_MODES {
        assert_bits_eq("axpy+scale", &run(mode), &want);
    }
}

#[test]
fn bias_and_reductions_agree_across_backends() {
    use swdnn::elementwise as ew;
    let (batch, channels, spatial) = (3, 5, ew::CHUNK + 19);
    let bias = values(channels, 27);
    let data0 = values(batch * channels * spatial, 28);

    let run = |mode: ExecMode| {
        let mut data = data0.clone();
        let mut cg = CoreGroup::new(mode);
        ew::bias_forward(&mut cg, batch, channels, spatial, Some((&bias, &mut data)));
        assert_host_path(&cg);
        data
    };
    let want = run(ExecMode::Functional);
    for mode in HOST_MODES {
        assert_bits_eq("bias fwd", &run(mode), &want);
    }

    let run = |mode: ExecMode| {
        let mut db = vec![f32::NAN; channels];
        let mut cg = CoreGroup::new(mode);
        ew::bias_backward(&mut cg, batch, channels, spatial, Some((&data0, &mut db)));
        assert_host_path(&cg);
        db
    };
    let want = run(ExecMode::Functional);
    for mode in HOST_MODES {
        assert_bits_eq("bias bwd", &run(mode), &want);
    }

    let (rows, row_len) = (9, 150);
    let rbias = values(row_len, 29);
    let rdata0 = values(rows * row_len, 30);
    let run = |mode: ExecMode| {
        let mut data = rdata0.clone();
        let mut cg = CoreGroup::new(mode);
        ew::bias_rows(&mut cg, rows, row_len, Some((&rbias, &mut data)));
        assert_host_path(&cg);
        data
    };
    let want = run(ExecMode::Functional);
    for mode in HOST_MODES {
        assert_bits_eq("bias rows", &run(mode), &want);
    }

    let (srows, scols) = (17, 203);
    let m = values(srows * scols, 31);
    let run = |mode: ExecMode| {
        let mut out = vec![f32::NAN; scols];
        let mut cg = CoreGroup::new(mode);
        ew::col_sums(&mut cg, srows, scols, Some((&m, &mut out)));
        assert_host_path(&cg);
        out
    };
    let want = run(ExecMode::Functional);
    for mode in HOST_MODES {
        assert_bits_eq("col sums", &run(mode), &want);
    }
}

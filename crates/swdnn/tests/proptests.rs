//! Randomised-but-deterministic tests of the kernel library: the
//! accelerated mesh kernels must agree with the scalar oracles for many
//! shapes, and structural invariants (adjointness, conservation) must
//! hold.
//!
//! Cases are drawn from a fixed-seed SplitMix64 stream instead of a
//! property-testing framework so the suite runs with zero external
//! dependencies and every failure reproduces exactly.

use sw26010::{CoreGroup, ExecMode};
use swdnn::gemm::{gemm, GemmOperands};
use swdnn::{reference, ConvShape, GemmDims, PoolMethod, PoolShape, TilingScheme, Trans};

/// Deterministic case generator (SplitMix64).
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

    /// Uniform in `[lo, hi)`.
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

#[test]
fn mesh_gemm_matches_reference() {
    let mut rng = CaseRng::new(0x6E11);
    for _ in 0..12 {
        let m = rng.range(1, 40);
        let n = rng.range(1, 40);
        let k = rng.range(1, 40);
        let dims = GemmDims::new(m, n, k);
        let ta = if rng.flag() { Trans::Yes } else { Trans::No };
        let tb = if rng.flag() { Trans::Yes } else { Trans::No };
        let beta = if rng.flag() { 1.0 } else { 0.0 };
        let a = values(m * k, 1);
        let b = values(k * n, 2);
        let c0 = values(m * n, 3);
        let mut want = c0.clone();
        reference::gemm(dims, ta, tb, &a, &b, beta, &mut want);
        let mut got = c0;
        let mut cg = CoreGroup::new(ExecMode::Functional);
        gemm(
            &mut cg,
            dims,
            ta,
            tb,
            beta,
            Some(GemmOperands {
                a: &a,
                b: &b,
                c: &mut got,
            }),
        );
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-3 * w.abs().max(1.0), "{g} vs {w}");
        }
    }
}

#[test]
fn gemm_time_model_is_monotone_in_k() {
    let mut rng = CaseRng::new(0x7133);
    for _ in 0..12 {
        let m = rng.range(1, 256);
        let n = rng.range(1, 256);
        let k = rng.range(8, 512);
        let d1 = GemmDims::new(m, n, k);
        let d2 = GemmDims::new(m, n, 2 * k);
        let t1 = TilingScheme::hand(d1).time_model(d1, 0.0).seconds();
        let t2 = TilingScheme::hand(d2).time_model(d2, 0.0).seconds();
        assert!(t2 >= t1 * 0.99, "doubling k shrank time: {t1} -> {t2}");
    }
}

#[test]
fn im2col_col2im_adjoint() {
    let mut rng = CaseRng::new(0xADA0);
    let mut cases = 0;
    while cases < 12 {
        let in_c = rng.range(1, 4);
        let hw = rng.range(3, 12);
        let k = rng.range(1, 4);
        let stride = rng.range(1, 3);
        let pad = rng.range(0, 2);
        if hw + 2 * pad < k {
            continue;
        }
        cases += 1;
        let shape = ConvShape {
            batch: 1,
            in_c,
            in_h: hw,
            in_w: hw,
            out_c: 1,
            k,
            stride,
            pad,
        };
        let x = values(in_c * hw * hw, 5);
        let y = values(shape.col_rows() * shape.col_cols(), 6);
        // <im2col(x), y> == <x, col2im(y)>.
        let mut cols = vec![0.0; y.len()];
        reference::im2col(&shape, &x, &mut cols);
        let lhs: f64 = cols
            .iter()
            .zip(&y)
            .map(|(a, b)| *a as f64 * *b as f64)
            .sum();
        let mut img = vec![0.0; x.len()];
        reference::col2im(&shape, &y, &mut img);
        let rhs: f64 = x.iter().zip(&img).map(|(a, b)| *a as f64 * *b as f64).sum();
        assert!(
            (lhs - rhs).abs() <= 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }
}

#[test]
fn mesh_im2col_matches_reference() {
    let mut rng = CaseRng::new(0x12C0);
    let mut cases = 0;
    while cases < 12 {
        let in_c = rng.range(1, 4);
        let hw = rng.range(3, 14);
        let k = rng.range(1, 4);
        let stride = rng.range(1, 3);
        let pad = rng.range(0, 2);
        if hw + 2 * pad < k {
            continue;
        }
        cases += 1;
        let shape = ConvShape {
            batch: 1,
            in_c,
            in_h: hw,
            in_w: hw,
            out_c: 1,
            k,
            stride,
            pad,
        };
        let image = values(in_c * hw * hw, 7);
        let mut want = vec![0.0; shape.col_rows() * shape.col_cols()];
        reference::im2col(&shape, &image, &mut want);
        let mut got = vec![f32::NAN; want.len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        swdnn::im2col::im2col(
            &mut cg,
            &shape,
            Some(swdnn::im2col::Im2colOperands {
                image: &image,
                cols: &mut got,
            }),
        );
        assert_eq!(got, want);
    }
}

#[test]
fn max_pool_backward_conserves_gradient() {
    let mut rng = CaseRng::new(0x9001);
    for _ in 0..12 {
        let channels = rng.range(1, 4);
        let hw = rng.range(4, 12);
        let k = rng.range(2, 4);
        let stride = rng.range(1, 3);
        let shape = PoolShape {
            batch: 2,
            channels,
            in_h: hw,
            in_w: hw,
            k,
            stride,
            pad: 0,
            method: PoolMethod::Max,
        };
        let input = values(shape.input_len(), 8);
        let mut out = vec![0.0; shape.output_len()];
        let mut am = vec![0usize; shape.output_len()];
        reference::pool_forward(&shape, &input, &mut out, Some(&mut am));
        let dy = values(shape.output_len(), 9);
        let mut dx = vec![0.0; shape.input_len()];
        reference::pool_backward(&shape, &dy, Some(&am), &mut dx);
        // Max-pool backward routes every output gradient to exactly one
        // input: total gradient mass is conserved.
        let sum_dy: f64 = dy.iter().map(|v| *v as f64).sum();
        let sum_dx: f64 = dx.iter().map(|v| *v as f64).sum();
        assert!((sum_dy - sum_dx).abs() < 1e-3 * sum_dy.abs().max(1.0));
    }
}

#[test]
fn conv_explicit_matches_direct() {
    let mut rng = CaseRng::new(0xCE44);
    let mut cases = 0;
    while cases < 12 {
        let in_c = rng.range(1, 4);
        let out_c = rng.range(1, 5);
        let hw = rng.range(3, 9);
        let k = rng.range(1, 4);
        let pad = rng.range(0, 2);
        if hw + 2 * pad < k {
            continue;
        }
        cases += 1;
        let shape = ConvShape {
            batch: 2,
            in_c,
            in_h: hw,
            in_w: hw,
            out_c,
            k,
            stride: 1,
            pad,
        };
        let input = values(shape.input_len(), 10);
        let weights = values(shape.weight_len(), 11);
        let mut want = vec![0.0; shape.output_len()];
        reference::conv_forward(&shape, &input, &weights, &mut want);
        let mut got = vec![0.0; shape.output_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        swdnn::conv_explicit::forward(
            &mut cg,
            &shape,
            Some(swdnn::conv_explicit::ConvFwdOperands {
                input: &input,
                weights: &weights,
                output: &mut got,
            }),
        );
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-3 * w.abs().max(1.0), "{g} vs {w}");
        }
    }
}

#[test]
fn transform_roundtrip_identity() {
    use swdnn::transform::{nchw_to_rcnb_host, rcnb_to_nchw_host, TransShape};
    let mut rng = CaseRng::new(0x7540);
    for _ in 0..12 {
        let b = rng.range(1, 6);
        let c = rng.range(1, 6);
        let h = rng.range(1, 8);
        let w = rng.range(1, 8);
        let shape = TransShape {
            batch: b,
            channels: c,
            height: h,
            width: w,
        };
        let x = values(shape.len(), 12);
        let mut mid = vec![0.0; x.len()];
        let mut back = vec![0.0; x.len()];
        nchw_to_rcnb_host(&shape, &x, &mut mid);
        rcnb_to_nchw_host(&shape, &mid, &mut back);
        assert_eq!(back, x);
    }
}

#[test]
fn implicit_conv_matches_direct_for_random_shapes() {
    use swdnn::transform::{
        filters_oikk_to_kkon, nchw_to_rcnb_host, rcnb_to_nchw_host, TransShape,
    };
    let mut rng = CaseRng::new(0x1111);
    let mut cases = 0;
    while cases < 8 {
        let batch = rng.range(1, 6);
        let in_c = rng.range(1, 5);
        let out_c = rng.range(1, 6);
        let hw = rng.range(3, 8);
        let k = rng.range(1, 4);
        let stride = rng.range(1, 3);
        let pad = rng.range(0, 2);
        if hw + 2 * pad < k {
            continue;
        }
        cases += 1;
        let shape = ConvShape {
            batch,
            in_c,
            in_h: hw,
            in_w: hw,
            out_c,
            k,
            stride,
            pad,
        };
        let input_nchw = values(shape.input_len(), 21);
        let weights_oikk = values(shape.weight_len(), 22);
        let mut want = vec![0.0; shape.output_len()];
        reference::conv_forward(&shape, &input_nchw, &weights_oikk, &mut want);

        let tin = TransShape {
            batch,
            channels: in_c,
            height: hw,
            width: hw,
        };
        let tout = TransShape {
            batch,
            channels: out_c,
            height: shape.out_h(),
            width: shape.out_w(),
        };
        let mut input_rcnb = vec![0.0; shape.input_len()];
        nchw_to_rcnb_host(&tin, &input_nchw, &mut input_rcnb);
        let weights = filters_oikk_to_kkon(out_c, in_c, k, &weights_oikk);
        let mut out_rcnb = vec![0.0; shape.output_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        swdnn::conv_implicit::forward(
            &mut cg,
            &shape,
            Some(swdnn::conv_implicit::ImplicitFwdOperands {
                input: &input_rcnb,
                weights: &weights,
                output: &mut out_rcnb,
            }),
        );
        let mut got = vec![0.0; shape.output_len()];
        rcnb_to_nchw_host(&tout, &out_rcnb, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-3 * w.abs().max(1.0),
                "implicit {shape:?} elem {i}: {g} vs {w}"
            );
        }
    }
}

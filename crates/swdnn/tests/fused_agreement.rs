//! Fused conv+BN+ReLU vs the unfused three-layer sequence: bitwise
//! agreement across Table II-style shapes and both functional backends.
//!
//! The reference is always the unfused kernel sequence on the simulated
//! mesh (`ExecMode::Functional`, the blessed path). The fused kernel
//! must reproduce it bit-for-bit on the mesh *and* on host-native at
//! any thread count — the bit-identity contract `swserve`'s graph
//! optimizer relies on when it rewrites a conv→bn→relu chain into one
//! fused layer.

use sw26010::{CoreGroup, ExecMode, SimTime, Stats};
use swdnn::fused::{self, ConvBnReluOperands};
use swdnn::{bn, conv_explicit, elementwise as ew, ConvShape};

const MODES: [ExecMode; 3] = [
    ExecMode::Functional,
    ExecMode::HostNative { threads: 1 },
    ExecMode::HostNative { threads: 3 },
];

/// Table II's VGG layer families, scaled to functional-test sizes while
/// keeping the structural parameters (kernel, stride, pad, channel
/// growth) intact.
fn table2_shapes() -> Vec<(&'static str, ConvShape)> {
    vec![
        (
            "conv1_1",
            ConvShape {
                batch: 2,
                in_c: 3,
                in_h: 12,
                in_w: 12,
                out_c: 16,
                k: 3,
                stride: 1,
                pad: 1,
            },
        ),
        (
            "conv2_1",
            ConvShape {
                batch: 2,
                in_c: 16,
                in_h: 10,
                in_w: 10,
                out_c: 32,
                k: 3,
                stride: 1,
                pad: 1,
            },
        ),
        (
            "conv3_1",
            ConvShape {
                batch: 1,
                in_c: 32,
                in_h: 8,
                in_w: 8,
                out_c: 48,
                k: 3,
                stride: 1,
                pad: 1,
            },
        ),
        (
            "stride2",
            ConvShape {
                batch: 2,
                in_c: 8,
                in_h: 13,
                in_w: 13,
                out_c: 12,
                k: 3,
                stride: 2,
                pad: 0,
            },
        ),
        (
            "k5",
            ConvShape {
                batch: 1,
                in_c: 4,
                in_h: 11,
                in_w: 11,
                out_c: 8,
                k: 5,
                stride: 1,
                pad: 2,
            },
        ),
    ]
}

fn values(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed.wrapping_mul(0xBF58476D1CE4E5B9));
            ((x >> 33) % 2000) as f32 / 500.0 - 2.0
        })
        .collect()
}

/// Unfused reference on the simulated mesh: conv → (bias) → BN
/// inference → ReLU.
fn unfused_reference(shape: &ConvShape, with_bias: bool, seed: u64, eps: f32) -> Vec<f32> {
    let spatial = shape.out_h() * shape.out_w();
    let len = shape.batch * shape.out_c * spatial;
    let input = values(shape.input_len(), seed);
    let weights = values(shape.weight_len(), seed + 1);
    let bias = values(shape.out_c, seed + 2);
    let gamma = values(shape.out_c, seed + 3);
    let beta = values(shape.out_c, seed + 4);
    let mean = values(shape.out_c, seed + 5);
    let var: Vec<f32> = values(shape.out_c, seed + 6)
        .iter()
        .map(|v| v * v + 0.1)
        .collect();

    let mut cg = CoreGroup::new(ExecMode::Functional);
    let mut conv_out = vec![0.0f32; len];
    conv_explicit::forward(
        &mut cg,
        shape,
        Some(conv_explicit::ConvFwdOperands {
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
    let mut out = vec![0.0f32; len];
    ew::relu_forward(&mut cg, len, Some((&bn_out, &mut out)));
    out
}

fn fused_on(mode: ExecMode, shape: &ConvShape, with_bias: bool, seed: u64, eps: f32) -> Vec<f32> {
    let spatial = shape.out_h() * shape.out_w();
    let len = shape.batch * shape.out_c * spatial;
    let input = values(shape.input_len(), seed);
    let weights = values(shape.weight_len(), seed + 1);
    let bias = values(shape.out_c, seed + 2);
    let gamma = values(shape.out_c, seed + 3);
    let beta = values(shape.out_c, seed + 4);
    let mean = values(shape.out_c, seed + 5);
    let var: Vec<f32> = values(shape.out_c, seed + 6)
        .iter()
        .map(|v| v * v + 0.1)
        .collect();

    let mut cg = CoreGroup::new(mode);
    let mut out = vec![0.0f32; len];
    fused::forward(
        &mut cg,
        shape,
        eps,
        Some(ConvBnReluOperands {
            input: &input,
            weights: &weights,
            bias: with_bias.then_some(bias.as_slice()),
            gamma: &gamma,
            beta: &beta,
            mean: &mean,
            var: &var,
            output: &mut out,
        }),
    );
    // Agreement alone cannot tell a host run from a mesh fallback; a
    // HostNative launch charges no time and no counters (DESIGN.md §7).
    if let ExecMode::HostNative { .. } = mode {
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
    out
}

#[test]
fn fused_matches_unfused_bitwise_on_all_functional_backends() {
    let eps = 1e-5;
    for (name, shape) in table2_shapes() {
        for with_bias in [false, true] {
            let seed = 11 + with_bias as u64;
            let want = unfused_reference(&shape, with_bias, seed, eps);
            for mode in MODES {
                let got = fused_on(mode, &shape, with_bias, seed, eps);
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name} bias={with_bias} {mode:?} elem {i}: fused {g} vs unfused {w}"
                    );
                }
            }
        }
    }
}

/// The fused kernel must also agree with itself across backends when the
/// activations contain negatives both before and after the BN transform
/// (exercises the ReLU clamp path on every backend).
#[test]
fn fused_relu_clamps_identically_across_backends() {
    let shape = ConvShape {
        batch: 2,
        in_c: 2,
        in_h: 7,
        in_w: 7,
        out_c: 4,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let mesh = fused_on(ExecMode::Functional, &shape, true, 99, 1e-3);
    assert!(
        mesh.iter().all(|v| *v >= 0.0),
        "ReLU must clamp every output to be non-negative"
    );
    assert!(
        mesh.contains(&0.0),
        "test data should actually hit the clamp"
    );
    for mode in MODES {
        let got = fused_on(mode, &shape, true, 99, 1e-3);
        assert!(got
            .iter()
            .zip(&mesh)
            .all(|(g, w)| g.to_bits() == w.to_bits()));
    }
}

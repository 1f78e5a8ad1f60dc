//! Replay of a net's operations as direct `swdnn` kernel calls.
//!
//! `Net::ops()` gives each layer's kind and shapes; the kernels a layer
//! runs are called here, outside the `Net`, on copies of the tensors the
//! net itself just used (activations, gradients, weights — the host GEMM
//! skips zeros, so its time depends on the values). Their wall time set
//! against `Net::forward` + `Net::backward` is what `core` adds to
//! `swdnn`. Covers the layer kinds of the benchmark's own CNN.

use std::time::Instant;

use sw26010::CoreGroup;
use swcaffe_core::{LayerKind, Net, NetDef, PoolKind};
use swdnn::bn::{self, BnBwdOperands, BnFwdOperands};
use swdnn::conv_explicit::{self, ConvBwdOperands, ConvFwdOperands};
use swdnn::gemm::{gemm, GemmOperands};
use swdnn::pool::{self, PoolBwdOperands, PoolFwdOperands};
use swdnn::softmax::{self, SoftmaxBwdOperands, SoftmaxFwdOperands};
use swdnn::{elementwise as ew, ConvShape, GemmDims, PoolMethod, PoolShape, Trans};

/// An output buffer whose pages are already mapped: `vec![0.0; n]` maps
/// them lazily, which would charge the page faults to the first kernel
/// that writes it.
fn touched(len: usize) -> Vec<f32> {
    vec![1.0; len]
}

/// Seconds spent inside kernel calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelWall {
    pub forward_s: f64,
    pub backward_s: f64,
}

fn timed(acc: &mut f64, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    *acc += t.elapsed().as_secs_f64();
}

fn dims4(shape: &[usize]) -> (usize, usize, usize, usize) {
    (shape[0], shape[1], shape[2], shape[3])
}

/// Run the forward and backward kernels of every layer of `net` (built
/// from `def`, one forward and backward pass already run) once. The
/// first parameterised layer needs no input gradient, as in
/// `Net::backward`.
pub fn kernel_wall(cg: &mut CoreGroup, net: &Net, def: &NetDef) -> Result<KernelWall, String> {
    let mut wall = KernelWall::default();
    let (fwd, bwd) = (&mut wall.forward_s, &mut wall.backward_s);
    let mut first_param_layer = true;
    let snapshots = net.layer_snapshots();
    for ((op, ldef), snap) in net.ops().iter().zip(&def.layers).zip(&snapshots) {
        let param = |i: usize| -> Result<&Vec<f32>, String> {
            snap.params
                .get(i)
                .ok_or_else(|| format!("layer `{}` has no parameter {i}", op.name))
        };
        let (x, in_len) = match ldef.bottoms.first() {
            Some(b) => (net.blob(b).data().to_vec(), net.blob(b).len()),
            None => (Vec::new(), 0),
        };
        let (dy, out_len) = match ldef.tops.first() {
            Some(t) => (net.blob(t).diff().to_vec(), net.blob(t).len()),
            None => (Vec::new(), 0),
        };
        let mut y = touched(out_len);
        let mut dx = touched(in_len);
        match &op.kind {
            // Accuracy is MPE bookkeeping inside `core`: no swdnn kernel.
            LayerKind::Input { .. } | LayerKind::Accuracy { .. } => {}
            LayerKind::Convolution {
                num_output,
                kernel,
                stride,
                pad,
                bias,
                ..
            } => {
                let (b, c, h, w) = dims4(&op.in_shapes[0]);
                let shape = ConvShape {
                    batch: b,
                    in_c: c,
                    in_h: h,
                    in_w: w,
                    out_c: *num_output,
                    k: *kernel,
                    stride: *stride,
                    pad: *pad,
                };
                let spatial = shape.out_h() * shape.out_w();
                let weights = param(0)?;
                let bias_v = if *bias { param(1)?.clone() } else { Vec::new() };
                let mut dw = touched(shape.weight_len());
                let mut db = touched(shape.out_c);
                timed(fwd, || {
                    conv_explicit::forward(
                        cg,
                        &shape,
                        Some(ConvFwdOperands {
                            input: &x,
                            weights,
                            output: &mut y,
                        }),
                    );
                    if *bias {
                        ew::bias_forward(cg, b, shape.out_c, spatial, Some((&bias_v, &mut y)));
                    }
                });
                let needs_dx = !first_param_layer;
                timed(bwd, || {
                    if *bias {
                        ew::bias_backward(cg, b, shape.out_c, spatial, Some((&dy, &mut db)));
                    }
                    conv_explicit::backward(
                        cg,
                        &shape,
                        Some(ConvBwdOperands {
                            input: &x,
                            weights,
                            out_grad: &dy,
                            in_grad: needs_dx.then_some(&mut dx[..]),
                            w_grad: Some(&mut dw),
                        }),
                    );
                });
                first_param_layer = false;
            }
            LayerKind::BatchNorm { eps, .. } => {
                let (b, c, h, w) = dims4(&op.in_shapes[0]);
                let (gamma, beta) = (param(0)?, param(1)?);
                let (mut mean, mut istd) = (touched(c), touched(c));
                let (mut dgamma, mut dbeta) = (touched(c), touched(c));
                timed(fwd, || {
                    bn::forward(
                        cg,
                        b,
                        c,
                        h * w,
                        *eps,
                        Some(BnFwdOperands {
                            input: &x,
                            gamma,
                            beta,
                            output: &mut y,
                            save_mean: &mut mean,
                            save_istd: &mut istd,
                        }),
                    );
                });
                timed(bwd, || {
                    bn::backward(
                        cg,
                        b,
                        c,
                        h * w,
                        Some(BnBwdOperands {
                            input: &x,
                            gamma,
                            out_grad: &dy,
                            save_mean: &mean,
                            save_istd: &istd,
                            in_grad: &mut dx,
                            gamma_grad: &mut dgamma,
                            beta_grad: &mut dbeta,
                        }),
                    );
                });
                first_param_layer = false;
            }
            LayerKind::ReLU => {
                timed(fwd, || {
                    ew::relu_forward(cg, in_len, Some((&x, &mut y)));
                });
                timed(bwd, || {
                    ew::relu_backward(cg, in_len, Some((&dy, &x, &mut dx)));
                });
            }
            LayerKind::Pooling {
                kernel,
                stride,
                pad,
                method,
            } => {
                let (b, c, h, w) = dims4(&op.in_shapes[0]);
                let max = matches!(method, PoolKind::Max);
                let shape = PoolShape {
                    batch: b,
                    channels: c,
                    in_h: h,
                    in_w: w,
                    k: *kernel,
                    stride: *stride,
                    pad: *pad,
                    method: if max {
                        PoolMethod::Max
                    } else {
                        PoolMethod::Average
                    },
                };
                let mut argmax = touched(out_len);
                timed(fwd, || {
                    pool::forward(
                        cg,
                        &shape,
                        Some(PoolFwdOperands {
                            input: &x,
                            output: &mut y,
                            argmax: max.then_some(&mut argmax[..]),
                        }),
                    );
                });
                timed(bwd, || {
                    pool::backward(
                        cg,
                        &shape,
                        Some(PoolBwdOperands {
                            out_grad: &dy,
                            argmax: max.then_some(&argmax[..]),
                            in_grad: &mut dx,
                        }),
                    );
                });
            }
            LayerKind::InnerProduct { num_output, bias } => {
                let batch = op.in_shapes[0][0];
                let features = in_len / batch;
                let weights = param(0)?;
                let bias_v = if *bias { param(1)?.clone() } else { Vec::new() };
                let mut dw = touched(weights.len());
                let mut db = touched(*num_output);
                timed(fwd, || {
                    gemm(
                        cg,
                        GemmDims::new(batch, *num_output, features),
                        Trans::No,
                        Trans::Yes,
                        0.0,
                        Some(GemmOperands {
                            a: &x,
                            b: weights,
                            c: &mut y,
                        }),
                    );
                    if *bias {
                        ew::bias_rows(cg, batch, *num_output, Some((&bias_v, &mut y)));
                    }
                });
                timed(bwd, || {
                    if *bias {
                        ew::col_sums(cg, batch, *num_output, Some((&dy, &mut db)));
                    }
                    gemm(
                        cg,
                        GemmDims::new(*num_output, features, batch),
                        Trans::Yes,
                        Trans::No,
                        0.0,
                        Some(GemmOperands {
                            a: &dy,
                            b: &x,
                            c: &mut dw,
                        }),
                    );
                    gemm(
                        cg,
                        GemmDims::new(batch, features, *num_output),
                        Trans::No,
                        Trans::No,
                        0.0,
                        Some(GemmOperands {
                            a: &dy,
                            b: weights,
                            c: &mut dx,
                        }),
                    );
                });
                first_param_layer = false;
            }
            LayerKind::SoftmaxWithLoss => {
                let (batch, classes) = (op.in_shapes[0][0], op.in_shapes[0][1]);
                let labels = net.blob(&ldef.bottoms[1]).data().to_vec();
                let mut probs = touched(in_len);
                let mut losses = touched(batch);
                timed(fwd, || {
                    softmax::forward(
                        cg,
                        batch,
                        classes,
                        Some(SoftmaxFwdOperands {
                            logits: &x,
                            labels: &labels,
                            probs: &mut probs,
                            losses: &mut losses,
                        }),
                    );
                });
                timed(bwd, || {
                    softmax::backward(
                        cg,
                        batch,
                        classes,
                        1.0 / batch as f32,
                        Some(SoftmaxBwdOperands {
                            probs: &probs,
                            labels: &labels,
                            in_grad: &mut dx,
                        }),
                    );
                });
            }
            other => return Err(format!("layer `{}`: no replay for {other:?}", op.name)),
        }
    }
    Ok(wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::ExecMode;

    #[test]
    fn replay_covers_the_benchmark_net() {
        let def = crate::train::host_net(1);
        let mode = ExecMode::HostNative { threads: 1 };
        let mut net = Net::from_def_mode(&def, mode).unwrap();
        let mut cg = CoreGroup::new(mode);
        net.forward(&mut cg);
        net.backward(&mut cg);
        let wall = kernel_wall(&mut cg, &net, &def).unwrap();
        assert!(wall.forward_s > 0.0 && wall.backward_s > 0.0);
    }
}

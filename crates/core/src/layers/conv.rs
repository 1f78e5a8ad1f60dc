//! Convolution layer: wraps the explicit (NCHW) or implicit (RCNB) plan,
//! chosen per layer by the model builders' `NetBuilder::wants_rcnb`
//! (Sec. IV-B / VI-A).

use sw26010::CoreGroup;
use swdnn::conv_explicit::{ConvBwdOperands, ConvFwdOperands};
use swdnn::conv_implicit::{ImplicitBwdOperands, ImplicitFwdOperands};
use swdnn::elementwise as ew;
use swdnn::{conv_explicit, conv_implicit, ConvShape};

use crate::blob::Blob;
use crate::filler::Filler;
use crate::layer::Layer;
use crate::netdef::ConvFormat;

/// Convolution layer parameters and state.
pub(crate) struct ConvLayer {
    name: String,
    format: ConvFormat,
    shape: ConvShape,
    /// `(N_o, N_i, K, K)` for NCHW, `(K, K, N_o, N_i)` for RCNB.
    weights: Blob,
    bias: Option<Blob>,
}

impl ConvLayer {
    /// A convolution of `shape` in `format`, its weights MSRA-filled from
    /// `seed` when `materialize` is set.
    pub fn new(
        name: &str,
        shape: ConvShape,
        bias: bool,
        format: ConvFormat,
        materialize: bool,
        seed: u64,
    ) -> Self {
        let dims = match format {
            ConvFormat::Nchw => [shape.out_c, shape.in_c, shape.k, shape.k],
            ConvFormat::Rcnb => [shape.k, shape.k, shape.out_c, shape.in_c],
        };
        let mut weights = Blob::with_mode(&dims, materialize);
        if materialize {
            let fan_in = shape.in_c * shape.k * shape.k;
            Filler::Msra.fill(weights.data_mut(), fan_in, seed);
        }
        ConvLayer {
            name: name.into(),
            format,
            shape,
            weights,
            bias: bias.then(|| Blob::with_mode(&[shape.out_c], materialize)),
        }
    }
}

impl Layer for ConvLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Convolution"
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let shape = self.shape;
        let functional = cg.mode().is_functional();
        match self.format {
            ConvFormat::Nchw => {
                let ops = functional.then(|| ConvFwdOperands {
                    input: bottoms[0].data(),
                    weights: self.weights.data(),
                    output: tops[0].data_mut(),
                });
                conv_explicit::forward(cg, &shape, ops);
            }
            ConvFormat::Rcnb => {
                let ops = functional.then(|| ImplicitFwdOperands {
                    input: bottoms[0].data(),
                    weights: self.weights.data(),
                    output: tops[0].data_mut(),
                });
                conv_implicit::forward(cg, &shape, ops);
            }
        }
        if let Some(bias) = &self.bias {
            let spatial = shape.out_h() * shape.out_w();
            match self.format {
                // NCHW rows are (b, c) x spatial; RCNB rows are (yx, c) x batch.
                ConvFormat::Nchw => {
                    let io = functional.then(|| (bias.data(), tops[0].data_mut()));
                    ew::bias_forward(cg, shape.batch, shape.out_c, spatial, io);
                }
                ConvFormat::Rcnb => {
                    let io = functional.then(|| (bias.data(), tops[0].data_mut()));
                    ew::bias_forward(cg, spatial, shape.out_c, shape.batch, io);
                }
            }
        }
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        let shape = self.shape;
        let functional = cg.mode().is_functional();
        let spatial = shape.out_h() * shape.out_w();
        if let Some(bias) = &mut self.bias {
            match self.format {
                ConvFormat::Nchw => {
                    let io = functional.then(|| (tops[0].diff(), bias.diff_mut()));
                    ew::bias_backward(cg, shape.batch, shape.out_c, spatial, io);
                }
                ConvFormat::Rcnb => {
                    let io = functional.then(|| (tops[0].diff(), bias.diff_mut()));
                    ew::bias_backward(cg, spatial, shape.out_c, shape.batch, io);
                }
            }
        }
        match self.format {
            ConvFormat::Nchw => {
                if functional {
                    let (w_data, w_diff) = self.weights.data_and_diff_mut();
                    let (data, diff) = bottoms[0].data_and_diff_mut();
                    conv_explicit::backward(
                        cg,
                        &shape,
                        Some(ConvBwdOperands {
                            input: data,
                            weights: w_data,
                            out_grad: tops[0].diff(),
                            in_grad: pd[0].then_some(diff),
                            w_grad: Some(w_diff),
                        }),
                    );
                } else {
                    // Charge exactly the passes that would run.
                    cg.charge(conv_explicit::backward_weights_time(&shape));
                    if pd[0] {
                        cg.charge(conv_explicit::backward_input_time(&shape));
                    }
                }
            }
            ConvFormat::Rcnb => {
                if functional {
                    let (w_data, w_diff) = self.weights.data_and_diff_mut();
                    let (data, diff) = bottoms[0].data_and_diff_mut();
                    conv_implicit::backward(
                        cg,
                        &shape,
                        Some(ImplicitBwdOperands {
                            input: data,
                            weights: w_data,
                            out_grad: tops[0].diff(),
                            in_grad: pd[0].then_some(diff),
                            w_grad: Some(w_diff),
                        }),
                    );
                } else {
                    cg.charge(conv_implicit::backward_weights_time(&shape));
                    if pd[0] {
                        cg.charge(conv_implicit::backward_input_time(&shape));
                    }
                }
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Blob> {
        let mut out = vec![&mut self.weights];
        if let Some(b) = &mut self.bias {
            out.push(b);
        }
        out
    }

    fn params(&self) -> Vec<&Blob> {
        let mut out = vec![&self.weights];
        if let Some(b) = &self.bias {
            out.push(b);
        }
        out
    }
}

//! Fused conv+BN+ReLU layer — the inference-only layer `swserve`'s graph
//! optimizer emits when it collapses a Convolution → BatchNorm → ReLU
//! chain. Parameters keep the unfused layers' order (conv weights, conv
//! bias, BN gamma, BN beta) and the BN running statistics live in
//! `state()`, so frozen weights transfer mechanically from the source
//! layers.

use sw26010::CoreGroup;
use swdnn::fused::{self, ConvBnReluOperands};
use swdnn::ConvShape;

use crate::blob::Blob;
use crate::filler::Filler;
use crate::layer::Layer;

pub(crate) struct FusedConvBnReluLayer {
    name: String,
    eps: f32,
    shape: ConvShape,
    /// `(N_o, N_i, K, K)` — the fused path always runs the explicit
    /// (NCHW) conv plan.
    weights: Blob,
    bias: Option<Blob>,
    gamma: Blob,
    beta: Blob,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
}

impl FusedConvBnReluLayer {
    /// A fused convolution of `shape`, its weights MSRA-filled from
    /// `seed` and its BN at the identity when `materialize` is set.
    pub fn new(
        name: &str,
        shape: ConvShape,
        bias: bool,
        eps: f32,
        materialize: bool,
        seed: u64,
    ) -> Self {
        let mut weights =
            Blob::with_mode(&[shape.out_c, shape.in_c, shape.k, shape.k], materialize);
        let mut gamma = Blob::with_mode(&[shape.out_c], materialize);
        let (mut running_mean, mut running_var) = (Vec::new(), Vec::new());
        if materialize {
            let fan_in = shape.in_c * shape.k * shape.k;
            Filler::Msra.fill(weights.data_mut(), fan_in, seed);
            gamma.data_mut().fill(1.0);
            running_mean = vec![0.0; shape.out_c];
            running_var = vec![1.0; shape.out_c];
        }
        FusedConvBnReluLayer {
            name: name.into(),
            eps,
            shape,
            weights,
            bias: bias.then(|| Blob::with_mode(&[shape.out_c], materialize)),
            gamma,
            beta: Blob::with_mode(&[shape.out_c], materialize),
            running_mean,
            running_var,
        }
    }
}

impl Layer for FusedConvBnReluLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "FusedConvBnRelu"
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let shape = self.shape;
        let ops = cg.mode().is_functional().then(|| ConvBnReluOperands {
            input: bottoms[0].data(),
            weights: self.weights.data(),
            bias: self.bias.as_ref().map(|b| b.data()),
            gamma: self.gamma.data(),
            beta: self.beta.data(),
            mean: &self.running_mean,
            var: &self.running_var,
            output: tops[0].data_mut(),
        });
        fused::forward(cg, &shape, self.eps, ops);
    }

    fn backward(&mut self, _cg: &mut CoreGroup, _t: &[&Blob], _b: &mut [&mut Blob], _p: &[bool]) {
        panic!(
            "FusedConvBnRelu '{}' is inference-only; it has no backward pass",
            self.name
        );
    }

    fn params_mut(&mut self) -> Vec<&mut Blob> {
        let mut out = vec![&mut self.weights];
        if let Some(b) = &mut self.bias {
            out.push(b);
        }
        out.push(&mut self.gamma);
        out.push(&mut self.beta);
        out
    }

    fn params(&self) -> Vec<&Blob> {
        let mut out = vec![&self.weights];
        if let Some(b) = &self.bias {
            out.push(b);
        }
        out.push(&self.gamma);
        out.push(&self.beta);
        out
    }

    fn state(&self) -> Vec<&[f32]> {
        vec![&self.running_mean, &self.running_var]
    }

    fn state_mut(&mut self) -> Vec<&mut Vec<f32>> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

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
use crate::layer::{expect_4d, Layer};

pub(crate) struct FusedConvBnReluLayer {
    name: String,
    num_output: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    eps: f32,
    shape: Option<ConvShape>,
    /// `(N_o, N_i, K, K)` — the fused path always runs the explicit
    /// (NCHW) conv plan.
    weights: Blob,
    bias: Option<Blob>,
    gamma: Blob,
    beta: Blob,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    seed: u64,
}

impl FusedConvBnReluLayer {
    pub fn new(
        name: &str,
        num_output: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        eps: f32,
    ) -> Self {
        FusedConvBnReluLayer {
            name: name.into(),
            num_output,
            kernel,
            stride,
            pad,
            eps,
            shape: None,
            weights: Blob::default(),
            bias: bias.then(Blob::default),
            gamma: Blob::default(),
            beta: Blob::default(),
            running_mean: Vec::new(),
            running_var: Vec::new(),
            seed: crate::rng::layer_seed(0, name),
        }
    }

    pub(crate) fn with_base_seed(mut self, base: u64) -> Self {
        self.seed = crate::rng::layer_seed(base, &self.name);
        self
    }
}

impl Layer for FusedConvBnReluLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "FusedConvBnRelu"
    }

    fn setup(
        &mut self,
        bottoms: &[Vec<usize>],
        materialize: bool,
    ) -> Result<Vec<Vec<usize>>, String> {
        let (b, c, h, w) = expect_4d(&bottoms[0], "FusedConvBnRelu")?;
        let shape = ConvShape {
            batch: b,
            in_c: c,
            in_h: h,
            in_w: w,
            out_c: self.num_output,
            k: self.kernel,
            stride: self.stride,
            pad: self.pad,
        };
        shape.validate()?;
        self.shape = Some(shape);
        self.weights = Blob::with_mode(&[shape.out_c, shape.in_c, shape.k, shape.k], materialize);
        if materialize {
            let fan_in = shape.in_c * shape.k * shape.k;
            Filler::Msra.fill(self.weights.data_mut(), fan_in, self.seed);
        }
        if let Some(bias) = &mut self.bias {
            *bias = Blob::with_mode(&[shape.out_c], materialize);
        }
        self.gamma = Blob::with_mode(&[shape.out_c], materialize);
        self.beta = Blob::with_mode(&[shape.out_c], materialize);
        if materialize {
            self.gamma.data_mut().fill(1.0);
            self.running_mean = vec![0.0; shape.out_c];
            self.running_var = vec![1.0; shape.out_c];
        }
        Ok(vec![vec![b, shape.out_c, shape.out_h(), shape.out_w()]])
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let shape = self.shape.expect("layer not set up");
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

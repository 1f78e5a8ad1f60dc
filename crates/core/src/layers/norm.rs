//! Normalisation layers: BatchNorm (the paper's AlexNet refinement) and
//! across-channel LRN (GoogLeNet).

use sw26010::CoreGroup;
use swdnn::bn::{self, BnBwdOperands, BnFwdOperands};
use swdnn::lrn::{self, LrnParams};

use crate::blob::Blob;
use crate::layer::{Layer, Phase};

/// Batch normalisation with learnable scale/shift (gamma, beta) and
/// running statistics for inference.
pub(crate) struct BatchNormLayer {
    name: String,
    eps: f32,
    momentum: f32,
    dims: (usize, usize, usize), // (batch, channels, spatial)
    gamma: Blob,
    beta: Blob,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    save_mean: Vec<f32>,
    save_istd: Vec<f32>,
    phase: Phase,
}

impl BatchNormLayer {
    pub fn new(name: &str, eps: f32, momentum: f32, bottom: &[usize], materialize: bool) -> Self {
        let c = bottom[1];
        let mut gamma = Blob::with_mode(&[c], materialize);
        let stat = |v: f32| if materialize { vec![v; c] } else { Vec::new() };
        if materialize {
            gamma.data_mut().fill(1.0);
        }
        BatchNormLayer {
            name: name.into(),
            eps,
            momentum,
            dims: (bottom[0], c, bottom[2] * bottom[3]),
            gamma,
            beta: Blob::with_mode(&[c], materialize),
            running_mean: stat(0.0),
            running_var: stat(1.0),
            save_mean: stat(0.0),
            save_istd: stat(0.0),
            phase: Phase::Train,
        }
    }
}

impl Layer for BatchNormLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "BatchNorm"
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let (b, c, s) = self.dims;
        if matches!(self.phase, Phase::Test) {
            // Inference: normalise with the running statistics.
            if cg.mode().is_functional() {
                bn::forward_inference(
                    cg,
                    b,
                    c,
                    s,
                    self.eps,
                    Some((
                        bottoms[0].data(),
                        self.gamma.data(),
                        self.beta.data(),
                        &self.running_mean,
                        &self.running_var,
                        tops[0].data_mut(),
                    )),
                );
            } else {
                bn::forward_inference(cg, b, c, s, self.eps, None);
            }
            return;
        }
        if cg.mode().is_functional() {
            bn::forward(
                cg,
                b,
                c,
                s,
                self.eps,
                Some(BnFwdOperands {
                    input: bottoms[0].data(),
                    gamma: self.gamma.data(),
                    beta: self.beta.data(),
                    output: tops[0].data_mut(),
                    save_mean: &mut self.save_mean,
                    save_istd: &mut self.save_istd,
                }),
            );
            // Host-side running-stat update (tiny; solver bookkeeping).
            for ch in 0..c {
                let mean = self.save_mean[ch];
                let istd = self.save_istd[ch] as f64;
                let var = (1.0 / (istd * istd) - self.eps as f64) as f32;
                self.running_mean[ch] =
                    self.momentum * self.running_mean[ch] + (1.0 - self.momentum) * mean;
                self.running_var[ch] =
                    self.momentum * self.running_var[ch] + (1.0 - self.momentum) * var;
            }
        } else {
            bn::forward(cg, b, c, s, self.eps, None);
        }
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        let (b, c, s) = self.dims;
        if cg.mode().is_functional() {
            let (x, dx) = bottoms[0].data_and_diff_mut();
            let (g_data, g_diff) = self.gamma.data_and_diff_mut();
            bn::backward(
                cg,
                b,
                c,
                s,
                Some(BnBwdOperands {
                    input: x,
                    gamma: g_data,
                    out_grad: tops[0].diff(),
                    save_mean: &self.save_mean,
                    save_istd: &self.save_istd,
                    in_grad: dx,
                    gamma_grad: g_diff,
                    beta_grad: self.beta.diff_mut(),
                }),
            );
            let _ = pd;
        } else {
            bn::backward(cg, b, c, s, None);
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Blob> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Blob> {
        vec![&self.gamma, &self.beta]
    }

    fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn state(&self) -> Vec<&[f32]> {
        vec![&self.running_mean, &self.running_var]
    }

    fn state_mut(&mut self) -> Vec<&mut Vec<f32>> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

/// Across-channel local response normalisation.
pub(crate) struct LrnLayer {
    name: String,
    params: LrnParams,
    dims: (usize, usize, usize, usize),
}

impl LrnLayer {
    pub fn new(name: &str, params: LrnParams, bottom: &[usize]) -> Self {
        LrnLayer {
            name: name.into(),
            params,
            dims: (bottom[0], bottom[1], bottom[2], bottom[3]),
        }
    }
}

impl Layer for LrnLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "LRN"
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let (b, c, h, w) = self.dims;
        let io = cg
            .mode()
            .is_functional()
            .then(|| (bottoms[0].data(), tops[0].data_mut()));
        lrn::forward(cg, b, c, h, w, self.params, io);
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        if !pd[0] {
            return;
        }
        let (b, c, h, w) = self.dims;
        if cg.mode().is_functional() {
            let (x, dx) = bottoms[0].data_and_diff_mut();
            lrn::backward(cg, b, c, h, w, self.params, Some((x, tops[0].diff(), dx)));
        } else {
            lrn::backward(cg, b, c, h, w, self.params, None);
        }
    }
}

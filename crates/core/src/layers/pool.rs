//! Pooling layer wrapper (Sec. IV-D).

use sw26010::CoreGroup;
use swdnn::pool::{self, PoolBwdOperands, PoolFwdOperands};
use swdnn::{PoolMethod, PoolShape};

use crate::blob::Blob;
use crate::layer::{expect_4d, Layer};
use crate::netdef::PoolKind;

pub(crate) struct PoolLayer {
    name: String,
    kernel: usize,
    stride: usize,
    pad: usize,
    method: PoolKind,
    shape: Option<PoolShape>,
    /// Max-pooling argmax (f32-encoded indices), kept for the backward pass.
    argmax: Vec<f32>,
}

impl PoolLayer {
    pub fn new(name: &str, kernel: usize, stride: usize, pad: usize, method: PoolKind) -> Self {
        PoolLayer {
            name: name.into(),
            kernel,
            stride,
            pad,
            method,
            shape: None,
            argmax: Vec::new(),
        }
    }

    fn pool_shape(&self) -> PoolShape {
        self.shape.expect("layer not set up")
    }
}

impl Layer for PoolLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Pooling"
    }

    fn setup(
        &mut self,
        bottoms: &[Vec<usize>],
        materialize: bool,
    ) -> Result<Vec<Vec<usize>>, String> {
        let (b, c, h, w) = expect_4d(&bottoms[0], "Pooling")?;
        let shape = PoolShape {
            batch: b,
            channels: c,
            in_h: h,
            in_w: w,
            k: self.kernel,
            stride: self.stride,
            pad: self.pad,
            method: match self.method {
                PoolKind::Max => PoolMethod::Max,
                PoolKind::Average => PoolMethod::Average,
            },
        };
        self.shape = Some(shape);
        if materialize && matches!(shape.method, PoolMethod::Max) {
            self.argmax = vec![0.0; shape.output_len()];
        }
        Ok(vec![vec![b, c, shape.out_h(), shape.out_w()]])
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let shape = self.pool_shape();
        if cg.mode().is_functional() {
            let is_max = matches!(shape.method, PoolMethod::Max);
            pool::forward(
                cg,
                &shape,
                Some(PoolFwdOperands {
                    input: bottoms[0].data(),
                    output: tops[0].data_mut(),
                    argmax: is_max.then_some(&mut self.argmax[..]),
                }),
            );
        } else {
            pool::forward(cg, &shape, None);
        }
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
        let shape = self.pool_shape();
        if cg.mode().is_functional() {
            let is_max = matches!(shape.method, PoolMethod::Max);
            pool::backward(
                cg,
                &shape,
                Some(PoolBwdOperands {
                    out_grad: tops[0].diff(),
                    argmax: is_max.then_some(&self.argmax[..]),
                    in_grad: bottoms[0].diff_mut(),
                }),
            );
        } else {
            pool::backward(cg, &shape, None);
        }
    }
}

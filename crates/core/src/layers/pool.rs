//! Pooling layer wrapper (Sec. IV-D).

use sw26010::CoreGroup;
use swdnn::pool::{self, PoolBwdOperands, PoolFwdOperands};
use swdnn::{PoolMethod, PoolShape};

use crate::blob::Blob;
use crate::layer::Layer;

pub(crate) struct PoolLayer {
    name: String,
    shape: PoolShape,
    /// Max-pooling argmax (f32-encoded indices), kept for the backward pass.
    argmax: Vec<f32>,
}

impl PoolLayer {
    pub fn new(name: &str, shape: PoolShape, materialize: bool) -> Self {
        let keeps_argmax = materialize && matches!(shape.method, PoolMethod::Max);
        PoolLayer {
            name: name.into(),
            shape,
            argmax: if keeps_argmax {
                vec![0.0; shape.output_len()]
            } else {
                Vec::new()
            },
        }
    }
}

impl Layer for PoolLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Pooling"
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let shape = self.shape;
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
        let shape = self.shape;
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

//! Layer implementations and the `LayerKind` -> `Box<dyn Layer>` factory.

pub mod conv;
pub mod fused;
pub mod ip;
pub mod loss;
pub(crate) mod norm;
pub mod pool;
pub(crate) mod simple;

pub(crate) use conv::ConvLayer;
pub(crate) use fused::FusedConvBnReluLayer;
pub use ip::InnerProductLayer;
pub(crate) use loss::{AccuracyLayer, SoftmaxLossLayer};
pub(crate) use norm::{BatchNormLayer, LrnLayer};
pub(crate) use pool::PoolLayer;
pub(crate) use simple::{
    ConcatLayer, DropoutLayer, EltwiseSumLayer, InputLayer, ReluLayer, TransformLayer,
};

use crate::layer::Layer;
use crate::netdef::{LayerDef, LayerKind};

/// Instantiate a layer from its definition with the default base seed.
pub fn build(def: &LayerDef) -> Box<dyn Layer> {
    build_seeded(def, 0)
}

/// Instantiate a layer from its definition; `base_seed` parameterises
/// every filler-initialised layer (convolution, inner product) so a whole
/// network's weights are reproducible from one explicit seed.
pub(crate) fn build_seeded(def: &LayerDef, base_seed: u64) -> Box<dyn Layer> {
    let name = def.name.as_str();
    match &def.kind {
        LayerKind::Input { shape, with_labels } => {
            Box::new(InputLayer::new(name, shape.clone(), *with_labels))
        }
        LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            bias,
            format,
        } => Box::new(
            ConvLayer::new(name, *num_output, *kernel, *stride, *pad, *bias, *format)
                .with_base_seed(base_seed),
        ),
        LayerKind::Pooling {
            kernel,
            stride,
            pad,
            method,
        } => Box::new(PoolLayer::new(name, *kernel, *stride, *pad, *method)),
        LayerKind::InnerProduct { num_output, bias } => {
            Box::new(InnerProductLayer::new(name, *num_output, *bias).with_base_seed(base_seed))
        }
        LayerKind::ReLU => Box::new(ReluLayer::new(name)),
        LayerKind::BatchNorm { eps, momentum } => {
            Box::new(BatchNormLayer::new(name, *eps, *momentum))
        }
        LayerKind::FusedConvBnRelu {
            num_output,
            kernel,
            stride,
            pad,
            bias,
            eps,
        } => Box::new(
            FusedConvBnReluLayer::new(name, *num_output, *kernel, *stride, *pad, *bias, *eps)
                .with_base_seed(base_seed),
        ),
        LayerKind::Lrn {
            local_size,
            alpha,
            beta,
            k,
        } => Box::new(LrnLayer::new(name, *local_size, *alpha, *beta, *k)),
        LayerKind::Dropout { ratio } => Box::new(DropoutLayer::new(name, *ratio)),
        LayerKind::SoftmaxWithLoss => Box::new(SoftmaxLossLayer::new(name)),
        LayerKind::Accuracy { top_k } => Box::new(AccuracyLayer::new(name, *top_k)),
        LayerKind::Concat => Box::new(ConcatLayer::new(name)),
        LayerKind::EltwiseSum => Box::new(EltwiseSumLayer::new(name)),
        LayerKind::TensorTransform { dir } => Box::new(TransformLayer::new(name, *dir)),
    }
}

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

use swdnn::lrn::LrnParams;

use crate::layer::Layer;
use crate::lint::{conv_shape, pool_shape};
use crate::netdef::{LayerDef, LayerKind};

/// Build a layer from its definition and its bottom shapes, which
/// `lint::infer_shapes` has already checked against the definition.
/// `materialize` allocates parameter and scratch storage (timing-only
/// nets carry shapes only); `base_seed` parameterises every
/// filler-initialised layer (convolution, inner product) through
/// `rng::layer_seed`, so a whole network's weights are reproducible from
/// one explicit seed.
pub(crate) fn build_seeded(
    def: &LayerDef,
    bottoms: &[&[usize]],
    materialize: bool,
    base_seed: u64,
) -> Box<dyn Layer> {
    let name = def.name.as_str();
    let seed = crate::rng::layer_seed(base_seed, name);
    match &def.kind {
        LayerKind::Input { .. } => Box::new(InputLayer::new(name)),
        LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            bias,
            format,
        } => Box::new(ConvLayer::new(
            name,
            conv_shape(bottoms[0], *num_output, *kernel, *stride, *pad),
            *bias,
            *format,
            materialize,
            seed,
        )),
        LayerKind::Pooling {
            kernel,
            stride,
            pad,
            method,
        } => Box::new(PoolLayer::new(
            name,
            pool_shape(bottoms[0], *kernel, *stride, *pad, *method),
            materialize,
        )),
        LayerKind::InnerProduct { num_output, bias } => Box::new(InnerProductLayer::new(
            name,
            *num_output,
            *bias,
            bottoms[0],
            materialize,
            seed,
        )),
        LayerKind::ReLU => Box::new(ReluLayer::new(name, bottoms[0])),
        LayerKind::BatchNorm { eps, momentum } => Box::new(BatchNormLayer::new(
            name,
            *eps,
            *momentum,
            bottoms[0],
            materialize,
        )),
        LayerKind::FusedConvBnRelu {
            num_output,
            kernel,
            stride,
            pad,
            bias,
            eps,
        } => Box::new(FusedConvBnReluLayer::new(
            name,
            conv_shape(bottoms[0], *num_output, *kernel, *stride, *pad),
            *bias,
            *eps,
            materialize,
            seed,
        )),
        LayerKind::Lrn {
            local_size,
            alpha,
            beta,
            k,
        } => {
            let params = LrnParams {
                local_size: *local_size,
                alpha: *alpha,
                beta: *beta,
                k: *k,
            };
            Box::new(LrnLayer::new(name, params, bottoms[0]))
        }
        LayerKind::Dropout { ratio } => {
            Box::new(DropoutLayer::new(name, *ratio, bottoms[0], materialize))
        }
        LayerKind::SoftmaxWithLoss => {
            Box::new(SoftmaxLossLayer::new(name, bottoms[0], materialize))
        }
        LayerKind::Accuracy { top_k } => Box::new(AccuracyLayer::new(name, *top_k, bottoms[0])),
        LayerKind::Concat => Box::new(ConcatLayer::new(name, bottoms)),
        LayerKind::EltwiseSum => Box::new(EltwiseSumLayer::new(name, bottoms[0])),
        LayerKind::TensorTransform { dir } => Box::new(TransformLayer::new(name, *dir, bottoms[0])),
    }
}

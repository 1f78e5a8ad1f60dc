//! Model zoo: the five networks of the paper's evaluation (Table III),
//! with their published batch sizes — AlexNet(-BN) 256, VGG-16 64,
//! VGG-19 64, ResNet-50 32, GoogLeNet 128.

mod alexnet;
mod googlenet;
mod resnet;
mod vgg;

pub use alexnet::alexnet_bn;
pub use googlenet::googlenet;
pub use resnet::resnet50;
pub use vgg::{vgg16, vgg19};

use swdnn::transform::TransShape;
use swdnn::{conv_explicit, conv_implicit, transform, ConvShape};

use crate::lint;
use crate::netdef::{ConvFormat, LayerKind, NetDef, PoolKind, TransDir};

/// Number of ImageNet classes.
pub(crate) const IMAGENET_CLASSES: usize = 1000;

/// Network builder that tracks the current activation layout and inserts
/// tensor-transformation layers around implicit-convolution regions, the
/// way swCaffe gathers implicit layers (Sec. IV-C).
pub struct NetBuilder {
    def: NetDef,
    top: String,
    /// Current activation shape in NCHW terms, from the lint's shape rule.
    shape: Vec<usize>,
    format: ConvFormat,
    /// When true, convolutions always use the explicit plan (used for the
    /// DAG-structured networks whose joins need NCHW).
    force_nchw: bool,
    counter: usize,
}

impl NetBuilder {
    /// Start a classification network: data + label inputs.
    pub fn new(name: &str, batch: usize, channels: usize, hw: usize) -> Self {
        let def = NetDef::new(name).layer(
            "data",
            LayerKind::Input {
                shape: vec![batch, channels, hw, hw],
                with_labels: true,
            },
            &[],
            &["data", "label"],
        );
        NetBuilder {
            def,
            top: "data".into(),
            shape: vec![batch, channels, hw, hw],
            format: ConvFormat::Nchw,
            force_nchw: false,
            counter: 0,
        }
    }

    pub fn force_nchw(mut self) -> Self {
        self.force_nchw = true;
        self
    }

    /// Append layer `name` on the current top; its output, shaped by the
    /// lint's rule, becomes the new top.
    fn push(&mut self, name: &str, kind: LayerKind) {
        let def = std::mem::replace(&mut self.def, NetDef::new(""));
        self.def = def.layer(name, kind, &[&self.top], &[name]);
        let layer = self.def.layers.last().expect("a layer was just pushed");
        self.shape = lint::layer_out_shapes(layer, &[&self.shape])
            .unwrap_or_else(|v| panic!("NetBuilder: {v}"))
            .swap_remove(0);
        self.top = name.to_string();
    }

    /// Should this convolution run in the implicit (RCNB) layout, given
    /// the transforms the switch would cost from the current format?
    fn wants_rcnb(&self, shape: &ConvShape) -> bool {
        if self.force_nchw
            || !conv_implicit::supports_forward(shape)
            || !conv_implicit::supports_backward(shape)
        {
            return false;
        }
        let implicit = conv_implicit::forward_time(shape).seconds()
            + conv_implicit::backward_input_time(shape).seconds()
            + conv_implicit::backward_weights_time(shape).seconds();
        let explicit = conv_explicit::forward_time(shape).seconds()
            + conv_explicit::backward_input_time(shape).seconds()
            + conv_explicit::backward_weights_time(shape).seconds();
        // Transform cost: forward + backward for each boundary crossing.
        let tin = TransShape {
            batch: shape.batch,
            channels: shape.in_c,
            height: shape.in_h,
            width: shape.in_w,
        };
        let tout = TransShape {
            batch: shape.batch,
            channels: shape.out_c,
            height: shape.out_h(),
            width: shape.out_w(),
        };
        let mut trans = 2.0 * transform::time_model(&tout).seconds();
        if matches!(self.format, ConvFormat::Nchw) {
            trans += 2.0 * transform::time_model(&tin).seconds();
        }
        implicit + trans < explicit
    }

    /// Insert a transform back to NCHW if the current region is RCNB.
    pub(crate) fn ensure_nchw(&mut self) {
        if matches!(self.format, ConvFormat::Rcnb) {
            self.counter += 1;
            let name = format!("trans{}_to_nchw", self.counter);
            self.push(
                &name,
                LayerKind::TensorTransform {
                    dir: TransDir::RcnbToNchw,
                },
            );
            self.format = ConvFormat::Nchw;
        }
    }

    fn ensure_rcnb(&mut self) {
        if matches!(self.format, ConvFormat::Nchw) {
            self.counter += 1;
            let name = format!("trans{}_to_rcnb", self.counter);
            self.push(
                &name,
                LayerKind::TensorTransform {
                    dir: TransDir::NchwToRcnb,
                },
            );
            self.format = ConvFormat::Rcnb;
        }
    }

    /// Convolution (+ bias), layout chosen automatically.
    pub fn conv(
        mut self,
        name: &str,
        num_output: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let shape = lint::conv_shape(&self.shape, num_output, k, stride, pad);
        let format = if self.wants_rcnb(&shape) {
            ConvFormat::Rcnb
        } else {
            ConvFormat::Nchw
        };
        match format {
            ConvFormat::Rcnb => self.ensure_rcnb(),
            ConvFormat::Nchw => self.ensure_nchw(),
        }
        self.push(
            name,
            LayerKind::Convolution {
                num_output,
                kernel: k,
                stride,
                pad,
                bias: true,
                format,
            },
        );
        self
    }

    /// ReLU (layout-agnostic).
    pub fn relu(mut self, name: &str) -> Self {
        self.push(name, LayerKind::ReLU);
        self
    }

    /// Batch normalisation (NCHW).
    pub fn bn(mut self, name: &str) -> Self {
        self.ensure_nchw();
        self.push(
            name,
            LayerKind::BatchNorm {
                eps: 1e-5,
                momentum: 0.9,
            },
        );
        self
    }

    /// Pooling (NCHW).
    pub fn pool(
        mut self,
        name: &str,
        k: usize,
        stride: usize,
        pad: usize,
        method: PoolKind,
    ) -> Self {
        self.ensure_nchw();
        self.push(
            name,
            LayerKind::Pooling {
                kernel: k,
                stride,
                pad,
                method,
            },
        );
        self
    }

    /// Fully-connected layer (flattens; NCHW).
    pub fn fc(mut self, name: &str, num_output: usize) -> Self {
        self.ensure_nchw();
        self.push(
            name,
            LayerKind::InnerProduct {
                num_output,
                bias: true,
            },
        );
        self
    }

    pub fn dropout(mut self, name: &str, ratio: f32) -> Self {
        self.push(name, LayerKind::Dropout { ratio });
        self
    }

    /// Final softmax loss (+ accuracy) against the label input.
    pub fn loss(mut self) -> NetDef {
        self.ensure_nchw();
        let scores = self.top.clone();
        let def = std::mem::replace(&mut self.def, NetDef::new(""));
        def.layer(
            "loss",
            LayerKind::SoftmaxWithLoss,
            &[&scores, "label"],
            &["loss"],
        )
        .layer(
            "accuracy",
            LayerKind::Accuracy { top_k: 1 },
            &[&scores, "label"],
            &["accuracy"],
        )
        .layer(
            "accuracy_top5",
            LayerKind::Accuracy { top_k: 5 },
            &[&scores, "label"],
            &["accuracy_top5"],
        )
    }
}

/// [`tiny_cnn`] plus a dropout layer: the checkpoint/restore tests use
/// it because the dropout RNG stream is exactly the piece of state a
/// naive weights-only snapshot forgets.
pub fn tiny_dropout_cnn(batch: usize, classes: usize) -> NetDef {
    NetBuilder::new("tiny_dropout_cnn", batch, 3, 8)
        .force_nchw()
        .conv("conv1", 4, 3, 1, 1)
        .bn("bn1")
        .relu("relu1")
        .fc("fc1", 16)
        .relu("relu2")
        .dropout("drop1", 0.3)
        .fc("fc", classes)
        .loss()
}

/// A small CNN for tests and the quickstart example: conv-bn-relu-pool x2,
/// fc, loss — every common layer family in a functional-scale package.
pub fn tiny_cnn(batch: usize, classes: usize) -> NetDef {
    NetBuilder::new("tiny_cnn", batch, 3, 16)
        .force_nchw()
        .conv("conv1", 8, 3, 1, 1)
        .bn("bn1")
        .relu("relu1")
        .pool("pool1", 2, 2, 0, PoolKind::Max)
        .conv("conv2", 16, 3, 1, 1)
        .relu("relu2")
        .pool("pool2", 2, 2, 0, PoolKind::Max)
        .fc("fc", classes)
        .loss()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cnn_is_valid() {
        lint::infer_shapes(&tiny_cnn(4, 10)).unwrap();
    }

    #[test]
    fn builder_tracks_shapes() {
        let b = NetBuilder::new("t", 2, 3, 32).conv("c1", 8, 3, 1, 1).pool(
            "p1",
            2,
            2,
            0,
            PoolKind::Max,
        );
        assert_eq!(b.shape, [2, 8, 16, 16]);
    }
}

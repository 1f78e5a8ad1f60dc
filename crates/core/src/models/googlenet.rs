//! GoogLeNet (Szegedy et al.) — inception modules with channel concat
//! joins. The two auxiliary classifiers of the original are omitted (they
//! only matter for convergence of long training runs, not for the
//! throughput evaluation the paper reports).

use crate::netdef::{ConvFormat, LayerKind, NetDef, PoolKind};

use super::IMAGENET_CLASSES;

fn conv_relu(
    def: NetDef,
    name: &str,
    bottom: &str,
    out: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> (NetDef, String) {
    let relu = format!("{name}/relu");
    let def = def
        .layer(
            name,
            LayerKind::Convolution {
                num_output: out,
                kernel: k,
                stride,
                pad,
                bias: true,
                format: ConvFormat::Nchw,
            },
            &[bottom],
            &[name],
        )
        .layer(&relu, LayerKind::ReLU, &[name], &[&relu]);
    (def, relu)
}

/// One inception module: 1x1 / 1x1->3x3 / 1x1->5x5 / pool->1x1, concat.
#[allow(clippy::too_many_arguments)]
fn inception(
    def: NetDef,
    name: &str,
    bottom: &str,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    cp: usize,
) -> (NetDef, String) {
    let (def, b1) = conv_relu(def, &format!("{name}/1x1"), bottom, c1, 1, 1, 0);
    let (def, b3r) = conv_relu(def, &format!("{name}/3x3_reduce"), bottom, c3r, 1, 1, 0);
    let (def, b3) = conv_relu(def, &format!("{name}/3x3"), &b3r, c3, 3, 1, 1);
    let (def, b5r) = conv_relu(def, &format!("{name}/5x5_reduce"), bottom, c5r, 1, 1, 0);
    let (def, b5) = conv_relu(def, &format!("{name}/5x5"), &b5r, c5, 5, 1, 2);
    let pool = format!("{name}/pool");
    let def = def.layer(
        &pool,
        LayerKind::Pooling {
            kernel: 3,
            stride: 1,
            pad: 1,
            method: PoolKind::Max,
        },
        &[bottom],
        &[&pool],
    );
    let (def, bp) = conv_relu(def, &format!("{name}/pool_proj"), &pool, cp, 1, 1, 0);
    let out = format!("{name}/output");
    let def = def.layer(&out, LayerKind::Concat, &[&b1, &b3, &b5, &bp], &[&out]);
    (def, out)
}

/// GoogLeNet at the given batch size (paper: 128).
pub fn googlenet(batch: usize) -> NetDef {
    let def = NetDef::new("googlenet").layer(
        "data",
        LayerKind::Input {
            shape: vec![batch, 3, 224, 224],
            with_labels: true,
        },
        &[],
        &["data", "label"],
    );
    let (def, top) = conv_relu(def, "conv1/7x7_s2", "data", 64, 7, 2, 3);
    let def = def
        .layer(
            "pool1/3x3_s2",
            LayerKind::Pooling {
                kernel: 3,
                stride: 2,
                pad: 0,
                method: PoolKind::Max,
            },
            &[&top],
            &["pool1/3x3_s2"],
        )
        .layer(
            "pool1/norm1",
            LayerKind::Lrn {
                local_size: 5,
                alpha: 1e-4,
                beta: 0.75,
                k: 1.0,
            },
            &["pool1/3x3_s2"],
            &["pool1/norm1"],
        );
    let (def, top) = conv_relu(def, "conv2/3x3_reduce", "pool1/norm1", 64, 1, 1, 0);
    let (def, top) = conv_relu(def, "conv2/3x3", &top, 192, 3, 1, 1);
    let def = def
        .layer(
            "conv2/norm2",
            LayerKind::Lrn {
                local_size: 5,
                alpha: 1e-4,
                beta: 0.75,
                k: 1.0,
            },
            &[&top],
            &["conv2/norm2"],
        )
        .layer(
            "pool2/3x3_s2",
            LayerKind::Pooling {
                kernel: 3,
                stride: 2,
                pad: 0,
                method: PoolKind::Max,
            },
            &["conv2/norm2"],
            &["pool2/3x3_s2"],
        );

    let (def, top) = inception(def, "inception_3a", "pool2/3x3_s2", 64, 96, 128, 16, 32, 32);
    let (def, top) = inception(def, "inception_3b", &top, 128, 128, 192, 32, 96, 64);
    let def = def.layer(
        "pool3/3x3_s2",
        LayerKind::Pooling {
            kernel: 3,
            stride: 2,
            pad: 0,
            method: PoolKind::Max,
        },
        &[&top],
        &["pool3/3x3_s2"],
    );
    let (def, top) = inception(
        def,
        "inception_4a",
        "pool3/3x3_s2",
        192,
        96,
        208,
        16,
        48,
        64,
    );
    let (def, top) = inception(def, "inception_4b", &top, 160, 112, 224, 24, 64, 64);
    let (def, top) = inception(def, "inception_4c", &top, 128, 128, 256, 24, 64, 64);
    let (def, top) = inception(def, "inception_4d", &top, 112, 144, 288, 32, 64, 64);
    let (def, top) = inception(def, "inception_4e", &top, 256, 160, 320, 32, 128, 128);
    let def = def.layer(
        "pool4/3x3_s2",
        LayerKind::Pooling {
            kernel: 3,
            stride: 2,
            pad: 0,
            method: PoolKind::Max,
        },
        &[&top],
        &["pool4/3x3_s2"],
    );
    let (def, top) = inception(
        def,
        "inception_5a",
        "pool4/3x3_s2",
        256,
        160,
        320,
        32,
        128,
        128,
    );
    let (def, top) = inception(def, "inception_5b", &top, 384, 192, 384, 48, 128, 128);
    def.layer(
        "pool5/7x7_s1",
        LayerKind::Pooling {
            kernel: 7,
            stride: 1,
            pad: 0,
            method: PoolKind::Average,
        },
        &[&top],
        &["pool5/7x7_s1"],
    )
    .layer(
        "pool5/drop",
        LayerKind::Dropout { ratio: 0.4 },
        &["pool5/7x7_s1"],
        &["pool5/drop"],
    )
    .layer(
        "loss3/classifier",
        LayerKind::InnerProduct {
            num_output: IMAGENET_CLASSES,
            bias: true,
        },
        &["pool5/drop"],
        &["loss3/classifier"],
    )
    .layer(
        "loss",
        LayerKind::SoftmaxWithLoss,
        &["loss3/classifier", "label"],
        &["loss"],
    )
    .layer(
        "accuracy",
        LayerKind::Accuracy { top_k: 1 },
        &["loss3/classifier", "label"],
        &["accuracy"],
    )
    .layer(
        "accuracy_top5",
        LayerKind::Accuracy { top_k: 5 },
        &["loss3/classifier", "label"],
        &["accuracy_top5"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Net;

    #[test]
    fn googlenet_is_valid() {
        crate::lint::infer_shapes(&googlenet(128)).unwrap();
    }

    #[test]
    fn googlenet_parameter_count_matches_literature() {
        // ~7M parameters (without auxiliary classifiers).
        let net = Net::from_def(&googlenet(128), false).unwrap();
        let m = net.param_len() as f64 / 1e6;
        assert!((5.5..8.0).contains(&m), "GoogLeNet has {m:.1}M params");
    }

    #[test]
    fn googlenet_geometry() {
        let net = Net::from_def(&googlenet(2), false).unwrap();
        assert_eq!(net.blob("pool2/3x3_s2").shape(), &[2, 192, 28, 28]);
        assert_eq!(net.blob("inception_3a/output").shape(), &[2, 256, 28, 28]);
        assert_eq!(net.blob("inception_3b/output").shape(), &[2, 480, 28, 28]);
        assert_eq!(net.blob("inception_4e/output").shape(), &[2, 832, 14, 14]);
        assert_eq!(net.blob("inception_5b/output").shape(), &[2, 1024, 7, 7]);
        assert_eq!(net.blob("pool5/7x7_s1").shape(), &[2, 1024, 1, 1]);
    }
}

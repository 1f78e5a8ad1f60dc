//! ResNet-50 (He et al.) — the harder scaling workload of Figs. 10/11
//! (97.7 MB of parameters vs AlexNet's 232.6 MB, far more compute).
//!
//! DAG wiring (bottleneck blocks with shortcut joins) is written directly
//! against `NetDef`; all convolutions use the explicit/NCHW plan — the
//! 1x1-dominated blocks are exactly the small-channel-resolution shapes
//! the paper identifies as memory-bound on SW26010 (Table III).

use crate::netdef::{ConvFormat, LayerKind, NetDef, PoolKind};

use super::IMAGENET_CLASSES;

#[allow(clippy::too_many_arguments)]
fn conv_bn_relu(
    def: NetDef,
    name: &str,
    bottom: &str,
    out: usize,
    k: usize,
    stride: usize,
    pad: usize,
    relu: bool,
) -> (NetDef, String) {
    let conv = name.to_string();
    let bn = format!("{name}/bn");
    let mut def = def
        .layer(
            &conv,
            LayerKind::Convolution {
                num_output: out,
                kernel: k,
                stride,
                pad,
                bias: false,
                format: ConvFormat::Nchw,
            },
            &[bottom],
            &[&conv],
        )
        .layer(
            &bn,
            LayerKind::BatchNorm {
                eps: 1e-5,
                momentum: 0.9,
            },
            &[&conv],
            &[&bn],
        );
    let mut top = bn.clone();
    if relu {
        let r = format!("{name}/relu");
        def = def.layer(&r, LayerKind::ReLU, &[&top], &[&r]);
        top = r;
    }
    (def, top)
}

/// One bottleneck block: 1x1 (stride) -> 3x3 -> 1x1 (4x), with an identity
/// or projection shortcut.
fn bottleneck(
    def: NetDef,
    name: &str,
    bottom: &str,
    mid: usize,
    out: usize,
    stride: usize,
    project: bool,
) -> (NetDef, String) {
    let (def, a) = conv_bn_relu(
        def,
        &format!("{name}/conv1"),
        bottom,
        mid,
        1,
        stride,
        0,
        true,
    );
    let (def, b) = conv_bn_relu(def, &format!("{name}/conv2"), &a, mid, 3, 1, 1, true);
    let (def, c) = conv_bn_relu(def, &format!("{name}/conv3"), &b, out, 1, 1, 0, false);
    let (def, shortcut) = if project {
        conv_bn_relu(
            def,
            &format!("{name}/proj"),
            bottom,
            out,
            1,
            stride,
            0,
            false,
        )
    } else {
        (def, bottom.to_string())
    };
    let sum = format!("{name}/sum");
    let relu = format!("{name}/out");
    let def = def
        .layer(&sum, LayerKind::EltwiseSum, &[&c, &shortcut], &[&sum])
        .layer(&relu, LayerKind::ReLU, &[&sum], &[&relu]);
    (def, relu)
}

/// ResNet-50 at the given batch size (paper: 32).
pub fn resnet50(batch: usize) -> NetDef {
    let def = NetDef::new("resnet50").layer(
        "data",
        LayerKind::Input {
            shape: vec![batch, 3, 224, 224],
            with_labels: true,
        },
        &[],
        &["data", "label"],
    );
    let (def, top) = conv_bn_relu(def, "conv1", "data", 64, 7, 2, 3, true);
    let def = def.layer(
        "pool1",
        LayerKind::Pooling {
            kernel: 3,
            stride: 2,
            pad: 0,
            method: PoolKind::Max,
        },
        &[&top],
        &["pool1"],
    );
    let mut top = "pool1".to_string();
    let mut def = def;
    // (blocks, mid, out, stride of first block)
    let stages: [(usize, usize, usize, usize); 4] = [
        (3, 64, 256, 1),
        (4, 128, 512, 2),
        (6, 256, 1024, 2),
        (3, 512, 2048, 2),
    ];
    for (si, &(blocks, mid, out, stride)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let name = format!("res{}{}", si + 2, (b'a' + b as u8) as char);
            let (d, t) = bottleneck(
                def,
                &name,
                &top,
                mid,
                out,
                if b == 0 { stride } else { 1 },
                b == 0,
            );
            def = d;
            top = t;
        }
    }
    def.layer(
        "pool5",
        LayerKind::Pooling {
            kernel: 7,
            stride: 1,
            pad: 0,
            method: PoolKind::Average,
        },
        &[&top],
        &["pool5"],
    )
    .layer(
        "fc1000",
        LayerKind::InnerProduct {
            num_output: IMAGENET_CLASSES,
            bias: true,
        },
        &["pool5"],
        &["fc1000"],
    )
    .layer(
        "loss",
        LayerKind::SoftmaxWithLoss,
        &["fc1000", "label"],
        &["loss"],
    )
    .layer(
        "accuracy",
        LayerKind::Accuracy { top_k: 1 },
        &["fc1000", "label"],
        &["accuracy"],
    )
    .layer(
        "accuracy_top5",
        LayerKind::Accuracy { top_k: 5 },
        &["fc1000", "label"],
        &["accuracy_top5"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Net;

    #[test]
    fn resnet50_is_valid() {
        crate::lint::infer_shapes(&resnet50(32)).unwrap();
    }

    #[test]
    fn resnet50_parameter_count_matches_paper() {
        // Paper Sec. VI-C: ResNet-50's parameters total 97.7 MB (~25.5M).
        let net = Net::from_def(&resnet50(32), false).unwrap();
        let mb = net.param_len() as f64 * 4.0 / 1e6;
        assert!(
            (90.0..110.0).contains(&mb),
            "ResNet-50 parameters = {mb:.1} MB"
        );
    }

    #[test]
    fn resnet50_geometry() {
        let net = Net::from_def(&resnet50(2), false).unwrap();
        assert_eq!(net.blob("pool1").shape(), &[2, 64, 56, 56]);
        assert_eq!(net.blob("res2c/out").shape(), &[2, 256, 56, 56]);
        assert_eq!(net.blob("res3d/out").shape(), &[2, 512, 28, 28]);
        assert_eq!(net.blob("res4f/out").shape(), &[2, 1024, 14, 14]);
        assert_eq!(net.blob("res5c/out").shape(), &[2, 2048, 7, 7]);
        assert_eq!(net.blob("pool5").shape(), &[2, 2048, 1, 1]);
    }

    #[test]
    fn resnet50_has_53_convolutions() {
        let n = resnet50(32)
            .layers
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Convolution { .. }))
            .count();
        // 1 stem + 3*(3+1) + 4*3+1 + 6*3+1 + 3*3+1 = 53.
        assert_eq!(n, 53);
    }
}

//! AlexNet with the paper's refinement: local response normalisation
//! replaced by batch normalisation (Sec. VI-A, Fig. 8's "conv/bn" bars).
//!
//! Single-tower formulation (no grouped convolutions), 227x227 inputs.

use crate::netdef::{NetDef, PoolKind};

use super::{NetBuilder, IMAGENET_CLASSES};

/// AlexNet-BN at the given batch size (paper: 256).
pub fn alexnet_bn(batch: usize) -> NetDef {
    NetBuilder::new("alexnet_bn", batch, 3, 227)
        .conv("conv1", 96, 11, 4, 0)
        .bn("conv1/bn")
        .relu("relu1")
        .pool("pool1", 3, 2, 0, PoolKind::Max)
        .conv("conv2", 256, 5, 1, 2)
        .bn("conv2/bn")
        .relu("relu2")
        .pool("pool2", 3, 2, 0, PoolKind::Max)
        .conv("conv3", 384, 3, 1, 1)
        .bn("conv3/bn")
        .relu("relu3")
        .conv("conv4", 384, 3, 1, 1)
        .bn("conv4/bn")
        .relu("relu4")
        .conv("conv5", 256, 3, 1, 1)
        .bn("conv5/bn")
        .relu("relu5")
        .pool("pool5", 3, 2, 0, PoolKind::Max)
        .fc("fc6", 4096)
        .relu("relu6")
        .dropout("drop6", 0.5)
        .fc("fc7", 4096)
        .relu("relu7")
        .dropout("drop7", 0.5)
        .fc("fc8", IMAGENET_CLASSES)
        .loss()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_is_valid() {
        crate::lint::infer_shapes(&alexnet_bn(256)).unwrap();
    }

    #[test]
    fn alexnet_parameter_count_matches_paper() {
        // The paper quotes 232.6 MB of parameters (~58M floats with the
        // single-tower/BN variant; the classic grouped AlexNet is 61M).
        let net = crate::net::Net::from_def(&alexnet_bn(256), false).unwrap();
        let params = net.param_len();
        let mb = params as f64 * 4.0 / 1e6;
        assert!(
            (200.0..280.0).contains(&mb),
            "AlexNet parameters = {mb:.1} MB, expected ~232.6 MB"
        );
    }

    #[test]
    fn alexnet_geometry() {
        // conv1: 227 -> 55; pool1 -> 27; conv2 same; pool2 -> 13;
        // pool5 -> 6; fc6 sees 256*6*6 = 9216.
        let net = crate::net::Net::from_def(&alexnet_bn(8), false).unwrap();
        assert_eq!(net.blob("conv1").shape(), &[8, 96, 55, 55]);
        assert_eq!(net.blob("pool2").shape(), &[8, 256, 13, 13]);
        assert_eq!(net.blob("pool5").shape(), &[8, 256, 6, 6]);
        assert_eq!(net.blob("fc8").shape(), &[8, 1000]);
    }
}

//! VGG-16 and VGG-19 (Simonyan & Zisserman), the networks of Table II and
//! Fig. 9. The builder decides per convolution whether the implicit
//! (RCNB) plan plus its transforms beats the explicit plan — the paper's
//! "gathered" implicit regions fall out of the greedy decision because
//! chained RCNB convolutions only pay the boundary transforms once.

use crate::netdef::{NetDef, PoolKind};

use super::{NetBuilder, IMAGENET_CLASSES};

fn vgg_block(mut b: NetBuilder, stage: usize, convs: usize, channels: usize) -> NetBuilder {
    for i in 1..=convs {
        let name = format!("conv{stage}_{i}");
        b = b
            .conv(&name, channels, 3, 1, 1)
            .relu(&format!("relu{stage}_{i}"));
    }
    b.pool(&format!("pool{stage}"), 2, 2, 0, PoolKind::Max)
}

fn vgg(name: &str, batch: usize, convs_per_stage: [usize; 5]) -> NetDef {
    let mut b = NetBuilder::new(name, batch, 3, 224);
    let channels = [64, 128, 256, 512, 512];
    for (stage, (&n, &c)) in convs_per_stage.iter().zip(&channels).enumerate() {
        b = vgg_block(b, stage + 1, n, c);
    }
    b.fc("fc6", 4096)
        .relu("relu6")
        .dropout("drop6", 0.5)
        .fc("fc7", 4096)
        .relu("relu7")
        .dropout("drop7", 0.5)
        .fc("fc8", IMAGENET_CLASSES)
        .loss()
}

/// VGG-16: stages of [2, 2, 3, 3, 3] convolutions (paper batch 64;
/// Table II uses 128).
pub fn vgg16(batch: usize) -> NetDef {
    vgg("vgg16", batch, [2, 2, 3, 3, 3])
}

/// VGG-19: stages of [2, 2, 4, 4, 4] convolutions (paper batch 64).
pub fn vgg19(batch: usize) -> NetDef {
    vgg("vgg19", batch, [2, 2, 4, 4, 4])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Net;

    #[test]
    fn vgg16_is_valid() {
        crate::lint::infer_shapes(&vgg16(64)).unwrap();
    }

    #[test]
    fn vgg19_is_valid() {
        crate::lint::infer_shapes(&vgg19(64)).unwrap();
    }

    #[test]
    fn vgg16_parameter_count_matches_literature() {
        // ~138M parameters, 102 MB of them in fc6 alone (paper Sec. V-A).
        let net = Net::from_def(&vgg16(64), false).unwrap();
        let m = net.param_len() as f64 / 1e6;
        assert!((130.0..145.0).contains(&m), "VGG-16 has {m:.1}M params");
    }

    #[test]
    fn vgg16_geometry() {
        let net = Net::from_def(&vgg16(4), false).unwrap();
        assert_eq!(net.blob("conv1_1").shape(), &[4, 64, 224, 224]);
        assert_eq!(net.blob("pool5").shape(), &[4, 512, 7, 7]);
        assert_eq!(net.blob("fc6").shape(), &[4, 4096]);
    }

    #[test]
    fn vgg19_has_three_extra_convs() {
        let d16 = vgg16(64);
        let d19 = vgg19(64);
        let count = |d: &NetDef| {
            d.layers
                .iter()
                .filter(|l| matches!(l.kind, crate::netdef::LayerKind::Convolution { .. }))
                .count()
        };
        assert_eq!(count(&d16), 13);
        assert_eq!(count(&d19), 16);
    }
}

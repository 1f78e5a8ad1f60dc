//! The canonical benchmark layer sweep: every VGG-16 convolutional
//! layer at batch 128 (Table II of the paper). This is the single source
//! of truth — the `table2_conv` benchmark and the `swcheck` static lint
//! both import it from here, so the tuner, the benchmarks and the
//! sanitizer always agree on which shapes matter.

use swdnn::ConvShape;

struct Layer {
    name: &'static str,
    ni: usize,
    no: usize,
    hw: usize,
}

const LAYERS: [Layer; 13] = [
    Layer {
        name: "1_1",
        ni: 3,
        no: 64,
        hw: 224,
    },
    Layer {
        name: "1_2",
        ni: 64,
        no: 64,
        hw: 224,
    },
    Layer {
        name: "2_1",
        ni: 64,
        no: 128,
        hw: 112,
    },
    Layer {
        name: "2_2",
        ni: 128,
        no: 128,
        hw: 112,
    },
    Layer {
        name: "3_1",
        ni: 128,
        no: 256,
        hw: 56,
    },
    Layer {
        name: "3_2",
        ni: 256,
        no: 256,
        hw: 56,
    },
    Layer {
        name: "3_3",
        ni: 256,
        no: 256,
        hw: 56,
    },
    Layer {
        name: "4_1",
        ni: 256,
        no: 512,
        hw: 28,
    },
    Layer {
        name: "4_2",
        ni: 512,
        no: 512,
        hw: 28,
    },
    Layer {
        name: "4_3",
        ni: 512,
        no: 512,
        hw: 28,
    },
    Layer {
        name: "5_1",
        ni: 512,
        no: 512,
        hw: 14,
    },
    Layer {
        name: "5_2",
        ni: 512,
        no: 512,
        hw: 14,
    },
    Layer {
        name: "5_3",
        ni: 512,
        no: 512,
        hw: 14,
    },
];

/// The Table II shape sweep: every VGG-16 convolutional layer at batch
/// 128 (k=3, stride 1, pad 1), named `1_1` .. `5_3`.
pub fn vgg_conv_shapes() -> Vec<(&'static str, ConvShape)> {
    LAYERS
        .iter()
        .map(|l| {
            (
                l.name,
                ConvShape {
                    batch: 128,
                    in_c: l.ni,
                    in_h: l.hw,
                    in_w: l.hw,
                    out_c: l.no,
                    k: 3,
                    stride: 1,
                    pad: 1,
                },
            )
        })
        .collect()
}

/// Canonical tune-DB key of a conv shape, e.g.
/// `b128_c3x224x224_o64_k3s1p1`. Two shapes share an entry iff they are
/// field-for-field equal.
pub(crate) fn shape_key(shape: &ConvShape) -> String {
    format!(
        "b{}_c{}x{}x{}_o{}_k{}s{}p{}",
        shape.batch,
        shape.in_c,
        shape.in_h,
        shape.in_w,
        shape.out_c,
        shape.k,
        shape.stride,
        shape.pad
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_thirteen_valid_named_layers() {
        let shapes = vgg_conv_shapes();
        assert_eq!(shapes.len(), 13);
        assert_eq!(shapes[0].0, "1_1");
        assert_eq!(shapes[12].0, "5_3");
        for (name, s) in &shapes {
            s.validate().unwrap_or_else(|e| panic!("conv{name}: {e}"));
            assert_eq!(s.batch, 128);
        }
    }

    #[test]
    fn shape_keys_are_stable_and_shape_determined() {
        let shapes = vgg_conv_shapes();
        let keys: Vec<String> = shapes.iter().map(|(_, s)| shape_key(s)).collect();
        assert_eq!(keys[0], "b128_c3x224x224_o64_k3s1p1");
        // Repeated layers (e.g. conv5_1..5_3) are the same shape and must
        // share a key: the tune DB is keyed by shape, not layer position.
        for ((na, a), (nb, b)) in shapes.iter().zip(shapes.iter().skip(1)) {
            assert_eq!(
                a == b,
                shape_key(a) == shape_key(b),
                "key/shape equality mismatch between conv{na} and conv{nb}"
            );
        }
    }
}
